//! The open distributed architecture of Figure 1, live.
//!
//! Daemons (segmenter, six feature extractors, media server) run on their
//! own threads and communicate over the bus; the metadata database
//! collects their output. A new feature daemon is attached *while the
//! system is running* — the extensibility the paper claims for the
//! daemon model.
//!
//! The second half serves the same library from a sharded cluster: the
//! corpus is partitioned across `MirrorDbms` shards with replicated
//! routing, queries scatter-gather through the `Retriever` trait, and a
//! replica is killed mid-demo to show failover.
//!
//! ```sh
//! cargo run --example distributed_library
//! ```

use mirror::core::serve::MirrorServer;
use mirror::core::shard::MirrorCluster;
use mirror::core::{MirrorConfig, MirrorDbms, Retriever};
use mirror::daemon::{
    mediaserver::fetch_media, DaemonRuntime, FeatureDaemon, MediaServer, Message, SegmenterDaemon,
    SegmenterKind, TOPIC_CRAWLED, TOPIC_MEDIA,
};
use mirror::media::{standard_extractors, FeatureExtractor, Image, RobotConfig, WebRobot};
use std::time::Duration;

/// The segmenter's grid: every image is cut into `GRID × GRID` segments.
const GRID: usize = 3;

/// A later-added daemon: mean-luminance, attached at run time.
struct LumaExtractor;

impl FeatureExtractor for LumaExtractor {
    fn space(&self) -> &'static str {
        "luma"
    }
    fn dims(&self) -> usize {
        1
    }
    fn extract(&self, image: &Image) -> mirror::media::FeatureVector {
        let mut acc = 0.0;
        for y in 0..image.height() {
            for x in 0..image.width() {
                acc += image.luma(x, y);
            }
        }
        let n = (image.width() * image.height()).max(1) as f64;
        mirror::media::FeatureVector::new(vec![acc / n])
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = WebRobot::new(RobotConfig {
        n_images: 30,
        image_size: 24,
        unannotated_fraction: 0.3,
        seed: 5,
    })
    .crawl();

    // ---- stand up the daemons of Figure 1 ----
    let rt = DaemonRuntime::new();
    let features = rt.bus().subscribe(mirror::daemon::TOPIC_FEATURES);
    rt.spawn(Box::new(MediaServer::new()));
    rt.spawn(Box::new(SegmenterDaemon::new(SegmenterKind::Grid(GRID))));
    for ex in standard_extractors() {
        rt.spawn(Box::new(FeatureDaemon::new(ex)));
    }
    println!("daemons online: {:?}", rt.daemon_names());

    // ---- the web robot publishes the footage ----
    for c in &corpus {
        rt.bus().publish(
            TOPIC_MEDIA,
            "web-robot",
            Message::StoreMedia { url: c.url.clone(), blob: c.image.to_blob() },
        );
        rt.bus().publish(
            TOPIC_CRAWLED,
            "web-robot",
            Message::ImageCrawled {
                url: c.url.clone(),
                blob: c.image.to_blob(),
                annotation: c.annotation.clone(),
            },
        );
    }

    // attach one more daemon while messages are in flight
    rt.spawn(Box::new(FeatureDaemon::new(Box::new(LumaExtractor))));
    println!("attached 'feature-luma' at run time");

    // the media server answers fetches (the demo's image display path)
    let blob = fetch_media(rt.bus(), &corpus[0].url, Duration::from_secs(2))
        .expect("media server should hold the footage");
    let img = Image::from_blob(&blob).unwrap();
    println!("media server served {} ({}×{})", corpus[0].url, img.width(), img.height());

    // stop the daemons stage by stage: each drains what the stages before
    // it published, so the counts below are final
    rt.shutdown();
    let counts = rt.processed_counts();
    println!("\nmessages processed per daemon:");
    let mut names: Vec<_> = counts.keys().collect();
    names.sort();
    for n in names {
        println!("  {n:<16} {}", counts[n]);
    }

    // collect feature messages like the metadata database would
    let mut n_features = 0usize;
    let mut luma_features = 0usize;
    while let Ok(env) = features.try_recv() {
        if let Message::FeaturesExtracted { space, .. } = env.msg {
            n_features += 1;
            if space == "luma" {
                luma_features += 1;
            }
        }
    }
    println!(
        "\nfeature vectors collected: {n_features} (of which {luma_features} from the late daemon)"
    );

    // every image reached the segmenter and every feature daemon that ran
    // from the start; the late daemon saw the segments published after it
    // attached. Each image yields GRID² segments, one vector per extractor.
    let n = corpus.len() as u64;
    let extractors: Vec<String> =
        standard_extractors().iter().map(|e| format!("feature-{}", e.space())).collect();
    assert_eq!(counts["segmenter"], n);
    for name in &extractors {
        assert_eq!(counts[name], n, "{name}");
    }
    let late = counts["feature-luma"];
    assert!(late <= n);
    let per_image = (GRID * GRID) as u64;
    assert_eq!(n_features as u64, per_image * (extractors.len() as u64 * n + late));
    assert_eq!(luma_features as u64, per_image * late);

    // ---- the same pipeline drives a full ingest, for comparison ----
    let mut db = MirrorDbms::new(MirrorConfig::default());
    db.ingest_via_daemons(&corpus)?;
    println!(
        "\ningest-via-daemons produced an internal library of {} documents, \
         visual vocabulary of {} terms",
        db.n_docs(),
        db.vocabulary().unwrap().total_terms()
    );

    // ---- scale out: the same library sharded with replicated routing ----
    let cluster = MirrorCluster::build(&corpus, 2, 2)?;
    let stats = cluster.stats();
    println!(
        "\ncluster online: {} shards × {} replicas, docs per shard {:?}",
        stats.shards, stats.replicas_per_shard, stats.docs_per_shard
    );

    let single = db.query_text("sunset glow", 5)?;
    let gathered = cluster.query_text("sunset glow", 5)?;
    println!("scatter-gather top-5 (bit-identical to one node: {}):", single == gathered);
    for r in &gathered {
        println!("  {:.4}  {}", r.score, r.url);
    }

    // kill a replica of every shard: the router fails over and the
    // complete top-k survives
    for shard in 0..cluster.n_shards() {
        cluster.kill_replica(shard, 0);
    }
    let after = cluster.query_text("sunset glow", 5)?;
    println!(
        "with replica 0 of every shard down, results unchanged: {} \
         (healthy replicas per shard: {:?})",
        after == gathered,
        cluster.stats().healthy_per_shard
    );

    // the concurrent server runs unchanged against the cluster backend
    let server = MirrorServer::start(std::sync::Arc::new(cluster), 4);
    let pending: Vec<_> = ["sunset glow", "forest moss", "ocean wave"]
        .iter()
        .map(|q| server.submit(mirror::core::serve::RetrievalRequest::text(q, 3)))
        .collect();
    for p in pending {
        p.wait()?;
    }
    let st = server.stats();
    println!(
        "server over the cluster answered {} requests (p50 {:.2} ms, p99 {:.2} ms)",
        st.served, st.p50_latency_ms, st.p99_latency_ms
    );
    Ok(())
}
