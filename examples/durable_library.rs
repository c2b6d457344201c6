//! Durable library: ingest once, then serve forever from disk.
//!
//! Ingest is the expensive half of the Mirror pipeline — segmentation,
//! feature extraction, clustering, thesaurus mining. The durable storage
//! tier saves its *output* (library rows, vocabulary, thesaurus) into
//! WAL-protected, checksummed 4 KiB pages so a later process cold-opens
//! the instance — deriving the inverted indexes from the rows — in
//! milliseconds and ranks bit-identically, no pixels needed.
//!
//! The second half runs the same library as a durable `LiveMirror`: a
//! merge policy seals the delta into a segment (writing nothing but the
//! op log), then, with a quarter of the documents deleted, rebuilds the
//! generation; a reopened mirror replays the ops since that generation
//! and ranks exactly as before.
//!
//! ```sh
//! cargo run --release --example durable_library
//! ```

use mirror::core::{LiveMirror, MergePolicy, MirrorDbms, Retriever};
use mirror::media::{RobotConfig, WebRobot};
use mirror::monet::{DiskFs, Store, StoreOptions};
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("mirror-durable-demo-{}", std::process::id()));

    // --- process 1: crawl, ingest, save -------------------------------
    let corpus = WebRobot::new(RobotConfig { n_images: 64, ..Default::default() }).crawl();
    let t = Instant::now();
    let mut db = MirrorDbms::with_defaults();
    db.ingest(&corpus)?;
    let ingest_ms = t.elapsed().as_secs_f64() * 1e3;
    let live = db.query_text("sunset over the beach", 5)?;
    db.save(&dir)?;
    println!("ingested {} images in {ingest_ms:.0} ms and saved to {}", db.n_docs(), dir.display());

    // --- process 2 (simulated): cold open, no corpus in sight ---------
    drop(db);
    let t = Instant::now();
    let db = MirrorDbms::open(&dir)?;
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "cold-opened {} docs in {open_ms:.2} ms ({:.0}× faster than ingest)\n",
        db.n_docs(),
        ingest_ms / open_ms.max(1e-6)
    );

    let reopened = db.query_text("sunset over the beach", 5)?;
    assert_eq!(live, reopened, "a reopened instance must rank bit-identically");
    println!("top-5 for \"sunset over the beach\" (bit-identical to the saved instance):");
    for hit in &reopened {
        println!("  {:.4}  {}", hit.score, hit.url);
    }

    // dual-coded retrieval works too: the association thesaurus came back
    // from disk with the instance
    let dual = db.query_dual("forest", 0.5, 3)?;
    println!("\ntop-3 dual-coded for \"forest\":");
    for hit in &dual {
        println!("  {:.4}  {}", hit.score, hit.url);
    }

    // --- a durable live mirror: seal, rebuild, reopen -----------------
    let rows = db.library_rows();
    let base = MirrorDbms::from_rows(
        db.config().clone(),
        rows[..40].to_vec(),
        db.vocabulary().cloned(),
        db.thesaurus().cloned(),
    )?;
    let live_dir = dir.join("live");
    let store = || -> Result<Arc<Store>, Box<dyn std::error::Error>> {
        let fs = Arc::new(DiskFs::new(&live_dir)?);
        Ok(Arc::new(Store::open(fs, StoreOptions::default())?))
    };
    let live = LiveMirror::create_durable(base, store()?)?;
    let policy = MergePolicy { max_delta_rows: 8, max_delta_bytes: u64::MAX, max_tombstones: 12 };
    live.insert_rows(rows[40..48].to_vec())?;
    assert!(live.maybe_merge(&policy)?);
    assert_eq!(live.generation_stats().current, 0, "8 new rows beside 40 seal");
    for row in &rows[..12] {
        live.delete(&row.url)?;
    }
    assert!(live.maybe_merge(&policy)?);
    assert_eq!(live.generation_stats().current, 1, "12 dead of 48 rebuild");
    live.insert_rows(rows[48..56].to_vec())?;
    assert!(live.maybe_merge(&policy)?);
    let before = live.query_text("sunset over the beach", 5)?;
    drop(live);
    let live = LiveMirror::open_durable(store()?)?;
    assert_eq!(live.generation_stats().current, 1);
    assert_eq!(before, live.query_text("sunset over the beach", 5)?, "a reopened live mirror");
    println!(
        "\nlive mirror: sealed, rebuilt, reopened with {} docs, rankings identical",
        live.n_docs()
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
