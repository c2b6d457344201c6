//! Scale-out: sharded scatter-gather retrieval over a cluster of
//! [`MirrorDbms`] nodes.
//!
//! The fused `topk_bl` operator (`ir::topk`) merges per-fragment bounded
//! heaps bit-identically; this module extends the same merge discipline
//! from cores to shards. A [`MirrorCluster`] partitions the corpus across
//! N single-node shards — by URL hash or by content (k-means over each
//! document's feature centroid, reusing `cluster::kmeans`) — runs the
//! fused top-k per shard through that shard's replica router
//! ([`ReplicaRouter`]), and folds the per-shard heaps into one
//! [`TopKAccumulator`] exactly as the fragment-parallel executor folds
//! per-fragment heaps.
//!
//! Two invariants make the cluster's answers *bit-identical* to a single
//! node over the same corpus:
//!
//! 1. **Global statistics, local postings.** Belief scores depend on
//!    collection statistics (df, cf, collection size, average document
//!    length). The cluster runs the ingest pipeline once globally and
//!    derives each shard's indexes with
//!    [`ir::InvertedIndex::shard_projection`], which keeps only the
//!    shard's postings but pins the *parent's* statistics — so every
//!    shard scores every document exactly as the single node would.
//! 2. **Order-preserving document ids.** Each shard's documents keep
//!    their ascending global order, so shard-local oid tie-breaking is the
//!    global tie-breaking restricted to the shard, and the cross-shard
//!    merge (score descending, global oid ascending) reproduces the
//!    single-node ranking term for term.

use crate::query::RankedResult;
use crate::retriever::{RetrievalResult, Retriever};
use crate::serve::{ReplicaRouter, RetrievalRequest};
use crate::{DocMeta, LibraryRow, MirrorConfig, MirrorDbms, INTERNAL};
use ir::TopKAccumulator;
use media::CrawledImage;
use monet::Oid;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How documents are placed onto shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// FNV-1a hash of the document URL modulo the shard count — cheap,
    /// stateless, and balanced (see the shard-balance property test).
    Hash,
    /// Content-aware: k-means (k = shard count) over each document's
    /// concatenated per-space feature centroids, so visually similar
    /// documents land on the same shard (theme partitioning).
    Content,
}

/// Configuration of a [`MirrorCluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shards the corpus is partitioned into (≥ 1).
    pub shards: usize,
    /// Replicas per shard (≥ 1); replicas share the immutable shard
    /// snapshot and exist for routing/failover.
    pub replicas: usize,
    /// Placement policy.
    pub partitioning: Partitioning,
    /// Configuration applied to every shard node (and to the one global
    /// pipeline run: clustering, thesaurus, seed, …).
    pub node: MirrorConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 2,
            replicas: 1,
            partitioning: Partitioning::Hash,
            node: MirrorConfig::default(),
        }
    }
}

/// A point-in-time view of a cluster's layout and replica health.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterStats {
    /// Number of shards.
    pub shards: usize,
    /// Replicas per shard.
    pub replicas_per_shard: usize,
    /// Documents held by each shard.
    pub docs_per_shard: Vec<usize>,
    /// Replicas currently believed healthy, per shard.
    pub healthy_per_shard: Vec<usize>,
}

/// FNV-1a shard placement: which shard a URL's document lands on.
pub fn hash_shard(url: &str, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be at least 1");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in url.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// A sharded Mirror deployment: N single-node shards behind replica
/// routers, answering the same typed [`RetrievalRequest`]s as a single
/// [`MirrorDbms`] — and, by construction, with the same answers.
///
/// ```no_run
/// # use mirror_core::{shard::MirrorCluster, Retriever};
/// # let corpus = vec![];
/// let cluster = MirrorCluster::build(&corpus, 4, 2).unwrap();
/// let hits = cluster.query_text("sunset beach", 10).unwrap();
/// ```
pub struct MirrorCluster {
    config: ClusterConfig,
    routers: Vec<ReplicaRouter<MirrorDbms>>,
    /// The shard snapshots behind the routers (replicas share one
    /// snapshot) — kept so the durable layer can persist each shard.
    nodes: Vec<Arc<MirrorDbms>>,
    /// Per shard: local oid → global oid (strictly ascending).
    global_ids: Vec<Vec<Oid>>,
    /// Global per-document metadata in global oid order.
    docs: Vec<DocMeta>,
}

impl MirrorCluster {
    /// Build a cluster with hash partitioning and default node
    /// configuration: ingest the corpus once, project it onto `shards`
    /// shards, and stand up `replicas` replicas per shard.
    pub fn build(corpus: &[CrawledImage], shards: usize, replicas: usize) -> RetrievalResult<Self> {
        Self::build_with(corpus, ClusterConfig { shards, replicas, ..ClusterConfig::default() })
    }

    /// Build a cluster with full control over placement and node config.
    pub fn build_with(corpus: &[CrawledImage], config: ClusterConfig) -> RetrievalResult<Self> {
        assert!(config.shards >= 1, "a cluster needs at least one shard");
        assert!(config.replicas >= 1, "a shard needs at least one replica");

        // Run the ingest pipeline ONCE, globally: extraction, feature
        // clustering, visual documents, thesaurus, and the global CONTREP
        // indexes every shard projection pins its statistics to.
        let mut global = MirrorDbms::new(config.node.clone());
        let extractions = global.extract_inline(corpus);
        let artifacts = global.cluster_and_tokenize(corpus, &extractions);
        global.load_library(corpus, &artifacts.visual_docs)?;
        global.set_ingest_outputs(artifacts.vocab, artifacts.thesaurus);

        // Place every document on a shard.
        let assignment = match config.partitioning {
            Partitioning::Hash => {
                corpus.iter().map(|c| hash_shard(&c.url, config.shards)).collect()
            }
            Partitioning::Content => {
                content_assignment(corpus.len(), &extractions, config.shards, config.node.seed)
            }
        };
        Self::from_global(config, &global, assignment)
    }

    /// Build a hash-partitioned cluster with default node configuration
    /// over already-extracted library rows — the cluster counterpart of
    /// [`MirrorDbms::from_rows`] (no vocabulary or thesaurus, so dual
    /// requests need explicit visual terms).
    pub fn from_rows(
        rows: Vec<LibraryRow>,
        shards: usize,
        replicas: usize,
    ) -> RetrievalResult<Self> {
        let config = ClusterConfig { shards, replicas, ..ClusterConfig::default() };
        assert!(config.shards >= 1, "a cluster needs at least one shard");
        assert!(config.replicas >= 1, "a shard needs at least one replica");
        let global = MirrorDbms::from_rows(config.node.clone(), rows, None, None)?;
        let assignment =
            global.library_rows().iter().map(|r| hash_shard(&r.url, config.shards)).collect();
        Self::from_global(config, &global, assignment)
    }

    /// Stand the shards of `assignment` up from a globally loaded node:
    /// each shard gets its subset of the library rows, with its store
    /// indexes swapped for statistics-pinned projections of the global
    /// ones, and the shared vocabulary/thesaurus cloned in.
    fn from_global(
        config: ClusterConfig,
        global: &MirrorDbms,
        assignment: Vec<usize>,
    ) -> RetrievalResult<Self> {
        let ann_key = format!("{INTERNAL}__annotation");
        let img_key = format!("{INTERNAL}__image");
        let global_ann = global.store().get(&ann_key).expect("ingest built the annotation index");
        let global_img = global.store().get(&img_key).expect("ingest built the image index");
        let rows = global.library_rows();
        let global_ids = shard_doc_lists(assignment, config.shards, rows.len());
        let mut routers = Vec::with_capacity(config.shards);
        let mut nodes = Vec::with_capacity(config.shards);
        for (shard, docs) in global_ids.iter().enumerate() {
            let node = MirrorDbms::from_rows(
                config.node.clone(),
                docs.iter().map(|&d| rows[d as usize].clone()).collect(),
                global.vocabulary().cloned(),
                global.thesaurus().cloned(),
            )?;
            node.store().insert(ann_key.clone(), global_ann.shard_projection(docs));
            node.store().insert(img_key.clone(), global_img.shard_projection(docs));
            let snapshot = Arc::new(node);
            let backends = (0..config.replicas).map(|_| Arc::clone(&snapshot)).collect();
            routers.push(ReplicaRouter::new(shard, backends));
            nodes.push(snapshot);
        }
        let docs = global.docs().to_vec();
        Ok(MirrorCluster { config, routers, nodes, global_ids, docs })
    }

    /// Assemble a cluster from already-built shard nodes — the durable
    /// layer's reopen path. `global_ids` must partition `0..docs.len()`
    /// into strictly ascending per-shard lists matching each node's local
    /// document order.
    pub(crate) fn from_parts(
        config: ClusterConfig,
        nodes: Vec<Arc<MirrorDbms>>,
        global_ids: Vec<Vec<Oid>>,
        docs: Vec<DocMeta>,
    ) -> Self {
        let routers = nodes
            .iter()
            .enumerate()
            .map(|(shard, node)| {
                let backends = (0..config.replicas).map(|_| Arc::clone(node)).collect();
                ReplicaRouter::new(shard, backends)
            })
            .collect();
        MirrorCluster { config, routers, nodes, global_ids, docs }
    }

    /// The shard snapshots, in shard order (replicas share a snapshot).
    pub(crate) fn nodes(&self) -> &[Arc<MirrorDbms>] {
        &self.nodes
    }

    /// All per-shard global-id lists — the durable layer persists these.
    pub(crate) fn global_ids(&self) -> &[Vec<Oid>] {
        &self.global_ids
    }

    /// Global per-document metadata in global oid order.
    pub fn docs(&self) -> &[DocMeta] {
        &self.docs
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.routers.len()
    }

    /// The global document ids held by `shard`, in ascending order.
    pub fn shard_docs(&self, shard: usize) -> &[Oid] {
        &self.global_ids[shard]
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Simulate a replica crash on one shard; the router fails over to
    /// the shard's remaining replicas.
    pub fn kill_replica(&self, shard: usize, replica: usize) {
        self.routers[shard].kill(replica);
    }

    /// Bring a killed replica back.
    pub fn revive_replica(&self, shard: usize, replica: usize) {
        self.routers[shard].revive(replica);
    }

    /// Layout and replica health.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            shards: self.routers.len(),
            replicas_per_shard: self.config.replicas,
            docs_per_shard: self.global_ids.iter().map(Vec::len).collect(),
            healthy_per_shard: self.routers.iter().map(ReplicaRouter::n_healthy).collect(),
        }
    }

    /// Rewrite a shard's local result oids to global oids (URLs are
    /// already global — every shard stores real URLs).
    fn globalize(&self, shard: usize, hits: Vec<RankedResult>) -> Vec<RankedResult> {
        let ids = &self.global_ids[shard];
        hits.into_iter()
            .map(|h| RankedResult { oid: ids[h.oid as usize], url: h.url, score: h.score })
            .collect()
    }
}

impl Retriever for MirrorCluster {
    fn retrieve(&self, req: &RetrievalRequest) -> RetrievalResult<Vec<RankedResult>> {
        req.validate()?;
        // One shard degenerates to a routed single node: execute inline,
        // no scatter threads, no re-merge allocation beyond the remap.
        if self.routers.len() == 1 {
            let hits = self.routers[0].retrieve(req)?;
            return Ok(self.globalize(0, hits));
        }
        // Scatter: every shard ranks its fragment of the corpus in
        // parallel (each through its replica router) …
        let per_shard: Vec<RetrievalResult<Vec<RankedResult>>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .routers
                .iter()
                .enumerate()
                .map(|(shard, router)| {
                    s.spawn(move || router.retrieve(req).map(|hits| self.globalize(shard, hits)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard scatter thread panicked")).collect()
        });
        // … gather: fold the per-shard heaps into one bounded accumulator,
        // the same merge the fragment-parallel executor applies per core.
        let mut acc = TopKAccumulator::new(req.k);
        for result in per_shard {
            for hit in result? {
                acc.push(hit.oid, hit.score);
            }
        }
        Ok(acc
            .into_ranked()
            .into_iter()
            .map(|(oid, score)| RankedResult {
                oid,
                url: self.docs[oid as usize].url.clone(),
                score,
            })
            .collect())
    }

    fn n_docs(&self) -> usize {
        self.docs.len()
    }
}

/// Content-aware placement: k-means over each document's concatenated
/// per-space feature centroid. Falls back to round-robin on degenerate
/// input (no documents, or no features).
fn content_assignment(
    n_docs: usize,
    extractions: &[crate::ingest::Extraction],
    shards: usize,
    seed: u64,
) -> Vec<usize> {
    // mean feature vector per (document, space), spaces in sorted order so
    // concatenation is consistent across documents
    let mut sums: Vec<BTreeMap<&str, (Vec<f64>, usize)>> = vec![BTreeMap::new(); n_docs];
    for (doc, _, space, vector) in extractions {
        let (sum, count) =
            sums[*doc].entry(space.as_str()).or_insert_with(|| (vec![0.0; vector.len()], 0));
        for (s, v) in sum.iter_mut().zip(vector) {
            *s += v;
        }
        *count += 1;
    }
    let points: Vec<Vec<f64>> = sums
        .iter()
        .map(|spaces| {
            spaces
                .values()
                .flat_map(|(sum, count)| {
                    let n = (*count).max(1) as f64;
                    sum.iter().map(move |s| s / n)
                })
                .collect()
        })
        .collect();
    match cluster::kmeans(&points, shards, seed, 50) {
        Some(result) => result.assignment,
        None => (0..n_docs).map(|d| d % shards).collect(),
    }
}

/// Turn a per-document shard assignment into per-shard ascending doc-id
/// lists, rebalancing so no shard is left empty while another has spares
/// (k-means can collapse clusters; an empty shard would waste a node).
fn shard_doc_lists(assignment: Vec<usize>, shards: usize, n_docs: usize) -> Vec<Vec<Oid>> {
    debug_assert_eq!(assignment.len(), n_docs);
    let mut lists: Vec<Vec<Oid>> = vec![Vec::new(); shards];
    for (doc, shard) in assignment.into_iter().enumerate() {
        lists[shard].push(doc as Oid);
    }
    while let Some(empty) = lists.iter().position(Vec::is_empty) {
        let largest = (0..shards).max_by_key(|&s| lists[s].len()).expect("shards >= 1");
        if lists[largest].len() <= 1 {
            break; // fewer documents than shards; empties are unavoidable
        }
        let moved = lists[largest].pop().expect("largest shard is non-empty");
        lists[empty].push(moved);
    }
    for list in &mut lists {
        list.sort_unstable();
    }
    lists
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retriever::RetrievalError;
    use media::{RobotConfig, WebRobot};

    fn corpus(n: usize, seed: u64) -> Vec<CrawledImage> {
        WebRobot::new(RobotConfig { n_images: n, image_size: 24, unannotated_fraction: 0.25, seed })
            .crawl()
    }

    #[test]
    fn hash_shard_is_stable_and_in_range() {
        for shards in 1..=8 {
            for i in 0..200 {
                let url = format!("http://img.example/{i}");
                let s = hash_shard(&url, shards);
                assert!(s < shards);
                assert_eq!(s, hash_shard(&url, shards), "placement must be deterministic");
            }
        }
    }

    #[test]
    fn shard_doc_lists_rebalance_empties() {
        // everything assigned to shard 0 of 3: rebalance must feed 1 and 2
        let lists = shard_doc_lists(vec![0; 9], 3, 9);
        assert!(lists.iter().all(|l| !l.is_empty()), "{lists:?}");
        assert_eq!(lists.iter().map(Vec::len).sum::<usize>(), 9);
        for l in &lists {
            assert!(l.windows(2).all(|w| w[0] < w[1]), "doc lists must stay ascending");
        }
    }

    #[test]
    fn shard_doc_lists_allow_empties_when_docs_are_scarce() {
        let lists = shard_doc_lists(vec![0, 0], 4, 2);
        assert_eq!(lists.iter().map(Vec::len).sum::<usize>(), 2);
        assert_eq!(lists.iter().filter(|l| l.is_empty()).count(), 2);
    }

    #[test]
    fn cluster_partitions_the_whole_corpus() {
        let corpus = corpus(30, 5);
        let cluster = MirrorCluster::build(&corpus, 3, 1).unwrap();
        let stats = cluster.stats();
        assert_eq!(stats.shards, 3);
        assert_eq!(stats.docs_per_shard.iter().sum::<usize>(), 30);
        // every document appears on exactly one shard
        let mut seen: Vec<Oid> = (0..3).flat_map(|s| cluster.shard_docs(s).to_vec()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..30).collect::<Vec<Oid>>());
        assert_eq!(cluster.n_docs(), 30);
    }

    #[test]
    fn cluster_matches_single_node_bit_for_bit() {
        let corpus = corpus(30, 5);
        let mut single = MirrorDbms::with_defaults();
        single.ingest(&corpus).unwrap();
        for shards in [1usize, 2, 3] {
            let cluster = MirrorCluster::build(&corpus, shards, 1).unwrap();
            for (q, k) in [("sunset glow evening", 10), ("forest tree", 7), ("ocean", 30)] {
                let want = single.query_text(q, k).unwrap();
                let got = cluster.query_text(q, k).unwrap();
                assert_eq!(got, want, "text {q:?} k={k} shards={shards}");
            }
            let want = single.query_dual("sunset glow", 0.6, 20).unwrap();
            let got = cluster.query_dual("sunset glow", 0.6, 20).unwrap();
            assert_eq!(got, want, "dual shards={shards}");
            let want = single.query_text_filtered("sunset", "/sunset/", 10).unwrap();
            let got = cluster.query_text_filtered("sunset", "/sunset/", 10).unwrap();
            assert_eq!(got, want, "filtered shards={shards}");
        }
    }

    #[test]
    fn content_partitioning_also_matches_single_node() {
        let corpus = corpus(24, 9);
        let mut single = MirrorDbms::with_defaults();
        single.ingest(&corpus).unwrap();
        let cluster = MirrorCluster::build_with(
            &corpus,
            ClusterConfig { shards: 3, partitioning: Partitioning::Content, ..Default::default() },
        )
        .unwrap();
        assert!(cluster.stats().docs_per_shard.iter().all(|&n| n > 0));
        let want = single.query_text("sunset glow evening", 12).unwrap();
        let got = cluster.query_text("sunset glow evening", 12).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn failover_retries_once_then_errors_when_no_replica_is_left() {
        let corpus = corpus(20, 7);
        let cluster = MirrorCluster::build(&corpus, 2, 2).unwrap();
        let healthy = cluster.query_text("sunset", 10).unwrap();
        // kill one replica of each shard: routing fails over transparently
        cluster.kill_replica(0, 0);
        cluster.kill_replica(1, 1);
        assert_eq!(cluster.query_text("sunset", 10).unwrap(), healthy);
        // kill the rest of shard 0: its router has nothing left
        cluster.kill_replica(0, 1);
        let err = cluster.query_text("sunset", 10).unwrap_err();
        assert!(matches!(err, RetrievalError::ShardUnavailable { shard: 0, .. }), "{err}");
        // revive and the cluster heals
        cluster.revive_replica(0, 0);
        assert_eq!(cluster.query_text("sunset", 10).unwrap(), healthy);
    }

    #[test]
    fn bad_filter_is_rejected_at_the_cluster_edge() {
        let corpus = corpus(12, 3);
        let cluster = MirrorCluster::build(&corpus, 2, 1).unwrap();
        let err = cluster.query_text_filtered("sunset", "", 5).unwrap_err();
        assert!(matches!(err, RetrievalError::BadFilter(_)));
    }
}
