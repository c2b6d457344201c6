//! Scale-out: a sharded, writable Mirror deployment answered as one
//! collection.
//!
//! A [`MirrorCluster`] places every document on a shard by the FNV-1a hash
//! of its URL ([`hash_shard`]) — at build time and for every later insert
//! or delete, so a document is always found where its URL routes. Each
//! shard is a [`LiveMirror`]; its replicas share it behind a
//! [`ReplicaRouter`]. A request pins one replica of every shard through
//! that shard's router (a down replica fails over once; a shard with none
//! left surfaces [`RetrievalError::ShardUnavailable`](crate::RetrievalError))
//! and runs as the node's one compiled plan over those snapshots as one
//! [`ir::CorpusView`]: the fused operator scores every shard serially and
//! gathers the hits in one top-k under global oids. Two invariants make
//! the answers *bit-identical* to a single node over the same documents:
//!
//! 1. **Union statistics at query time.** Every shard is scored with the
//!    sums of the shards' collection statistics and dfs, exactly as one
//!    index over the whole collection would score it.
//! 2. **Order-preserving document ids.** Global oids are arrival order and
//!    each shard holds its documents in ascending global order, so shard
//!    tie-breaks are the global ones and the gather (score descending,
//!    global oid ascending) reproduces the single-node ranking.

use crate::ingest::{extract_inline, library_rows};
use crate::live::{url_column, LiveMirror, LiveReader, MutableCorpus, PinnedView};
use crate::query::RankedResult;
use crate::retriever::{RetrievalResult, Retriever};
use crate::serve::{ReplicaRouter, RetrievalRequest};
use crate::{LibraryRow, MirrorConfig, MirrorDbms};
use cluster::VisualVocabulary;
use media::CrawledImage;
use monet::{Bat, Oid};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use std::sync::Arc;
use thesaurus::AssociationThesaurus;

/// How documents are placed onto shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// FNV-1a hash of the document URL modulo the shard count — cheap,
    /// stateless, and balanced (see the shard-balance property test).
    /// Writes route the same way, so every document stays deletable.
    Hash,
}

/// Configuration of a [`MirrorCluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shards the corpus is partitioned into (≥ 1).
    pub shards: usize,
    /// Replicas per shard (≥ 1); replicas share the shard's live corpus
    /// and exist for routing/failover.
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
    /// Live documents held by each shard.
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

/// The cluster's routing state. Readers pin every shard and take a
/// refcounted snapshot of `table` under the read lock; writers hold the
/// write lock across their shard appends (and `merge_all` across its
/// compaction), so a reader's pins and routing rows are a consistent cut.
pub(crate) struct Routing {
    /// Per shard: local oid → global oid (strictly ascending), including
    /// tombstoned documents until a merge compacts them away.
    pub(crate) table: Arc<Vec<Vec<Oid>>>,
    /// The global oid the next inserted document gets.
    pub(crate) next_global: Oid,
    /// Cluster writes acknowledged so far — the write sequence number.
    pub(crate) writes: u64,
}

/// A pinned cut's `(generation, seq)` per shard and its URL column.
type CutColumn = (Vec<(u64, Oid)>, Arc<Bat>);

/// A sharded Mirror deployment: N [`LiveMirror`] shards behind replica
/// routers, answering the same typed [`RetrievalRequest`]s as a single
/// [`MirrorDbms`] — and, by construction, with the same answers — and
/// taking inserts and deletes through [`MutableCorpus`].
///
/// ```no_run
/// # use mirror_core::{shard::MirrorCluster, Retriever};
/// # let corpus = vec![];
/// let cluster = MirrorCluster::build(&corpus, 4, 2).unwrap();
/// let hits = cluster.query_text("sunset beach", 10).unwrap();
/// ```
pub struct MirrorCluster {
    config: ClusterConfig,
    /// The shards' live corpora, in shard order — where writes land.
    shards: Vec<Arc<LiveMirror>>,
    /// One router per shard over its replicas — where reads pin.
    routers: Vec<ReplicaRouter<LiveMirror>>,
    routing: RwLock<Routing>,
    /// The URL column of the last cut a filtered request pinned, keyed by
    /// each shard's [`LiveReader::rows_cut`].
    source: Mutex<Option<CutColumn>>,
}

impl MirrorCluster {
    /// Build a cluster with hash partitioning and default node
    /// configuration: run the corpus-global ingest stages once, place
    /// every document on one of `shards` shards, and stand up `replicas`
    /// replicas per shard.
    pub fn build(corpus: &[CrawledImage], shards: usize, replicas: usize) -> RetrievalResult<Self> {
        Self::build_with(corpus, ClusterConfig { shards, replicas, ..ClusterConfig::default() })
    }

    /// Build a cluster with full control over placement and node config.
    /// Only the ingest stages every shard shares run globally —
    /// extraction, the visual vocabulary and the thesaurus; each shard
    /// then loads its own rows.
    pub fn build_with(corpus: &[CrawledImage], config: ClusterConfig) -> RetrievalResult<Self> {
        let global = MirrorDbms::new(config.node.clone());
        let extractions = extract_inline(corpus, config.node.grid);
        let artifacts = global.cluster_and_tokenize(corpus, &extractions);
        let rows = library_rows(corpus, &artifacts.visual_docs);
        Self::from_rows(config, rows, Some(artifacts.vocab), Some(artifacts.thesaurus))
    }

    /// Stand a cluster up over already-extracted library rows, in arrival
    /// (global oid) order, with a shared vocabulary and thesaurus (without
    /// them, dual requests need explicit visual terms). `rows` may be
    /// empty: a cluster fed only by writes.
    pub fn from_rows(
        config: ClusterConfig,
        rows: Vec<LibraryRow>,
        vocab: Option<VisualVocabulary>,
        thesaurus: Option<AssociationThesaurus>,
    ) -> RetrievalResult<Self> {
        assert!(config.shards >= 1, "a cluster needs at least one shard");
        let next_global = rows.len() as Oid;
        let mut per_shard: Vec<Vec<LibraryRow>> = vec![Vec::new(); config.shards];
        let mut table: Vec<Vec<Oid>> = vec![Vec::new(); config.shards];
        for (oid, row) in rows.into_iter().enumerate() {
            let shard = hash_shard(&row.url, config.shards);
            table[shard].push(oid as Oid);
            per_shard[shard].push(row);
        }
        let mut dbs = Vec::with_capacity(config.shards);
        for rows in per_shard {
            dbs.push(MirrorDbms::from_rows(
                config.node.clone(),
                rows,
                vocab.clone(),
                thesaurus.clone(),
            )?);
        }
        let routing = Routing { table: Arc::new(table), next_global, writes: 0 };
        Ok(Self::from_shards(config, dbs, routing))
    }

    /// Wrap one instance per shard as generation 0 of its live corpus and
    /// stand up the replica routers — shared by [`from_rows`](Self::from_rows)
    /// and the durable layer's reopen path.
    pub(crate) fn from_shards(
        config: ClusterConfig,
        dbs: Vec<MirrorDbms>,
        routing: Routing,
    ) -> Self {
        assert!(config.replicas >= 1, "a shard needs at least one replica");
        let shards: Vec<Arc<LiveMirror>> =
            dbs.into_iter().map(|db| Arc::new(LiveMirror::new(db))).collect();
        let routers = shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                ReplicaRouter::new(i, (0..config.replicas).map(|_| Arc::clone(shard)).collect())
            })
            .collect();
        MirrorCluster {
            config,
            shards,
            routers,
            routing: RwLock::new(routing),
            source: Mutex::default(),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The global ids of the live documents on `shard`, ascending.
    pub fn shard_docs(&self, shard: usize) -> Vec<Oid> {
        let routing = self.routing.read();
        let ids = &routing.table[shard];
        let live = self.shards[shard].pin().surviving_local_ids();
        live.into_iter().map(|local| ids[local as usize]).collect()
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
            shards: self.shards.len(),
            replicas_per_shard: self.config.replicas,
            docs_per_shard: self.shards.iter().map(|s| s.n_docs()).collect(),
            healthy_per_shard: self.routers.iter().map(ReplicaRouter::n_healthy).collect(),
        }
    }

    /// Fold every shard's pending writes into a fresh generation. Holds
    /// the routing write lock, so cluster writes and reads wait while
    /// each shard folds and its routing rows are compacted to the
    /// surviving local ids. Shards without a delta segment or tombstone
    /// are left alone.
    pub fn merge_all(&self) -> RetrievalResult<()> {
        self.merge_locked().map(drop)
    }

    /// [`merge_all`](Self::merge_all), returning the held routing lock so
    /// the durable layer can persist the merged state before any write.
    pub(crate) fn merge_locked(&self) -> RetrievalResult<RwLockWriteGuard<'_, Routing>> {
        let mut routing = self.routing.write();
        for (s, shard) in self.shards.iter().enumerate() {
            if !shard.has_delta() {
                continue;
            }
            let live = shard.pin().surviving_local_ids();
            shard.merge()?;
            let table = Arc::make_mut(&mut routing.table);
            table[s] = live.iter().map(|&local| table[s][local as usize]).collect();
        }
        Ok(routing)
    }

    /// The shards' live corpora, in shard order.
    pub(crate) fn shards(&self) -> &[Arc<LiveMirror>] {
        &self.shards
    }
}

impl MirrorCluster {
    /// Pin one replica of every shard and the routing rows of that cut,
    /// as one corpus view.
    fn pin_view(&self, req: &RetrievalRequest) -> RetrievalResult<PinnedView> {
        req.validate()?;
        let (pins, table) = {
            let routing = self.routing.read();
            let pins = self
                .routers
                .iter()
                .map(|router| router.route(|live| Ok(live.pin())))
                .collect::<RetrievalResult<Vec<LiveReader>>>()?;
            (pins, Arc::clone(&routing.table))
        };
        Ok(PinnedView::new(&pins, Some(table), req, || self.source_column(&pins)))
    }

    /// The URL column of a pinned cut, built once per cut: every shard's
    /// rows laid end to end.
    fn source_column(&self, pins: &[LiveReader]) -> Arc<Bat> {
        let cut: Vec<(u64, Oid)> = pins.iter().map(LiveReader::rows_cut).collect();
        let mut cached = self.source.lock();
        match &*cached {
            Some((key, bat)) if *key == cut => Arc::clone(bat),
            _ => Arc::clone(&cached.insert((cut, Arc::new(url_column(pins)))).1),
        }
    }
}

impl Retriever for MirrorCluster {
    fn retrieve(&self, req: &RetrievalRequest) -> RetrievalResult<Vec<RankedResult>> {
        self.pin_view(req)?.retrieve(req)
    }

    fn explain_analyze(&self, req: &RetrievalRequest) -> RetrievalResult<String> {
        self.pin_view(req)?.explain_analyze(req)
    }

    fn n_docs(&self) -> usize {
        self.shards.iter().map(|s| s.n_docs()).sum()
    }
}

impl MutableCorpus for MirrorCluster {
    fn insert_rows(&self, rows: Vec<LibraryRow>) -> RetrievalResult<u64> {
        let n = self.shards.len();
        let mut routing = self.routing.write();
        let mut per_shard: Vec<Vec<LibraryRow>> = vec![Vec::new(); n];
        let mut added: Vec<Vec<Oid>> = vec![Vec::new(); n];
        for row in rows {
            let s = hash_shard(&row.url, n);
            added[s].push(routing.next_global);
            routing.next_global += 1;
            per_shard[s].push(row);
        }
        // global ids are assigned up front (gaps from a failed batch are
        // harmless — ids only need to be unique and ascending), but each
        // shard's routing rows commit only after its append succeeds, so
        // a failed shard insert never leaves phantom routing rows
        for (s, batch) in per_shard.into_iter().enumerate() {
            if !batch.is_empty() {
                self.shards[s].insert_rows(batch)?;
                Arc::make_mut(&mut routing.table)[s].append(&mut added[s]);
            }
        }
        routing.writes += 1;
        Ok(routing.writes)
    }

    fn delete(&self, url: &str) -> RetrievalResult<Option<u64>> {
        let mut routing = self.routing.write();
        let s = hash_shard(url, self.shards.len());
        Ok(self.shards[s].delete(url)?.map(|_| {
            routing.writes += 1;
            routing.writes
        }))
    }
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
    fn cluster_partitions_the_whole_corpus() {
        let corpus = corpus(30, 5);
        let cluster = MirrorCluster::build(&corpus, 3, 1).unwrap();
        let stats = cluster.stats();
        assert_eq!(stats.shards, 3);
        assert_eq!(stats.docs_per_shard.iter().sum::<usize>(), 30);
        // every document appears on exactly one shard
        let mut seen: Vec<Oid> = (0..3).flat_map(|s| cluster.shard_docs(s)).collect();
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
