//! # mirror-core — the Mirror DBMS facade
//!
//! The Mirror DBMS "provides the basic functionality for probabilistic
//! inference, multimedia data types, and feature extraction techniques,
//! just like traditional database systems provide the basic functionality
//! to build administrative applications". This crate assembles the whole
//! architecture:
//!
//! * the Moa object algebra over the binary-relational kernel
//!   (`mirror-moa` / `mirror-monet`), with `CONTREP` registered
//!   (`mirror-ir`);
//! * the ingest pipeline of Section 5 ([`ingest`]): crawl → segment →
//!   extract features (two colour + four texture daemons) → cluster each
//!   feature space AutoClass-style → emit visual terms → build
//!   `ImageLibraryInternal` with `CONTREP<Text>` and `CONTREP<Image>`
//!   attributes → mine the association thesaurus (dual coding);
//! * the retrieval application ([`query`]): text, visual, dual-coded and
//!   combined structure+content queries — the paper's Moa query shapes,
//!   built as typed request plans behind the unified [`Retriever`] trait;
//! * the concurrent serving layer ([`serve`]): typed
//!   [`serve::RetrievalRequest`]s over an immutable snapshot, executed
//!   directly or through the [`serve::MirrorServer`] worker pool, with the
//!   ranking plan fused into a streaming top-k operator;
//! * scale-out ([`shard`]): a [`shard::MirrorCluster`] of hash-routed
//!   [`LiveMirror`] shards that takes writes, pins every shard, and
//!   scores every shard with the cluster-wide union statistics into the
//!   bit-identical global top-k;
//! * relevance feedback ([`feedback`]) and retrieval evaluation
//!   ([`eval`]).

#![warn(missing_docs)]

pub mod durable;
pub mod eval;
pub mod feedback;
pub mod ingest;
pub mod live;
pub mod query;
pub mod retriever;
pub mod serve;
pub mod shard;

pub use live::{GenerationStats, LiveMirror, LiveReader, MergePolicy, MutableCorpus};
pub use retriever::{RetrievalError, RetrievalResult, Retriever};

use cluster::VisualVocabulary;
use ir::ContrepStore;
use moa::{Env, MoaEngine, OptConfig};
use std::sync::Arc;
use thesaurus::{AssocMeasure, AssociationThesaurus};

/// Which clustering algorithm quantises the feature spaces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Clustering {
    /// AutoClass substitute: EM mixture + BIC model selection.
    AutoClass,
    /// k-means baseline with a fixed k per space.
    KMeans(usize),
}

/// Configuration of a Mirror instance.
#[derive(Debug, Clone)]
pub struct MirrorConfig {
    /// Grid side for the segmentation daemon.
    pub grid: usize,
    /// Clustering algorithm for the visual vocabularies.
    pub clustering: Clustering,
    /// Association measure for the thesaurus.
    pub assoc: AssocMeasure,
    /// Associations taken per query term during expansion.
    pub expand_per_term: usize,
    /// Maximum visual terms per expanded query.
    pub expand_max_terms: usize,
    /// Seed for all stochastic stages.
    pub seed: u64,
}

impl Default for MirrorConfig {
    fn default() -> Self {
        MirrorConfig {
            grid: 3,
            clustering: Clustering::AutoClass,
            assoc: AssocMeasure::Emim,
            expand_per_term: 4,
            expand_max_terms: 12,
            seed: 42,
        }
    }
}

/// One row of `ImageLibraryInternal` in its ingested (post-extraction)
/// form: everything needed to rebuild the internal collection *without*
/// the original pixels. This is the unit the durable storage tier
/// persists — a cold [`MirrorDbms::open`] reloads these rows instead of
/// re-crawling, re-segmenting and re-clustering the corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryRow {
    /// Source URL.
    pub url: String,
    /// Raw annotation text (`None` for unannotated documents).
    pub annotation: Option<String>,
    /// Space-separated visual terms of all the document's segments.
    pub vterms: String,
    /// Ground-truth theme index (evaluation only).
    pub theme: usize,
}

/// The assembled Mirror DBMS.
pub struct MirrorDbms {
    env: Arc<Env>,
    store: Arc<ContrepStore>,
    engine: MoaEngine,
    config: MirrorConfig,
    // both shared with the generations a live merge builds from this one
    vocab: Option<Arc<VisualVocabulary>>,
    thesaurus: Option<Arc<AssociationThesaurus>>,
    /// The ingested library rows (URL, annotation, visual terms, theme) —
    /// the durable form of the collection, retained so [`durable`] can
    /// persist the instance without the original images, and the
    /// per-document metadata (URLs for display, themes for evaluation).
    lib_rows: Vec<LibraryRow>,
}

/// Name of the internal collection built by ingest (the paper's
/// `ImageLibraryInternal`).
pub const INTERNAL: &str = "ImageLibraryInternal";

impl MirrorDbms {
    /// Create an empty instance.
    pub fn new(config: MirrorConfig) -> Self {
        let env = Env::new();
        let store = ir::register_contrep(&env);
        let env = Arc::new(env);
        let engine = MoaEngine::with_opt(Arc::clone(&env), OptConfig::default());
        MirrorDbms {
            env,
            store,
            engine,
            config,
            vocab: None,
            thesaurus: None,
            lib_rows: Vec::new(),
        }
    }

    /// Create with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(MirrorConfig::default())
    }

    /// Build an instance directly from ingested library rows, reusing a
    /// previously-built visual vocabulary / thesaurus. This is the batch
    /// re-ingest every live snapshot ranks bit-identically to, and the
    /// loader the durable tier opens with: it builds both channel indexes
    /// from the rows and loads rows and indexes through the one load a
    /// live merge also uses.
    pub fn from_rows(
        config: MirrorConfig,
        rows: Vec<LibraryRow>,
        vocab: Option<VisualVocabulary>,
        thesaurus: Option<AssociationThesaurus>,
    ) -> moa::Result<Self> {
        let mut db = MirrorDbms::new(config);
        db.load_library_rows(rows)?;
        if let (Some(v), Some(t)) = (vocab, thesaurus) {
            db.set_ingest_outputs(v, t);
        }
        Ok(db)
    }

    /// The logical environment (schemas, catalog, registries).
    pub fn env(&self) -> &Arc<Env> {
        &self.env
    }

    /// The content-representation store.
    pub fn store(&self) -> &Arc<ContrepStore> {
        &self.store
    }

    /// The Moa engine (run arbitrary Moa queries against the library).
    pub fn engine(&self) -> &MoaEngine {
        &self.engine
    }

    /// Replace the optimiser configuration of the embedded engine.
    pub fn set_opt(&mut self, opt: OptConfig) {
        self.engine = MoaEngine::with_opt(Arc::clone(&self.env), opt);
    }

    /// The configuration.
    pub fn config(&self) -> &MirrorConfig {
        &self.config
    }

    /// The visual vocabulary (after ingest).
    pub fn vocabulary(&self) -> Option<&VisualVocabulary> {
        self.vocab.as_deref()
    }

    /// The association thesaurus (after ingest).
    pub fn thesaurus(&self) -> Option<&AssociationThesaurus> {
        self.thesaurus.as_deref()
    }

    /// Document metadata in oid order: the library rows, whose `url`
    /// is for display and whose `theme` is for evaluation only (the
    /// system never ranks with it).
    pub fn docs(&self) -> &[LibraryRow] {
        &self.lib_rows
    }

    /// The ingested library rows in oid order (empty before ingest) —
    /// what the durable storage tier persists and reloads.
    pub fn library_rows(&self) -> &[LibraryRow] {
        &self.lib_rows
    }

    /// Number of ingested documents.
    pub fn n_docs(&self) -> usize {
        self.lib_rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_instance_is_empty() {
        let db = MirrorDbms::with_defaults();
        assert_eq!(db.n_docs(), 0);
        assert!(db.vocabulary().is_none());
        assert!(db.thesaurus().is_none());
        assert!(db.env().structures().contains("CONTREP"));
    }

    #[test]
    fn config_roundtrip() {
        let cfg = MirrorConfig { grid: 4, clustering: Clustering::KMeans(5), ..Default::default() };
        let db = MirrorDbms::new(cfg.clone());
        assert_eq!(db.config().grid, 4);
        assert_eq!(db.config().clustering, Clustering::KMeans(5));
    }
}
