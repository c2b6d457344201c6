//! # mirror — the Mirror MMDBMS, reassembled
//!
//! A from-scratch Rust reproduction of *"The Mirror MMDBMS architecture"*
//! (A.P. de Vries, M.G.L.M. van Doorn, H.M. Blanken, P.M.G. Apers,
//! VLDB 1999): an extensible object-oriented logical data model (the Moa
//! object algebra) implemented on a binary-relational physical data model
//! (a Monet-style BAT kernel), with the inference-network retrieval model
//! integrated as the `CONTREP` structure, an open distributed daemon
//! architecture for metadata extraction, and the dual-coding image
//! retrieval demo application on top.
//!
//! This umbrella crate re-exports every subsystem:
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`monet`] | `mirror-monet` | binary-relational kernel (BATs, algebra, plans) |
//! | [`moa`] | `mirror-moa` | Moa object algebra: parsing, flattening, rewriting |
//! | [`ir`] | `mirror-ir` | inference network retrieval + `CONTREP` |
//! | [`media`] | `mirror-media` | corpus simulator, segmentation, features |
//! | [`cluster`] | `mirror-cluster` | AutoClass substitute + k-means |
//! | [`thesaurus`] | `mirror-thesaurus` | association thesaurus (dual coding) |
//! | [`daemon`] | `mirror-daemon` | open distributed architecture (Fig. 1) |
//! | [`core`] | `mirror-core` | the Mirror DBMS facade |
//!
//! ## Quickstart
//!
//! ```
//! use mirror::core::{MirrorDbms, MirrorConfig, Retriever};
//! use mirror::media::{WebRobot, RobotConfig};
//!
//! // crawl a small synthetic library and ingest it
//! let corpus = WebRobot::new(RobotConfig { n_images: 12, ..Default::default() }).crawl();
//! let mut db = MirrorDbms::new(MirrorConfig::default());
//! db.ingest(&corpus).unwrap();
//!
//! // the typed retrieval API (every backend implements `Retriever`)
//! let hits = db.query_text("sunset", 5).unwrap();
//! assert!(hits.len() <= 5);
//!
//! // the paper's ranking query, verbatim, on the embedded Moa engine
//! db.env().bind_query("query", vec![("sunset".into(), 1.0)]);
//! let out = db
//!     .engine()
//!     .query("map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](ImageLibraryInternal))")
//!     .unwrap();
//! assert_eq!(out.len(), 12);
//! ```
//!
//! ## Cluster quickstart
//!
//! Partition the same corpus across shards — the answers are
//! bit-identical to the single node:
//!
//! ```
//! use mirror::core::{shard::MirrorCluster, Retriever};
//! use mirror::media::{WebRobot, RobotConfig};
//!
//! let corpus = WebRobot::new(RobotConfig { n_images: 12, ..Default::default() }).crawl();
//! let cluster = MirrorCluster::build(&corpus, 2).unwrap();
//! let hits = cluster.query_text("sunset", 5).unwrap();
//! assert!(hits.len() <= 5);
//! ```

#![warn(missing_docs)]

pub use mirror_core as core;

pub use cluster;
pub use daemon;
pub use ir;
pub use media;
pub use moa;
pub use monet;
pub use thesaurus;

// The object-at-a-time oracle and its fixed-query checks are test support
// (`tests/naive`), not part of the facade; the checks run as the facade's
// unit tests, and reach the subsystems through `mirror::` as the
// integration suites do.
#[cfg(test)]
extern crate self as mirror;

#[cfg(test)]
#[path = "../tests/naive/mod.rs"]
mod oracle;

#[cfg(test)]
#[path = "../tests/naive/fixed_queries.rs"]
mod naive;
