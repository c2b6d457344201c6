//! # ir — inference-network information retrieval
//!
//! This crate implements the retrieval machinery of the Mirror DBMS: the
//! **inference network retrieval model** (the ranking scheme of the InQuery
//! system, after Wong & Yao's probabilistic-inference view of IR) and the
//! **CONTREP** Moa structure that exposes it inside the object algebra.
//!
//! An IR model has three parts (Section 3 of the paper):
//!
//! 1. *representation* — documents and queries are bags of terms; the text
//!    pipeline ([`text`]) tokenises, drops stopwords and Porter-stems; the
//!    index ([`index`]) keeps block-compressed postings, document lengths
//!    and collection statistics;
//! 2. *ranking* — per-term beliefs `bel(t,d) = α + (1−α)·ntf·nidf`
//!    ([`belief`]) combined through inference-network operators
//!    (`#sum #wsum #and #or #not #max`, [`net`]);
//! 3. *query formulation* — weighted term sets, produced upstream (by the
//!    user, or by the thesaurus during dual-coding retrieval).
//!
//! [`contrep`] registers the `CONTREP` structure with Moa and the `getBL`
//! probabilistic operator with the kernel — the extensibility showcase of
//! the paper: *new structures in Moa, supported by new probabilistic
//! operators at the physical level*.

#![warn(missing_docs)]

pub mod belief;
pub mod contrep;
pub mod dict;
pub mod index;
pub mod net;
pub mod postings;
pub mod text;
pub mod tombstones;
pub mod topk;

pub use belief::{BeliefParams, DEFAULT_BELIEF};
pub use contrep::{register_contrep, Contrep, ContrepStore};
pub use dict::TermDict;
pub use index::{CollectionStats, IndexBuilder, InvertedIndex, INDEX_FORMAT_VERSION};
pub use net::{QueryNode, Ranker};
pub use postings::{BlockMeta, PostingList, BLOCK_LEN};
pub use text::{is_stopword, porter_stem, tokenize, tokenize_stemmed};
pub use tombstones::Tombstones;
pub use topk::{
    topk_beliefs, topk_beliefs_raw, topk_channels, ChannelWork, RawPostings, TopKAccumulator,
    TopKChannel, TopKOutcome,
};
