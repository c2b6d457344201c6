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
//!    ([`belief`]) combined by the inference network's weighted sum
//!    (`#wsum`), which `getBL` and a grouped sum compute set-at-a-time;
//! 3. *query formulation* — weighted term sets, produced upstream (by the
//!    user, or by the thesaurus during dual-coding retrieval).
//!
//! [`contrep`] registers the `CONTREP` structure with Moa and the `getBL`
//! probabilistic operator with the kernel — the extensibility showcase of
//! the paper: *new structures in Moa, supported by new probabilistic
//! operators at the physical level*. Its fused top-k operator ranks a
//! request's pinned [`view::CorpusView`]: a node's index, a live
//! snapshot's segments, or a cluster's shards.

#![warn(missing_docs)]

pub mod belief;
pub mod contrep;
pub mod dict;
pub mod docset;
pub mod index;
pub mod postings;
pub mod text;
pub mod topk;
pub mod view;

pub use belief::{BeliefParams, DEFAULT_BELIEF};
pub use contrep::{register_contrep, Contrep, ContrepStore};
pub use dict::TermDict;
pub use docset::DocSet;
pub use index::{CollectionStats, IndexBuilder, InvertedIndex, TfRows};
pub use postings::{BlockMeta, PostingList, BLOCK_LEN};
pub use text::{is_stopword, porter_stem, tokenize, tokenize_stemmed};
pub use topk::{
    topk_beliefs, topk_channels, ChannelWork, TopKAccumulator, TopKChannel, TopKOutcome,
};
pub use view::{CorpusView, ViewChannel, ViewHits, ViewPart};
