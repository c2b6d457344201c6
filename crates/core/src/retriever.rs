//! The unified retrieval API: one [`Retriever`] trait over every backend —
//! a single [`MirrorDbms`] node, a [`LiveMirror`](crate::LiveMirror) or a
//! sharded [`MirrorCluster`](crate::shard::MirrorCluster). All three run a
//! request the same way, as the node's compiled and optimized Moa plan
//! over a pinned corpus view, so each also answers
//! [`Retriever::explain_analyze`]. The facade query methods
//! (`query_text`, `query_dual`, …) are *provided* methods, so the serving
//! layer, the examples and relevance feedback run unchanged against any
//! backend.
//!
//! Errors are structured ([`RetrievalError`]) so callers can match on
//! error *kind*: an [`Overloaded`](RetrievalError::Overloaded) request is
//! worth resubmitting after a back-off; a compile error would fail
//! identically every time.

use crate::feedback::FeedbackQuery;
use crate::query::RankedResult;
use crate::serve::RetrievalRequest;
use crate::MirrorDbms;
use moa::MoaError;

/// Structured errors of the public retrieval path.
#[derive(Debug, Clone, PartialEq)]
pub enum RetrievalError {
    /// The request's relational filter is malformed (for example an empty
    /// pattern, which would silently match every document). Not
    /// retryable: the same request fails every time.
    BadFilter(String),
    /// The request is malformed in another way (for example a channel mix
    /// outside `[0, 1]`). Not retryable, like [`RetrievalError::BadFilter`].
    BadRequest(String),
    /// The request failed to compile or execute in the algebra layers.
    /// Not retryable for the same reason.
    Compile(MoaError),
    /// The durable storage tier failed: an I/O error, a checksum-rejected
    /// page, or a format-version mismatch. Carries the kernel error so
    /// callers can distinguish corruption from plain I/O.
    Storage(monet::MonetError),
    /// A durable store exists but its save never completed (the process
    /// died mid-save and the completion marker is absent). The store is
    /// openable at the kernel level — re-running the save will converge —
    /// but there is no consistent instance to serve queries from.
    IncompleteState {
        /// What was found (and what was missing).
        detail: String,
    },
    /// The serving tier shed this request at admission: the server's
    /// bounded queue was full, so the request was rejected immediately
    /// instead of being buffered into unbounded latency. The client
    /// should back off and resubmit; the request itself is fine.
    Overloaded {
        /// Queue depth at the moment of rejection (the configured bound).
        queue_depth: usize,
    },
    /// The backend panicked on this request; the serving worker answered
    /// with the panic's message and kept serving. Not retryable.
    Internal(String),
}

impl std::fmt::Display for RetrievalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetrievalError::BadFilter(m) => write!(f, "bad filter: {m}"),
            RetrievalError::BadRequest(m) => write!(f, "bad request: {m}"),
            RetrievalError::Compile(e) => write!(f, "query failed: {e}"),
            RetrievalError::Storage(e) => write!(f, "storage failure: {e}"),
            RetrievalError::IncompleteState { detail } => {
                write!(f, "durable store is incomplete: {detail}")
            }
            RetrievalError::Overloaded { queue_depth } => {
                write!(f, "server overloaded: admission queue full at depth {queue_depth}")
            }
            RetrievalError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for RetrievalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RetrievalError::Compile(e) => Some(e),
            RetrievalError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MoaError> for RetrievalError {
    fn from(e: MoaError) -> Self {
        RetrievalError::Compile(e)
    }
}

impl From<monet::MonetError> for RetrievalError {
    fn from(e: monet::MonetError) -> Self {
        RetrievalError::Storage(e)
    }
}

/// Result alias for the public retrieval path.
pub type RetrievalResult<T> = std::result::Result<T, RetrievalError>;

/// A retrieval backend: anything that executes typed
/// [`RetrievalRequest`]s over an ingested corpus. Every facade query
/// method is a provided method over [`retrieve`](Retriever::retrieve), so
/// backends get the whole query surface for free:
///
/// ```no_run
/// use mirror_core::{MirrorDbms, Retriever};
/// # let db = MirrorDbms::with_defaults();
/// let hits = db.query_text("sunset beach", 10).unwrap();
/// ```
pub trait Retriever: Send + Sync {
    /// Execute a typed retrieval request.
    fn retrieve(&self, req: &RetrievalRequest) -> RetrievalResult<Vec<RankedResult>>;

    /// EXPLAIN ANALYZE of a typed request: the plan it compiles to after
    /// the optimizer passes, executed, with the passes that fired,
    /// estimated and actual rows per operator, and the fused top-k
    /// operator's work — per channel, and per shard and delta segment on
    /// a cluster or a live snapshot.
    fn explain_analyze(&self, req: &RetrievalRequest) -> RetrievalResult<String>;

    /// Number of documents in the (whole) corpus this backend serves.
    fn n_docs(&self) -> usize;

    /// Free-text retrieval over the annotation channel only — Section 3's
    /// `map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](Lib))`.
    fn query_text(&self, text: &str, k: usize) -> RetrievalResult<Vec<RankedResult>> {
        self.retrieve(&RetrievalRequest::text(text, k))
    }

    /// Visual retrieval: a weighted visual-term query against the image
    /// channel — Section 5.2's
    /// `map[sum(THIS)](map[getBL(THIS.image, query, stats)](Lib))`.
    fn query_visual(
        &self,
        visual_terms: &[(String, f64)],
        k: usize,
    ) -> RetrievalResult<Vec<RankedResult>> {
        self.retrieve(&RetrievalRequest::visual(visual_terms.to_vec(), k))
    }

    /// Dual-coded retrieval: the text query is expanded through the
    /// association thesaurus into visual terms; both channels contribute
    /// evidence, mixed with weight `visual_mix ∈ [0, 1]`.
    fn query_dual(
        &self,
        text: &str,
        visual_mix: f64,
        k: usize,
    ) -> RetrievalResult<Vec<RankedResult>> {
        self.retrieve(&RetrievalRequest::dual(text, visual_mix, k))
    }

    /// Combined data/content retrieval: rank only the documents whose URL
    /// contains `url_filter` — a relational selection composed with
    /// probabilistic ranking in one request. The filter is a typed
    /// literal: quotes and backslashes in it are data, not Moa syntax.
    fn query_text_filtered(
        &self,
        text: &str,
        url_filter: &str,
        k: usize,
    ) -> RetrievalResult<Vec<RankedResult>> {
        self.retrieve(&RetrievalRequest::text(text, k).with_filter(url_filter))
    }

    /// Run a dual-channel feedback query state through the typed serving
    /// path (an empty visual channel falls back to text-only ranking).
    fn run_feedback_query(
        &self,
        query: &FeedbackQuery,
        visual_mix: f64,
        k: usize,
    ) -> RetrievalResult<Vec<RankedResult>> {
        self.retrieve(&RetrievalRequest::dual_terms(
            query.text.clone(),
            query.visual.clone(),
            visual_mix,
            k,
        ))
    }
}

impl Retriever for MirrorDbms {
    fn retrieve(&self, req: &RetrievalRequest) -> RetrievalResult<Vec<RankedResult>> {
        req.validate()?;
        self.retrieve_local(req).map_err(RetrievalError::from)
    }

    fn explain_analyze(&self, req: &RetrievalRequest) -> RetrievalResult<String> {
        req.validate()?;
        let (expr, params) = self.compile_request(req, None)?;
        Ok(self.engine().explain_analyze_expr(&expr, &params)?)
    }

    fn n_docs(&self) -> usize {
        self.docs().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moa_errors_convert_into_compile_kind() {
        let err: RetrievalError = MoaError::Unknown("thesaurus".into()).into();
        assert!(matches!(err, RetrievalError::Compile(MoaError::Unknown(_))));
        assert!(err.to_string().contains("thesaurus"));
    }

    #[test]
    fn overloaded_names_its_queue_depth() {
        // load shedding is a backpressure signal for the client: back off
        // and resubmit
        let err = RetrievalError::Overloaded { queue_depth: 64 };
        assert!(err.to_string().contains("depth 64"));
    }

    #[test]
    fn un_ingested_instance_reports_compile_errors() {
        let db = MirrorDbms::with_defaults();
        // dual retrieval needs the thesaurus an ingest would have built
        let err = db.query_dual("sunset", 0.5, 5).unwrap_err();
        assert!(matches!(err, RetrievalError::Compile(_)));
    }
}
