//! Request-scoped query parameters.
//!
//! The original facade bound query-term variables into the shared
//! [`crate::Env`] around every query (bind, run, unbind) —
//! which means every request takes a write lock on a shared map, leaks its
//! binding if the executor errors between the two calls, and races other
//! requests for names. [`QueryParams`] replaces that protocol for the
//! typed retrieval path: bindings ride along with the request through
//! [`crate::MoaEngine::query_with`] into the compiler, never touching the
//! environment, and vanish when the request does.
//!
//! `QueryParams` also carries the request's **top-k budget**: when set, the
//! optimizer's `topk_fuse` rewrite ([`crate::opt`]) tries to fuse the
//! compiled ranking plan into a streaming top-k operator — a
//! single-channel ranking or the dual-coding weighted sum of two channels;
//! plans that do not match a fusable shape execute unchanged and the
//! caller truncates.
//! Finally it carries the request's pinned **view** (a live snapshot's
//! segments, a cluster's shards), opaque to the algebra.

use monet::RequestView;
use std::sync::Arc;

/// Per-request bindings, execution budget and pinned view.
#[derive(Debug, Clone, Default)]
pub struct QueryParams {
    bindings: Vec<(String, Vec<(String, f64)>)>,
    top_k: Option<usize>,
    view: Option<Arc<dyn RequestView>>,
}

impl QueryParams {
    /// No bindings, no budget — equivalent to the plain string API.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a weighted query-term variable for this request only. Rebinding
    /// a name replaces the previous terms.
    pub fn bind(mut self, name: impl Into<String>, terms: Vec<(String, f64)>) -> Self {
        let name = name.into();
        if let Some(slot) = self.bindings.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = terms;
        } else {
            self.bindings.push((name, terms));
        }
        self
    }

    /// Set the top-k budget: the query only needs its k best rows. When
    /// the plan fuses ([`crate::opt`]'s `topk_fuse`), rows with zero
    /// belief mass (documents matching no query term, which the grouped
    /// sum would emit as `0.0`) are omitted and only the k best remaining
    /// rows are returned, in rank order.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Pin the request to `view`: the executor's loads and custom
    /// operators see it.
    pub fn with_view(mut self, view: Arc<dyn RequestView>) -> Self {
        self.view = Some(view);
        self
    }

    /// The pinned view, if one is set.
    pub fn view(&self) -> Option<&Arc<dyn RequestView>> {
        self.view.as_ref()
    }

    /// Look up a binding.
    pub fn binding(&self, name: &str) -> Option<&[(String, f64)]> {
        self.bindings.iter().find(|(n, _)| n == name).map(|(_, t)| t.as_slice())
    }

    /// The top-k budget, if one is set.
    pub fn top_k(&self) -> Option<usize> {
        self.top_k
    }

    /// Names bound in this request, in binding order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.bindings.iter().map(|(n, _)| n.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_lookup() {
        let p = QueryParams::new()
            .bind("q", vec![("sunset".into(), 1.0)])
            .bind("v", vec![("gabor_3".into(), 0.5)]);
        assert_eq!(p.binding("q").unwrap()[0].0, "sunset");
        assert_eq!(p.binding("v").unwrap().len(), 1);
        assert!(p.binding("other").is_none());
        assert_eq!(p.names().collect::<Vec<_>>(), vec!["q", "v"]);
    }

    #[test]
    fn rebinding_replaces() {
        let p = QueryParams::new()
            .bind("q", vec![("a".into(), 1.0)])
            .bind("q", vec![("b".into(), 2.0)]);
        assert_eq!(p.binding("q").unwrap(), &[("b".to_string(), 2.0)]);
        assert_eq!(p.names().count(), 1);
    }

    #[test]
    fn top_k_budget() {
        assert_eq!(QueryParams::new().top_k(), None);
        assert_eq!(QueryParams::new().with_top_k(10).top_k(), Some(10));
    }
}
