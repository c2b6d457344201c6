//! The inference network: combining evidence from multiple sources.
//!
//! A query is a small belief network over term nodes; operator nodes
//! combine the per-document term beliefs. This "flexible modeling of the
//! combination of evidence originating from different sources" is exactly
//! why the Mirror paper chose the model: text beliefs and visual-term
//! beliefs combine through the same operators (dual coding).

use crate::belief::DEFAULT_BELIEF;
use crate::index::InvertedIndex;
use monet::Oid;
use std::collections::HashMap;

/// A node in the query network.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryNode {
    /// A (weighted) term.
    Term {
        /// The stemmed term.
        term: String,
        /// Query weight (1.0 for plain terms).
        weight: f64,
    },
    /// `#sum` — mean of child beliefs.
    Sum(Vec<QueryNode>),
    /// `#wsum` — weighted mean of child beliefs (weights from terms or 1.0).
    WSum(Vec<QueryNode>),
    /// `#and` — product of child beliefs.
    And(Vec<QueryNode>),
    /// `#or` — noisy-or of child beliefs.
    Or(Vec<QueryNode>),
    /// `#not` — complement.
    Not(Box<QueryNode>),
    /// `#max` — maximum child belief.
    Max(Vec<QueryNode>),
}

impl QueryNode {
    /// A plain term node.
    pub fn term(t: impl Into<String>) -> QueryNode {
        QueryNode::Term { term: t.into(), weight: 1.0 }
    }

    /// A weighted term node.
    pub fn weighted(t: impl Into<String>, w: f64) -> QueryNode {
        QueryNode::Term { term: t.into(), weight: w }
    }

    /// `#sum` over plain terms — the default free-text query shape.
    pub fn sum_of_terms<S: AsRef<str>>(terms: &[S]) -> QueryNode {
        QueryNode::Sum(terms.iter().map(|t| QueryNode::term(t.as_ref())).collect())
    }

    /// `#wsum` over weighted terms.
    pub fn wsum_of(terms: &[(String, f64)]) -> QueryNode {
        QueryNode::WSum(terms.iter().map(|(t, w)| QueryNode::weighted(t.clone(), *w)).collect())
    }

    /// All terms mentioned in the network.
    pub fn terms(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_terms(&mut out);
        out
    }

    fn collect_terms<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            QueryNode::Term { term, .. } => out.push(term),
            QueryNode::Sum(c)
            | QueryNode::WSum(c)
            | QueryNode::And(c)
            | QueryNode::Or(c)
            | QueryNode::Max(c) => {
                for n in c {
                    n.collect_terms(out);
                }
            }
            QueryNode::Not(n) => n.collect_terms(out),
        }
    }

    /// Evaluate the node given per-term beliefs for one document. Terms
    /// absent from the map get the default belief α.
    pub fn eval(&self, term_beliefs: &HashMap<&str, f64>, alpha: f64) -> f64 {
        match self {
            QueryNode::Term { term, .. } => *term_beliefs.get(term.as_str()).unwrap_or(&alpha),
            QueryNode::Sum(children) => {
                if children.is_empty() {
                    return alpha;
                }
                let s: f64 = children.iter().map(|c| c.eval(term_beliefs, alpha)).sum();
                s / children.len() as f64
            }
            QueryNode::WSum(children) => {
                if children.is_empty() {
                    return alpha;
                }
                let mut num = 0.0;
                let mut den = 0.0;
                for c in children {
                    let w = match c {
                        QueryNode::Term { weight, .. } => *weight,
                        _ => 1.0,
                    };
                    num += w * c.eval(term_beliefs, alpha);
                    den += w;
                }
                if den == 0.0 {
                    alpha
                } else {
                    num / den
                }
            }
            QueryNode::And(children) => {
                children.iter().map(|c| c.eval(term_beliefs, alpha)).product()
            }
            QueryNode::Or(children) => {
                1.0 - children.iter().map(|c| 1.0 - c.eval(term_beliefs, alpha)).product::<f64>()
            }
            QueryNode::Not(c) => 1.0 - c.eval(term_beliefs, alpha),
            QueryNode::Max(children) => {
                children.iter().map(|c| c.eval(term_beliefs, alpha)).fold(alpha, f64::max)
            }
        }
    }
}

/// Set-at-a-time ranker: evaluates a query network against an index using
/// term-at-a-time accumulation over postings.
pub struct Ranker<'a> {
    index: &'a InvertedIndex,
}

impl<'a> Ranker<'a> {
    /// Create a ranker with InQuery-default parameters.
    pub fn new(index: &'a InvertedIndex) -> Self {
        Ranker { index }
    }

    /// Rank all documents that match at least one query term. Returns
    /// `(doc, belief)` sorted by descending belief (ties by doc id).
    pub fn rank(&self, query: &QueryNode) -> Vec<(Oid, f64)> {
        let terms = query.terms();
        // gather per-document term beliefs sparsely
        let mut per_doc: HashMap<Oid, HashMap<&str, f64>> = HashMap::new();
        for t in &terms {
            for (doc, b) in DEFAULT_BELIEF.belief_list(self.index, t) {
                per_doc.entry(doc).or_default().insert(*t, b);
            }
        }
        let mut out: Vec<(Oid, f64)> = per_doc
            .into_iter()
            .map(|(doc, beliefs)| (doc, query.eval(&beliefs, DEFAULT_BELIEF.alpha)))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Rank and keep the best `k`.
    pub fn rank_topk(&self, query: &QueryNode, k: usize) -> Vec<(Oid, f64)> {
        let mut r = self.rank(query);
        r.truncate(k);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;

    fn idx() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_text(Some("sunset beach waves"));
        b.add_text(Some("forest mist trees"));
        b.add_text(Some("sunset forest"));
        b.add_text(Some("city lights at night"));
        b.build()
    }

    #[test]
    fn sum_query_ranks_matching_docs_first() {
        let i = idx();
        let r = Ranker::new(&i);
        let q = QueryNode::sum_of_terms(&["sunset", "beach"]);
        let ranked = r.rank(&q);
        // doc 0 matches both terms → best
        assert_eq!(ranked[0].0, 0);
        assert!(ranked[0].1 > ranked[1].1);
        // doc 1 and doc 3 match neither → absent from result
        let docs: Vec<_> = ranked.iter().map(|(d, _)| *d).collect();
        assert!(!docs.contains(&1));
        assert!(!docs.contains(&3));
    }

    #[test]
    fn and_penalises_partial_matches_harder_than_sum() {
        let i = idx();
        let r = Ranker::new(&i);
        let terms = ["sunset", "forest"];
        let sum = QueryNode::sum_of_terms(&terms);
        let and = QueryNode::And(terms.iter().map(|t| QueryNode::term(*t)).collect());
        let s = r.rank(&sum);
        let a = r.rank(&and);
        // doc 2 matches both → top under both combinators
        assert_eq!(s[0].0, 2);
        assert_eq!(a[0].0, 2);
        // the and-belief of a partial match is lower than its sum-belief
        let s_partial = s.iter().find(|(d, _)| *d == 0).unwrap().1;
        let a_partial = a.iter().find(|(d, _)| *d == 0).unwrap().1;
        assert!(a_partial < s_partial);
    }

    #[test]
    fn or_is_optimistic() {
        let i = idx();
        let r = Ranker::new(&i);
        let q = QueryNode::Or(vec![QueryNode::term("sunset"), QueryNode::term("mist")]);
        let ranked = r.rank(&q);
        for (_, b) in &ranked {
            assert!(*b >= 0.4 && *b <= 1.0);
        }
        // a doc matching both is not required; doc 0 (sunset only) present
        assert!(ranked.iter().any(|(d, _)| *d == 0));
    }

    #[test]
    fn not_inverts() {
        let beliefs: HashMap<&str, f64> = [("x", 0.9)].into();
        let q = QueryNode::Not(Box::new(QueryNode::term("x")));
        let v = q.eval(&beliefs, 0.4);
        assert!((v - 0.1).abs() < 1e-12);
    }

    #[test]
    fn max_takes_best_child() {
        let beliefs: HashMap<&str, f64> = [("x", 0.5), ("y", 0.8)].into();
        let q = QueryNode::Max(vec![QueryNode::term("x"), QueryNode::term("y")]);
        assert_eq!(q.eval(&beliefs, 0.4), 0.8);
    }

    #[test]
    fn wsum_respects_weights() {
        let beliefs: HashMap<&str, f64> = [("x", 1.0), ("y", 0.0)].into();
        let q = QueryNode::WSum(vec![QueryNode::weighted("x", 3.0), QueryNode::weighted("y", 1.0)]);
        assert!((q.eval(&beliefs, 0.4) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_operators_yield_alpha() {
        let beliefs: HashMap<&str, f64> = HashMap::new();
        assert_eq!(QueryNode::Sum(vec![]).eval(&beliefs, 0.4), 0.4);
        assert_eq!(QueryNode::WSum(vec![]).eval(&beliefs, 0.4), 0.4);
    }

    #[test]
    fn topk_truncates() {
        let i = idx();
        let r = Ranker::new(&i);
        let q = QueryNode::sum_of_terms(&["sunset", "forest", "mist"]);
        assert!(r.rank(&q).len() >= 3);
        assert_eq!(r.rank_topk(&q, 2).len(), 2);
    }

    #[test]
    fn terms_collects_all() {
        let q = QueryNode::And(vec![
            QueryNode::term("a"),
            QueryNode::Not(Box::new(QueryNode::term("b"))),
        ]);
        assert_eq!(q.terms(), vec!["a", "b"]);
    }
}
