//! Belief estimation — the probabilistic heart of the inference network.
//!
//! InQuery's default belief in term `t` given document `d`:
//!
//! ```text
//! bel(t, d) = α + (1 − α) · ntf · nidf
//! ntf  = tf / (tf + 0.5 + 1.5 · dl/avg_dl)      (Okapi-style tf normalisation)
//! nidf = log((N + 0.5) / df) / log(N + 1)
//! ```
//!
//! with default belief α = 0.4 (also the belief assigned when the term does
//! not occur in the document at all).

use crate::index::InvertedIndex;
use monet::Oid;

/// Parameters of the belief function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeliefParams {
    /// The default belief α.
    pub alpha: f64,
    /// The tf saturation constant (InQuery uses 0.5).
    pub k_tf: f64,
    /// The length normalisation constant (InQuery uses 1.5).
    pub k_len: f64,
}

/// InQuery's default parameters.
pub const DEFAULT_BELIEF: BeliefParams = BeliefParams { alpha: 0.4, k_tf: 0.5, k_len: 1.5 };

impl Default for BeliefParams {
    fn default() -> Self {
        DEFAULT_BELIEF
    }
}

impl BeliefParams {
    /// Normalised term frequency.
    #[inline]
    pub fn ntf(&self, tf: u32, dl: u32, avg_dl: f64) -> f64 {
        if tf == 0 {
            return 0.0;
        }
        let dl_ratio = if avg_dl > 0.0 { dl as f64 / avg_dl } else { 1.0 };
        tf as f64 / (tf as f64 + self.k_tf + self.k_len * dl_ratio)
    }

    /// Normalised inverse document frequency.
    #[inline]
    pub fn nidf(&self, df: u32, n_docs: usize) -> f64 {
        if df == 0 || n_docs == 0 {
            return 0.0;
        }
        let n = n_docs as f64;
        ((n + 0.5) / df as f64).ln() / (n + 1.0).ln()
    }

    /// Belief in `t` given `d` from raw statistics.
    #[inline]
    pub fn belief(&self, tf: u32, df: u32, dl: u32, n_docs: usize, avg_dl: f64) -> f64 {
        self.belief_nidf(tf, dl, avg_dl, self.nidf(df, n_docs))
    }

    /// [`Self::belief`] from the term's precomputed [`Self::nidf`] — the
    /// same float operations, without two logarithms per posting for
    /// callers that score many postings of one term.
    #[inline]
    pub fn belief_nidf(&self, tf: u32, dl: u32, avg_dl: f64, nidf: f64) -> f64 {
        if tf == 0 {
            return self.alpha;
        }
        self.alpha + (1.0 - self.alpha) * self.ntf(tf, dl, avg_dl) * nidf
    }

    /// Upper bound on the belief any single document can reach for a term
    /// with the given `max_tf` (greatest within-document frequency) and
    /// `df`. Sound because `ntf(tf, dl) = tf / (tf + k_tf + k_len·dl/avg)`
    /// is monotone in tf and the length term only shrinks it:
    /// `ntf ≤ max_tf / (max_tf + k_tf)`. Top-k evaluation uses this to
    /// skip documents that provably cannot enter the result
    /// ([`crate::topk`]).
    #[inline]
    pub fn belief_bound(&self, max_tf: u32, df: u32, n_docs: usize) -> f64 {
        if max_tf == 0 {
            return self.alpha;
        }
        let sat = max_tf as f64 / (max_tf as f64 + self.k_tf);
        let lift = (1.0 - self.alpha) * sat * self.nidf(df, n_docs);
        // a pathological α > 1 makes the lift negative; the bound is then α
        self.alpha + lift.max(0.0)
    }

    /// Belief in `term` given document `doc` of `index` — the
    /// tuple-at-a-time evaluation path.
    pub fn belief_in(&self, index: &InvertedIndex, term: &str, doc: Oid) -> f64 {
        let stats = index.stats();
        let tf = index.tf(term, doc);
        self.belief(tf, index.df(term), index.doc_len(doc), stats.n_docs, stats.avg_dl)
    }

    /// Set-at-a-time belief list for one term: `(doc, belief)` for every
    /// document in the term's postings (documents without the term are
    /// *not* emitted; their belief is α by definition).
    pub fn belief_list(&self, index: &InvertedIndex, term: &str) -> Vec<(Oid, f64)> {
        let stats = index.stats();
        let df = index.df(term);
        let Some(list) = index.postings_list(term) else { return Vec::new() };
        let mut out = Vec::with_capacity(list.len());
        list.for_each(|doc, tf| {
            out.push((doc, self.belief(tf, df, index.doc_len(doc), stats.n_docs, stats.avg_dl)));
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;

    fn idx() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_text(Some("sunset beach sunset"));
        b.add_text(Some("forest mist"));
        b.add_text(Some("sunset forest beach waves horizon"));
        b.build()
    }

    #[test]
    fn belief_is_alpha_for_absent_terms() {
        let p = DEFAULT_BELIEF;
        let i = idx();
        assert_eq!(p.belief_in(&i, "sunset", 1), 0.4);
        assert_eq!(p.belief_in(&i, "notaterm", 0), 0.4);
    }

    #[test]
    fn belief_increases_with_tf() {
        let p = DEFAULT_BELIEF;
        let i = idx();
        // doc 0 has sunset twice, doc 2 once (and is longer)
        let b0 = p.belief_in(&i, "sunset", 0);
        let b2 = p.belief_in(&i, "sunset", 2);
        assert!(b0 > b2, "{b0} vs {b2}");
        assert!(b0 > 0.4 && b0 < 1.0);
    }

    #[test]
    fn rarer_terms_score_higher() {
        let p = DEFAULT_BELIEF;
        let i = idx();
        // mist occurs in 1 doc, forest in 2: same tf=1 in doc 1
        let rare = p.belief_in(&i, "mist", 1);
        let common = p.belief_in(&i, "forest", 1);
        assert!(rare > common, "{rare} vs {common}");
    }

    #[test]
    fn nidf_monotone_in_df() {
        let p = DEFAULT_BELIEF;
        let a = p.nidf(1, 100);
        let b = p.nidf(10, 100);
        let c = p.nidf(100, 100);
        assert!(a > b && b > c);
        assert!(c >= 0.0);
        assert_eq!(p.nidf(0, 100), 0.0);
    }

    #[test]
    fn ntf_saturates() {
        let p = DEFAULT_BELIEF;
        let n1 = p.ntf(1, 10, 10.0);
        let n10 = p.ntf(10, 10, 10.0);
        let n100 = p.ntf(100, 10, 10.0);
        assert!(n1 < n10 && n10 < n100);
        assert!(n100 < 1.0);
        assert_eq!(p.ntf(0, 10, 10.0), 0.0);
    }

    #[test]
    fn longer_documents_are_normalised_down() {
        let p = DEFAULT_BELIEF;
        let short = p.ntf(2, 5, 10.0);
        let long = p.ntf(2, 50, 10.0);
        assert!(short > long);
    }

    #[test]
    fn belief_list_matches_pointwise() {
        let p = DEFAULT_BELIEF;
        let i = idx();
        let bl = p.belief_list(&i, "sunset");
        assert_eq!(bl.len(), 2);
        for (doc, b) in bl {
            assert!((b - p.belief_in(&i, "sunset", doc)).abs() < 1e-12);
        }
        assert!(p.belief_list(&i, "nothere").is_empty());
    }

    #[test]
    fn belief_bound_dominates_every_document() {
        let p = DEFAULT_BELIEF;
        let i = idx();
        let stats = i.stats();
        for term in ["sunset", "beach", "forest", "mist", "waves", "horizon"] {
            let bound = p.belief_bound(i.max_tf(term), i.df(term), stats.n_docs);
            for doc in 0..stats.n_docs as u32 {
                let b = p.belief_in(&i, term, doc);
                assert!(b <= bound, "{term} doc {doc}: belief {b} above bound {bound}");
            }
        }
        // absent terms bound to α
        assert_eq!(p.belief_bound(0, 0, stats.n_docs), p.alpha);
    }

    #[test]
    fn beliefs_bounded() {
        let p = DEFAULT_BELIEF;
        for tf in [0u32, 1, 5, 100] {
            for df in [1u32, 5] {
                let b = p.belief(tf, df, 10, 100, 12.0);
                assert!((0.0..=1.0).contains(&b), "belief {b} out of range");
            }
        }
    }
}
