//! Relevance feedback — "the user may provide relevance feedback for
//! these images; this relevance feedback is used to improve the current
//! query".
//!
//! The feedback step is Rocchio-flavoured but lives inside the inference
//! network: terms that are frequent in the judged-relevant documents and
//! rare in the collection (high idf) are added to both channels of the
//! query with a dampened weight.

use crate::query::{weighted_terms, RankedResult};
use crate::retriever::{RetrievalResult, Retriever};
use crate::MirrorDbms;
use ir::InvertedIndex;
use moa::MoaError;
use monet::Oid;
use std::collections::HashMap;

/// A dual-channel query state carried across feedback iterations.
#[derive(Debug, Clone, Default)]
pub struct FeedbackQuery {
    /// Weighted text terms.
    pub text: Vec<(String, f64)>,
    /// Weighted visual terms.
    pub visual: Vec<(String, f64)>,
}

impl FeedbackQuery {
    /// Start from a free-text query.
    pub fn from_text(text: &str) -> Self {
        FeedbackQuery { text: weighted_terms(text), visual: Vec::new() }
    }
}

/// Parameters of the feedback step.
#[derive(Debug, Clone, Copy)]
pub struct FeedbackParams {
    /// Number of expansion terms per channel and iteration.
    pub expand: usize,
    /// Weight of expansion terms relative to the original query.
    pub beta: f64,
}

impl Default for FeedbackParams {
    fn default() -> Self {
        FeedbackParams { expand: 5, beta: 0.5 }
    }
}

impl MirrorDbms {
    /// Execute one feedback-improved retrieval round: expand `query` from
    /// the relevant documents, run the dual-channel query, and return both
    /// the results and the improved query for the next round.
    pub fn query_with_feedback(
        &self,
        query: &FeedbackQuery,
        relevant: &[Oid],
        params: FeedbackParams,
        visual_mix: f64,
        k: usize,
    ) -> RetrievalResult<(Vec<RankedResult>, FeedbackQuery)> {
        let improved = self.expand_query(query, relevant, params)?;
        let results = self.run_feedback_query(&improved, visual_mix, k)?;
        Ok((results, improved))
    }

    /// Expand a dual-channel query from judged-relevant documents.
    pub fn expand_query(
        &self,
        query: &FeedbackQuery,
        relevant: &[Oid],
        params: FeedbackParams,
    ) -> RetrievalResult<FeedbackQuery> {
        let ann = self
            .store()
            .get("ImageLibraryInternal__annotation")
            .ok_or_else(|| MoaError::Unknown("annotation index (ingest first)".into()))?;
        let vis = self
            .store()
            .get("ImageLibraryInternal__image")
            .ok_or_else(|| MoaError::Unknown("image index (ingest first)".into()))?;
        let mut out = query.clone();
        let text_expansion = top_terms(&ann, relevant, params.expand, &out.text);
        merge_terms(&mut out.text, text_expansion, params.beta);
        let visual_expansion = top_terms(&vis, relevant, params.expand, &out.visual);
        merge_terms(&mut out.visual, visual_expansion, params.beta);
        Ok(out)
    }
}

/// Terms of the relevant documents ranked by `Σ tf · idf`, excluding ones
/// already in the query.
fn top_terms(
    index: &InvertedIndex,
    relevant: &[Oid],
    n: usize,
    existing: &[(String, f64)],
) -> Vec<(String, f64)> {
    let have: std::collections::HashSet<&str> = existing.iter().map(|(t, _)| t.as_str()).collect();
    let stats = index.stats();
    let mut scores: HashMap<String, f64> = HashMap::new();
    for (tid, term) in index.dict().iter() {
        if have.contains(term) {
            continue;
        }
        let Some(posts) = index.postings_by_id(tid) else { continue };
        let df = posts.len() as f64;
        if df == 0.0 {
            continue;
        }
        let idf = ((stats.n_docs as f64 + 0.5) / df).ln();
        let mut tf_sum = 0u32;
        for &doc in relevant {
            tf_sum += posts.tf_of(doc);
        }
        if tf_sum > 0 {
            scores.insert(term.to_string(), tf_sum as f64 * idf);
        }
    }
    let mut ranked: Vec<(String, f64)> = scores.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(n);
    // normalise expansion weights to [0, 1]
    if let Some(max) = ranked.first().map(|(_, s)| *s) {
        if max > 0.0 {
            for (_, s) in &mut ranked {
                *s /= max;
            }
        }
    }
    ranked
}

fn merge_terms(into: &mut Vec<(String, f64)>, expansion: Vec<(String, f64)>, beta: f64) {
    for (t, w) in expansion {
        match into.iter_mut().find(|(e, _)| *e == t) {
            Some((_, ew)) => *ew += beta * w,
            None => into.push((t, beta * w)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use media::{RobotConfig, WebRobot};

    fn db() -> &'static MirrorDbms {
        static DB: std::sync::OnceLock<MirrorDbms> = std::sync::OnceLock::new();
        DB.get_or_init(|| {
            let mut db = MirrorDbms::with_defaults();
            let corpus = WebRobot::new(RobotConfig {
                n_images: 36,
                image_size: 24,
                unannotated_fraction: 0.25,
                seed: 19,
            })
            .crawl();
            db.ingest(&corpus).unwrap();
            db
        })
    }

    #[test]
    fn expansion_adds_terms_from_relevant_docs() {
        let db = db();
        let q = FeedbackQuery::from_text("sunset");
        // pick annotated documents of the best-populated theme as relevant
        let theme = {
            let mut counts = std::collections::HashMap::new();
            for d in db.docs().iter().filter(|d| d.annotation.is_some()) {
                *counts.entry(d.theme).or_insert(0usize) += 1;
            }
            *counts.iter().max_by_key(|(_, c)| **c).unwrap().0
        };
        let relevant: Vec<_> = db
            .docs()
            .iter()
            .enumerate()
            .filter(|(_, d)| d.theme == theme && d.annotation.is_some())
            .map(|(i, _)| i as u32)
            .take(4)
            .collect();
        assert!(!relevant.is_empty());
        let improved = db.expand_query(&q, &relevant, FeedbackParams::default()).unwrap();
        assert!(improved.text.len() > q.text.len());
        assert!(!improved.visual.is_empty(), "visual channel should gain terms");
        // original term keeps full weight; expansions are dampened
        let orig = improved.text.iter().find(|(t, _)| t == "sunset").unwrap();
        assert_eq!(orig.1, 1.0);
        assert!(improved.text.iter().all(|(_, w)| *w <= 1.0 + 1e-9));
    }

    #[test]
    fn feedback_improves_precision() {
        let db = db();
        let target_theme = 0usize;
        let q0 = FeedbackQuery::from_text("sunset");
        let r0 = db.run_feedback_query(&q0, 0.5, 10).unwrap();
        let p0 = crate::eval::precision_at_k(
            &r0.iter().map(|r| r.oid).collect::<Vec<_>>(),
            |oid| db.docs()[oid as usize].theme == target_theme,
            10,
        );
        // feed back the true positives of round 0
        let relevant: Vec<_> = r0
            .iter()
            .filter(|r| db.docs()[r.oid as usize].theme == target_theme)
            .map(|r| r.oid)
            .collect();
        let (r1, _) =
            db.query_with_feedback(&q0, &relevant, FeedbackParams::default(), 0.5, 10).unwrap();
        let p1 = crate::eval::precision_at_k(
            &r1.iter().map(|r| r.oid).collect::<Vec<_>>(),
            |oid| db.docs()[oid as usize].theme == target_theme,
            10,
        );
        assert!(p1 >= p0 - 1e-9, "feedback degraded precision: {p0} -> {p1}");
    }

    #[test]
    fn feedback_with_no_relevant_docs_is_identity_ranking() {
        let db = db();
        let q = FeedbackQuery::from_text("sunset");
        let improved = db.expand_query(&q, &[], FeedbackParams::default()).unwrap();
        assert_eq!(improved.text, q.text);
        assert!(improved.visual.is_empty());
    }

    #[test]
    fn merge_accumulates_weights() {
        let mut q = vec![("a".to_string(), 1.0)];
        merge_terms(&mut q, vec![("a".to_string(), 1.0), ("b".to_string(), 0.5)], 0.5);
        assert_eq!(q.len(), 2);
        assert_eq!(q[0].1, 1.5);
        assert_eq!(q[1], ("b".to_string(), 0.25));
    }
}
