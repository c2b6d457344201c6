//! The retrieval application: querying the digital image library.
//!
//! The facade query methods (`query_text`, `query_dual`, …) live on the
//! [`Retriever`](crate::retriever::Retriever) trait as provided methods
//! over the typed serving path ([`crate::serve::RetrievalRequest`] →
//! [`Retriever::retrieve`](crate::retriever::Retriever::retrieve)), so
//! they work identically against a single [`MirrorDbms`](crate::MirrorDbms) node and a
//! sharded [`MirrorCluster`](crate::shard::MirrorCluster). This module
//! keeps the result type and the node's ranking post-pass; raw Moa
//! queries go through [`MirrorDbms::engine`](crate::MirrorDbms::engine).

use ir::text::tokenize_stemmed;
use ir::TopKAccumulator;
use moa::{MoaError, QueryOutput};
use monet::Oid;

/// One ranked retrieval result.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedResult {
    /// Document oid.
    pub oid: Oid,
    /// Source URL.
    pub url: String,
    /// Combined belief.
    pub score: f64,
}

/// Turn a belief column into ranked results: the k best positive scores
/// (ties by oid), then their URLs from `url` — a node's documents, or a
/// pinned corpus view's rows.
pub(crate) fn ranked<'a>(
    out: QueryOutput,
    k: usize,
    url: impl Fn(Oid) -> Option<&'a str>,
) -> moa::Result<Vec<RankedResult>> {
    let pairs = match out {
        QueryOutput::Pairs(p) => p,
        other => return Err(MoaError::Type(format!("ranking query returned {other:?}"))),
    };
    // select on the bare pairs, so URLs are cloned for the ≤ k survivors
    // only (late materialisation)
    let mut acc = TopKAccumulator::new(k);
    for (oid, v) in pairs {
        if let Some(score) = v.as_float().filter(|&s| s > 0.0) {
            acc.push(oid, score);
        }
    }
    acc.into_ranked()
        .into_iter()
        .map(|(oid, score)| {
            let url =
                url(oid).ok_or_else(|| MoaError::Unknown(format!("URL of document {oid}")))?;
            Ok(RankedResult { oid, url: url.to_string(), score })
        })
        .collect()
}

/// Tokenise free text into unit-weight query terms.
pub fn weighted_terms(text: &str) -> Vec<(String, f64)> {
    tokenize_stemmed(text).into_iter().map(|t| (t, 1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retriever::Retriever;
    use crate::{MirrorDbms, INTERNAL};
    use media::{RobotConfig, WebRobot};
    use monet::Val;

    fn db() -> &'static MirrorDbms {
        static DB: std::sync::OnceLock<MirrorDbms> = std::sync::OnceLock::new();
        DB.get_or_init(|| {
            let mut db = MirrorDbms::with_defaults();
            let corpus = WebRobot::new(RobotConfig {
                n_images: 40,
                image_size: 24,
                unannotated_fraction: 0.25,
                seed: 11,
            })
            .crawl();
            db.ingest(&corpus).unwrap();
            db
        })
    }

    #[test]
    fn text_query_prefers_matching_theme() {
        let db = db();
        let results = db.query_text("sunset glow evening", 10).unwrap();
        assert!(!results.is_empty());
        // the majority of the top results should be sunset-themed
        let themes: Vec<usize> =
            results.iter().take(5).map(|r| db.docs()[r.oid as usize].theme).collect();
        let sunset_hits = themes.iter().filter(|&&t| t == 0).count();
        assert!(sunset_hits >= 3, "top-5 themes {themes:?}");
        // scores are sorted descending
        for w in results.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn visual_query_runs_over_image_channel() {
        let db = db();
        // borrow the visual terms of doc 0 via the thesaurus expansion
        let exp = db.thesaurus().unwrap().expand(&weighted_terms("sunset"), 4, 8);
        assert!(!exp.is_empty());
        let results = db.query_visual(&exp, 10).unwrap();
        assert!(!results.is_empty());
    }

    #[test]
    fn dual_query_finds_unannotated_documents() {
        let db = db();
        let dual = db.query_dual("sunset glow", 0.6, 40).unwrap();
        // un-annotated sunset images are reachable only via the visual
        // channel; dual retrieval must surface at least one
        let unannotated_hit = dual.iter().any(|r| db.docs()[r.oid as usize].annotation.is_none());
        assert!(unannotated_hit, "dual retrieval found no un-annotated documents");
    }

    #[test]
    fn filtered_query_respects_the_relational_predicate() {
        let db = db();
        let results = db.query_text_filtered("sunset", "/sunset/", 20).unwrap();
        assert!(!results.is_empty());
        for r in &results {
            assert!(r.url.contains("/sunset/"), "{}", r.url);
        }
    }

    #[test]
    fn filter_with_quotes_and_backslashes_is_inert() {
        let db = db();
        // regression: the old format!-spliced query let a quote in the
        // filter terminate the string literal mid-expression
        let results = db.query_text_filtered("sunset", "a\"b", 10).unwrap();
        assert!(results.is_empty());
        let results = db.query_text_filtered("sunset", "\\\"", 10).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn unknown_terms_return_empty() {
        let db = db();
        let results = db.query_text("xylophone quantum", 5).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn k_truncates() {
        let db = db();
        let results = db.query_text("sunset", 3).unwrap();
        assert!(results.len() <= 3);
    }

    #[test]
    fn topk_equals_full_ranking_prefix() {
        let db = db();
        let full = db.query_text("sunset glow evening", 40).unwrap();
        for k in [1usize, 3, 10] {
            let top = db.query_text("sunset glow evening", k).unwrap();
            assert_eq!(top.as_slice(), &full[..k.min(full.len())], "k={k}");
        }
    }

    #[test]
    fn ranked_selects_before_materialising_like_sort_then_truncate() {
        let db = db();
        // the old post-pass: attach URLs, drop zero scores, sort, truncate
        let old = |pairs: &[(Oid, f64)], k: usize| {
            let mut v: Vec<RankedResult> = pairs
                .iter()
                .map(|&(oid, score)| RankedResult {
                    oid,
                    url: db.docs()[oid as usize].url.clone(),
                    score,
                })
                .filter(|r| r.score > 0.0)
                .collect();
            v.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.oid.cmp(&b.oid)));
            v.truncate(k);
            v
        };
        // ties at 0.5 and 0.25, zero and negative scores, a NaN
        let pairs = [
            (7, 0.5),
            (3, 0.0),
            (12, 0.25),
            (1, 0.5),
            (30, -0.1),
            (9, 0.9),
            (4, 0.25),
            (22, 0.5),
            (5, f64::NAN),
            (0, 0.0),
        ];
        let out = || QueryOutput::Pairs(pairs.iter().map(|&(o, s)| (o, Val::Float(s))).collect());
        let url = |oid: Oid| db.docs().get(oid as usize).map(|d| d.url.as_str());
        for k in [0usize, 1, 2, 4, 6, 100] {
            assert_eq!(ranked(out(), k, url).unwrap(), old(&pairs, k), "k={k}");
        }
        // k beyond the positive hits returns all of them, best first
        let all = ranked(out(), 100, url).unwrap();
        let oids: Vec<Oid> = all.iter().map(|r| r.oid).collect();
        assert_eq!(oids, vec![9, 1, 7, 22, 4, 12]);
    }

    #[test]
    fn moa_query_passthrough() {
        let db = db();
        let out = db.engine().query(&format!("count({INTERNAL})")).unwrap();
        assert_eq!(out.scalar().and_then(|v| v.as_int()), Some(40));
    }
}
