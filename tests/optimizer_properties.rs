//! Property tests for the statistics-driven optimizer (`moa::rewrite`'s
//! logical pushdown, `moa::opt`'s rewrite cascade): for any query, any top-k budget in {1, 10, all}, and any
//! shard count in {1, 2, 4}, the optimized pipeline must return results
//! bit-identical to the unoptimized plan (`OptConfig::none()`) — same
//! documents, same float scores, same tie-breaks. The rewrites are allowed
//! to change *how* a plan runs (selection pushdown and ordering, top-k
//! fusion), never *what* it returns.

use mirror::core::serve::RetrievalRequest;
use mirror::core::shard::MirrorCluster;
use mirror::core::{MirrorDbms, Retriever};
use mirror::media::{CrawledImage, RobotConfig, WebRobot};
use mirror::moa::OptConfig;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Words the WebRobot corpus annotates with, plus some that miss.
const POOL: &[&str] = &[
    "sunset", "ocean", "forest", "city", "desert", "snow", "glow", "wave", "tree", "dune",
    "zeppelin", "quartz",
];

/// URL filters: directories, a leaf's digit, a suffix, and patterns that
/// span a URL's last `/` (`t/4`, `/1`, a whole URL).
const FILTERS: &[&str] =
    &["/sunset/", "/ocean/", "1", "png", "t/4", "/1", "http://library.example/city/5.png"];

/// One corpus served by an optimised node, an `OptConfig::none()` node and
/// 1/2/4-shard clusters, built once and shared by every test below.
/// Read-only: tests run on parallel threads, and nothing here binds query
/// names or kills replicas.
struct Fixture {
    corpus: Vec<CrawledImage>,
    /// Reference node: every optimizer switch off.
    unopt: MirrorDbms,
    /// Same corpus with the full stats-driven pipeline on.
    opt: MirrorDbms,
    clusters: Vec<MirrorCluster>,
    n_docs: usize,
    visual_terms: Vec<String>,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let corpus = WebRobot::new(RobotConfig {
            n_images: 48,
            image_size: 24,
            unannotated_fraction: 0.25,
            seed: 17,
        })
        .crawl();
        let mut base = MirrorDbms::with_defaults();
        base.ingest(&corpus).unwrap();
        let rows = base.library_rows().to_vec();
        let vocab = base.vocabulary().cloned();
        let thes = base.thesaurus().cloned();
        let visual_terms = rows
            .iter()
            .find(|r| !r.vterms.is_empty())
            .map(|r| r.vterms.split_whitespace().take(3).map(String::from).collect())
            .unwrap_or_default();
        let opt =
            MirrorDbms::from_rows(base.config().clone(), rows.clone(), vocab.clone(), thes.clone())
                .unwrap();
        let mut unopt = MirrorDbms::from_rows(base.config().clone(), rows, vocab, thes).unwrap();
        unopt.set_opt(OptConfig::none());
        let clusters = [1usize, 2, 4]
            .map(|s| MirrorCluster::build(&corpus, s, 1).unwrap())
            .into_iter()
            .collect();
        let n_docs = base.n_docs();
        Fixture { corpus, unopt, opt, clusters, n_docs, visual_terms }
    })
}

/// Requests spanning every serving shape the optimizer touches.
fn requests(
    f: &Fixture,
    terms: &[(String, f64)],
    k: usize,
    filter: Option<&str>,
) -> Vec<RetrievalRequest> {
    let text = terms.to_vec();
    let joined = terms.iter().map(|(t, _)| t.as_str()).collect::<Vec<_>>().join(" ");
    let mut reqs = vec![
        RetrievalRequest::text_terms(text.clone(), k),
        RetrievalRequest::dual(&joined, 0.4, k),
        RetrievalRequest::dual_terms(
            text.clone(),
            f.visual_terms.iter().map(|t| (t.clone(), 1.0)).collect(),
            0.5,
            k,
        ),
    ];
    if let Some(pattern) = filter {
        reqs.push(RetrievalRequest::text_terms(text, k).with_filter(pattern));
    }
    reqs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Optimized single node and every cluster width return exactly the
    /// unoptimized reference for every request shape and k.
    #[test]
    fn prop_pass_pipeline_is_bit_identical_to_unoptimized(
        query in proptest::collection::vec((0usize..POOL.len(), 0.25f64..2.0), 1..4),
        // FILTERS.len() encodes "no filter" (vendored proptest has no option::of)
        filter_idx in 0usize..=FILTERS.len(),
    ) {
        let f = fixture();
        let terms: Vec<(String, f64)> =
            query.iter().map(|(w, wt)| (POOL[w % POOL.len()].to_string(), *wt)).collect();
        let filter = FILTERS.get(filter_idx).copied();
        for k in [1usize, 10, f.n_docs] {
            for req in requests(f, &terms, k, filter) {
                let expected = f.unopt.retrieve(&req).unwrap();
                // scores do not depend on the filter: past every document
                // it keeps exactly the unfiltered hits its URL test keeps,
                // an oracle that shares no `select` with the plan
                if let (Some(pattern), true) = (&req.filter, k == f.n_docs) {
                    let unfiltered = RetrievalRequest { filter: None, ..req.clone() };
                    for backend in [&f.opt as &dyn Retriever, &f.clusters[1]] {
                        let mut kept = backend.retrieve(&unfiltered).unwrap();
                        kept.retain(|h| h.url.contains(pattern.as_str()));
                        prop_assert_eq!(&expected, &kept, "filter {:?} k={}", pattern, k);
                    }
                }
                let got = f.opt.retrieve(&req).unwrap();
                prop_assert_eq!(&got, &expected, "single node diverged, k={} req={:?}", k, req);
                for cluster in &f.clusters {
                    let got = cluster.retrieve(&req).unwrap();
                    prop_assert_eq!(
                        &got, &expected,
                        "{}-shard cluster diverged, k={} req={:?}", cluster.n_shards(), k, req
                    );
                }
            }
        }
    }
}

/// The acceptance-criterion EXPLAIN: on a real query the stats-driven
/// pipeline visibly changes the plan — `selection_order` reorders a
/// conjunctive filter chain so the 1/NDV equality filter runs before the
/// flat-selectivity contains filters — and every operator is annotated
/// with estimated (`est≈`) next to actual (`rows=`) cardinalities. The
/// `OptConfig::none()` engine keeps the parse-order chain and shows no
/// estimates.
#[test]
fn explain_shows_stats_driven_plan_change_on_real_query() {
    let f = fixture();
    // a URL that exists in the ingested corpus, so the equality filter is
    // a genuine point lookup, not a guaranteed-empty predicate
    let url = &f.corpus[0].url;
    let src = format!(
        "map[sum(THIS)](map[getBL(THIS.annotation, pq, stats)](\
         select[contains(THIS.source, \"http\") and contains(THIS.source, \"png\") \
         and THIS.source = \"{url}\"](ImageLibraryInternal)))"
    );
    let params = mirror::moa::QueryParams::new()
        .bind("pq", vec![("sunset".to_string(), 1.0), ("ocean".to_string(), 1.0)])
        .with_top_k(10);
    let analyzed = f.opt.engine().explain_analyze(&src, &params).unwrap();
    // the stats-driven ordering pass rewrote the filter chain…
    assert!(analyzed.contains("selection_order"), "selection_order did not fire:\n{analyzed}");
    // …the ranking still fused into the streaming top-k operator…
    assert!(analyzed.contains("contrep.getbl.topk"), "top-k not fused:\n{analyzed}");
    // …and every operator carries estimated-vs-actual cardinalities
    assert!(analyzed.contains("est≈"), "no cardinality estimates:\n{analyzed}");
    assert!(analyzed.contains("rows="), "no actual row counts:\n{analyzed}");

    // the unoptimized engine keeps parse order and shows no estimates
    // (legacy top-k fusion is deliberately part of the none() baseline)
    let plain = f.unopt.engine().explain_analyze(&src, &params).unwrap();
    assert!(!plain.contains("selection_order"), "none() engine reordered:\n{plain}");
    assert!(!plain.contains("est≈"), "none() engine estimated:\n{plain}");
}

/// Late filtering — `select[row-pred]` *outside* the ranking map — is
/// pushed down and fused by the optimizing engine; the `none()` engine
/// executes the literal late shape (score everything, then semijoin).
/// Results are bit-identical either way (the property test above), but the
/// plans differ structurally.
#[test]
fn explain_shows_late_filter_pushdown_and_fusion() {
    let f = fixture();
    let src = "select[contains(THIS.source, \"1\")](map[sum(THIS)](\
               map[getBL(THIS.annotation, pq, stats)](ImageLibraryInternal)))";
    let params = mirror::moa::QueryParams::new()
        .bind("pq", vec![("sunset".to_string(), 1.0), ("ocean".to_string(), 1.0)])
        .with_top_k(10);
    let analyzed = f.opt.engine().explain_analyze(src, &params).unwrap();
    assert!(analyzed.contains("contrep.getbl.topk"), "late filter not fused:\n{analyzed}");
    assert!(analyzed.contains("est≈"), "no cardinality estimates:\n{analyzed}");

    let plain = f.unopt.engine().explain_analyze(src, &params).unwrap();
    assert!(!plain.contains("contrep.getbl.topk"), "none() engine fused:\n{plain}");
    assert!(plain.contains("semijoin"), "none() engine lost the late semijoin:\n{plain}");
}
