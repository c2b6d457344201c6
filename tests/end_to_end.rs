//! End-to-end integration tests spanning every crate: the full Section 5
//! demo pipeline, the paper's queries, and the cross-layer invariants.

mod naive;

use mirror::core::eval::{average_precision, precision_at_k};
use mirror::core::{Clustering, MirrorConfig, MirrorDbms, Retriever, INTERNAL};
use mirror::media::{RobotConfig, WebRobot};
use mirror::moa::{MoaVal, OptConfig, QueryOutput};
use naive::NaiveEngine;
use std::sync::OnceLock;

fn corpus() -> &'static Vec<mirror::media::CrawledImage> {
    static C: OnceLock<Vec<mirror::media::CrawledImage>> = OnceLock::new();
    C.get_or_init(|| {
        WebRobot::new(RobotConfig {
            n_images: 60,
            image_size: 24,
            unannotated_fraction: 0.3,
            seed: 77,
        })
        .crawl()
    })
}

/// The shared ingested node. Read-only: tests run on parallel threads; the
/// only env state tests add are query bindings, each under a name of its
/// own (`e2equery`, `e2enaive`).
fn db() -> &'static MirrorDbms {
    static DB: OnceLock<MirrorDbms> = OnceLock::new();
    DB.get_or_init(|| {
        let mut db = MirrorDbms::with_defaults();
        db.ingest(corpus()).unwrap();
        db
    })
}

#[test]
fn pipeline_builds_the_internal_schema_of_section_5() {
    let db = db();
    let meta = db.env().collection(INTERNAL).unwrap();
    assert_eq!(meta.count, 60);
    // the three attributes of ImageLibraryInternal
    assert!(meta.elem_ty.field("source").is_some());
    assert!(meta.elem_ty.field("annotation").is_some());
    assert!(meta.elem_ty.field("image").is_some());
    // the relational attributes flatten to BATs; each CONTREP attribute
    // flattens to its compressed index only, and leaves no BATs behind
    let mut names = db.env().catalog().names();
    names.retain(|n| n.starts_with(&format!("{INTERNAL}__")));
    assert_eq!(names, ["ImageLibraryInternal__self", "ImageLibraryInternal__source"]);
    assert_eq!(
        db.store().prefixes(),
        ["ImageLibraryInternal__annotation", "ImageLibraryInternal__image"]
    );
}

#[test]
fn paper_ranking_query_runs_on_both_channels() {
    let db = db();
    db.env().bind_query("e2equery", vec![("sunset".into(), 1.0)]);
    for attr in ["annotation", "image"] {
        let out = db
            .engine()
            .query(&format!("map[sum(THIS)](map[getBL(THIS.{attr}, e2equery, stats)]({INTERNAL}))"))
            .unwrap();
        assert_eq!(out.len(), 60, "channel {attr}");
    }
}

#[test]
fn text_retrieval_beats_random_on_ground_truth() {
    let db = db();
    let results = db.query_text("sunset glow dusk", 10).unwrap();
    let oids: Vec<_> = results.iter().map(|r| r.oid).collect();
    let p = precision_at_k(&oids, |o| db.docs()[o as usize].theme == 0, 10);
    // ~1/6 themes → random precision ≈ 0.17; require a clear win
    assert!(p >= 0.5, "precision@10 = {p}");
}

#[test]
fn dual_coding_reaches_unannotated_documents() {
    let db = db();
    let dual = db.query_dual("sunset glow", 0.6, 30).unwrap();
    assert!(
        dual.iter().any(|r| db.docs()[r.oid as usize].annotation.is_none()),
        "dual-coded retrieval should surface un-annotated images"
    );
}

#[test]
fn combined_structure_content_query_filters_and_ranks() {
    let db = db();
    let results = db.query_text_filtered("sunset", "/sunset/", 30).unwrap();
    assert!(!results.is_empty());
    assert!(results.iter().all(|r| r.url.contains("/sunset/")));
}

#[test]
fn relational_queries_coexist_with_ranking() {
    let db = db();
    // pure data retrieval over the same collection
    let out = db
        .engine()
        .query(&format!("select[contains(THIS.source, \"/ocean/\")]({INTERNAL})"))
        .unwrap();
    let QueryOutput::Oids(oids) = out else { panic!("expected oids") };
    assert!(!oids.is_empty());
    for oid in &oids {
        assert!(db.docs()[*oid as usize].url.contains("/ocean/"));
    }
    // count
    let out = db.engine().query(&format!("count({INTERNAL})")).unwrap();
    assert_eq!(out.scalar().and_then(|v| v.as_int()), Some(60));
}

#[test]
fn naive_interpreter_agrees_with_flattened_engine_end_to_end() {
    let db = db();
    db.env().bind_query("e2enaive", vec![("sunset".into(), 1.0), ("glow".into(), 1.0)]);
    let q = format!("map[sum(THIS)](map[getBL(THIS.annotation, e2enaive, stats)]({INTERNAL}))");
    let flat = db.engine().query(&q).unwrap();
    // the collection's rows as ingest loads them: source, annotation, image
    let rows: Vec<MoaVal> = db
        .library_rows()
        .iter()
        .map(|r| {
            MoaVal::Tuple(vec![
                MoaVal::Str(r.url.clone()),
                r.annotation.clone().map_or(MoaVal::Null, MoaVal::Str),
                MoaVal::Str(r.vterms.clone()),
            ])
        })
        .collect();
    let naive = NaiveEngine::new(db.env(), &rows, Some(db.store())).query(&q).unwrap();
    let (QueryOutput::Pairs(f), QueryOutput::Pairs(n)) = (&flat, &naive) else {
        panic!("expected pairs");
    };
    for (oid, v) in n {
        let fv = f.iter().find(|(o, _)| o == oid).unwrap().1.as_float().unwrap();
        let nv = v.as_float().unwrap();
        assert!((fv - nv).abs() < 1e-9, "doc {oid}: {fv} vs {nv}");
    }
}

#[test]
fn optimizer_config_does_not_change_results() {
    let corpus = corpus();
    let mut opt_db = MirrorDbms::with_defaults();
    opt_db.ingest(corpus).unwrap();
    let mut raw_db = MirrorDbms::with_defaults();
    raw_db.ingest(corpus).unwrap();
    raw_db.set_opt(mirror::moa::OptConfig::none());
    let a = opt_db.query_text("forest moss trail", 15).unwrap();
    let b = raw_db.query_text("forest moss trail", 15).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.oid, y.oid);
        assert!((x.score - y.score).abs() < 1e-9);
    }
}

#[test]
fn kmeans_and_autoclass_pipelines_both_retrieve() {
    let corpus = corpus();
    for clustering in [Clustering::AutoClass, Clustering::KMeans(6)] {
        let mut db = MirrorDbms::new(MirrorConfig { clustering, ..Default::default() });
        db.ingest(corpus).unwrap();
        let r = db.query_dual("ocean wave", 0.5, 10).unwrap();
        assert!(!r.is_empty(), "{clustering:?} produced no results");
    }
}

#[test]
fn average_precision_of_theme_queries_is_reasonable() {
    let db = db();
    let queries = [("sunset glow", 0usize), ("forest tree moss", 1), ("ocean wave surf", 2)];
    let mut aps = Vec::new();
    for (q, theme) in queries {
        let results = db.query_dual(q, 0.5, 60).unwrap();
        let oids: Vec<_> = results.iter().map(|r| r.oid).collect();
        let n_rel = db.docs().iter().filter(|d| d.theme == theme).count();
        aps.push(average_precision(&oids, |o| db.docs()[o as usize].theme == theme, n_rel));
    }
    let map = mirror::core::eval::mean(&aps);
    assert!(map > 0.4, "mean average precision {map} too low: {aps:?}");
}

#[test]
fn executor_explain_reports_rows_per_operator() {
    use mirror::monet::{bat::bat_of_ints, Agg, Catalog, Executor, OpRegistry, Plan, Pred, Val};
    let cat = Catalog::new();
    cat.register("sizes", bat_of_ints((0..10_000).map(|i| i % 500).collect()));
    let reg = OpRegistry::new();
    let plan = Plan::Aggr {
        input: Box::new(Plan::Select {
            input: Box::new(Plan::load("sizes")),
            pred: Pred::Range { lo: Some(Val::Int(100)), lo_incl: true, hi: None, hi_incl: true },
        }),
        agg: Agg::Sum,
    };
    let exec = Executor::new(&cat, &reg);
    let text = exec.explain(&plan).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], "-- physical plan · 3 ops --");
    assert_eq!(lines[1], "aggr[sum]  [rows=1]");
    assert!(
        lines[2].starts_with("  select[Range") && lines[2].ends_with("  [rows=8000]"),
        "select line: {:?}",
        lines[2]
    );
    assert_eq!(lines[3], "    load(sizes)  [rows=10000]");
    // 20 rows per value, values 100..500
    let sum: i64 = (100..500).map(|v| 20 * v).sum();
    let out = exec.run_bat(&plan).unwrap();
    assert_eq!(out.to_pairs(), vec![(Val::Oid(0), Val::Int(sum))]);
}

#[test]
fn catalog_is_fully_binary_relational() {
    // every registered object in the physical layer is a two-column BAT —
    // the paper's core physical claim
    let db = db();
    for name in db.env().catalog().names() {
        let bat = db.env().catalog().get(&name).unwrap();
        assert_eq!(bat.head().len(), bat.tail().len(), "BAT {name} has asymmetric columns");
    }
}

#[test]
fn explain_analyze_shows_the_fused_dual_request() {
    use mirror::core::serve::RetrievalRequest;
    let db = db();
    // a thesaurus-expanded dual request: the visual side comes from the
    // association thesaurus, both channels fuse into one top-k operator
    let req = RetrievalRequest::dual("sunset glow", 0.4, 10);
    let analyzed = db.explain_analyze(&req).unwrap();
    assert!(analyzed.contains("passes: topk_fuse"), "{analyzed}");
    let physical = analyzed.split_once("-- physical plan").expect("executor header").1;
    assert!(physical.contains("custom[contrep.getbl.topk]"), "{analyzed}");
    for unfused in ["arith", "grouped_aggr", "custom[contrep.getbl]"] {
        assert!(!physical.contains(unfused), "{unfused} survived fusion:\n{analyzed}");
    }
    // the operator's note splits its work by channel, and names how each
    // channel was probed: the dense image channel through its tf rows
    assert!(analyzed.contains("annotation (lists): scored"), "{analyzed}");
    assert!(analyzed.contains("image (rows): scored"), "{analyzed}");
    // and the fused answer is the facade's
    let fused_rows = db.retrieve(&req).unwrap();
    assert!(physical.contains(&format!("rows={}", fused_rows.len())), "{analyzed}");
}

/// A live mirror over the first `base` documents of the shared node, with
/// the rest inserted as one pending batch and one base document deleted.
fn live_with_pending_writes(base: usize, opt: OptConfig) -> mirror::core::LiveMirror {
    let db = db();
    let rows = db.library_rows();
    let vocab = db.vocabulary().cloned();
    let mut gen = MirrorDbms::from_rows(
        db.config().clone(),
        rows[..base].to_vec(),
        vocab,
        db.thesaurus().cloned(),
    )
    .unwrap();
    gen.set_opt(opt);
    let live = mirror::core::LiveMirror::new(gen);
    live.insert_rows(rows[base..].to_vec()).unwrap();
    live.delete(&rows[3].url).unwrap().unwrap();
    live
}

/// Segments per part in an EXPLAIN note's "docs scored by part and
/// segment: [[…], …]" list.
fn segments_per_part(analyzed: &str) -> Vec<usize> {
    let label = "docs scored by part and segment: [[";
    let list = analyzed.split_once(label).unwrap_or_else(|| panic!("no {label:?}:\n{analyzed}")).1;
    let list = list.split_once("]]").expect("closing brackets").0;
    list.split("], [").map(|part| part.split(", ").count()).collect()
}

#[test]
fn explain_analyze_shows_per_segment_and_per_shard_work() {
    use mirror::core::serve::RetrievalRequest;
    use mirror::core::shard::MirrorCluster;
    let live = live_with_pending_writes(40, OptConfig::default());
    let cluster = MirrorCluster::build(corpus(), 2, 1).unwrap();
    for req in
        [RetrievalRequest::text("sunset glow", 10), RetrievalRequest::dual("ocean wave", 0.4, 10)]
    {
        // a live snapshot with a pending insert and delete runs the fused
        // operator over the generation and its delta batch
        let analyzed = live.explain_analyze(&req).unwrap();
        let physical = analyzed.split_once("-- physical plan").expect("executor header").1;
        assert!(physical.contains("custom[contrep.getbl.topk]"), "{analyzed}");
        for unfused in ["arith", "grouped_aggr", "custom[contrep.getbl]"] {
            assert!(!physical.contains(unfused), "{unfused} survived fusion:\n{analyzed}");
        }
        assert_eq!(segments_per_part(physical), [2], "generation + one batch:\n{analyzed}");
        let hits = live.retrieve(&req).unwrap();
        assert!(physical.contains(&format!("rows={}", hits.len())), "{analyzed}");
        // a 2-shard cluster reports each shard's work
        let analyzed = cluster.explain_analyze(&req).unwrap();
        assert!(analyzed.contains("custom[contrep.getbl.topk]"), "{analyzed}");
        assert_eq!(segments_per_part(&analyzed), [1, 1], "one segment per shard:\n{analyzed}");
    }
}

#[test]
fn unfused_plan_over_a_multi_segment_view_is_a_typed_error() {
    use mirror::core::serve::RetrievalRequest;
    use mirror::core::{RetrievalError, Retriever};
    let live = live_with_pending_writes(40, OptConfig::none());
    // OptConfig::none() fuses single-channel rankings only: a dual request
    // stays an unfused getBL plan, which reads one index — not a generation
    // plus a delta batch minus a tombstone
    let err = live.retrieve(&RetrievalRequest::dual("ocean wave", 0.4, 10)).unwrap_err();
    assert!(matches!(err, RetrievalError::Compile(_)), "{err}");
    assert!(err.to_string().contains("contrep.getbl.topk"), "{err}");
    // the fused text request answers like the batch re-ingest
    let req = RetrievalRequest::text("sunset glow", 10);
    let pin = live.pin();
    let db = db();
    let merged =
        MirrorDbms::from_rows(db.config().clone(), pin.surviving_rows(), None, None).unwrap();
    let key = |hits: Vec<mirror::core::query::RankedResult>| -> Vec<(String, f64)> {
        hits.into_iter().map(|h| (h.url, h.score)).collect()
    };
    assert_eq!(key(pin.retrieve(&req).unwrap()), key(merged.retrieve(&req).unwrap()));
}
