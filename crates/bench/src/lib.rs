//! # mirror-bench — inputs for the criterion micro-benches
//!
//! The repo's performance claims live in `mirror-benchmark` (root
//! `BENCHMARK.json`, `benchmark/`). The criterion benches here (`benches/e*.rs`)
//! time only what no benchmark workload executes: the naive interpreter (E1),
//! the hand-written inference network (E3), daemon ingest (E5), the AutoClass
//! vocabulary build (E8) and the fragment-degree sweep (E9).

#![warn(missing_docs)]

use media::{CrawledImage, RobotConfig, WebRobot};
use moa::{Env, MoaEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Vocabulary pool for synthetic annotations (theme words + filler).
const WORD_POOL: &[&str] = &[
    "sunset", "orange", "horizon", "glow", "evening", "dusk", "forest", "tree", "green", "leaf",
    "moss", "trail", "ocean", "wave", "blue", "water", "surf", "tide", "desert", "sand", "dune",
    "arid", "city", "building", "street", "skyline", "tower", "snow", "white", "winter", "ice",
    "mountain", "peak", "photo", "picture", "view", "image", "scene", "light", "shadow", "cloud",
    "storm", "river", "valley", "meadow", "stone",
];

/// Build a text-only environment (`TraditionalImgLib` at scale): `n`
/// annotated documents with 5–12 word annotations drawn from the pool.
/// Returns the environment (with raw rows kept for the naive baseline).
pub fn text_env(n: usize, seed: u64) -> Arc<Env> {
    let mut env = Env::new();
    env.keep_raw = true;
    ir::register_contrep(&env);
    let (name, ty) = moa::parse_define(
        "define TraditionalImgLib as
           SET< TUPLE< Atomic<URL>: source, Atomic<int>: year,
                       CONTREP<Text>: annotation >>;",
    )
    .expect("schema parses");
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<moa::MoaVal> = (0..n)
        .map(|i| {
            let len = rng.gen_range(5..=12);
            let words: Vec<&str> =
                (0..len).map(|_| WORD_POOL[rng.gen_range(0..WORD_POOL.len())]).collect();
            moa::MoaVal::Tuple(vec![
                moa::MoaVal::Str(format!("http://lib/{i}")),
                moa::MoaVal::Int(1990 + (i % 10) as i64),
                moa::MoaVal::Str(words.join(" ")),
            ])
        })
        .collect();
    env.create_collection(name, ty, rows).expect("collection loads");
    Arc::new(env)
}

/// The paper's ranking query over the scaled library.
pub const RANKING_QUERY: &str =
    "map[sum(THIS)](map[getBL(THIS.annotation, benchquery, stats)](TraditionalImgLib))";

/// Bind the standard benchmark query terms.
pub fn bind_bench_query(env: &Env) {
    env.bind_query(
        "benchquery",
        vec![("sunset".into(), 1.0), ("ocean".into(), 1.0), ("glow".into(), 1.0)],
    );
}

/// An engine over a text environment with default optimisation.
pub fn engine(env: &Arc<Env>) -> MoaEngine {
    MoaEngine::new(Arc::clone(env))
}

/// Crawl a themed image corpus for the multimedia experiments.
pub fn image_corpus(n: usize, seed: u64) -> Vec<CrawledImage> {
    WebRobot::new(RobotConfig { n_images: n, image_size: 24, unannotated_fraction: 0.3, seed })
        .crawl()
}

/// A kernel catalog holding the E9 scan workload: `scores`, `n` uniformly
/// random floats in `[0, 1)` under a dense head — the E1-style
/// set-at-a-time scan/select substrate at kernel level.
pub fn kernel_scan_catalog(n: usize, seed: u64) -> monet::Catalog {
    let mut rng = StdRng::seed_from_u64(seed);
    let vals: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
    let cat = monet::Catalog::new();
    cat.register("scores", monet::bat::bat_of_floats(vals));
    cat
}

/// The E9 scan/select plan: a ~50%-selectivity range scan over `scores`.
pub fn kernel_scan_plan() -> monet::Plan {
    monet::Plan::Select {
        input: Box::new(monet::Plan::load("scores")),
        pred: monet::Pred::Range {
            lo: Some(monet::Val::Float(0.25)),
            lo_incl: true,
            hi: Some(monet::Val::Float(0.75)),
            hi_incl: false,
        },
    }
}

/// The E9 aggregation plan: scan/select then sum the surviving tails.
pub fn kernel_scan_aggr_plan() -> monet::Plan {
    monet::Plan::Aggr { input: Box::new(kernel_scan_plan()), agg: monet::Agg::Sum }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_env_scales_and_queries() {
        let env = text_env(100, 1);
        bind_bench_query(&env);
        let out = engine(&env).query(RANKING_QUERY).unwrap();
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn text_env_is_deterministic() {
        let a = text_env(50, 9);
        let b = text_env(50, 9);
        let qa = engine(&a);
        let qb = engine(&b);
        bind_bench_query(&a);
        bind_bench_query(&b);
        let ra = qa.query(RANKING_QUERY).unwrap();
        let rb = qb.query(RANKING_QUERY).unwrap();
        assert_eq!(ra, rb);
    }
}
