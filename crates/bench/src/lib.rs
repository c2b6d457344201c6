//! # mirror-bench — inputs for the criterion micro-benches
//!
//! The repo's performance claims live in `mirror-benchmark` (root
//! `BENCHMARK.json`, `benchmark/`). The criterion benches here (`benches/e*.rs`)
//! time only what no benchmark workload executes: the AutoClass vocabulary
//! build (E8) and the fragment-degree sweep (E9).

#![warn(missing_docs)]

use media::{CrawledImage, RobotConfig, WebRobot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Crawl a themed image corpus for the multimedia experiments.
pub fn image_corpus(n: usize, seed: u64) -> Vec<CrawledImage> {
    WebRobot::new(RobotConfig { n_images: n, image_size: 24, unannotated_fraction: 0.3, seed })
        .crawl()
}

/// A kernel catalog holding the E9 scan workload: `scores`, `n` uniformly
/// random floats in `[0, 1)` under a dense head — a set-at-a-time
/// scan/select substrate at kernel level.
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
