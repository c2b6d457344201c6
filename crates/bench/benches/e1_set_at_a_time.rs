//! E1 — set-at-a-time flattened execution vs object-at-a-time
//! interpretation (§2: "allows often for set-at-a-time processing of
//! complex query expressions"; "design for scalability").
//!
//! The same ranking query runs through (a) the flattening compiler onto
//! BAT operators and (b) the naive per-object interpreter, across
//! collection sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mirror_bench::{bind_bench_query, engine, text_env, RANKING_QUERY};
use moa::naive::NaiveEngine;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_set_at_a_time");
    group.sample_size(10);
    for &n in &[1_000usize, 5_000, 20_000] {
        let (env, _) = text_env(n, 42);
        bind_bench_query(&env);
        let eng = engine(&env);
        group.bench_with_input(BenchmarkId::new("flattened", n), &n, |b, _| {
            b.iter(|| eng.query(RANKING_QUERY).unwrap())
        });
        // the naive interpreter is orders of magnitude slower; keep its
        // largest size bounded so the suite stays runnable
        if n <= 5_000 {
            let naive = NaiveEngine::new(&env);
            group.bench_with_input(BenchmarkId::new("object_at_a_time", n), &n, |b, _| {
                b.iter(|| naive.query(RANKING_QUERY).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
