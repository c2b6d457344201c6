//! E3 — the paper's ranking query and the cost of going through the
//! algebra (§3: "new structures in Moa, supported by new probabilistic
//! operators at the physical level, provide an efficient implementation of
//! the inference network retrieval model").
//!
//! Compares `map[sum(THIS)](map[getBL(…)])` through the full
//! parse→rewrite→flatten→execute stack against the hand-written inference
//! network ranker on the same index — the algebra should add only small
//! overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ir::{QueryNode, Ranker};
use mirror_bench::{bind_bench_query, engine, text_env, RANKING_QUERY};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_getbl");
    group.sample_size(20);
    for &n in &[1_000usize, 10_000, 50_000] {
        let (env, store) = text_env(n, 42);
        bind_bench_query(&env);
        let eng = engine(&env);
        group.bench_with_input(BenchmarkId::new("moa_algebra", n), &n, |b, _| {
            b.iter(|| eng.query(RANKING_QUERY).unwrap())
        });
        // the direct network evaluation over the same index
        let query = QueryNode::wsum_of(&[
            ("sunset".to_string(), 1.0),
            ("ocean".to_string(), 1.0),
            ("glow".to_string(), 1.0),
        ]);
        let index = store.get("TraditionalImgLib__annotation").expect("annotation index");
        group.bench_with_input(BenchmarkId::new("direct_network", n), &n, |b, _| {
            let ranker = Ranker::new(&index);
            b.iter(|| ranker.rank(&query))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
