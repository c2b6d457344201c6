//! Names and units of everything the benchmark reports. `BENCHMARK.json`
//! declares the same lists (with bounds); `tests/smoke.rs` holds the two
//! against each other.

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "ops/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// workload that does not reach a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.serve.overhead_us", "us"),
    ("core.serve.open_p50_ms", "ms"),
    ("core.serve.open_p99_ms", "ms"),
    ("core.serve.shed", "count"),
    ("core.serve.fail_frac", "ratio"),
    ("core.serve.gen_late_p99_ms", "ms"),
    ("core.retrieve.self_us", "us"),
    ("thesaurus.expand_us", "us"),
    ("thesaurus.expanded_terms", "count"),
    ("moa.flatten_us", "us"),
    ("moa.plan_nodes", "count"),
    ("moa.opt_us", "us"),
    ("moa.opt.passes_fired", "count"),
    ("monet.exec_us", "us"),
    ("monet.ops_evaluated", "count"),
    ("monet.rows_produced", "count"),
    ("monet.memo_hits", "count"),
    ("monet.fragmented_ops", "count"),
    ("ir.topk_us", "us"),
    ("ir.topk.scored", "count"),
    ("ir.topk.pruned", "count"),
    ("ir.topk.blocks_skipped", "count"),
    ("ir.topk.skip_ratio", "ratio"),
    ("ir.postings.decode_ns_per_posting", "ns"),
    ("ir.postings.bytes_per_doc", "bytes"),
    ("core.shard.vs_single_ratio", "ratio"),
    ("core.shard.imbalance", "ratio"),
    ("core.live.pin_ns", "ns"),
    ("core.live.read_us", "us"),
    ("core.live.delta_penalty", "ratio"),
    ("core.live.delta_rows", "count"),
    ("core.live.tombstones", "count"),
    ("core.live.insert_us_per_row", "us"),
    ("core.live.delete_us", "us"),
    ("core.live.delete_burst_ms", "ms"),
    ("core.live.merge_ms", "ms"),
    ("core.live.merge_rows_per_s", "1/s"),
    ("core.durable.save_ms", "ms"),
    ("core.durable.open_ms", "ms"),
    ("monet.storage.space_amp", "ratio"),
    ("monet.storage.wal_bytes_per_op", "bytes"),
    ("core.ingest.ms_per_doc", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("repo.nontest_loc", "count"),
];

/// The workloads, in the order `--all` runs them.
pub const WORKLOADS: &[&str] =
    &["text_topk", "dual_mix", "cluster_2x2", "live_delta", "write_burst"];
