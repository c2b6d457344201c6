//! Runs the whole benchmark in `--quick` mode (corpora ÷ 10, 2.5 s of
//! phases, traced replay included) and holds what it prints against what
//! `BENCHMARK.json` declares: every workload and every metric appears with
//! a finite value, every name is well-formed, and nothing undeclared is
//! emitted.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// The values of every `"name": "…"` under `key` in `BENCHMARK.json` — the
/// one shape this test needs from the file, so it carries no JSON parser.
fn names(spec: &str, key: &str) -> Vec<String> {
    let start = spec.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("name is a string").to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn quick_run_emits_exactly_what_benchmark_json_declares() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ has a parent");
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads = names(&spec, "workloads");
    let end_to_end: BTreeSet<String> = names(&spec, "end_to_end").into_iter().collect();
    let per_layer: BTreeSet<String> = names(&spec, "per_layer").into_iter().collect();
    assert_eq!(workloads.len(), 5);
    assert!(end_to_end.contains("setup_s"));

    let out = Command::new(env!("CARGO_BIN_EXE_mirror-benchmark"))
        .args(["--all", "--quick", "--trace", "--seed", "13"])
        .current_dir(root)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));

    // metric lines read `<workload> <metric> <value> <unit>`
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        let [workload, metric, value, _unit] = words[..] else { continue };
        if metric.starts_with("info.") || !workloads.iter().any(|w| w == workload) {
            continue;
        }
        assert!(well_formed(metric), "malformed metric name {metric:?}");
        assert!(
            end_to_end.contains(metric) || per_layer.contains(metric),
            "{workload} emitted {metric}, which BENCHMARK.json does not declare"
        );
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("{line}: not a number"));
        assert!(value.is_finite(), "{line}: not finite");
        if end_to_end.contains(metric) {
            assert!(value > 0.0, "{line}: an end-to-end metric must never be 0");
        }
        seen.insert((workload.to_string(), metric.to_string()));
    }
    for w in &workloads {
        assert!(well_formed(w), "malformed workload name {w:?}");
        for m in end_to_end.iter().chain(&per_layer) {
            assert!(seen.contains(&(w.clone(), m.clone())), "{w} did not report {m}");
        }
    }
}
