//! `compare <a.json> <b.json>`: judge result file `b` against `a`, per
//! workload × end-to-end metric, with the bounds `BENCHMARK.json` fixes.
//!
//! * **regressed** — `b`'s median is worse than `a`'s by more than the bound;
//! * **improved** — better by more than the bound;
//! * **within bound** — neither;
//! * **unresolved** — a file holds several runs of the workload and they
//!   spread (range ÷ median) wider than the bound, so no verdict stands.
//!
//! Exits non-zero when anything regressed — the gate a CI step can call.

use crate::json::Value;
use crate::load::median;
use std::path::Path;
use std::process::ExitCode;

fn read(path: &Path) -> Result<Value, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&src).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every untraced value of `metric` on `workload` in a result file.
fn values(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("rows")
        .map_or(&[][..], Value::as_arr)
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|r| r.get("trace") == Some(&Value::Bool(false)))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn spread(xs: &[f64]) -> f64 {
    let lo = xs.iter().copied().fold(f64::MAX, f64::min);
    let hi = xs.iter().copied().fold(f64::MIN, f64::max);
    (hi - lo) / median(xs.to_vec()).abs().max(f64::MIN_POSITIVE)
}

pub fn main(args: &[String], repo: &Path) -> Result<ExitCode, String> {
    let (files, spec) = match args {
        [a, b] => ((a, b), repo.join("BENCHMARK.json")),
        [a, b, flag, spec] if flag == "--spec" => ((a, b), spec.into()),
        _ => return Err("usage: compare <a.json> <b.json> [--spec BENCHMARK.json]".into()),
    };
    let spec = read(&spec)?;
    let (a, b) = (read(Path::new(files.0))?, read(Path::new(files.1))?);
    let mut regressed = 0;
    println!(
        "{:<12} {:<12} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    for w in spec.get("workloads").map_or(&[][..], Value::as_arr) {
        let workload = w.get("name").and_then(Value::as_str).unwrap_or("");
        for m in spec.get("end_to_end").map_or(&[][..], Value::as_arr) {
            let metric = m.get("name").and_then(Value::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let lower_is_better = m.get("better").and_then(Value::as_str) != Some("higher");
            let (va, vb) = (values(&a, workload, metric), values(&b, workload, metric));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<12} {metric:<12} {:>14} {:>14} {:>8} {bound:>6}  unresolved (missing)", "-", "-", "-");
                continue;
            }
            let (ma, mb) = (median(va.clone()), median(vb.clone()));
            let worse = if lower_is_better { (mb - ma) / ma } else { (ma - mb) / ma };
            let verdict = if spread(&va).max(spread(&vb)) > bound {
                "unresolved (spread wider than bound)"
            } else if worse > bound {
                regressed += 1;
                "REGRESSED"
            } else if worse < -bound {
                "improved"
            } else {
                "within bound"
            };
            println!(
                "{workload:<12} {metric:<12} {ma:>14.4} {mb:>14.4} {:>+7.1}% {bound:>6}  {verdict}",
                (mb - ma) / ma * 100.0
            );
        }
    }
    println!("{regressed} regressed");
    Ok(if regressed == 0 { ExitCode::SUCCESS } else { ExitCode::from(1) })
}
