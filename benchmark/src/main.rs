//! `mirror-benchmark` — the repo's benchmark.
//!
//! ```text
//! mirror-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mirror-benchmark --all [--seed <n>] [--seconds <s>] [--trace] [--quick] [--out <file>]
//! mirror-benchmark compare <a.json> <b.json> [--spec BENCHMARK.json]
//! ```
//!
//! The first form runs one workload in this process and prints, as the last
//! line of standard output, `{"correct", "attempted", "failed", "metrics"}`
//! — the end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! serial replay with `--trace 1`. The second runs every workload, each in
//! a fresh child process, and prints every metric by name. The third
//! judges one result file against another with the bounds `BENCHMARK.json`
//! fixes.

mod compare;
mod corpus;
mod json;
mod load;
mod replay;
mod spec;
mod staged;
mod stream;
mod trace;
mod workloads;

use json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Opts, Report};

/// `run_seconds` of `BENCHMARK.json`: what `--all` uses unless told.
const DEFAULT_SECONDS: f64 = 12.0;
/// Phase budget of `--quick`.
const QUICK_SECONDS: f64 = 2.5;

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: 13,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--all" => a.all = true,
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            // `--trace 0|1` from the driver, bare `--trace` by hand
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    a.trace = true;
                }
                _ => a.trace = true,
            },
            "--quick" => a.quick = true,
            "--out" => a.out = Some(value("a path")?.into()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if a.all == a.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".into());
    }
    Ok(a)
}

/// The checkout's root: where `benchmark/` and the code under test sit.
fn repo_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from(".")
    } else {
        PathBuf::from("..")
    }
}

/// The commit this checkout is at, read from `.git` without running git
/// (the driver's checkout has no `.git`: "unknown").
fn git_rev(repo: &Path) -> String {
    let head = std::fs::read_to_string(repo.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(repo.join(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    match rev.trim() {
        "" => "unknown".into(),
        r => r.to_string(),
    }
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn metrics_json(r: &Report) -> Value {
    Value::obj(r.metrics.iter().map(|&(name, value)| {
        (name, Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit_of(name)))]))
    }))
}

/// One result row: the metrics with everything needed to reproduce them.
fn row(r: &Report, a: &Args, seconds: f64, repo: &Path) -> Value {
    Value::obj([
        ("workload", Value::str(r.workload)),
        ("trace", a.trace.into()),
        ("seed", a.seed.into()),
        ("seconds", seconds.into()),
        ("quick", a.quick.into()),
        ("git_rev", Value::str(git_rev(repo))),
        ("nproc", (workloads::nproc() as u64).into()),
        ("attempted", r.attempted.into()),
        ("failed", r.failed.into()),
        ("correct", (r.wrong == 0).into()),
        ("metrics", metrics_json(r)),
        ("info", Value::obj(r.info.iter().cloned())),
    ])
}

fn print_row(row: &Value) {
    let name = row.get("workload").and_then(Value::as_str).unwrap_or("?");
    for (metric, m) in row.get("metrics").map_or(&[][..], Value::fields) {
        let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("{name:<12} {metric:<36} {value:>16.4} {unit}");
    }
    for (key, v) in row.get("info").map_or(&[][..], Value::fields) {
        println!("{name:<12} info.{key:<31} {v}");
    }
    for key in ["attempted", "failed", "correct"] {
        println!("{name:<12} {key:<36} {}", row.get(key).unwrap_or(&Value::Null));
    }
}

fn run_one(a: &Args, workload: &str) -> Result<ExitCode, String> {
    let seconds = a.seconds.unwrap_or(if a.quick { QUICK_SECONDS } else { DEFAULT_SECONDS });
    let repo = repo_dir();
    let opts = Opts {
        seed: a.seed,
        seconds,
        trace: a.trace,
        quick: a.quick,
        out_dir: repo.join("benchmark/out"),
        repo_dir: repo.clone(),
    };
    let report = workloads::run(workload, &opts)?;
    let row = row(&report, a, seconds, &repo);
    print_row(&row);
    println!("row {row}");
    println!(
        "{}",
        Value::obj([
            ("correct", (report.wrong == 0).into()),
            ("attempted", report.attempted.into()),
            ("failed", report.failed.into()),
            ("metrics", metrics_json(&report)),
        ])
    );
    Ok(if report.wrong == 0 { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

/// Every workload, each in a fresh child process (so `peak_rss_mb` is the
/// workload's own), untraced first and then, with `--trace`, replayed.
fn run_all(a: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    let mut ok = true;
    for workload in spec::WORKLOADS {
        for trace in [false, true] {
            if trace && !a.trace {
                continue;
            }
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &a.seed.to_string()]);
            cmd.args(["--trace", if trace { "1" } else { "0" }]);
            if let Some(s) = a.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if a.quick {
                cmd.arg("--quick");
            }
            // `output` waits for the child: none outlives this loop
            let out = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            match stdout.lines().find_map(|l| l.strip_prefix("row ")).map(Value::parse) {
                Some(Ok(row)) => {
                    print_row(&row);
                    rows.push(row);
                }
                _ => {
                    eprintln!("{workload}: no result row\n{}", String::from_utf8_lossy(&out.stderr))
                }
            }
            ok &= out.status.success();
        }
    }
    if let Some(path) = &a.out {
        let doc =
            Value::obj([("benchmark", Value::str("mirror-benchmark")), ("rows", Value::Arr(rows))]);
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().is_some_and(|a| a == "compare") {
        compare::main(&args[1..], &repo_dir())
    } else {
        parse(&args).and_then(|a| match &a.workload {
            Some(w) => run_one(&a, w),
            None => run_all(&a),
        })
    };
    result.unwrap_or_else(|e| {
        eprintln!("mirror-benchmark: {e}");
        ExitCode::from(1)
    })
}
