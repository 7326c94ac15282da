//! CI benchmark regression gate.
//!
//! Compares a freshly generated benchmark report against the committed
//! baseline and **fails** (exit code 1) when any tracked kernel regressed
//! by more than the allowed ratio — turning `BENCH.json` from an uploaded
//! artifact into an enforced contract:
//!
//! ```text
//! cargo run --release -p sinr-bench --bin bench_gate -- \
//!     --baseline BENCH.json --fresh BENCH_fresh.json [--max-ratio 1.25] [--floor-ns 10000]
//! ```
//!
//! Rules:
//!
//! * only records whose names start with a tracked prefix (the
//!   [`TRACKED`] list: `oracle/`, `broadcast/`, `coloring/`,
//!   `mobility/`, `churn/`, `degradation/`, `repair/`) are gated;
//! * a fresh record is compared against the baseline record of the same
//!   name; names present in only one file are reported but never fail
//!   the gate (quick CI runs cover a subset of the committed sizes);
//! * comparisons use `min_ns` (the least noisy statistic of the minimal
//!   harness) and baselines faster than the floor (default 10 µs) are
//!   skipped as noise-dominated;
//! * every skip is counted and the summary line reports how many tracked
//!   rows were floor-skipped or lacked a baseline row, so a gate run
//!   that silently compares less than it appears to is visible in the
//!   log rather than indistinguishable from full coverage.

use std::process::ExitCode;

use sinr_bench::microbench::parse_records;

/// Record-name prefixes the gate enforces.
const TRACKED: &[&str] = &[
    "oracle/",
    "broadcast/",
    "coloring/",
    "mobility/",
    "churn/",
    "degradation/",
    "repair/",
];

struct Args {
    baseline: String,
    fresh: String,
    max_ratio: f64,
    floor_ns: u64,
}

fn parse_args() -> Args {
    let mut baseline = None;
    let mut fresh = None;
    let mut max_ratio = 1.25f64;
    let mut floor_ns = 10_000u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match arg.as_str() {
            "--baseline" => baseline = Some(value("--baseline")),
            "--fresh" => fresh = Some(value("--fresh")),
            "--max-ratio" => max_ratio = value("--max-ratio").parse().expect("ratio is a number"),
            "--floor-ns" => floor_ns = value("--floor-ns").parse().expect("floor is an integer"),
            other => panic!("unknown argument {other}"),
        }
    }
    Args {
        baseline: baseline.expect("--baseline <path> is required"),
        fresh: fresh.expect("--fresh <path> is required"),
        max_ratio,
        floor_ns,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let read = |path: &str| {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        parse_records(&text).unwrap_or_else(|e| panic!("malformed {path}: {e}"))
    };
    let baseline = read(&args.baseline);
    let fresh = read(&args.fresh);
    assert!(!baseline.is_empty(), "no records in {}", args.baseline);
    assert!(!fresh.is_empty(), "no records in {}", args.fresh);

    let mut compared = 0usize;
    let mut skipped_no_baseline = 0usize;
    let mut skipped_floor = 0usize;
    let mut regressions = Vec::new();
    for f in &fresh {
        if !TRACKED.iter().any(|p| f.name.starts_with(p)) {
            continue;
        }
        let Some(b) = baseline.iter().find(|b| b.name == f.name) else {
            skipped_no_baseline += 1;
            println!("gate: {:<44} (no baseline row; skipped)", f.name);
            continue;
        };
        if b.min_ns < args.floor_ns {
            skipped_floor += 1;
            println!(
                "gate: {:<44} baseline {} ns below floor; skipped",
                f.name, b.min_ns
            );
            continue;
        }
        compared += 1;
        let ratio = f.min_ns as f64 / b.min_ns as f64;
        let verdict = if ratio > args.max_ratio {
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "gate: {:<44} baseline {:>12} ns  fresh {:>12} ns  ratio {ratio:.3}  {verdict}",
            f.name, b.min_ns, f.min_ns
        );
        if ratio > args.max_ratio {
            regressions.push((f.name.clone(), ratio));
        }
    }
    println!(
        "gate: compared {compared} tracked kernels against {} (max ratio {}); \
         skipped {skipped_floor} below the {} ns floor, {skipped_no_baseline} without a \
         baseline row",
        args.baseline, args.max_ratio, args.floor_ns
    );
    if regressions.is_empty() {
        println!("gate: PASS");
        return ExitCode::SUCCESS;
    }
    println!("gate: FAIL — {} kernel(s) regressed:", regressions.len());
    for (name, ratio) in &regressions {
        println!(
            "gate:   {name} slowed {ratio:.2}x (limit {:.2}x)",
            args.max_ratio
        );
    }
    ExitCode::FAILURE
}
