//! Experiment harness CLI.
//!
//! ```text
//! experiments <id>... [--quick] [--seed S]
//! experiments all [--quick]
//! experiments list
//! ```
//!
//! Each id regenerates one table of EXPERIMENTS.md (e1..e9, a1, a2).

use std::process::ExitCode;

use sinr_bench::experiments::{run_by_id, ALL_IDS};
use sinr_bench::ExpConfig;

fn usage() {
    eprintln!("usage: experiments <id>... [--quick] [--seed S]");
    eprintln!("       experiments all [--quick]");
    eprintln!("       experiments list");
    eprintln!("ids: {}", ALL_IDS.join(", "));
}

// Wall-clock progress timing in the experiments driver: bench is the one
// crate allowed to read clocks (clippy.toml disallows them elsewhere).
#[allow(clippy::disallowed_methods)]
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    let mut cfg = ExpConfig::default();
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => cfg.seed = s,
                None => {
                    eprintln!("--seed requires an integer");
                    return ExitCode::FAILURE;
                }
            },
            "list" => {
                for id in ALL_IDS {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                usage();
                return ExitCode::FAILURE;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    for id in &ids {
        let start = std::time::Instant::now();
        match run_by_id(id, &cfg) {
            Some(_) => eprintln!("[{id}] done in {:.1}s\n", start.elapsed().as_secs_f64()),
            None => {
                eprintln!("unknown experiment id: {id}");
                usage();
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
