//! CLI for `sinr-lint`. See the library docs for the rule catalogue.
//!
//! ```text
//! sinr-lint [--check] [--ratchet-update] [--root <dir>]
//! ```
//!
//! * default / `--check`: print `file:line: [rule] message` diagnostics,
//!   exit 1 if any, 0 when clean (CI mode);
//! * `--ratchet-update`: rewrite `lint-ratchet.toml` to the measured
//!   panic-surface counts (the explicit way to lower — or, loudly, raise
//!   — the ceilings);
//! * `--root <dir>`: workspace root to lint (default: current directory).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use sinr_lint::{lint_root, Config, Ratchet, Workspace, RATCHET_FILE};

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut update = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {}
            "--ratchet-update" => update = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            "--help" | "-h" => {
                println!("sinr-lint [--check] [--ratchet-update] [--root <dir>]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let cfg = Config::default();
    if update {
        return ratchet_update(&root, &cfg);
    }

    match lint_root(&root, &cfg) {
        Ok(report) => {
            for d in &report.diagnostics {
                println!("{d}");
            }
            for drift in &report.improvements {
                println!(
                    "note: panic surface of `{}` shrank ({} -> {}); lower the ceiling \
                     with `sinr-lint --ratchet-update`",
                    drift.krate, drift.baseline, drift.actual
                );
            }
            if report.is_clean() {
                println!(
                    "sinr-lint: clean ({} hot-crate panic sites within ratchet)",
                    report.panic_counts.values().sum::<u64>()
                );
                ExitCode::SUCCESS
            } else {
                println!("sinr-lint: {} violation(s)", report.diagnostics.len());
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("sinr-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn ratchet_update(root: &std::path::Path, cfg: &Config) -> ExitCode {
    let ws = match Workspace::load(root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("sinr-lint: walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let result = sinr_lint::check_files(&ws.files, cfg);
    let measured = result.panic_counts;
    let path = root.join(RATCHET_FILE);
    let old = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| Ratchet::parse(&t).ok());
    let new = Ratchet {
        counts: measured.clone(),
    };
    if let Err(e) = std::fs::write(&path, new.render()) {
        eprintln!("sinr-lint: writing {}: {e}", path.display());
        return ExitCode::from(2);
    }
    for (krate, count) in &measured {
        let before = old.as_ref().and_then(|o| o.counts.get(krate).copied());
        match before {
            Some(b) if *count > b => println!(
                "warning: ceiling for `{krate}` RAISED {b} -> {count}; the ratchet is \
                 meant to shrink — justify this in review"
            ),
            Some(b) if *count < b => println!("lowered `{krate}`: {b} -> {count}"),
            Some(_) => println!("unchanged `{krate}`: {count}"),
            None => println!("added `{krate}`: {count}"),
        }
    }
    println!("wrote {}", path.display());
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("sinr-lint: {msg}\nusage: sinr-lint [--check] [--ratchet-update] [--root <dir>]");
    ExitCode::from(2)
}
