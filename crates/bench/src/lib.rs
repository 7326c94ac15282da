//! Experiment harness reproducing the paper's stated bounds.
//!
//! The paper (PODC 2014) is pure theory — no tables or figures — so the
//! "evaluation" to reproduce is the set of stated complexity bounds and
//! invariants. Each experiment module regenerates one table of
//! `EXPERIMENTS.md`; the `experiments` binary runs them by id:
//!
//! | id | claim |
//! |----|-------|
//! | e1 | Fact 7: `StabilizeProbability` runs in `O(log² n)` rounds |
//! | e2 | Lemma 1: per-color unit-ball mass bounded by a constant |
//! | e3 | Lemma 2: every station has a constant-mass color nearby |
//! | e4 | Theorem 1: `NoSBroadcast` in `O(D log² n)` |
//! | e5 | Theorem 2: `SBroadcast` in `O(D log n + log² n)` |
//! | e6 | granularity independence vs the Daum et al. baseline |
//! | e7 | Section 5 applications: wake-up, consensus, leader election |
//! | e8 | whp success rates |
//! | e9 | baseline comparison across density regimes |
//! | e10 | robustness to the population estimate ν |
//! | e11 | hard instances: bridge, ring, two-tier density |
//! | e12 | geometry-blind vs GPS-oracle TDMA (the title question) |
//! | a1 | ablation: the `c_ε` Playoff scale-up |
//! | a2 | ablation: removing Playoff breaks Lemma 2 |
//! | a3 | ablation: interference-evaluation fidelity (exact vs grid-native `near_radius` 2 / 4 / 8) |
//!
//! Every experiment drives the [`sinr_core::sim::Scenario`] builder
//! through the shared [`sweep_table`]/[`sweep_cell`] helpers below — the
//! per-trial seed loops live here, once.
//!
//! Like every library crate in the workspace, this harness is pure safe
//! Rust (the attribute below; `tests/workspace_lints.rs` checks every
//! library root carries it); it is also the one crate *allowed* to read
//! wall clocks and print, being the designated measurement/reporting
//! surface.

#![forbid(unsafe_code)]

pub mod broadcast_suite;
pub mod churn_suite;
pub mod coloring_suite;
pub mod config;
pub mod degradation_suite;
pub mod experiments;
pub mod microbench;
pub mod mobility_suite;
pub mod phy_suite;
pub mod repair_suite;

pub use config::ExpConfig;

use sinr_core::sim::{Simulation, SweepReport};
use sinr_stats::{fmt_f64, Table};

/// Deterministic per-trial seeds for row `tag` of experiment `exp`.
///
/// Each seed fully determines its trial (topology draw and protocol
/// randomness), so the sweep both parallelizes and replays.
pub fn trial_seeds(cfg: &ExpConfig, exp: u64, tag: u64, trials: usize) -> Vec<u64> {
    (0..trials as u64)
        .map(|t| cfg.trial_seed(exp, t * 1_000_003 + tag))
        .collect()
}

/// Runs one table cell: `trials` seeded runs of `sim`, in parallel.
///
/// # Panics
///
/// Panics when a trial fails to build its scenario (an experiment bug,
/// not a measurement outcome).
pub fn sweep_cell(
    cfg: &ExpConfig,
    exp: u64,
    tag: u64,
    trials: usize,
    sim: &Simulation,
) -> SweepReport {
    sim.sweep(&trial_seeds(cfg, exp, tag, trials))
        .expect("experiment scenario must run")
}

/// One row of a [`sweep_table`]: leading label cells, a seed tag, the
/// simulation to sweep, and optional trailing columns computed from the
/// sweep.
pub struct SweepRow {
    /// Leading label cells (topology name, parameter values, …).
    pub cells: Vec<String>,
    /// Row tag mixed into the trial seeds (keep distinct per row).
    pub tag: u64,
    /// The scenario this row measures.
    pub sim: Simulation,
    /// Optional trailing columns derived from the sweep result.
    #[allow(clippy::type_complexity)]
    pub extra: Option<Box<dyn Fn(&SweepReport) -> Vec<String>>>,
}

impl SweepRow {
    /// A row with no extra columns.
    pub fn new(cells: Vec<String>, tag: u64, sim: Simulation) -> Self {
        SweepRow {
            cells,
            tag,
            sim,
            extra: None,
        }
    }

    /// Adds trailing columns computed from the sweep.
    #[must_use]
    pub fn with_extra(mut self, extra: impl Fn(&SweepReport) -> Vec<String> + 'static) -> Self {
        self.extra = Some(Box::new(extra));
        self
    }
}

/// The shared experiment-table driver: for every row, sweeps its
/// simulation over the row's trial seeds and renders
/// `label cells… | rounds(mean) | ok | extra…`.
///
/// `headers` must name the label columns, then `rounds(mean)` and `ok`,
/// then any extra columns the rows compute.
pub fn sweep_table(
    cfg: &ExpConfig,
    exp: u64,
    trials: usize,
    headers: Vec<&'static str>,
    rows: Vec<SweepRow>,
) -> Table {
    let mut table = Table::new(headers);
    for row in rows {
        let sweep = sweep_cell(cfg, exp, row.tag, trials, &row.sim);
        let mut cells = row.cells;
        cells.push(
            sweep
                .rounds_summary()
                .map_or_else(|| "-".into(), |s| fmt_f64(s.mean)),
        );
        cells.push(sweep.ok_string());
        if let Some(extra) = &row.extra {
            cells.extend(extra(&sweep));
        }
        table.row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_core::sim::{ProtocolSpec, Scenario, TopologySpec};

    fn tiny_sim() -> Simulation {
        Scenario::new(TopologySpec::UniformLine { n: 5, gap: 0.45 })
            .protocol(ProtocolSpec::FloodBroadcast { source: 0, p: 0.4 })
            .budget(50_000)
            .build()
            .unwrap()
    }

    #[test]
    fn trial_seeds_distinct_across_rows_and_trials() {
        let cfg = ExpConfig::default();
        let a = trial_seeds(&cfg, 1, 0, 3);
        let b = trial_seeds(&cfg, 1, 1, 3);
        let c = trial_seeds(&cfg, 2, 0, 3);
        assert_eq!(a.len(), 3);
        for s in &a {
            assert!(!b.contains(s) && !c.contains(s));
        }
        assert_eq!(a, trial_seeds(&cfg, 1, 0, 3), "replayable");
    }

    #[test]
    fn sweep_cell_runs_all_trials() {
        let cfg = ExpConfig::default();
        let sweep = sweep_cell(&cfg, 99, 0, 4, &tiny_sim());
        assert_eq!(sweep.runs.len(), 4);
        assert_eq!(sweep.completed(), 4, "flood on a 5-line completes");
    }

    #[test]
    fn sweep_table_renders_standard_columns() {
        let cfg = ExpConfig::default();
        let rows = vec![
            SweepRow::new(vec!["line".into()], 0, tiny_sim())
                .with_extra(|s| vec![format!("{:.2}", s.completion_rate())]),
            SweepRow::new(vec!["line2".into()], 1, tiny_sim())
                .with_extra(|s| vec![format!("{:.2}", s.completion_rate())]),
        ];
        let table = sweep_table(
            &cfg,
            99,
            2,
            vec!["topology", "rounds(mean)", "ok", "rate"],
            rows,
        );
        let rendered = table.render();
        assert!(rendered.contains("line"));
        assert!(rendered.contains("2/2"));
    }
}
