//! E1 — Fact 7: `StabilizeProbability` completes in `O(log² n)` rounds.
//!
//! The schedule length is deterministic given `n`, so the experiment both
//! reports the schedule (rounds and its ratio to `log² n`) and measures the
//! *work* the procedure performs (mean transmissions per station), sweeping
//! `n` on connected uniform squares of constant density.

use sinr_core::sim::{Outcome, ProtocolSpec, Scenario, TopologySpec};
use sinr_core::{log2n, Constants};
use sinr_stats::{fmt_f64, Summary, Table};

use crate::{sweep_cell, ExpConfig};

/// Runs E1 and returns the rendered table.
pub fn run(cfg: &ExpConfig) -> String {
    let consts = Constants::tuned();
    let sizes: &[usize] = cfg.pick(&[256, 512, 1024, 2048], &[128, 256]);
    let trials = cfg.pick(5, 2);

    let mut table = Table::new(vec![
        "n",
        "log2n",
        "rounds",
        "rounds/log^2",
        "levels",
        "tx/station(mean)",
        "colors(mean)",
    ]);
    for &n in sizes {
        let sim = Scenario::new(TopologySpec::ConnectedSquareDensity { n, density: 30.0 })
            .constants(consts)
            .protocol(ProtocolSpec::Coloring)
            .build()
            .expect("fixed-schedule protocol");
        let sweep = sweep_cell(cfg, 1, n as u64, trials, &sim);
        let txs: Vec<f64> = sweep
            .runs
            .iter()
            .map(|r| r.total_transmissions as f64 / n as f64)
            .collect();
        let colors: Vec<f64> = sweep
            .runs
            .iter()
            .map(|r| match &r.outcome {
                Outcome::Coloring { coloring } => coloring.num_colors() as f64,
                other => unreachable!("coloring outcome expected, got {other:?}"),
            })
            .collect();
        let rounds = sweep.runs.last().map_or(0, |r| r.rounds);
        let l = log2n(n);
        let tx_summary = Summary::of(&txs).expect("at least one trial");
        let color_summary = Summary::of(&colors).expect("at least one trial");
        table.row(vec![
            n.to_string(),
            l.to_string(),
            rounds.to_string(),
            fmt_f64(rounds as f64 / (l * l) as f64),
            consts.num_levels(n).to_string(),
            fmt_f64(tx_summary.mean),
            fmt_f64(color_summary.mean),
        ]);
    }
    let mut out = String::from(
        "E1: StabilizeProbability rounds vs n (Fact 7: O(log^2 n))\n\
         expect: rounds/log^2 column bounded by a constant as n grows\n\n",
    );
    out.push_str(&table.render());
    println!("{out}");
    out
}
