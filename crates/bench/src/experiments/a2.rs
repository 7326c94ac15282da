//! A2 — ablation: removing Playoff (the gate becomes DensityTest alone).
//!
//! Setting the Playoff threshold `c₃ = 0` makes the test vacuous: a station
//! quits as soon as its *unit ball* is dense, with no information about its
//! ε/2-ball. On locally homogeneous networks nothing breaks — but on the
//! paper's footnote-4 adversaries (a dense core with isolated satellites,
//! and the halving line whose tail piles up geometrically) stations in
//! locally sparse spots quit at the very first probability level and the
//! Lemma 2 floor collapses. This is the paper's central algorithmic point:
//! a unit-ball density test alone cannot see the geometry inside the ball.

use sinr_core::sim::{Outcome, ProtocolSpec, Scenario, TopologySpec};
use sinr_core::{invariant_report, Constants};
use sinr_phy::SinrParams;
use sinr_stats::{fmt_f64, Table};

use crate::{sweep_cell, ExpConfig};

/// The adversarial topology families where the Playoff mechanism binds.
///
/// * `core-sats` — `n − 12` stations packed in a radius-0.2 disk plus 12
///   isolated satellites at distance 0.6 (inside the core's unit ball,
///   pairwise > ε/2 apart);
/// * `halving-line` — the footnote-2 line whose gaps shrink geometrically,
///   sparse head + packed tail in one reachability ball.
pub fn adversarial_families(n: usize) -> Vec<(&'static str, TopologySpec)> {
    vec![
        (
            "core-sats",
            TopologySpec::CoreAndSatellites {
                core_n: n.saturating_sub(12).max(24),
                sat_n: 12,
                core_radius: 0.2,
                sat_distance: 0.6,
            },
        ),
        (
            "halving-line",
            TopologySpec::HalvingLine {
                n,
                first_gap: 0.5,
                ratio: 0.5,
                min_gap: 2e-9,
            },
        ),
    ]
}

/// Measures the Lemma 1/2 invariants of one coloring scenario per
/// adversarial family and appends a row per (variant, family, trial).
#[allow(clippy::too_many_arguments)]
pub fn invariant_rows(
    cfg: &ExpConfig,
    exp_id: u64,
    tag: u64,
    n: usize,
    trials: usize,
    consts: Constants,
    variant: &str,
    floor: f64,
    table: &mut Table,
) {
    let params = SinrParams::default_plane();
    for (fi, (family, spec)) in adversarial_families(n).into_iter().enumerate() {
        let sim = Scenario::new(spec)
            .params(params)
            .constants(consts)
            .protocol(ProtocolSpec::Coloring)
            .build()
            .expect("fixed-schedule protocol");
        let sweep = sweep_cell(cfg, exp_id, tag * 10 + fi as u64, trials, &sim);
        for run in &sweep.runs {
            let pts = sim.materialize(run.seed).expect("same stream as the run");
            let coloring = match &run.outcome {
                Outcome::Coloring { coloring } => coloring,
                other => unreachable!("coloring outcome expected, got {other:?}"),
            };
            let rep = invariant_report(&pts, coloring, params.eps());
            table.row(vec![
                variant.to_string(),
                family.to_string(),
                fmt_f64(rep.max_unit_ball_mass),
                format!("{:.5}", rep.min_close_mass),
                format!("{floor:.5}"),
                (rep.min_close_mass >= floor).to_string(),
            ]);
        }
    }
}

/// Runs A2 and returns the rendered table.
pub fn run(cfg: &ExpConfig) -> String {
    let n = cfg.pick(512, 128);
    let trials = cfg.pick(2, 1);

    let full = Constants::tuned();
    let no_playoff = Constants { c3: 0.0, ..full };
    let floor = full.p_max() / 4.0;

    let mut table = Table::new(vec![
        "variant",
        "family",
        "lemma1 worst",
        "lemma2 worst",
        "floor",
        "holds",
    ]);
    for (vi, (variant, consts)) in [("full", full), ("no-playoff", no_playoff)]
        .into_iter()
        .enumerate()
    {
        invariant_rows(
            cfg, 32, vi as u64, n, trials, consts, variant, floor, &mut table,
        );
    }
    let mut out = String::from(
        "A2: ablation - Playoff removed (c3 = 0, DensityTest-only gate)\n\
         expect: 'no-playoff' breaks the Lemma 2 floor on the footnote-4\n\
         adversaries (satellites/sparse-head quit at p_start), 'full' holds\n\n",
    );
    out.push_str(&table.render());
    println!("{out}");
    out
}
