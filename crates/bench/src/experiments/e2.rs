//! E2 — Lemma 1: after `StabilizeProbability`, the per-color probability
//! mass in every unit ball stays below a constant `C₁`, independent of `n`
//! and of the topology family.

use std::collections::BTreeMap;

use sinr_core::sim::{Outcome, ProtocolSpec, Scenario, TopologySpec};
use sinr_core::{invariant_report, Constants};
use sinr_phy::SinrParams;
use sinr_stats::{fmt_f64, Summary, Table};

use crate::{sweep_cell, ExpConfig};

/// Named topology families used by E2/E3/A1/A2, as declarative specs.
pub fn families(n: usize, params: &SinrParams) -> Vec<(&'static str, TopologySpec)> {
    let clusters = (n / 24).max(2);
    vec![
        (
            "uniform",
            TopologySpec::ConnectedSquareDensity { n, density: 30.0 },
        ),
        (
            "clusters",
            TopologySpec::ClusterChain {
                diameter: (clusters - 1) as u32,
                per_cluster: n / clusters,
            },
        ),
        (
            "geom-line",
            TopologySpec::GranularityLine {
                n,
                max_gap: params.comm_radius(),
                rs_target: 1e6,
                min_gap: 2e-9,
            },
        ),
    ]
}

/// Lemma 1 masses, Lemma 2 masses and max color count per (family, n).
pub type InvariantSamples = BTreeMap<(String, usize), (Vec<f64>, Vec<f64>, usize)>;

/// Per-(family, n) Lemma 1 and Lemma 2 measurements over several trials:
/// a coloring `Scenario` per family, materialized points paired with each
/// run's coloring outcome.
pub fn measure_invariants(
    cfg: &ExpConfig,
    exp_id: u64,
    sizes: &[usize],
    trials: usize,
    consts: Constants,
) -> InvariantSamples {
    let params = SinrParams::default_plane();
    let mut acc: InvariantSamples = BTreeMap::new();
    for &n in sizes {
        for (fi, (family, spec)) in families(n, &params).into_iter().enumerate() {
            let sim = Scenario::new(spec)
                .params(params)
                .constants(consts)
                .protocol(ProtocolSpec::Coloring)
                .build()
                .expect("fixed-schedule protocol");
            let tag = n as u64 * 10 + fi as u64;
            let sweep = sweep_cell(cfg, exp_id, tag, trials, &sim);
            for run in &sweep.runs {
                let pts = sim.materialize(run.seed).expect("same stream as the run");
                let coloring = match &run.outcome {
                    Outcome::Coloring { coloring } => coloring,
                    other => unreachable!("coloring outcome expected, got {other:?}"),
                };
                let rep = invariant_report(&pts, coloring, params.eps());
                let entry = acc
                    .entry((family.to_string(), n))
                    .or_insert_with(|| (Vec::new(), Vec::new(), 0));
                entry.0.push(rep.max_unit_ball_mass);
                entry.1.push(rep.min_close_mass);
                entry.2 = entry.2.max(rep.num_colors);
            }
        }
    }
    acc
}

/// Runs E2 and returns the rendered table.
pub fn run(cfg: &ExpConfig) -> String {
    let consts = Constants::tuned();
    let sizes: &[usize] = cfg.pick(&[128, 256, 512, 1024], &[96, 192]);
    let trials = cfg.pick(3, 1);
    let acc = measure_invariants(cfg, 2, sizes, trials, consts);

    let mut table = Table::new(vec![
        "family",
        "n",
        "lemma1 mean",
        "lemma1 worst",
        "colors(max)",
    ]);
    for ((family, n), (l1, _l2, colors)) in &acc {
        let s = Summary::of(l1).expect("non-empty");
        table.row(vec![
            family.clone(),
            n.to_string(),
            fmt_f64(s.mean),
            fmt_f64(s.max),
            colors.to_string(),
        ]);
    }
    let mut out = format!(
        "E2: Lemma 1 - max per-color unit-ball mass (cap C1 = {})\n\
         expect: 'lemma1 worst' bounded by a constant across n and families\n\n",
        consts.c1_cap
    );
    out.push_str(&table.render());
    println!("{out}");
    out
}
