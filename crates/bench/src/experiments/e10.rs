//! E10 — robustness to the population estimate ν.
//!
//! The paper (Section 1.1) only requires stations to share an estimate
//! `ν ≥ n` with `ν = O(n^c)`; the bounds then read `O(D log ν + log² ν)` /
//! `O(D log² ν)`. Inflating ν by powers of 4 should slow the broadcast by
//! (poly)logarithmic factors only — and never break it.

use sinr_core::sim::{ProtocolSpec, Scenario, TopologySpec};
use sinr_core::{log2n, Constants};
use sinr_stats::fmt_f64;

use crate::{sweep_table, ExpConfig, SweepRow};

/// Runs E10 and returns the rendered table.
pub fn run(cfg: &ExpConfig) -> String {
    let consts = Constants::tuned();
    let d = cfg.pick(6u32, 3);
    let per = cfg.pick(10, 6);
    let n = (d as usize + 1) * per;
    let factors: &[usize] = cfg.pick(&[1, 4, 16, 64], &[1, 16]);
    let trials = cfg.pick(5, 2);

    let mut rows = Vec::new();
    for &f in factors {
        let nu = n * f;
        let sim = Scenario::new(TopologySpec::ClusterChain {
            diameter: d,
            per_cluster: per,
        })
        .constants(consts)
        .protocol(ProtocolSpec::SBroadcastWithEstimate { source: 0, nu })
        .budget(consts.coloring_rounds(nu) + consts.wakeup_window(nu, d) * 4)
        .build()
        .expect("valid scenario");
        let l = log2n(nu) as f64;
        rows.push(
            SweepRow::new(
                vec![f.to_string(), nu.to_string(), fmt_f64(l)],
                f as u64,
                sim,
            )
            .with_extra(move |sweep| {
                vec![sweep
                    .rounds_summary()
                    .map_or("-".into(), |s| fmt_f64(s.mean / l))]
            }),
        );
    }
    let table = sweep_table(
        cfg,
        10,
        trials,
        vec![
            "nu/n",
            "nu",
            "log2(nu)",
            "rounds(mean)",
            "ok",
            "rounds/log2(nu)",
        ],
        rows,
    );
    let mut out = format!(
        "E10: robustness to the population estimate nu (true n = {n}, D = {d})\n\
         expect: completion at every nu; rounds grow ~log(nu) (rounds/log2(nu) ~flat)\n\n"
    );
    out.push_str(&table.render());
    println!("{out}");
    out
}
