//! E4 — Theorem 1: `NoSBroadcast` completes in `O(D log² n)` rounds whp.
//!
//! Chains of clusters give exact control of the diameter `D`; the fit of
//! measured rounds against the feature `D·log² n` should be proportional
//! (flat ratio, high R²).

use sinr_core::sim::{ProtocolSpec, Scenario, TopologySpec};
use sinr_core::{log2n, Constants};
use sinr_stats::{fit_proportional, fmt_f64, Table};

use crate::{sweep_cell, ExpConfig};

/// Runs E4 and returns the rendered table.
pub fn run(cfg: &ExpConfig) -> String {
    let consts = Constants::tuned();
    let diameters: &[u32] = cfg.pick(&[2, 4, 8, 16], &[2, 4]);
    let per_cluster = cfg.pick(12, 8);
    let trials = cfg.pick(5, 2);

    let mut table = Table::new(vec![
        "D",
        "n",
        "rounds(mean)",
        "rounds(max)",
        "rounds/(D*log^2)",
        "ok",
    ]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &d in diameters {
        let n = (d as usize + 1) * per_cluster;
        let sim = Scenario::new(TopologySpec::ClusterChain {
            diameter: d,
            per_cluster,
        })
        .constants(consts)
        .protocol(ProtocolSpec::NoSBroadcast { source: 0 })
        .budget(consts.phase_rounds(n) * (u64::from(d) + 4) * 2)
        .build()
        .expect("valid scenario");
        let sweep = sweep_cell(cfg, 4, u64::from(d), trials, &sim);
        let l = log2n(n);
        let feature = f64::from(d) * (l * l) as f64;
        let s = sweep.rounds_summary();
        if let Some(s) = &s {
            xs.push(feature);
            ys.push(s.mean);
        }
        table.row(vec![
            d.to_string(),
            n.to_string(),
            s.map_or("-".into(), |s| fmt_f64(s.mean)),
            s.map_or("-".into(), |s| fmt_f64(s.max)),
            s.map_or("-".into(), |s| fmt_f64(s.mean / feature)),
            sweep.ok_string(),
        ]);
    }
    let fit = fit_proportional(&xs, &ys);
    let mut out = String::from(
        "E4: NoSBroadcast rounds on cluster chains (Theorem 1: O(D log^2 n))\n\
         expect: rounds/(D*log^2 n) roughly flat in D; proportional fit with high R^2\n\n",
    );
    out.push_str(&table.render());
    if let Some((a, r2)) = fit {
        out.push_str(&format!(
            "\nfit rounds ~ a * D*log^2(n): a = {}, R^2 = {}\n",
            fmt_f64(a),
            fmt_f64(r2)
        ));
    }
    println!("{out}");
    out
}
