//! A3 — simulator-fidelity ablation: interference evaluation modes.
//!
//! The reproduction's default physics is the **exact** Equation (1) — every
//! transmitter contributes to every receiver. The one approximation is the
//! grid-native kernel (exact decode, per-receiver-cell shared tail), whose
//! only error knob is `near_radius`: transmitter cells within it are
//! evaluated exactly, farther ones through the shared tail. This ablation
//! runs identical seeds under exact physics and grid-native at
//! `near_radius` 2, 4 (the default) and 8, and compares protocol
//! outcomes: every row should track exact rounds closely, since the tail
//! is estimated, not dropped.

use sinr_phy::InterferenceMode;
use sinr_sim::{ProtocolSpec, Scenario, TopologySpec};
use sinr_stats::{fmt_f64, Table};

use crate::{sweep_cell, ExpConfig};

/// Runs A3 and returns the rendered table.
pub fn run(cfg: &ExpConfig) -> String {
    let trials = cfg.pick(5, 2);
    let n = cfg.pick(200, 80);

    let modes: [(&str, InterferenceMode); 4] = [
        ("exact", InterferenceMode::Exact),
        (
            "grid-native r=2",
            InterferenceMode::GridNative { near_radius: 2.0 },
        ),
        ("grid-native r=4", InterferenceMode::grid_native()),
        (
            "grid-native r=8",
            InterferenceMode::GridNative { near_radius: 8.0 },
        ),
    ];
    let topologies: [(&str, TopologySpec); 2] = [
        (
            "uniform",
            TopologySpec::ConnectedSquareDensity { n, density: 30.0 },
        ),
        (
            "chain",
            TopologySpec::ClusterChain {
                diameter: 8,
                per_cluster: n / 9,
            },
        ),
    ];

    let mut table = Table::new(vec!["topology", "mode", "rounds(mean)", "vs exact", "ok"]);
    for (topo_name, topology) in &topologies {
        let mut exact_mean = None;
        for (mode_name, mode) in modes {
            let sim = Scenario::new(topology.clone())
                .protocol(ProtocolSpec::SBroadcast { source: 0 })
                .interference_mode(mode)
                .budget(2_000_000)
                .build()
                .expect("valid scenario");
            // Same tag across modes: identical seeds, identical
            // deployments — only the physics fidelity differs.
            let sweep = sweep_cell(cfg, 33, 0, trials, &sim);
            let mean = sweep.rounds_summary().map(|s| s.mean);
            if mode_name == "exact" {
                exact_mean = mean;
            }
            let ratio = match (mean, exact_mean) {
                (Some(m), Some(e)) if e > 0.0 => fmt_f64(m / e),
                _ => "-".into(),
            };
            table.row(vec![
                topo_name.to_string(),
                mode_name.to_string(),
                mean.map_or_else(|| "-".into(), fmt_f64),
                ratio,
                sweep.ok_string(),
            ]);
        }
    }
    let mut out = String::from(
        "A3: simulator-fidelity ablation - exact vs grid-native near_radius\n\
         expect: every grid-native near_radius tracks exact closely (ratio ~1);\n\
         all modes complete\n\n",
    );
    out.push_str(&table.render());
    println!("{out}");
    out
}
