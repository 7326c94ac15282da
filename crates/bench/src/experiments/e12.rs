//! E12 — the title question quantified: what does geometry knowledge buy?
//!
//! Races the paper's geometry-blind `SBroadcast` against the GPS-oracle
//! grid TDMA (full coordinates *plus* an in-cell contention oracle — the
//! strongest form of geometric knowledge, subsuming references [14, 15])
//! across the topology families. The paper's thesis: the gap is at most
//! polylogarithmic — geometry knowledge changes constants, not the shape.

use sinr_core::sim::{ProtocolSpec, Scenario, TopologySpec};
use sinr_phy::SinrParams;
use sinr_stats::{fmt_f64, Table};

use crate::{sweep_cell, ExpConfig};

/// Runs E12 and returns the rendered table.
pub fn run(cfg: &ExpConfig) -> String {
    let params = SinrParams::default_plane();
    let trials = cfg.pick(5, 2);
    let n = cfg.pick(96, 48);
    let budget = 2_000_000;

    let topologies: Vec<(&str, TopologySpec)> = vec![
        (
            "uniform",
            TopologySpec::ConnectedSquareDensity { n, density: 30.0 },
        ),
        (
            "clusters",
            TopologySpec::ClusterChain {
                diameter: 5,
                per_cluster: n / 6,
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
        (
            "core-sats",
            TopologySpec::CoreAndSatellites {
                core_n: n - 12,
                sat_n: 12,
                core_radius: 0.2,
                sat_distance: 0.6,
            },
        ),
    ];

    let mut table = Table::new(vec![
        "topology",
        "no-GPS (ours)",
        "ok",
        "GPS oracle",
        "ok",
        "price of blindness",
    ]);
    for (name, topology) in &topologies {
        let ours_sim = Scenario::new(topology.clone())
            .protocol(ProtocolSpec::SBroadcast { source: 0 })
            .budget(budget)
            .build()
            .expect("valid scenario");
        let gps_sim = Scenario::new(topology.clone())
            .protocol(ProtocolSpec::GpsOracleBroadcast { source: 0 })
            .budget(budget)
            .build()
            .expect("valid scenario");
        // Same tag: both contenders race on identical per-seed deployments.
        let ours = sweep_cell(cfg, 12, 0, trials, &ours_sim);
        let gps = sweep_cell(cfg, 12, 0, trials, &gps_sim);
        let so = ours.rounds_summary();
        let sg = gps.rounds_summary();
        let ratio = match (&so, &sg) {
            (Some(a), Some(b)) if b.mean > 0.0 => fmt_f64(a.mean / b.mean),
            _ => "-".into(),
        };
        table.row(vec![
            name.to_string(),
            so.map_or("-".into(), |s| fmt_f64(s.mean)),
            ours.ok_string(),
            sg.map_or("-".into(), |s| fmt_f64(s.mean)),
            gps.ok_string(),
            ratio,
        ]);
    }
    let mut out = String::from(
        "E12: the title question - geometry-blind broadcast vs a GPS-oracle TDMA\n\
         expect: the oracle wins everywhere (it knows everything), but only by a\n\
         bounded polylog factor - the paper's thesis that geometry knowledge is\n\
         worth at most O(log^2 n)\n\n",
    );
    out.push_str(&table.render());
    println!("{out}");
    out
}
