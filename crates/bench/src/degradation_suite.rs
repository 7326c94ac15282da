//! The degradation benchmark suite: the kernels of the fault-injection
//! and graceful-degradation subsystem, plus the degradation-curve table.
//!
//! Rows (all under the `degradation/` prefix, gated by the CI
//! `bench_gate` job like every other tracked kernel):
//!
//! * `degradation/estimator/observe/65536` — the online ν-estimator's
//!   per-listening-round hot path ([`sinr_core::NuEstimator::observe`]):
//!   65 536 observations with a decode every fifth round, the
//!   steady-state mix where the silence run never reaches the window;
//! * `degradation/cut_vertices/<n>` — the articulation-point pass
//!   ([`sinr_phy::CommGraph::cut_vertices_into`]) a cut-vertex kill
//!   schedule pays per strike: one scratch-reusing iterative Tarjan
//!   DFS, `O(n+m)`;
//! * `degradation/fault_plan_epoch/<n>` — one adversary boundary as the
//!   engine shapes it: in-place communication-graph refresh plus a
//!   composed blackout + jamming plan over the refreshed graph.
//!
//! After the rows, full (non-`--quick`) runs print the degradation-curve
//! table: final live-population coverage, completion latency and energy
//! of the fixed-ν re-flood baseline versus the online-ν estimating
//! re-flood, across cut-vertex kill intensities — the measured shape of
//! "degrade in latency, not in coverage" (see
//! `examples/adversarial_broadcast.rs` for the pinned single-seed
//! story).

use sinr_core::sim::{AdversarySpec, ProtocolSpec, Scenario, TopologySpec};
use sinr_core::NuEstimator;
use sinr_netgen::uniform;
use sinr_phy::{GraphScratch, Network, SinrParams};
use sinr_runtime::{
    BlackoutAdversary, FaultDelta, FaultPlan, FaultPlanSet, FaultView, JamAdversary,
};
use sinr_stats::{fmt_f64, Table};

use crate::microbench::{black_box, Session};
use crate::phy_suite::DENSITY;

/// Runs the suite into `session`. Under `--quick` the sizes shrink to a
/// single small deployment and the curve table is skipped.
pub fn run(session: &mut Session) {
    let params = SinrParams::default_plane();

    // The estimator's hot path: one branchy update per listening round
    // of every estimating station — the cost the online estimate adds
    // over a burned-in ν. A decode every fifth observation keeps the
    // silence run below the window, so this measures the common no-grow
    // path rather than the rare doubling.
    let mut est = NuEstimator::new(4, 8, 1 << 20);
    session.bench_n("degradation/estimator/observe/65536", 65_536, 3, 20, || {
        for i in 0..65_536u32 {
            est.observe(i % 5 == 0);
        }
        black_box(est.nu());
    });

    // The articulation-point pass. A single iterative Tarjan DFS made
    // this linear (it was an O(n·(n+m)) remove-and-re-BFS probe), so the
    // row scales to the 10⁴ deployment the epoch-boundary adversaries
    // actually strike.
    let cut_sizes: &[usize] = if session.quick {
        &[2_500]
    } else {
        &[2_500, 10_000]
    };
    for &n0 in cut_sizes {
        let pts = uniform::square(n0, uniform::side_for_density(n0, DENSITY), 7);
        let cut_net = Network::new(pts, params).expect("generated deployment is valid");
        let mut scratch = GraphScratch::new();
        let mut cuts = Vec::new();
        session.bench_n(&format!("degradation/cut_vertices/{n0}"), n0, 1, 5, || {
            cut_net
                .comm_graph()
                .cut_vertices_into(&mut scratch, &mut cuts);
            black_box(cuts.len());
        });
    }

    // One adversary boundary, engine-shaped: refresh the communication
    // graph in place, then run a recurring composed plan against it.
    // Blackout + jam keeps the per-epoch work stationary (the cut-vertex
    // strike is a one-shot; its kernel is the row above).
    let sizes: &[usize] = if session.quick {
        &[2_500]
    } else {
        &[2_500, 10_000]
    };
    for &n in sizes {
        let pts = uniform::square(n, uniform::side_for_density(n, DENSITY), 7);
        let mut net = Network::new(pts, params).expect("generated deployment is valid");
        let mut plans = FaultPlanSet::new();
        plans.push(Box::new(BlackoutAdversary::new(0.02, 2, 11)));
        plans.push(Box::new(JamAdversary::new(16, 13)));
        let mut delta = FaultDelta::default();
        let mut plan_scratch = GraphScratch::new();
        let mut epoch = 0u64;
        session.bench(&format!("degradation/fault_plan_epoch/{n}"), n, || {
            net.refresh_comm_graph();
            delta.clear();
            let view = FaultView {
                epoch,
                round: (epoch + 1) * 8,
                alive: net.alive(),
                graph: net.comm_graph(),
                next_phase: None,
                protected: 0,
            };
            plans.plan(&view, &mut delta, &mut plan_scratch);
            epoch += 1;
            black_box(delta.kills.len() + delta.jammers.len());
        });
    }

    if !session.quick {
        println!("{}", curve_table().render());
    }
}

/// The degradation-curve table: fixed-ν re-flood versus online-ν
/// estimating re-flood under increasing cut-vertex kill intensities,
/// both starting from the same (badly wrong) estimate ν₀ = 2.
///
/// Columns: mean final live-population coverage over the seeds, mean
/// rounds of the completed runs (`-` when none completed — the latency
/// cost of adapting is visible only where coverage survives), mean
/// transmissions (energy) and the completion tally.
pub fn curve_table() -> Table {
    let seeds: Vec<u64> = (1..=5).collect();
    let mut table = Table::new(vec![
        "kill fraction",
        "protocol",
        "coverage(mean)",
        "rounds(mean)",
        "tx(mean)",
        "ok",
    ]);
    for &fraction in &[0.0, 0.10, 0.25, 0.40] {
        for online in [false, true] {
            let protocol = if online {
                ProtocolSpec::ReFloodBroadcastEstimate {
                    source: 0,
                    nu0: 2,
                    burst_rounds: 512,
                }
            } else {
                ProtocolSpec::ReFloodBroadcast {
                    source: 0,
                    p: 1.0,
                    burst_rounds: 512,
                }
            };
            let sim = Scenario::new(TopologySpec::ConnectedSquareDensity {
                n: 120,
                density: 40.0,
            })
            .protocol(protocol)
            .fast_physics()
            .adversary(AdversarySpec::cut_vertex_kill(fraction, 1, 8))
            .budget(1_500)
            .build()
            .expect("valid degradation scenario");
            let sweep = sim.sweep(&seeds).expect("degradation sweep");
            let coverage = sweep
                .runs
                .iter()
                .map(|r| r.faults.as_ref().map_or(1.0, |f| f.final_coverage()))
                .sum::<f64>()
                / sweep.runs.len() as f64;
            let energy = sweep
                .runs
                .iter()
                .map(|r| r.total_transmissions as f64)
                .sum::<f64>()
                / sweep.runs.len() as f64;
            table.row(vec![
                format!("{fraction:.2}"),
                if online { "online-ν" } else { "fixed-ν" }.into(),
                format!("{coverage:.3}"),
                sweep
                    .rounds_summary()
                    .map_or_else(|| "-".into(), |s| fmt_f64(s.mean)),
                fmt_f64(energy),
                sweep.ok_string(),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_core::sim::RunReport;

    #[test]
    fn curve_table_separates_the_strategies() {
        // A single-seed, tiny-budget rendition of the table's claim:
        // same deployment, same adversary, same ν₀ — the online estimate
        // keeps coverage the fixed probability loses. (The full table is
        // measurement output; this pins its qualitative shape.)
        let build = |online: bool| {
            let protocol = if online {
                ProtocolSpec::ReFloodBroadcastEstimate {
                    source: 0,
                    nu0: 2,
                    burst_rounds: 512,
                }
            } else {
                ProtocolSpec::ReFloodBroadcast {
                    source: 0,
                    p: 1.0,
                    burst_rounds: 512,
                }
            };
            Scenario::new(TopologySpec::ConnectedSquareDensity {
                n: 120,
                density: 40.0,
            })
            .protocol(protocol)
            .fast_physics()
            .adversary(AdversarySpec::cut_vertex_kill(0.25, 1, 8))
            .budget(1_500)
            .build()
            .expect("valid scenario")
        };
        let fixed = build(false).run(2014).expect("fixed run");
        let online = build(true).run(2014).expect("online run");
        let cover = |r: &RunReport| r.faults.as_ref().expect("faulted").final_coverage();
        assert!(cover(&fixed) < 0.95, "fixed-ν must stall under the kill");
        assert!(cover(&online) >= 0.95, "online-ν must keep coverage");
    }

    #[test]
    fn fault_plan_epoch_row_is_deterministic() {
        // The row's kernel replayed from scratch produces the identical
        // fault sequence — the bench measures deterministic work.
        let run_once = || {
            let pts = uniform::square(500, uniform::side_for_density(500, DENSITY), 7);
            let net = Network::new(pts, SinrParams::default_plane()).expect("valid");
            let mut plans = FaultPlanSet::new();
            plans.push(Box::new(BlackoutAdversary::new(0.02, 2, 11)));
            plans.push(Box::new(JamAdversary::new(16, 13)));
            let mut delta = FaultDelta::default();
            let mut scratch = GraphScratch::new();
            let mut log = Vec::new();
            for epoch in 0..4 {
                delta.clear();
                let view = FaultView {
                    epoch,
                    round: (epoch + 1) * 8,
                    alive: net.alive(),
                    graph: net.comm_graph(),
                    next_phase: None,
                    protected: 0,
                };
                plans.plan(&view, &mut delta, &mut scratch);
                log.push((
                    delta.kills.clone(),
                    delta.returns.clone(),
                    delta.jammers.clone(),
                ));
            }
            log
        };
        assert_eq!(run_once(), run_once());
    }
}
