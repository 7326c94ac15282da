//! Differential tests of the epoch reindex path: rebuilding the spatial
//! structures **in place** after stations move must be indistinguishable
//! from building them from scratch — bitwise, not just semantically.
//!
//! Three levels, across the uniform / cluster / line / grid topology
//! families:
//!
//! 1. `GridIndex::rebuild_from` vs `GridIndex::build`: identical keys,
//!    CSR offsets, slot order, SoA `PositionStore` contents and per-cell
//!    centroids (the slot-order contract every batched kernel relies on);
//! 2. a reused `ReceptionOracle` resolving rounds against the rebuilt
//!    index vs a fresh oracle against a fresh index: identical
//!    `RoundOutcome`s and bit-identical power sums in every
//!    `InterferenceMode`;
//! 3. mobile `Scenario` runs: byte-identical `RunReport`s across repeated
//!    runs and sweep thread counts.

use sinr_broadcast::geometry::{GridIndex, MetricPoint, Point2, RepairPolicy};
use sinr_broadcast::netgen::mobility::{Mobility, MobilityModel};
use sinr_broadcast::netgen::{cluster, grid as lattice, line, uniform};
use sinr_broadcast::phy::{InterferenceMode, ReceptionOracle, RoundOutcome, SinrParams};
use sinr_broadcast::sim::{MobilitySpec, ProtocolSpec, Scenario, TopologySpec};

/// One deployment per topology family (raw generator output — the grid
/// differential needs no minimum separation).
fn families() -> Vec<(&'static str, Vec<Point2>)> {
    vec![
        ("uniform", uniform::square(240, 3.0, 7)),
        ("cluster", cluster::gaussian_clusters(5, 40, 6.0, 0.35, 11)),
        ("line", line::uniform_line(150, 0.45)),
        ("grid", lattice::lattice(14, 14, 0.62)),
    ]
}

fn models() -> [MobilityModel; 3] {
    [
        MobilityModel::RandomWaypoint {
            speed: 0.3,
            pause_epochs: 1,
        },
        MobilityModel::Drift { speed: 0.2 },
        MobilityModel::TeleportChurn { fraction: 0.3 },
    ]
}

fn all_modes() -> [InterferenceMode; 2] {
    [InterferenceMode::Exact, InterferenceMode::grid_native()]
}

#[test]
fn epoch_rebuild_is_bitwise_identical_to_fresh_build() {
    for (family, base) in families() {
        for model in models() {
            let mut pts = base.clone();
            let mut mob = Mobility::over_deployment(model, &pts, 42);
            let mut idx = GridIndex::build(&pts, 1.0);
            for epoch in 0..4 {
                mob.advance(&mut pts);
                idx.rebuild_from(&pts);
                let fresh = GridIndex::build(&pts, 1.0);
                // Structure equality covers keys, CSR offsets, slot ids,
                // the SoA store and centroids at once.
                assert_eq!(idx, fresh, "{family}/{model:?} epoch {epoch}");
                // Belt and braces on the floats that matter bitwise: the
                // slot-ordered coordinates and the cell centroids.
                for c in 0..idx.num_cells() {
                    for axis in 0..2 {
                        assert_eq!(
                            idx.cell_centroid(c)[axis].to_bits(),
                            fresh.cell_centroid(c)[axis].to_bits(),
                            "{family}/{model:?} epoch {epoch}: centroid of cell {c}"
                        );
                    }
                    for slot in idx.cell_range(c) {
                        for axis in 0..2 {
                            assert_eq!(
                                idx.positions().coord(slot, axis).to_bits(),
                                fresh.positions().coord(slot, axis).to_bits(),
                                "{family}/{model:?} epoch {epoch}: slot {slot}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn epoch_repair_is_bitwise_identical_to_fresh_build() {
    // The incremental counterpart of the rebuild test above: instead of
    // reindexing everything, tell the index exactly which stations an
    // epoch moved (recovered by coordinate diff, as `Network` does) and
    // let it splice only the affected cells — forced incremental so the
    // assertion never silently routes through a full rebuild.
    for (family, base) in families() {
        for model in models() {
            let mut pts = base.clone();
            let mut prev = pts.clone();
            let mut mob = Mobility::over_deployment(model, &pts, 42);
            let mut idx = GridIndex::build(&pts, 1.0);
            for epoch in 0..4 {
                mob.advance(&mut pts);
                let moved: Vec<usize> = (0..pts.len())
                    .filter(|&i| {
                        (0..2).any(|a| pts[i].coord(a).to_bits() != prev[i].coord(a).to_bits())
                    })
                    .collect();
                prev.clone_from(&pts);
                idx.repair_with_policy(&moved, &pts, None, RepairPolicy::AlwaysIncremental);
                assert_eq!(
                    idx,
                    GridIndex::build(&pts, 1.0),
                    "{family}/{model:?} epoch {epoch}: repaired index diverged"
                );
            }
        }
    }
}

#[test]
fn oracle_rounds_agree_between_rebuilt_and_fresh_structures() {
    let params = SinrParams::default_plane();
    for (family, base) in families() {
        let mut pts = base.clone();
        let n = pts.len();
        let tx: Vec<usize> = (0..n).step_by(7).collect();
        let mut mob = Mobility::over_deployment(
            MobilityModel::RandomWaypoint {
                speed: 0.25,
                pause_epochs: 0,
            },
            &pts,
            9,
        );
        // The reused path: one index rebuilt in place, one oracle reused
        // across epochs — exactly what the engine does between epochs.
        let mut idx = GridIndex::build(&pts, 1.0);
        let mut reused = ReceptionOracle::for_stations(n);
        let mut out = RoundOutcome::empty();
        for epoch in 0..4 {
            mob.advance(&mut pts);
            idx.rebuild_from(&pts);
            let fresh_idx = GridIndex::build(&pts, 1.0);
            for mode in all_modes() {
                reused.resolve_into(&pts, &params, &tx, mode, Some(&idx), &mut out);
                let mut fresh_oracle = ReceptionOracle::new();
                let fresh = fresh_oracle.resolve(&pts, &params, &tx, mode, Some(&fresh_idx));
                assert_eq!(out, fresh, "{family}/{mode:?} epoch {epoch}");
                for (u, (a, b)) in reused
                    .received_power()
                    .iter()
                    .zip(fresh_oracle.received_power())
                    .enumerate()
                {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{family}/{mode:?} epoch {epoch}: power differs at station {u}"
                    );
                }
            }
        }
    }
}

#[test]
fn mobile_run_reports_replay_bit_for_bit_across_families() {
    // Separation-safe declarative families (the scenario path constructs
    // real networks): uniform, cluster, line and grid.
    let specs: Vec<(&'static str, TopologySpec)> = vec![
        (
            "uniform",
            TopologySpec::ConnectedSquareDensity {
                n: 60,
                density: 30.0,
            },
        ),
        (
            "cluster",
            TopologySpec::ClusterChain {
                diameter: 3,
                per_cluster: 10,
            },
        ),
        ("line", TopologySpec::UniformLine { n: 40, gap: 0.45 }),
        (
            "grid",
            TopologySpec::Lattice {
                rows: 7,
                cols: 7,
                spacing: 0.6,
            },
        ),
    ];
    for (family, topology) in specs {
        let sim = Scenario::new(topology)
            .protocol(ProtocolSpec::FloodBroadcast { source: 0, p: 0.25 })
            .mobility(MobilitySpec::random_waypoint(0.15, 4))
            .record_rounds()
            .budget(400)
            .build()
            .unwrap();
        let a = sim.run(42).unwrap();
        let b = sim.run(42).unwrap();
        assert_eq!(a, b, "{family}: repeated mobile runs differ");
        let seeds: Vec<u64> = (0..4).collect();
        let serial = sim.sweep_with_threads(&seeds, 1).unwrap();
        let parallel = sim.sweep_with_threads(&seeds, 4).unwrap();
        assert_eq!(
            serial, parallel,
            "{family}: mobile sweep depends on threads"
        );
    }
}

#[test]
fn mobility_actually_moves_the_stations() {
    // Guard against the whole battery passing vacuously: a mobile run
    // must not equal the frozen-topology run of the same seed.
    let build = |mobile: bool| {
        let s = Scenario::new(TopologySpec::Lattice {
            rows: 7,
            cols: 7,
            spacing: 0.6,
        })
        .protocol(ProtocolSpec::FloodBroadcast { source: 0, p: 0.25 })
        .record_rounds()
        .budget(60);
        if mobile {
            s.mobility(MobilitySpec::teleport_churn(0.5, 2))
        } else {
            s
        }
        .build()
        .unwrap()
    };
    let frozen = build(false).run(5).unwrap();
    let mobile = build(true).run(5).unwrap();
    assert_ne!(frozen, mobile, "churn at every second round must show up");
}
