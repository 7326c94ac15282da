//! Differential tests of the dynamic-population path: after stations
//! churn (die, rejoin, spawn), the **in-place rebuilt** structures —
//! `GridIndex` (with its SoA `PositionStore`) and `CommGraph` — must be
//! indistinguishable from building fresh over the surviving population,
//! bitwise where floats are involved; and a reused `ReceptionOracle`
//! resolving rounds against the churned network must agree, for every
//! live station and in every `InterferenceMode`, with a fresh oracle over
//! the compacted survivors (decode decisions under the index mapping,
//! power sums bit-for-bit).
//!
//! The mapping: live station `i` of the churned (index-stable, masked)
//! deployment corresponds to position `map[i]` of the compacted
//! deployment that keeps only survivors in ascending index order —
//! order-preserving compaction, so every deterministic iteration order
//! (cell-major slots, sorted transmitter buckets, ascending neighbour
//! rows) coincides and the floating-point sums match bitwise.

use sinr_broadcast::geometry::{GridIndex, Point2, RepairPolicy};
use sinr_broadcast::netgen::churn::{ChurnModel, ChurnProcess};
use sinr_broadcast::netgen::{cluster, grid as lattice, line, uniform};
use sinr_broadcast::phy::{
    ChurnDelta, CommGraph, GraphScratch, InterferenceMode, ReceptionOracle, RoundOutcome,
    SinrParams,
};

/// One deployment per topology family (raw generator output — the
/// structural differentials need no minimum separation).
fn families() -> Vec<(&'static str, Vec<Point2>)> {
    vec![
        ("uniform", uniform::square(240, 3.0, 7)),
        ("cluster", cluster::gaussian_clusters(5, 40, 6.0, 0.35, 11)),
        ("line", line::uniform_line(150, 0.45)),
        ("grid", lattice::lattice(14, 14, 0.62)),
    ]
}

fn all_modes() -> [InterferenceMode; 2] {
    [InterferenceMode::Exact, InterferenceMode::grid_native()]
}

/// Applies one delta to a manually maintained (points, alive) pair the
/// way `Network::apply_churn` does.
fn fold_delta(points: &mut Vec<Point2>, alive: &mut Vec<bool>, delta: &ChurnDelta<Point2>) {
    for &k in &delta.kills {
        assert!(alive[k]);
        alive[k] = false;
    }
    for &(r, p) in &delta.rejoins {
        assert!(!alive[r]);
        alive[r] = true;
        points[r] = p;
    }
    for &p in &delta.spawns {
        points.push(p);
        alive.push(true);
    }
}

/// `map[i]` = compacted index of live station `i` (`usize::MAX` if dead),
/// plus the compacted point list.
fn compact(points: &[Point2], alive: &[bool]) -> (Vec<usize>, Vec<Point2>) {
    let mut map = vec![usize::MAX; points.len()];
    let mut live = Vec::new();
    for (i, (&p, &a)) in points.iter().zip(alive).enumerate() {
        if a {
            map[i] = live.len();
            live.push(p);
        }
    }
    (map, live)
}

#[test]
fn post_churn_grid_rebuild_is_bitwise_identical_to_fresh_builds() {
    for (family, base) in families() {
        let mut points = base.clone();
        let mut alive = vec![true; points.len()];
        let mut proc: ChurnProcess<Point2> = ChurnProcess::over_deployment(
            ChurnModel {
                arrival_rate: 6.0,
                mean_lifetime: 4.0,
            },
            &points,
            42,
        );
        let mut delta = ChurnDelta::new();
        let mut idx = GridIndex::build(&points, 1.0);
        for epoch in 0..6 {
            proc.step_into(&alive, &mut delta);
            fold_delta(&mut points, &mut alive, &delta);
            idx.rebuild_from_masked(&points, &alive);

            // Level 1: the in-place rebuild equals a fresh masked build
            // outright (same domain, same ids).
            let fresh_masked = GridIndex::build_masked(&points, &alive, 1.0);
            assert_eq!(idx, fresh_masked, "{family} epoch {epoch}");

            // Level 2: against a fresh build of the compacted survivors —
            // identical cells, offsets, SoA coordinates and centroids
            // (bitwise), ids related by the order-preserving compaction.
            let (map, survivors) = compact(&points, &alive);
            let fresh = GridIndex::build(&survivors, 1.0);
            assert_eq!(idx.len(), fresh.len(), "{family} epoch {epoch}");
            assert_eq!(idx.num_cells(), fresh.num_cells());
            for c in 0..idx.num_cells() {
                assert_eq!(idx.cell_key(c), fresh.cell_key(c));
                assert_eq!(idx.cell_range(c), fresh.cell_range(c));
                for axis in 0..2 {
                    assert_eq!(
                        idx.cell_centroid(c)[axis].to_bits(),
                        fresh.cell_centroid(c)[axis].to_bits(),
                        "{family} epoch {epoch}: centroid of cell {c}"
                    );
                }
                let mapped: Vec<usize> = idx.cell_members(c).iter().map(|&i| map[i]).collect();
                assert_eq!(mapped, fresh.cell_members(c), "{family} epoch {epoch}");
            }
            for slot in 0..idx.len() {
                for axis in 0..2 {
                    assert_eq!(
                        idx.positions().coord(slot, axis).to_bits(),
                        fresh.positions().coord(slot, axis).to_bits(),
                        "{family} epoch {epoch}: slot {slot}"
                    );
                }
            }
        }
    }
}

#[test]
fn post_churn_comm_graph_rebuild_matches_fresh_builds() {
    let radius = SinrParams::default_plane().comm_radius();
    for (family, base) in families() {
        let mut points = base.clone();
        let mut alive = vec![true; points.len()];
        let mut proc: ChurnProcess<Point2> = ChurnProcess::over_deployment(
            ChurnModel {
                arrival_rate: 5.0,
                mean_lifetime: 5.0,
            },
            &points,
            9,
        );
        let mut delta = ChurnDelta::new();
        let mut graph = CommGraph::build(&points, radius);
        let mut scratch = GraphScratch::new();
        for epoch in 0..5 {
            proc.step_into(&alive, &mut delta);
            fold_delta(&mut points, &mut alive, &delta);
            graph.rebuild_from(&points, Some(&alive));

            // Refreshed-in-place equals fresh masked build outright.
            let fresh_masked = CommGraph::build_masked(&points, &alive, radius);
            assert_eq!(graph, fresh_masked, "{family} epoch {epoch}");

            // And the fresh build over the compacted survivors under the
            // index mapping: same degrees, edges and connectivity.
            let (map, survivors) = compact(&points, &alive);
            let fresh = CommGraph::build(&survivors, radius);
            assert_eq!(
                graph.num_edges(),
                fresh.num_edges(),
                "{family} epoch {epoch}"
            );
            for i in 0..points.len() {
                if map[i] == usize::MAX {
                    assert!(graph.neighbors(i).is_empty(), "dead station with edges");
                    continue;
                }
                let mapped: Vec<usize> = graph.neighbors(i).iter().map(|&u| map[u]).collect();
                assert_eq!(
                    mapped,
                    fresh.neighbors(map[i]),
                    "{family} epoch {epoch}: station {i}"
                );
            }
            assert_eq!(
                graph.is_connected_with(&mut scratch),
                fresh.is_connected(),
                "{family} epoch {epoch}: connectivity"
            );
        }
    }
}

#[test]
fn oracle_rounds_on_churned_network_match_fresh_compacted_network() {
    let params = SinrParams::default_plane();
    for (family, base) in families() {
        let mut points = base.clone();
        let mut alive = vec![true; points.len()];
        let mut proc: ChurnProcess<Point2> = ChurnProcess::over_deployment(
            ChurnModel {
                arrival_rate: 6.0,
                mean_lifetime: 4.0,
            },
            &points,
            17,
        );
        let mut delta = ChurnDelta::new();
        // The reused path: one masked index rebuilt in place, one oracle
        // reused across epochs — exactly what the engine does.
        let mut idx = GridIndex::build(&points, 1.0);
        let mut reused = ReceptionOracle::for_stations(points.len());
        let mut out = RoundOutcome::empty();
        for epoch in 0..4 {
            proc.step_into(&alive, &mut delta);
            fold_delta(&mut points, &mut alive, &delta);
            idx.rebuild_from_masked(&points, &alive);
            let (map, survivors) = compact(&points, &alive);
            let fresh_idx = GridIndex::build(&survivors, 1.0);

            // Transmitters: every 7th live station (original indices on
            // the churned side, compacted on the fresh side — same set).
            let tx: Vec<usize> = points
                .iter()
                .enumerate()
                .filter(|&(i, _)| alive[i])
                .map(|(i, _)| i)
                .step_by(7)
                .collect();
            let tx_fresh: Vec<usize> = tx.iter().map(|&t| map[t]).collect();

            for mode in all_modes() {
                reused.resolve_into(&points, &params, &tx, mode, Some(&idx), &mut out);
                let mut fresh_oracle = ReceptionOracle::new();
                let fresh =
                    fresh_oracle.resolve(&survivors, &params, &tx_fresh, mode, Some(&fresh_idx));
                for (i, &m) in map.iter().enumerate() {
                    if m == usize::MAX {
                        continue; // dead: engine never reads these rows
                    }
                    let got = out.decoded_from[i].map(|t| map[t]);
                    assert_eq!(
                        got, fresh.decoded_from[m],
                        "{family}/{mode:?} epoch {epoch}: decode at station {i}"
                    );
                    assert_eq!(
                        reused.received_power()[i].to_bits(),
                        fresh_oracle.received_power()[m].to_bits(),
                        "{family}/{mode:?} epoch {epoch}: power at station {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn post_churn_incremental_repair_matches_fresh_builds() {
    // The repair-path counterpart of the two rebuild tests above: feed
    // each delta's kills, rejoins and spawn range through
    // `GridIndex::repair_with_policy` + `CommGraph::repair` (forced
    // incremental) instead of the full masked rebuilds, and demand the
    // same bit-identical agreement with fresh builds.
    let radius = SinrParams::default_plane().comm_radius();
    for (family, base) in families() {
        let mut points = base.clone();
        let mut alive = vec![true; points.len()];
        let mut proc: ChurnProcess<Point2> = ChurnProcess::over_deployment(
            ChurnModel {
                arrival_rate: 6.0,
                mean_lifetime: 4.0,
            },
            &points,
            42,
        );
        let mut delta = ChurnDelta::new();
        let mut idx = GridIndex::build(&points, 1.0);
        let mut graph = CommGraph::build(&points, radius);
        graph.rebuild_from(&points, Some(&alive)); // regrow the owned index
        for epoch in 0..6 {
            proc.step_into(&alive, &mut delta);
            // The dirty set the network layer hands the repair path:
            // kills and rejoins by index; spawns are found by the
            // domain-growth range without being listed.
            let dirty: Vec<usize> = delta
                .kills
                .iter()
                .copied()
                .chain(delta.rejoins.iter().map(|&(r, _)| r))
                .collect();
            fold_delta(&mut points, &mut alive, &delta);
            idx.repair_with_policy(
                &dirty,
                &points,
                Some(&alive),
                RepairPolicy::AlwaysIncremental,
            );
            graph.repair(
                &dirty,
                &points,
                Some(&alive),
                RepairPolicy::AlwaysIncremental,
            );
            assert_eq!(
                idx,
                GridIndex::build_masked(&points, &alive, 1.0),
                "{family} epoch {epoch}: repaired index diverged"
            );
            assert_eq!(
                graph,
                CommGraph::build_masked(&points, &alive, radius),
                "{family} epoch {epoch}: repaired graph diverged"
            );
        }
    }
}

#[test]
fn churn_actually_changes_the_population() {
    // Guard against the battery passing vacuously: over the epochs above,
    // kills, rejoins AND spawns must all have occurred at least once.
    let base = uniform::square(100, 3.0, 7);
    let mut alive = vec![true; base.len()];
    let mut points = base.clone();
    let mut proc: ChurnProcess<Point2> = ChurnProcess::over_deployment(
        ChurnModel {
            arrival_rate: 6.0,
            mean_lifetime: 4.0,
        },
        &points,
        42,
    );
    let mut delta = ChurnDelta::new();
    let (mut kills, mut rejoins, mut spawns) = (0, 0, 0);
    for _ in 0..10 {
        proc.step_into(&alive, &mut delta);
        kills += delta.kills.len();
        rejoins += delta.rejoins.len();
        spawns += delta.spawns.len();
        fold_delta(&mut points, &mut alive, &delta);
    }
    assert!(kills > 0, "no kills in 10 epochs");
    assert!(rejoins > 0, "no rejoins in 10 epochs");
    assert!(spawns > 0, "no spawns in 10 epochs");
    assert!(points.len() > base.len(), "population never grew");
}
