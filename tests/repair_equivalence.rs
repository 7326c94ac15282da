//! Differential tests of the **incremental repair** path: patching only
//! the cells and CSR rows a delta touched must be indistinguishable —
//! bitwise, not just semantically — from building the structures from
//! scratch, for *arbitrary seeded interleavings* of moves, kills,
//! rejoins and spawns.
//!
//! This battery is the repair-path counterpart of
//! `mobility_equivalence.rs` (epoch rebuilds) and
//! `churn_equivalence.rs` (masked rebuilds): where those pin the
//! in-place *full* rebuild against fresh builds, these pin
//! [`RepairPolicy::AlwaysIncremental`] — the policy is forced so every
//! assertion exercises the splice path even for dense deltas the `Auto`
//! policy would hand to a full rebuild.
//!
//! Three levels:
//!
//! 1. structure: `GridIndex::repair_with_policy` + `CommGraph::repair`
//!    after each random step vs `build_masked` over the same population;
//! 2. physics: a reused `ReceptionOracle` resolving rounds against the
//!    repaired index vs a fresh oracle against a fresh index, in every
//!    `InterferenceMode`, power sums bit-for-bit;
//! 3. scenario: mobile + churned runs under `AlwaysIncremental` vs
//!    `AlwaysFull` — byte-identical `RunReport`s at physics-thread
//!    counts 1, 2 and 8.

use rand::{Rng, SeedableRng, SmallRng};

use sinr_broadcast::geometry::{GridIndex, Point2, RepairPolicy};
use sinr_broadcast::netgen::uniform;
use sinr_broadcast::phy::{CommGraph, InterferenceMode, ReceptionOracle, RoundOutcome, SinrParams};
use sinr_broadcast::sim::{ChurnSpec, MobilitySpec, ProtocolSpec, Scenario, TopologySpec};

fn all_modes() -> [InterferenceMode; 2] {
    [InterferenceMode::Exact, InterferenceMode::grid_native()]
}

/// One random mutation step over (points, alive): moves some live
/// stations (small drifts and cross-cell teleports), kills, rejoins and
/// spawns — all four delta kinds interleaved under one RNG. Returns the
/// dirty set the repair path is told about: moved ∪ killed ∪ rejoined
/// (spawns are detected by the index range, as in `Network`).
fn random_step(
    rng: &mut SmallRng,
    points: &mut Vec<Point2>,
    alive: &mut Vec<bool>,
    side: f64,
) -> Vec<usize> {
    let mut dirty = Vec::new();
    let n = points.len();
    // Moves: a random fraction of stations drift or teleport. Dead
    // stations are deliberately included sometimes — their coordinate
    // changes must be invisible to the repaired structures.
    for (i, p) in points.iter_mut().enumerate() {
        match rng.gen_range(0..10u32) {
            0 => {
                *p = p.translate(rng.gen_range(-0.2..0.2), rng.gen_range(-0.2..0.2));
                dirty.push(i);
            }
            1 => {
                *p = Point2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
                dirty.push(i);
            }
            _ => {}
        }
    }
    // Kills and rejoins.
    for i in 0..n {
        match rng.gen_range(0..12u32) {
            0 if alive[i] => {
                alive[i] = false;
                dirty.push(i);
            }
            1 if !alive[i] => {
                alive[i] = true;
                points[i] = Point2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
                dirty.push(i);
            }
            _ => {}
        }
    }
    // Spawns: appended live stations, found by the repair path through
    // the domain-growth range rather than the dirty list.
    for _ in 0..rng.gen_range(0..4usize) {
        points.push(Point2::new(
            rng.gen_range(0.0..side),
            rng.gen_range(0.0..side),
        ));
        alive.push(true);
    }
    // Unsorted, possibly duplicated (a station can move AND die in one
    // step) — the repair entry points must cope.
    dirty
}

#[test]
fn randomized_interleavings_repair_grid_and_graph_bit_identically() {
    let radius = SinrParams::default_plane().comm_radius();
    for seed in [0x5EED1u64, 0x5EED2, 0x5EED3] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let side = 4.0;
        let mut points = uniform::square(180, side, seed ^ 7);
        let mut alive = vec![true; points.len()];
        let mut grid = GridIndex::build(&points, 1.0);
        let mut graph = CommGraph::build(&points, radius);
        // Prime the graph's owned index (static builds drop it; the first
        // repair falls back to a full refresh otherwise, which would make
        // step 0 vacuous).
        graph.rebuild_from(&points, Some(&alive));
        for step in 0..25 {
            let dirty = random_step(&mut rng, &mut points, &mut alive, side);
            grid.repair_with_policy(
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
            // Structure equality is bitwise: keys, CSR offsets, slot
            // order, SoA coordinates, centroids (grid); rows, neighbour
            // order, present mask, edge count (graph).
            assert_eq!(
                grid,
                GridIndex::build_masked(&points, &alive, 1.0),
                "seed {seed:#x} step {step}: grid diverged from fresh build"
            );
            assert_eq!(
                graph,
                CommGraph::build_masked(&points, &alive, radius),
                "seed {seed:#x} step {step}: graph diverged from fresh build"
            );
        }
    }
}

#[test]
fn oracle_rounds_agree_between_repaired_and_fresh_structures() {
    let params = SinrParams::default_plane();
    let mut rng = SmallRng::seed_from_u64(0x05EED0);
    let side = 4.0;
    let mut points = uniform::square(160, side, 3);
    let mut alive = vec![true; points.len()];
    let mut grid = GridIndex::build(&points, 1.0);
    let mut reused = ReceptionOracle::for_stations(points.len());
    let mut out = RoundOutcome::empty();
    for step in 0..6 {
        let dirty = random_step(&mut rng, &mut points, &mut alive, side);
        grid.repair_with_policy(
            &dirty,
            &points,
            Some(&alive),
            RepairPolicy::AlwaysIncremental,
        );
        let fresh_idx = GridIndex::build_masked(&points, &alive, 1.0);
        let tx: Vec<usize> = (0..points.len()).filter(|&i| alive[i]).step_by(6).collect();
        for mode in all_modes() {
            reused.resolve_into(&points, &params, &tx, mode, Some(&grid), &mut out);
            let mut fresh_oracle = ReceptionOracle::new();
            let fresh = fresh_oracle.resolve(&points, &params, &tx, mode, Some(&fresh_idx));
            assert_eq!(out, fresh, "{mode:?} step {step}: outcomes diverged");
            for (u, (a, b)) in reused
                .received_power()
                .iter()
                .zip(fresh_oracle.received_power())
                .enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{mode:?} step {step}: power differs at station {u}"
                );
            }
        }
    }
}

#[test]
fn scenario_runs_are_identical_under_incremental_and_full_repair() {
    // The end-to-end guarantee: a dynamic run (mobility + churn, so
    // every epoch boundary exercises moves, kills, rejoins and spawns)
    // produces byte-identical reports whether the engine repairs
    // incrementally or rebuilds from scratch — at every physics-thread
    // count.
    let build = |policy: RepairPolicy, threads: usize| {
        Scenario::new(TopologySpec::UniformSquare { n: 90, side: 2.5 })
            .protocol(ProtocolSpec::ReFloodBroadcast {
                source: 0,
                p: 0.25,
                burst_rounds: 24,
            })
            .mobility(MobilitySpec::random_waypoint(0.2, 6))
            .churn(ChurnSpec::poisson(1.0, 10.0, 8))
            .repair_policy(policy)
            .physics_threads(threads)
            .record_rounds()
            .budget(400)
            .build()
            .unwrap()
    };
    let reference = build(RepairPolicy::AlwaysFull, 1).run(42).unwrap();
    for threads in [1usize, 2, 8] {
        for policy in [
            RepairPolicy::AlwaysIncremental,
            RepairPolicy::Auto { threshold: 0.05 },
            RepairPolicy::AlwaysFull,
        ] {
            let report = build(policy, threads).run(42).unwrap();
            assert_eq!(
                report, reference,
                "{policy:?} at {threads} physics threads diverged from the full-rebuild reference"
            );
        }
    }
}

#[test]
fn repair_steps_actually_exercise_every_delta_kind() {
    // Guard against the randomized battery passing vacuously: across the
    // steps of one seed, moves, kills, rejoins AND spawns all occur, and
    // at least one step's dirty set is dense enough that `Auto` would
    // have fallen back (so `AlwaysIncremental` is doing real forcing).
    let mut rng = SmallRng::seed_from_u64(0x5EED1);
    let side = 4.0;
    let mut points = uniform::square(180, side, 0x5EED1 ^ 7);
    let mut alive = vec![true; points.len()];
    let (mut moves_or_kills, mut rejoins, mut spawns, mut dense) = (0usize, 0usize, 0usize, 0usize);
    for _ in 0..25 {
        let before_len = points.len();
        let before_alive = alive.clone();
        let dirty = random_step(&mut rng, &mut points, &mut alive, side);
        moves_or_kills += dirty.len();
        rejoins += before_alive
            .iter()
            .zip(&alive)
            .filter(|&(&was, &is)| !was && is)
            .count();
        spawns += points.len() - before_len;
        if dirty.len() > points.len() / 20 {
            dense += 1;
        }
    }
    assert!(moves_or_kills > 0, "no moves or kills in 25 steps");
    assert!(rejoins > 0, "no rejoins in 25 steps");
    assert!(spawns > 0, "no spawns in 25 steps");
    assert!(dense > 0, "no step dense enough to force the Auto fallback");
}
