//! Golden equivalence and determinism tests for the `Scenario` API.
//!
//! Two contracts are pinned here:
//!
//! 1. **Legacy equivalence** — for every protocol with a legacy `run_*`
//!    runner, `Scenario::run(seed)` on the same explicit topology
//!    reproduces the legacy report **field-for-field**;
//! 2. **Sweep determinism** — `Simulation::sweep` returns identical
//!    reports for 1 worker thread and many, and `run(seed)` twice is
//!    bit-for-bit identical.

#![allow(deprecated)] // the point of this file is comparing against the legacy runners

use sinr_broadcast::core::run::{
    run_adhoc_wakeup, run_consensus, run_daum_broadcast, run_established_wakeup,
    run_flood_broadcast, run_leader_election, run_local_broadcast, run_nos_broadcast,
    run_nos_broadcast_with_estimate, run_s_broadcast, run_s_broadcast_in_mode,
    run_s_broadcast_with_estimate,
};
use sinr_broadcast::core::sim::{Outcome, ProtocolSpec, Scenario, TopologySpec};
use sinr_broadcast::core::{baselines::run_gps_oracle_broadcast, run_stabilize, Constants};
use sinr_broadcast::geometry::Point2;
use sinr_broadcast::phy::{InterferenceMode, SinrParams};
use sinr_broadcast::runtime::WakeSchedule;

fn fast() -> Constants {
    Constants {
        c0: 4.0,
        c2: 4.0,
        c_prime: 1,
        dissem_factor: 8.0,
        ..Constants::tuned()
    }
}

fn path(n: usize) -> Vec<Point2> {
    (0..n).map(|i| Point2::new(i as f64 * 0.45, 0.0)).collect()
}

/// Builds the scenario every broadcast-style case uses.
fn sim_for(spec: ProtocolSpec, budget: u64) -> sinr_broadcast::sim::Simulation {
    Scenario::new(path(6))
        .constants(fast())
        .protocol(spec)
        .budget(budget)
        .build()
        .expect("valid scenario")
}

#[test]
fn nos_broadcast_matches_legacy() {
    let params = SinrParams::default_plane();
    let legacy = run_nos_broadcast(path(6), &params, fast(), 0, 11, 500_000).unwrap();
    let new = sim_for(ProtocolSpec::NoSBroadcast { source: 0 }, 500_000)
        .run(11)
        .unwrap();
    assert_eq!(legacy.n, new.n);
    assert_eq!(legacy.rounds, new.rounds);
    assert_eq!(legacy.completed, new.completed);
    assert_eq!(legacy.informed, new.informed);
    assert_eq!(legacy.total_transmissions, new.total_transmissions);
}

#[test]
fn s_broadcast_matches_legacy() {
    let params = SinrParams::default_plane();
    let legacy = run_s_broadcast(path(6), &params, fast(), 0, 12, 500_000).unwrap();
    let new = sim_for(ProtocolSpec::SBroadcast { source: 0 }, 500_000)
        .run(12)
        .unwrap();
    assert_eq!(
        (
            legacy.n,
            legacy.rounds,
            legacy.completed,
            legacy.informed,
            legacy.total_transmissions
        ),
        (
            new.n,
            new.rounds,
            new.completed,
            new.informed,
            new.total_transmissions
        )
    );
}

#[test]
fn estimate_broadcasts_match_legacy() {
    let params = SinrParams::default_plane();
    let legacy =
        run_s_broadcast_with_estimate(path(6), &params, fast(), 0, 48, 13, 2_000_000).unwrap();
    let new = sim_for(
        ProtocolSpec::SBroadcastWithEstimate { source: 0, nu: 48 },
        2_000_000,
    )
    .run(13)
    .unwrap();
    assert_eq!(
        (legacy.rounds, legacy.completed, legacy.total_transmissions),
        (new.rounds, new.completed, new.total_transmissions)
    );

    let budget = fast().phase_rounds(48) * 60;
    let legacy =
        run_nos_broadcast_with_estimate(path(6), &params, fast(), 0, 48, 14, budget).unwrap();
    let new = sim_for(
        ProtocolSpec::NoSBroadcastWithEstimate { source: 0, nu: 48 },
        budget,
    )
    .run(14)
    .unwrap();
    assert_eq!(
        (legacy.rounds, legacy.completed, legacy.total_transmissions),
        (new.rounds, new.completed, new.total_transmissions)
    );
}

#[test]
fn baselines_match_legacy() {
    let params = SinrParams::default_plane();

    let legacy = run_daum_broadcast(path(6), &params, 0, None, 15, 200_000).unwrap();
    let new = sim_for(
        ProtocolSpec::DaumBroadcast {
            source: 0,
            granularity: None,
        },
        200_000,
    )
    .run(15)
    .unwrap();
    assert_eq!(
        (legacy.rounds, legacy.completed, legacy.total_transmissions),
        (new.rounds, new.completed, new.total_transmissions),
        "daum"
    );

    let legacy = run_flood_broadcast(path(6), &params, 0, 0.3, 16, 200_000).unwrap();
    let new = sim_for(ProtocolSpec::FloodBroadcast { source: 0, p: 0.3 }, 200_000)
        .run(16)
        .unwrap();
    assert_eq!(
        (legacy.rounds, legacy.completed, legacy.total_transmissions),
        (new.rounds, new.completed, new.total_transmissions),
        "flood"
    );

    let legacy = run_local_broadcast(path(6), &params, 0, 17, 200_000).unwrap();
    let new = sim_for(ProtocolSpec::LocalBroadcast { source: 0 }, 200_000)
        .run(17)
        .unwrap();
    assert_eq!(
        (legacy.rounds, legacy.completed, legacy.total_transmissions),
        (new.rounds, new.completed, new.total_transmissions),
        "local"
    );

    let legacy = run_gps_oracle_broadcast(path(6), &params, 0, 18, 200_000).unwrap();
    let new = sim_for(ProtocolSpec::GpsOracleBroadcast { source: 0 }, 200_000)
        .run(18)
        .unwrap();
    assert_eq!(
        (
            legacy.rounds,
            legacy.completed,
            legacy.informed,
            legacy.total_transmissions
        ),
        (
            new.rounds,
            new.completed,
            new.informed,
            new.total_transmissions
        ),
        "gps oracle"
    );
}

#[test]
fn interference_mode_matches_legacy() {
    let params = SinrParams::default_plane();
    for mode in [InterferenceMode::Exact, InterferenceMode::grid_native()] {
        let legacy =
            run_s_broadcast_in_mode(path(6), &params, fast(), 0, mode, 19, 500_000).unwrap();
        let new = Scenario::new(path(6))
            .constants(fast())
            .protocol(ProtocolSpec::SBroadcast { source: 0 })
            .interference_mode(mode)
            .budget(500_000)
            .build()
            .unwrap()
            .run(19)
            .unwrap();
        assert_eq!(
            (legacy.rounds, legacy.completed, legacy.total_transmissions),
            (new.rounds, new.completed, new.total_transmissions),
            "{mode:?}"
        );
    }
}

#[test]
fn coloring_matches_legacy_stabilize() {
    let params = SinrParams::default_plane();
    let legacy = run_stabilize(path(8), &params, fast(), 21).unwrap();
    let new = Scenario::new(path(8))
        .constants(fast())
        .protocol(ProtocolSpec::Coloring)
        .build()
        .unwrap()
        .run(21)
        .unwrap();
    assert_eq!(legacy.rounds, new.rounds);
    assert_eq!(legacy.total_transmissions, new.total_transmissions);
    match new.outcome {
        Outcome::Coloring { ref coloring } => assert_eq!(*coloring, legacy.coloring),
        ref other => panic!("expected coloring outcome, got {other:?}"),
    }
    assert!(new.completed, "full schedule ran");
    assert_eq!(new.informed, 8, "all stations colored");
}

#[test]
fn truncated_coloring_reports_incomplete_instead_of_panicking() {
    // A budget below the Fact 7 schedule caps the run: unfinished
    // stations report color 0.0 and completed is false (regression test
    // for a panic at `color().expect("schedule complete")`).
    let rep = Scenario::new(path(8))
        .constants(fast())
        .protocol(ProtocolSpec::Coloring)
        .budget(3)
        .build()
        .unwrap()
        .run(21)
        .unwrap();
    assert!(!rep.completed);
    assert_eq!(rep.rounds, 3);
    match rep.outcome {
        Outcome::Coloring { ref coloring } => {
            assert_eq!(coloring.len(), 8);
            assert!(
                coloring.colors.iter().all(|&c| c == 0.0),
                "3 rounds cannot finish any station's schedule"
            );
        }
        ref other => panic!("expected coloring outcome, got {other:?}"),
    }
}

#[test]
fn wakeup_matches_legacy() {
    let params = SinrParams::default_plane();
    let consts = fast();
    let schedule = WakeSchedule::single(0, 13);
    let budget = consts.phase_rounds(6) * 60;
    let legacy = run_adhoc_wakeup(path(6), &params, consts, &schedule, 22, budget).unwrap();
    let new = sim_for(
        ProtocolSpec::AdhocWakeup {
            schedule: schedule.clone(),
        },
        budget,
    )
    .run(22)
    .unwrap();
    assert_eq!(legacy.completed, new.completed);
    match new.outcome {
        Outcome::Wakeup {
            first_wake,
            rounds_from_first_wake,
        } => {
            assert_eq!(legacy.first_wake, first_wake);
            assert_eq!(legacy.rounds_from_first_wake, rounds_from_first_wake);
        }
        ref other => panic!("expected wakeup outcome, got {other:?}"),
    }
}

#[test]
fn established_wakeup_matches_legacy() {
    let params = SinrParams::default_plane();
    let consts = fast();
    let backbone = run_stabilize(path(6), &params, consts, 4).unwrap();
    let mut initiators = vec![false; 6];
    initiators[0] = true;
    let budget = consts.wakeup_window(6, 5) * 3;
    let legacy = run_established_wakeup(
        path(6),
        &params,
        consts,
        &backbone.coloring,
        &initiators,
        23,
        budget,
    )
    .unwrap();
    let new = sim_for(
        ProtocolSpec::EstablishedWakeup {
            coloring: backbone.coloring.clone(),
            initiators: initiators.clone(),
        },
        budget,
    )
    .run(23)
    .unwrap();
    assert_eq!(
        (
            legacy.rounds,
            legacy.completed,
            legacy.informed,
            legacy.total_transmissions
        ),
        (
            new.rounds,
            new.completed,
            new.informed,
            new.total_transmissions
        )
    );
}

#[test]
fn consensus_matches_legacy() {
    let params = SinrParams::default_plane();
    let consts = fast();
    let values = [6u64, 2, 5, 7, 3, 4];
    let legacy = run_consensus(path(6), &params, consts, &values, 3, 4, 24).unwrap();
    let new = Scenario::new(path(6))
        .constants(consts)
        .protocol(ProtocolSpec::Consensus {
            values: values.to_vec(),
            bits: 3,
            d_bound: 4,
        })
        .build()
        .unwrap()
        .run(24)
        .unwrap();
    assert_eq!(legacy.rounds, new.rounds);
    match new.outcome {
        Outcome::Consensus {
            ref decided,
            agreement,
            valid,
        } => {
            assert_eq!(legacy.decided, *decided);
            assert_eq!(legacy.agreement, agreement);
            assert_eq!(legacy.valid, valid);
        }
        ref other => panic!("expected consensus outcome, got {other:?}"),
    }
}

#[test]
fn leader_election_matches_legacy() {
    let params = SinrParams::default_plane();
    let consts = fast();
    let legacy = run_leader_election(path(6), &params, consts, 6, 25).unwrap();
    let new = Scenario::new(path(6))
        .constants(consts)
        .protocol(ProtocolSpec::LeaderElection { d_bound: 6 })
        .build()
        .unwrap()
        .run(25)
        .unwrap();
    assert_eq!(legacy.rounds, new.rounds);
    match new.outcome {
        Outcome::Leader {
            ref leaders,
            unique,
        } => {
            assert_eq!(legacy.leaders, *leaders);
            assert_eq!(legacy.unique, unique);
        }
        ref other => panic!("expected leader outcome, got {other:?}"),
    }
}

#[test]
fn alert_is_deterministic_and_spreads() {
    // No legacy runner existed for the alert protocol; pin determinism
    // and the completion semantics instead.
    let params = SinrParams::default_plane();
    let consts = fast();
    let backbone = run_stabilize(path(6), &params, consts, 4).unwrap();
    let sim = sim_for(
        ProtocolSpec::Alert {
            coloring: backbone.coloring.clone(),
            alerts: vec![(3, 7)],
            d_bound: 6,
        },
        consts.wakeup_window(6, 6) * 4,
    );
    let a = sim.run(26).unwrap();
    let b = sim.run(26).unwrap();
    assert_eq!(a, b);
    assert!(a.completed, "{a:?}");
    match a.outcome {
        Outcome::Alert { ref learned_at } => {
            assert_eq!(learned_at[3], Some(7));
            assert!(learned_at.iter().all(|r| r.is_some()));
        }
        ref other => panic!("expected alert outcome, got {other:?}"),
    }
}

#[test]
fn sweep_is_thread_count_invariant() {
    // The ISSUE's core determinism claim: a sweep's reports are identical
    // no matter how many worker threads execute it.
    let seeds: Vec<u64> = (0..12).collect();
    for spec in [
        ProtocolSpec::SBroadcast { source: 0 },
        ProtocolSpec::NoSBroadcast { source: 0 },
        ProtocolSpec::FloodBroadcast { source: 0, p: 0.3 },
    ] {
        let sim = sim_for(spec, 500_000);
        let serial = sim.sweep_with_threads(&seeds, 1).unwrap();
        let parallel = sim.sweep_with_threads(&seeds, 8).unwrap();
        let auto = sim.sweep(&seeds).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial, auto);
        assert_eq!(serial.seeds(), seeds);
    }
}

#[test]
fn generated_topology_sweep_is_thread_count_invariant() {
    // Generated topologies draw a fresh deployment per seed; the sweep
    // must still be deterministic and thread-count invariant.
    let sim = Scenario::new(TopologySpec::ClusterChain {
        diameter: 2,
        per_cluster: 6,
    })
    .constants(fast())
    .protocol(ProtocolSpec::SBroadcast { source: 0 })
    .budget(500_000)
    .build()
    .unwrap();
    let seeds: Vec<u64> = (100..108).collect();
    let serial = sim.sweep_with_threads(&seeds, 1).unwrap();
    let parallel = sim.sweep_with_threads(&seeds, 4).unwrap();
    assert_eq!(serial, parallel);
    // Distinct seeds draw distinct deployments (whp) — materialize is the
    // same stream the runs used.
    let a = sim.materialize(100).unwrap();
    let b = sim.materialize(101).unwrap();
    assert_ne!(a, b);
    assert_eq!(a.len(), 18);
}

#[test]
fn run_is_bit_for_bit_reproducible() {
    let sim = sim_for(ProtocolSpec::SBroadcast { source: 0 }, 500_000);
    let a = sim.run(99).unwrap();
    let b = sim.run(99).unwrap();
    assert_eq!(a, b);
    let c = sim.run(100).unwrap();
    assert_ne!(a, c, "different seeds must differ somewhere");
}
