//! Golden and determinism tests for the `Scenario` API.
//!
//! Two contracts are pinned here:
//!
//! 1. **Literal reports** — for every protocol, `Simulation::run(seed)` on
//!    a fixed explicit topology reproduces a pinned
//!    `(n, rounds, completed, informed, total_transmissions, outcome)`
//!    — the values the standalone per-protocol runners produced before
//!    `Scenario` became the only entry point, hence `*_matches_legacy`;
//! 2. **Sweep determinism** — `Simulation::sweep` returns identical
//!    reports for 1 worker thread and many, and `run(seed)` twice is
//!    bit-for-bit identical.
//!
//! If a change is *intended* to alter a protocol's behaviour, update the
//! pinned values and say so in the commit message.

use sinr_broadcast::core::sim::{Outcome, ProtocolSpec, RunReport, Scenario, TopologySpec};
use sinr_broadcast::core::{Coloring, Constants};
use sinr_broadcast::geometry::Point2;
use sinr_broadcast::phy::InterferenceMode;
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

/// Runs a fixed-schedule protocol (no budget) on `path(n)`.
fn run_fixed(n: usize, spec: ProtocolSpec, seed: u64) -> RunReport {
    Scenario::new(path(n))
        .constants(fast())
        .protocol(spec)
        .build()
        .unwrap()
        .run(seed)
        .unwrap()
}

/// The pinned fields of a report.
fn pinned(r: RunReport) -> (usize, u64, bool, usize, u64, Outcome) {
    (
        r.n,
        r.rounds,
        r.completed,
        r.informed,
        r.total_transmissions,
        r.outcome,
    )
}

/// The coloring every pinned `path(6)`/`path(8)` coloring run produces:
/// each station at the same color, `0.004`.
fn uniform_coloring(n: usize) -> Coloring {
    Coloring::new(vec![f64::from_bits(0x3f70_624d_d2f1_a9fc); n])
}

/// The `path(6)` backbone of the wake-up and alert cases.
fn backbone() -> Coloring {
    match run_fixed(6, ProtocolSpec::Coloring, 4).outcome {
        Outcome::Coloring { coloring } => coloring,
        other => panic!("expected coloring outcome, got {other:?}"),
    }
}

#[test]
fn nos_broadcast_matches_legacy() {
    let r = sim_for(ProtocolSpec::NoSBroadcast { source: 0 }, 500_000)
        .run(11)
        .unwrap();
    assert_eq!(pinned(r), (6, 206, true, 6, 9, Outcome::Broadcast));
}

#[test]
fn s_broadcast_matches_legacy() {
    let r = sim_for(ProtocolSpec::SBroadcast { source: 0 }, 500_000)
        .run(12)
        .unwrap();
    assert_eq!(pinned(r), (6, 126, true, 6, 8, Outcome::Broadcast));
}

#[test]
fn estimate_broadcasts_match_legacy() {
    let r = sim_for(
        ProtocolSpec::SBroadcastWithEstimate { source: 0, nu: 48 },
        2_000_000,
    )
    .run(13)
    .unwrap();
    assert_eq!(pinned(r), (6, 200, true, 6, 8, Outcome::Broadcast));

    let r = sim_for(
        ProtocolSpec::NoSBroadcastWithEstimate { source: 0, nu: 48 },
        fast().phase_rounds(48) * 60,
    )
    .run(14)
    .unwrap();
    assert_eq!(pinned(r), (6, 703, true, 6, 13, Outcome::Broadcast));
}

#[test]
fn baselines_match_legacy() {
    let cases = [
        (
            ProtocolSpec::DaumBroadcast {
                source: 0,
                granularity: None,
            },
            15,
            (5, 9),
        ),
        (
            ProtocolSpec::FloodBroadcast { source: 0, p: 0.3 },
            16,
            (9, 10),
        ),
        (ProtocolSpec::LocalBroadcast { source: 0 }, 17, (34, 19)),
        (ProtocolSpec::GpsOracleBroadcast { source: 0 }, 18, (8, 4)),
    ];
    for (spec, seed, (rounds, tx)) in cases {
        let name = spec.name();
        let r = sim_for(spec, 200_000).run(seed).unwrap();
        assert_eq!(
            pinned(r),
            (6, rounds, true, 6, tx, Outcome::Broadcast),
            "{name}"
        );
    }
}

#[test]
fn interference_mode_matches_legacy() {
    for mode in [InterferenceMode::Exact, InterferenceMode::grid_native()] {
        let r = Scenario::new(path(6))
            .constants(fast())
            .protocol(ProtocolSpec::SBroadcast { source: 0 })
            .interference_mode(mode)
            .budget(500_000)
            .build()
            .unwrap()
            .run(19)
            .unwrap();
        assert_eq!(
            pinned(r),
            (6, 297, true, 6, 6, Outcome::Broadcast),
            "{mode:?}"
        );
    }
}

#[test]
fn coloring_matches_legacy_stabilize() {
    let coloring = uniform_coloring(8);
    assert_eq!(
        pinned(run_fixed(8, ProtocolSpec::Coloring, 21)),
        (8, 24, true, 8, 5, Outcome::Coloring { coloring })
    );
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
    let r = sim_for(
        ProtocolSpec::AdhocWakeup {
            schedule: WakeSchedule::single(0, 13),
        },
        fast().phase_rounds(6) * 60,
    )
    .run(22)
    .unwrap();
    let outcome = Outcome::Wakeup {
        first_wake: 13,
        rounds_from_first_wake: 384,
    };
    assert_eq!(pinned(r), (6, 397, true, 6, 5, outcome));
}

#[test]
fn established_wakeup_matches_legacy() {
    let coloring = backbone();
    assert_eq!(coloring, uniform_coloring(6));
    let mut initiators = vec![false; 6];
    initiators[0] = true;
    let r = sim_for(
        ProtocolSpec::EstablishedWakeup {
            coloring,
            initiators,
        },
        fast().wakeup_window(6, 5) * 3,
    )
    .run(23)
    .unwrap();
    assert_eq!(pinned(r), (6, 144, true, 6, 4, Outcome::Broadcast));
}

#[test]
fn consensus_matches_legacy() {
    let spec = ProtocolSpec::Consensus {
        values: vec![6, 2, 5, 7, 3, 4],
        bits: 3,
        d_bound: 4,
    };
    let outcome = Outcome::Consensus {
        decided: vec![Some(2); 6],
        agreement: true,
        valid: true,
    };
    assert_eq!(
        pinned(run_fixed(6, spec, 24)),
        (6, 16_440, true, 6, 343, outcome)
    );
}

#[test]
fn leader_election_matches_legacy() {
    let outcome = Outcome::Leader {
        leaders: vec![0],
        unique: true,
    };
    assert_eq!(
        pinned(run_fixed(
            6,
            ProtocolSpec::LeaderElection { d_bound: 6 },
            25
        )),
        (6, 72_744, true, 6, 1_555, outcome)
    );
}

#[test]
fn alert_is_deterministic_and_spreads() {
    // Pin determinism and the completion semantics of the alert protocol.
    let sim = sim_for(
        ProtocolSpec::Alert {
            coloring: backbone(),
            alerts: vec![(3, 7)],
            d_bound: 6,
        },
        fast().wakeup_window(6, 6) * 4,
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
