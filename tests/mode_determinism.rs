//! Determinism contract of the reception oracle across interference modes.
//!
//! Same seed ⇒ byte-identical `RunReport`, across repeated runs and across
//! sweep and physics thread counts, in both `InterferenceMode`s: `Exact`
//! and `GridNative`, whose sorted flat cell buckets make the
//! floating-point sums a pure function of the input. This file pins that
//! at the full-protocol level (`tests/scenario_golden.rs` pins literal
//! per-protocol reports).

use sinr_broadcast::core::sim::{ChurnSpec, MobilitySpec, ProtocolSpec, Scenario, TopologySpec};
use sinr_broadcast::core::Constants;
use sinr_broadcast::phy::InterferenceMode;

fn fast() -> Constants {
    Constants {
        c0: 4.0,
        c2: 4.0,
        c_prime: 1,
        dissem_factor: 8.0,
        ..Constants::tuned()
    }
}

fn all_modes() -> [InterferenceMode; 2] {
    [InterferenceMode::Exact, InterferenceMode::grid_native()]
}

#[test]
fn every_mode_is_bit_for_bit_reproducible_and_thread_invariant() {
    // A generated deployment spanning many grid cells, so grid-native
    // builds non-trivial cell buckets.
    for mode in all_modes() {
        let sim = Scenario::new(TopologySpec::ConnectedSquareDensity {
            n: 80,
            density: 30.0,
        })
        .constants(fast())
        .protocol(ProtocolSpec::SBroadcast { source: 0 })
        .interference_mode(mode)
        .budget(2_000_000)
        .build()
        .unwrap();

        let a = sim.run(42).unwrap();
        let b = sim.run(42).unwrap();
        assert_eq!(a, b, "{mode:?}: repeated runs differ");

        let seeds: Vec<u64> = (0..6).collect();
        let serial = sim.sweep_with_threads(&seeds, 1).unwrap();
        let parallel = sim.sweep_with_threads(&seeds, 8).unwrap();
        assert_eq!(serial, parallel, "{mode:?}: sweep depends on thread count");
    }
}

#[test]
fn physics_threads_leave_run_reports_byte_identical() {
    // In-round parallelism invariance: sharding the accumulate stage
    // across physics threads must leave the full `RunReport` — including
    // every per-round statistic — byte-identical in every interference
    // mode. 90 stations over ~25 grid cells gives the shard planner real
    // multi-cell ranges at 2 and 8 threads.
    for mode in all_modes() {
        let scenario = Scenario::new(TopologySpec::ConnectedSquareDensity {
            n: 90,
            density: 25.0,
        })
        .constants(fast())
        .protocol(ProtocolSpec::SBroadcast { source: 0 })
        .interference_mode(mode)
        .record_rounds()
        .budget(2_000_000);

        let baseline = scenario.clone().build().unwrap().run(42).unwrap();
        for threads in [2usize, 8] {
            let sharded = scenario
                .clone()
                .physics_threads(threads)
                .build()
                .unwrap()
                .run(42)
                .unwrap();
            assert_eq!(
                baseline, sharded,
                "{mode:?}: physics_threads({threads}) changed the run"
            );
        }
    }
}

#[test]
fn physics_threads_compose_with_parallel_sweeps() {
    // The two axes of parallelism at once: multi-threaded sweeps of
    // multi-threaded trials must reproduce the serial single-threaded
    // sweep byte-for-byte, in every mode.
    for mode in all_modes() {
        let scenario = Scenario::new(TopologySpec::ConnectedSquareDensity {
            n: 70,
            density: 25.0,
        })
        .constants(fast())
        .protocol(ProtocolSpec::SBroadcast { source: 0 })
        .interference_mode(mode)
        .budget(2_000_000);
        let seeds: Vec<u64> = (0..4).collect();

        let serial = scenario
            .clone()
            .build()
            .unwrap()
            .sweep_with_threads(&seeds, 1)
            .unwrap();
        let composed = scenario
            .clone()
            .physics_threads(8)
            .build()
            .unwrap()
            .sweep_with_threads(&seeds, 4)
            .unwrap();
        assert_eq!(
            serial, composed,
            "{mode:?}: sweep workers × physics threads changed results"
        );
    }
}

fn mobility_specs() -> [MobilitySpec; 3] {
    [
        MobilitySpec::random_waypoint(0.15, 4),
        MobilitySpec::drift(0.1, 4),
        MobilitySpec::teleport_churn(0.2, 4),
    ]
}

#[test]
fn mobile_scenarios_are_reproducible_and_physics_thread_invariant() {
    // The determinism contract extended to dynamic topologies: every
    // mobility model × every interference mode, with per-round stats
    // recorded, must be byte-identical across repeated runs and across
    // physics thread counts {1, 2, 8}.
    for spec in mobility_specs() {
        for mode in all_modes() {
            let scenario = Scenario::new(TopologySpec::ConnectedSquareDensity {
                n: 60,
                density: 30.0,
            })
            .constants(fast())
            .protocol(ProtocolSpec::SBroadcast { source: 0 })
            .interference_mode(mode)
            .mobility(spec)
            .record_rounds()
            .budget(1_500);
            let baseline = scenario.clone().build().unwrap().run(42).unwrap();
            assert_eq!(
                baseline,
                scenario.clone().build().unwrap().run(42).unwrap(),
                "{spec:?}/{mode:?}: repeated mobile runs differ"
            );
            for threads in [2usize, 8] {
                let sharded = scenario
                    .clone()
                    .physics_threads(threads)
                    .build()
                    .unwrap()
                    .run(42)
                    .unwrap();
                assert_eq!(
                    baseline, sharded,
                    "{spec:?}/{mode:?}: physics_threads({threads}) changed the mobile run"
                );
            }
        }
    }
}

#[test]
fn mobile_sweeps_compose_with_physics_threads() {
    // Both axes of parallelism on a dynamic topology: multi-threaded
    // sweeps of multi-threaded mobile trials reproduce the serial sweep
    // byte-for-byte in every mode.
    for mode in all_modes() {
        let scenario = Scenario::new(TopologySpec::ConnectedSquareDensity {
            n: 50,
            density: 25.0,
        })
        .constants(fast())
        .protocol(ProtocolSpec::SBroadcast { source: 0 })
        .interference_mode(mode)
        .mobility(MobilitySpec::random_waypoint(0.2, 8))
        .budget(1_500);
        let seeds: Vec<u64> = (0..4).collect();
        let serial = scenario
            .clone()
            .build()
            .unwrap()
            .sweep_with_threads(&seeds, 1)
            .unwrap();
        let composed = scenario
            .clone()
            .physics_threads(8)
            .build()
            .unwrap()
            .sweep_with_threads(&seeds, 4)
            .unwrap();
        assert_eq!(
            serial, composed,
            "{mode:?}: mobile sweep workers × physics threads changed results"
        );
    }
}

#[test]
fn churned_scenarios_are_reproducible_and_physics_thread_invariant() {
    // The determinism contract extended to dynamic populations: churn
    // (kills, teleporting rejoins, spawns) × every interference mode,
    // with per-round stats recorded, must be byte-identical across
    // repeated runs and across physics thread counts {1, 2, 8}.
    for mode in all_modes() {
        let scenario = Scenario::new(TopologySpec::ConnectedSquareDensity {
            n: 60,
            density: 30.0,
        })
        .constants(fast())
        .protocol(ProtocolSpec::SBroadcast { source: 0 })
        .interference_mode(mode)
        .churn(ChurnSpec::poisson(2.0, 5.0, 4))
        .record_rounds()
        .budget(600);
        let baseline = scenario.clone().build().unwrap().run(42).unwrap();
        assert_eq!(
            baseline,
            scenario.clone().build().unwrap().run(42).unwrap(),
            "{mode:?}: repeated churned runs differ"
        );
        for threads in [2usize, 8] {
            let sharded = scenario
                .clone()
                .physics_threads(threads)
                .build()
                .unwrap()
                .run(42)
                .unwrap();
            assert_eq!(
                baseline, sharded,
                "{mode:?}: physics_threads({threads}) changed the churned run"
            );
        }
    }
}

#[test]
fn churned_mobile_sweeps_compose_with_physics_threads() {
    // Churn AND mobility AND both axes of parallelism at once, in every
    // mode: multi-threaded sweeps of multi-threaded churned-mobile trials
    // reproduce the serial sweep byte-for-byte.
    for mode in all_modes() {
        let scenario = Scenario::new(TopologySpec::ConnectedSquareDensity {
            n: 50,
            density: 25.0,
        })
        .constants(fast())
        .protocol(ProtocolSpec::ReFloodBroadcast {
            source: 0,
            p: 0.25,
            burst_rounds: 24,
        })
        .interference_mode(mode)
        .mobility(MobilitySpec::random_waypoint(0.2, 8))
        .churn(ChurnSpec::poisson(1.5, 6.0, 4))
        .budget(400);
        let seeds: Vec<u64> = (0..4).collect();
        let serial = scenario
            .clone()
            .build()
            .unwrap()
            .sweep_with_threads(&seeds, 1)
            .unwrap();
        let composed = scenario
            .clone()
            .physics_threads(8)
            .build()
            .unwrap()
            .sweep_with_threads(&seeds, 4)
            .unwrap();
        assert_eq!(
            serial, composed,
            "{mode:?}: churned sweep workers × physics threads changed results"
        );
    }
}

#[test]
fn churn_actually_perturbs_the_run() {
    // Guard against the churned battery passing vacuously: with these
    // rates the churned run must differ from the static run of the same
    // seed.
    let build = |churned: bool| {
        let s = Scenario::new(TopologySpec::ConnectedSquareDensity {
            n: 60,
            density: 30.0,
        })
        .constants(fast())
        .protocol(ProtocolSpec::SBroadcast { source: 0 })
        .record_rounds()
        .budget(400);
        if churned {
            s.churn(ChurnSpec::poisson(2.0, 5.0, 4))
        } else {
            s
        }
        .build()
        .unwrap()
    };
    assert_ne!(
        build(false).run(5).unwrap(),
        build(true).run(5).unwrap(),
        "churn at these rates must show up in the report"
    );
}

#[test]
fn acceptance_churned_waypoint_10k_is_byte_identical_at_any_thread_count() {
    // The ISSUE's churned acceptance bar: random-waypoint mobility plus a
    // teleport-churn population (stations die and rejoin at fresh uniform
    // positions, Poisson arrivals spawning beyond the tombstone pool) at
    // n = 10⁴ with 8-round epochs, swept through `.sweep(seeds)`, must
    // produce byte-identical `RunReport`s at physics threads {1, 2, 8}.
    // Grid-native physics and a 3-epoch budget keep wall-clock small;
    // equality is what matters, not completion.
    let seeds: Vec<u64> = vec![3, 4];
    let base = Scenario::new(TopologySpec::UniformSquare {
        n: 10_000,
        side: 18.0,
    })
    .protocol(ProtocolSpec::ReFloodBroadcast {
        source: 0,
        p: 0.05,
        burst_rounds: 16,
    })
    .interference_mode(InterferenceMode::grid_native())
    .mobility(MobilitySpec::random_waypoint(0.25, 8))
    .churn(ChurnSpec::poisson(20.0, 6.0, 8))
    .record_rounds()
    .budget(24);
    let baseline = base.clone().build().unwrap().sweep(&seeds).unwrap();
    for threads in [2usize, 8] {
        let sharded = base
            .clone()
            .physics_threads(threads)
            .build()
            .unwrap()
            .sweep(&seeds)
            .unwrap();
        assert_eq!(
            baseline, sharded,
            "n=10^4 churned sweep changed at physics_threads({threads})"
        );
    }
}

#[test]
fn acceptance_mobile_waypoint_10k_is_byte_identical_at_any_thread_count() {
    // The ISSUE's acceptance bar verbatim: a random-waypoint scenario at
    // n = 10⁴ with 8-round epochs, swept through `.sweep(seeds)`, must
    // produce byte-identical `RunReport`s at physics_threads {1, 2, 8}.
    // Grid-native physics and a 3-epoch flood keep the wall-clock small;
    // equality is what matters, not completion.
    let seeds: Vec<u64> = vec![3, 4];
    let base = Scenario::new(TopologySpec::UniformSquare {
        n: 10_000,
        side: 18.0,
    })
    .protocol(ProtocolSpec::FloodBroadcast { source: 0, p: 0.05 })
    .interference_mode(InterferenceMode::grid_native())
    .mobility(MobilitySpec::random_waypoint(0.25, 8))
    .record_rounds()
    .budget(24);
    let baseline = base.clone().build().unwrap().sweep(&seeds).unwrap();
    for threads in [2usize, 8] {
        let sharded = base
            .clone()
            .physics_threads(threads)
            .build()
            .unwrap()
            .sweep(&seeds)
            .unwrap();
        assert_eq!(
            baseline, sharded,
            "n=10^4 mobile sweep changed at physics_threads({threads})"
        );
    }
}

#[test]
fn sbroadcast_completes_under_grid_native_physics() {
    let sim = Scenario::new(TopologySpec::ConnectedSquareDensity {
        n: 60,
        density: 30.0,
    })
    .constants(fast())
    .protocol(ProtocolSpec::SBroadcast { source: 0 })
    .interference_mode(InterferenceMode::grid_native())
    .budget(2_000_000)
    .build()
    .unwrap();
    let report = sim.run(7).unwrap();
    assert!(report.completed, "grid-native broadcast: {report:?}");
    assert_eq!(report.informed, report.n);
}

use sinr_broadcast::core::sim::{AdversaryModel, AdversarySpec};

#[test]
fn adversarial_scenarios_are_reproducible_and_physics_thread_invariant() {
    // The determinism contract extended to fault injection: a composed
    // adversary (cut-vertex-targeted kills + jamming stations) × every
    // interference mode, with per-round stats recorded, must be
    // byte-identical across repeated runs and across physics thread
    // counts {1, 2, 8} — including the fault accounting itself.
    for mode in all_modes() {
        let scenario = Scenario::new(TopologySpec::ConnectedSquareDensity {
            n: 60,
            density: 30.0,
        })
        .constants(fast())
        .protocol(ProtocolSpec::ReFloodBroadcastEstimate {
            source: 0,
            nu0: 60,
            burst_rounds: 32,
        })
        .interference_mode(mode)
        .adversary(
            AdversarySpec::cut_vertex_kill(0.15, 1, 8).and(AdversaryModel::Jam { jammers: 3 }),
        )
        .record_rounds()
        .budget(400);
        let baseline = scenario.clone().build().unwrap().run(42).unwrap();
        // Guard against a vacuous pass: the adversary must actually fire.
        let faults = baseline.faults.as_ref().expect("fault accounting");
        assert!(faults.kills > 0, "{mode:?}: cut-vertex adversary idle");
        assert!(faults.jam_rounds > 0, "{mode:?}: jammers idle");
        assert!(
            !faults.coverage.is_empty(),
            "{mode:?}: no degradation curve"
        );
        assert_eq!(
            baseline,
            scenario.clone().build().unwrap().run(42).unwrap(),
            "{mode:?}: repeated adversarial runs differ"
        );
        for threads in [2usize, 8] {
            let sharded = scenario
                .clone()
                .physics_threads(threads)
                .build()
                .unwrap()
                .run(42)
                .unwrap();
            assert_eq!(
                baseline, sharded,
                "{mode:?}: physics_threads({threads}) changed the adversarial run"
            );
        }
    }
}

#[test]
fn adversarial_churned_sweeps_compose_with_physics_threads() {
    // Faults AND churn AND both axes of parallelism at once, in every
    // mode: multi-threaded sweeps of multi-threaded adversarial trials
    // reproduce the serial sweep byte-for-byte (adversary kills and
    // churn kills deduplicate at shared boundaries, deterministically).
    for mode in all_modes() {
        let scenario = Scenario::new(TopologySpec::ConnectedSquareDensity {
            n: 50,
            density: 25.0,
        })
        .constants(fast())
        .protocol(ProtocolSpec::ReFloodBroadcast {
            source: 0,
            p: 0.25,
            burst_rounds: 24,
        })
        .interference_mode(mode)
        .churn(ChurnSpec::poisson(1.5, 6.0, 4))
        .adversary(
            AdversarySpec::cut_vertex_kill(0.1, 1, 4).and(AdversaryModel::Jam { jammers: 2 }),
        )
        .budget(400);
        let seeds: Vec<u64> = (0..4).collect();
        let serial = scenario
            .clone()
            .build()
            .unwrap()
            .sweep_with_threads(&seeds, 1)
            .unwrap();
        let composed = scenario
            .clone()
            .physics_threads(8)
            .build()
            .unwrap()
            .sweep_with_threads(&seeds, 4)
            .unwrap();
        assert_eq!(
            serial, composed,
            "{mode:?}: adversarial sweep workers × physics threads changed results"
        );
    }
}
