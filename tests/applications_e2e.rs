//! End-to-end tests for the Section 5 applications, via the `Scenario`
//! builder.

use sinr_broadcast::core::{consensus::domain_bits, Constants};
use sinr_broadcast::netgen::{cluster, line};
use sinr_broadcast::phy::SinrParams;
use sinr_broadcast::runtime::WakeSchedule;
use sinr_broadcast::sim::{Outcome, ProtocolSpec, Scenario};

fn fast() -> Constants {
    Constants {
        c0: 4.0,
        c2: 4.0,
        c_prime: 1,
        dissem_factor: 8.0,
        ..Constants::tuned()
    }
}

#[test]
fn wakeup_under_three_schedules() {
    let params = SinrParams::default_plane();
    let consts = fast();
    let pts = cluster::chain_for_diameter(3, 8, &params, 1);
    let n = pts.len();
    let schedules = [
        WakeSchedule::single(0, 0),
        WakeSchedule::AllAt(5),
        WakeSchedule::Staggered { start: 0, gap: 11 },
    ];
    for (i, schedule) in schedules.iter().enumerate() {
        let budget = consts.phase_rounds(n) * 60 + n as u64 * 20;
        let rep = Scenario::new(pts.clone())
            .constants(consts)
            .protocol(ProtocolSpec::AdhocWakeup {
                schedule: schedule.clone(),
            })
            .budget(budget)
            .build()
            .unwrap()
            .run(i as u64)
            .expect("valid");
        assert!(rep.completed, "schedule {i} incomplete: {rep:?}");
        assert_eq!(rep.informed, n, "schedule {i}: all stations awake");
    }
}

#[test]
fn wakeup_accounting_starts_at_first_wake() {
    let consts = fast();
    let pts = line::uniform_line(6, 0.45);
    let rep = Scenario::new(pts)
        .constants(consts)
        .protocol(ProtocolSpec::AdhocWakeup {
            schedule: WakeSchedule::single(3, 40),
        })
        .budget(consts.phase_rounds(6) * 60)
        .build()
        .unwrap()
        .run(2)
        .unwrap();
    assert!(rep.completed);
    match rep.outcome {
        Outcome::Wakeup { first_wake, .. } => assert_eq!(first_wake, 40),
        ref other => panic!("expected wakeup outcome, got {other:?}"),
    }
}

#[test]
fn consensus_decides_minimum_on_chain() {
    let params = SinrParams::default_plane();
    let pts = cluster::chain_for_diameter(3, 8, &params, 2);
    let n = pts.len();
    let values: Vec<u64> = (0..n as u64).map(|i| 20 + (i * 13) % 40).collect();
    let min = values.iter().copied().min();
    let rep = Scenario::new(pts)
        .constants(fast())
        .protocol(ProtocolSpec::Consensus {
            values,
            bits: domain_bits(63),
            d_bound: 3,
        })
        .build()
        .unwrap()
        .run(5)
        .expect("valid");
    match rep.outcome {
        Outcome::Consensus {
            ref decided,
            agreement,
            valid,
        } => {
            assert!(agreement, "{decided:?}");
            assert!(valid);
            assert_eq!(decided[0], min);
        }
        ref other => panic!("expected consensus outcome, got {other:?}"),
    }
}

#[test]
fn consensus_with_duplicate_minimum() {
    let pts = line::uniform_line(6, 0.45);
    let rep = Scenario::new(pts)
        .constants(fast())
        .protocol(ProtocolSpec::Consensus {
            values: vec![9, 2, 7, 2, 8, 2],
            bits: 4,
            d_bound: 6,
        })
        .build()
        .unwrap()
        .run(6)
        .expect("valid");
    match rep.outcome {
        Outcome::Consensus {
            ref decided, valid, ..
        } => {
            assert!(valid);
            assert_eq!(decided[0], Some(2));
        }
        ref other => panic!("expected consensus outcome, got {other:?}"),
    }
}

#[test]
fn established_wakeup_over_real_backbone() {
    let params = SinrParams::default_plane();
    let consts = fast();
    let pts = cluster::chain_for_diameter(3, 8, &params, 9);
    let n = pts.len();
    // Build the backbone with one StabilizeProbability execution, then use
    // its colors for the wake-up flood (the Section 5 composition).
    let backbone = Scenario::new(pts.clone())
        .constants(consts)
        .protocol(ProtocolSpec::Coloring)
        .build()
        .unwrap()
        .run(4)
        .expect("valid");
    let Outcome::Coloring { coloring } = backbone.outcome else {
        panic!("expected coloring outcome, got {:?}", backbone.outcome);
    };
    let mut initiators = vec![false; n];
    initiators[0] = true;
    let rep = Scenario::new(pts)
        .constants(consts)
        .protocol(ProtocolSpec::EstablishedWakeup {
            coloring,
            initiators,
        })
        .budget(consts.wakeup_window(n, 3) * 3)
        .build()
        .unwrap()
        .run(5)
        .expect("valid");
    assert!(rep.completed, "{rep:?}");
    assert_eq!(rep.informed, n);
}

#[test]
fn alert_protocol_end_to_end() {
    let params = SinrParams::default_plane();
    let consts = fast();
    let pts = cluster::chain_for_diameter(3, 6, &params, 2);
    let n = pts.len();
    // A uniform p_max backbone, alert at station n-1 in round 12.
    let coloring = sinr_broadcast::core::Coloring::new(vec![consts.p_max(); n]);
    let window = consts.wakeup_window(n, 3);
    let rep = Scenario::new(pts)
        .constants(consts)
        .protocol(ProtocolSpec::Alert {
            coloring,
            alerts: vec![(n - 1, 12)],
            d_bound: 3,
        })
        .budget(window * 4)
        .build()
        .unwrap()
        .run(6)
        .expect("valid");
    assert!(rep.completed, "{rep:?}");
    match rep.outcome {
        Outcome::Alert { ref learned_at } => {
            assert_eq!(learned_at[n - 1], Some(12));
            assert!(learned_at.iter().all(|r| r.is_some()));
        }
        ref other => panic!("expected alert outcome, got {other:?}"),
    }
}

#[test]
fn quiescent_alert_stays_silent() {
    // With no alerts, the alert protocol must idle without a single
    // transmission (the perfect-quiescence property).
    let params = SinrParams::default_plane();
    let consts = fast();
    let pts = cluster::chain_for_diameter(2, 5, &params, 3);
    let n = pts.len();
    let coloring = sinr_broadcast::core::Coloring::new(vec![consts.p_max(); n]);
    let rep = Scenario::new(pts)
        .constants(consts)
        .protocol(ProtocolSpec::Alert {
            coloring,
            alerts: vec![],
            d_bound: 2,
        })
        .budget(500)
        .build()
        .unwrap()
        .run(7)
        .expect("valid");
    assert!(!rep.completed, "nothing to learn without an alert");
    assert_eq!(
        rep.total_transmissions, 0,
        "alert protocol must idle silently"
    );
    assert_eq!(rep.informed, 0);
}

#[test]
fn leader_election_unique_across_seeds() {
    let sim = Scenario::new(line::uniform_line(8, 0.45))
        .constants(fast())
        .protocol(ProtocolSpec::LeaderElection { d_bound: 8 })
        .build()
        .unwrap();
    let sweep = sim.sweep(&[0, 1, 2]).expect("valid");
    for rep in &sweep.runs {
        match rep.outcome {
            Outcome::Leader {
                ref leaders,
                unique,
            } => assert!(unique, "seed {}: leaders {leaders:?}", rep.seed),
            ref other => panic!("expected leader outcome, got {other:?}"),
        }
    }
}
