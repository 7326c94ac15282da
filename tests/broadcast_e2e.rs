//! End-to-end broadcast tests across topology families, via the facade's
//! `Scenario` builder.

use sinr_broadcast::core::Constants;
use sinr_broadcast::geometry::Point2;
use sinr_broadcast::netgen::{cluster, line, uniform};
use sinr_broadcast::phy::{InterferenceMode, SinrParams};
use sinr_broadcast::sim::{ProtocolSpec, Scenario, SimError};

fn fast() -> Constants {
    Constants {
        c0: 4.0,
        c2: 4.0,
        c_prime: 1,
        dissem_factor: 8.0,
        ..Constants::tuned()
    }
}

fn topologies(seed: u64) -> Vec<(&'static str, Vec<Point2>)> {
    let params = SinrParams::default_plane();
    vec![
        (
            "uniform",
            uniform::connected_square(60, uniform::side_for_density(60, 30.0), &params, seed)
                .expect("connected"),
        ),
        ("chain", cluster::chain_for_diameter(4, 10, &params, seed)),
        ("line", line::uniform_line(12, 0.45)),
        ("geom-line", line::halving_line(24, 0.5, 0.5, 2e-9)),
    ]
}

fn broadcast_sim(
    pts: Vec<Point2>,
    spec: ProtocolSpec,
    budget: u64,
) -> sinr_broadcast::sim::Simulation {
    Scenario::new(pts)
        .constants(fast())
        .protocol(spec)
        .budget(budget)
        .build()
        .expect("valid scenario")
}

#[test]
fn s_broadcast_completes_on_all_families() {
    for (name, pts) in topologies(1) {
        let n = pts.len();
        let rep = broadcast_sim(pts, ProtocolSpec::SBroadcast { source: 0 }, 3_000_000)
            .run(7)
            .expect("valid");
        assert!(rep.completed, "[{name}] incomplete: {rep:?}");
        assert_eq!(rep.informed, n, "[{name}]");
    }
}

#[test]
fn nos_broadcast_completes_on_all_families() {
    let consts = fast();
    for (name, pts) in topologies(2) {
        let n = pts.len();
        let budget = consts.phase_rounds(n) * 80;
        let rep = broadcast_sim(pts, ProtocolSpec::NoSBroadcast { source: 0 }, budget)
            .run(8)
            .expect("valid");
        assert!(rep.completed, "[{name}] incomplete: {rep:?}");
        assert_eq!(rep.informed, n, "[{name}]");
    }
}

#[test]
fn broadcast_deterministic_in_seed() {
    let params = SinrParams::default_plane();
    let pts = cluster::chain_for_diameter(3, 8, &params, 5);
    let sim = broadcast_sim(pts, ProtocolSpec::SBroadcast { source: 0 }, 2_000_000);
    let a = sim.run(42).unwrap();
    let b = sim.run(42).unwrap();
    assert_eq!(a, b);
}

#[test]
fn source_choice_is_arbitrary() {
    for source in [0, 5, 11] {
        let pts = line::uniform_line(12, 0.45);
        let rep = broadcast_sim(pts, ProtocolSpec::SBroadcast { source }, 2_000_000)
            .run(9)
            .unwrap();
        assert!(rep.completed, "source {source}");
    }
}

#[test]
fn zero_budget_informs_only_source() {
    let pts = line::uniform_line(5, 0.45);
    let rep = broadcast_sim(pts, ProtocolSpec::NoSBroadcast { source: 2 }, 0)
        .run(1)
        .unwrap();
    assert!(!rep.completed);
    assert_eq!(rep.informed, 1);
}

#[test]
fn single_station_network_trivially_done() {
    let rep = broadcast_sim(
        vec![Point2::new(0.0, 0.0)],
        ProtocolSpec::SBroadcast { source: 0 },
        1000,
    )
    .run(3)
    .unwrap();
    assert!(rep.completed);
    assert_eq!(rep.rounds, 0, "source already informed at round 0");
}

#[test]
fn disconnected_network_never_completes() {
    let mut pts = line::uniform_line(4, 0.45);
    pts.push(Point2::new(50.0, 0.0));
    let rep = broadcast_sim(pts, ProtocolSpec::SBroadcast { source: 0 }, 50_000)
        .run(5)
        .unwrap();
    assert!(!rep.completed);
    assert_eq!(rep.informed, 4, "only the connected component is informed");
}

#[test]
fn out_of_range_source_is_a_spec_error() {
    let err = broadcast_sim(
        line::uniform_line(4, 0.45),
        ProtocolSpec::SBroadcast { source: 9 },
        1000,
    )
    .run(1)
    .unwrap_err();
    assert!(matches!(err, SimError::Spec(_)));
}

#[test]
fn missing_budget_is_a_build_error() {
    let err = Scenario::new(line::uniform_line(4, 0.45))
        .protocol(ProtocolSpec::SBroadcast { source: 0 })
        .build()
        .err()
        .expect("goal-driven protocol without budget must not build");
    assert!(matches!(err, SimError::MissingBudget));
}

#[test]
fn out_of_range_knobs_are_build_errors_not_run_panics() {
    let build = |mode: InterferenceMode, spec: ProtocolSpec| {
        Scenario::new(line::uniform_line(4, 0.45))
            .protocol(spec)
            .interference_mode(mode)
            .budget(1000)
            .build()
    };
    let sbcast = ProtocolSpec::SBroadcast { source: 0 };
    for near_radius in [1.5, f64::NAN] {
        let err = build(InterferenceMode::GridNative { near_radius }, sbcast.clone())
            .err()
            .expect("near radius below 2 must not build");
        assert!(matches!(err, SimError::Spec(_)), "{near_radius}: {err}");
        assert!(
            err.to_string().starts_with("invalid scenario: "),
            "an out-of-range knob is an invalid scenario, not a protocol mismatch: {err}"
        );
    }
    for p in [0.0, 2.0, f64::NAN] {
        let err = build(
            InterferenceMode::Exact,
            ProtocolSpec::FloodBroadcast { source: 0, p },
        )
        .err()
        .expect("flood probability outside (0, 1] must not build");
        assert!(matches!(err, SimError::Spec(_)), "p = {p}: {err}");
    }
    // The boundary values still build and run.
    build(
        InterferenceMode::GridNative { near_radius: 2.0 },
        ProtocolSpec::FloodBroadcast { source: 0, p: 1.0 },
    )
    .expect("boundary knobs are valid")
    .run(1)
    .expect("runs");
}
