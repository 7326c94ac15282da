//! Model-variant tests: 1-dimensional metrics (γ = 1), population
//! estimates ν > n, and parameter uncertainty (algorithm plans with bounds
//! while the channel uses the exact values). The `Scenario` builder is
//! generic over the metric point type, so the same protocol code runs on
//! 1D, 2D and 3D deployments.

use sinr_broadcast::core::Constants;
use sinr_broadcast::geometry::{MetricPoint, Point1};
use sinr_broadcast::netgen::line;
use sinr_broadcast::phy::{ParamBounds, SinrParams};
use sinr_broadcast::sim::{ProtocolSpec, Scenario, SimError};

fn fast() -> Constants {
    Constants {
        c0: 4.0,
        c2: 4.0,
        c_prime: 1,
        ..Constants::tuned()
    }
}

fn s_broadcast<P: MetricPoint>(
    pts: Vec<P>,
    params: &SinrParams,
    consts: Constants,
    seed: u64,
    budget: u64,
) -> Result<sinr_broadcast::sim::RunReport, SimError> {
    Scenario::new(pts)
        .params(*params)
        .constants(consts)
        .protocol(ProtocolSpec::SBroadcast { source: 0 })
        .budget(budget)
        .build()?
        .run(seed)
}

#[test]
fn broadcast_in_one_dimensional_metric() {
    // γ = 1 requires only α > 1; the whole stack is generic over the point
    // type, so the same protocol code runs on a true line metric.
    let params = SinrParams::default_line();
    assert_eq!(params.gamma(), 1.0);
    let pts: Vec<Point1> = (0..10).map(|i| Point1::new(i as f64 * 0.45)).collect();
    let rep = s_broadcast(pts, &params, fast(), 3, 2_000_000).expect("valid 1D network");
    assert!(rep.completed, "{rep:?}");
}

#[test]
fn geometric_line_in_one_dimension() {
    let params = SinrParams::default_line();
    let pts = line::halving_line_1d(16, 0.5, 0.5, 2e-9);
    let rep = s_broadcast(pts, &params, fast(), 5, 2_000_000).expect("valid");
    assert!(rep.completed, "{rep:?}");
}

#[test]
fn broadcast_in_three_dimensional_metric() {
    use sinr_broadcast::geometry::Point3;
    // γ = 3 needs α > 3; a vertical helix of stations keeps D moderate.
    let params = SinrParams::builder()
        .alpha(4.0)
        .build(3.0)
        .expect("valid 3D params");
    let pts: Vec<Point3> = (0..12)
        .map(|i| {
            let t = i as f64 * 0.8;
            Point3::new(0.3 * t.cos(), 0.3 * t.sin(), i as f64 * 0.25)
        })
        .collect();
    let rep = s_broadcast(pts, &params, fast(), 7, 2_000_000).expect("valid 3D network");
    assert!(rep.completed, "{rep:?}");
}

#[test]
fn population_estimate_slows_but_never_breaks() {
    let params = SinrParams::default_plane();
    let consts = fast();
    let pts = line::uniform_line(8, 0.45);
    let exact = s_broadcast(pts.clone(), &params, consts, 11, 3_000_000).unwrap();
    let inflated = Scenario::new(pts)
        .params(params)
        .constants(consts)
        .protocol(ProtocolSpec::SBroadcastWithEstimate {
            source: 0,
            nu: 8 * 16,
        })
        .budget(3_000_000)
        .build()
        .unwrap()
        .run(11)
        .unwrap();
    assert!(exact.completed && inflated.completed);
    // The coloring schedule alone grows with log nu.
    assert!(
        consts.coloring_rounds(8 * 16) >= consts.coloring_rounds(8),
        "schedule must not shrink under inflation"
    );
}

#[test]
fn estimate_below_population_is_rejected() {
    for spec in [
        ProtocolSpec::SBroadcastWithEstimate { source: 0, nu: 3 },
        ProtocolSpec::NoSBroadcastWithEstimate { source: 0, nu: 3 },
    ] {
        let err = Scenario::new(line::uniform_line(8, 0.45))
            .constants(fast())
            .protocol(spec)
            .budget(1000)
            .build()
            .unwrap()
            .run(1)
            .unwrap_err();
        assert!(matches!(err, SimError::Spec(_)), "{err}");
    }
}

#[test]
fn planning_with_parameter_bounds_still_completes() {
    // The channel runs the *true* parameters; the algorithm only knows
    // ±15% ranges and derives conservative planning constants. Using the
    // bounds-derived c_eps (the only bound-sensitive tuned constant) the
    // broadcast must still complete.
    let truth = SinrParams::default_plane();
    let bounds = ParamBounds::around(&truth, 0.15).unwrap();
    // Conservative planning: scale the Playoff jam up by the worst-case
    // ratio the bounds allow (weakest epsilon-range signal).
    let ratio =
        (1.0 / truth.eps()).powf(bounds.alpha_max()) / (1.0 / truth.eps()).powf(truth.alpha());
    let planned = Constants {
        c_eps: Constants::tuned().c_eps * ratio.max(1.0),
        ..fast()
    };
    let pts = line::uniform_line(10, 0.45);
    let rep = s_broadcast(pts, &truth, planned, 13, 3_000_000).unwrap();
    assert!(rep.completed, "{rep:?}");
}

#[test]
fn paper_constants_from_bounds_are_usable() {
    // Sanity: the literal paper constants derived from bounds produce a
    // well-formed schedule (they are far too conservative to *run* at any
    // useful size — asserted, not hidden).
    let truth = SinrParams::default_plane();
    let bounds = ParamBounds::around(&truth, 0.1).unwrap();
    let consts = Constants::paper_from_bounds(&bounds, truth.eps(), truth.gamma());
    assert!(consts.c_eps.is_finite() && consts.c_eps > 0.0);
    assert!(consts.coloring_rounds(1024) > 0);
    assert!(
        consts.coloring_rounds(1024) > Constants::tuned().coloring_rounds(1024),
        "paper constants must be the conservative ones"
    );
}
