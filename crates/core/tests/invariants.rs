//! Integration tests: the coloring invariants (Lemmas 1 and 2) hold under
//! the tuned constants across the experiment topology families.
//!
//! The asserted bounds are deliberately loose multiples of the configured
//! constants — the lemmas promise *some* constants C₁, C₂ independent of n
//! and topology; experiments E2/E3 chart the exact values.

use sinr_core::sim::{Outcome, ProtocolSpec, Scenario};
use sinr_core::{invariant_report, Constants};
use sinr_netgen::{cluster, line, uniform};
use sinr_phy::SinrParams;

/// Loose upper bound certifying "Lemma 1-like" behaviour.
fn lemma1_bound(consts: &Constants) -> f64 {
    consts.c1_cap * 4.0
}

/// Loose lower bound certifying "Lemma 2-like" behaviour: never-quitting
/// stations contribute their own `2·p_max`, and the Playoff gate should not
/// let anyone quit with close-ball mass far below `p_max`.
fn lemma2_bound(consts: &Constants) -> f64 {
    consts.p_max / 2.0
}

fn check(points: Vec<sinr_geometry::Point2>, label: &str, seed: u64) {
    let params = SinrParams::default_plane();
    let consts = Constants::tuned();
    let n = points.len();
    let run = Scenario::new(points.clone())
        .params(params)
        .constants(consts)
        .protocol(ProtocolSpec::Coloring)
        .build()
        .expect("valid scenario")
        .run(seed)
        .expect("network valid");
    let Outcome::Coloring { coloring } = run.outcome else {
        panic!("expected coloring outcome, got {:?}", run.outcome);
    };
    let report = invariant_report(&points, &coloring, params.eps());
    eprintln!(
        "[{label}] n={n} colors={} lemma1={:.3} lemma2={:.4}",
        report.num_colors, report.max_unit_ball_mass, report.min_close_mass
    );
    assert!(
        report.max_unit_ball_mass <= lemma1_bound(&consts),
        "[{label}] Lemma 1 violated: max per-color unit-ball mass {} > {}",
        report.max_unit_ball_mass,
        lemma1_bound(&consts)
    );
    assert!(
        report.min_close_mass >= lemma2_bound(&consts),
        "[{label}] Lemma 2 violated: min close-ball best-color mass {} < {}",
        report.min_close_mass,
        lemma2_bound(&consts)
    );
    // Fact: the number of colors is O(log n) — concretely bounded by the
    // number of doubling levels plus the terminal color.
    assert!(
        report.num_colors as u64 <= consts.num_levels(n) as u64 + 1,
        "[{label}] too many colors: {}",
        report.num_colors
    );
}

#[test]
fn invariants_on_uniform_square() {
    let params = SinrParams::default_plane();
    let pts = uniform::connected_square(192, 2.5, &params, 11).expect("connected instance");
    check(pts, "uniform", 1);
}

#[test]
fn invariants_on_dense_uniform_square() {
    let params = SinrParams::default_plane();
    let pts = uniform::connected_square(256, 1.2, &params, 13).expect("connected instance");
    check(pts, "dense-uniform", 2);
}

#[test]
fn invariants_on_cluster_chain() {
    let params = SinrParams::default_plane();
    let pts = cluster::chain_for_diameter(6, 24, &params, 17);
    check(pts, "cluster-chain", 3);
}

#[test]
fn invariants_on_geometric_line() {
    // The adversarial footnote-2 construction: exponentially varying gaps.
    let pts = line::halving_line(48, 0.5, 0.5, 2e-9);
    check(pts, "geometric-line", 4);
}

#[test]
fn invariants_on_granularity_line() {
    let params = SinrParams::default_plane();
    let pts = line::granularity_line(64, params.comm_radius(), 1e6, 2e-9);
    check(pts, "granularity-line", 5);
}
