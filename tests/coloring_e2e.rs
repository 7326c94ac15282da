//! End-to-end coloring properties via the facade, including randomized
//! property checks over seeded random deployments (plain seeded loops —
//! the offline build has no proptest, and seeded loops are replayable).

use rand::{Rng, SeedableRng, SmallRng};
use sinr_broadcast::core::{invariant_report, Coloring, Constants};
use sinr_broadcast::geometry::Point2;
use sinr_broadcast::netgen::{cluster, perturb};
use sinr_broadcast::phy::SinrParams;
use sinr_broadcast::sim::{Outcome, ProtocolSpec, Scenario};

fn fast() -> Constants {
    Constants {
        c0: 4.0,
        c2: 4.0,
        c_prime: 1,
        ..Constants::tuned()
    }
}

/// Runs one `StabilizeProbability` execution under [`fast`] constants and
/// returns the coloring.
fn stabilize(pts: Vec<Point2>, seed: u64) -> Coloring {
    let report = Scenario::new(pts)
        .constants(fast())
        .protocol(ProtocolSpec::Coloring)
        .build()
        .unwrap()
        .run(seed)
        .unwrap();
    assert!(report.completed, "the full Fact 7 schedule ran");
    match report.outcome {
        Outcome::Coloring { coloring } => coloring,
        other => panic!("expected coloring outcome, got {other:?}"),
    }
}

#[test]
fn colors_form_doubling_lattice() {
    let params = SinrParams::default_plane();
    let consts = fast();
    let pts = cluster::chain_for_diameter(4, 12, &params, 3);
    let n = pts.len();
    let coloring = stabilize(pts, 9);
    let p_start = consts.p_start(n);
    let terminal = 2.0 * consts.p_max();
    for &c in &coloring.colors {
        if (c - terminal).abs() < 1e-15 {
            continue;
        }
        let log = (c / p_start).log2();
        assert!(
            (log - log.round()).abs() < 1e-9,
            "color {c} not on the doubling lattice"
        );
    }
}

#[test]
fn palette_size_at_most_levels_plus_one() {
    let params = SinrParams::default_plane();
    let consts = fast();
    let pts = cluster::chain_for_diameter(4, 12, &params, 4);
    let n = pts.len();
    assert!(stabilize(pts, 11).num_colors() <= consts.num_levels(n) as usize + 1);
}

#[test]
fn rerunning_coloring_is_deterministic() {
    let params = SinrParams::default_plane();
    let pts = cluster::chain_for_diameter(3, 10, &params, 5);
    assert_eq!(stabilize(pts.clone(), 21), stabilize(pts, 21));
}

/// `ProtocolSpec::Coloring` reproduces, bit for bit, the round count and
/// coloring `StabilizeProbability` produced on this deployment under its
/// former standalone driver: all 40 stations at color 0.004.
#[test]
fn scenario_coloring_agrees_with_pinned_stabilize() {
    let params = SinrParams::default_plane();
    let pts = cluster::chain_for_diameter(3, 10, &params, 6);
    let rep = Scenario::new(pts)
        .constants(fast())
        .protocol(ProtocolSpec::Coloring)
        .build()
        .unwrap()
        .run(31)
        .unwrap();
    assert_eq!(rep.rounds, 48);
    match rep.outcome {
        Outcome::Coloring { ref coloring } => {
            assert_eq!(coloring.len(), 40);
            assert!(
                coloring
                    .colors
                    .iter()
                    .all(|c| c.to_bits() == 0x3f70_624d_d2f1_a9fc),
                "{coloring:?}"
            );
        }
        ref other => panic!("expected coloring outcome, got {other:?}"),
    }
}

/// On any random (min-separated) deployment, the coloring terminates with
/// every station colored, all colors positive and lattice-bounded, and the
/// Lemma 1 mass below a loose constant. Eight seeded random cases,
/// replayable by construction.
#[test]
fn coloring_invariants_on_random_deployments() {
    let params = SinrParams::default_plane();
    let consts = fast();
    for case in 0u64..8 {
        let mut rng = SmallRng::seed_from_u64(0xC010E + case);
        let n_pts = rng.gen_range(10usize..80);
        let seed = rng.gen_range(0u64..1000);
        let mut pts: Vec<Point2> = (0..n_pts)
            .map(|_| Point2::new(rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)))
            .collect();
        perturb::enforce_min_separation(&mut pts, 1e-6);
        let n = pts.len();
        let coloring = stabilize(pts.clone(), seed);
        assert_eq!(coloring.len(), n, "case {case}");
        let terminal = 2.0 * consts.p_max();
        for &c in &coloring.colors {
            assert!(c > 0.0 && c <= terminal + 1e-15, "case {case}: color {c}");
        }
        let rep = invariant_report(&pts, &coloring, params.eps());
        assert!(
            rep.max_unit_ball_mass <= consts.c1_cap * 8.0,
            "case {case}: lemma1 mass {} too large",
            rep.max_unit_ball_mass
        );
        assert!(rep.min_close_mass > 0.0, "case {case}");
    }
}
