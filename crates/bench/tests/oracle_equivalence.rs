//! Property-style equivalence tests for the stateful `ReceptionOracle`.
//!
//! For every netgen family (uniform, cluster, line, grid) and several
//! seeds:
//!
//! * `Exact` is pinned **bit-for-bit** against a reference built from
//!   phy's one-receiver functions: every station's total received power
//!   equals [`total_signal_at`] bitwise, and every decode decision equals
//!   a strongest-first reference — take the strongest transmitter (the
//!   first in transmitter order on ties), then apply
//!   [`SinrParams::decodable`] to it against the rest of the total;
//! * the one-shot `resolve_round` and a reused oracle agree
//!   field-for-field in both modes;
//! * grid-native decode decisions agree with exact physics wherever the
//!   SINR margin exceeds its documented tail error, which these
//!   spread-out families guarantee.

use rand::{Rng, SeedableRng, SmallRng};
use sinr_geometry::{GridIndex, MetricPoint, Point2};
use sinr_netgen::{cluster, grid as netgrid, line, uniform};
use sinr_phy::{
    resolve_round, total_signal_at, InterferenceMode, ReceptionOracle, RoundOutcome, SinrParams,
};

/// Seeded transmitter subset: every station transmits with probability
/// `p`, replayable from `seed`.
fn draw_tx(n: usize, p: f64, seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).filter(|_| rng.gen_range(0.0..1.0) < p).collect()
}

fn families(seed: u64) -> Vec<(&'static str, Vec<Point2>)> {
    vec![
        (
            "uniform",
            uniform::square(300, uniform::side_for_density(300, 12.0), seed),
        ),
        (
            "cluster",
            cluster::chain_of_clusters(8, 30, 0.35, 0.07, seed),
        ),
        (
            "line",
            line::halving_line(120, 0.45, 0.97, 0.05), // deterministic family: vary tx by seed instead
        ),
        ("grid", netgrid::jittered_lattice(15, 20, 0.7, 0.2, seed)),
    ]
}

fn both_modes() -> [InterferenceMode; 2] {
    [InterferenceMode::Exact, InterferenceMode::grid_native()]
}

/// Equation (1) decided one receiver at a time: the strongest
/// transmitter other than `u` (first on ties) is decoded iff its SINR
/// against the rest of `u`'s total received power reaches β.
fn strongest_first_decision<P: MetricPoint>(
    points: &[P],
    params: &SinrParams,
    transmitters: &[usize],
    u: usize,
) -> Option<usize> {
    if transmitters.contains(&u) {
        return None; // half-duplex
    }
    let mut strongest: Option<(usize, f64)> = None;
    for &t in transmitters {
        let s = params.signal_at(points[t].distance(&points[u]));
        match strongest {
            Some((_, best)) if s <= best => {}
            _ => strongest = Some((t, s)),
        }
    }
    let (t, s) = strongest?;
    let total = total_signal_at(points, params, transmitters, u);
    params.decodable(s, total - s).then_some(t)
}

#[test]
fn exact_matches_the_per_receiver_reference_bit_for_bit() {
    let params = SinrParams::default_plane();
    let mut oracle = ReceptionOracle::new();
    let mut out = RoundOutcome::empty();
    let mut receivers = 0;
    for seed in [1u64, 2, 3] {
        for (family, pts) in families(seed) {
            let tx = draw_tx(pts.len(), 0.08, seed * 1000 + 13);
            oracle.resolve_into(&pts, &params, &tx, InterferenceMode::Exact, None, &mut out);
            assert_eq!(out.num_transmitters, tx.len());
            for u in 0..pts.len() {
                let reference = total_signal_at(&pts, &params, &tx, u);
                assert_eq!(
                    oracle.received_power()[u].to_bits(),
                    reference.to_bits(),
                    "{family} seed {seed}: total power at {u}"
                );
                assert_eq!(
                    out.decoded_from[u],
                    strongest_first_decision(&pts, &params, &tx, u),
                    "{family} seed {seed}: decision at {u}"
                );
                receivers += 1;
            }
        }
    }
    assert_eq!(receivers, 2880, "4 families × 3 seeds");
}

#[test]
fn oracle_matches_resolve_round_field_for_field() {
    let params = SinrParams::default_plane();
    let mut oracle = ReceptionOracle::new();
    let mut out = RoundOutcome::empty();
    for seed in [1u64, 2, 3] {
        for (family, pts) in families(seed) {
            let grid = GridIndex::build(&pts, 1.0);
            let tx = draw_tx(pts.len(), 0.05, seed * 1000 + 7);
            for mode in both_modes() {
                let free = resolve_round(&pts, &params, &tx, mode, Some(&grid));
                // The reused oracle (warm scratch from previous families
                // and modes) must agree field-for-field.
                oracle.resolve_into(&pts, &params, &tx, mode, Some(&grid), &mut out);
                assert_eq!(
                    free, out,
                    "{family} seed {seed} {mode:?}: oracle != resolve_round"
                );
                assert_eq!(free.num_transmitters, tx.len());
            }
        }
    }
}

#[test]
fn grid_native_agrees_with_exact_decisions_on_spread_families() {
    let params = SinrParams::default_plane();
    let mut worst = 0usize;
    for seed in [1u64, 2, 3] {
        for (family, pts) in families(seed) {
            let grid = GridIndex::build(&pts, 1.0);
            let tx = draw_tx(pts.len(), 0.05, seed * 1000 + 29);
            let exact = resolve_round(&pts, &params, &tx, InterferenceMode::Exact, None);
            let native = resolve_round(
                &pts,
                &params,
                &tx,
                InterferenceMode::grid_native(),
                Some(&grid),
            );
            let disagreements = exact
                .decoded_from
                .iter()
                .zip(&native.decoded_from)
                .filter(|(a, b)| a != b)
                .count();
            worst = worst.max(disagreements);
            assert!(
                disagreements * 100 <= pts.len(),
                "{family} seed {seed}: {disagreements}/{} decisions flipped",
                pts.len()
            );
        }
    }
    // Across all 12 family/seed combinations the kernel should be
    // essentially exact at these densities.
    assert!(worst <= 3, "worst-case disagreement {worst} too high");
}
