//! Property-based tests of the SINR reception oracle, driven by seeded
//! random deployments (plain loops over a seeded RNG — the offline build
//! has no proptest; every case is replayable from its printed case id).

use rand::{Rng, SeedableRng, SmallRng};
use sinr_geometry::{MetricPoint, Point2};
use sinr_phy::{interference_at, resolve_round, total_signal_at, InterferenceMode, SinrParams};

const CASES: u64 = 32;

/// Nudges duplicate points apart (netgen has the full version; phy cannot
/// dev-depend on it without a cycle).
fn separate(pts: &mut [Point2]) {
    let mut k = 0u32;
    for i in 0..pts.len() {
        for j in (i + 1)..pts.len() {
            if pts[i].distance(&pts[j]) < 1e-6 {
                k += 1;
                pts[j] = pts[j].translate(1e-5 * k as f64, 1e-5);
            }
        }
    }
}

/// Random deployment of 2..max points in a 6×6 square.
fn random_points(rng: &mut SmallRng, max: usize) -> Vec<Point2> {
    let n = rng.gen_range(2usize..max);
    let mut pts: Vec<Point2> = (0..n)
        .map(|_| Point2::new(rng.gen_range(0.0..6.0), rng.gen_range(0.0..6.0)))
        .collect();
    separate(&mut pts);
    pts
}

/// Adding a transmitter never *improves* any other station's SINR: a
/// station that decoded transmitter v keeps decoding v or loses the
/// reception (possibly to the new transmitter) — it can never start
/// decoding a previously-jammed third party.
#[test]
fn adding_a_transmitter_is_monotone() {
    let params = SinrParams::default_plane();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xA0_0001 + case);
        let pts = random_points(&mut rng, 24);
        let n = pts.len();
        let extra = rng.gen_range(0usize..24) % n;
        // Base transmitter set: every third station, excluding `extra`.
        let base: Vec<usize> = (0..n).step_by(3).filter(|&i| i != extra).collect();
        if base.is_empty() {
            continue;
        }
        let before = resolve_round(&pts, &params, &base, InterferenceMode::Exact, None);
        let mut extended = base.clone();
        extended.push(extra);
        let after = resolve_round(&pts, &params, &extended, InterferenceMode::Exact, None);
        for u in 0..n {
            if u == extra {
                continue; // became a transmitter, loses reception by design
            }
            if let Some(v_after) = after.decoded_from[u] {
                // Any reception surviving the extra interference must be
                // from the old decoded transmitter or from the newcomer.
                assert!(
                    before.decoded_from[u] == Some(v_after) || v_after == extra,
                    "case {case}: station {u} decoded {v_after:?} only after interference grew"
                );
            }
        }
    }
}

/// With β ≥ 1, at most one station transmits successfully *to* any
/// receiver, and every decoded transmitter is the nearest one among those
/// the receiver could possibly decode.
#[test]
fn decoded_transmitter_is_strongest() {
    let params = SinrParams::default_plane();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xA0_1001 + case);
        let pts = random_points(&mut rng, 20);
        let n = pts.len();
        let tx: Vec<usize> = (0..n).step_by(2).collect();
        let out = resolve_round(&pts, &params, &tx, InterferenceMode::Exact, None);
        for u in 0..n {
            if let Some(v) = out.decoded_from[u] {
                let dv = pts[u].distance(&pts[v]);
                for &w in &tx {
                    if w != u {
                        assert!(
                            pts[u].distance(&pts[w]) >= dv - 1e-12,
                            "case {case}: decoded transmitter was not the closest"
                        );
                    }
                }
            }
        }
    }
}

/// Total signal decomposes: total = interference + strongest-excluded
/// part, and both are non-negative and finite.
#[test]
fn interference_below_total_signal() {
    let params = SinrParams::default_plane();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xA0_2001 + case);
        let pts = random_points(&mut rng, 20);
        let n = pts.len();
        let tx: Vec<usize> = (0..n).step_by(2).collect();
        for u in 0..n {
            let total = total_signal_at(&pts, &params, &tx, u);
            let interference = interference_at(&pts, &params, &tx, u);
            assert!(total.is_finite() && interference.is_finite(), "case {case}");
            assert!(interference >= 0.0, "case {case}");
            assert!(interference <= total + 1e-12, "case {case}");
        }
    }
}

/// Reception requires being within the unit communication range: no
/// station ever decodes a transmitter farther than 1.
#[test]
fn no_reception_beyond_range() {
    let params = SinrParams::default_plane();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xA0_4001 + case);
        let pts = random_points(&mut rng, 24);
        let n = pts.len();
        let tx: Vec<usize> = (0..n).step_by(3).collect();
        let out = resolve_round(&pts, &params, &tx, InterferenceMode::Exact, None);
        for u in 0..n {
            if let Some(v) = out.decoded_from[u] {
                assert!(
                    pts[u].distance(&pts[v]) <= params.range() + 1e-12,
                    "case {case}"
                );
            }
        }
    }
}
