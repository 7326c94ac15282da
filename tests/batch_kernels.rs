//! The batch-kernel contract: every batched kernel is **bitwise
//! identical, per element,** to the scalar function it batches.
//!
//! Two layers of pinning:
//!
//! 1. kernel level — `distance_sq_batch` against
//!    [`MetricPoint::distance_sq`] and `signal_at_sq_batch` against
//!    [`SinrParams::signal_at_sq`], compared `to_bits()`-element-wise
//!    across point families (uniform / cluster / line / grid) × axes
//!    {1, 2, 3} × α ∈ {2, 3, 4, 2.5} × slice lengths around one 64-element
//!    chunk × the `MIN_DISTANCE` clamp boundary;
//! 2. predicate level — the sqrt-free ball criterion
//!    ([`radius_criterion`]) probed exhaustively through the ulp
//!    neighborhood of its boundary against the `d2.sqrt() <= radius`
//!    test it replaces, directly and through `for_each_within_sq`.
//!
//! Thread-count byte identity of whole `RunReport`s is pinned in
//! `tests/mode_determinism.rs`.

use rand::{Rng, SeedableRng, SmallRng};

use sinr_broadcast::geometry::{
    radius_criterion, MetricPoint, Point1, Point2, Point3, PositionStore,
};
use sinr_broadcast::phy::SinrParams;

/// `MIN_DISTANCE²` — the clamp floor of `signal_at_sq*`.
const MIN2: f64 = SinrParams::MIN_DISTANCE * SinrParams::MIN_DISTANCE;

fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// The slice lengths the battery sweeps: the empty and singleton cases,
/// short lengths with odd remainders, and both sides of one 64-element
/// chunk.
const LENGTHS: [usize; 9] = [0, 1, 2, 3, 5, 19, 63, 64, 65];

/// One 3-axis coordinate set per point family, `n` points from `seed`.
fn family_points(family: &str, n: usize, seed: u64) -> Vec<[f64; 3]> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| match family {
            "uniform" => [
                rng.gen_range(-50.0..50.0),
                rng.gen_range(-50.0..50.0),
                rng.gen_range(-50.0..50.0),
            ],
            "cluster" => {
                // A handful of tight clusters: many near-equal distances,
                // so the comparison boundary gets real traffic.
                let c = (i % 5) as f64 * 17.0;
                [
                    c + rng.gen_range(-0.25..0.25),
                    c + rng.gen_range(-0.25..0.25),
                    c + rng.gen_range(-0.25..0.25),
                ]
            }
            "line" => {
                // Collinear points: degenerate geometry where one axis
                // carries all the signal and the others cancel exactly.
                let t = i as f64 * 0.73;
                [t, 2.0 * t, -t]
            }
            "grid" => {
                // Exact lattice coordinates — subtractions are exact, so
                // any divergence would come from the kernel alone.
                [(i % 7) as f64, ((i / 7) % 7) as f64, (i / 49) as f64]
            }
            other => panic!("unknown family {other}"),
        })
        .collect()
}

const FAMILIES: [&str; 4] = ["uniform", "cluster", "line", "grid"];

fn points<P: MetricPoint>(pts: &[[f64; 3]]) -> Vec<P> {
    pts.iter().map(|&p| P::from_coords(p)).collect()
}

/// The `axes`-dimensional store over 3-axis samples.
fn store_for(axes: usize, pts: &[[f64; 3]]) -> PositionStore {
    match axes {
        1 => PositionStore::from_points(&points::<Point1>(pts)),
        2 => PositionStore::from_points(&points::<Point2>(pts)),
        _ => PositionStore::from_points(&points::<Point3>(pts)),
    }
}

/// The scalar element function `distance_sq_batch` must match bit for
/// bit: [`MetricPoint::distance_sq`] in `axes` dimensions.
fn distance_sq(axes: usize, a: [f64; 3], b: [f64; 3]) -> f64 {
    fn on<P: MetricPoint>(a: [f64; 3], b: [f64; 3]) -> f64 {
        P::from_coords(a).distance_sq(&P::from_coords(b))
    }
    match axes {
        1 => on::<Point1>(a, b),
        2 => on::<Point2>(a, b),
        _ => on::<Point3>(a, b),
    }
}

#[test]
fn distance_kernels_match_scalar_bitwise_across_families_axes_and_lengths() {
    for family in FAMILIES {
        for axes in [1usize, 2, 3] {
            for (li, &len) in LENGTHS.iter().enumerate() {
                let seed = 1000 + li as u64;
                let pts = family_points(family, len + 1, seed);
                let store = store_for(axes, &pts);
                let center = pts[len]; // a same-family center, unused slot
                let mut out = vec![f64::NAN; len];
                store.distance_sq_batch(0..len, &center, &mut out);
                for (k, got) in out.iter().enumerate() {
                    let want = distance_sq(axes, pts[k], center);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{family}/ax{axes}/len{len}: slot {k} diverged ({got} vs {want})",
                    );
                }
                // Misaligned start: the range need not begin at slot 0.
                if len > 1 {
                    store.distance_sq_batch(1..len, &center, &mut out[..len - 1]);
                    for (k, got) in out[..len - 1].iter().enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            distance_sq(axes, pts[k + 1], center).to_bits(),
                            "{family}/ax{axes}/len{len}: offset slot {k} diverged"
                        );
                    }
                }
            }
        }
    }
}

/// Squared-distance inputs that straddle the `MIN_DISTANCE` clamp floor
/// ulp-by-ulp, plus ordinary magnitudes.
fn clamp_boundary_inputs() -> Vec<f64> {
    vec![
        0.0,
        f64::MIN_POSITIVE,
        MIN2 / 2.0,
        next_down(MIN2),
        MIN2,
        next_up(MIN2),
        MIN2 * 2.0,
        1e-12,
        1.0,
        1.0 + f64::EPSILON,
        42.75,
        1e12,
    ]
}

#[test]
fn signal_kernels_match_scalar_bitwise_for_every_alpha_path() {
    // α ∈ {2, 3, 4} exercise the integer-exponent fast paths; 2.5
    // exercises the generic-α powf path. The per-element contract is
    // `signal_at_sq` itself.
    for alpha in [2.0, 3.0, 4.0, 2.5] {
        let params = SinrParams::builder()
            .alpha(alpha)
            .build(1.5)
            .expect("valid test params");
        for family in FAMILIES {
            for (li, &len) in LENGTHS.iter().enumerate() {
                let pts = family_points(family, len + 1, 2000 + li as u64);
                let mut d2 = vec![0.0f64; len];
                store_for(3, &pts).distance_sq_batch(0..len, &pts[len], &mut d2);
                let mut out = d2.clone();
                params.signal_at_sq_batch(&mut out);
                for (k, (&d2, got)) in d2.iter().zip(&out).enumerate() {
                    let want = params.signal_at_sq(d2);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "alpha {alpha} {family}/len{len}: slot {k} (d2={d2}) produced {got} vs {want}",
                    );
                }
            }
        }
    }
}

#[test]
fn signal_batch_agrees_with_the_documented_scalar_element_function() {
    // The same contract at the `MIN_DISTANCE` clamp boundary.
    for alpha in [2.0, 3.0, 4.0, 2.5] {
        let params = SinrParams::builder()
            .alpha(alpha)
            .build(1.5)
            .expect("valid test params");
        let inputs = clamp_boundary_inputs();
        let mut batch = inputs.clone();
        params.signal_at_sq_batch(&mut batch);
        for (k, &d2) in inputs.iter().enumerate() {
            assert_eq!(
                batch[k].to_bits(),
                params.signal_at_sq(d2).to_bits(),
                "alpha {alpha}: batch[{k}] (d2={d2}) disagrees with signal_at_sq"
            );
        }
    }
}

#[test]
fn for_each_within_sq_matches_the_sqrt_predicate() {
    for family in FAMILIES {
        for n in [0usize, 1, 7, 64, 65, 257] {
            let pts = family_points(family, n.max(1), 31 + n as u64);
            let store = store_for(2, &pts);
            let center = [0.5, -0.5, 0.0];
            // A radius that puts a meaningful fraction of each family
            // inside the ball.
            for radius in [0.0, 3.0, 40.0] {
                let mut sqrt_free = Vec::new();
                store.for_each_within_sq(0..n, &center, radius_criterion(radius), |s| {
                    sqrt_free.push(s);
                });
                let mut sqrt_path = Vec::new();
                store.for_each_within(0..n, &center, radius, |s| sqrt_path.push(s));
                assert_eq!(
                    sqrt_free, sqrt_path,
                    "{family}/n{n}/r{radius}: sqrt-free differs from the sqrt predicate"
                );
            }
        }
    }
}

#[test]
fn radius_criterion_boundary_is_bit_equivalent_through_the_ulp_neighborhood() {
    // For each radius, walk the squared-distance axis ulp-by-ulp through
    // the criterion boundary and demand the sqrt-free predicate makes the
    // exact same decision as the sqrt test at every probe.
    let radii = [
        0.0,
        f64::MIN_POSITIVE,
        SinrParams::MIN_DISTANCE,
        0.75,
        1.0,
        next_up(1.0),
        3.0_f64.sqrt(),
        42.0,
        1e155, // near the overflow edge of squaring
    ];
    for r in radii {
        let c = radius_criterion(r);
        assert!(
            c.sqrt() <= r,
            "criterion itself must satisfy the predicate (r={r})"
        );
        if c.is_finite() && c > 0.0 {
            assert!(
                next_up(c).sqrt() > r,
                "criterion must be the LARGEST satisfying d2 (r={r})"
            );
        }
        let lo = if c.to_bits() >= 512 {
            c.to_bits() - 512
        } else {
            0
        };
        for bits in lo..=c.to_bits() + 512 {
            let d2 = f64::from_bits(bits);
            assert_eq!(
                d2 <= c,
                d2.sqrt() <= r,
                "r={r}: decisions split at d2={d2:e} (bits {bits:#x})"
            );
        }
    }
    // Degenerate radii: NaN and negatives admit nothing, +inf everything.
    assert_eq!(radius_criterion(f64::NAN), f64::NEG_INFINITY);
    assert_eq!(radius_criterion(-1.0), f64::NEG_INFINITY);
    assert_eq!(radius_criterion(f64::INFINITY), f64::INFINITY);
    // A NaN distance is unordered against any criterion, so it never
    // enters a ball — matching the NaN-propagating sqrt test.
    assert!(f64::NAN
        .partial_cmp(&radius_criterion(f64::INFINITY))
        .is_none());
}

#[test]
fn store_level_ball_decisions_agree_at_deliberately_boundary_distances() {
    // 1-axis points manufactured to land their computed squared distance
    // inside the ulp neighborhood of the criterion: x = sqrt(probe), so
    // RN(x²) clusters within an ulp or two of the probe value. Whatever
    // d2 actually materializes, both paths must agree on it.
    let radius = 2.5f64;
    let criterion = radius_criterion(radius);
    let mut probes = Vec::new();
    for delta in -40i64..=40 {
        let bits = (criterion.to_bits() as i64 + delta) as u64;
        probes.push(f64::from_bits(bits).sqrt());
    }
    let store =
        PositionStore::from_points(&probes.iter().map(|&x| Point1::new(x)).collect::<Vec<_>>());
    let center = [0.0, 0.0, 0.0];
    let n = probes.len();
    let mut fast = Vec::new();
    store.for_each_within_sq(0..n, &center, criterion, |s| fast.push(s));
    let mut sqrt_path = Vec::new();
    store.for_each_within(0..n, &center, radius, |s| sqrt_path.push(s));
    assert_eq!(fast, sqrt_path, "sqrt-free ball differs at the boundary");
    assert!(
        !fast.is_empty() && fast.len() < n,
        "probe set must actually straddle the boundary (got {}/{n} inside)",
        fast.len()
    );
}
