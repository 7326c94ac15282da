//! The SINR reception oracle: who hears whom in one synchronous round.
//!
//! Given the set `T` of transmitting stations, station `u ∉ T` receives the
//! message of `v ∈ T` iff `SINR(v, u, T) ≥ β` (Equation 1 of the paper).
//! Since `β ≥ 1`, at most one transmitter can be decoded at any receiver —
//! necessarily the one with the strongest received signal — so the oracle
//! computes, per receiver, the total received power and the strongest
//! transmitter, then applies the threshold test.
//!
//! This module holds the mode enum, the round-outcome type and the one-shot
//! [`resolve_round`] entry point; the implementation (and the reusable,
//! zero-allocation round-resolution state) lives in
//! [`ReceptionOracle`].

use sinr_geometry::{GridIndex, MetricPoint};

use crate::oracle::ReceptionOracle;
use crate::params::SinrParams;

/// How interference sums are evaluated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InterferenceMode {
    /// Exact evaluation of Equation (1): every transmitter contributes to
    /// every receiver. Cost `O(|T|·n)` per round.
    Exact,
    /// The grid-native kernel: exact decode, approximate tail, shared per
    /// receiver cell — the recommended mode for large sweeps.
    ///
    /// Decode candidates are evaluated exactly per transmitter within
    /// Chebyshev key distance `⌈near_radius / cell side⌉` of the receiver's
    /// grid cell (every decodable signal comes from range ≤ 1 <
    /// `near_radius`, Equation 1), while all farther transmitter cells
    /// collapse into a single interference-tail term per *receiver cell*,
    /// evaluated once between the two cells' member centroids and shared by
    /// every receiver in the cell.
    ///
    /// The tail is approximated at both endpoints, carrying a relative
    /// error per far term of roughly `α·g·√2 / near_radius` (cell side
    /// `g`; both centroid offsets are at most `g·√2/2` and first-order
    /// errors partially cancel across a cell's members). Decode decisions
    /// are exact whenever the SINR margin exceeds that tail perturbation.
    ///
    /// The tail error is biased toward reception. `d^−α` is subharmonic in
    /// the plane (its Laplacian is `α²·d^{−α−2} > 0`), so for members
    /// spread about their centroids the centroid-to-centroid term
    /// under-estimates a far cell's mean interference. Less interference
    /// means a higher SINR, so near the threshold this mode decodes more
    /// transmissions that `Exact` drops than it drops transmissions that
    /// `Exact` decodes: on random transmitter sets over uniform density-30
    /// deployments, these false receptions outnumbered the false drops at
    /// every load measured (from 126:78 up to 1 638:978).
    ///
    /// Cost: `O(|T| log |T| + #cells·#tx-cells + near pairs)` per round,
    /// with no square-root/`powf` per far pair — measured ~27× faster than
    /// `Exact` at n = 10⁴, 2% load (the `oracle/` rows of `BENCH.json`).
    GridNative {
        /// Exact-evaluation radius (must be at least 2; default 4 balances
        /// the tail error against the near-pair count).
        near_radius: f64,
    },
}

impl InterferenceMode {
    /// The default grid-native fast mode (`near_radius = 4`): exact decode
    /// decisions, per-cell approximate interference tail.
    pub fn grid_native() -> Self {
        InterferenceMode::GridNative { near_radius: 4.0 }
    }

    /// Checks the mode's parameters — the one rule every entry point
    /// ([`crate::Network::with_interference_mode`], the oracle and the
    /// `Scenario` builder) applies: a grid-native `near_radius` must be at
    /// least 2 (range 1 plus one cell of slack), which also rejects NaN.
    ///
    /// # Errors
    ///
    /// A message naming the offending parameter.
    pub fn validate(self) -> Result<(), String> {
        match self {
            InterferenceMode::Exact => Ok(()),
            InterferenceMode::GridNative { near_radius } if near_radius >= 2.0 => Ok(()),
            InterferenceMode::GridNative { near_radius } => Err(format!(
                "grid-native near radius {near_radius} must be at least 2 \
                 (range 1 plus cell slack)"
            )),
        }
    }
}

/// Outcome of resolving one round of transmissions.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// `decoded_from[u] = Some(v)` iff station `u` successfully received the
    /// message transmitted by station `v` this round. Transmitters never
    /// decode (half-duplex): `decoded_from[u] = None` for `u ∈ T`.
    pub decoded_from: Vec<Option<usize>>,
    /// Number of transmitters this round.
    pub num_transmitters: usize,
}

impl RoundOutcome {
    /// An outcome with no stations and no transmitters — the reusable
    /// buffer fed to [`ReceptionOracle::resolve_into`].
    pub fn empty() -> Self {
        RoundOutcome {
            decoded_from: Vec::new(),
            num_transmitters: 0,
        }
    }

    /// Number of stations that decoded a message this round.
    pub fn num_receivers(&self) -> usize {
        self.decoded_from.iter().filter(|d| d.is_some()).count()
    }
}

/// Resolves one round: which stations decode which transmitter.
///
/// `transmitters` is the set `T` (indices into `points`, duplicates not
/// allowed). `grid` is required for [`InterferenceMode::GridNative`] and
/// ignored for exact evaluation.
///
/// This is the one-shot convenience wrapper: it builds a fresh
/// [`ReceptionOracle`] per call. Round loops should construct the oracle
/// once and call [`ReceptionOracle::resolve_into`] (or
/// [`crate::Network::resolve_with`]) to resolve rounds without allocating.
///
/// # Panics
///
/// Panics if a transmitter index is out of range, if the grid-native mode
/// is requested without a grid, or if its near radius fails
/// [`InterferenceMode::validate`] (which would corrupt even
/// interference-free receptions).
pub fn resolve_round<P: MetricPoint>(
    points: &[P],
    params: &SinrParams,
    transmitters: &[usize],
    mode: InterferenceMode,
    grid: Option<&GridIndex>,
) -> RoundOutcome {
    ReceptionOracle::new().resolve(points, params, transmitters, mode, grid)
}

/// Interference at station `u` from transmitter set `T`, excluding the
/// station nearest to `u` among `T` (the paper's definition of `I_u`,
/// Section 2). Exact evaluation.
pub fn interference_at<P: MetricPoint>(
    points: &[P],
    params: &SinrParams,
    transmitters: &[usize],
    u: usize,
) -> f64 {
    let nearest = transmitters
        .iter()
        .copied()
        .filter(|&t| t != u)
        .min_by(|&a, &b| {
            points[a]
                .distance(&points[u])
                .total_cmp(&points[b].distance(&points[u]))
        });
    let Some(nearest) = nearest else { return 0.0 };
    transmitters
        .iter()
        .copied()
        .filter(|&t| t != u && t != nearest)
        .map(|t| params.signal_at(points[t].distance(&points[u])))
        .sum()
}

/// Total received signal power at station `u` from all of `transmitters`
/// (the quantity `S_v` of Section 3.4, used by Facts 9–10).
pub fn total_signal_at<P: MetricPoint>(
    points: &[P],
    params: &SinrParams,
    transmitters: &[usize],
    u: usize,
) -> f64 {
    transmitters
        .iter()
        .copied()
        .filter(|&t| t != u)
        .map(|t| params.signal_at(points[t].distance(&points[u])))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geometry::Point2;

    fn params() -> SinrParams {
        SinrParams::default_plane()
    }

    #[test]
    fn lone_transmitter_reaches_range_one() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),   // exactly at range
            Point2::new(1.001, 0.0), // just beyond
        ];
        let out = resolve_round(&pts, &params(), &[0], InterferenceMode::Exact, None);
        assert_eq!(out.decoded_from[1], Some(0));
        assert_eq!(out.decoded_from[2], None);
        assert_eq!(out.decoded_from[0], None, "transmitter is half-duplex");
        assert_eq!(out.num_transmitters, 1);
        assert_eq!(out.num_receivers(), 1);
    }

    #[test]
    fn two_transmitters_jam_midpoint() {
        // Symmetric transmitters: the receiver in the middle sees SINR =
        // S/(N+S) < 1 <= beta, so it decodes nothing.
        let pts = vec![
            Point2::new(-0.5, 0.0),
            Point2::new(0.0, 0.0),
            Point2::new(0.5, 0.0),
        ];
        let out = resolve_round(&pts, &params(), &[0, 2], InterferenceMode::Exact, None);
        assert_eq!(out.decoded_from[1], None);
    }

    #[test]
    fn near_transmitter_beats_far_interference() {
        // One transmitter very close, another far: the close one decodes.
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.1, 0.0),
            Point2::new(10.0, 0.0),
        ];
        let out = resolve_round(&pts, &params(), &[0, 2], InterferenceMode::Exact, None);
        assert_eq!(out.decoded_from[1], Some(0));
    }

    #[test]
    fn no_transmitters_no_receptions() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(0.5, 0.0)];
        let out = resolve_round(&pts, &params(), &[], InterferenceMode::Exact, None);
        assert!(out.decoded_from.iter().all(Option::is_none));
        assert_eq!(out.num_transmitters, 0);
    }

    #[test]
    fn all_transmit_nobody_receives() {
        let pts: Vec<Point2> = (0..5).map(|i| Point2::new(i as f64 * 0.3, 0.0)).collect();
        let tx: Vec<usize> = (0..5).collect();
        let out = resolve_round(&pts, &params(), &tx, InterferenceMode::Exact, None);
        assert!(out.decoded_from.iter().all(Option::is_none));
    }

    #[test]
    fn interference_at_excludes_nearest() {
        let pts = vec![
            Point2::new(0.0, 0.0), // u
            Point2::new(0.5, 0.0), // nearest transmitter
            Point2::new(2.0, 0.0), // other transmitter
        ];
        let p = params();
        let i = interference_at(&pts, &p, &[1, 2], 0);
        assert!((i - p.signal_at(2.0)).abs() < 1e-12);
        assert_eq!(interference_at(&pts, &p, &[], 0), 0.0);
        assert_eq!(interference_at(&pts, &p, &[0], 0), 0.0, "self excluded");
    }

    #[test]
    fn total_signal_sums_everything() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.5, 0.0),
            Point2::new(2.0, 0.0),
        ];
        let p = params();
        let s = total_signal_at(&pts, &p, &[1, 2], 0);
        assert!((s - (p.signal_at(0.5) + p.signal_at(2.0))).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn out_of_range_transmitter_panics() {
        let pts = vec![Point2::origin()];
        let _ = resolve_round(&pts, &params(), &[3], InterferenceMode::Exact, None);
    }

    #[test]
    fn grid_native_mode_constructor() {
        assert_eq!(
            InterferenceMode::grid_native(),
            InterferenceMode::GridNative { near_radius: 4.0 }
        );
    }

    #[test]
    fn validate_accepts_the_minimum_and_rejects_below_it_and_nan() {
        assert_eq!(InterferenceMode::Exact.validate(), Ok(()));
        assert_eq!(InterferenceMode::grid_native().validate(), Ok(()));
        assert_eq!(
            InterferenceMode::GridNative { near_radius: 2.0 }.validate(),
            Ok(())
        );
        for bad in [1.5, f64::NAN, f64::NEG_INFINITY] {
            let err = InterferenceMode::GridNative { near_radius: bad }
                .validate()
                .unwrap_err();
            assert!(err.contains("near radius"), "{err}");
        }
    }

    #[test]
    fn deterministic_tie_break_lowest_index() {
        // Two transmitters at identical distance from the receiver: the
        // receiver fails (beta >= 1 means equal signals jam each other), but
        // best_idx must still be deterministic; check via a beta=1 boundary
        // where one signal slightly dominates after perturbation.
        let pts = vec![
            Point2::new(-0.4, 0.0),
            Point2::new(0.0, 0.0),
            Point2::new(0.4, 0.0),
        ];
        let out1 = resolve_round(&pts, &params(), &[0, 2], InterferenceMode::Exact, None);
        let out2 = resolve_round(&pts, &params(), &[2, 0], InterferenceMode::Exact, None);
        assert_eq!(out1, out2, "outcome independent of transmitter order");
    }
}
