//! Structure-of-arrays position storage for batched distance kernels.
//!
//! The scalar hot loops of the physical layer spend most of their time
//! computing `distance_sq` between one query point and the members of a
//! grid cell. Stored as an array of point structs, each member costs a
//! strided load; stored as *split per-axis arrays* the same loop is a
//! handful of contiguous loads, a fused multiply-add per axis and one
//! store — exactly the shape LLVM autovectorizes.
//!
//! [`PositionStore`] holds those split arrays. The canonical instance
//! lives inside [`crate::GridIndex`], keyed by the index's CSR **slot**
//! order (slot `s` holds the coordinates of point `ids[s]`), so a cell's
//! members occupy one contiguous slot range and every batched query walks
//! straight through memory. Secondary instances can be rebuilt per round
//! (see [`PositionStore::clear`] / [`PositionStore::push`]) to hold e.g.
//! the positions of the current transmitter set without allocating in
//! steady state.
//!
//! Bit-compatibility contract: [`PositionStore::distance_sq_batch`]
//! evaluates `dx·dx + dy·dy (+ dz·dz)` with the same association order as
//! [`MetricPoint::distance_sq`], so a batched kernel produces bitwise
//! identical floating-point values to the scalar loop it replaces.
//!
//! Radius tests go through [`radius_criterion`], a sqrt-free bound
//! proven to make bitwise the same decisions as
//! `distance_sq.sqrt() <= radius`.

use crate::point::MetricPoint;

/// Maximum number of coordinate axes supported (matches [`crate::CellKey`]).
pub const MAX_AXES: usize = 3;

/// Split per-axis coordinate arrays (structure-of-arrays) over a sequence
/// of *slots*.
///
/// # Example
///
/// ```
/// use sinr_geometry::{PositionStore, Point2};
/// let pts = [Point2::new(0.0, 0.0), Point2::new(3.0, 4.0)];
/// let mut store = PositionStore::with_axes(2);
/// for p in &pts {
///     store.push(p);
/// }
/// let mut d2 = [0.0; 2];
/// store.distance_sq_batch(0..2, &[0.0; 3], &mut d2);
/// assert_eq!(d2, [0.0, 25.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PositionStore {
    /// Coordinates along each axis; axes `>= self.axes` stay empty.
    coords: [Vec<f64>; MAX_AXES],
    axes: usize,
}

impl PositionStore {
    /// An empty store over `axes` coordinate axes (1, 2 or 3).
    ///
    /// # Panics
    ///
    /// Panics if `axes` is zero or greater than [`MAX_AXES`].
    pub fn with_axes(axes: usize) -> Self {
        assert!(
            (1..=MAX_AXES).contains(&axes),
            "axes must be in 1..={MAX_AXES}, got {axes}"
        );
        PositionStore {
            coords: Default::default(),
            axes,
        }
    }

    /// A store filled from `points` in slice order (slot `s` = `points[s]`).
    pub fn from_points<P: MetricPoint>(points: &[P]) -> Self {
        let mut store = Self::with_axes(P::AXES);
        store.reserve(points.len());
        for p in points {
            store.push(p);
        }
        store
    }

    /// Number of coordinate axes.
    pub fn axes(&self) -> usize {
        self.axes
    }

    /// Number of stored positions.
    pub fn len(&self) -> usize {
        self.coords[0].len()
    }

    /// Whether the store holds no positions.
    pub fn is_empty(&self) -> bool {
        self.coords[0].is_empty()
    }

    /// Removes all positions, keeping the allocated capacity.
    pub fn clear(&mut self) {
        for axis in &mut self.coords {
            axis.clear();
        }
    }

    /// Clears the store and (re)sets its dimensionality — the reuse entry
    /// point for per-round scratch stores whose point type is only known
    /// at fill time.
    ///
    /// # Panics
    ///
    /// Panics if `axes` is zero or greater than [`MAX_AXES`].
    pub fn reset_axes(&mut self, axes: usize) {
        assert!(
            (1..=MAX_AXES).contains(&axes),
            "axes must be in 1..={MAX_AXES}, got {axes}"
        );
        self.axes = axes;
        self.clear();
    }

    /// Appends the positions in `slots` of `other` (same dimensionality),
    /// preserving their order — a per-axis `memcpy`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the dimensionalities differ.
    pub fn extend_from(&mut self, other: &PositionStore, slots: std::ops::Range<usize>) {
        debug_assert_eq!(self.axes, other.axes, "store dimensionality mismatch");
        for axis in 0..self.axes {
            self.coords[axis].extend_from_slice(&other.coords[axis][slots.clone()]);
        }
    }

    /// Reserves capacity for at least `additional` more positions.
    pub fn reserve(&mut self, additional: usize) {
        for axis in self.coords.iter_mut().take(self.axes) {
            axis.reserve(additional);
        }
    }

    /// Appends one position; its slot is the previous [`PositionStore::len`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `P::AXES` differs from the store's axes.
    pub fn push<P: MetricPoint>(&mut self, p: &P) {
        debug_assert_eq!(P::AXES, self.axes, "point dimensionality mismatch");
        for (axis, column) in self.coords.iter_mut().enumerate().take(self.axes) {
            column.push(p.coord(axis));
        }
    }

    /// The `axis`-th coordinate of slot `s`.
    pub fn coord(&self, s: usize, axis: usize) -> f64 {
        self.coords[axis][s]
    }

    /// Overwrites the coordinates of slot `s` with `p`'s — the in-place
    /// patch primitive of [`crate::GridIndex::repair`] for stations that
    /// moved without changing grid cell.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range; in debug builds also if `P::AXES`
    /// differs from the store's axes.
    pub fn set<P: MetricPoint>(&mut self, s: usize, p: &P) {
        debug_assert_eq!(P::AXES, self.axes, "point dimensionality mismatch");
        for (axis, column) in self.coords.iter_mut().enumerate().take(self.axes) {
            column[s] = p.coord(axis);
        }
    }

    /// The coordinates of slot `s`, padded with zeros beyond the store's
    /// axes (the fixed-width form every batch kernel takes its query
    /// point in).
    pub fn coords_of(&self, s: usize) -> [f64; MAX_AXES] {
        let mut out = [0.0; MAX_AXES];
        for (axis, slot) in out.iter_mut().enumerate().take(self.axes) {
            *slot = self.coords[axis][s];
        }
        out
    }

    /// Squared distance from `center` to the single slot `s` (the scalar
    /// companion of [`PositionStore::distance_sq_batch`], same
    /// association order).
    pub fn distance_sq_to(&self, s: usize, center: &[f64; MAX_AXES]) -> f64 {
        let dx = self.coords[0][s] - center[0];
        match self.axes {
            1 => dx * dx,
            2 => {
                let dy = self.coords[1][s] - center[1];
                dx * dx + dy * dy
            }
            _ => {
                let dy = self.coords[1][s] - center[1];
                let dz = self.coords[2][s] - center[2];
                dx * dx + dy * dy + dz * dz
            }
        }
    }

    /// Squared distances from `center` to every slot in `slots`, written
    /// to `out[i]` for the `i`-th slot of the range.
    ///
    /// Evaluates `dx·dx + dy·dy (+ dz·dz)` in axis order — bitwise
    /// identical to [`MetricPoint::distance_sq`] on the same coordinates —
    /// over split arrays, so the loop autovectorizes.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the slot range or the range is out
    /// of bounds.
    pub fn distance_sq_batch(
        &self,
        slots: std::ops::Range<usize>,
        center: &[f64; MAX_AXES],
        out: &mut [f64],
    ) {
        let out = &mut out[..slots.len()];
        let xs = &self.coords[0][slots.clone()];
        let cx = center[0];
        match self.axes {
            1 => {
                for (o, &x) in out.iter_mut().zip(xs) {
                    let dx = x - cx;
                    *o = dx * dx;
                }
            }
            2 => {
                let ys = &self.coords[1][slots];
                for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
                    let dx = x - cx;
                    let dy = y - center[1];
                    *o = dx * dx + dy * dy;
                }
            }
            _ => {
                let ys = &self.coords[1][slots.clone()];
                let zs = &self.coords[2][slots];
                for (((o, &x), &y), &z) in out.iter_mut().zip(xs).zip(ys).zip(zs) {
                    let dx = x - cx;
                    let dy = y - center[1];
                    let dz = z - center[2];
                    *o = dx * dx + dy * dy + dz * dz;
                }
            }
        }
    }

    /// Calls `f(slot)` for every slot in `slots` whose point lies within
    /// `radius` of `center`, in ascending slot order, without allocating.
    ///
    /// The membership test is `distance_sq.sqrt() <= radius` — bitwise the
    /// same decision as the scalar `p.distance(center) <= radius` it
    /// replaces.
    pub fn for_each_within(
        &self,
        slots: std::ops::Range<usize>,
        center: &[f64; MAX_AXES],
        radius: f64,
        mut f: impl FnMut(usize),
    ) {
        const CHUNK: usize = 64;
        let mut d2 = [0.0f64; CHUNK];
        let mut start = slots.start;
        while start < slots.end {
            let len = CHUNK.min(slots.end - start);
            self.distance_sq_batch(start..start + len, center, &mut d2[..len]);
            for (k, &v) in d2[..len].iter().enumerate() {
                if v.sqrt() <= radius {
                    f(start + k);
                }
            }
            start += len;
        }
    }

    /// Sqrt-free variant of [`PositionStore::for_each_within`]: calls
    /// `f(slot)` for every slot whose squared distance to `center` is
    /// `<= criterion`, in ascending slot order.
    ///
    /// With `criterion = `[`radius_criterion`]`(radius)` the decisions are
    /// **bitwise identical** to `distance_sq.sqrt() <= radius` at every
    /// slot (see that function's monotonicity proof; the boundary is
    /// pinned exhaustively in `tests/batch_kernels.rs`), while skipping
    /// the per-candidate `sqrt`. [`crate::GridIndex`] ball queries compute
    /// the criterion once per query and use this path per cell range.
    pub fn for_each_within_sq(
        &self,
        slots: std::ops::Range<usize>,
        center: &[f64; MAX_AXES],
        criterion: f64,
        mut f: impl FnMut(usize),
    ) {
        const CHUNK: usize = 64;
        let mut d2 = [0.0f64; CHUNK];
        let mut start = slots.start;
        while start < slots.end {
            let len = CHUNK.min(slots.end - start);
            self.distance_sq_batch(start..start + len, center, &mut d2[..len]);
            let mut mask = le_mask(&d2[..len], criterion);
            // Iterating set bits low-to-high preserves ascending slot order.
            while mask != 0 {
                let k = mask.trailing_zeros() as usize;
                f(start + k);
                mask &= mask - 1;
            }
            start += len;
        }
    }
}

/// Bit `i` of the result is set iff `vals[i] <= bound` (NaN fails);
/// `vals` is at most one 64-element chunk.
fn le_mask(vals: &[f64], bound: f64) -> u64 {
    debug_assert!(vals.len() <= 64);
    let mut mask = 0u64;
    for (i, &v) in vals.iter().enumerate() {
        if v <= bound {
            mask |= 1u64 << i;
        }
    }
    mask
}

/// The largest squared distance whose **correctly-rounded** square root
/// is still `<= radius` — the precomputed bound behind
/// [`PositionStore::for_each_within_sq`].
///
/// Equivalence proof: `x ↦ x.sqrt()` is monotone non-decreasing on
/// `[0, +∞]` (the exact root is strictly monotone and round-to-nearest
/// is monotone), so the predicate `x.sqrt() <= radius` is downward
/// closed in `x`. This function binary-searches the non-negative f64 bit
/// patterns — whose integer order equals their numeric order — for the
/// greatest `x` satisfying it, hence for every non-NaN `d2 >= 0`:
/// `d2 <= radius_criterion(radius)` ⇔ `d2.sqrt() <= radius`, **bitwise
/// the same decision** at every boundary (pinned exhaustively around the
/// criterion in `tests/batch_kernels.rs`). NaN distances fail both
/// tests. Note `d2 <= radius * radius` is *not* equivalent: when
/// `radius²` rounds down, squared distances just above the rounded
/// product can still root to `<= radius`.
///
/// A non-finite or negative `radius` yields `-∞` (nothing passes, like
/// the NaN-propagating scalar test); `+∞` passes everything non-NaN.
pub fn radius_criterion(radius: f64) -> f64 {
    if radius.is_nan() || radius < 0.0 {
        // NaN or negative: `d2.sqrt() <= radius` is false for every d2.
        return f64::NEG_INFINITY;
    }
    if radius == f64::INFINITY {
        return f64::INFINITY;
    }
    // Invariant: pred(lo) holds, pred(hi) fails. Non-negative f64 bit
    // patterns sort numerically, and every pattern in [0, inf_bits) is a
    // finite number (NaNs sit strictly above the infinity pattern), so
    // each probe is a valid float. ~63 sqrt probes, once per ball query.
    let mut lo: u64 = 0; // 0.0f64.sqrt() == 0.0 <= radius
    let mut hi: u64 = f64::INFINITY.to_bits(); // inf.sqrt() == inf > radius
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if f64::from_bits(mid).sqrt() <= radius {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    f64::from_bits(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{Point1, Point2, Point3};

    #[test]
    fn push_and_query_round_trip() {
        let pts = [Point2::new(1.0, 2.0), Point2::new(-3.0, 0.5)];
        let store = PositionStore::from_points(&pts);
        assert_eq!(store.len(), 2);
        assert_eq!(store.axes(), 2);
        assert!(!store.is_empty());
        assert_eq!(store.coord(1, 0), -3.0);
        assert_eq!(store.coords_of(0), [1.0, 2.0, 0.0]);
    }

    #[test]
    fn batch_matches_scalar_bitwise_all_dims() {
        let p1: Vec<Point1> = (0..33)
            .map(|i| Point1::new(i as f64 * 0.37 - 3.0))
            .collect();
        let center1 = Point1::new(0.21);
        let store = PositionStore::from_points(&p1);
        let mut d2 = vec![0.0; p1.len()];
        store.distance_sq_batch(0..p1.len(), &[center1.x, 0.0, 0.0], &mut d2);
        for (i, p) in p1.iter().enumerate() {
            assert_eq!(d2[i].to_bits(), p.distance_sq(&center1).to_bits());
        }

        let p2: Vec<Point2> = (0..70)
            .map(|i| Point2::new((i as f64 * 0.41).sin() * 5.0, (i as f64 * 0.59).cos() * 5.0))
            .collect();
        let center2 = Point2::new(0.3, -0.7);
        let store = PositionStore::from_points(&p2);
        let mut d2 = vec![0.0; p2.len()];
        store.distance_sq_batch(0..p2.len(), &[center2.x, center2.y, 0.0], &mut d2);
        for (i, p) in p2.iter().enumerate() {
            assert_eq!(d2[i].to_bits(), p.distance_sq(&center2).to_bits());
        }

        let p3: Vec<Point3> = (0..20)
            .map(|i| Point3::new(i as f64 * 0.3, i as f64 * -0.2, 1.0 / (i + 1) as f64))
            .collect();
        let center3 = Point3::new(1.0, 2.0, 3.0);
        let store = PositionStore::from_points(&p3);
        let mut d2 = vec![0.0; p3.len()];
        store.distance_sq_batch(0..p3.len(), &[center3.x, center3.y, center3.z], &mut d2);
        for (i, p) in p3.iter().enumerate() {
            assert_eq!(d2[i].to_bits(), p.distance_sq(&center3).to_bits());
        }
    }

    #[test]
    fn subrange_batch_offsets_output() {
        let pts: Vec<Point2> = (0..10).map(|i| Point2::new(i as f64, 0.0)).collect();
        let store = PositionStore::from_points(&pts);
        let mut d2 = [0.0; 3];
        store.distance_sq_batch(4..7, &[0.0; 3], &mut d2);
        assert_eq!(d2, [16.0, 25.0, 36.0]);
    }

    #[test]
    fn for_each_within_matches_scalar_filter() {
        let pts: Vec<Point2> = (0..150)
            .map(|i| Point2::new((i as f64 * 0.7).sin() * 4.0, (i as f64 * 0.3).cos() * 4.0))
            .collect();
        let store = PositionStore::from_points(&pts);
        let center = Point2::new(0.5, -0.25);
        for radius in [0.0, 0.8, 2.5, 50.0] {
            let mut got = Vec::new();
            store.for_each_within(0..pts.len(), &[center.x, center.y, 0.0], radius, |s| {
                got.push(s)
            });
            let want: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.distance(&center) <= radius)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, want, "radius {radius}");
        }
    }

    #[test]
    fn for_each_within_sq_matches_sqrt_predicate() {
        let pts: Vec<Point2> = (0..150)
            .map(|i| Point2::new((i as f64 * 0.7).sin() * 4.0, (i as f64 * 0.3).cos() * 4.0))
            .collect();
        let store = PositionStore::from_points(&pts);
        let center = [0.5, -0.25, 0.0];
        for radius in [0.0, 0.8, 2.5, 50.0] {
            let mut want = Vec::new();
            store.for_each_within(0..pts.len(), &center, radius, |s| want.push(s));
            let mut got = Vec::new();
            let crit = radius_criterion(radius);
            store.for_each_within_sq(0..pts.len(), &center, crit, |s| got.push(s));
            assert_eq!(got, want, "radius {radius}");
        }
    }

    #[test]
    fn radius_criterion_is_the_exact_boundary() {
        for radius in [0.0, 1e-9, 0.5, 1.0, 2.0, 1e9, 1e154, 1e200] {
            let crit = radius_criterion(radius);
            assert!(crit.sqrt() <= radius, "criterion passes at r={radius}");
            let above = f64::from_bits(crit.to_bits() + 1);
            assert!(
                above.sqrt() > radius,
                "next float above criterion fails at r={radius}"
            );
        }
        assert_eq!(radius_criterion(f64::INFINITY), f64::INFINITY);
        assert_eq!(radius_criterion(-1.0), f64::NEG_INFINITY);
        assert_eq!(radius_criterion(f64::NAN), f64::NEG_INFINITY);
    }

    #[test]
    fn extend_from_copies_subrange_in_order() {
        let pts: Vec<Point2> = (0..8).map(|i| Point2::new(i as f64, -(i as f64))).collect();
        let src = PositionStore::from_points(&pts);
        let mut dst = PositionStore::with_axes(2);
        dst.extend_from(&src, 2..5);
        dst.extend_from(&src, 0..1);
        assert_eq!(dst.len(), 4);
        assert_eq!(dst.coords_of(0), [2.0, -2.0, 0.0]);
        assert_eq!(dst.coords_of(2), [4.0, -4.0, 0.0]);
        assert_eq!(dst.coords_of(3), [0.0, 0.0, 0.0]);
        dst.reset_axes(2);
        assert!(dst.is_empty());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut store = PositionStore::from_points(&[Point2::new(1.0, 1.0)]);
        store.clear();
        assert!(store.is_empty());
        store.push(&Point2::new(2.0, 2.0));
        assert_eq!(store.coord(0, 0), 2.0);
    }

    #[test]
    #[should_panic]
    fn zero_axes_rejected() {
        let _ = PositionStore::with_axes(0);
    }
}
