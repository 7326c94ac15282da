//! Points in low-dimensional Euclidean space and the [`MetricPoint`] trait.
//!
//! All station positions in the simulator are values of a type implementing
//! [`MetricPoint`]. The trait deliberately exposes *only* what the SINR model
//! needs: a distance function, the growth dimension γ of the ambient space,
//! and per-axis coordinates (used by the grid index for bucketing).

use std::fmt;

/// A point of a bounded-growth metric space.
///
/// Implementors must guarantee that [`MetricPoint::distance`] is a metric
/// (non-negative, symmetric, zero iff equal, triangle inequality) and that
/// the space has the bounded-growth property of degree
/// [`MetricPoint::GROWTH_DIMENSION`]: every ball of radius `c·d` is covered
/// by `O(c^γ)` balls of radius `d`.
///
/// # Example
///
/// ```
/// use sinr_geometry::{MetricPoint, Point2};
/// let a = Point2::new(0.0, 0.0);
/// let b = Point2::new(3.0, 4.0);
/// assert_eq!(a.distance(&b), 5.0);
/// assert_eq!(Point2::GROWTH_DIMENSION, 2.0);
/// ```
pub trait MetricPoint: Copy + fmt::Debug + PartialEq + Send + Sync + 'static {
    /// Number of coordinate axes (1, 2 or 3 for the provided types).
    const AXES: usize;

    /// Growth dimension γ of the ambient metric space.
    ///
    /// For Euclidean ℝ^d this equals `d`. The SINR path-loss exponent α must
    /// satisfy `α > γ` for interference sums to converge (paper Section 1.1).
    const GROWTH_DIMENSION: f64;

    /// Distance between two points.
    fn distance(&self, other: &Self) -> f64;

    /// The `axis`-th coordinate of the point.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= Self::AXES`.
    fn coord(&self, axis: usize) -> f64;

    /// Builds a point from fixed-width coordinates (the `[f64; 3]` form
    /// the batch kernels and mobility models work in); axes beyond
    /// [`MetricPoint::AXES`] are ignored. Inverse of [`MetricPoint::coords`].
    fn from_coords(coords: [f64; 3]) -> Self;

    /// The point's coordinates in fixed-width form (axes beyond
    /// [`MetricPoint::AXES`] stay `0`) — the shape every batch kernel and
    /// mobility model works in. Inverse of [`MetricPoint::from_coords`].
    fn coords(&self) -> [f64; 3] {
        let mut c = [0.0f64; 3];
        for (axis, slot) in c.iter_mut().enumerate().take(Self::AXES) {
            *slot = self.coord(axis);
        }
        c
    }

    /// Midpoint between `self` and `other` (used by topology generators and
    /// ball-cover heuristics). For Euclidean points this is the coordinate
    /// average.
    fn midpoint(&self, other: &Self) -> Self;

    /// Squared distance; override when it is cheaper than `distance` squared.
    fn distance_sq(&self, other: &Self) -> f64 {
        let d = self.distance(other);
        d * d
    }
}

macro_rules! euclidean_point {
    ($(#[$doc:meta])* $name:ident, $axes:expr, [$($field:ident),+]) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Default)]
        pub struct $name {
            $(
                /// Coordinate along one axis.
                pub $field: f64,
            )+
        }

        impl $name {
            /// Creates a point from its coordinates.
            pub const fn new($($field: f64),+) -> Self {
                Self { $($field),+ }
            }

            /// The origin (all coordinates zero).
            pub const fn origin() -> Self {
                Self { $($field: 0.0),+ }
            }

            /// Euclidean norm of the point viewed as a vector.
            pub fn norm(&self) -> f64 {
                self.distance(&Self::origin())
            }
        }

        impl MetricPoint for $name {
            const AXES: usize = $axes;
            const GROWTH_DIMENSION: f64 = $axes as f64;

            fn distance(&self, other: &Self) -> f64 {
                self.distance_sq(other).sqrt()
            }

            fn distance_sq(&self, other: &Self) -> f64 {
                let mut acc = 0.0;
                $(
                    let d = self.$field - other.$field;
                    acc += d * d;
                )+
                acc
            }

            fn coord(&self, axis: usize) -> f64 {
                let coords = [$(self.$field),+];
                coords[axis]
            }

            fn from_coords(coords: [f64; 3]) -> Self {
                // At most three fields, so `next` never runs dry.
                let mut iter = coords.into_iter();
                Self { $($field: iter.next().unwrap_or(0.0)),+ }
            }

            fn midpoint(&self, other: &Self) -> Self {
                Self { $($field: (self.$field + other.$field) / 2.0),+ }
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let coords = [$(self.$field),+];
                write!(f, "(")?;
                for (i, c) in coords.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(self, f)
            }
        }
    };
}

euclidean_point!(
    /// A point on the real line (growth dimension γ = 1).
    ///
    /// Line networks are the paper's canonical adversarial construction: the
    /// footnote-2 example places stations at geometrically shrinking gaps,
    /// giving exponential granularity `R_s` while keeping the communication
    /// graph a path.
    Point1, 1, [x]
);

euclidean_point!(
    /// A point in the Euclidean plane (growth dimension γ = 2).
    ///
    /// The default deployment space for all experiments.
    Point2, 2, [x, y]
);

euclidean_point!(
    /// A point in Euclidean 3-space (growth dimension γ = 3).
    Point3, 3, [x, y, z]
);

impl From<f64> for Point1 {
    fn from(x: f64) -> Self {
        Point1::new(x)
    }
}

impl From<(f64, f64)> for Point2 {
    fn from((x, y): (f64, f64)) -> Self {
        Point2::new(x, y)
    }
}

impl From<(f64, f64, f64)> for Point3 {
    fn from((x, y, z): (f64, f64, f64)) -> Self {
        Point3::new(x, y, z)
    }
}

impl Point2 {
    /// Translates the point by the vector `(dx, dy)`.
    pub fn translate(&self, dx: f64, dy: f64) -> Self {
        Point2::new(self.x + dx, self.y + dy)
    }

    /// Point at `angle` radians and distance `radius` from `self`.
    pub fn polar_offset(&self, angle: f64, radius: f64) -> Self {
        Point2::new(self.x + radius * angle.cos(), self.y + radius * angle.sin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_1d_is_absolute_difference() {
        let a = Point1::new(-2.0);
        let b = Point1::new(3.5);
        assert_eq!(a.distance(&b), 5.5);
        assert_eq!(b.distance(&a), 5.5);
    }

    #[test]
    fn distance_2d_pythagorean() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(4.0, 6.0);
        assert_eq!(a.distance(&b), 5.0);
    }

    #[test]
    fn distance_3d() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(2.0, 3.0, 6.0);
        assert_eq!(a.distance(&b), 7.0);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = Point2::new(0.25, -8.0);
        assert_eq!(p.distance(&p), 0.0);
    }

    #[test]
    fn squared_distance_matches() {
        let a = Point2::new(1.0, 1.0);
        let b = Point2::new(2.0, 3.0);
        assert!((a.distance_sq(&b) - a.distance(&b).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn coords_round_trip() {
        let p = Point3::new(1.0, 2.0, 3.0);
        assert_eq!(p.coord(0), 1.0);
        assert_eq!(p.coord(1), 2.0);
        assert_eq!(p.coord(2), 3.0);
    }

    #[test]
    #[should_panic]
    fn coord_out_of_range_panics() {
        let p = Point2::new(0.0, 0.0);
        let _ = p.coord(2);
    }

    #[test]
    fn midpoint_is_average() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(2.0, 4.0);
        assert_eq!(a.midpoint(&b), Point2::new(1.0, 2.0));
    }

    #[test]
    fn growth_dimension_matches_axes() {
        assert_eq!(Point1::GROWTH_DIMENSION, 1.0);
        assert_eq!(Point2::GROWTH_DIMENSION, 2.0);
        assert_eq!(Point3::GROWTH_DIMENSION, 3.0);
    }

    #[test]
    fn from_coords_inverts_coord() {
        assert_eq!(Point1::from_coords([1.5, 9.0, 9.0]), Point1::new(1.5));
        assert_eq!(Point2::from_coords([1.0, 2.0, 9.0]), Point2::new(1.0, 2.0));
        assert_eq!(
            Point3::from_coords([1.0, 2.0, 3.0]),
            Point3::new(1.0, 2.0, 3.0)
        );
    }

    #[test]
    fn coords_round_trips_with_from_coords() {
        assert_eq!(Point1::new(1.5).coords(), [1.5, 0.0, 0.0]);
        assert_eq!(Point2::new(1.0, 2.0).coords(), [1.0, 2.0, 0.0]);
        let p = Point3::new(1.0, -2.0, 3.0);
        assert_eq!(Point3::from_coords(p.coords()), p);
    }

    #[test]
    fn conversions() {
        assert_eq!(Point1::from(2.0), Point1::new(2.0));
        assert_eq!(Point2::from((1.0, 2.0)), Point2::new(1.0, 2.0));
        assert_eq!(Point3::from((1.0, 2.0, 3.0)), Point3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn polar_offset_distance() {
        let p = Point2::new(1.0, 1.0);
        for k in 0..8 {
            let q = p.polar_offset(k as f64 * std::f64::consts::FRAC_PI_4, 2.5);
            assert!((p.distance(&q) - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn debug_format_is_nonempty_tuple() {
        let p = Point2::new(1.0, 2.0);
        assert_eq!(format!("{p:?}"), "(1, 2)");
        assert_eq!(format!("{p}"), "(1, 2)");
    }
}
