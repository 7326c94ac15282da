//! Bounded-growth metric spaces for SINR wireless-network simulation.
//!
//! The paper *On the Impact of Geometry on Ad Hoc Communication in Wireless
//! Networks* (Jurdzinski, Kowalski, Rozanski, Stachowiak; PODC 2014) deploys
//! stations into a metric space with the *bounded growth property* of degree
//! γ: every ball `B(v, c·d)` can be covered by `O(c^γ)` balls of radius `d`.
//! Euclidean `R^γ` is the canonical such space, and this crate provides the
//! concrete embeddings used throughout the reproduction:
//!
//! * [`Point1`], [`Point2`], [`Point3`] — points in ℝ¹/ℝ²/ℝ³ implementing the
//!   [`MetricPoint`] trait (growth dimensions γ = 1, 2, 3);
//! * [`GridIndex`] — a uniform-grid spatial index supporting exact ball
//!   (range) queries and nearest-neighbour queries in near-linear time, used
//!   by the physical layer to accelerate interference evaluation;
//! * [`PositionStore`] — split per-axis (SoA) coordinate arrays keyed by the
//!   grid's CSR slot order, backing the batched `distance_sq` kernels the
//!   physical layer autovectorizes over cell member ranges;
//! * [`covering_number`] — the χ(a, b) covering-number estimate from the
//!   paper's preliminaries;
//! * ball mass / counting helpers in [`ball`].
//!
//! # Radius tests
//!
//! Ball queries test membership without a per-candidate `sqrt`:
//! [`radius_criterion`] precomputes, once per query, the largest squared
//! distance whose correctly-rounded root still passes, so the per-slot
//! test is one exact comparison that makes bitwise the same decisions as
//! `distance.sqrt() <= radius`.
//!
//! # Incremental repair
//!
//! Dynamic populations (mobility epochs, churn) historically paid a full
//! `GridIndex::rebuild_from` per epoch — O(n) however little moved.
//! [`GridIndex::repair`] patches the index in time proportional to the
//! delta instead: only the cells that gained or lost members are merged
//! anew, every untouched cell's keys, CSR run, SoA coordinates and
//! centroid are bulk-copied bit-for-bit, and the result is **identical
//! to a fresh build** — same cell order, same slot order, same
//! floating-point sums — so every downstream kernel (batched distances,
//! interference sums, comm-graph rows) is unaffected by which path ran.
//! [`RepairPolicy`] picks the path: the default `Auto` falls back to the
//! full rebuild once a delta touches more than ~5% of the population
//! (measured crossover: repair beats rebuild by 19–58× at ≤1% movers
//! and degenerates to ~1× around 10%, at n = 10⁴…10⁶ — see the
//! `repair/` rows of `BENCH.json`). The equivalence is pinned by
//! differential tests from unit level (`grid::tests::repair_*`) to the
//! workspace batteries (`tests/repair_equivalence.rs`).
//!
//! # Example
//!
//! ```
//! use sinr_geometry::{GridIndex, MetricPoint, Point2};
//!
//! let pts = vec![Point2::new(0.0, 0.0), Point2::new(0.5, 0.0), Point2::new(3.0, 4.0)];
//! let index = GridIndex::build(&pts, 1.0);
//! // All points within distance 1 of the origin:
//! let near: Vec<usize> = index.ball(&pts, Point2::new(0.0, 0.0), 1.0).collect();
//! assert_eq!(near, vec![0, 1]);
//! assert_eq!(pts[0].distance(&pts[2]), 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Libraries return data and binaries print; the hot crates also keep
// panics out of non-test code (README.md "Static analysis").
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ball;
pub mod grid;
pub mod point;
pub mod store;

pub use ball::{ball_indices, ball_mass, count_in_ball, covering_number};
pub use grid::{CellKey, GridIndex, RepairPolicy};
pub use point::{MetricPoint, Point1, Point2, Point3};
pub use store::{radius_criterion, PositionStore};
