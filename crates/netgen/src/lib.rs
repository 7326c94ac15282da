//! Topology generators for SINR wireless-network experiments.
//!
//! Each generator produces station positions ([`sinr_geometry::Point2`] or
//! [`sinr_geometry::Point1`]) realising a network family used by the
//! reproduction experiments:
//!
//! * [`uniform`] — uniform random deployments in squares and disks (the
//!   "average case");
//! * [`line`](mod@line) — line networks, including the paper's footnote-2
//!   adversarial construction with geometrically shrinking gaps and
//!   therefore **exponential granularity** `R_s`;
//! * [`cluster`] — Gaussian clusters and *chains of clusters*, which give
//!   precise control over the communication-graph diameter `D` while
//!   keeping density high inside clusters (the dense–sparse hybrids the
//!   coloring must survive);
//! * [`grid`] — regular lattices;
//! * [`shapes`] — rings, bridge corridors and two-tier density contrasts;
//! * [`perturb`] — jitter and minimum-separation repair;
//! * [`validate`] — topology reports (connectivity, diameter, Δ, `R_s`);
//! * [`mobility`] — dynamic topologies: random-waypoint, drift and
//!   teleport-churn motion between epochs (see below);
//! * [`churn`] — dynamic *populations*: seed-deterministic station
//!   lifecycles (Poisson arrivals, geometric lifetimes,
//!   rejoin-at-random-position) emitting one `ChurnDelta` per epoch
//!   (see below).
//!
//! All generators are deterministic given a seed.
//!
//! # Mobility
//!
//! Static generators produce the epoch-0 deployment; the [`mobility`]
//! module then moves it between epochs. A [`mobility::Mobility`] value
//! owns all per-station motion state (so trajectories replay bit-for-bit
//! from a seed) and advances one epoch per call, confined to the
//! bounding box of the initial deployment by default — compose it with
//! any generator in this crate:
//!
//! ```
//! use sinr_netgen::mobility::{Mobility, MobilityModel};
//! use sinr_netgen::uniform;
//!
//! // 120 stations uniform in a 3×3 square, then 5 epochs of random
//! // waypoint motion at 0.2 units per epoch.
//! let mut pts = uniform::square(120, 3.0, 42);
//! let model = MobilityModel::RandomWaypoint { speed: 0.2, pause_epochs: 0 };
//! let mut mob = Mobility::over_deployment(model, &pts, 42);
//! for _epoch in 0..5 {
//!     mob.advance(&mut pts);
//!     assert!(pts.iter().all(|p| (0.0..=3.0).contains(&p.x)));
//! }
//! ```
//!
//! Simulations plug the same models in declaratively through
//! `sinr_core::sim::MobilitySpec` / `Scenario::mobility`, which rebuilds
//! the spatial index in place at every epoch boundary.
//!
//! # Churn
//!
//! Where mobility moves a fixed population, [`churn`] changes the
//! population itself: each epoch a [`churn::ChurnProcess`] kills live
//! stations (geometric lifetimes), rejoins tombstoned ones at fresh
//! uniform positions, and spawns brand-new stations once no tombstones
//! remain (Poisson arrivals). The emitted deltas are exactly what
//! `sinr_phy::Network::apply_churn` consumes, and the whole schedule
//! replays from its seed:
//!
//! ```
//! use sinr_netgen::churn::{ChurnModel, ChurnProcess};
//! use sinr_netgen::uniform;
//! use sinr_phy::{ChurnDelta, Network, SinrParams};
//!
//! let pts = uniform::connected_square(80, 2.0, &SinrParams::default_plane(), 11).unwrap();
//! let mut net = Network::new(pts, SinrParams::default_plane()).unwrap();
//! let model = ChurnModel { arrival_rate: 2.0, mean_lifetime: 8.0 };
//! let mut churn = ChurnProcess::over_deployment(model, net.points(), 42);
//! let mut delta = ChurnDelta::new();
//! for _epoch in 0..5 {
//!     churn.step_into(net.alive(), &mut delta);
//!     net.apply_churn(&delta); // index-stable tombstones, in-place rebuilds
//! }
//! assert_eq!(net.alive().len(), net.len());
//! assert!(net.live_count() <= net.len());
//! ```
//!
//! Simulations plug churn in declaratively through
//! `sinr_core::sim::ChurnSpec` / `Scenario::churn`, which seeds the
//! process from the run seed on its own stream and composes it with
//! mobility and parallel sweeps.
//!
//! # Example
//!
//! ```
//! use sinr_netgen::{uniform, validate};
//! use sinr_phy::SinrParams;
//!
//! let params = SinrParams::default_plane();
//! let pts = uniform::connected_square(120, 3.0, &params, 42).expect("dense enough");
//! let report = validate::report(&pts, &params);
//! assert!(report.connected);
//! assert_eq!(report.n, 120);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Libraries return data; binaries print (README.md "Static analysis").
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

pub mod churn;
pub mod cluster;
pub mod grid;
pub mod line;
pub mod mobility;
pub mod perturb;
pub mod shapes;
pub mod uniform;
pub mod validate;

pub use validate::{report, TopologyReport};
