//! Ad hoc broadcast under the SINR model without geolocation — the
//! algorithms of Jurdzinski, Kowalski, Rozanski & Stachowiak, *On the
//! Impact of Geometry on Ad Hoc Communication in Wireless Networks*
//! (PODC 2014), implemented as round-driven state machines over the
//! [`sinr_runtime`] engine.
//!
//! # What's here
//!
//! * [`coloring::ColoringMachine`] — `StabilizeProbability` (Section 3),
//!   the distributed coloring that assigns each station a transmission
//!   probability such that per-color unit-ball mass is bounded (Lemma 1)
//!   and every station has a constant-mass color nearby (Lemma 2);
//! * [`broadcast::NoSBroadcastNode`] — Theorem 1, `O(D log² n)` broadcast
//!   without spontaneous wake-up;
//! * [`broadcast::SBroadcastNode`] — Theorem 2, `O(D log n + log² n)`
//!   broadcast with spontaneous wake-up;
//! * [`wakeup`], [`consensus`], [`leader`], [`alert`] — the Section 5
//!   applications;
//! * [`baselines`] — Daum et al.-style decay broadcast, fixed-probability
//!   flooding, and adaptive local-broadcast flooding;
//! * [`estimate`] — online ν-estimation: density-adaptive variants of the
//!   broadcasts that recover when the population bound is wrong or churn
//!   makes it stale;
//! * [`verify`] — measurement of the Lemma 1/Lemma 2 invariants;
//! * [`sim`] — the [`sim::Scenario`] builder: declarative topologies,
//!   the protocol registry, unified [`sim::RunReport`]s and parallel
//!   seed sweeps.
//!
//! # Quickstart
//!
//! Build a [`sim::Scenario`] from a topology and a protocol, then run one
//! seed or sweep many in parallel — every run is a pure function of its
//! seed:
//!
//! ```
//! use sinr_core::sim::{ProtocolSpec, Scenario};
//! use sinr_geometry::Point2;
//!
//! let points: Vec<Point2> = (0..6).map(|i| Point2::new(i as f64 * 0.45, 0.0)).collect();
//! let sim = Scenario::new(points)
//!     .protocol(ProtocolSpec::SBroadcast { source: 0 })
//!     .budget(1_000_000)
//!     .build()?;
//!
//! let report = sim.run(42)?;
//! assert!(report.completed);
//!
//! let sweep = sim.sweep(&[1, 2, 3, 4])?; // parallel, deterministic per seed
//! assert_eq!(sweep.completed(), 4);
//! # Ok::<(), sinr_core::sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Libraries return data; binaries print (README.md "Static analysis").
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

pub mod alert;
pub mod baselines;
pub mod broadcast;
pub mod coloring;
pub mod consensus;
pub mod constants;
pub mod estimate;
pub mod leader;
pub mod localcast;
pub mod sim;
pub mod stabilize;
pub mod verify;
pub mod wakeup;

pub use coloring::ColoringMachine;
pub use constants::{log2n, Constants};
pub use estimate::{NuEstimator, CONTENTION_TARGET};
pub use stabilize::StabilizeProtocol;
pub use verify::{
    invariant_report, lemma1_max_ball_mass, lemma2_min_close_mass, Coloring, InvariantReport,
};

/// Whole runs of each protocol family on short paths, driven end to end
/// through [`sim::Scenario`] → [`sim::Simulation::run`].
#[cfg(test)]
mod run {
    mod tests {
        use sinr_geometry::Point2;
        use sinr_runtime::WakeSchedule;

        use crate::constants::Constants;
        use crate::sim::{Outcome, ProtocolSpec, RunReport, Scenario};

        fn fast_consts() -> Constants {
            Constants {
                c0: 4.0,
                c2: 4.0,
                c_prime: 1,
                dissem_factor: 4.0,
                ..Constants::tuned()
            }
        }

        fn path(n: usize) -> Vec<Point2> {
            (0..n).map(|i| Point2::new(i as f64 * 0.45, 0.0)).collect()
        }

        /// Runs `spec` on `path(n)` with [`fast_consts`]; `budget: None`
        /// is for the fixed-schedule protocols.
        fn run(n: usize, spec: ProtocolSpec, seed: u64, budget: Option<u64>) -> RunReport {
            let mut scenario = Scenario::new(path(n))
                .constants(fast_consts())
                .protocol(spec);
            if let Some(b) = budget {
                scenario = scenario.budget(b);
            }
            scenario.build().unwrap().run(seed).unwrap()
        }

        #[test]
        fn nos_runner_completes() {
            let budget = fast_consts().phase_rounds(5) * 40;
            let r = run(5, ProtocolSpec::NoSBroadcast { source: 0 }, 1, Some(budget));
            assert!(r.completed);
            assert_eq!(r.informed, 5);
            assert!(r.total_transmissions > 0);
        }

        #[test]
        fn s_runner_completes() {
            let r = run(5, ProtocolSpec::SBroadcast { source: 0 }, 2, Some(200_000));
            assert!(r.completed);
        }

        #[test]
        fn baseline_runners_complete() {
            for spec in [
                ProtocolSpec::DaumBroadcast {
                    source: 0,
                    granularity: None,
                },
                ProtocolSpec::FloodBroadcast { source: 0, p: 0.3 },
                ProtocolSpec::LocalBroadcast { source: 0 },
            ] {
                let name = spec.name();
                assert!(run(4, spec, 3, Some(100_000)).completed, "{name}");
            }
        }

        #[test]
        fn incomplete_run_reports_partial_informed() {
            // Budget 0: only the source is informed.
            let r = run(4, ProtocolSpec::NoSBroadcast { source: 0 }, 1, Some(0));
            assert!(!r.completed);
            assert_eq!(r.informed, 1);
            assert_eq!(r.rounds, 0);
        }

        #[test]
        fn estimate_runner_completes_with_inflated_nu() {
            let spec = ProtocolSpec::SBroadcastWithEstimate { source: 0, nu: 40 };
            assert!(run(5, spec, 2, Some(2_000_000)).completed);
            let spec = ProtocolSpec::NoSBroadcastWithEstimate { source: 0, nu: 40 };
            let budget = fast_consts().phase_rounds(40) * 60;
            assert!(run(5, spec, 2, Some(budget)).completed);
        }

        #[test]
        #[should_panic(expected = "estimate nu = 3 below n = 5")]
        fn estimate_below_n_panics() {
            let spec = ProtocolSpec::SBroadcastWithEstimate { source: 0, nu: 3 };
            let _ = run(5, spec, 2, Some(100));
        }

        #[test]
        fn consensus_runner_agrees_and_validates() {
            let spec = ProtocolSpec::Consensus {
                values: vec![6, 2, 5, 7],
                bits: 3,
                d_bound: 4,
            };
            let agreed_on_min = Outcome::Consensus {
                decided: vec![Some(2); 4],
                agreement: true,
                valid: true,
            };
            assert_eq!(run(4, spec, 5, None).outcome, agreed_on_min);
        }

        #[test]
        fn leader_runner_unique() {
            let outcome = run(4, ProtocolSpec::LeaderElection { d_bound: 4 }, 6, None).outcome;
            assert!(
                matches!(outcome, Outcome::Leader { unique: true, .. }),
                "{outcome:?}"
            );
        }

        #[test]
        fn wakeup_runner_accounts_from_first_wake() {
            let spec = ProtocolSpec::AdhocWakeup {
                schedule: WakeSchedule::single(0, 13),
            };
            let r = run(4, spec, 7, Some(fast_consts().phase_rounds(4) * 40));
            assert!(r.completed);
            assert!(
                matches!(r.outcome, Outcome::Wakeup { first_wake: 13, rounds_from_first_wake }
                    if rounds_from_first_wake > 0),
                "{:?}",
                r.outcome
            );
        }
    }
}
