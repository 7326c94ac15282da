//! Synchronous round engine for SINR protocol simulation.
//!
//! Protocols from the paper are per-node state machines implementing
//! [`Protocol`]; the [`Engine`] drives them round by round, resolving the
//! channel through the exact SINR oracle of [`sinr_phy`]. Nodes receive no
//! channel feedback beyond decoded messages (no carrier sensing), matching
//! the paper's model.
//!
//! * [`Engine`] — the round loop, with trace collection and termination
//!   predicates;
//! * [`Protocol`] / [`NodeCtx`] — the state-machine interface;
//! * [`node_rng`] / [`derive_seed`] — deterministic per-node randomness;
//! * [`WakeSchedule`] — adversarial spontaneous wake-up schedules;
//! * [`Trace`] / [`RoundStats`] — per-round statistics.
//!
//! See [`Engine`] for a complete usage example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Libraries return data and binaries print; the hot crates also keep
// panics out of non-test code (README.md "Static analysis").
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod adversary;
pub mod engine;
pub mod protocol;
pub mod rng;
pub mod trace;

pub use adversary::{
    BlackoutAdversary, CutVertexAdversary, FaultDelta, FaultPlan, FaultPlanSet, FaultView,
    JamAdversary, PhaseCrashAdversary, WakeSchedule,
};
pub use engine::{Accumulation, Engine, FaultStats, KernelDispatch, RunResult};
pub use protocol::{bernoulli, NodeCtx, Protocol, TopologyChange};
pub use rng::{derive_seed, node_rng};
pub use sinr_phy::MAX_PHYSICS_THREADS;
pub use trace::{RoundStats, Trace};
