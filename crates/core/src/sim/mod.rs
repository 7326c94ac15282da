//! The `Scenario` builder: declarative, replayable simulations with
//! parallel seed sweeps.
//!
//! Every protocol of the crate runs through this module. A scenario is
//! built from four declarative pieces — a topology, a protocol, the tuned
//! constants and the SINR parameters — and produces a [`Simulation`] whose
//! every run is a **pure deterministic function of one explicit `u64`
//! seed**: the seed derives the topology stream (for generated families),
//! the per-node protocol randomness, and — when [`Scenario::mobility`]
//! makes the topology dynamic — the motion trajectory, so any run of any
//! sweep can be replayed bit-for-bit, regardless of how many worker
//! threads executed it.
//!
//! # Mobile topologies
//!
//! [`Scenario::mobility`] attaches a [`MobilitySpec`] (a
//! [`MobilityModel`] from [`sinr_netgen::mobility`] plus an epoch
//! length): every `epoch_rounds` rounds the stations move and the
//! network's spatial index rebuilds **in place** — allocation-reusing,
//! bitwise identical to a from-scratch build (`tests/mobility_equivalence.rs`)
//! — while the reception pipeline keeps its zero-steady-state-allocation
//! guarantee between epochs (`crates/phy/tests/oracle_alloc.rs`). Mobile
//! runs compose with [`Simulation::sweep`] and
//! [`Scenario::physics_threads`] under the same determinism contract as
//! static ones.
//!
//! ```
//! use sinr_core::sim::{ProtocolSpec, Scenario, TopologySpec};
//! use sinr_core::Constants;
//!
//! let sim = Scenario::new(TopologySpec::ClusterChain { diameter: 3, per_cluster: 8 })
//!     .protocol(ProtocolSpec::SBroadcast { source: 0 })
//!     .constants(Constants::tuned())
//!     .budget(2_000_000)
//!     .build()?;
//! let report = sim.run(42)?;
//! assert!(report.completed);
//! let sweep = sim.sweep(&[1, 2, 3])?;        // parallel, deterministic
//! assert_eq!(sweep.runs.len(), 3);
//! # Ok::<(), sinr_core::sim::SimError>(())
//! ```
//!
//! # Dynamic populations
//!
//! [`Scenario::churn`] attaches a [`ChurnSpec`] (a [`ChurnModel`] from
//! [`sinr_netgen::churn`] plus an epoch length): every `epoch_rounds`
//! rounds stations die (geometric lifetimes), rejoin at fresh uniform
//! positions, and spawn (Poisson arrivals) — and the network rebuilds its
//! spatial index **and communication graph** in place, bit-identical to
//! fresh builds of the surviving population (`tests/churn_equivalence.rs`).
//! Station indices are stable: dead stations keep their rows in every
//! per-station vector (tombstones), spawns append, so reports stay
//! index-aligned across the whole run. Dead stations neither transmit
//! nor receive, never block completion, and their RNG streams freeze
//! while they are down. Protocols observe the lifecycle through the
//! `on_join` / `on_leave` / `on_topology_change` hooks — the
//! mobility-aware [`ProtocolSpec::ReFloodBroadcast`] uses them to re-seed
//! flooding exactly when the epoch-refreshed graph reports newly joined
//! stations or a reconnected component. Churn composes with
//! [`Scenario::mobility`] (independent epoch schedules),
//! [`Simulation::sweep`] and [`Scenario::physics_threads`] under the same
//! determinism contract as everything else; the churn schedule derives
//! from the run seed on its own stream, making it a first-class,
//! independently replayable input. Only protocols whose per-station goal
//! makes sense for mid-run arrivals accept churn
//! ([`ProtocolSpec::supports_churn`]); invalid churn parameters (zero
//! lifetimes, negative rates) and unsupported combinations (e.g. the
//! GPS-oracle baseline) fail at [`Scenario::build`] with
//! [`SimError::Spec`] instead of panicking inside sweep workers.
//!
//! ```
//! use sinr_core::sim::{ChurnSpec, MobilitySpec, ProtocolSpec, Scenario, TopologySpec};
//!
//! let sim = Scenario::new(TopologySpec::UniformSquare { n: 80, side: 2.5 })
//!     .protocol(ProtocolSpec::ReFloodBroadcast { source: 0, p: 0.25, burst_rounds: 24 })
//!     .mobility(MobilitySpec::random_waypoint(0.2, 8))
//!     .churn(ChurnSpec::poisson(1.0, 10.0, 8))
//!     .budget(400)
//!     .build()?;
//! assert_eq!(sim.run(7)?, sim.run(7)?); // churned runs replay bit-for-bit
//! # Ok::<(), sinr_core::sim::SimError>(())
//! ```
//!
//! # Adversaries and degradation
//!
//! [`Scenario::adversary`] attaches an [`AdversarySpec`] (one or more
//! [`AdversaryModel`]s plus an epoch length): every `epoch_rounds`
//! rounds the fault plans run against the **refreshed** communication
//! graph and inject targeted faults — cut-vertex-targeted kills (the
//! worst-case attack on connectivity), phase-synchronized crash bursts
//! (timed via the protocols' `phase_hint`), jamming stations
//! (unconditional noise, no physics changes), and blackout outages
//! whose victims return at their original positions. Kill-type faults
//! flow through the same transactional delta path as churn, so the
//! whole determinism contract carries over: adversarial runs are pure
//! functions of their seed, byte-identical at any physics-thread or
//! sweep-worker count, and compose with churn and mobility (a station
//! the churn schedule already killed at the same boundary is simply
//! not double-killed).
//!
//! Degradation is *measured*, not just injected: faulted runs fill
//! [`RunReport::faults`] with fault totals, a coverage-over-time curve
//! (one [`CoveragePoint`] per adversary boundary) and the
//! re-convergence time after the last fault. On the protocol side, the
//! `*OnlineEstimate` variants ([`crate::estimate`]) replace the
//! paper's fixed population estimate with an online, one-sided ν̂ that
//! grows on in-burst silence runs — the protocol-visible signature of
//! collision stalls — and back off their estimate window when churn
//! invalidates the statistics, degrading latency instead of coverage.
//!
//! ```
//! use sinr_core::sim::{AdversarySpec, ProtocolSpec, Scenario, TopologySpec};
//!
//! let sim = Scenario::new(TopologySpec::UniformSquare { n: 40, side: 2.0 })
//!     .protocol(ProtocolSpec::ReFloodBroadcastEstimate { source: 0, nu0: 40, burst_rounds: 48 })
//!     .adversary(AdversarySpec::cut_vertex_kill(0.2, 1, 24)) // 20% of live stations per epoch
//!     .budget(600)
//!     .build()?;
//! let report = sim.run(11)?;
//! assert_eq!(report, sim.run(11)?); // replays bit-for-bit
//! let faults = report.faults.expect("adversarial runs carry fault accounting");
//! assert!(!faults.coverage.is_empty()); // degradation curve sampled per boundary
//! # Ok::<(), sinr_core::sim::SimError>(())
//! ```
//!
//! # Protocol registry → paper map
//!
//! | [`ProtocolSpec`] variant | paper result |
//! |---|---|
//! | [`ProtocolSpec::Coloring`] | Section 3, Fact 7: `StabilizeProbability` in `O(log² n)` rounds, invariants Lemma 1 & 2 |
//! | [`ProtocolSpec::NoSBroadcast`] | Theorem 1: broadcast in `O(D log² n)` without spontaneous wake-up |
//! | [`ProtocolSpec::NoSBroadcastWithEstimate`] | Section 1.1: same with a population estimate `ν ≥ n`, `O(D log² ν)` |
//! | [`ProtocolSpec::SBroadcast`] | Theorem 2: broadcast in `O(D log n + log² n)` with spontaneous wake-up |
//! | [`ProtocolSpec::SBroadcastWithEstimate`] | Section 1.1: same with estimate `ν`, `O(D log ν + log² ν)` |
//! | [`ProtocolSpec::DaumBroadcast`] | the Daum et al. decay baseline the paper compares against (granularity-dependent) |
//! | [`ProtocolSpec::FloodBroadcast`] | the fixed-probability strawman of the introduction |
//! | [`ProtocolSpec::LocalBroadcast`] | adaptive local-broadcast-style flooding baseline |
//! | [`ProtocolSpec::ReFloodBroadcast`] | mobility/churn-aware re-flooding variant (re-seeds on topology change; beyond the paper's static model) |
//! | [`ProtocolSpec::ReFloodBroadcastEstimate`] | re-flooding driven by an online ν̂ (graceful degradation under faults; beyond the paper's static model) |
//! | [`ProtocolSpec::NoSBroadcastOnlineEstimate`] | Theorem 1 phase schedule rebuilt per station as an online ν̂ grows |
//! | [`ProtocolSpec::SBroadcastOnlineEstimate`] | Theorem 2 with the dissemination probability re-tuned to an online ν̂ |
//! | [`ProtocolSpec::GpsOracleBroadcast`] | the "geometry known" upper bound (references [14, 15] strengthened to an oracle) |
//! | [`ProtocolSpec::AdhocWakeup`] | Section 5: ad hoc wake-up in `O(D log² n)` from the first wake-up |
//! | [`ProtocolSpec::EstablishedWakeup`] | Fact 11: wake-up over an established coloring in `O(D log n + log² n)` |
//! | [`ProtocolSpec::Consensus`] | Section 5: consensus in `O((D log n + log² n) log x)` |
//! | [`ProtocolSpec::LeaderElection`] | Section 5: leader election in `O(D log² n + log³ n)` whp |
//! | [`ProtocolSpec::Alert`] | Section 1.3: the alert application over the coloring backbone |
//!
//! # Simulation as a service
//!
//! The [`wire`] module makes scenarios and reports *data*: a
//! [`ScenarioSpec`] captures every plain-data builder knob (topology,
//! protocol, SINR parameters, constants, budget, interference mode,
//! dynamics, repair policy), and [`encode_run_report`] /
//! [`decode_run_report`] carry [`RunReport`]s — including
//! [`RunReport::faults`] — as **canonical JSON**: fields in fixed schema
//! order, no whitespace, `u64`-exact integers, shortest-float notation,
//! enums as `{"kind":"<tag>",...}` objects (protocol tags are
//! [`ProtocolSpec::name`]). Canonical means encode ∘ decode ∘ encode is
//! byte-identity, so the determinism contract extends across process
//! boundaries: two reports are equal iff their wire bytes are equal.
//!
//! `crates/serve` builds a persistent simulation server on this seam.
//! Its line-delimited protocol (one canonical-JSON object per `\n`
//! -terminated line) is, client → server:
//!
//! ```text
//! request   = submit | attach | ping | shutdown
//! submit    = {"op":"submit","spec":<ScenarioSpec>,"seeds":[u64...],"stream":bool}
//! attach    = {"op":"attach","job":uint}
//! ping      = {"op":"ping"}
//! shutdown  = {"op":"shutdown"}
//! ```
//!
//! and server → client:
//!
//! ```text
//! event     = accepted | round | report | done | pong | error
//! accepted  = {"event":"accepted","job":uint,"trials":uint}
//! round     = {"event":"round","job":uint,"seed":uint,"round":uint,
//!              "transmitters":uint,"receptions":uint,"informed":uint}
//! report    = {"event":"report","job":uint,"seed":uint,"report":<RunReport>}
//! done      = {"event":"done","job":uint,"dropped_rounds":uint,"degraded":bool}
//! pong      = {"event":"pong"}
//! error     = {"event":"error","message":string}
//! ```
//!
//! `accepted.trials` is the job's trial count, one per submitted seed,
//! whether the `accepted` answers a `submit` or an `attach`. The server
//! keeps every running job and the most recent finished ones
//! (`sinr_serve::RETAINED_JOBS`); an `attach` to a job it has since
//! forgotten gets an `error`, as does one to an id it never issued.
//!
//! Every event of a connection goes out in the order the server emitted
//! it. Live `round` events are lossy: a slow subscriber drops rounds
//! (counted in `done.dropped_rounds`) rather than stalling the engine,
//! and always still receives every `report` event — whose embedded report bytes are
//! byte-identical to an in-process [`Simulation::run`] of the same spec
//! and seed at any number of concurrent subscribers
//! (`crates/serve/tests/server_determinism.rs`).
//!
//! # Determinism contract
//!
//! [`Simulation::run`] with equal seeds yields equal [`RunReport`]s;
//! [`Simulation::sweep`] yields the same reports in the same order for any
//! worker-thread count (each seed's run shares no mutable state with any
//! other), and [`Scenario::physics_threads`] — which shards each round's
//! physics accumulate stage inside a trial — leaves every report
//! byte-identical at any thread count too (the reception pipeline's
//! sharding contract). The two compose under one machine thread budget,
//! resolved once per [`Simulation`]. Observers are constructed fresh per
//! run, so they cannot leak state across seeds either. The golden tests
//! in `tests/scenario_golden.rs` pin the sweep properties (plus literal
//! per-protocol reports), and `tests/mode_determinism.rs` pins
//! physics-thread invariance in both interference modes — for static and
//! mobile topologies alike.

mod adversary;
mod churn;
mod mobility;
mod observer;
mod report;
mod scenario;
mod spec;
mod topology;
pub mod wire;

pub use adversary::{AdversaryModel, AdversarySpec};
pub use churn::ChurnSpec;
pub use mobility::MobilitySpec;
pub use observer::Observer;
pub use report::{CoveragePoint, FaultReport, Outcome, RunReport, SweepReport};
pub use scenario::{Scenario, SimError, Simulation};
pub use spec::ProtocolSpec;
pub use topology::{Topology, TopologySpec};
pub use wire::{decode_run_report, encode_run_report, ScenarioSpec, WireError};

// The repair policy and the motion and lifecycle models the dynamic specs
// name, re-exported so scenario code needs no direct `sinr_geometry` or
// `sinr_netgen` import.
pub use sinr_geometry::RepairPolicy;
pub use sinr_netgen::churn::ChurnModel;
pub use sinr_netgen::mobility::MobilityModel;
