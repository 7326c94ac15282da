//! The builder, the simulation, and the deterministic execution engine.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use sinr_geometry::{MetricPoint, Point2, RepairPolicy};
use sinr_netgen::churn::ChurnProcess;
use sinr_netgen::mobility::Mobility;
use sinr_phy::{InterferenceMode, Network, NetworkError, SinrParams};
use sinr_runtime::{derive_seed, node_rng, Engine, Protocol};

use crate::baselines::{DaumBroadcastNode, FloodNode, LocalBroadcastNode};
use crate::broadcast::{NoSBroadcastNode, SBroadcastNode};
use crate::consensus::ConsensusNode;
use crate::constants::Constants;
use crate::leader::LeaderNode;
use crate::stabilize::StabilizeProtocol;
use crate::verify::Coloring;
use crate::wakeup::{AdhocWakeupNode, EstablishedWakeupNode};

use super::{
    AdversarySpec, ChurnSpec, CoveragePoint, FaultReport, MobilitySpec, Observer, Outcome,
    ProtocolSpec, RunReport, SweepReport, Topology,
};

/// Stream id under which run seeds derive their topology-generation seed
/// (decorrelated from the per-node protocol streams, which use the run
/// seed directly).
const TOPOLOGY_STREAM: u64 = 0x544F_504F; // "TOPO"

/// Stream id under which run seeds derive their mobility-trajectory seed
/// (decorrelated from both the topology stream and the per-node protocol
/// streams, so adding mobility never perturbs either).
const MOBILITY_STREAM: u64 = 0x4D4F_4249; // "MOBI"

/// Stream id under which run seeds derive their churn-schedule seed (its
/// own stream, so adding churn perturbs neither the topology, the
/// per-node randomness, nor the mobility trajectory — the seeded churn
/// schedule is a first-class, independently replayable input).
const CHURN_STREAM: u64 = 0x4348_5552; // "CHUR"

/// Stream id under which run seeds derive their adversary seeds (one
/// per composed model, so arming or re-ordering fault models perturbs
/// no other stream and composed models draw independently).
const ADVERSARY_STREAM: u64 = 0x4144_5652; // "ADVR"

/// Everything that can go wrong building or running a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Network construction failed.
    Network(NetworkError),
    /// A generated topology could not realise its parameters.
    Topology(String),
    /// The scenario has no protocol.
    MissingProtocol,
    /// The protocol runs until a goal predicate holds, so it needs an
    /// explicit round budget.
    MissingBudget,
    /// A knob is out of range (interference mode, mobility, churn,
    /// adversary, protocol parameters), or the protocol inputs do not fit
    /// the materialized network.
    Spec(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Network(e) => write!(f, "network construction failed: {e}"),
            SimError::Topology(msg) => write!(f, "topology generation failed: {msg}"),
            SimError::MissingProtocol => write!(f, "scenario has no protocol; call .protocol(...)"),
            SimError::MissingBudget => {
                write!(f, "protocol needs a round budget; call .budget(max_rounds)")
            }
            SimError::Spec(msg) => write!(f, "invalid scenario: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<NetworkError> for SimError {
    fn from(e: NetworkError) -> Self {
        SimError::Network(e)
    }
}

type ObserverFactory = Arc<dyn Fn() -> Box<dyn Observer> + Send + Sync>;

/// Builder for a reproducible simulation: topology + protocol + constants
/// + SINR parameters + budget (see the [`crate::sim`] module docs).
#[derive(Clone)]
pub struct Scenario<P: MetricPoint = Point2> {
    topology: Arc<dyn Topology<P>>,
    protocol: Option<ProtocolSpec>,
    params: SinrParams,
    consts: Constants,
    budget: Option<u64>,
    mode: InterferenceMode,
    record: bool,
    physics_threads: usize,
    mobility: Option<MobilitySpec>,
    churn: Option<ChurnSpec>,
    adversary: Option<AdversarySpec>,
    repair: RepairPolicy,
    observers: Vec<ObserverFactory>,
}

impl<P: MetricPoint> Scenario<P> {
    /// Starts a scenario over `topology` — a [`super::TopologySpec`] for
    /// generated families, or a `Vec` of explicit points (any metric).
    ///
    /// Defaults: planar SINR parameters, [`Constants::tuned`], exact
    /// interference, no trace, no budget.
    pub fn new(topology: impl Topology<P> + 'static) -> Self {
        Scenario {
            topology: Arc::new(topology),
            protocol: None,
            params: SinrParams::default_plane(),
            consts: Constants::tuned(),
            budget: None,
            mode: InterferenceMode::Exact,
            record: false,
            physics_threads: 1,
            mobility: None,
            churn: None,
            adversary: None,
            repair: RepairPolicy::default(),
            observers: Vec::new(),
        }
    }

    /// Sets the protocol to run.
    #[must_use]
    pub fn protocol(mut self, spec: ProtocolSpec) -> Self {
        self.protocol = Some(spec);
        self
    }

    /// Sets the algorithm constants (default [`Constants::tuned`]).
    #[must_use]
    pub fn constants(mut self, consts: Constants) -> Self {
        self.consts = consts;
        self
    }

    /// Sets the SINR parameters (default [`SinrParams::default_plane`]).
    #[must_use]
    pub fn params(mut self, params: SinrParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the round budget. Required for goal-driven protocols
    /// (broadcasts, wake-up, alert); for fixed-schedule protocols
    /// (coloring, consensus, leader election) it optionally *caps* the
    /// schedule.
    #[must_use]
    pub fn budget(mut self, max_rounds: u64) -> Self {
        self.budget = Some(max_rounds);
        self
    }

    /// Sets the interference-evaluation fidelity (default exact physics).
    #[must_use]
    pub fn interference_mode(mut self, mode: InterferenceMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shards each round's physics accumulate stage across up to `n`
    /// scoped worker threads (default 1; `0` is clamped to 1).
    ///
    /// Results are **bitwise identical at any thread count** (the
    /// reception pipeline's sharding contract, pinned by
    /// `tests/mode_determinism.rs`), so this only trades wall-clock for
    /// cores. It composes with [`Simulation::sweep`] under one machine
    /// thread budget: the auto-sized sweep runs
    /// `budget / physics_threads` concurrent trials, each resolving
    /// rounds on `physics_threads` threads, so the composition stays
    /// within the budget whenever `n` itself does. Like
    /// [`Simulation::sweep_with_threads`], the value is taken as given —
    /// asking for more physics threads than the machine has cores
    /// oversubscribes by exactly that choice (the results still do not
    /// change). Prefer sweep parallelism for many trials and physics
    /// threads for few trials with dense rounds: at two threads, whole
    /// grid-native runs were 1.17–1.59× faster on the `flood-dense-30k`
    /// shape (~870 transmitters per round) and 0.87–1.17× (median 0.97×)
    /// on the sparse `sbcast-static-10k` shape.
    #[must_use]
    pub fn physics_threads(mut self, n: usize) -> Self {
        self.physics_threads = n.max(1);
        self
    }

    /// Makes the topology **dynamic**: every [`MobilitySpec::epoch_rounds`]
    /// rounds the stations move under the spec's model
    /// ([`sinr_netgen::mobility`]) and the network reindexes in place —
    /// allocation-reusing, with the reception pipeline's zero-allocation
    /// guarantee intact between epochs.
    ///
    /// The trajectory is seeded from the run seed on its own stream, so
    /// mobile runs stay pure functions of their seed and compose with
    /// [`Simulation::sweep`] and [`Scenario::physics_threads`] with
    /// byte-identical reports at any thread count (pinned by
    /// `tests/mode_determinism.rs`). Motion is confined to the bounding
    /// box of the deployment the seed materializes.
    ///
    /// Protocols that consume geometry at setup keep their epoch-0 view:
    /// [`ProtocolSpec::DaumBroadcast`] with an implicit granularity takes
    /// `R_s` from the initial deployment (pass `granularity` explicitly
    /// to control the mobile baseline), and the non-engine-driven
    /// [`ProtocolSpec::GpsOracleBroadcast`] — whose whole schedule is
    /// precomputed from frozen geometry — is rejected at
    /// [`Scenario::build`].
    #[must_use]
    pub fn mobility(mut self, spec: MobilitySpec) -> Self {
        self.mobility = Some(spec);
        self
    }

    /// Makes the **population** dynamic: every
    /// [`ChurnSpec::epoch_rounds`] rounds a seed-derived
    /// [`sinr_netgen::churn::ChurnProcess`] kills, rejoins and spawns
    /// stations, and the network rebuilds its spatial index and
    /// communication graph in place. Station indices are stable
    /// (tombstones; spawns append), dead stations neither transmit nor
    /// receive, and protocols observe the lifecycle through
    /// `on_join`/`on_leave`/`on_topology_change`.
    ///
    /// The schedule is seeded from the run seed on its own stream, so
    /// churned runs stay pure functions of their seed and compose with
    /// [`Simulation::sweep`], [`Scenario::physics_threads`] and
    /// [`Scenario::mobility`] with byte-identical reports at any thread
    /// count (pinned by `tests/mode_determinism.rs`). Arrivals land
    /// uniformly in the bounding box of the deployment the seed
    /// materializes; the broadcast source is protected from churn.
    ///
    /// Only protocols whose per-station goal makes sense for mid-run
    /// arrivals support churn ([`ProtocolSpec::supports_churn`] — the
    /// broadcast family); [`Scenario::build`] rejects the rest, and
    /// validates the model parameters, with [`SimError::Spec`].
    #[must_use]
    pub fn churn(mut self, spec: ChurnSpec) -> Self {
        self.churn = Some(spec);
        self
    }

    /// Arms a seed-derived **adversary**: every
    /// [`AdversarySpec::epoch_rounds`] rounds its fault models run
    /// against the refreshed communication graph and inject targeted
    /// kills, transient outages, or jamming
    /// ([`super::AdversaryModel`]). Kill-type faults flow through the
    /// same transactional delta path as churn (index-stable tombstones,
    /// protected broadcast source, `on_leave`/`on_join` lifecycle
    /// hooks), jamming leaves the population untouched — so adversarial
    /// runs stay pure functions of their seed and compose with
    /// [`Scenario::churn`], [`Scenario::mobility`],
    /// [`Simulation::sweep`] and [`Scenario::physics_threads`] with
    /// byte-identical reports at any thread count (pinned by
    /// `tests/mode_determinism.rs`).
    ///
    /// Faulted runs fill [`RunReport::faults`] with kill/return/jam
    /// totals, the coverage-over-time degradation curve (one sample per
    /// adversary boundary) and the re-convergence time after the last
    /// fault. Adversaries attach to the same protocols as churn
    /// ([`ProtocolSpec::supports_churn`] — the broadcast family, whose
    /// per-station goal the degradation accounting is defined over);
    /// [`Scenario::build`] rejects the rest, and validates the model
    /// parameters, with [`SimError::Spec`].
    #[must_use]
    pub fn adversary(mut self, spec: AdversarySpec) -> Self {
        self.adversary = Some(spec);
        self
    }

    /// Sets how epoch boundaries refresh the spatial index and the
    /// communication graph (default [`RepairPolicy::Auto`]: incremental
    /// repair while at most 5% of the population changed, full rebuild
    /// beyond). The refreshed structures are **bit-identical** whichever
    /// path runs — reports never depend on the policy (pinned by
    /// `tests/repair_equivalence.rs`) — so this only trades epoch
    /// wall-clock; [`RepairPolicy::AlwaysFull`] and
    /// [`RepairPolicy::AlwaysIncremental`] exist chiefly for the
    /// differential tests and for benchmarking either path.
    #[must_use]
    pub fn repair_policy(mut self, policy: RepairPolicy) -> Self {
        self.repair = policy;
        self
    }

    /// Records per-round statistics into [`RunReport::per_round`].
    #[must_use]
    pub fn record_rounds(mut self) -> Self {
        self.record = true;
        self
    }

    /// Registers an observer factory; a fresh observer is built for every
    /// run (keeping sweeps deterministic) and its measurements land in
    /// [`RunReport::measurements`].
    #[must_use]
    pub fn observe(
        mut self,
        factory: impl Fn() -> Box<dyn Observer> + Send + Sync + 'static,
    ) -> Self {
        self.observers.push(Arc::new(factory));
        self
    }

    /// Validates the scenario into a runnable [`Simulation`].
    ///
    /// # Errors
    ///
    /// [`SimError::MissingProtocol`] without a protocol;
    /// [`SimError::MissingBudget`] when a goal-driven protocol has no
    /// budget; [`SimError::Spec`] when a knob is out of range (an
    /// interference mode failing [`InterferenceMode::validate`], a flood
    /// probability outside `(0, 1]`, …).
    pub fn build(self) -> Result<Simulation<P>, SimError> {
        let spec = self.protocol.as_ref().ok_or(SimError::MissingProtocol)?;
        if self.budget.is_none() && !spec.has_fixed_schedule() {
            return Err(SimError::MissingBudget);
        }
        // Fail fast here rather than panicking inside run()/sweep()
        // worker threads (Network::with_interference_mode applies the
        // same rule).
        self.mode.validate().map_err(SimError::Spec)?;
        if let Some(mob) = &self.mobility {
            if mob.epoch_rounds == 0 {
                return Err(SimError::Spec(
                    "mobility epoch length must be at least one round".into(),
                ));
            }
            // Fail fast here rather than panicking inside run()/sweep()
            // worker threads.
            mob.model.validate().map_err(SimError::Spec)?;
            if matches!(spec, ProtocolSpec::GpsOracleBroadcast { .. }) {
                return Err(SimError::Spec(
                    "the GPS-oracle baseline precomputes a TDMA schedule from frozen \
                     geometry and does not support mobility"
                        .into(),
                ));
            }
        }
        if let Some(churn) = &self.churn {
            if churn.epoch_rounds == 0 {
                return Err(SimError::Spec(
                    "churn epoch length must be at least one round".into(),
                ));
            }
            // Fail fast here rather than panicking inside run()/sweep()
            // worker threads.
            churn.model.validate().map_err(SimError::Spec)?;
            if !spec.supports_churn() {
                return Err(SimError::Spec(format!(
                    "protocol '{}' does not support a dynamic population \
                     (churn needs a per-station goal that mid-run arrivals can adopt; \
                     the broadcast family qualifies)",
                    spec.name()
                )));
            }
        }
        if let Some(adv) = &self.adversary {
            // Fail fast here rather than panicking inside run()/sweep()
            // worker threads.
            adv.validate().map_err(SimError::Spec)?;
            if !spec.supports_churn() {
                return Err(SimError::Spec(format!(
                    "protocol '{}' does not support an adversary \
                     (fault degradation is accounted against a per-station goal \
                     that survives population changes; the broadcast family qualifies)",
                    spec.name()
                )));
            }
        }
        if let ProtocolSpec::FloodBroadcast { p, .. } | ProtocolSpec::ReFloodBroadcast { p, .. } =
            spec
        {
            if !(*p > 0.0 && *p <= 1.0) {
                return Err(SimError::Spec(format!(
                    "{} probability must be in (0, 1], got {p}",
                    spec.name()
                )));
            }
        }
        if let ProtocolSpec::ReFloodBroadcast { burst_rounds, .. } = spec {
            if *burst_rounds == 0 {
                return Err(SimError::Spec(
                    "re-flood burst must last at least one round".into(),
                ));
            }
        }
        if let ProtocolSpec::ReFloodBroadcastEstimate {
            nu0, burst_rounds, ..
        } = spec
        {
            if *nu0 == 0 {
                return Err(SimError::Spec(
                    "initial population estimate nu0 must be at least 1".into(),
                ));
            }
            if *burst_rounds == 0 {
                return Err(SimError::Spec(
                    "re-flood burst must last at least one round".into(),
                ));
            }
        }
        if let ProtocolSpec::NoSBroadcastOnlineEstimate { nu0, .. }
        | ProtocolSpec::SBroadcastOnlineEstimate { nu0, .. } = spec
        {
            if *nu0 == 0 {
                return Err(SimError::Spec(
                    "initial population estimate nu0 must be at least 1".into(),
                ));
            }
        }
        // Resolve the machine's thread budget exactly once per
        // Simulation: sweeps and physics threads share it, so repeated
        // `sweep` calls never re-query the OS and the two axes of
        // parallelism cannot oversubscribe the machine. This is the ONE
        // call site sinr-lint's parallelism-resolver rule permits; the
        // clippy disallowed-methods mirror needs a local allow.
        #[allow(clippy::disallowed_methods)]
        let thread_budget = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Ok(Simulation {
            scenario: self,
            thread_budget,
        })
    }
}

/// A validated, runnable scenario. Immutable and shareable across
/// threads; every run is a pure function of its seed.
#[derive(Clone)]
pub struct Simulation<P: MetricPoint = Point2> {
    scenario: Scenario<P>,
    /// Machine thread budget, resolved once at [`Scenario::build`] and
    /// shared between sweep workers and per-trial physics threads.
    thread_budget: usize,
}

impl<P: MetricPoint> Simulation<P> {
    /// The protocol this simulation runs.
    pub fn protocol(&self) -> &ProtocolSpec {
        self.scenario
            .protocol
            .as_ref()
            .expect("validated by build()")
    }

    /// The SINR parameters in effect.
    pub fn params(&self) -> &SinrParams {
        &self.scenario.params
    }

    /// The station positions a given run seed materializes (generated
    /// topologies derive their own stream from the run seed, so this is
    /// exactly what [`Simulation::run`] will simulate on).
    ///
    /// # Errors
    ///
    /// Propagates topology-generation failures.
    pub fn materialize(&self, seed: u64) -> Result<Vec<P>, SimError> {
        self.scenario
            .topology
            .build(&self.scenario.params, derive_seed(seed, TOPOLOGY_STREAM, 0))
    }

    /// Runs one seed to completion.
    ///
    /// # Errors
    ///
    /// Topology, network or spec mismatches; never panics on well-formed
    /// scenarios.
    pub fn run(&self, seed: u64) -> Result<RunReport, SimError> {
        let points = self.materialize(seed)?;
        let net =
            Network::new(points, self.scenario.params)?.with_interference_mode(self.scenario.mode);
        execute(&self.scenario, net, seed)
    }

    /// Runs every seed, in parallel across the machine's cores. Results
    /// are in seed order and identical to a serial execution: each run
    /// depends only on its seed.
    ///
    /// The worker count is the thread budget resolved once at
    /// [`Scenario::build`], divided by the scenario's
    /// [`Scenario::physics_threads`] — sweep workers and per-trial
    /// physics threads share one budget, so the auto-sized composition
    /// stays within it (as long as `physics_threads` itself does; an
    /// explicitly oversized value is honored as given).
    ///
    /// # Errors
    ///
    /// The first (by seed order) run error, if any.
    pub fn sweep(&self, seeds: &[u64]) -> Result<SweepReport, SimError> {
        let workers = (self.thread_budget / self.scenario.physics_threads).max(1);
        self.sweep_with_threads(seeds, workers)
    }

    /// As [`Simulation::sweep`] with an explicit worker count (`1` runs
    /// serially). The result does not depend on `threads` — pinned by the
    /// golden determinism tests.
    ///
    /// # Errors
    ///
    /// The first (by seed order) run error, if any.
    pub fn sweep_with_threads(
        &self,
        seeds: &[u64],
        threads: usize,
    ) -> Result<SweepReport, SimError> {
        let mut slots: Vec<Option<Result<RunReport, SimError>>> = Vec::new();
        slots.resize_with(seeds.len(), || None);
        let workers = threads.clamp(1, seeds.len().max(1));
        if workers <= 1 {
            for (i, &seed) in seeds.iter().enumerate() {
                slots[i] = Some(self.run(seed));
            }
        } else {
            let next = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    let next = &next;
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= seeds.len() {
                            break;
                        }
                        if tx.send((i, self.run(seeds[i]))).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                for (i, result) in rx {
                    slots[i] = Some(result);
                }
            });
        }
        let mut runs = Vec::with_capacity(seeds.len());
        for slot in slots {
            runs.push(slot.expect("every sweep slot filled")?);
        }
        Ok(SweepReport { runs })
    }
}

/// Result of the shared engine-drive loop.
struct Driven<Pr> {
    rounds: u64,
    completed: bool,
    nodes: Vec<Pr>,
    /// Final liveness flags, aligned with `nodes` (all `true` without
    /// churn) — per-station goals are counted over the live population.
    alive: Vec<bool>,
    total_transmissions: u64,
    per_round: Option<Vec<sinr_runtime::RoundStats>>,
    tx_counts: Option<Vec<u64>>,
    /// Fault accounting, when the scenario armed an adversary.
    faults: Option<FaultReport>,
}

/// The boxed state-machine factory of stations spawned by churn.
type Spawn<Pr> = Box<dyn FnMut(usize) -> Pr>;

/// Builds the engine of one run from the scenario's execution knobs:
/// physics threads, trace recording, and — for dynamic topologies — the
/// mobility and churn state, each seeded from the run seed on its own
/// stream ([`MOBILITY_STREAM`], [`CHURN_STREAM`]) and confined to the
/// bounding box of the materialized deployment.
///
/// `spawn` builds the protocol state of stations churn spawns mid-run;
/// arms whose protocol supports churn pass it (`build()` has verified the
/// combination, so a churn spec without a factory is a bug).
fn setup_engine<P: MetricPoint, Pr: Protocol + 'static>(
    scenario: &Scenario<P>,
    net: Network<P>,
    seed: u64,
    make: impl FnMut(usize) -> Pr,
    spawn: Option<Spawn<Pr>>,
) -> Engine<P, Pr> {
    let mut eng = Engine::new(net, seed, make);
    eng.set_physics_threads(scenario.physics_threads);
    eng.set_repair_policy(scenario.repair);
    if scenario.record {
        eng.record_rounds();
    }
    if eng.network().is_empty() {
        return eng;
    }
    if let Some(spec) = &scenario.churn {
        let spawner = spawn.expect("build() validated that the protocol supports churn");
        let mut proc = ChurnProcess::over_deployment(
            spec.model,
            eng.network().points(),
            derive_seed(seed, CHURN_STREAM, 0),
        );
        if let Some(source) = scenario
            .protocol
            .as_ref()
            .and_then(ProtocolSpec::broadcast_source)
        {
            proc = proc.protect(source);
        }
        eng.set_churn(
            spec.epoch_rounds,
            move |_, alive, delta| proc.step_into(alive, delta),
            spawner,
        );
    }
    if let Some(spec) = &scenario.mobility {
        let mut mob = Mobility::over_deployment(
            spec.model,
            eng.network().points(),
            derive_seed(seed, MOBILITY_STREAM, 0),
        );
        eng.set_mobility(spec.epoch_rounds, move |_, pts| {
            // Churn may have appended stations since the last epoch.
            mob.ensure_stations(pts.len());
            mob.advance(pts);
        });
    }
    if let Some(spec) = &scenario.adversary {
        let mut plans = sinr_runtime::FaultPlanSet::new();
        for (k, model) in spec.models.iter().enumerate() {
            plans.push(model.build(derive_seed(seed, ADVERSARY_STREAM, k as u64)));
        }
        let protected = scenario
            .protocol
            .as_ref()
            .and_then(ProtocolSpec::broadcast_source)
            .unwrap_or(usize::MAX);
        eng.set_adversary(spec.epoch_rounds, protected, Box::new(plans));
    }
    eng
}

/// Whether every **live** node satisfies `done` (dead stations never
/// block a goal; identical to "all nodes" on static populations).
fn live_all<P: MetricPoint, Pr: Protocol>(
    eng: &Engine<P, Pr>,
    done: &impl Fn(&Pr) -> bool,
) -> bool {
    eng.nodes()
        .iter()
        .zip(eng.network().alive())
        .all(|(p, &a)| !a || done(p))
}

/// Number of **live** nodes satisfying `done`.
fn live_count<P: MetricPoint, Pr: Protocol>(
    eng: &Engine<P, Pr>,
    done: &impl Fn(&Pr) -> bool,
) -> usize {
    eng.nodes()
        .iter()
        .zip(eng.network().alive())
        .filter(|(p, &a)| a && done(p))
        .count()
}

/// Drives an engine for up to `budget` rounds. With `until_done` the run
/// stops as soon as every live node satisfies `done` (checked *before*
/// each round, exactly like [`Engine::run_until`]); without it — the
/// fixed global schedules: coloring, consensus, leader election — all
/// `budget` rounds run and `done` only counts informed stations for the
/// observers.
#[allow(clippy::too_many_arguments)]
fn drive<P: MetricPoint, Pr: Protocol + 'static>(
    scenario: &Scenario<P>,
    net: Network<P>,
    seed: u64,
    budget: u64,
    until_done: bool,
    make: impl FnMut(usize) -> Pr,
    done: impl Fn(&Pr) -> bool,
    spawn: Option<Spawn<Pr>>,
    observers: &mut [Box<dyn Observer>],
) -> Driven<Pr> {
    let n = net.len();
    let mut eng = setup_engine(scenario, net, seed, make, spawn);
    for o in observers.iter_mut() {
        o.begin(n);
    }
    let adv_epoch = scenario.adversary.as_ref().map(|a| a.epoch_rounds);
    let mut coverage: Vec<CoveragePoint> = Vec::new();
    let mut executed = 0u64;
    let completed = loop {
        if until_done && live_all(&eng, &done) {
            break true;
        }
        if executed >= budget {
            // A fixed schedule completes by running all its rounds.
            break !until_done;
        }
        let stats = eng.step();
        executed += 1;
        if !observers.is_empty() {
            let informed = live_count(&eng, &done);
            for o in observers.iter_mut() {
                o.on_round(&stats, informed);
            }
        }
        if let Some(epoch) = adv_epoch {
            // Sample the degradation curve right after each adversary
            // boundary round resolves (round 0 gives the baseline).
            let round = eng.round() - 1;
            if round % epoch == 0 {
                coverage.push(CoveragePoint {
                    round,
                    informed: live_count(&eng, &done),
                    live: eng.network().alive().iter().filter(|&&a| a).count(),
                });
            }
        }
    };
    let faults = adv_epoch.map(|_| {
        let stats = *eng.fault_stats();
        FaultReport {
            kills: stats.kills,
            returns: stats.returns,
            jam_rounds: stats.jam_rounds,
            recovery_rounds: match (completed, stats.last_fault_round) {
                (true, Some(last)) => Some(executed.saturating_sub(last)),
                _ => None,
            },
            coverage,
        }
    });
    let per_round = eng.trace().per_round().map(<[_]>::to_vec);
    Driven {
        rounds: executed,
        completed,
        total_transmissions: eng.trace().total_transmissions(),
        tx_counts: per_round.is_some().then(|| eng.tx_counts().to_vec()),
        per_round,
        alive: eng.network().alive().to_vec(),
        nodes: eng.into_nodes(),
        faults,
    }
}

/// The shared tail of every broadcast-style arm: drive to the goal
/// predicate, count the live stations that reached it, erase the node
/// types. The factory doubles as the churn spawn factory (spawned
/// stations are never the source, so the same constructor yields an
/// uninformed newcomer), hence `Clone + 'static`.
#[allow(clippy::too_many_arguments)]
fn broadcast_arm<P: MetricPoint, Pr: Protocol + 'static>(
    scenario: &Scenario<P>,
    net: Network<P>,
    seed: u64,
    budget: u64,
    observers: &mut [Box<dyn Observer>],
    make: impl FnMut(usize) -> Pr + Clone + 'static,
    done: impl Fn(&Pr) -> bool,
) -> (Driven<()>, usize, Outcome) {
    let spawn: Option<Spawn<Pr>> = scenario
        .churn
        .as_ref()
        .map(|_| Box::new(make.clone()) as Spawn<Pr>);
    let d = drive(
        scenario, net, seed, budget, true, make, &done, spawn, observers,
    );
    let informed = d
        .nodes
        .iter()
        .zip(&d.alive)
        .filter(|(p, &a)| a && done(p))
        .count();
    (erase(d), informed, Outcome::Broadcast)
}

fn check_source(source: usize, n: usize) -> Result<(), SimError> {
    if source >= n {
        return Err(SimError::Spec(format!(
            "source {source} out of range for n = {n}"
        )));
    }
    Ok(())
}

/// Executes one run. The per-node randomness is seeded with the run seed
/// itself (streams 0/1/2), so an explicit topology's report depends on
/// the seed alone.
fn execute<P: MetricPoint>(
    scenario: &Scenario<P>,
    net: Network<P>,
    seed: u64,
) -> Result<RunReport, SimError> {
    let spec = scenario
        .protocol
        .as_ref()
        .ok_or(SimError::MissingProtocol)?;
    let consts = scenario.consts;
    let n = net.len();
    let budget = match scenario.budget {
        Some(b) => b,
        None if spec.has_fixed_schedule() => u64::MAX,
        None => return Err(SimError::MissingBudget),
    };
    let mut observers: Vec<Box<dyn Observer>> = scenario.observers.iter().map(|f| f()).collect();

    let (driven, informed, outcome): (Driven<()>, usize, Outcome) = match spec.clone() {
        ProtocolSpec::NoSBroadcast { source } => {
            check_source(source, n)?;
            broadcast_arm(
                scenario,
                net,
                seed,
                budget,
                &mut observers,
                move |id| NoSBroadcastNode::new(id, source, 1, n, consts),
                NoSBroadcastNode::informed,
            )
        }
        ProtocolSpec::NoSBroadcastWithEstimate { source, nu } => {
            check_source(source, n)?;
            if nu < n {
                return Err(SimError::Spec(format!("estimate nu = {nu} below n = {n}")));
            }
            broadcast_arm(
                scenario,
                net,
                seed,
                budget,
                &mut observers,
                move |id| NoSBroadcastNode::new(id, source, 1, nu, consts),
                NoSBroadcastNode::informed,
            )
        }
        ProtocolSpec::SBroadcast { source } => {
            check_source(source, n)?;
            broadcast_arm(
                scenario,
                net,
                seed,
                budget,
                &mut observers,
                move |id| SBroadcastNode::new(id, source, 1, n, consts),
                SBroadcastNode::informed,
            )
        }
        ProtocolSpec::SBroadcastWithEstimate { source, nu } => {
            check_source(source, n)?;
            if nu < n {
                return Err(SimError::Spec(format!("estimate nu = {nu} below n = {n}")));
            }
            broadcast_arm(
                scenario,
                net,
                seed,
                budget,
                &mut observers,
                move |id| SBroadcastNode::new(id, source, 1, nu, consts),
                SBroadcastNode::informed,
            )
        }
        ProtocolSpec::Coloring => {
            let full = crate::coloring::ColoringMachine::total_rounds(n, &consts);
            let total = full.min(budget);
            let d = drive(
                scenario,
                net,
                seed,
                total,
                false,
                |_| StabilizeProtocol::new(n, consts),
                |p| p.machine().is_finished(),
                None,
                &mut observers,
            );
            // A budget below the Fact 7 schedule truncates the run:
            // unfinished stations report color 0.0 (uncolored) and the
            // run counts as incomplete instead of panicking.
            let colors: Vec<f64> = d
                .nodes
                .iter()
                .map(|p| p.machine().color().unwrap_or(0.0))
                .collect();
            let finished = d.nodes.iter().filter(|p| p.machine().is_finished()).count();
            let mut d = erase(d);
            d.completed = total == full;
            (
                d,
                finished,
                Outcome::Coloring {
                    coloring: Coloring::new(colors),
                },
            )
        }
        ProtocolSpec::DaumBroadcast {
            source,
            granularity,
        } => {
            check_source(source, n)?;
            let rs = granularity.or_else(|| net.granularity()).unwrap_or(1.0);
            let alpha = scenario.params.alpha();
            broadcast_arm(
                scenario,
                net,
                seed,
                budget,
                &mut observers,
                move |id| DaumBroadcastNode::new(id, source, 1, n, rs, alpha),
                DaumBroadcastNode::informed,
            )
        }
        ProtocolSpec::FloodBroadcast { source, p } => {
            check_source(source, n)?;
            broadcast_arm(
                scenario,
                net,
                seed,
                budget,
                &mut observers,
                move |id| FloodNode::new(id, source, 1, p),
                FloodNode::informed,
            )
        }
        ProtocolSpec::LocalBroadcast { source } => {
            check_source(source, n)?;
            broadcast_arm(
                scenario,
                net,
                seed,
                budget,
                &mut observers,
                move |id| LocalBroadcastNode::new(id, source, 1, n, 0.5),
                LocalBroadcastNode::informed,
            )
        }
        ProtocolSpec::ReFloodBroadcast {
            source,
            p,
            burst_rounds,
        } => {
            check_source(source, n)?;
            broadcast_arm(
                scenario,
                net,
                seed,
                budget,
                &mut observers,
                move |id| crate::baselines::ReFloodNode::new(id, source, 1, p, burst_rounds),
                crate::baselines::ReFloodNode::informed,
            )
        }
        ProtocolSpec::ReFloodBroadcastEstimate {
            source,
            nu0,
            burst_rounds,
        } => {
            check_source(source, n)?;
            broadcast_arm(
                scenario,
                net,
                seed,
                budget,
                &mut observers,
                move |id| {
                    crate::estimate::EstimatingReFloodNode::new(id, source, 1, nu0, burst_rounds)
                },
                crate::estimate::EstimatingReFloodNode::informed,
            )
        }
        ProtocolSpec::NoSBroadcastOnlineEstimate { source, nu0 } => {
            check_source(source, n)?;
            broadcast_arm(
                scenario,
                net,
                seed,
                budget,
                &mut observers,
                move |id| crate::estimate::EstimatingNoSNode::new(id, source, 1, nu0, consts),
                crate::estimate::EstimatingNoSNode::informed,
            )
        }
        ProtocolSpec::SBroadcastOnlineEstimate { source, nu0 } => {
            check_source(source, n)?;
            broadcast_arm(
                scenario,
                net,
                seed,
                budget,
                &mut observers,
                move |id| crate::estimate::EstimatingSNode::new(id, source, 1, nu0, consts),
                crate::estimate::EstimatingSNode::informed,
            )
        }
        ProtocolSpec::GpsOracleBroadcast { source } => {
            check_source(source, n)?;
            // Oracle TDMA is not engine-driven; per-round observers and
            // traces do not apply (documented on the variant).
            let (rounds, informed, total_transmissions) =
                crate::baselines::gps::run_gps_oracle_on(&net, source, seed, budget);
            let driven = Driven {
                rounds,
                completed: informed == n,
                nodes: Vec::new(),
                alive: Vec::new(),
                total_transmissions,
                per_round: None,
                tx_counts: None,
                faults: None,
            };
            (driven, informed, Outcome::Broadcast)
        }
        ProtocolSpec::AdhocWakeup { schedule } => {
            let first_wake = schedule.first_wake(n).ok_or_else(|| {
                SimError::Spec("wake schedule must wake at least one station".into())
            })?;
            let d = drive(
                scenario,
                net,
                seed,
                budget,
                true,
                |id| AdhocWakeupNode::new(id, &schedule, n, consts),
                AdhocWakeupNode::awake,
                None,
                &mut observers,
            );
            let awake = d.nodes.iter().filter(|p| p.awake()).count();
            let rounds_from_first_wake = d.rounds.saturating_sub(first_wake);
            (
                erase(d),
                awake,
                Outcome::Wakeup {
                    first_wake,
                    rounds_from_first_wake,
                },
            )
        }
        ProtocolSpec::EstablishedWakeup {
            coloring,
            initiators,
        } => {
            if coloring.len() != n {
                return Err(SimError::Spec(format!(
                    "coloring size {} != n = {n}",
                    coloring.len()
                )));
            }
            if initiators.len() != n {
                return Err(SimError::Spec(format!(
                    "initiator flags size {} != n = {n}",
                    initiators.len()
                )));
            }
            broadcast_arm(
                scenario,
                net,
                seed,
                budget,
                &mut observers,
                move |id| {
                    EstablishedWakeupNode::new(coloring.colors[id], initiators[id], n, consts)
                },
                |nd: &EstablishedWakeupNode| nd.signalled,
            )
        }
        ProtocolSpec::Consensus {
            values,
            bits,
            d_bound,
        } => {
            if values.len() != n {
                return Err(SimError::Spec(format!(
                    "one value per station: {} values for n = {n}",
                    values.len()
                )));
            }
            let window = consts.wakeup_window(n, d_bound);
            let total = (consts.coloring_rounds(n) + u64::from(bits) * window).min(budget);
            let d = drive(
                scenario,
                net,
                seed,
                total,
                false,
                |id| ConsensusNode::new(values[id], bits, n, consts, window),
                |p| p.decided().is_some(),
                None,
                &mut observers,
            );
            let decided: Vec<Option<u64>> = d.nodes.iter().map(ConsensusNode::decided).collect();
            let informed = decided.iter().filter(|v| v.is_some()).count();
            let agreement = decided.windows(2).all(|w| w[0] == w[1])
                && decided.first().is_some_and(Option::is_some);
            let min = values.iter().copied().min().unwrap_or(0);
            let valid = agreement && decided.first().copied().flatten() == Some(min);
            let mut d = erase(d);
            d.completed = agreement;
            (
                d,
                informed,
                Outcome::Consensus {
                    decided,
                    agreement,
                    valid,
                },
            )
        }
        ProtocolSpec::LeaderElection { d_bound } => {
            let bits = LeaderNode::id_bits(n);
            let window = consts.wakeup_window(n, d_bound);
            let total = (consts.coloring_rounds(n) + u64::from(bits) * window).min(budget);
            let d = drive(
                scenario,
                net,
                seed,
                total,
                false,
                |id| {
                    // Stream 1 draws IDs; stream 0 drives the protocol
                    // inside the engine.
                    use rand::Rng;
                    let mut rng = node_rng(seed, id as u64, 1);
                    let id_value = rng.gen_range(1..(1u64 << bits));
                    LeaderNode::new(id_value, n, consts, window)
                },
                |p| p.is_leader().is_some(),
                None,
                &mut observers,
            );
            let leaders: Vec<usize> = d
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, nd)| nd.is_leader() == Some(true))
                .map(|(i, _)| i)
                .collect();
            let informed = d.nodes.iter().filter(|nd| nd.is_leader().is_some()).count();
            let unique = leaders.len() == 1;
            let mut d = erase(d);
            d.completed = unique;
            (d, informed, Outcome::Leader { leaders, unique })
        }
        ProtocolSpec::Alert {
            coloring,
            alerts,
            d_bound,
        } => {
            if coloring.len() != n {
                return Err(SimError::Spec(format!(
                    "coloring size {} != n = {n}",
                    coloring.len()
                )));
            }
            let mut alert_at: Vec<Option<u64>> = vec![None; n];
            for &(station, round) in &alerts {
                if station >= n {
                    return Err(SimError::Spec(format!(
                        "alerted station {station} out of range for n = {n}"
                    )));
                }
                let slot = &mut alert_at[station];
                *slot = Some(slot.map_or(round, |r| r.min(round)));
            }
            let window = consts.wakeup_window(n, d_bound);
            let d = drive(
                scenario,
                net,
                seed,
                budget,
                true,
                |id| {
                    crate::alert::AlertNode::new(
                        coloring.colors[id],
                        alert_at[id],
                        n,
                        consts,
                        window,
                    )
                },
                crate::alert::AlertNode::alarmed,
                None,
                &mut observers,
            );
            let learned_at: Vec<Option<u64>> = d.nodes.iter().map(|nd| nd.learned_at()).collect();
            let alarmed = learned_at.iter().filter(|v| v.is_some()).count();
            (erase(d), alarmed, Outcome::Alert { learned_at })
        }
    };

    let mut report = RunReport {
        seed,
        n,
        rounds: driven.rounds,
        completed: driven.completed,
        informed,
        total_transmissions: driven.total_transmissions,
        outcome,
        per_round: driven.per_round,
        tx_counts: driven.tx_counts,
        measurements: std::collections::BTreeMap::new(),
        faults: driven.faults,
    };
    for o in &mut observers {
        o.finish(&mut report);
    }
    Ok(report)
}

/// Drops the typed node states from a drive result (the protocol-specific
/// data has already been extracted into the [`Outcome`]).
fn erase<Pr>(d: Driven<Pr>) -> Driven<()> {
    Driven {
        rounds: d.rounds,
        completed: d.completed,
        nodes: Vec::new(),
        alive: d.alive,
        total_transmissions: d.total_transmissions,
        per_round: d.per_round,
        tx_counts: d.tx_counts,
        faults: d.faults,
    }
}
