//! The synchronous round engine.

use rand::rngs::SmallRng;
use sinr_geometry::MetricPoint;
use sinr_phy::{ChurnDelta, GraphScratch, Network, ReceptionOracle, RoundOutcome};

use crate::adversary::{FaultDelta, FaultPlan, FaultView};
use crate::protocol::{NodeCtx, Protocol, TopologyChange};
use crate::rng::node_rng;
use crate::trace::{RoundStats, Trace};

/// The argument of [`Engine::set_kernel_dispatch`], which has no effect:
/// every batch kernel is a scalar loop, so there is no kernel tier to
/// choose.
///
/// It remains only because the whole-run benchmark's stage tracer
/// (`e2e-bench/src/traced.rs`) rebuilds the engine by hand and calls the
/// setter. Porting that tracer onto an engine probe seam removes the last
/// caller; that change deletes this type, the setter and the matching
/// `ScenarioSpec` field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelDispatch;

/// The argument of [`Engine::set_accumulation`], which has no effect: the
/// grid-native interference tail is always summed in f64.
///
/// It remains only for the same caller as [`KernelDispatch`], and goes
/// with it when the benchmark's stage tracer is ported onto an engine
/// probe seam.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accumulation;

/// Result of driving an engine until a predicate or a round budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Rounds executed by this call.
    pub rounds: u64,
    /// Whether the predicate was satisfied (vs. the budget exhausting).
    pub completed: bool,
}

/// The boxed epoch mover of a dynamic-topology trial: called with the
/// epoch index and the positions to update.
type Mover<P> = Box<dyn FnMut(u64, &mut [P])>;

/// Epoch-boundary motion hook of a dynamic-topology trial.
struct Mobility<P> {
    /// Rounds per epoch (boundaries fall at round numbers divisible by
    /// this).
    epoch_rounds: u64,
    /// Moves the stations by one epoch; called with the epoch index
    /// (1 at the first boundary) and the positions to update.
    mover: Mover<P>,
}

/// The boxed churn generator of a dynamic-population trial: called with
/// the epoch index, the current liveness flags, and the (cleared, reused)
/// delta to fill.
type Churner<P> = Box<dyn FnMut(u64, &[bool], &mut ChurnDelta<P>)>;

/// Builds the state machine of a station spawned mid-run.
type Spawner<Pr> = Box<dyn FnMut(usize) -> Pr>;

/// Epoch-boundary population hook of a dynamic-population trial.
struct Churn<P, Pr> {
    /// Rounds per churn epoch (boundaries at round numbers divisible by
    /// this; independent of the mobility epoch length).
    epoch_rounds: u64,
    /// Fills the epoch's [`ChurnDelta`].
    churner: Churner<P>,
    /// Constructs the protocol state of spawned stations.
    spawner: Spawner<Pr>,
}

/// Epoch-boundary fault-injection hook ([`Engine::set_adversary`]).
struct Adversary {
    /// Rounds per adversary epoch (boundaries at round numbers divisible
    /// by this; independent of the churn and mobility epoch lengths).
    epoch_rounds: u64,
    /// The fault plan consulted at every boundary.
    plan: Box<dyn FaultPlan>,
    /// Reused per-epoch fault delta.
    delta: FaultDelta,
    /// Station the engine refuses to fault (`usize::MAX` = nobody).
    protected: usize,
}

/// Running totals of injected faults — the raw material of degradation
/// reports ([`Engine::fault_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Stations crashed by the adversary (excluding churner kills).
    pub kills: u64,
    /// Blackout returns injected by the adversary.
    pub returns: u64,
    /// Total jammed transmissions (one per jammer per round jammed).
    pub jam_rounds: u64,
    /// Round of the most recent injected fault, if any — the anchor for
    /// re-convergence ("recovery rounds") accounting.
    pub last_fault_round: Option<u64>,
}

/// Drives a set of per-node [`Protocol`] state machines over a
/// [`Network`], resolving each round through the SINR oracle.
///
/// # Example
///
/// ```
/// use sinr_geometry::Point2;
/// use sinr_phy::{Network, SinrParams};
/// use sinr_runtime::{Engine, NodeCtx, Protocol};
///
/// /// Station 0 transmits once; everyone else listens.
/// struct OneShot { id: usize, heard: bool }
/// impl Protocol for OneShot {
///     type Msg = u8;
///     fn poll_transmit(&mut self, ctx: &mut NodeCtx<'_>) -> Option<u8> {
///         (self.id == 0 && ctx.round == 0).then_some(7)
///     }
///     fn on_round_end(&mut self, _: &mut NodeCtx<'_>, _tx: bool, rx: Option<&u8>) {
///         if rx == Some(&7) { self.heard = true; }
///     }
///     fn is_done(&self) -> bool { self.heard || self.id == 0 }
/// }
///
/// let net = Network::new(
///     vec![Point2::new(0.0, 0.0), Point2::new(0.5, 0.0)],
///     SinrParams::default_plane(),
/// ).unwrap();
/// let mut eng = Engine::new(net, 42, |id| OneShot { id, heard: false });
/// let result = eng.run_until_all_done(10);
/// assert!(result.completed);
/// assert_eq!(result.rounds, 1);
/// ```
pub struct Engine<P: MetricPoint, Pr: Protocol> {
    net: Network<P>,
    nodes: Vec<Pr>,
    rngs: Vec<SmallRng>,
    round: u64,
    trace: Trace,
    /// Per-node transmission counts (energy accounting).
    tx_counts: Vec<u64>,
    /// Per-node reception counts.
    rx_counts: Vec<u64>,
    // Reused per-round buffers: the engine resolves thousands of rounds
    // over one network, so all reception scratch lives here and `step`
    // performs no steady-state heap allocations in the physical layer.
    tx_ids: Vec<usize>,
    tx_msgs: Vec<Option<Pr::Msg>>,
    /// Owns the accumulate stage's thread cap
    /// ([`Engine::set_physics_threads`]) and shard scratch.
    oracle: ReceptionOracle,
    outcome: RoundOutcome,
    /// Dynamic-topology hook: between epochs the network is frozen, at
    /// epoch boundaries the mover updates positions and the network
    /// reindexes in place.
    mobility: Option<Mobility<P>>,
    /// Dynamic-population hook: at churn epoch boundaries stations leave,
    /// rejoin and spawn ([`Engine::set_churn`]).
    churn: Option<Churn<P, Pr>>,
    /// Fault-injection hook: at adversary epoch boundaries a
    /// [`FaultPlan`] crashes, revives and jams stations
    /// ([`Engine::set_adversary`]).
    adversary: Option<Adversary>,
    /// Per-station jam mask, refreshed at adversary boundaries: jammed
    /// stations transmit undecodable noise every round.
    jammed: Vec<bool>,
    /// Number of `true` entries in `jammed` (skips the per-round mask
    /// reads entirely while nobody is jammed).
    num_jammed: usize,
    /// Running fault totals.
    fault_stats: FaultStats,
    /// Reused per-epoch churn delta (no steady-state allocation while
    /// the delta stays under its high-water mark).
    delta: ChurnDelta<P>,
    /// Reused BFS scratch for the epoch-boundary connectivity checks.
    graph_scratch: GraphScratch,
    /// The seed node RNGs derive from — retained so stations spawned
    /// mid-run get their own deterministic streams.
    seed: u64,
}

impl<P: MetricPoint, Pr: Protocol> Engine<P, Pr> {
    /// Creates an engine; `make_node(id)` builds the state machine of each
    /// station, and per-node RNGs are derived from `seed`.
    pub fn new(net: Network<P>, seed: u64, make_node: impl FnMut(usize) -> Pr) -> Self {
        let n = net.len();
        let oracle = net.new_oracle();
        let nodes = (0..n).map(make_node).collect();
        let rngs = (0..n).map(|i| node_rng(seed, i as u64, 0)).collect();
        Engine {
            net,
            nodes,
            rngs,
            round: 0,
            trace: Trace::aggregate_only(),
            tx_counts: vec![0; n],
            rx_counts: vec![0; n],
            tx_ids: Vec::with_capacity(n),
            tx_msgs: Vec::new(),
            oracle,
            outcome: RoundOutcome::empty(),
            mobility: None,
            churn: None,
            adversary: None,
            jammed: Vec::new(),
            num_jammed: 0,
            fault_stats: FaultStats::default(),
            delta: ChurnDelta::new(),
            graph_scratch: GraphScratch::new(),
            seed,
        }
    }

    /// Makes the topology dynamic: every `epoch_rounds` rounds, `mover`
    /// updates the station positions and the network reindexes **in
    /// place** ([`Network::update_positions`] — allocation-reusing, CSR
    /// slot order preserved), so the reception pipeline stays
    /// zero-allocation between epochs. The oracle re-plans from the
    /// rebuilt index on the next round automatically: its plan stage runs
    /// per round against the network's current grid.
    ///
    /// `mover` receives the epoch index (1 at the first boundary, i.e.
    /// before round `epoch_rounds`) and the positions to move; it must be
    /// deterministic for reproducible runs. The round *schedule* is
    /// unaffected — only where stations sit when rounds resolve.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_rounds` is zero.
    pub fn set_mobility(&mut self, epoch_rounds: u64, mover: impl FnMut(u64, &mut [P]) + 'static) {
        assert!(epoch_rounds > 0, "epoch length must be at least one round");
        self.mobility = Some(Mobility {
            epoch_rounds,
            mover: Box::new(mover),
        });
    }

    /// Makes the **population** dynamic: every `epoch_rounds` rounds
    /// `churner` fills a (reused) [`ChurnDelta`] — stations to kill,
    /// dead stations to rejoin at a new position, new stations to spawn —
    /// and the engine applies it as one transaction:
    ///
    /// 1. [`Protocol::on_leave`] fires on each killed station (its state
    ///    is retained — tombstoned, not dropped — so report vectors stay
    ///    index-stable and a later rejoin revives its memory);
    /// 2. [`Network::apply_churn`] tombstones/revives/appends and rebuilds
    ///    the spatial index and communication graph in place;
    /// 3. spawned stations get state machines from `spawner` and fresh
    ///    per-node RNG streams derived from the run seed (a pure function
    ///    of their index, so churned runs replay bit-for-bit);
    /// 4. [`Protocol::on_join`] fires on every rejoined and spawned
    ///    station, then [`Protocol::on_topology_change`] on every live
    ///    station with the refreshed graph's connectivity.
    ///
    /// Dead stations are excluded from transmit/receive entirely and
    /// their RNG streams do not advance while down. Churn composes with
    /// [`Engine::set_mobility`]: the two epochs fire independently and a
    /// boundary where either fires refreshes the communication graph.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_rounds` is zero.
    pub fn set_churn(
        &mut self,
        epoch_rounds: u64,
        churner: impl FnMut(u64, &[bool], &mut ChurnDelta<P>) + 'static,
        spawner: impl FnMut(usize) -> Pr + 'static,
    ) {
        assert!(epoch_rounds > 0, "epoch length must be at least one round");
        self.churn = Some(Churn {
            epoch_rounds,
            churner: Box::new(churner),
            spawner: Box::new(spawner),
        });
    }

    /// Arms a fault-injecting adversary: every `epoch_rounds` rounds the
    /// [`FaultPlan`] is consulted with a [`FaultView`] of the run
    /// (liveness, the communication graph, the earliest live
    /// [`Protocol::phase_hint`]) and its [`FaultDelta`] is applied:
    ///
    /// * **kills** merge into the boundary's [`ChurnDelta`] (after the
    ///   churner's own kills, deduplicated) and ride the same
    ///   transaction — [`Protocol::on_leave`], tombstoning, graph
    ///   refresh, [`Protocol::on_topology_change`];
    /// * **returns** revive previously crashed stations **at their
    ///   retained positions** (blackout/stale-wake), again as ordinary
    ///   rejoins;
    /// * **jammers** transmit undecodable noise every round until the
    ///   next adversary boundary re-plans the mask. The SINR math is
    ///   untouched: jammers are ordinary transmitters whose payload no
    ///   receiver can use, so a station that decodes a jammer hears
    ///   silence at the protocol level (physical-layer trace receptions
    ///   may therefore exceed protocol receptions under jamming). Jammed
    ///   stations keep running their protocol and their RNG streams
    ///   advance normally.
    ///
    /// Requests targeting dead stations (or live ones, for returns), the
    /// `protected` station (`usize::MAX` = nobody) or duplicates are
    /// filtered out, so plans may be sloppy about current liveness.
    /// Faults compose with [`Engine::set_churn`] and
    /// [`Engine::set_mobility`]; all three epochs fire independently.
    /// Determinism: with a deterministic plan, faulted runs remain a
    /// pure function of the seed and are bitwise identical at any
    /// physics thread count.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_rounds` is zero.
    pub fn set_adversary(&mut self, epoch_rounds: u64, protected: usize, plan: Box<dyn FaultPlan>) {
        assert!(epoch_rounds > 0, "epoch length must be at least one round");
        self.adversary = Some(Adversary {
            epoch_rounds,
            plan,
            delta: FaultDelta::default(),
            protected,
        });
    }

    /// Running totals of adversary-injected faults (all zero when no
    /// adversary is armed).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Shards each round's physics accumulate stage across up to
    /// `threads` scoped worker threads (default 1, i.e. inline).
    ///
    /// Results are **bitwise identical at any thread count** — the
    /// reception pipeline's sharding contract — so this only trades
    /// wall-clock for cores. It pays where rounds are dense: at two
    /// threads, whole grid-native runs were 1.17–1.59× faster on the
    /// `flood-dense-30k` shape (~870 transmitters per round) but
    /// 0.87–1.17× (median 0.97×, no gain) on the sparse
    /// `sbcast-static-10k` shape (see the `sinr-phy` crate docs).
    pub fn set_physics_threads(&mut self, threads: usize) {
        self.oracle.set_threads(threads);
    }

    /// The physics thread count rounds are resolved with.
    pub fn physics_threads(&self) -> usize {
        self.oracle.threads()
    }

    /// Sets how mobility/churn epoch boundaries refresh the spatial index
    /// and the communication graph (incremental repair vs full rebuild —
    /// [`Network::set_repair_policy`]). Structures are bit-identical
    /// either way; the policy only selects the work spent.
    pub fn set_repair_policy(&mut self, policy: sinr_geometry::RepairPolicy) {
        self.net.set_repair_policy(policy);
    }

    /// Has no effect: every batch kernel is a scalar loop, so there is
    /// nothing to dispatch. Kept only for the benchmark's stage tracer,
    /// and deleted with [`KernelDispatch`] when that tracer is ported.
    pub fn set_kernel_dispatch(&mut self, _dispatch: KernelDispatch) {}

    /// Has no effect: the grid-native interference tail is always summed
    /// in f64. Kept only for the benchmark's stage tracer, and deleted
    /// with [`Accumulation`] when that tracer is ported.
    pub fn set_accumulation(&mut self, _accumulation: Accumulation) {}

    /// Per-node transmission counts so far — the standard energy proxy for
    /// duty-cycled radios (transmitting dominates the energy budget).
    pub fn tx_counts(&self) -> &[u64] {
        &self.tx_counts
    }

    /// Per-node reception counts so far.
    pub fn rx_counts(&self) -> &[u64] {
        &self.rx_counts
    }

    /// Enables per-round trace recording (see [`Trace::recording`]).
    pub fn record_rounds(&mut self) {
        self.trace = Trace::recording();
    }

    /// The underlying network.
    pub fn network(&self) -> &Network<P> {
        &self.net
    }

    /// The node state machines.
    pub fn nodes(&self) -> &[Pr] {
        &self.nodes
    }

    /// Mutable access to a node (for injecting external events such as
    /// adversarial wake-ups).
    pub fn node_mut(&mut self, id: usize) -> &mut Pr {
        &mut self.nodes[id]
    }

    /// Current round number (= rounds executed so far).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Accumulated trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Executes one synchronous round; returns its statistics.
    pub fn step(&mut self) -> RoundStats {
        // Epoch boundaries first: stations move/churn *between* rounds,
        // so the round about to resolve already sees the new deployment.
        self.epoch_boundary();
        let n = self.net.len();
        // Static populations skip the per-node liveness loads entirely —
        // the dominant case, and these loops are lean enough (a few
        // hundred ns per round on small protocols) for two extra
        // bounds-checked reads per node to show up in the tracked
        // broadcast benchmarks.
        let all_live = self.net.live_count() == n;
        // Jam mask reads are skipped entirely while nobody is jammed —
        // the mask only matters between adversary boundaries that
        // planned jammers.
        let jam_active = self.num_jammed > 0;
        self.tx_ids.clear();
        self.tx_msgs.clear();
        self.tx_msgs.resize_with(n, || None);

        for id in 0..n {
            if !all_live && !self.net.is_alive(id) {
                continue;
            }
            let mut ctx = NodeCtx {
                id,
                round: self.round,
                n,
                rng: &mut self.rngs[id],
            };
            let msg = self.nodes[id].poll_transmit(&mut ctx);
            if jam_active && self.jammed[id] {
                // Jammers transmit every round; whatever the protocol
                // wanted to say is replaced by undecodable noise
                // (`tx_msgs[id]` stays `None`, so decoding this station
                // yields silence). Polling still ran, so the node's RNG
                // stream advances exactly as unjammed.
                self.tx_ids.push(id);
                self.fault_stats.jam_rounds += 1;
            } else if let Some(msg) = msg {
                self.tx_ids.push(id);
                self.tx_msgs[id] = Some(msg);
            }
        }

        self.net
            .resolve_with(&mut self.oracle, &self.tx_ids, &mut self.outcome);
        let receptions = self.outcome.num_receivers();

        for &t in &self.tx_ids {
            self.tx_counts[t] += 1;
        }
        for id in 0..n {
            if !all_live && !self.net.is_alive(id) {
                continue;
            }
            let transmitted = self.tx_msgs[id].is_some() || (jam_active && self.jammed[id]);
            let received =
                self.outcome.decoded_from[id].and_then(|from| self.tx_msgs[from].as_ref());
            if received.is_some() {
                self.rx_counts[id] += 1;
            }
            let mut ctx = NodeCtx {
                id,
                round: self.round,
                n,
                rng: &mut self.rngs[id],
            };
            self.nodes[id].on_round_end(&mut ctx, transmitted, received);
        }

        let stats = RoundStats {
            round: self.round,
            transmitters: self.tx_ids.len(),
            receptions,
        };
        self.trace.record(stats);
        self.round += 1;
        stats
    }

    /// Applies any due epoch boundaries: churn first (the departing
    /// stations get `on_leave` before they vanish, arrivals land before
    /// motion), then adversary faults (merged into the same delta), then
    /// mobility, then — if anything changed — one communication-graph
    /// refresh notification to every live node. All scratch (deltas, BFS
    /// buffers, graph CSR, grid, jam mask) is reused, so boundaries
    /// allocate nothing in steady state while `n` is stable.
    fn epoch_boundary(&mut self) {
        if self.round == 0 {
            return;
        }
        let churn_due = self
            .churn
            .as_ref()
            .is_some_and(|c| self.round % c.epoch_rounds == 0);
        let mobility_due = self
            .mobility
            .as_ref()
            .is_some_and(|m| self.round % m.epoch_rounds == 0);
        let adversary_due = self
            .adversary
            .as_ref()
            .is_some_and(|a| self.round % a.epoch_rounds == 0);
        if !churn_due && !mobility_due && !adversary_due {
            return;
        }
        // Generate the epoch's delta first (the churner never touches the
        // network), so a no-op boundary returns before paying the
        // pre-change connectivity BFS below.
        if churn_due {
            let c = self.churn.as_mut().expect("churn_due checked");
            let epoch = self.round / c.epoch_rounds;
            self.delta.clear();
            (c.churner)(epoch, self.net.alive(), &mut self.delta);
        } else {
            self.delta.clear();
        }
        if adversary_due {
            self.plan_faults();
        }
        if self.delta.is_empty() && !mobility_due {
            // Jam-only (or fault-free) boundary: the population and the
            // graph are untouched, so no topology event fires.
            return;
        }
        // Connectivity of the live graph *before* this boundary's churn
        // and motion (the `was_connected` half of the topology event).
        let was_connected = self
            .net
            .comm_graph()
            .is_connected_with(&mut self.graph_scratch);
        let mut joined = 0usize;
        let mut left = 0usize;
        // The delta may carry churner *and* adversary entries; apply it
        // whenever it is non-empty (adversary kills can exist with no
        // churner armed at all).
        if !self.delta.is_empty() {
            let n = self.net.len();
            // Departures hear about it while still alive.
            for &k in &self.delta.kills {
                let mut ctx = NodeCtx {
                    id: k,
                    round: self.round,
                    n,
                    rng: &mut self.rngs[k],
                };
                self.nodes[k].on_leave(&mut ctx);
            }
            // When mobility fires at the same boundary it rebuilds
            // the graph right after moving — skip the intermediate
            // rebuild the combined boundary would otherwise discard.
            if mobility_due {
                self.net.apply_churn_deferred(&self.delta);
            } else {
                self.net.apply_churn(&self.delta);
            }
            let new_n = self.net.len();
            // Spawned stations only ever come from the churner — fault
            // plans crash and revive, they never mint stations.
            if let Some(c) = self.churn.as_mut() {
                for id in n..new_n {
                    self.nodes.push((c.spawner)(id));
                    self.rngs.push(node_rng(self.seed, id as u64, 0));
                    self.tx_counts.push(0);
                    self.rx_counts.push(0);
                }
            }
            for &(r, _) in &self.delta.rejoins {
                let mut ctx = NodeCtx {
                    id: r,
                    round: self.round,
                    n: new_n,
                    rng: &mut self.rngs[r],
                };
                self.nodes[r].on_join(&mut ctx);
            }
            for id in n..new_n {
                let mut ctx = NodeCtx {
                    id,
                    round: self.round,
                    n: new_n,
                    rng: &mut self.rngs[id],
                };
                self.nodes[id].on_join(&mut ctx);
            }
            joined = self.delta.num_joining();
            left = self.delta.kills.len();
        }
        if mobility_due {
            let m = self.mobility.as_mut().expect("mobility_due checked");
            let epoch = self.round / m.epoch_rounds;
            let mover = &mut m.mover;
            self.net.update_positions(|pts| mover(epoch, pts));
            // The stale-graph footgun fix: plain mobile runs refresh the
            // communication graph too, so connectivity-dependent stop
            // predicates see the current deployment. (Churn boundaries
            // already refreshed inside `apply_churn`.)
            self.net.refresh_comm_graph();
        }
        let connected = self
            .net
            .comm_graph()
            .is_connected_with(&mut self.graph_scratch);
        let change = TopologyChange {
            round: self.round,
            joined,
            left,
            was_connected,
            connected,
        };
        let n = self.net.len();
        for id in 0..n {
            if !self.net.is_alive(id) {
                continue;
            }
            let mut ctx = NodeCtx {
                id,
                round: self.round,
                n,
                rng: &mut self.rngs[id],
            };
            self.nodes[id].on_topology_change(&mut ctx, &change);
        }
        // Stations spawned this boundary start unjammed; keep the mask
        // covering the grown population.
        if self.jammed.len() < n {
            self.jammed.resize(n, false);
        }
    }

    /// Consults the fault plan at an adversary epoch boundary: merges
    /// its kills and returns into the churn delta (deduplicated,
    /// liveness- and protection-filtered) and refreshes the jam mask.
    fn plan_faults(&mut self) {
        let n = self.net.len();
        let Some(adv) = self.adversary.as_mut() else {
            return;
        };
        // Adversary epoch counter: 0 at the first boundary.
        let epoch = self.round / adv.epoch_rounds - 1;
        // The earliest phase transition any live node announces — the
        // signal phase-synchronized crash bursts key on.
        let next_phase = self
            .nodes
            .iter()
            .zip(self.net.alive())
            .filter(|&(_, &a)| a)
            .filter_map(|(nd, _)| nd.phase_hint(self.round))
            .min();
        adv.delta.clear();
        let view = FaultView {
            epoch,
            round: self.round,
            alive: self.net.alive(),
            graph: self.net.comm_graph(),
            next_phase,
            protected: adv.protected,
        };
        adv.plan
            .plan(&view, &mut adv.delta, &mut self.graph_scratch);
        let mut touched = false;
        for &k in &adv.delta.kills {
            if k < n && self.net.is_alive(k) && k != adv.protected && !self.delta.kills.contains(&k)
            {
                self.delta.kills.push(k);
                self.fault_stats.kills += 1;
                touched = true;
            }
        }
        for &r in &adv.delta.returns {
            // A blackout return revives the station where it crashed —
            // its position was retained by the tombstone.
            if r < n && !self.net.is_alive(r) && !self.delta.rejoins.iter().any(|&(i, _)| i == r) {
                self.delta.rejoins.push((r, self.net.position(r)));
                self.fault_stats.returns += 1;
                touched = true;
            }
        }
        self.jammed.clear();
        self.jammed.resize(n, false);
        self.num_jammed = 0;
        for &j in &adv.delta.jammers {
            if j < n
                && self.net.is_alive(j)
                && j != adv.protected
                && !self.jammed[j]
                && !self.delta.kills.contains(&j)
            {
                self.jammed[j] = true;
                self.num_jammed += 1;
                touched = true;
            }
        }
        if touched {
            self.fault_stats.last_fault_round = Some(self.round);
        }
    }

    /// Whether every **live** node reports [`Protocol::is_done`]
    /// (tombstoned stations never block completion).
    pub fn all_live_done(&self) -> bool {
        self.nodes
            .iter()
            .zip(self.net.alive())
            .all(|(nd, &a)| !a || nd.is_done())
    }

    /// Runs until `pred` holds (checked *before* each round, so a
    /// pre-satisfied predicate costs zero rounds) or `max_rounds` elapse.
    pub fn run_until(&mut self, max_rounds: u64, mut pred: impl FnMut(&Self) -> bool) -> RunResult {
        let start = self.round;
        loop {
            if pred(self) {
                return RunResult {
                    rounds: self.round - start,
                    completed: true,
                };
            }
            if self.round - start >= max_rounds {
                return RunResult {
                    rounds: self.round - start,
                    completed: false,
                };
            }
            self.step();
        }
    }

    /// Runs until every **live** node reports [`Protocol::is_done`], up
    /// to `max_rounds` (identical to "every node" on static populations).
    pub fn run_until_all_done(&mut self, max_rounds: u64) -> RunResult {
        self.run_until(max_rounds, Engine::all_live_done)
    }

    /// Runs exactly `rounds` rounds.
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Consumes the engine, returning the node state machines (for
    /// post-run inspection of colors, decisions, …).
    pub fn into_nodes(self) -> Vec<Pr> {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geometry::Point2;
    use sinr_phy::SinrParams;

    /// Node 0 transmits every round; others count receptions.
    struct Beacon {
        id: usize,
        heard: u32,
    }

    impl Protocol for Beacon {
        type Msg = u64;

        fn poll_transmit(&mut self, ctx: &mut NodeCtx<'_>) -> Option<u64> {
            (self.id == 0).then_some(ctx.round)
        }

        fn on_round_end(&mut self, _ctx: &mut NodeCtx<'_>, _tx: bool, rx: Option<&u64>) {
            if rx.is_some() {
                self.heard += 1;
            }
        }

        fn is_done(&self) -> bool {
            self.id == 0 || self.heard >= 3
        }
    }

    fn net2() -> Network<Point2> {
        Network::new(
            vec![Point2::new(0.0, 0.0), Point2::new(0.5, 0.0)],
            SinrParams::default_plane(),
        )
        .unwrap()
    }

    #[test]
    fn beacon_heard_every_round() {
        let mut eng = Engine::new(net2(), 7, |id| Beacon { id, heard: 0 });
        let res = eng.run_until_all_done(100);
        assert!(res.completed);
        assert_eq!(res.rounds, 3);
        assert_eq!(eng.trace().total_transmissions(), 3);
        assert_eq!(eng.trace().total_receptions(), 3);
    }

    #[test]
    fn run_until_budget_exhausts() {
        let mut eng = Engine::new(net2(), 7, |id| Beacon { id, heard: 0 });
        let res = eng.run_until(2, |_| false);
        assert!(!res.completed);
        assert_eq!(res.rounds, 2);
        assert_eq!(eng.round(), 2);
    }

    #[test]
    fn pre_satisfied_predicate_costs_nothing() {
        let mut eng = Engine::new(net2(), 7, |id| Beacon { id, heard: 0 });
        let res = eng.run_until(10, |_| true);
        assert!(res.completed);
        assert_eq!(res.rounds, 0);
    }

    #[test]
    fn message_payload_carries_round() {
        struct Check {
            id: usize,
            ok: bool,
        }
        impl Protocol for Check {
            type Msg = u64;
            fn poll_transmit(&mut self, ctx: &mut NodeCtx<'_>) -> Option<u64> {
                (self.id == 0).then_some(ctx.round * 10)
            }
            fn on_round_end(&mut self, ctx: &mut NodeCtx<'_>, _tx: bool, rx: Option<&u64>) {
                if let Some(&m) = rx {
                    assert_eq!(m, ctx.round * 10);
                    self.ok = true;
                }
            }
            fn is_done(&self) -> bool {
                self.ok || self.id == 0
            }
        }
        let mut eng = Engine::new(net2(), 1, |id| Check { id, ok: false });
        assert!(eng.run_until_all_done(5).completed);
    }

    #[test]
    fn deterministic_across_reruns() {
        use crate::protocol::bernoulli;
        struct Rnd {
            sent: u32,
        }
        impl Protocol for Rnd {
            type Msg = ();
            fn poll_transmit(&mut self, ctx: &mut NodeCtx<'_>) -> Option<()> {
                if bernoulli(ctx.rng, 0.5) {
                    self.sent += 1;
                    Some(())
                } else {
                    None
                }
            }
            fn on_round_end(&mut self, _: &mut NodeCtx<'_>, _: bool, _: Option<&()>) {}
        }
        let run = |seed| {
            let mut eng = Engine::new(net2(), seed, |_| Rnd { sent: 0 });
            eng.run_rounds(50);
            eng.into_nodes().iter().map(|n| n.sent).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn physics_threads_leave_execution_bitwise_identical() {
        use crate::protocol::bernoulli;
        struct Rnd {
            sent: u32,
            heard: u32,
        }
        impl Protocol for Rnd {
            type Msg = ();
            fn poll_transmit(&mut self, ctx: &mut NodeCtx<'_>) -> Option<()> {
                if bernoulli(ctx.rng, 0.3) {
                    self.sent += 1;
                    Some(())
                } else {
                    None
                }
            }
            fn on_round_end(&mut self, _: &mut NodeCtx<'_>, _: bool, rx: Option<&()>) {
                if rx.is_some() {
                    self.heard += 1;
                }
            }
        }
        // Many cells so the grid-native shard planner has real ranges.
        let pts: Vec<Point2> = (0..120)
            .map(|i| Point2::new((i % 12) as f64 * 0.8, (i / 12) as f64 * 0.8))
            .collect();
        let run = |threads| {
            let net = Network::new(pts.clone(), SinrParams::default_plane())
                .unwrap()
                .with_interference_mode(sinr_phy::InterferenceMode::grid_native());
            let mut eng = Engine::new(net, 11, |_| Rnd { sent: 0, heard: 0 });
            eng.set_physics_threads(threads);
            assert_eq!(eng.physics_threads(), threads.max(1));
            eng.run_rounds(40);
            eng.into_nodes()
                .iter()
                .map(|n| (n.sent, n.heard))
                .collect::<Vec<_>>()
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }

    #[test]
    fn mobility_hook_fires_between_epochs_and_moves_reception() {
        use std::cell::RefCell;
        use std::rc::Rc;
        // Node 0 beacons every round; the mover teleports node 1 out of
        // range on odd epochs and back on even ones, so receptions count
        // exactly the rounds spent near.
        let seen = Rc::new(RefCell::new(Vec::new()));
        let log = Rc::clone(&seen);
        let mut eng = Engine::new(net2(), 7, |id| Beacon { id, heard: 0 });
        eng.set_mobility(2, move |epoch, pts: &mut [Point2]| {
            log.borrow_mut().push(epoch);
            pts[1] = if epoch % 2 == 1 {
                Point2::new(50.0, 0.0)
            } else {
                Point2::new(0.5, 0.0)
            };
        });
        eng.run_rounds(8);
        assert_eq!(*seen.borrow(), vec![1, 2, 3], "one call per boundary");
        assert_eq!(
            eng.rx_counts()[1],
            4,
            "near during rounds 0-1 and 4-5, far during 2-3 and 6-7"
        );
        assert_eq!(eng.network().position(1), Point2::new(50.0, 0.0));
    }

    #[test]
    #[should_panic]
    fn zero_epoch_length_rejected() {
        let mut eng = Engine::new(net2(), 7, |id| Beacon { id, heard: 0 });
        eng.set_mobility(0, |_, _: &mut [Point2]| {});
    }

    #[test]
    #[should_panic]
    fn zero_churn_epoch_length_rejected() {
        let mut eng = Engine::new(net2(), 7, |id| Beacon { id, heard: 0 });
        eng.set_churn(
            0,
            |_, _, _: &mut sinr_phy::ChurnDelta<Point2>| {},
            |id| Beacon { id, heard: 0 },
        );
    }

    #[test]
    fn churn_kills_rejoins_and_spawns_through_the_engine() {
        // Node 0 beacons every round. Epoch 1 kills node 1; epoch 2
        // rejoins it next to the source; epoch 3 spawns node 2 in range.
        let mut eng = Engine::new(net2(), 7, |id| Beacon { id, heard: 0 });
        eng.set_churn(
            2,
            |epoch, alive, delta: &mut sinr_phy::ChurnDelta<Point2>| match epoch {
                1 => {
                    assert!(alive[1]);
                    delta.kills.push(1);
                }
                2 => {
                    assert!(!alive[1]);
                    delta.rejoins.push((1, Point2::new(0.5, 0.0)));
                }
                3 => delta.spawns.push(Point2::new(0.25, 0.0)),
                _ => {}
            },
            |id| Beacon { id, heard: 0 },
        );
        eng.run_rounds(10);
        // Rounds 0-1: node 1 hears twice. Rounds 2-3: dead, hears
        // nothing, rx stream frozen. Rounds 4-9: alive again, hears 6.
        assert_eq!(eng.rx_counts()[0], 0);
        assert_eq!(eng.rx_counts()[1], 8, "2 before death + 6 after rejoin");
        assert_eq!(eng.network().len(), 3, "one spawn appended");
        assert!(eng.network().is_alive(2));
        assert_eq!(eng.rx_counts()[2], 4, "spawned at round 6, heard 6..10");
        assert_eq!(eng.tx_counts(), &[10, 0, 0], "only the beacon transmits");
        assert_eq!(eng.nodes().len(), 3);
    }

    #[test]
    fn lifecycle_events_are_delivered_in_order() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Log(Arc<Mutex<Vec<String>>>);
        struct Observer {
            id: usize,
            log: Log,
        }
        impl Protocol for Observer {
            type Msg = ();
            fn poll_transmit(&mut self, _: &mut NodeCtx<'_>) -> Option<()> {
                None
            }
            fn on_round_end(&mut self, _: &mut NodeCtx<'_>, _: bool, _: Option<&()>) {}
            fn on_join(&mut self, ctx: &mut NodeCtx<'_>) {
                self.log
                    .0
                    .lock()
                    .unwrap()
                    .push(format!("join:{}@{}", self.id, ctx.round));
            }
            fn on_leave(&mut self, ctx: &mut NodeCtx<'_>) {
                self.log
                    .0
                    .lock()
                    .unwrap()
                    .push(format!("leave:{}@{}", self.id, ctx.round));
            }
            fn on_topology_change(&mut self, _: &mut NodeCtx<'_>, change: &TopologyChange) {
                self.log.0.lock().unwrap().push(format!(
                    "topo:{}@{}:j{}l{}:{}-{}",
                    self.id,
                    change.round,
                    change.joined,
                    change.left,
                    change.was_connected,
                    change.connected
                ));
            }
        }
        let log = Log::default();
        let l = log.clone();
        let mut eng = Engine::new(net2(), 7, move |id| Observer { id, log: l.clone() });
        let l = log.clone();
        eng.set_churn(
            2,
            |epoch, _, delta: &mut sinr_phy::ChurnDelta<Point2>| match epoch {
                1 => delta.kills.push(1),
                2 => delta.rejoins.push((1, Point2::new(0.5, 0.0))),
                _ => {}
            },
            move |id| Observer { id, log: l.clone() },
        );
        eng.run_rounds(6);
        let events = log.0.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![
                // Round-2 boundary: node 1 leaves; the survivor is told
                // the (still-"connected": one live station) graph changed.
                "leave:1@2",
                "topo:0@2:j0l1:true-true",
                // Round-4 boundary: node 1 rejoins; both live nodes see it.
                "join:1@4",
                "topo:0@4:j1l0:true-true",
                "topo:1@4:j1l0:true-true",
            ],
            "lifecycle order"
        );
    }

    #[test]
    fn dead_stations_do_not_block_run_until_all_done() {
        // Node 1 can never hear 3 beacons while dead — but dead nodes are
        // excluded from the completion predicate.
        let mut eng = Engine::new(net2(), 7, |id| Beacon { id, heard: 0 });
        eng.set_churn(
            1,
            |epoch, _, delta: &mut sinr_phy::ChurnDelta<Point2>| {
                if epoch == 1 {
                    delta.kills.push(1);
                }
            },
            |id| Beacon { id, heard: 0 },
        );
        let res = eng.run_until_all_done(100);
        assert!(res.completed);
        assert_eq!(res.rounds, 2, "round 0 + the boundary killing node 1");
        assert!(eng.all_live_done());
    }

    #[test]
    fn per_node_energy_accounting() {
        let mut eng = Engine::new(net2(), 7, |id| Beacon { id, heard: 0 });
        eng.run_rounds(5);
        assert_eq!(eng.tx_counts(), &[5, 0], "only node 0 transmits");
        assert_eq!(eng.rx_counts(), &[0, 5], "only node 1 receives");
        assert_eq!(
            eng.tx_counts().iter().sum::<u64>(),
            eng.trace().total_transmissions()
        );
        assert_eq!(
            eng.rx_counts().iter().sum::<u64>(),
            eng.trace().total_receptions()
        );
    }

    #[test]
    fn trace_recording_via_engine() {
        let mut eng = Engine::new(net2(), 7, |id| Beacon { id, heard: 0 });
        eng.record_rounds();
        eng.run_rounds(4);
        assert_eq!(eng.trace().per_round().unwrap().len(), 4);
    }

    /// A scripted fault plan for engine tests.
    struct Script(Vec<(u64, FaultDelta)>);
    impl crate::adversary::FaultPlan for Script {
        fn plan(
            &mut self,
            view: &FaultView<'_>,
            faults: &mut FaultDelta,
            _scratch: &mut sinr_phy::GraphScratch,
        ) {
            for (epoch, d) in &self.0 {
                if *epoch == view.epoch {
                    faults.kills.extend_from_slice(&d.kills);
                    faults.returns.extend_from_slice(&d.returns);
                    faults.jammers.extend_from_slice(&d.jammers);
                }
            }
        }
    }

    #[test]
    fn adversary_kills_and_returns_without_a_churner() {
        // No churner armed: adversary kills must still flow through the
        // churn transaction. Kill node 1 at the first boundary (round 2),
        // return it at the third (round 6) at its retained position.
        let mut eng = Engine::new(net2(), 7, |id| Beacon { id, heard: 0 });
        let kill = FaultDelta {
            kills: vec![1],
            ..FaultDelta::default()
        };
        let ret = FaultDelta {
            returns: vec![1],
            ..FaultDelta::default()
        };
        eng.set_adversary(2, 0, Box::new(Script(vec![(0, kill), (2, ret)])));
        eng.run_rounds(10);
        // Heard during rounds 0-1, dead for 2-5, heard again 6-9.
        assert_eq!(eng.rx_counts()[1], 6);
        assert!(eng.network().is_alive(1));
        assert_eq!(eng.network().position(1), Point2::new(0.5, 0.0));
        assert_eq!(eng.fault_stats().kills, 1);
        assert_eq!(eng.fault_stats().returns, 1);
        assert_eq!(eng.fault_stats().last_fault_round, Some(6));
    }

    #[test]
    fn protected_station_never_faulted() {
        let mut eng = Engine::new(net2(), 7, |id| Beacon { id, heard: 0 });
        let kill = FaultDelta {
            kills: vec![0, 1],
            jammers: vec![0],
            ..FaultDelta::default()
        };
        eng.set_adversary(2, 0, Box::new(Script(vec![(0, kill)])));
        eng.run_rounds(4);
        assert!(eng.network().is_alive(0), "protected source survives");
        assert!(!eng.network().is_alive(1));
        assert_eq!(eng.fault_stats().kills, 1);
        assert_eq!(eng.fault_stats().jam_rounds, 0, "protected never jammed");
    }

    #[test]
    fn jammers_transmit_noise_and_protocols_hear_silence() {
        // Node 0 beacons; jam node 0 for one adversary epoch (rounds
        // 2..4). Node 1 decodes the jammer's energy as silence, so its
        // protocol-level reception count excludes the jammed rounds.
        let mut eng = Engine::new(net2(), 7, |id| Beacon { id, heard: 0 });
        let jam = FaultDelta {
            jammers: vec![0],
            ..FaultDelta::default()
        };
        eng.set_adversary(2, usize::MAX, Box::new(Script(vec![(0, jam)])));
        eng.run_rounds(6);
        // Rounds 0-1 decoded; 2-3 jammed (silence); 4-5 decoded again.
        assert_eq!(eng.rx_counts()[1], 4);
        // The jammer transmitted every round (energy accounting sees it).
        assert_eq!(eng.tx_counts()[0], 6);
        assert_eq!(eng.fault_stats().jam_rounds, 2);
        assert_eq!(eng.fault_stats().last_fault_round, Some(2));
    }

    #[test]
    fn faulted_runs_are_deterministic_and_thread_invariant() {
        use crate::protocol::bernoulli;
        struct Rnd {
            sent: u32,
            heard: u32,
        }
        impl Protocol for Rnd {
            type Msg = ();
            fn poll_transmit(&mut self, ctx: &mut NodeCtx<'_>) -> Option<()> {
                if bernoulli(ctx.rng, 0.3) {
                    self.sent += 1;
                    Some(())
                } else {
                    None
                }
            }
            fn on_round_end(&mut self, _: &mut NodeCtx<'_>, _: bool, rx: Option<&()>) {
                if rx.is_some() {
                    self.heard += 1;
                }
            }
        }
        let pts: Vec<Point2> = (0..60)
            .map(|i| Point2::new((i % 10) as f64 * 0.4, (i / 10) as f64 * 0.4))
            .collect();
        let run = |threads: usize| {
            let net = Network::new(pts.clone(), SinrParams::default_plane()).unwrap();
            let mut eng = Engine::new(net, 13, |_| Rnd { sent: 0, heard: 0 });
            let mut set = crate::adversary::FaultPlanSet::new();
            set.push(Box::new(crate::adversary::CutVertexAdversary::new(0.2, 1)));
            set.push(Box::new(crate::adversary::JamAdversary::new(3, 99)));
            eng.set_adversary(5, 0, Box::new(set));
            eng.set_physics_threads(threads);
            eng.run_rounds(30);
            let stats = *eng.fault_stats();
            (
                eng.into_nodes()
                    .iter()
                    .map(|n| (n.sent, n.heard))
                    .collect::<Vec<_>>(),
                stats,
            )
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
        assert!(one.1.kills > 0, "the cut-vertex adversary struck");
        assert!(one.1.jam_rounds > 0, "jammers ran");
    }

    #[test]
    fn adversary_composes_with_churn_without_double_kills() {
        // Churner and adversary both kill node 1 at the same boundary:
        // the merge must deduplicate (apply_churn would panic on a
        // double kill).
        let mut eng = Engine::new(net2(), 7, |id| Beacon { id, heard: 0 });
        eng.set_churn(
            2,
            |epoch, _, delta: &mut sinr_phy::ChurnDelta<Point2>| {
                if epoch == 1 {
                    delta.kills.push(1);
                }
            },
            |id| Beacon { id, heard: 0 },
        );
        let kill = FaultDelta {
            kills: vec![1],
            ..FaultDelta::default()
        };
        eng.set_adversary(2, 0, Box::new(Script(vec![(0, kill)])));
        eng.run_rounds(4);
        assert!(!eng.network().is_alive(1));
        assert_eq!(eng.fault_stats().kills, 0, "the churner got there first");
    }
}
