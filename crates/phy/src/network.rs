//! A deployed network: station positions bundled with SINR parameters and a
//! spatial index, plus cached derived structure (communication graph).

use sinr_geometry::{GridIndex, MetricPoint, RepairPolicy};

use crate::commgraph::CommGraph;
use crate::oracle::ReceptionOracle;
use crate::params::{ParamError, SinrParams};
use crate::reception::{resolve_round, InterferenceMode, RoundOutcome};

/// A wireless network instance: positions + model parameters.
///
/// This is the object every layer above the physical model works with. It
/// owns the spatial index and lazily exposes the communication graph.
///
/// # Example
///
/// ```
/// use sinr_geometry::Point2;
/// use sinr_phy::{Network, SinrParams};
///
/// let pts = vec![Point2::new(0.0, 0.0), Point2::new(0.4, 0.0), Point2::new(0.8, 0.0)];
/// let net = Network::new(pts, SinrParams::default_plane())?;
/// assert_eq!(net.len(), 3);
/// assert!(net.comm_graph().is_connected());
/// let out = net.resolve(&[0]);
/// assert_eq!(out.decoded_from[1], Some(0));
/// # Ok::<(), sinr_phy::NetworkError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Network<P: MetricPoint> {
    points: Vec<P>,
    /// Station liveness: index-stable tombstones for dynamic populations
    /// (all `true` for static networks). Dead stations keep their index,
    /// position slot and report rows, but are invisible to the spatial
    /// index and the communication graph.
    alive: Vec<bool>,
    /// Number of live stations.
    live: usize,
    params: SinrParams,
    grid: GridIndex,
    comm_graph: CommGraph,
    mode: InterferenceMode,
    /// How epoch boundaries refresh the spatial index and the graph:
    /// incrementally repaired from the collected dirty set, or fully
    /// rebuilt ([`Network::set_repair_policy`]).
    repair_policy: RepairPolicy,
    /// Pre-move position snapshot, diffed bitwise after the mover runs to
    /// recover the dirty set [`Network::update_positions`] feeds the
    /// repair path. Reused every epoch.
    pos_snapshot: Vec<P>,
    /// Per-call dirty-station scratch (movers or churned indices).
    moved_scratch: Vec<usize>,
    /// Stations that changed position or liveness since the last
    /// communication-graph refresh — accumulated across the churn and
    /// mobility steps of an epoch, consumed by
    /// [`Network::refresh_comm_graph`].
    graph_dirty: Vec<usize>,
    /// Whether `graph_dirty` is complete since the last graph refresh
    /// (an always-full update path stops tracking, forcing the next
    /// refresh to rebuild).
    graph_dirty_tracked: bool,
}

/// One batch of population changes applied at an epoch boundary by
/// [`Network::apply_churn`]: stations leaving, dead stations rejoining at
/// a (new) position, and brand-new stations appended at fresh indices.
///
/// The buffers are plain `Vec`s so a churn process can fill one reused
/// delta per epoch without steady-state allocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnDelta<P> {
    /// Live stations to tombstone.
    pub kills: Vec<usize>,
    /// Dead stations to revive, with the position they rejoin at.
    pub rejoins: Vec<(usize, P)>,
    /// New stations appended at the end of the index space (each grows
    /// the population by one).
    pub spawns: Vec<P>,
}

impl<P> ChurnDelta<P> {
    /// An empty delta.
    pub fn new() -> Self {
        ChurnDelta {
            kills: Vec::new(),
            rejoins: Vec::new(),
            spawns: Vec::new(),
        }
    }

    /// Empties all three lists, keeping their capacity (the per-epoch
    /// reuse entry point).
    pub fn clear(&mut self) {
        self.kills.clear();
        self.rejoins.clear();
        self.spawns.clear();
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && self.rejoins.is_empty() && self.spawns.is_empty()
    }

    /// Number of stations joining (rejoins plus spawns).
    pub fn num_joining(&self) -> usize {
        self.rejoins.len() + self.spawns.len()
    }
}

/// Error constructing a [`Network`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// The SINR parameters are invalid for the deployment dimension.
    Params(ParamError),
    /// Two stations are closer than [`SinrParams::MIN_DISTANCE`].
    StationsTooClose {
        /// First station index.
        a: usize,
        /// Second station index.
        b: usize,
    },
    /// The parameter dimension γ does not match the point type's growth
    /// dimension.
    DimensionMismatch {
        /// γ from the parameters.
        params_gamma: f64,
        /// γ of the point type.
        point_gamma: f64,
    },
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::Params(e) => write!(f, "{e}"),
            NetworkError::StationsTooClose { a, b } => {
                write!(
                    f,
                    "stations {a} and {b} are closer than the minimum separation"
                )
            }
            NetworkError::DimensionMismatch {
                params_gamma,
                point_gamma,
            } => write!(
                f,
                "parameter gamma {params_gamma} does not match point growth dimension {point_gamma}"
            ),
        }
    }
}

impl std::error::Error for NetworkError {}

impl From<ParamError> for NetworkError {
    fn from(e: ParamError) -> Self {
        NetworkError::Params(e)
    }
}

impl<P: MetricPoint> Network<P> {
    /// Creates a network, validating parameters and station separation.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::DimensionMismatch`] when `params.gamma()` differs
    ///   from `P::GROWTH_DIMENSION`;
    /// * [`NetworkError::StationsTooClose`] when two stations are within
    ///   [`SinrParams::MIN_DISTANCE`] (co-located stations make signal
    ///   strengths unbounded).
    pub fn new(points: Vec<P>, params: SinrParams) -> Result<Self, NetworkError> {
        if (params.gamma() - P::GROWTH_DIMENSION).abs() > 1e-9 {
            return Err(NetworkError::DimensionMismatch {
                params_gamma: params.gamma(),
                point_gamma: P::GROWTH_DIMENSION,
            });
        }
        let grid = GridIndex::build(&points, 1.0);
        // Separation check via the grid: only same/neighbouring cells matter.
        for (i, p) in points.iter().enumerate() {
            if let Some((j, d)) = grid.nearest(&points, *p, i) {
                if d < SinrParams::MIN_DISTANCE {
                    let (a, b) = if i < j { (i, j) } else { (j, i) };
                    return Err(NetworkError::StationsTooClose { a, b });
                }
            }
        }
        let comm_graph = CommGraph::build(&points, params.comm_radius());
        let live = points.len();
        Ok(Network {
            alive: vec![true; live],
            live,
            points,
            params,
            grid,
            comm_graph,
            mode: InterferenceMode::Exact,
            repair_policy: RepairPolicy::default(),
            pos_snapshot: Vec::new(),
            moved_scratch: Vec::new(),
            graph_dirty: Vec::new(),
            graph_dirty_tracked: true,
        })
    }

    /// Sets how epoch boundaries refresh the spatial index and the
    /// communication graph (default: [`RepairPolicy::Auto`] — incremental
    /// repair below 5% churn, full rebuild above). Whatever the policy,
    /// refreshed structures are bit-identical to fresh builds of the same
    /// deployment; the policy only selects how much work is spent.
    pub fn set_repair_policy(&mut self, policy: RepairPolicy) {
        self.repair_policy = policy;
        // Conservatively rebuild the graph once at the next refresh: the
        // dirty set's completeness predates the policy change.
        self.graph_dirty_tracked = false;
    }

    /// The epoch-refresh policy in use.
    pub fn repair_policy(&self) -> RepairPolicy {
        self.repair_policy
    }

    /// Switches the interference evaluation mode (default: exact).
    ///
    /// # Panics
    ///
    /// Panics if the mode fails [`InterferenceMode::validate`].
    pub fn with_interference_mode(mut self, mode: InterferenceMode) -> Self {
        if let Err(msg) = mode.validate() {
            panic!("{msg}");
        }
        self.mode = mode;
        self
    }

    /// Number of stations, **including** tombstoned ones — the length of
    /// every index-stable per-station vector (positions, reports,
    /// protocol states). See [`Network::live_count`] for the live
    /// population.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the network has no stations.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of live stations (equals [`Network::len`] until churn kills
    /// someone).
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Station liveness flags, indexed by station.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Whether station `v` is live.
    pub fn is_alive(&self, v: usize) -> bool {
        self.alive[v]
    }

    /// Station positions.
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// Position of station `v`.
    pub fn position(&self, v: usize) -> P {
        self.points[v]
    }

    /// Model parameters.
    pub fn params(&self) -> &SinrParams {
        &self.params
    }

    /// The spatial index over station positions (cell side 1).
    pub fn grid(&self) -> &GridIndex {
        &self.grid
    }

    /// The communication graph (edges at distance ≤ 1 − ε) over the
    /// **current** live deployment.
    ///
    /// Static networks build it once; dynamic ones keep it current:
    /// [`Network::apply_churn`] refreshes it as part of the churn
    /// transaction, and the engine calls [`Network::refresh_comm_graph`]
    /// after every mobility epoch, so connectivity-dependent predicates
    /// always see the epoch-refreshed graph (direct
    /// [`Network::update_positions`] callers refresh explicitly).
    pub fn comm_graph(&self) -> &CommGraph {
        &self.comm_graph
    }

    /// Rebuilds the communication graph **in place** over the current
    /// positions and liveness — the epoch refresh path. Reuses the
    /// graph's CSR and spatial-index allocations
    /// ([`CommGraph::rebuild_from`]), so steady-state refreshes perform
    /// no heap allocations, and produces exactly what a fresh
    /// [`CommGraph::build_masked`] over the same deployment would.
    pub fn refresh_comm_graph(&mut self) {
        if self.graph_dirty_tracked && !matches!(self.repair_policy, RepairPolicy::AlwaysFull) {
            // The dirty set is complete since the last refresh: patch only
            // the affected rows ([`CommGraph::repair`] — bit-identical to
            // the rebuild below, and O(dirty neighborhoods) instead of
            // O(n)).
            self.comm_graph.repair(
                &self.graph_dirty,
                &self.points,
                Some(&self.alive),
                self.repair_policy,
            );
        } else {
            self.comm_graph
                .rebuild_from(&self.points, Some(&self.alive));
            self.graph_dirty_tracked = true;
        }
        self.graph_dirty.clear();
    }

    /// Interference evaluation mode in use.
    pub fn interference_mode(&self) -> InterferenceMode {
        self.mode
    }

    /// Mutates the station positions in place and rebuilds the spatial
    /// index over them — the **epoch reindex path** of dynamic
    /// topologies.
    ///
    /// `update` receives the positions to move (the station count is
    /// fixed — protocol state machines are per-station). The grid is
    /// rebuilt through [`GridIndex::rebuild_from`], which reuses every
    /// allocation and reproduces a from-scratch build bit-for-bit (CSR
    /// slot order, SoA store, centroids), so reception oracles keep
    /// resolving rounds against the network with zero steady-state heap
    /// allocations between epochs and reuse-only behavior at boundaries.
    ///
    /// Two static-construction invariants deliberately do **not** re-run
    /// here: the minimum-separation check (mobile stations may drift
    /// arbitrarily close; the SINR kernels clamp distances at
    /// [`SinrParams::MIN_DISTANCE`]) and the communication graph — call
    /// [`Network::refresh_comm_graph`] after moving when the graph must
    /// track the new deployment (the engine does so at every epoch
    /// boundary, so scenario-level connectivity predicates always see
    /// the epoch-refreshed graph).
    /// Under the default [`RepairPolicy::Auto`] the dirty set is
    /// recovered by a bitwise diff against a pre-move snapshot and the
    /// index is patched through [`GridIndex::repair_with_policy`] —
    /// O(points + moved) instead of the full O(n log n) re-sort — and the
    /// movers are banked for the next [`Network::refresh_comm_graph`].
    pub fn update_positions(&mut self, update: impl FnOnce(&mut [P])) {
        if matches!(self.repair_policy, RepairPolicy::AlwaysFull) {
            update(&mut self.points);
            self.grid.rebuild_from_masked(&self.points, &self.alive);
            self.graph_dirty_tracked = false;
            return;
        }
        self.pos_snapshot.clear();
        self.pos_snapshot.extend_from_slice(&self.points);
        update(&mut self.points);
        assert_eq!(
            self.points.len(),
            self.pos_snapshot.len(),
            "position movers must not change the station count"
        );
        self.moved_scratch.clear();
        for (i, (old, new)) in self.pos_snapshot.iter().zip(&self.points).enumerate() {
            if (0..P::AXES).any(|a| old.coord(a).to_bits() != new.coord(a).to_bits()) {
                self.moved_scratch.push(i);
            }
        }
        self.grid.repair_with_policy(
            &self.moved_scratch,
            &self.points,
            Some(&self.alive),
            self.repair_policy,
        );
        self.graph_dirty.extend_from_slice(&self.moved_scratch);
    }

    /// Applies one batch of population churn: kills tombstone their
    /// stations (index-stable — positions, reports and protocol states
    /// keep their rows), rejoins revive dead stations at a new position,
    /// and spawns append brand-new stations at fresh indices. The spatial
    /// index and the communication graph are rebuilt **in place** over
    /// the surviving population (allocation-reusing, bit-identical to
    /// fresh builds of the same deployment — `tests/churn_equivalence.rs`
    /// pins this), so the network is fully consistent when this returns.
    ///
    /// Like [`Network::update_positions`], the static min-separation
    /// check does not re-run: churned arrivals may land arbitrarily close
    /// to a live station ([`SinrParams::MIN_DISTANCE`] clamps signals).
    ///
    /// # Panics
    ///
    /// Panics when a kill names a station that is not live, a rejoin
    /// names one that is not dead, or an index is out of range —
    /// malformed deltas indicate a churn-model bug, not a runtime
    /// condition.
    pub fn apply_churn(&mut self, delta: &ChurnDelta<P>) {
        self.apply_churn_deferred(delta);
        self.refresh_comm_graph();
    }

    /// As [`Network::apply_churn`], but leaves the communication graph
    /// **stale** (the spatial index is still rebuilt — reception is
    /// always consistent). For callers that immediately move stations
    /// afterwards and refresh once — the engine's combined
    /// churn+mobility epoch boundary, which would otherwise pay two
    /// full graph rebuilds. Call [`Network::refresh_comm_graph`] before
    /// consulting the graph.
    pub fn apply_churn_deferred(&mut self, delta: &ChurnDelta<P>) {
        for &k in &delta.kills {
            assert!(
                self.alive[k],
                "churn kill of station {k}, which is not live"
            );
            self.alive[k] = false;
            self.live -= 1;
        }
        for &(r, p) in &delta.rejoins {
            assert!(!self.alive[r], "churn rejoin of station {r}, which is live");
            self.alive[r] = true;
            self.points[r] = p;
            self.live += 1;
        }
        for &p in &delta.spawns {
            self.points.push(p);
            self.alive.push(true);
            self.live += 1;
        }
        if matches!(self.repair_policy, RepairPolicy::AlwaysFull) {
            self.grid.rebuild_from_masked(&self.points, &self.alive);
            self.graph_dirty_tracked = false;
            return;
        }
        // The delta IS the dirty set: kills and rejoins changed liveness,
        // spawns are picked up by index range inside the repair.
        self.moved_scratch.clear();
        self.moved_scratch.extend_from_slice(&delta.kills);
        self.moved_scratch
            .extend(delta.rejoins.iter().map(|&(r, _)| r));
        self.grid.repair_with_policy(
            &self.moved_scratch,
            &self.points,
            Some(&self.alive),
            self.repair_policy,
        );
        self.graph_dirty.extend_from_slice(&self.moved_scratch);
        self.graph_dirty
            .extend(self.points.len() - delta.spawns.len()..self.points.len());
    }

    /// Resolves one round with transmitter set `transmitters` (which must
    /// name live stations).
    ///
    /// One-shot convenience (allocates fresh oracle state per call). Round
    /// loops should hold a [`ReceptionOracle`] from
    /// [`Network::new_oracle`] and call [`Network::resolve_with`] instead.
    pub fn resolve(&self, transmitters: &[usize]) -> RoundOutcome {
        let mut out = resolve_round(
            &self.points,
            &self.params,
            transmitters,
            self.mode,
            Some(&self.grid),
        );
        self.mask_dead(&mut out);
        out
    }

    /// Tombstoned stations neither transmit nor receive. The grid-backed
    /// kernels never see them (the masked index holds no slot for them);
    /// the exact kernel iterates every receiver row, so its decode
    /// entries for dead stations are cleared here — keeping
    /// [`RoundOutcome`] identical across interference modes on churned
    /// populations. No-op (branch only) while everyone is live.
    fn mask_dead(&self, out: &mut RoundOutcome) {
        if self.live == self.len() {
            return;
        }
        debug_assert!(
            out.decoded_from.len() == self.len(),
            "outcome covers the station range"
        );
        for (d, &a) in out.decoded_from.iter_mut().zip(&self.alive) {
            if !a {
                *d = None;
            }
        }
    }

    /// A reception oracle pre-sized for this network, for use with
    /// [`Network::resolve_with`].
    pub fn new_oracle(&self) -> ReceptionOracle {
        ReceptionOracle::for_stations(self.len())
    }

    /// Resolves one round into `out`, reusing `oracle`'s scratch buffers —
    /// zero heap allocations in steady state. Results are identical to
    /// [`Network::resolve`].
    pub fn resolve_with(
        &self,
        oracle: &mut ReceptionOracle,
        transmitters: &[usize],
        out: &mut RoundOutcome,
    ) {
        oracle.resolve_into(
            &self.points,
            &self.params,
            transmitters,
            self.mode,
            Some(&self.grid),
            out,
        );
        self.mask_dead(out);
    }

    /// Indices of stations within distance `radius` of station `v`
    /// (including `v` itself).
    pub fn ball_of(&self, v: usize, radius: f64) -> Vec<usize> {
        self.grid.ball_vec(&self.points, self.points[v], radius)
    }

    /// Distance between stations `a` and `b`.
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        self.points[a].distance(&self.points[b])
    }

    /// Granularity `R_s` of the network (max/min communication-graph edge
    /// length), or `None` if there are no edges.
    pub fn granularity(&self) -> Option<f64> {
        self.comm_graph.granularity(&self.points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geometry::{Point1, Point2};

    #[test]
    fn constructs_and_exposes_structure() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(0.3, 0.0)];
        let net = Network::new(pts, SinrParams::default_plane()).unwrap();
        assert_eq!(net.len(), 2);
        assert!(!net.is_empty());
        assert_eq!(net.comm_graph().num_edges(), 1);
        assert_eq!(net.distance(0, 1), 0.3);
        assert_eq!(net.ball_of(0, 0.5), vec![0, 1]);
        assert_eq!(net.position(1), Point2::new(0.3, 0.0));
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let pts = vec![Point1::new(0.0)];
        let err = Network::new(pts, SinrParams::default_plane()).unwrap_err();
        assert!(matches!(err, NetworkError::DimensionMismatch { .. }));
        assert!(err.to_string().contains("gamma"));
    }

    #[test]
    fn rejects_colocated_stations() {
        let pts = vec![Point2::new(1.0, 1.0), Point2::new(1.0, 1.0)];
        let err = Network::new(pts, SinrParams::default_plane()).unwrap_err();
        assert_eq!(err, NetworkError::StationsTooClose { a: 0, b: 1 });
    }

    #[test]
    fn resolve_round_through_network() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(0.5, 0.0)];
        let net = Network::new(pts, SinrParams::default_plane()).unwrap();
        let out = net.resolve(&[0]);
        assert_eq!(out.decoded_from[1], Some(0));
    }

    #[test]
    fn grid_native_mode_roundtrip() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(0.5, 0.0)];
        let net = Network::new(pts, SinrParams::default_plane())
            .unwrap()
            .with_interference_mode(InterferenceMode::grid_native());
        assert_eq!(net.interference_mode(), InterferenceMode::grid_native());
        let out = net.resolve(&[0]);
        assert_eq!(out.decoded_from[1], Some(0));
    }

    #[test]
    #[should_panic(expected = "must be at least 2")]
    fn near_radius_below_two_panics() {
        let pts = vec![Point2::origin()];
        let _ = Network::new(pts, SinrParams::default_plane())
            .unwrap()
            .with_interference_mode(InterferenceMode::GridNative { near_radius: 1.5 });
    }

    #[test]
    fn update_positions_rebuilds_the_index_in_place() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.5, 0.0),
            Point2::new(3.0, 0.0),
        ];
        let mut net = Network::new(pts, SinrParams::default_plane()).unwrap();
        assert_eq!(net.resolve(&[0]).decoded_from[1], Some(0));
        // Move station 1 out of range and station 2 next to the source.
        net.update_positions(|pts| {
            pts[1] = Point2::new(5.0, 0.0);
            pts[2] = Point2::new(0.5, 0.0);
        });
        assert_eq!(net.position(1), Point2::new(5.0, 0.0));
        let out = net.resolve(&[0]);
        assert_eq!(out.decoded_from[1], None);
        assert_eq!(out.decoded_from[2], Some(0));
        // The rebuilt index matches a from-scratch build over the moved
        // points.
        assert_eq!(*net.grid(), GridIndex::build(net.points(), 1.0));
    }

    #[test]
    fn apply_churn_kills_rejoins_and_spawns() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.5, 0.0),
            Point2::new(1.0, 0.0),
        ];
        let mut net = Network::new(pts, SinrParams::default_plane()).unwrap();
        assert_eq!(net.live_count(), 3);

        // Kill station 1: the path graph loses its middle vertex.
        let mut delta = ChurnDelta::new();
        delta.kills.push(1);
        net.apply_churn(&delta);
        assert_eq!(net.len(), 3);
        assert_eq!(net.live_count(), 2);
        assert!(!net.is_alive(1));
        assert!(!net.comm_graph().is_connected(), "kill cut the path");
        // A dead station neither receives nor blocks: 0's transmission
        // reaches nobody in range.
        let out = net.resolve(&[0]);
        assert_eq!(out.decoded_from[1], None, "dead stations receive nothing");

        // Rejoin station 1 next to station 0, spawn a fourth station.
        delta.clear();
        delta.rejoins.push((1, Point2::new(0.5, 0.0)));
        delta.spawns.push(Point2::new(1.4, 0.0));
        net.apply_churn(&delta);
        assert_eq!(net.len(), 4);
        assert_eq!(net.live_count(), 4);
        assert_eq!(net.position(1), Point2::new(0.5, 0.0));
        assert!(net.is_alive(3));
        assert!(net.comm_graph().is_connected(), "rejoin + spawn reconnect");
        // Rebuilt structures match fresh builds over the same deployment.
        assert_eq!(
            *net.grid(),
            sinr_geometry::GridIndex::build_masked(net.points(), net.alive(), 1.0)
        );
        assert_eq!(
            *net.comm_graph(),
            CommGraph::build_masked(net.points(), net.alive(), net.params().comm_radius())
        );
    }

    #[test]
    #[should_panic]
    fn churn_kill_of_dead_station_panics() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(0.5, 0.0)];
        let mut net = Network::new(pts, SinrParams::default_plane()).unwrap();
        let mut delta = ChurnDelta::new();
        delta.kills.push(1);
        net.apply_churn(&delta);
        net.apply_churn(&delta); // 1 is already dead
    }

    #[test]
    fn refresh_comm_graph_tracks_moved_positions() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.5, 0.0),
            Point2::new(5.0, 0.0),
        ];
        let mut net = Network::new(pts, SinrParams::default_plane()).unwrap();
        assert!(!net.comm_graph().is_connected());
        net.update_positions(|pts| pts[2] = Point2::new(0.9, 0.0));
        net.refresh_comm_graph();
        assert!(
            net.comm_graph().is_connected(),
            "epoch-refreshed graph sees the move"
        );
        assert_eq!(
            *net.comm_graph(),
            CommGraph::build(net.points(), net.params().comm_radius())
        );
    }

    #[test]
    fn incremental_epochs_match_always_full_epochs() {
        // Drive the same epoch sequence (churn + movement + graph
        // refresh) through the incremental and always-full policies: the
        // resulting structures must be bit-identical at every boundary.
        let pts: Vec<Point2> = (0..25)
            .map(|i| Point2::new((i % 5) as f64 * 0.45, (i / 5) as f64 * 0.45))
            .collect();
        let mut inc = Network::new(pts.clone(), SinrParams::default_plane()).unwrap();
        let mut full = Network::new(pts, SinrParams::default_plane()).unwrap();
        inc.set_repair_policy(RepairPolicy::AlwaysIncremental);
        full.set_repair_policy(RepairPolicy::AlwaysFull);
        for step in 0..6usize {
            let mut delta = ChurnDelta::new();
            match step % 3 {
                0 => delta.kills.push(step * 3 % 25),
                1 => delta.spawns.push(Point2::new(2.5 + step as f64 * 0.2, 2.5)),
                _ => delta.rejoins.push((step % 25, Point2::new(0.1, 2.4))),
            }
            let legal = delta.kills.iter().all(|&k| inc.is_alive(k))
                && delta.rejoins.iter().all(|&(r, _)| !inc.is_alive(r));
            if legal {
                inc.apply_churn_deferred(&delta);
                full.apply_churn_deferred(&delta);
            }
            let mover = |pts: &mut [Point2]| {
                for (i, p) in pts.iter_mut().enumerate() {
                    if i % 4 == step % 4 {
                        p.x += 0.21;
                        p.y -= 0.13;
                    }
                }
            };
            inc.update_positions(mover);
            full.update_positions(mover);
            inc.refresh_comm_graph();
            full.refresh_comm_graph();
            assert_eq!(*inc.grid(), *full.grid(), "grid diverged at step {step}");
            assert_eq!(
                *inc.comm_graph(),
                *full.comm_graph(),
                "graph diverged at step {step}"
            );
            assert_eq!(
                *inc.grid(),
                GridIndex::build_masked(inc.points(), inc.alive(), 1.0)
            );
            assert_eq!(
                *inc.comm_graph(),
                CommGraph::build_masked(inc.points(), inc.alive(), inc.params().comm_radius())
            );
        }
    }

    #[test]
    fn granularity_passthrough() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.4, 0.0),
            Point2::new(0.5, 0.0),
        ];
        // Edges: (0,1) = 0.4, (1,2) = 0.1, (0,2) = 0.5 -> Rs = 0.5/0.1 = 5.
        let net = Network::new(pts, SinrParams::default_plane()).unwrap();
        assert!((net.granularity().unwrap() - 5.0).abs() < 1e-9);
    }
}
