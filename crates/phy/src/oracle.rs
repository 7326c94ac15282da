//! The stateful, zero-allocation reception oracle — a staged
//! **plan → accumulate → decide** pipeline.
//!
//! [`resolve_round`](crate::reception::resolve_round) answers "who hears
//! whom" for a single round, but every call allocates its accumulation
//! buffers from scratch. Protocol runs resolve *thousands* of rounds over
//! the same deployment, so the hot path wants the dual shape: construct
//! once per trial, reuse across rounds. [`ReceptionOracle`] owns all the
//! per-round scratch and resolves rounds with **zero steady-state heap
//! allocations** (pinned by the counting-allocator test `oracle_alloc.rs`).
//!
//! Every round goes through three explicit stages:
//!
//! 1. **plan** — clear the per-station accumulators, mark the transmitter
//!    set, and (for the grid-native mode) sort the transmitters into
//!    flat cell buckets with SoA coordinates and per-cell centroids;
//! 2. **accumulate** — fill, per station, the total received power and
//!    the strongest transmitter. This is the stage that shards: with
//!    more than one thread ([`ReceptionOracle::set_threads`]), the
//!    grid-native kernel splits the *receiver cells* into contiguous
//!    ranges (each owning a contiguous slot range of the grid's CSR
//!    layout, accumulated into slot-ordered buffers so shard writes are
//!    disjoint slices), and the exact kernel splits the station range.
//!    Per-receiver floating-point sums accumulate in the same order as
//!    the serial kernels, so results are **bitwise identical at any
//!    thread count**.
//! 3. **decide** — apply the SINR threshold test per station and emit
//!    [`RoundOutcome`].
//!
//! `Exact` accumulates per receiver in transmitter order, so each total
//! over at least one term is bit-for-bit [`crate::total_signal_at`]
//! (pinned by `crates/bench/tests/oracle_equivalence.rs`). The
//! [`InterferenceMode::GridNative`] kernel iterates transmitter cells in
//! sorted key order, and its near loops run through the batched SoA
//! kernels ([`sinr_geometry::PositionStore`],
//! [`SinrParams::signal_at_sq_batch`]).

use sinr_geometry::{CellKey, GridIndex, MetricPoint, PositionStore};

use crate::params::SinrParams;
use crate::pool::{KernelPool, ShardScratch};
use crate::reception::{InterferenceMode, RoundOutcome};

/// Batch width of the SoA distance/signal kernels: a cache-line-friendly
/// stack buffer, long enough to amortise the loop overhead and keep the
/// autovectorizer fed.
const CHUNK: usize = 64;

/// Reusable per-round state for resolving reception rounds without
/// allocating.
///
/// Build one per trial ([`crate::Network::new_oracle`] sizes it for the
/// network) and feed it every round; buffers grow to the high-water mark
/// on the first round and are reused afterwards. Rounds resolve on the
/// calling thread, or sharded across scoped threads after
/// [`ReceptionOracle::set_threads`] — with bitwise identical results.
///
/// # Example
///
/// ```
/// use sinr_geometry::Point2;
/// use sinr_phy::{InterferenceMode, Network, ReceptionOracle, RoundOutcome, SinrParams};
///
/// let net = Network::new(
///     vec![Point2::new(0.0, 0.0), Point2::new(0.5, 0.0)],
///     SinrParams::default_plane(),
/// )?;
/// let mut oracle = net.new_oracle();
/// let mut out = RoundOutcome::empty();
/// for _round in 0..3 {
///     net.resolve_with(&mut oracle, &[0], &mut out); // no allocations after round 0
///     assert_eq!(out.decoded_from[1], Some(0));
/// }
/// # Ok::<(), sinr_phy::NetworkError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReceptionOracle {
    /// Total received power per station.
    total: Vec<f64>,
    /// Strongest received signal per station.
    best_pow: Vec<f64>,
    /// Transmitter of the strongest signal (`usize::MAX` = none yet).
    best_idx: Vec<usize>,
    /// Whether each station transmits this round (half-duplex).
    is_tx: Vec<bool>,
    /// `(cell key, transmitter)` pairs, sorted lexicographically per round.
    tx_cells: Vec<(CellKey, usize)>,
    /// Start offset of each distinct transmitter cell in `tx_cells`, plus a
    /// terminating sentinel.
    bucket_starts: Vec<usize>,
    /// Centroid of each transmitter cell (trailing axes stay 0).
    bucket_centroids: Vec<[f64; 3]>,
    /// SoA coordinates of the transmitters, aligned with `tx_cells`.
    tx_pos: PositionStore,
    /// Grid-native accumulators in **slot order** (the grid's CSR layout):
    /// shard `s` owns a contiguous slice, scattered back to station order
    /// before the decide stage.
    slot_total: Vec<f64>,
    slot_best_pow: Vec<f64>,
    slot_best_idx: Vec<usize>,
    /// Thread cap, per-shard scratch and shard plan of the accumulate
    /// stage.
    pool: KernelPool,
}

impl ReceptionOracle {
    /// An oracle with empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// An oracle pre-sized for `n` stations (avoids even the first-round
    /// growth for the per-station buffers).
    pub fn for_stations(n: usize) -> Self {
        let mut oracle = Self::new();
        oracle.reset(n);
        oracle
    }

    /// Resizes (if needed) and clears the per-station accumulators.
    fn reset(&mut self, n: usize) {
        self.total.resize(n, 0.0);
        self.best_pow.resize(n, 0.0);
        self.best_idx.resize(n, usize::MAX);
        self.is_tx.resize(n, false);
        self.total.fill(0.0);
        self.best_pow.fill(0.0);
        self.best_idx.fill(usize::MAX);
        self.is_tx.fill(false);
    }

    /// Shards the accumulate stage of later rounds across up to `threads`
    /// scoped threads (default 1, i.e. inline), clamped to
    /// `1..=`[`MAX_PHYSICS_THREADS`](crate::MAX_PHYSICS_THREADS).
    ///
    /// Results are **bitwise identical at any thread count** (see the
    /// module docs for the sharding contract), so this only trades
    /// wall-clock for cores. Only the cap is stored: a round plans at most
    /// one shard per populated cell (grid-native) or station (exact), and
    /// shard scratch grows to what rounds plan.
    pub fn set_threads(&mut self, threads: usize) {
        self.pool.set_threads(threads);
    }

    /// The thread cap of the accumulate stage.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Total received power per station from the last resolved round
    /// (diagnostics; indexed by station).
    ///
    /// Exposes the raw accumulator so determinism tests can compare
    /// floating-point sums bit-for-bit, not only decode decisions.
    pub fn received_power(&self) -> &[f64] {
        &self.total
    }

    /// Resolves one round into `out`, reusing all internal scratch and the
    /// capacity of `out.decoded_from`. The accumulate stage runs on the
    /// calling thread unless [`ReceptionOracle::set_threads`] raised the
    /// thread cap.
    ///
    /// Semantics are identical to
    /// [`resolve_round`](crate::reception::resolve_round) (which now
    /// delegates to a one-shot oracle): `transmitters` is the set `T`
    /// (indices into `points`, duplicates not allowed), `grid` is required
    /// for `GridNative` and must be built over `points`.
    ///
    /// # Panics
    ///
    /// Panics if a transmitter index is out of range, if `GridNative` is
    /// requested without a grid, or if the mode fails
    /// [`InterferenceMode::validate`].
    pub fn resolve_into<P: MetricPoint>(
        &mut self,
        points: &[P],
        params: &SinrParams,
        transmitters: &[usize],
        mode: InterferenceMode,
        grid: Option<&GridIndex>,
        out: &mut RoundOutcome,
    ) {
        self.plan(points, transmitters);
        self.accumulate(points, params, transmitters, mode, grid);
        self.decide(params, transmitters.len(), out);
    }

    /// As [`ReceptionOracle::resolve_into`], allocating a fresh outcome.
    pub fn resolve<P: MetricPoint>(
        &mut self,
        points: &[P],
        params: &SinrParams,
        transmitters: &[usize],
        mode: InterferenceMode,
        grid: Option<&GridIndex>,
    ) -> RoundOutcome {
        let mut out = RoundOutcome::empty();
        self.resolve_into(points, params, transmitters, mode, grid, &mut out);
        out
    }

    /// Stage 1 — plan: clear the accumulators and mark the transmitter
    /// set (grid-native additionally buckets transmitters at the top of
    /// its accumulate arm).
    fn plan<P: MetricPoint>(&mut self, points: &[P], transmitters: &[usize]) {
        let n = points.len();
        self.reset(n);
        for &t in transmitters {
            assert!(t < n, "transmitter index {t} out of range (n = {n})");
            self.is_tx[t] = true;
        }
    }

    /// Stage 2 — accumulate, per station, the total received power and the
    /// strongest transmitter (ties broken towards the first transmitter
    /// encountered; transmitter iteration order is deterministic in
    /// every mode).
    fn accumulate<P: MetricPoint>(
        &mut self,
        points: &[P],
        params: &SinrParams,
        transmitters: &[usize],
        mode: InterferenceMode,
        grid: Option<&GridIndex>,
    ) {
        if let Err(msg) = mode.validate() {
            panic!("{msg}");
        }
        match mode {
            InterferenceMode::Exact => self.accumulate_exact(points, params, transmitters),
            InterferenceMode::GridNative { near_radius } => {
                // A caller contract, like the mode check above: resolving
                // grid-native physics without a grid is a bug, not an input.
                #[allow(clippy::expect_used)]
                let grid = grid.expect("GridNative interference mode requires a grid index");
                debug_assert_eq!(
                    grid.domain_len(),
                    points.len(),
                    "grid must be built over the same point slice"
                );
                self.bucket_transmitters(points, transmitters, grid);
                self.accumulate_grid_native::<P>(params, near_radius, grid);
                self.scatter_slots(grid);
            }
        }
    }

    /// Stage 3 — decide: the SINR threshold test per station.
    fn decide(&mut self, params: &SinrParams, num_transmitters: usize, out: &mut RoundOutcome) {
        let n = self.total.len();
        out.decoded_from.clear();
        out.decoded_from.extend((0..n).map(|u| {
            if self.is_tx[u] || self.best_idx[u] == usize::MAX {
                return None;
            }
            let interference = self.total[u] - self.best_pow[u];
            if params.decodable(self.best_pow[u], interference) {
                Some(self.best_idx[u])
            } else {
                None
            }
        }));
        out.num_transmitters = num_transmitters;
    }

    /// Exact Equation (1): every transmitter contributes to every
    /// receiver, accumulated per receiver in transmitter order (bit-for-bit
    /// compatible with the historical transmitter-major loop). Shards by
    /// contiguous station ranges.
    fn accumulate_exact<P: MetricPoint>(
        &mut self,
        points: &[P],
        params: &SinrParams,
        transmitters: &[usize],
    ) {
        self.pool.plan_stations(points.len());
        let (bounds, scratches) = self.pool.parts();
        run_sharded(
            &|s| bounds[s + 1] - bounds[s],
            &mut self.total,
            &mut self.best_pow,
            &mut self.best_idx,
            scratches,
            &|s, t0, p0, i0, _scr| exact_range(bounds[s], t0, p0, i0, points, params, transmitters),
        );
    }

    /// Buckets `transmitters` into flat sorted cells of `grid`, computing
    /// per-cell centroids and the SoA coordinate copy the batch kernels
    /// stream through. Reuses all bucket buffers; members end up ascending
    /// within each cell.
    fn bucket_transmitters<P: MetricPoint>(
        &mut self,
        points: &[P],
        transmitters: &[usize],
        grid: &GridIndex,
    ) {
        self.tx_cells.clear();
        self.tx_cells
            .extend(transmitters.iter().map(|&t| (grid.key_for(&points[t]), t)));
        self.tx_cells.sort_unstable();
        self.tx_pos.reset_axes(P::AXES);
        for &(_, t) in &self.tx_cells {
            self.tx_pos.push(&points[t]);
        }
        self.bucket_starts.clear();
        self.bucket_centroids.clear();
        let mut i = 0;
        while i < self.tx_cells.len() {
            let key = self.tx_cells[i].0;
            self.bucket_starts.push(i);
            let start = i;
            let mut centroid = [0.0f64; 3];
            while i < self.tx_cells.len() && self.tx_cells[i].0 == key {
                let tp = &points[self.tx_cells[i].1];
                for (axis, slot) in centroid.iter_mut().enumerate().take(P::AXES) {
                    *slot += tp.coord(axis);
                }
                i += 1;
            }
            let k = (i - start) as f64;
            for v in &mut centroid {
                *v /= k;
            }
            self.bucket_centroids.push(centroid);
        }
        self.bucket_starts.push(self.tx_cells.len());
    }

    /// The grid-native kernel: exact decode, approximate tail, shared per
    /// receiver cell — sharded by contiguous receiver-cell ranges.
    ///
    /// Per *receiver cell* (not per receiver), transmitter cells within
    /// Chebyshev key distance `⌈near_radius / cell⌉` are evaluated exactly
    /// per member — through the batched SoA distance/signal kernels, over
    /// a contiguous per-shard copy of the near members — while all farther
    /// cells collapse into a single tail term evaluated once between the
    /// two cells' member centroids and shared by every receiver in the
    /// cell. Any decodable transmitter is within range 1 < `near_radius`,
    /// so decode candidates are always exact — only the interference tail
    /// is approximated (at both endpoints, which is what
    /// [`InterferenceMode::GridNative`]'s error bound accounts for).
    ///
    /// Accumulates into the slot-ordered buffers (each shard owns the
    /// contiguous slot range of its cells); [`ReceptionOracle::scatter_slots`]
    /// maps them back to station order.
    fn accumulate_grid_native<P: MetricPoint>(
        &mut self,
        params: &SinrParams,
        near_radius: f64,
        grid: &GridIndex,
    ) {
        // Number of *slots* — under a liveness mask (churned populations)
        // this is the live count: dead stations occupy no slot, receive
        // nothing (their accumulators keep the reset state) and, never
        // transmitting, contribute nothing.
        let n = grid.len();
        // No fill needed: every slot is written exactly once per round.
        self.slot_total.resize(n, 0.0);
        self.slot_best_pow.resize(n, 0.0);
        self.slot_best_idx.resize(n, usize::MAX);
        let near_cells = (near_radius / grid.cell_side()).ceil() as i64;
        self.pool.plan_cells(grid);
        let (bounds, scratches) = self.pool.parts();
        let tx_cells = &self.tx_cells;
        let bucket_starts = &self.bucket_starts;
        let bucket_centroids = &self.bucket_centroids;
        let tx_pos = &self.tx_pos;
        let axes = P::AXES;
        // First slot of cell boundary `c` (the sentinel `num_cells` maps
        // to `n`): shard `s` owns slots `slot_at(bounds[s])..slot_at(bounds[s+1])`.
        let slot_at = |c: usize| {
            if c == grid.num_cells() {
                n
            } else {
                grid.cell_range(c).start
            }
        };
        run_sharded(
            &|s| slot_at(bounds[s + 1]) - slot_at(bounds[s]),
            &mut self.slot_total,
            &mut self.slot_best_pow,
            &mut self.slot_best_idx,
            scratches,
            &|s, t0, p0, i0, scr| {
                grid_native_cells(
                    bounds[s]..bounds[s + 1],
                    slot_at(bounds[s]),
                    t0,
                    p0,
                    i0,
                    scr,
                    grid,
                    params,
                    near_cells,
                    axes,
                    tx_cells,
                    bucket_starts,
                    bucket_centroids,
                    tx_pos,
                )
            },
        );
    }

    /// Maps the slot-ordered grid-native accumulators back to station
    /// order (cells partition the stations, so every station is written
    /// exactly once).
    fn scatter_slots(&mut self, grid: &GridIndex) {
        for (slot, &u) in grid.slot_ids().iter().enumerate() {
            self.total[u] = self.slot_total[slot];
            self.best_pow[u] = self.slot_best_pow[slot];
            self.best_idx[u] = self.slot_best_idx[slot];
        }
    }
}

/// The shared shard driver of the accumulate stage: one shard per
/// [`ShardScratch`] in `scratches`. Splits the three accumulator buffers
/// into per-shard windows of `len_of(s)` elements (contiguous, disjoint —
/// the sharding determinism contract) and runs `kernel(s, ...)` per shard
/// on scoped threads. Shard 0 runs inline on the calling thread; a single
/// shard spawns nothing.
fn run_sharded<K>(
    len_of: &(dyn Fn(usize) -> usize + Sync),
    mut total: &mut [f64],
    mut best_pow: &mut [f64],
    mut best_idx: &mut [usize],
    scratches: &mut [ShardScratch],
    kernel: &K,
) where
    K: Fn(usize, &mut [f64], &mut [f64], &mut [usize], &mut ShardScratch) + Sync,
{
    if let [scr] = scratches {
        kernel(0, total, best_pow, best_idx, scr);
        return;
    }
    std::thread::scope(|scope| {
        let mut first = None;
        for (s, scr) in scratches.iter_mut().enumerate() {
            let len = len_of(s);
            let (t0, t1) = std::mem::take(&mut total).split_at_mut(len);
            let (p0, p1) = std::mem::take(&mut best_pow).split_at_mut(len);
            let (i0, i1) = std::mem::take(&mut best_idx).split_at_mut(len);
            (total, best_pow, best_idx) = (t1, p1, i1);
            if s == 0 {
                first = Some((t0, p0, i0, scr));
            } else {
                scope.spawn(move || kernel(s, t0, p0, i0, scr));
            }
        }
        if let Some((t0, p0, i0, scr)) = first {
            kernel(0, t0, p0, i0, scr);
        }
    });
}

/// Exact-mode kernel over the station range starting at `base` (slices
/// are the shard's pre-split windows): per receiver, one term per
/// transmitter in transmitter order — the historical accumulation order.
fn exact_range<P: MetricPoint>(
    base: usize,
    total: &mut [f64],
    best_pow: &mut [f64],
    best_idx: &mut [usize],
    points: &[P],
    params: &SinrParams,
    transmitters: &[usize],
) {
    for (off, tot) in total.iter_mut().enumerate() {
        let u = base + off;
        let pu = points[u];
        let mut acc = 0.0f64;
        let mut bp = 0.0f64;
        let mut bi = usize::MAX;
        for &t in transmitters {
            if t == u {
                continue;
            }
            let s = params.signal_at(points[t].distance(&pu));
            acc += s;
            if s > bp {
                bp = s;
                bi = t;
            }
        }
        *tot = acc;
        best_pow[off] = bp;
        best_idx[off] = bi;
    }
}

/// Grid-native kernel over one contiguous receiver-cell range whose slots
/// start at `slot_base` (slices are the shard's pre-split slot windows).
#[allow(clippy::too_many_arguments)]
fn grid_native_cells(
    cells: std::ops::Range<usize>,
    slot_base: usize,
    total: &mut [f64],
    best_pow: &mut [f64],
    best_idx: &mut [usize],
    scratch: &mut ShardScratch,
    grid: &GridIndex,
    params: &SinrParams,
    near_cells: i64,
    axes: usize,
    tx_cells: &[(CellKey, usize)],
    bucket_starts: &[usize],
    bucket_centroids: &[[f64; 3]],
    tx_pos: &PositionStore,
) {
    let buckets = bucket_starts.len().saturating_sub(1);
    let store = grid.positions();
    for c in cells {
        let rkey = grid.cell_key(c);
        // Receiver-cell member centroid: the tail evaluation point
        // (precomputed at grid build).
        let rcent = grid.cell_centroid(c);
        // Split transmitter cells into near (exact per member, gathered
        // into the shard's contiguous SoA scratch) and far (one shared
        // tail term per cell); the split depends only on the receiver
        // CELL, so every (receiver, transmitter) pair is counted exactly
        // once.
        scratch.near_pos.reset_axes(axes);
        scratch.near_t.clear();
        let mut tail = 0.0f64;
        for b in 0..buckets {
            let bkey = tx_cells[bucket_starts[b]].0;
            let cheb = (0..axes)
                .map(|a| (bkey[a] - rkey[a]).abs())
                .max()
                .unwrap_or(0);
            if cheb <= near_cells {
                let members = bucket_starts[b]..bucket_starts[b + 1];
                scratch.near_pos.extend_from(tx_pos, members.clone());
                scratch
                    .near_t
                    .extend(tx_cells[members].iter().map(|&(_, t)| t));
            } else {
                let centroid = &bucket_centroids[b];
                let mut d2 = 0.0;
                for (axis, cc) in centroid.iter().enumerate().take(axes) {
                    let dd = rcent[axis] - cc;
                    d2 += dd * dd;
                }
                let count = (bucket_starts[b + 1] - bucket_starts[b]) as f64;
                tail += count * params.signal_at_sq(d2);
            }
        }
        let near_len = scratch.near_t.len();
        for slot in grid.cell_range(c) {
            let u = grid.slot_ids()[slot];
            let pu = store.coords_of(slot);
            let mut acc = tail;
            let mut bp = 0.0f64;
            let mut bi = usize::MAX;
            // Batched near evaluation: distances then signals, chunk by
            // chunk, with the same per-element arithmetic and per-receiver
            // accumulation order as the scalar loop.
            let mut sig = [0.0f64; CHUNK];
            let mut i = 0;
            while i < near_len {
                let len = CHUNK.min(near_len - i);
                scratch
                    .near_pos
                    .distance_sq_batch(i..i + len, &pu, &mut sig[..len]);
                params.signal_at_sq_batch(&mut sig[..len]);
                for (k, &s) in sig[..len].iter().enumerate() {
                    let t = scratch.near_t[i + k];
                    if t == u {
                        continue;
                    }
                    acc += s;
                    if s > bp {
                        bp = s;
                        bi = t;
                    }
                }
                i += len;
            }
            let local = slot - slot_base;
            total[local] = acc;
            best_pow[local] = bp;
            best_idx[local] = bi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reception::resolve_round;
    use sinr_geometry::Point2;

    fn params() -> SinrParams {
        SinrParams::default_plane()
    }

    fn spread(n: usize) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let x = (i % 20) as f64 * 0.9 + ((i * 7) % 5) as f64 * 0.11;
                let y = (i / 20) as f64 * 0.9 + ((i * 13) % 7) as f64 * 0.07;
                Point2::new(x, y)
            })
            .collect()
    }

    fn all_modes() -> [InterferenceMode; 2] {
        [
            InterferenceMode::Exact,
            InterferenceMode::GridNative { near_radius: 4.0 },
        ]
    }

    #[test]
    fn oracle_matches_free_function_in_every_mode() {
        let pts = spread(200);
        let grid = GridIndex::build(&pts, 1.0);
        let p = params();
        let tx: Vec<usize> = (0..200).step_by(9).collect();
        let mut oracle = ReceptionOracle::new();
        for mode in all_modes() {
            let free = resolve_round(&pts, &p, &tx, mode, Some(&grid));
            let from_oracle = oracle.resolve(&pts, &p, &tx, mode, Some(&grid));
            assert_eq!(free, from_oracle, "{mode:?}");
        }
    }

    #[test]
    fn sharded_pools_are_bitwise_identical_to_serial() {
        // The tentpole determinism contract at the oracle level: any
        // thread count, every mode, identical decode decisions AND
        // bit-identical power sums — for fresh oracles and for one oracle
        // whose thread count changes between rounds.
        let pts = spread(500);
        let grid = GridIndex::build(&pts, 1.0);
        let p = params();
        let same_power = |serial: &ReceptionOracle, other: &ReceptionOracle, what: &str| {
            let (a, b) = (serial.received_power(), other.received_power());
            assert_eq!(a.len(), b.len(), "{what}");
            for (u, (a, b)) in a.iter().zip(b).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: power differs at {u}");
            }
        };
        for mode in all_modes() {
            let mut serial_oracle = ReceptionOracle::new();
            let mut resized = ReceptionOracle::new();
            for (step, threads) in [7, 3, 11, 5].into_iter().zip([1, 8, 2, 1]) {
                let tx: Vec<usize> = (0..500).step_by(step).collect();
                let serial = serial_oracle.resolve(&pts, &p, &tx, mode, Some(&grid));
                for fresh_threads in [2, 3, 8, 64] {
                    let mut oracle = ReceptionOracle::new();
                    oracle.set_threads(fresh_threads);
                    let out = oracle.resolve(&pts, &p, &tx, mode, Some(&grid));
                    let what = format!("{mode:?}, step {step}, fresh at {fresh_threads} threads");
                    assert_eq!(serial, out, "{what}");
                    same_power(&serial_oracle, &oracle, &what);
                }
                resized.set_threads(threads);
                assert_eq!(resized.threads(), threads);
                let out = resized.resolve(&pts, &p, &tx, mode, Some(&grid));
                let what = format!("{mode:?}, step {step}, resized to {threads} threads");
                assert_eq!(serial, out, "{what}");
                same_power(&serial_oracle, &resized, &what);
            }
        }
    }

    #[test]
    fn huge_thread_request_clamps_to_the_cap() {
        // No round is resolved, so no thread starts.
        let mut oracle = ReceptionOracle::new();
        oracle.set_threads(1 << 40);
        assert_eq!(oracle.threads(), crate::MAX_PHYSICS_THREADS);
        oracle.set_threads(crate::MAX_PHYSICS_THREADS);
        assert_eq!(oracle.threads(), crate::MAX_PHYSICS_THREADS);
        oracle.set_threads(0);
        assert_eq!(oracle.threads(), 1);
    }

    #[test]
    fn oracle_recovers_after_panicking_resolve() {
        // A contract panic unwinds out of the plan stage; later rounds
        // must resolve exactly like a fresh oracle's.
        let pts = spread(50);
        let grid = GridIndex::build(&pts, 1.0);
        let p = params();
        let mut oracle = ReceptionOracle::new();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = oracle.resolve(&pts, &p, &[999], InterferenceMode::Exact, None);
        }));
        assert!(panicked.is_err(), "out-of-range transmitter must panic");
        let tx: Vec<usize> = (0..50).step_by(5).collect();
        let mode = InterferenceMode::GridNative { near_radius: 4.0 };
        let recovered = oracle.resolve(&pts, &p, &tx, mode, Some(&grid));
        let fresh = ReceptionOracle::new().resolve(&pts, &p, &tx, mode, Some(&grid));
        assert_eq!(recovered, fresh);
    }

    #[test]
    fn reused_oracle_matches_fresh_oracle() {
        // Interleave modes and transmitter sets; stale scratch must never
        // leak into a later round.
        let pts = spread(150);
        let grid = GridIndex::build(&pts, 1.0);
        let p = params();
        let mut reused = ReceptionOracle::new();
        let rounds: Vec<(Vec<usize>, InterferenceMode)> = vec![
            ((0..150).step_by(7).collect(), InterferenceMode::Exact),
            (
                (0..150).step_by(3).collect(),
                InterferenceMode::GridNative { near_radius: 4.0 },
            ),
            (vec![0], InterferenceMode::GridNative { near_radius: 2.0 }),
            (vec![], InterferenceMode::Exact),
            (
                (0..150).step_by(7).collect(),
                InterferenceMode::GridNative { near_radius: 4.0 },
            ),
        ];
        for (tx, mode) in rounds {
            let fresh = ReceptionOracle::new().resolve(&pts, &p, &tx, mode, Some(&grid));
            let again = reused.resolve(&pts, &p, &tx, mode, Some(&grid));
            assert_eq!(fresh, again, "{mode:?} with {} transmitters", tx.len());
        }
    }

    #[test]
    fn grid_native_matches_exact_decisions_on_spread_network() {
        // Decode candidates are exact; only the tail is approximated, so on
        // a spread deployment the decisions must coincide with Exact.
        let pts = spread(200);
        let grid = GridIndex::build(&pts, 1.0);
        let p = params();
        let tx: Vec<usize> = (0..200).step_by(9).collect();
        let exact = resolve_round(&pts, &p, &tx, InterferenceMode::Exact, None);
        let native = ReceptionOracle::new().resolve(
            &pts,
            &p,
            &tx,
            InterferenceMode::GridNative { near_radius: 4.0 },
            Some(&grid),
        );
        let disagreements = exact
            .decoded_from
            .iter()
            .zip(&native.decoded_from)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(disagreements, 0, "grid-native flipped decode decisions");
    }

    #[test]
    fn grid_native_never_decodes_beyond_range_one() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.8, 0.0),
            Point2::new(9.0, 0.0), // isolated far receiver: far-aggregated only
        ];
        let grid = GridIndex::build(&pts, 1.0);
        let out = ReceptionOracle::new().resolve(
            &pts,
            &params(),
            &[0],
            InterferenceMode::GridNative { near_radius: 2.0 },
            Some(&grid),
        );
        assert_eq!(out.decoded_from[1], Some(0));
        assert_eq!(out.decoded_from[2], None);
        assert_eq!(out.decoded_from[0], None, "half-duplex");
    }

    #[test]
    fn received_power_exposes_last_round_totals() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(0.5, 0.0)];
        let p = params();
        let mut oracle = ReceptionOracle::new();
        let _ = oracle.resolve(&pts, &p, &[0], InterferenceMode::Exact, None);
        assert_eq!(oracle.received_power().len(), 2);
        assert_eq!(oracle.received_power()[0], 0.0, "transmitter hears nothing");
        assert!(
            (oracle.received_power()[1] - p.signal_at(0.5)).abs() < 1e-15,
            "receiver total is the lone signal"
        );
    }

    #[test]
    #[should_panic]
    fn grid_native_requires_grid() {
        let pts = vec![Point2::origin()];
        let _ = ReceptionOracle::new().resolve(
            &pts,
            &params(),
            &[0],
            InterferenceMode::GridNative { near_radius: 4.0 },
            None,
        );
    }

    #[test]
    #[should_panic(expected = "must be at least 2")]
    fn grid_native_rejects_small_near_radius() {
        let pts = vec![Point2::origin()];
        let grid = GridIndex::build(&pts, 1.0);
        let _ = ReceptionOracle::new().resolve(
            &pts,
            &params(),
            &[0],
            InterferenceMode::GridNative { near_radius: 1.5 },
            Some(&grid),
        );
    }
}
