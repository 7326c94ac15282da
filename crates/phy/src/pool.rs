//! The per-trial worker pool of the sharded accumulate stage.
//!
//! [`KernelPool`] holds everything the accumulate stage of the staged
//! reception pipeline needs to run on more than one thread: the requested
//! thread count, one reusable `ShardScratch` per worker, and the shard
//! boundary buffer. Build one per trial (the [`Engine`] owns one and
//! reuses it across rounds; `Scenario::physics_threads` sizes it) and
//! hand it to [`ReceptionOracle::resolve_into_with`] every round — the
//! only per-round threading cost is the scoped-thread spawn itself; all
//! scratch is steady-state allocation-free.
//!
//! Determinism contract: sharding **never** changes results. Shards own
//! contiguous receiver-cell (grid-native) or station (exact) ranges,
//! every per-receiver floating-point sum is
//! accumulated in the same order as the serial kernel, and no shard
//! writes outside its range — so resolved rounds are bitwise identical
//! at any thread count (pinned by `tests/mode_determinism.rs`).
//!
//! [`Engine`]: ../../sinr_runtime/struct.Engine.html
//! [`ReceptionOracle::resolve_into_with`]: crate::ReceptionOracle::resolve_into_with

use sinr_geometry::{GridIndex, PositionStore};

/// Reusable scratch owned by one accumulate-stage shard.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardScratch {
    /// SoA coordinates of the near transmitters of the receiver cell the
    /// shard is currently resolving (contiguous, so the distance batch
    /// kernel streams through them).
    pub near_pos: PositionStore,
    /// Station ids of those transmitters, aligned with `near_pos` slots.
    pub near_t: Vec<usize>,
}

/// Worker-thread state for the sharded accumulate stage; one per trial.
///
/// # Example
///
/// ```
/// use sinr_geometry::Point2;
/// use sinr_phy::{KernelPool, Network, RoundOutcome, SinrParams};
///
/// let net = Network::new(
///     vec![Point2::new(0.0, 0.0), Point2::new(0.5, 0.0)],
///     SinrParams::default_plane(),
/// )?;
/// let mut oracle = net.new_oracle();
/// let mut pool = KernelPool::new(4); // results identical to KernelPool::serial()
/// let mut out = RoundOutcome::empty();
/// net.resolve_with_pool(&mut oracle, &mut pool, &[0], &mut out);
/// assert_eq!(out.decoded_from[1], Some(0));
/// # Ok::<(), sinr_phy::NetworkError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KernelPool {
    threads: usize,
    shards: Vec<ShardScratch>,
    /// Shard boundaries of the current round: cell indices (grid-native)
    /// or station indices (exact), `shard_count + 1` entries.
    bounds: Vec<usize>,
}

impl Default for KernelPool {
    fn default() -> Self {
        KernelPool::serial()
    }
}

impl KernelPool {
    /// A pool that shards the accumulate stage over up to `threads`
    /// scoped worker threads (`0` is clamped to `1`).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        KernelPool {
            threads,
            shards: vec![ShardScratch::default(); threads],
            bounds: Vec::new(),
        }
    }

    /// A single-threaded pool: the accumulate stage runs inline on the
    /// calling thread (and spawns nothing).
    pub fn serial() -> Self {
        KernelPool::new(1)
    }

    /// A heap-free placeholder for moving a pool out of a struct field
    /// without allocating (its empty scratch means it must never resolve
    /// a round itself).
    pub(crate) fn placeholder() -> Self {
        KernelPool {
            threads: 1,
            shards: Vec::new(),
            bounds: Vec::new(),
        }
    }

    /// The maximum number of worker threads this pool shards across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Plans shard boundaries over the populated cells of `grid`,
    /// balanced by member count (contiguous cell ranges, so each shard
    /// owns a contiguous slot range of the CSR layout). Returns the shard
    /// count (`>= 1`; cells are never split).
    pub(crate) fn plan_cells(&mut self, grid: &GridIndex) -> usize {
        self.ensure_scratch();
        let cells = grid.num_cells();
        let n = grid.len();
        let want = self.threads.min(cells).max(1);
        self.bounds.clear();
        self.bounds.push(0);
        if cells > 0 {
            let mut prev = 0usize;
            for s in 1..want {
                let target = s * n / want;
                // First cell starting at or after the slot target,
                // strictly after the previous boundary.
                let mut lo = prev + 1;
                let mut hi = cells;
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if grid.cell_range(mid).start < target {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                if lo < cells {
                    self.bounds.push(lo);
                    prev = lo;
                }
            }
        }
        self.bounds.push(cells);
        self.bounds.len() - 1
    }

    /// Plans shard boundaries over station indices `0..n` (even
    /// contiguous ranges). Returns the shard count (`>= 1`).
    pub(crate) fn plan_stations(&mut self, n: usize) -> usize {
        self.ensure_scratch();
        let want = self.threads.min(n).max(1);
        self.bounds.clear();
        for s in 0..want {
            self.bounds.push(s * n / want);
        }
        self.bounds.push(n);
        want
    }

    /// The planned boundaries and the per-shard scratch, split-borrowed.
    pub(crate) fn parts(&mut self) -> (&[usize], &mut [ShardScratch]) {
        (&self.bounds, &mut self.shards)
    }

    /// Guarantees at least one scratch entry, repairing a pool whose
    /// scratch was lost — e.g. an oracle's fallback slot left holding
    /// [`KernelPool::placeholder`] after a panicking resolve. The one-off
    /// allocation happens only on that recovery path, never in steady
    /// state.
    fn ensure_scratch(&mut self) {
        if self.shards.is_empty() {
            self.shards.push(ShardScratch::default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geometry::Point2;

    fn grid(n: usize) -> GridIndex {
        let pts: Vec<Point2> = (0..n)
            .map(|i| Point2::new((i % 13) as f64 * 0.8, (i / 13) as f64 * 0.8))
            .collect();
        GridIndex::build(&pts, 1.0)
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(KernelPool::new(0).threads(), 1);
        assert_eq!(KernelPool::serial().threads(), 1);
        assert_eq!(KernelPool::default().threads(), 1);
    }

    #[test]
    fn cell_plan_partitions_all_cells_contiguously() {
        let g = grid(200);
        for threads in [1, 2, 3, 8, 64] {
            let mut pool = KernelPool::new(threads);
            let shards = pool.plan_cells(&g);
            let (bounds, scratch) = pool.parts();
            assert_eq!(bounds.len(), shards + 1);
            assert!(shards <= threads && shards >= 1);
            assert!(scratch.len() >= shards);
            assert_eq!(bounds[0], 0);
            assert_eq!(*bounds.last().unwrap(), g.num_cells());
            assert!(bounds.windows(2).all(|w| w[0] < w[1]), "nonempty shards");
        }
    }

    #[test]
    fn cell_plan_handles_empty_grid() {
        let g = GridIndex::build(&Vec::<Point2>::new(), 1.0);
        let mut pool = KernelPool::new(4);
        let shards = pool.plan_cells(&g);
        assert_eq!(shards, 1);
        assert_eq!(pool.parts().0, &[0, 0]);
    }

    #[test]
    fn station_plan_covers_range_evenly() {
        let mut pool = KernelPool::new(3);
        let shards = pool.plan_stations(10);
        assert_eq!(shards, 3);
        assert_eq!(pool.parts().0, &[0, 3, 6, 10]);
        let shards = pool.plan_stations(2);
        assert_eq!(shards, 2);
        assert_eq!(pool.parts().0, &[0, 1, 2]);
        let shards = pool.plan_stations(0);
        assert_eq!(shards, 1);
        assert_eq!(pool.parts().0, &[0, 0]);
    }
}
