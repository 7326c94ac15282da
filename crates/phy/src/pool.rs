//! The shard state of the accumulate stage.
//!
//! Every [`ReceptionOracle`] owns one [`KernelPool`]: the thread cap set
//! through [`ReceptionOracle::set_threads`] (at most
//! [`MAX_PHYSICS_THREADS`]), one reusable `ShardScratch` per planned
//! shard, and the shard boundary buffer. It holds no threads
//! — each round the oracle spawns scoped threads for shards 1.. and runs
//! shard 0 inline, so the only per-round threading cost is that spawn;
//! all scratch is steady-state allocation-free.
//!
//! Shard scratch is grown to the shards a round actually plans, never to
//! the cap: a round has at most one shard per populated cell
//! (grid-native) or per station (exact). The cap itself is clamped to
//! [`MAX_PHYSICS_THREADS`], so an absurd request spawns no more threads
//! per round than that.
//!
//! Determinism contract: sharding **never** changes results. Shards own
//! contiguous receiver-cell (grid-native) or station (exact) ranges,
//! every per-receiver floating-point sum is
//! accumulated in the same order as the serial kernel, and no shard
//! writes outside its range — so resolved rounds are bitwise identical
//! at any thread count (pinned by `tests/mode_determinism.rs`).
//!
//! [`ReceptionOracle`]: crate::ReceptionOracle
//! [`ReceptionOracle::set_threads`]: crate::ReceptionOracle::set_threads

use sinr_geometry::{GridIndex, PositionStore};

/// Most threads one round's accumulate stage runs on, the caller's
/// included. [`ReceptionOracle::set_threads`] clamps to it: each round
/// spawns one scoped thread per shard beyond the first, and an exact
/// round would otherwise plan up to one shard per station.
///
/// [`ReceptionOracle::set_threads`]: crate::ReceptionOracle::set_threads
pub const MAX_PHYSICS_THREADS: usize = 64;

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

/// The accumulate stage's thread cap, per-shard scratch and shard plan.
#[derive(Debug, Clone)]
pub(crate) struct KernelPool {
    threads: usize,
    /// One scratch per shard planned so far (grown on demand).
    shards: Vec<ShardScratch>,
    /// Shard boundaries of the current round: cell indices (grid-native)
    /// or station indices (exact), `shard_count + 1` entries.
    bounds: Vec<usize>,
}

impl Default for KernelPool {
    fn default() -> Self {
        KernelPool::new(1)
    }
}

impl KernelPool {
    /// Shard state for up to `threads` shards, clamped to
    /// `1..=MAX_PHYSICS_THREADS`.
    pub(crate) fn new(threads: usize) -> Self {
        KernelPool {
            threads: threads.clamp(1, MAX_PHYSICS_THREADS),
            shards: Vec::new(),
            bounds: Vec::new(),
        }
    }

    /// The maximum number of shards (threads, counting the caller's).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the thread cap, clamped to `1..=MAX_PHYSICS_THREADS`;
    /// scratch is kept.
    pub(crate) fn set_threads(&mut self, threads: usize) {
        self.threads = threads.clamp(1, MAX_PHYSICS_THREADS);
    }

    /// Plans shard boundaries over the populated cells of `grid`,
    /// balanced by member count (contiguous cell ranges, so each shard
    /// owns a contiguous slot range of the CSR layout). Returns the shard
    /// count (`>= 1`; cells are never split).
    pub(crate) fn plan_cells(&mut self, grid: &GridIndex) -> usize {
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
        self.fit_scratch()
    }

    /// Plans shard boundaries over station indices `0..n` (even
    /// contiguous ranges). Returns the shard count (`>= 1`).
    pub(crate) fn plan_stations(&mut self, n: usize) -> usize {
        let want = self.threads.min(n).max(1);
        self.bounds.clear();
        for s in 0..want {
            self.bounds.push(s * n / want);
        }
        self.bounds.push(n);
        self.fit_scratch()
    }

    /// Grows the scratch to the planned shard count and returns that
    /// count.
    fn fit_scratch(&mut self) -> usize {
        let shards = self.bounds.len() - 1;
        if self.shards.len() < shards {
            self.shards.resize_with(shards, ShardScratch::default);
        }
        shards
    }

    /// The planned boundaries and exactly one scratch per planned shard,
    /// split-borrowed.
    pub(crate) fn parts(&mut self) -> (&[usize], &mut [ShardScratch]) {
        let shards = self.bounds.len().saturating_sub(1);
        (&self.bounds, &mut self.shards[..shards])
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
            assert_eq!(scratch.len(), shards);
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
