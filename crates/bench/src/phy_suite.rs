//! The physical-layer benchmark suite: the staged, batched
//! [`ReceptionOracle`] across interference modes, sizes and physics
//! thread counts.
//!
//! Run by `microbench --suite phy` (which CI runs to produce the tracked
//! `BENCH.json`). Every row is an `oracle/...` row of the reusable zero-allocation
//! oracle; `oracle/grid_native_r4_t<k>/...` rows shard the accumulate
//! stage across `k` physics threads ([`ReceptionOracle::set_threads`]).

use sinr_geometry::GridIndex;
use sinr_netgen::uniform;
use sinr_phy::{InterferenceMode, ReceptionOracle, RoundOutcome, SinrParams};

use crate::microbench::{black_box, Session};

/// Stations per unit square in the dense-uniform deployments (the load the
/// tracked speedups are measured at).
pub const DENSITY: f64 = 30.0;

/// Runs the suite into `session`. Under `--quick` the largest size drops
/// from 10⁴ to 2 500 stations, the 10⁵ sharded rows are skipped and
/// iteration counts shrink.
pub fn run(session: &mut Session) {
    let params = SinrParams::default_plane();
    let sizes: &[usize] = if session.quick {
        &[256, 1024, 2500]
    } else {
        &[256, 1024, 4096, 10_000]
    };
    for &n in sizes {
        let side = uniform::side_for_density(n, DENSITY);
        let pts = uniform::square(n, side, 7);
        let grid = GridIndex::build(&pts, 1.0);
        // ~2% of stations transmit (typical dissemination load).
        let tx: Vec<usize> = (0..n).step_by(50).collect();
        let mut oracle = ReceptionOracle::for_stations(n);
        let mut out = RoundOutcome::empty();

        let modes = [
            ("exact", InterferenceMode::Exact),
            ("grid_native_r4", InterferenceMode::grid_native()),
        ];
        for (tag, mode) in modes {
            session.bench(&format!("oracle/{tag}/{n}"), n, || {
                oracle.resolve_into(&pts, &params, &tx, mode, Some(&grid), &mut out);
                black_box(&out);
            });
        }
    }

    // The sharded grid-native kernel: the scaling rows the ROADMAP's
    // per-round-parallelism item tracks. `_t1` is the single-thread
    // baseline the `_t2`/`_t8` rows are compared against **in the same
    // file** (thread speedups are meaningless across machines).
    let shard_sizes: &[usize] = if session.quick {
        &[2500]
    } else {
        &[10_000, 100_000]
    };
    for &n in shard_sizes {
        let side = uniform::side_for_density(n, DENSITY);
        let pts = uniform::square(n, side, 7);
        let grid = GridIndex::build(&pts, 1.0);
        let tx: Vec<usize> = (0..n).step_by(50).collect();
        let mut oracle = ReceptionOracle::for_stations(n);
        let mut out = RoundOutcome::empty();
        for threads in [1usize, 2, 8] {
            oracle.set_threads(threads);
            session.bench(&format!("oracle/grid_native_r4_t{threads}/{n}"), n, || {
                oracle.resolve_into(
                    &pts,
                    &params,
                    &tx,
                    InterferenceMode::grid_native(),
                    Some(&grid),
                    &mut out,
                );
                black_box(&out);
            });
        }
    }

    // Transmitter-density scaling of the exact kernel.
    let n = session.pick(1024, 512);
    let side = uniform::side_for_density(n, DENSITY);
    let pts = uniform::square(n, side, 11);
    let mut oracle = ReceptionOracle::for_stations(n);
    let mut out = RoundOutcome::empty();
    for &pct in &[2usize, 10, 25] {
        let tx: Vec<usize> = (0..n).step_by(100 / pct).collect();
        session.bench(&format!("oracle/exact_pct{pct}/{n}"), n, || {
            oracle.resolve_into(&pts, &params, &tx, InterferenceMode::Exact, None, &mut out);
            black_box(&out);
        });
    }

    report_speedups(session, sizes[sizes.len() - 1], shard_sizes);
}

/// Prints the headline speedups the repository tracks: the grid-native
/// exact-decode path vs exact physics at the largest size, and the
/// sharded kernel vs its own single-thread row.
fn report_speedups(session: &Session, n: usize, shard_sizes: &[usize]) {
    let exact = session.mean_ns(&format!("oracle/exact/{n}"));
    let native = session.mean_ns(&format!("oracle/grid_native_r4/{n}"));
    if let (Some(e), Some(g)) = (exact, native) {
        println!(
            "speedup oracle/grid_native_r4 vs oracle/exact at n={n}: {:.1}x",
            e as f64 / g.max(1) as f64
        );
    }
    for &n in shard_sizes {
        let t1 = session.mean_ns(&format!("oracle/grid_native_r4_t1/{n}"));
        for threads in [2, 8] {
            let tk = session.mean_ns(&format!("oracle/grid_native_r4_t{threads}/{n}"));
            if let (Some(base), Some(sharded)) = (t1, tk) {
                println!(
                    "speedup oracle/grid_native_r4_t{threads} vs _t1 at n={n}: {:.2}x",
                    base as f64 / sharded.max(1) as f64
                );
            }
        }
    }
}
