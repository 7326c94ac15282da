//! Proves the `ReceptionOracle` hot path performs **zero heap
//! allocations** in steady state, via a counting global allocator.
//!
//! This file holds exactly one test: the allocation counter is a process
//! global, so no other test may run in this binary (integration-test
//! binaries are separate processes, keeping the counter isolated from the
//! rest of the suite).

// The workspace denies `unsafe_code`; a counting allocator is the one
// place that needs it, and every `unsafe` item below carries its
// `// SAFETY:` argument.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sinr_geometry::{GridIndex, Point2};
use sinr_phy::{
    CommGraph, GraphScratch, InterferenceMode, ReceptionOracle, RoundOutcome, SinrParams,
};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the `System` allocator — every contract of
// `GlobalAlloc` (layout validity, pointer provenance, no unwinding) is
// upheld by `System`; the only addition is a relaxed atomic counter bump,
// which cannot allocate or panic.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract (nonzero-size
    // `layout`); it is forwarded unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract (`ptr` was
    // allocated here with `layout`, `new_size` nonzero); forwarded
    // unchanged to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract (`ptr` was
    // allocated here with `layout`); forwarded unchanged to
    // `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_round_resolution_allocates_nothing() {
    // A deployment dense enough to exercise every branch of every kernel:
    // near/far cells, multi-member buckets, interference-failed decodes.
    let n = 600;
    let mut pts: Vec<Point2> = (0..n)
        .map(|i| {
            let x = (i % 30) as f64 * 0.55 + ((i * 7) % 11) as f64 * 0.031;
            let y = (i / 30) as f64 * 0.55 + ((i * 13) % 9) as f64 * 0.047;
            Point2::new(x, y)
        })
        .collect();
    let mut grid = GridIndex::build(&pts, 1.0);
    let params = SinrParams::default_plane();
    // Two transmitter sets of different sizes: switching sets must not
    // reallocate either (capacity high-water mark).
    let tx_big: Vec<usize> = (0..n).step_by(4).collect();
    let tx_small: Vec<usize> = (0..n).step_by(17).collect();
    let modes = [InterferenceMode::Exact, InterferenceMode::grid_native()];

    let mut oracle = ReceptionOracle::new();
    let mut out = RoundOutcome::empty();
    // Warm-up: every mode sees the largest transmitter set once, growing
    // all scratch buffers to their high-water marks.
    for mode in modes {
        oracle.resolve_into(&pts, &params, &tx_big, mode, Some(&grid), &mut out);
        oracle.resolve_into(&pts, &params, &tx_small, mode, Some(&grid), &mut out);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _round in 0..25 {
        for mode in modes {
            oracle.resolve_into(&pts, &params, &tx_big, mode, Some(&grid), &mut out);
            oracle.resolve_into(&pts, &params, &tx_small, mode, Some(&grid), &mut out);
        }
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state resolve_into performed {} heap allocations over 200 rounds",
        after - before
    );

    // Sanity: the warm oracle still produces correct outcomes.
    assert_eq!(out.num_transmitters, tx_small.len());
    assert!(out.decoded_from.len() == n);

    // --- The epoch reindex path of dynamic topologies ---
    //
    // Stations oscillate between two configurations — each recomputed
    // from a frozen base, so revisits are bit-exact (an in-place `+d`
    // then `-d` drift would not be: fl((x+d)-d) ≠ x in general, and cell
    // occupancy could creep past the warmed high-water mark) — and the
    // grid rebuilds **in place** at every epoch boundary. One warm-up
    // cycle grows the rebuild scratch to its high-water mark; after
    // that, a full epoch — the boundary rebuild plus every round inside
    // the epoch, in every mode — performs zero heap allocations:
    // reindexing only ever *reuses* buffers.
    let base = pts.clone();
    let place = |pts: &mut [Point2], phase: f64| {
        for (i, p) in pts.iter_mut().enumerate() {
            p.x = base[i].x + phase * (0.35 + ((i % 7) as f64) * 0.11);
            p.y = base[i].y + phase * (0.20 + ((i % 5) as f64) * 0.09);
        }
    };
    // Warm-up cycle: out and back.
    for phase in [1.0, 0.0] {
        place(&mut pts, phase);
        grid.rebuild_from(&pts);
        for mode in modes {
            oracle.resolve_into(&pts, &params, &tx_big, mode, Some(&grid), &mut out);
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _cycle in 0..10 {
        for phase in [1.0, 0.0] {
            // Epoch boundary: move and reindex in place.
            place(&mut pts, phase);
            grid.rebuild_from(&pts);
            // Rounds within the epoch.
            for mode in modes {
                oracle.resolve_into(&pts, &params, &tx_big, mode, Some(&grid), &mut out);
                oracle.resolve_into(&pts, &params, &tx_small, mode, Some(&grid), &mut out);
            }
        }
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "epoch reindexing performed {} heap allocations over 20 epochs",
        after - before
    );
    assert_eq!(out.num_transmitters, tx_small.len());

    // --- The per-epoch connectivity path of dynamic topologies ---
    //
    // The engine refreshes the communication graph at every epoch
    // boundary (CSR rebuilt in place through the graph's own spatial
    // index) and checks live connectivity through reused BFS scratch.
    // After one warm-up cycle over both configurations, a full epoch of
    // graph refresh + BFS + connectivity performs zero heap allocations.
    let mut graph = CommGraph::build(&pts, params.comm_radius());
    let mut scratch = GraphScratch::new();
    // Cut-vertex output buffer: grown to worst case up front, so the
    // Tarjan sweep's push loop cannot trigger a capacity doubling.
    let mut cuts = Vec::with_capacity(n);
    for phase in [1.0, 0.0] {
        place(&mut pts, phase);
        graph.rebuild_from(&pts, None);
        let _ = graph.is_connected_with(&mut scratch);
        let _ = graph.bfs_with(0, &mut scratch);
        let _ = graph.eccentricity_with(0, &mut scratch);
        graph.cut_vertices_into(&mut scratch, &mut cuts);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut connected_votes = 0usize;
    let mut cut_total = 0usize;
    for _cycle in 0..10 {
        for phase in [1.0, 0.0] {
            place(&mut pts, phase);
            graph.rebuild_from(&pts, None);
            if graph.is_connected_with(&mut scratch) {
                connected_votes += 1;
            }
            let _ = graph.bfs_with(0, &mut scratch);
            // The adversary planner's per-epoch pair: eccentricity and
            // the Tarjan cut-vertex sweep, both over the same scratch.
            let _ = graph.eccentricity_with(0, &mut scratch);
            graph.cut_vertices_into(&mut scratch, &mut cuts);
            cut_total += cuts.len();
        }
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "comm-graph refresh + connectivity performed {} heap allocations over 20 epochs",
        after - before
    );
    // Sanity: the checks actually ran (the displaced phase may or may
    // not disconnect the graph; either answer is fine — what this test
    // pins is that computing it allocates nothing).
    assert!(connected_votes <= 20);
    assert!(cut_total <= 20 * n);
    assert_eq!(graph.len(), n);
}
