//! Million-station repair smoke: the scale claim as an executable check.
//!
//! Builds a 10⁶-station deployment, runs three incremental repair
//! epochs (0.1% movers each) through [`GridIndex::repair_with_policy`]
//! and [`CommGraph::repair`], and then verifies the repaired structures
//! against fresh from-scratch builds — bit for bit. CI runs this in the
//! test job (`cargo run --release -p sinr-bench --bin repair_smoke`), so
//! the n=10⁶ path is exercised on every push even though the full
//! `repair/1000000/*` benchmark rows only regenerate with the committed
//! `BENCH.json`.
//!
//! ```text
//! cargo run --release -p sinr-bench --bin repair_smoke [-- <n>]
//! ```
//!
//! The optional positional argument overrides the station count for
//! local experimentation; CI uses the default.

use std::time::Instant;

use sinr_bench::repair_suite::REPAIR_DENSITY;
use sinr_geometry::{GridIndex, Point2, RepairPolicy};
use sinr_netgen::uniform;
use sinr_phy::{CommGraph, SinrParams};

// Wall-clock progress timing in the smoke driver: bench is the one crate
// allowed to read clocks (clippy.toml disallows them elsewhere).
#[allow(clippy::disallowed_methods)]
fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("station count is an integer"))
        .unwrap_or(1_000_000);
    let radius = SinrParams::default_plane().comm_radius();
    let side = uniform::side_for_density(n, REPAIR_DENSITY);

    let t = Instant::now();
    let mut pts = uniform::square(n, side, 7);
    let mut grid = GridIndex::build(&pts, 1.0);
    let mut graph = CommGraph::build(&pts, radius);
    graph.rebuild_from::<Point2>(&pts, None); // regrow the owned index static builds drop
    println!(
        "repair_smoke: built n={n} ({} edges) in {:.2?}",
        graph.num_edges(),
        t.elapsed()
    );

    let k = (n / 1000).max(1);
    let stride = (n / k).max(1);
    let movers: Vec<usize> = (0..k).map(|i| i * stride).collect();
    let mut sign = 0.25f64;
    for epoch in 0..3 {
        let t = Instant::now();
        for &j in &movers {
            pts[j].x += sign;
        }
        sign = -sign;
        grid.repair_with_policy(&movers, &pts, None, RepairPolicy::AlwaysIncremental);
        graph.repair(&movers, &pts, None, RepairPolicy::AlwaysIncremental);
        println!(
            "repair_smoke: epoch {epoch} repaired {} movers in {:.2?}",
            movers.len(),
            t.elapsed()
        );
    }

    let t = Instant::now();
    assert_eq!(
        grid,
        GridIndex::build(&pts, 1.0),
        "repaired grid must equal a fresh build bit for bit"
    );
    assert_eq!(
        graph,
        CommGraph::build(&pts, radius),
        "repaired graph must equal a fresh build bit for bit"
    );
    println!(
        "repair_smoke: OK — repaired structures bit-identical to fresh builds (checked in {:.2?})",
        t.elapsed()
    );
}
