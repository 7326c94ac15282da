//! The coloring benchmark suite: full `StabilizeProbability` executions
//! and the invariant verifiers.
//!
//! Run by `microbench --suite coloring`, which also writes the tracked
//! `BENCH.json`. Naming scheme: `coloring/<case>/<n>`.

use sinr_core::invariant_report;
use sinr_core::sim::{Outcome, ProtocolSpec, Scenario, Simulation};
use sinr_geometry::Point2;
use sinr_netgen::uniform;
use sinr_phy::SinrParams;

use crate::microbench::{black_box, Session};

/// One `StabilizeProbability` execution over `pts` under the tuned
/// constants.
fn coloring_sim(pts: &[Point2]) -> Simulation {
    Scenario::new(pts.to_vec())
        .protocol(ProtocolSpec::Coloring)
        .build()
        .expect("valid scenario")
}

/// Runs the suite into `session`. Under `--quick` only the smallest size
/// runs, with fewer iterations.
pub fn run(session: &mut Session) {
    let params = SinrParams::default_plane();
    let sizes: &[usize] = if session.quick { &[128] } else { &[128, 256] };
    let iters = session.pick(5, 3);
    for &n in sizes {
        let side = uniform::side_for_density(n, 30.0);
        let pts = uniform::connected_square(n, side, &params, 3).expect("connected");
        // Built outside the timed closure: each iteration times network
        // construction plus the full coloring schedule.
        let sim = coloring_sim(&pts);
        session.bench_n(&format!("coloring/stabilize/{n}"), n, 1, iters, || {
            black_box(sim.run(5).expect("valid"));
        });
    }

    let n = *sizes.last().expect("non-empty sizes");
    let side = uniform::side_for_density(n, 30.0);
    let pts = uniform::connected_square(n, side, &params, 3).expect("connected");
    let Outcome::Coloring { coloring } = coloring_sim(&pts).run(5).expect("valid").outcome else {
        unreachable!("the coloring spec reports a coloring outcome");
    };
    session.bench_n(
        &format!("coloring/invariant_report/{n}"),
        n,
        1,
        iters,
        || {
            black_box(invariant_report(&pts, &coloring, params.eps()));
        },
    );
}
