//! The churn benchmark suite: the kernels of the dynamic-population
//! subsystem.
//!
//! Rows (all under the `churn/` prefix, gated by the CI `bench_gate` job
//! like every other tracked kernel):
//!
//! * `churn/apply_churn/<n>` — one [`Network::apply_churn`] transaction
//!   over a process-generated delta: tombstone/rejoin/spawn plus the
//!   in-place masked grid rebuild and communication-graph refresh;
//! * `churn/commgraph_rebuild_from/<n>` — the in-place,
//!   allocation-reusing [`sinr_phy::CommGraph::rebuild_from`] alone, the
//!   kernel every epoch boundary pays;
//! * `churn/epoch_8_rounds_churned/<n>` — a full churned epoch as the
//!   engine executes it: churn step + apply, waypoint advance + reindex,
//!   connectivity check through reused BFS scratch, then 8 grid-native
//!   rounds through a reused [`sinr_phy::ReceptionOracle`].

use sinr_netgen::churn::{ChurnModel, ChurnProcess};
use sinr_netgen::mobility::{Mobility, MobilityModel};
use sinr_netgen::uniform;
use sinr_phy::{
    ChurnDelta, GraphScratch, InterferenceMode, Network, RepairPolicy, RoundOutcome, SinrParams,
};

use crate::microbench::{black_box, Session};
use crate::phy_suite::DENSITY;

/// Runs the suite into `session`. Under `--quick` the sizes shrink to a
/// single small deployment.
pub fn run(session: &mut Session) {
    let params = SinrParams::default_plane();
    // The quick size matches the smaller full size, so CI smoke runs
    // gate against the committed baseline rows (a quick-only size would
    // never be compared).
    let sizes: &[usize] = if session.quick {
        &[2_500]
    } else {
        &[2_500, 10_000]
    };
    for &n in sizes {
        let side = uniform::side_for_density(n, DENSITY);
        let pts = uniform::square(n, side, 7);

        // Roughly stationary churn: deaths ≈ live/lifetime per epoch,
        // matched by the arrival rate, so the population the iterations
        // measure stays near `n` as the rows repeat.
        let model = ChurnModel {
            arrival_rate: n as f64 / 50.0,
            mean_lifetime: 50.0,
        };

        // One full churn transaction per iteration (delta generation is
        // a negligible slice of it; the cost is the in-place rebuilds).
        // These rows run in the sub-ms regime where the min over few
        // samples is noisy, so they keep a fixed iteration count even
        // under `--quick` — they are rows the CI gate watches.
        let mut net = Network::new(pts.clone(), params).expect("generated deployment is valid");
        let mut proc: ChurnProcess<_> = ChurnProcess::over_deployment(model, net.points(), 11);
        let mut delta = ChurnDelta::new();
        session.bench_n(&format!("churn/apply_churn/{n}"), n, 3, 20, || {
            proc.step_into(net.alive(), &mut delta);
            net.apply_churn(&delta);
            black_box(net.live_count());
        });

        // The epoch-refresh kernel alone, over a fixed deployment. With
        // nothing moved, the default policy would repair an empty dirty
        // set; `AlwaysFull` makes every refresh a real rebuild.
        let mut refresh_net = Network::new(pts.clone(), params).expect("valid");
        refresh_net.set_repair_policy(RepairPolicy::AlwaysFull);
        session.bench_n(
            &format!("churn/commgraph_rebuild_from/{n}"),
            n,
            3,
            20,
            || {
                refresh_net.refresh_comm_graph();
                black_box(refresh_net.comm_graph().num_edges());
            },
        );

        // A full churned epoch, engine-shaped: churn, move, reindex,
        // connectivity, then 8 grid-native rounds through reused scratch.
        let mut epoch_net = Network::new(pts.clone(), params)
            .expect("valid")
            .with_interference_mode(InterferenceMode::grid_native());
        let mut epoch_proc: ChurnProcess<_> =
            ChurnProcess::over_deployment(model, epoch_net.points(), 13);
        let mut epoch_delta = ChurnDelta::new();
        let mut mob = Mobility::over_deployment(
            MobilityModel::RandomWaypoint {
                speed: 0.2,
                pause_epochs: 0,
            },
            epoch_net.points(),
            13,
        );
        let mut scratch = GraphScratch::new();
        let mut oracle = epoch_net.new_oracle();
        let mut out = RoundOutcome::empty();
        let mut tx: Vec<usize> = Vec::new();
        session.bench(&format!("churn/epoch_8_rounds_churned/{n}"), n, || {
            epoch_proc.step_into(epoch_net.alive(), &mut epoch_delta);
            epoch_net.apply_churn(&epoch_delta);
            mob.ensure_stations(epoch_net.len());
            epoch_net.update_positions(|pts| mob.advance(pts));
            epoch_net.refresh_comm_graph();
            black_box(epoch_net.comm_graph().is_connected_with(&mut scratch));
            tx.clear();
            tx.extend(
                (0..epoch_net.len())
                    .filter(|&i| epoch_net.is_alive(i))
                    .step_by(50),
            );
            for _round in 0..8 {
                epoch_net.resolve_with(&mut oracle, &tx, &mut out);
            }
            black_box(&out);
        });
    }
}
