//! Broadcast over a churned population: stations crash, rejoin at fresh
//! positions, and brand-new stations spawn mid-run — while the message
//! still reaches everyone alive.
//!
//! ```text
//! cargo run --release --example churn_broadcast
//! ```
//!
//! Part 1 drives the declarative `Scenario` surface: one `.churn(...)`
//! line makes the population dynamic, the run stops when every *live*
//! station is informed, and everything replays bit-for-bit from the run
//! seed (deployment, waypoint trajectories, churn schedule and protocol
//! coin flips all derive from it on separate streams).
//!
//! Part 2 drives the `Engine` directly through a long window of
//! *continuous service* — the network keeps churning after the first
//! full dissemination — and compares two strategies:
//!
//! * **flood** — informed stations transmit with probability `p`
//!   forever: reaches every joiner, but energy grows with wall-clock;
//! * **re-flood** — informed stations flood in short bursts and go
//!   dormant; the epoch-refreshed communication graph re-seeds them via
//!   `on_join` / `on_topology_change` exactly when stations join or a
//!   partition heals, so energy tracks topology *events* instead.
//!
//! The closing asserts pin the seeded outcomes — update them
//! deliberately if any stream derivation changes.

use sinr_broadcast::core::baselines::{FloodNode, ReFloodNode};
use sinr_broadcast::netgen::churn::{ChurnModel, ChurnProcess};
use sinr_broadcast::netgen::mobility::{Mobility, MobilityModel};
use sinr_broadcast::netgen::uniform;
use sinr_broadcast::phy::{InterferenceMode, Network, SinrParams};
use sinr_broadcast::runtime::{derive_seed, Engine, Protocol};
use sinr_broadcast::sim::{ChurnSpec, MobilitySpec, ProtocolSpec, Scenario, TopologySpec};

fn main() {
    scenario_surface();
    continuous_service();
}

/// Part 1: the declarative surface, pinned.
fn scenario_surface() {
    let n = 300;
    let seed = 42;

    let sim = Scenario::new(TopologySpec::ConnectedSquareDensity { n, density: 30.0 })
        .protocol(ProtocolSpec::ReFloodBroadcast {
            source: 0,
            p: 0.1,
            burst_rounds: 40,
        })
        .interference_mode(InterferenceMode::grid_native())
        .mobility(MobilitySpec::random_waypoint(0.15, 8))
        // ~2 arrivals expected per 8-round epoch, ~12-epoch mean
        // lifetime. Dead stations keep their indices (tombstones);
        // arrivals rejoin them at fresh uniform positions before new
        // indices are spawned.
        .churn(ChurnSpec::poisson(2.0, 12.0, 8))
        .budget(400)
        .build()
        .expect("valid churned scenario");

    let report = sim.run(seed).expect("churned run");
    println!(
        "scenario: informed {} live stations (of n = {n} at epoch 0) in {} rounds, {} tx",
        report.informed, report.rounds, report.total_transmissions
    );
    assert!(report.completed, "every live station informed in budget");
    assert_eq!(report, sim.run(seed).expect("replay"), "runs replay");
    // Seeded golden pins (seed 42).
    assert_eq!(report.informed, 238, "informed count drifted");
    assert_eq!(report.rounds, 26, "round count drifted");
    assert_eq!(report.total_transmissions, 445, "energy drifted");

    // Sweeps parallelize like static ones — per-seed churn schedules
    // derive from the run seed, so results are thread-count invariant.
    let seeds: Vec<u64> = (1..=6).collect();
    let sweep = sim.sweep(&seeds).expect("sweep");
    println!(
        "scenario: sweep over {} seeds, completion rate {:.2}",
        seeds.len(),
        sweep.completion_rate()
    );
}

/// Part 2: continuous service through the runtime layer — the network
/// keeps churning long after the first full dissemination.
fn continuous_service() {
    let n = 300;
    let seed = 7;
    let epoch = 24u64; // rounds between churn/mobility boundaries
    let window = 480u64; // total service window

    let params = SinrParams::default_plane();
    let points = uniform::connected_square(n, uniform::side_for_density(n, 30.0), &params, seed)
        .expect("dense enough to connect");

    // Both strategies run over the *identical* dynamic network: same
    // deployment, same churn schedule, same waypoint trajectories.
    let total_tx = |reflood: bool| -> (usize, u64) {
        let net = Network::new(points.clone(), params)
            .expect("valid deployment")
            .with_interference_mode(InterferenceMode::grid_native());
        let make = move |id: usize, source: usize| -> Box<dyn Protocol<Msg = u64>> {
            if reflood {
                Box::new(ReFloodNode::new(id, source, 1, 0.1, 8))
            } else {
                Box::new(FloodNode::new(id, source, 1, 0.1))
            }
        };
        let mut eng = Engine::new(net, seed, |id| make(id, 0));
        let mut churn = ChurnProcess::over_deployment(
            ChurnModel {
                arrival_rate: 8.0,
                mean_lifetime: 30.0,
            },
            &points,
            derive_seed(seed, 0x4348_5552, 0),
        )
        .protect(0);
        eng.set_churn(
            epoch,
            move |_, alive, delta| churn.step_into(alive, delta),
            move |id| make(id, usize::MAX),
        );
        let mut mob = Mobility::over_deployment(
            MobilityModel::RandomWaypoint {
                speed: 0.3,
                pause_epochs: 0,
            },
            &points,
            derive_seed(seed, 0x4D4F_4249, 0),
        );
        eng.set_mobility(epoch, move |_, pts| {
            mob.ensure_stations(pts.len());
            mob.advance(pts);
        });
        eng.run_rounds(window);
        let informed = eng
            .nodes()
            .iter()
            .zip(eng.network().alive())
            .filter(|(nd, &a)| a && nd.is_done())
            .count();
        (informed, eng.trace().total_transmissions())
    };

    let (flood_informed, flood_tx) = total_tx(false);
    let (reflood_informed, reflood_tx) = total_tx(true);
    println!("continuous service, {window} rounds, churn+waypoints every {epoch} rounds:");
    println!("  flood     informed {flood_informed:>3} live stations, {flood_tx:>6} tx");
    println!("  re-flood  informed {reflood_informed:>3} live stations, {reflood_tx:>6} tx");

    // Seeded golden pins (seed 7): bursts re-seeded on topology events
    // keep (nearly) everyone informed at a fraction of the energy.
    assert_eq!((flood_informed, flood_tx), (267, 13829));
    assert_eq!((reflood_informed, reflood_tx), (267, 4764));
    assert!(
        reflood_tx * 2 < flood_tx,
        "re-flooding should save at least half the energy here"
    );
}
