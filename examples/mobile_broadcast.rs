//! Mobile broadcast: `SBroadcast` over a deployment whose stations move
//! between epochs under the random-waypoint model.
//!
//! ```text
//! cargo run --release --example mobile_broadcast
//! ```
//!
//! The scenario differs from the static quickstart by exactly one line —
//! `.mobility(...)` — which makes the topology dynamic: every 8 rounds
//! the stations walk toward their waypoints and the network reindexes in
//! place (allocation-reusing, byte-identical results at any physics
//! thread count). Everything stays a pure function of the run seed, so
//! the closing sweep replays bit-for-bit.

use sinr_broadcast::phy::InterferenceMode;
use sinr_broadcast::sim::{MobilitySpec, ProtocolSpec, Scenario, TopologySpec};

fn main() {
    let n = 300;

    // Random-waypoint motion at 0.15 units per 8-round epoch, confined
    // to the bounding box of the deployment each seed materializes.
    let sim = Scenario::new(TopologySpec::ConnectedSquareDensity { n, density: 30.0 })
        .protocol(ProtocolSpec::SBroadcast { source: 0 })
        .mobility(MobilitySpec::random_waypoint(0.15, 8))
        .interference_mode(InterferenceMode::grid_native())
        .budget(200_000)
        .build()
        .expect("protocol and budget set");

    let seed = 42;
    let report = sim.run(seed).expect("valid mobile scenario");
    println!(
        "mobile SBroadcast: informed {}/{} stations in {} rounds ({} transmissions)",
        report.informed, report.n, report.rounds, report.total_transmissions
    );
    assert!(report.completed, "increase the round budget");

    // Mobility tends to *help* dissemination: motion carries the message
    // across sparse cuts. Compare against the frozen topology.
    let frozen = Scenario::new(TopologySpec::ConnectedSquareDensity { n, density: 30.0 })
        .protocol(ProtocolSpec::SBroadcast { source: 0 })
        .interference_mode(InterferenceMode::grid_native())
        .budget(200_000)
        .build()
        .unwrap()
        .run(seed)
        .unwrap();
    println!(
        "frozen topology, same seed: {} rounds ({} transmissions)",
        frozen.rounds, frozen.total_transmissions
    );

    // Mobile sweeps parallelize like static ones — per-seed trajectories
    // derive from the run seed, so results are thread-count invariant.
    let seeds: Vec<u64> = (1..=8).collect();
    let sweep = sim.sweep(&seeds).expect("all seeds connect");
    println!(
        "sweep over {} seeds: completion rate {}, mean rounds {:?}",
        seeds.len(),
        sweep.completion_rate(),
        sweep.rounds_summary().map(|s| s.mean)
    );
}
