//! Graceful degradation under a fault adversary: a cut-vertex kill
//! schedule removes 25% of the live population mid-run, and two
//! re-flooding strategies race to re-cover the survivors.
//!
//! ```text
//! cargo run --release --example adversarial_broadcast
//! ```
//!
//! Both strategies start from the *same* (wrong) belief that only a
//! handful of stations exist, so both open with the same aggressive
//! transmission probability:
//!
//! * **fixed-ν re-flood** — `p = CONTENTION_TARGET / ν₀` is burned in.
//!   In a dense deployment that probability makes every round a
//!   collision storm; the informed frontier stalls and the coverage
//!   curve flattens below the goal.
//! * **online-ν re-flood** — each station watches its own in-burst
//!   silence runs (the protocol-visible signature of collision
//!   stalls), doubles its estimate ν̂ when they get long, and thereby
//!   lowers `p` until decodes resume. Latency degrades; coverage does
//!   not.
//!
//! The adversary targets articulation points of the epoch-refreshed
//! communication graph first (the worst-case attack on connectivity)
//! and tops up the quota with the highest-degree survivors. Fault
//! totals, the per-boundary coverage curve, and the re-convergence
//! time all land in `RunReport::faults`; the closing asserts pin the
//! seeded outcomes — update them deliberately if any stream
//! derivation changes.

use sinr_broadcast::phy::InterferenceMode;
use sinr_broadcast::sim::{AdversarySpec, ProtocolSpec, Scenario, Simulation, TopologySpec};

/// Stations at epoch 0.
const N: usize = 120;
/// Shared wrong initial estimate: the fixed baseline burns in
/// `p = 2/ν₀ = 1.0`; the online variant's `MAX_TX_PROB` cap starts it
/// at 0.75 — listening rounds survive, so the estimator can observe.
const NU0: usize = 2;
/// Adversary boundary spacing (also the coverage sample period).
const EPOCH: u64 = 8;
/// One kill event at adversary epoch 1 (round 16): 25% of the live
/// population, articulation points first.
const KILL_FRACTION: f64 = 0.25;
const SEED: u64 = 2014;

fn scenario(protocol: ProtocolSpec) -> Simulation {
    Scenario::new(TopologySpec::ConnectedSquareDensity {
        n: N,
        density: 40.0,
    })
    .protocol(protocol)
    .interference_mode(InterferenceMode::grid_native())
    .adversary(AdversarySpec::cut_vertex_kill(KILL_FRACTION, 1, EPOCH))
    .budget(2_000)
    .build()
    .expect("valid adversarial scenario")
}

fn main() {
    let fixed = scenario(ProtocolSpec::ReFloodBroadcast {
        source: 0,
        p: 2.0 / NU0 as f64,
        burst_rounds: 512,
    });
    let online = scenario(ProtocolSpec::ReFloodBroadcastEstimate {
        source: 0,
        nu0: NU0,
        burst_rounds: 512,
    });

    let a = fixed.run(SEED).expect("fixed-ν run");
    let b = online.run(SEED).expect("online-ν run");
    assert_eq!(a, fixed.run(SEED).expect("replay"), "runs replay");
    assert_eq!(b, online.run(SEED).expect("replay"), "runs replay");

    let fa = a.faults.as_ref().expect("fault accounting");
    let fb = b.faults.as_ref().expect("fault accounting");

    println!("degradation under a {KILL_FRACTION} cut-vertex kill at round {EPOCH}x2:");
    println!("  round | fixed-ν cover | online-ν cover");
    let points = fa.coverage.len().max(fb.coverage.len());
    for i in (0..points).step_by(8) {
        let at = |c: &[sinr_broadcast::sim::CoveragePoint]| {
            c.get(i)
                .or(c.last())
                .map_or_else(String::new, |p| format!("{:3}/{:3}", p.informed, p.live))
        };
        let round = i as u64 * EPOCH;
        println!(
            "  {round:>5} | {:>13} | {:>14}",
            at(&fa.coverage),
            at(&fb.coverage)
        );
    }
    println!(
        "fixed-ν : informed {}/{} live in {} rounds ({} tx), final coverage {:.3}",
        a.informed,
        fa.coverage.last().map_or(0, |p| p.live),
        a.rounds,
        a.total_transmissions,
        fa.final_coverage()
    );
    println!(
        "online-ν: informed {}/{} live in {} rounds ({} tx), final coverage {:.3}",
        b.informed,
        fb.coverage.last().map_or(0, |p| p.live),
        b.rounds,
        b.total_transmissions,
        fb.final_coverage()
    );

    // The robustness headline: same deployment, same adversary, same
    // wrong ν₀ — the burned-in probability never recovers coverage,
    // the online estimate does.
    assert_eq!(fa.kills, 30, "25% of 120 stations killed");
    assert_eq!(fb.kills, 30, "25% of 120 stations killed");
    assert!(
        fa.final_coverage() < 0.95,
        "fixed-ν baseline must stall below the coverage goal"
    );
    assert!(
        fb.final_coverage() >= 0.95,
        "online-ν re-flood must reach the coverage goal"
    );

    // Seeded golden pins (seed 2014).
    assert!(!a.completed, "fixed-ν run exhausts the budget");
    assert_eq!(
        (a.rounds, a.total_transmissions, a.informed),
        (2_000, 19_824, 38)
    );
    assert_eq!(fa.recovery_rounds, None, "no recovery without completion");
    assert!(b.completed, "online-ν run informs every survivor");
    assert_eq!(
        (b.rounds, b.total_transmissions, b.informed),
        (549, 23_063, 90)
    );
    assert_eq!(fb.recovery_rounds, Some(533));
}
