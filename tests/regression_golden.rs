//! Golden regression tests: exact deterministic outputs pinned for fixed
//! seeds. These protect the reproduction against silent behavioural drift —
//! any change to the RNG derivation, the reception oracle, or the protocol
//! schedules will flip one of these and must be reviewed deliberately.
//!
//! If a change is *intended* (e.g. a bug fix in the oracle), update the
//! pinned values and note the change in the commit message.

use sinr_broadcast::core::Constants;
use sinr_broadcast::geometry::Point2;
use sinr_broadcast::netgen::{cluster, line, uniform};
use sinr_broadcast::phy::SinrParams;
use sinr_broadcast::runtime::derive_seed;
use sinr_broadcast::sim::{ChurnSpec, MobilitySpec, Outcome, ProtocolSpec, Scenario, TopologySpec};

#[test]
fn seed_derivation_pinned() {
    // SplitMix64 outputs; changing these re-randomises every experiment.
    assert_eq!(derive_seed(0, 0, 0), derive_seed(0, 0, 0));
    assert_ne!(derive_seed(0, 0, 0), derive_seed(0, 1, 0));
    let a = derive_seed(20140714, 5, 1);
    let b = derive_seed(20140714, 5, 1);
    assert_eq!(a, b);
}

#[test]
fn uniform_generator_pinned() {
    let pts = uniform::square(4, 1.0, 99);
    // Coordinates are deterministic for the pinned rand version/seed.
    let again = uniform::square(4, 1.0, 99);
    assert_eq!(pts, again);
    // Structural pins that survive rand-version bumps:
    assert_eq!(pts.len(), 4);
    assert!(pts.iter().all(|p| (0.0..=1.0).contains(&p.x)));
}

#[test]
fn topology_spec_matches_direct_generator() {
    // The declarative spec and a direct generator call agree for equal
    // generator seeds (the spec's seed stream is pinned by construction).
    let params = SinrParams::default_plane();
    let sim = Scenario::new(TopologySpec::UniformSquare { n: 4, side: 1.0 })
        .protocol(ProtocolSpec::FloodBroadcast { source: 0, p: 0.5 })
        .budget(10)
        .build()
        .unwrap();
    let seed = 99u64;
    let via_spec = sim.materialize(seed).unwrap();
    let direct = uniform::square(4, 1.0, derive_seed(seed, 0x544F_504F, 0));
    assert_eq!(via_spec, direct, "topology stream derivation is pinned");
    let _ = params;
}

#[test]
fn coloring_outcome_pinned() {
    // One StabilizeProbability execution under the tuned constants, pinned
    // to the bit: any change to the coloring's schedule or decisions that
    // alters a color or a transmission flips this.
    let sim = Scenario::new(line::uniform_line(12, 0.45))
        .protocol(ProtocolSpec::Coloring)
        .build()
        .unwrap();
    let a = sim.run(77).unwrap();
    assert_eq!(a, sim.run(77).unwrap(), "coloring must replay bit for bit");
    assert!(a.completed);
    assert_eq!(a.rounds, Constants::tuned().coloring_rounds(12));
    assert_eq!(a.total_transmissions, 88, "pinned coloring energy drifted");
    let Outcome::Coloring { coloring } = &a.outcome else {
        panic!("expected coloring outcome, got {:?}", a.outcome);
    };
    let bits: Vec<u64> = coloring.colors.iter().map(|c| c.to_bits()).collect();
    assert_eq!(bits, [0x3f70_624d_d2f1_a9fc; 12], "pinned colors drifted");
}

#[test]
fn broadcast_rounds_pinned_within_run() {
    let params = SinrParams::default_plane();
    let pts = cluster::chain_for_diameter(3, 8, &params, 11);
    let sim = Scenario::new(pts)
        .protocol(ProtocolSpec::SBroadcast { source: 0 })
        .budget(2_000_000)
        .build()
        .unwrap();
    let a = sim.run(123).unwrap();
    let b = sim.run(123).unwrap();
    assert_eq!(a, b, "broadcast reports must be identical for equal seeds");
    assert!(a.completed);
}

#[test]
fn reception_oracle_pinned_case() {
    // A hand-computed SINR case pinned numerically: receiver at 0.5 from
    // the transmitter, one interferer at 1.5.
    use sinr_broadcast::phy::{resolve_round, InterferenceMode};
    let params = SinrParams::default_plane();
    let pts = vec![
        Point2::new(0.0, 0.0),
        Point2::new(0.5, 0.0),
        Point2::new(2.0, 0.0),
    ];
    // Signal = 1.2/0.125 = 9.6; interference = 1.2/3.375 = 0.3556;
    // SINR = 9.6 / (1 + 0.3556) = 7.081 >= 1.2 -> decoded.
    let out = resolve_round(&pts, &params, &[0, 2], InterferenceMode::Exact, None);
    assert_eq!(out.decoded_from[1], Some(0));
    // Move the interferer to 0.8 from the receiver: interference =
    // 1.2/0.512 = 2.34; SINR = 9.6/3.34 = 2.87 -> still decoded.
    let pts2 = vec![
        Point2::new(0.0, 0.0),
        Point2::new(0.5, 0.0),
        Point2::new(1.3, 0.0),
    ];
    let out2 = resolve_round(&pts2, &params, &[0, 2], InterferenceMode::Exact, None);
    assert_eq!(out2.decoded_from[1], Some(0));
    // Interferer at 0.6 from the receiver: interference = 1.2/0.216 =
    // 5.56; SINR = 9.6/6.56 = 1.46 -> decoded. At 0.55: interference =
    // 1.2/0.166 = 7.21; SINR = 9.6/8.21 = 1.17 < 1.2 -> jammed.
    let pts3 = vec![
        Point2::new(0.0, 0.0),
        Point2::new(0.5, 0.0),
        Point2::new(1.05, 0.0),
    ];
    let out3 = resolve_round(&pts3, &params, &[0, 2], InterferenceMode::Exact, None);
    assert_eq!(out3.decoded_from[1], None, "marginal jam case flipped");
}

#[test]
fn mobile_broadcast_golden() {
    // A seeded mobile run pinned end to end: flood over a 6×6 lattice
    // with random-waypoint motion every 4 rounds. Any change to the
    // mobility stream derivation, the waypoint arithmetic, or the epoch
    // reindex path flips these values and must be reviewed deliberately
    // (the example `examples/mobile_broadcast.rs` exercises the same
    // builder surface at scale).
    let sim = Scenario::new(TopologySpec::Lattice {
        rows: 6,
        cols: 6,
        spacing: 0.6,
    })
    .protocol(ProtocolSpec::FloodBroadcast { source: 0, p: 0.3 })
    .mobility(MobilitySpec::random_waypoint(0.2, 4))
    .budget(500)
    .build()
    .unwrap();
    let a = sim.run(2014).unwrap();
    assert_eq!(a, sim.run(2014).unwrap(), "mobile golden run must replay");
    assert!(a.completed);
    assert_eq!(a.informed, 36);
    assert_eq!(a.rounds, 16, "pinned mobile flood round count drifted");
    assert_eq!(
        a.total_transmissions, 84,
        "pinned mobile flood energy drifted"
    );
}

#[test]
fn churned_broadcast_golden() {
    // A seeded churned run pinned end to end: re-flooding broadcast over
    // a 6×6 lattice with random-waypoint motion every 4 rounds AND
    // Poisson churn every 4 rounds. Any change to the churn stream
    // derivation, the delta application order, the lifecycle event
    // sequence, or the epoch refresh path flips these values and must be
    // reviewed deliberately (the example `examples/churn_broadcast.rs`
    // exercises the same builder surface at scale).
    let sim = Scenario::new(TopologySpec::Lattice {
        rows: 6,
        cols: 6,
        spacing: 0.6,
    })
    .protocol(ProtocolSpec::ReFloodBroadcast {
        source: 0,
        p: 0.3,
        burst_rounds: 16,
    })
    .mobility(MobilitySpec::random_waypoint(0.2, 4))
    .churn(ChurnSpec::poisson(1.5, 6.0, 4))
    .budget(500)
    .build()
    .unwrap();
    let a = sim.run(2014).unwrap();
    assert_eq!(a, sim.run(2014).unwrap(), "churned golden run must replay");
    assert_eq!(a.n, 36, "reports carry the initial population");
    assert_eq!(
        a.rounds, GOLDEN_CHURN_ROUNDS,
        "pinned churned round count drifted"
    );
    assert_eq!(
        a.total_transmissions, GOLDEN_CHURN_TX,
        "pinned churned energy drifted"
    );
    assert!(a.completed, "every live station informed within budget");
    assert_eq!(
        a.informed, GOLDEN_CHURN_INFORMED,
        "informed counts the live survivors (n = 36 at epoch 0)"
    );
}

/// Pinned values of `churned_broadcast_golden` (seed 2014).
const GOLDEN_CHURN_ROUNDS: u64 = 14;
const GOLDEN_CHURN_TX: u64 = 45;
const GOLDEN_CHURN_INFORMED: usize = 24;

#[test]
fn schedule_lengths_pinned() {
    // The global schedules are part of the protocol contract (phase
    // alignment depends on every node computing identical lengths).
    let c = Constants::tuned();
    assert_eq!(c.coloring_rounds(256), 1024);
    assert_eq!(c.coloring_rounds(1024), 2560);
    assert_eq!(c.dissemination_rounds(256), 3072);
    assert_eq!(c.phase_rounds(256), 4096);
    assert_eq!(c.num_levels(256), 2);
    assert_eq!(c.num_levels(2048), 5);
}

#[test]
fn adversarial_broadcast_golden() {
    // A seeded adversarial run pinned end to end: estimating re-flood
    // over a 6×6 lattice under a composed cut-vertex-kill + jamming
    // adversary every 4 rounds. Any change to the adversary stream
    // derivation, the cut-vertex probe, the fault merge order, or the
    // jam path flips these values and must be reviewed deliberately
    // (the example `examples/adversarial_broadcast.rs` exercises the
    // same builder surface at scale).
    use sinr_broadcast::sim::{AdversaryModel, AdversarySpec};
    let sim = Scenario::new(TopologySpec::Lattice {
        rows: 6,
        cols: 6,
        spacing: 0.6,
    })
    .protocol(ProtocolSpec::ReFloodBroadcastEstimate {
        source: 0,
        nu0: 36,
        burst_rounds: 16,
    })
    .adversary(
        AdversarySpec::cut_vertex_kill(0.15, 1, 4)
            .and(AdversaryModel::Blackout {
                fraction: 0.05,
                outage_epochs: 2,
            })
            .and(AdversaryModel::Jam { jammers: 1 }),
    )
    .budget(500)
    .build()
    .unwrap();
    let a = sim.run(2014).unwrap();
    assert_eq!(a, sim.run(2014).unwrap(), "adversarial golden must replay");
    let faults = a.faults.as_ref().expect("fault accounting present");
    assert!(a.completed, "every live station informed within budget");
    assert_eq!(a.rounds, 81, "pinned adversarial round count drifted");
    assert_eq!(
        a.total_transmissions, 125,
        "pinned adversarial energy drifted (jammer noise included)"
    );
    assert_eq!(a.informed, 29, "informed counts the live survivors");
    assert_eq!(faults.kills, 29, "pinned fault kill count drifted");
    assert_eq!(faults.returns, 22, "pinned blackout return count drifted");
    assert_eq!(faults.jam_rounds, 73, "pinned jammed-round count drifted");
    assert_eq!(
        faults.coverage.len(),
        21,
        "one coverage sample per adversary boundary"
    );
    let last = faults.coverage.last().unwrap();
    assert_eq!((last.round, last.informed, last.live), (80, 29, 29));
    assert_eq!(
        faults.recovery_rounds,
        Some(1),
        "re-convergence accounting from the last fault drifted"
    );
}
