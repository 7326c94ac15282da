//! The broadcast benchmark suite: end-to-end protocol runs (one per
//! theorem) and the baselines on a fixed cluster chain, plus the sweep
//! path itself — all through the `Scenario` API.
//!
//! Run by `microbench --suite broadcast`, which also writes the tracked
//! `BENCH.json`. Naming scheme: `broadcast/chain_d4/<case>`.

use sinr_core::sim::{ProtocolSpec, Scenario, TopologySpec};
use sinr_core::Constants;

use crate::microbench::{black_box, Session};

/// Runs the suite into `session`. Under `--quick` the multi-seed sweep
/// rows are skipped and iteration counts shrink.
pub fn run(session: &mut Session) {
    let consts = Constants::tuned();
    let d = 4u32;
    let per_cluster = 10;
    let n = (d as usize + 1) * per_cluster;
    let topology = TopologySpec::ClusterChain {
        diameter: d,
        per_cluster,
    };
    let seed = 3;

    let cases: Vec<(&str, ProtocolSpec, u64)> = vec![
        (
            "s_broadcast",
            ProtocolSpec::SBroadcast { source: 0 },
            2_000_000,
        ),
        (
            "nos_broadcast",
            ProtocolSpec::NoSBroadcast { source: 0 },
            consts.phase_rounds(n) * (u64::from(d) + 4) * 2,
        ),
        (
            "daum",
            ProtocolSpec::DaumBroadcast {
                source: 0,
                granularity: None,
            },
            2_000_000,
        ),
        (
            "flood_p02",
            ProtocolSpec::FloodBroadcast { source: 0, p: 0.2 },
            2_000_000,
        ),
    ];
    for (name, spec, budget) in cases {
        let sim = Scenario::new(topology.clone())
            .constants(consts)
            .protocol(spec)
            .budget(budget)
            .build()
            .expect("valid scenario");
        session.bench(&format!("broadcast/chain_d4/{name}"), n, || {
            black_box(sim.run(seed).expect("valid"));
        });
    }

    // The sweep path itself: 8 seeds serially vs under the machine's
    // thread budget (resolved once per Simulation).
    if !session.quick {
        let sim = Scenario::new(topology)
            .constants(consts)
            .protocol(ProtocolSpec::SBroadcast { source: 0 })
            .budget(2_000_000)
            .build()
            .expect("valid scenario");
        let seeds: Vec<u64> = (0..8).collect();
        session.bench("broadcast/chain_d4/sweep8_serial", n, || {
            black_box(sim.sweep_with_threads(&seeds, 1).expect("valid"));
        });
        session.bench("broadcast/chain_d4/sweep8_budget", n, || {
            black_box(sim.sweep(&seeds).expect("valid"));
        });
    }
}
