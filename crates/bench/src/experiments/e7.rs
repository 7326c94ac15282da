//! E7 — Section 5 applications: ad hoc wake-up (`O(D log² n)`), consensus
//! (`O(D log n·log x + log² n·log x)`), and leader election
//! (`O(D log² n + log³ n)`).

use sinr_core::sim::{Outcome, ProtocolSpec, Scenario, TopologySpec};
use sinr_core::{consensus::domain_bits, Constants};
use sinr_runtime::WakeSchedule;
use sinr_stats::{fmt_f64, Summary, Table};

use crate::{sweep_cell, trial_seeds, ExpConfig};

/// Runs E7 and returns the rendered tables.
pub fn run(cfg: &ExpConfig) -> String {
    let consts = Constants::tuned();
    let trials = cfg.pick(3, 1);
    let d = cfg.pick(6u32, 3);
    let per_cluster = cfg.pick(8, 6);
    let n = (d as usize + 1) * per_cluster;
    let topology = TopologySpec::ClusterChain {
        diameter: d,
        per_cluster,
    };

    let mut out = String::new();

    // --- wake-up under three adversarial schedules ---
    let mut wt = Table::new(vec!["schedule", "rounds-from-first-wake(mean)", "ok"]);
    let schedules: Vec<(&str, WakeSchedule)> = vec![
        ("single@0", WakeSchedule::single(0, 0)),
        ("all@0", WakeSchedule::AllAt(0)),
        ("staggered", WakeSchedule::Staggered { start: 0, gap: 50 }),
    ];
    for (si, (name, schedule)) in schedules.iter().enumerate() {
        let budget = consts.phase_rounds(n) * (u64::from(d) + 6) * 3
            + schedule.first_wake(n).unwrap_or(0)
            + n as u64 * 60; // staggered wakes spread over n*gap rounds
        let sim = Scenario::new(topology.clone())
            .constants(consts)
            .protocol(ProtocolSpec::AdhocWakeup {
                schedule: schedule.clone(),
            })
            .budget(budget)
            .build()
            .expect("valid scenario");
        let sweep = sweep_cell(cfg, 7, si as u64, trials, &sim);
        let rounds: Vec<f64> = sweep
            .runs
            .iter()
            .filter(|r| r.completed)
            .map(|r| match r.outcome {
                Outcome::Wakeup {
                    rounds_from_first_wake,
                    ..
                } => rounds_from_first_wake as f64,
                ref other => unreachable!("wakeup outcome expected, got {other:?}"),
            })
            .collect();
        let s = Summary::of(&rounds);
        wt.row(vec![
            name.to_string(),
            s.map_or("-".into(), |s| fmt_f64(s.mean)),
            sweep.ok_string(),
        ]);
    }
    out.push_str(&format!(
        "E7a: ad hoc wake-up on a D={d} cluster chain (n={n}); expect O(D log^2 n)\n\n{}",
        wt.render()
    ));

    // --- consensus: domain sweep ---
    let mut ct = Table::new(vec!["x(domain)", "bits", "rounds", "agreement", "valid"]);
    let domains: &[u64] = cfg.pick(&[3, 15, 255], &[3]);
    for &x in domains {
        let bits = domain_bits(x);
        let values: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % (x + 1)).collect();
        let sim = Scenario::new(topology.clone())
            .constants(consts)
            .protocol(ProtocolSpec::Consensus {
                values,
                bits,
                d_bound: d,
            })
            .build()
            .expect("fixed-schedule protocol");
        let sweep = sim
            .sweep(&trial_seeds(cfg, 17, x, trials))
            .expect("valid scenario");
        let mut agree_all = true;
        let mut valid_all = true;
        let mut rounds = 0;
        for run in &sweep.runs {
            match run.outcome {
                Outcome::Consensus {
                    agreement, valid, ..
                } => {
                    agree_all &= agreement;
                    valid_all &= valid;
                }
                ref other => unreachable!("consensus outcome expected, got {other:?}"),
            }
            rounds = run.rounds;
        }
        ct.row(vec![
            x.to_string(),
            bits.to_string(),
            rounds.to_string(),
            agree_all.to_string(),
            valid_all.to_string(),
        ]);
    }
    out.push_str(&format!(
        "\nE7b: consensus on a D={d} chain; expect rounds ~ log(x)*(D log n + log^2 n)\n\n{}",
        ct.render()
    ));

    // --- leader election ---
    let mut lt = Table::new(vec!["trial", "rounds", "unique leader"]);
    let sim = Scenario::new(topology)
        .constants(consts)
        .protocol(ProtocolSpec::LeaderElection { d_bound: d })
        .build()
        .expect("fixed-schedule protocol");
    let sweep = sim
        .sweep(&trial_seeds(cfg, 27, 0, trials))
        .expect("valid scenario");
    for (t, run) in sweep.runs.iter().enumerate() {
        let unique = match run.outcome {
            Outcome::Leader { unique, .. } => unique,
            ref other => unreachable!("leader outcome expected, got {other:?}"),
        };
        lt.row(vec![
            t.to_string(),
            run.rounds.to_string(),
            unique.to_string(),
        ]);
    }
    out.push_str(&format!(
        "\nE7c: leader election on a D={d} chain; expect O(D log^2 n + log^3 n), unique leader whp\n\n{}",
        lt.render()
    ));

    println!("{out}");
    out
}
