//! Legacy high-level runners, now thin **deprecated** wrappers over the
//! [`crate::sim`] builder API.
//!
//! Every `run_*` function delegates to an equivalent [`Scenario`] and
//! reproduces its historical output field-for-field (pinned by
//! `tests/scenario_golden.rs`). Like the builder API, the wrappers resolve
//! every round through a per-trial reusable `sinr_phy::ReceptionOracle`
//! (zero steady-state allocations); pass
//! `sinr_phy::InterferenceMode::grid_native()` to
//! [`run_s_broadcast_in_mode`] — or use `Scenario::fast_physics` — for the
//! fast approximate-tail physics on large deployments. New code should
//! build scenarios directly — they compose (topology specs, interference
//! modes, observers, traces) and sweep seeds in parallel:
//!
//! ```
//! use sinr_core::sim::{ProtocolSpec, Scenario};
//! use sinr_geometry::Point2;
//!
//! let points: Vec<Point2> = (0..5).map(|i| Point2::new(i as f64 * 0.45, 0.0)).collect();
//! let sim = Scenario::new(points)
//!     .protocol(ProtocolSpec::NoSBroadcast { source: 0 })
//!     .budget(100_000)
//!     .build()?;
//! assert!(sim.run(1)?.completed);
//! # Ok::<(), sinr_core::sim::SimError>(())
//! ```

use sinr_geometry::MetricPoint;
use sinr_phy::{NetworkError, SinrParams};
use sinr_runtime::WakeSchedule;

use crate::constants::Constants;
use crate::sim::{Outcome, ProtocolSpec, RunReport, Scenario, SimError};

/// Outcome of a broadcast-style run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BroadcastReport {
    /// Stations in the network.
    pub n: usize,
    /// Rounds until every station was informed (or the budget, if not).
    pub rounds: u64,
    /// Whether every station was informed within the budget.
    pub completed: bool,
    /// Stations informed at the end.
    pub informed: usize,
    /// Total transmissions across the run (energy proxy).
    pub total_transmissions: u64,
}

impl From<&RunReport> for BroadcastReport {
    fn from(r: &RunReport) -> Self {
        BroadcastReport {
            n: r.n,
            rounds: r.rounds,
            completed: r.completed,
            informed: r.informed,
            total_transmissions: r.total_transmissions,
        }
    }
}

/// Runs an explicit-topology scenario and converts sim errors back to the
/// legacy `Result<_, NetworkError>` surface (spec violations panic, as the
/// legacy assertions did).
fn run_legacy<P: MetricPoint>(
    points: Vec<P>,
    params: &SinrParams,
    consts: Constants,
    spec: ProtocolSpec,
    seed: u64,
    max_rounds: u64,
    mode: Option<sinr_phy::InterferenceMode>,
) -> Result<RunReport, NetworkError> {
    let mut scenario = Scenario::new(points)
        .params(*params)
        .constants(consts)
        .protocol(spec)
        .budget(max_rounds);
    if let Some(m) = mode {
        scenario = scenario.interference_mode(m);
    }
    let sim = scenario.build().expect("protocol and budget set");
    match sim.run(seed) {
        Ok(report) => Ok(report),
        Err(SimError::Network(e)) => Err(e),
        Err(e) => panic!("{e}"),
    }
}

/// Runs `NoSBroadcast` (Theorem 1) from `source`.
///
/// # Errors
///
/// Propagates network-construction failures.
#[deprecated(
    since = "0.2.0",
    note = "use Scenario::new(points).protocol(ProtocolSpec::NoSBroadcast { source }).constants(consts).params(params).budget(max_rounds)"
)]
pub fn run_nos_broadcast<P: MetricPoint>(
    points: Vec<P>,
    params: &SinrParams,
    consts: Constants,
    source: usize,
    seed: u64,
    max_rounds: u64,
) -> Result<BroadcastReport, NetworkError> {
    let r = run_legacy(
        points,
        params,
        consts,
        ProtocolSpec::NoSBroadcast { source },
        seed,
        max_rounds,
        None,
    )?;
    Ok(BroadcastReport::from(&r))
}

/// Runs `SBroadcast` (Theorem 2) from `source`.
///
/// # Errors
///
/// Propagates network-construction failures.
#[deprecated(
    since = "0.2.0",
    note = "use Scenario::new(points).protocol(ProtocolSpec::SBroadcast { source }).constants(consts).params(params).budget(max_rounds)"
)]
pub fn run_s_broadcast<P: MetricPoint>(
    points: Vec<P>,
    params: &SinrParams,
    consts: Constants,
    source: usize,
    seed: u64,
    max_rounds: u64,
) -> Result<BroadcastReport, NetworkError> {
    let r = run_legacy(
        points,
        params,
        consts,
        ProtocolSpec::SBroadcast { source },
        seed,
        max_rounds,
        None,
    )?;
    Ok(BroadcastReport::from(&r))
}

/// Runs the Daum-style decay baseline; `granularity` defaults to the
/// network's measured `R_s` when `None` (the baseline assumes it known).
///
/// # Errors
///
/// Propagates network-construction failures.
#[deprecated(
    since = "0.2.0",
    note = "use Scenario::new(points).protocol(ProtocolSpec::DaumBroadcast { source, granularity }).params(params).budget(max_rounds)"
)]
pub fn run_daum_broadcast<P: MetricPoint>(
    points: Vec<P>,
    params: &SinrParams,
    source: usize,
    granularity: Option<f64>,
    seed: u64,
    max_rounds: u64,
) -> Result<BroadcastReport, NetworkError> {
    let r = run_legacy(
        points,
        params,
        Constants::tuned(),
        ProtocolSpec::DaumBroadcast {
            source,
            granularity,
        },
        seed,
        max_rounds,
        None,
    )?;
    Ok(BroadcastReport::from(&r))
}

/// Runs fixed-probability flooding with probability `p`.
///
/// # Errors
///
/// Propagates network-construction failures.
#[deprecated(
    since = "0.2.0",
    note = "use Scenario::new(points).protocol(ProtocolSpec::FloodBroadcast { source, p }).params(params).budget(max_rounds)"
)]
pub fn run_flood_broadcast<P: MetricPoint>(
    points: Vec<P>,
    params: &SinrParams,
    source: usize,
    p: f64,
    seed: u64,
    max_rounds: u64,
) -> Result<BroadcastReport, NetworkError> {
    let r = run_legacy(
        points,
        params,
        Constants::tuned(),
        ProtocolSpec::FloodBroadcast { source, p },
        seed,
        max_rounds,
        None,
    )?;
    Ok(BroadcastReport::from(&r))
}

/// Runs the adaptive local-broadcast-style baseline.
///
/// # Errors
///
/// Propagates network-construction failures.
#[deprecated(
    since = "0.2.0",
    note = "use Scenario::new(points).protocol(ProtocolSpec::LocalBroadcast { source }).params(params).budget(max_rounds)"
)]
pub fn run_local_broadcast<P: MetricPoint>(
    points: Vec<P>,
    params: &SinrParams,
    source: usize,
    seed: u64,
    max_rounds: u64,
) -> Result<BroadcastReport, NetworkError> {
    let r = run_legacy(
        points,
        params,
        Constants::tuned(),
        ProtocolSpec::LocalBroadcast { source },
        seed,
        max_rounds,
        None,
    )?;
    Ok(BroadcastReport::from(&r))
}

/// As [`run_s_broadcast`], with an explicit interference-evaluation mode
/// (exact or grid-native physics on identical seeds).
///
/// # Errors
///
/// Propagates network-construction failures.
#[deprecated(
    since = "0.2.0",
    note = "use Scenario::new(points).protocol(ProtocolSpec::SBroadcast { source }).interference_mode(mode).budget(max_rounds)"
)]
pub fn run_s_broadcast_in_mode<P: MetricPoint>(
    points: Vec<P>,
    params: &SinrParams,
    consts: Constants,
    source: usize,
    mode: sinr_phy::InterferenceMode,
    seed: u64,
    max_rounds: u64,
) -> Result<BroadcastReport, NetworkError> {
    let r = run_legacy(
        points,
        params,
        consts,
        ProtocolSpec::SBroadcast { source },
        seed,
        max_rounds,
        Some(mode),
    )?;
    Ok(BroadcastReport::from(&r))
}

/// As [`run_s_broadcast`], but the stations are told the population
/// **estimate** `nu` instead of the true `n` (the paper only requires
/// `ν ≥ n` with `ν = O(n^c)`; running time becomes
/// `O(D log ν + log² ν)`).
///
/// # Errors
///
/// Propagates network-construction failures.
///
/// # Panics
///
/// Panics if `nu` is below the actual station count.
#[deprecated(
    since = "0.2.0",
    note = "use Scenario::new(points).protocol(ProtocolSpec::SBroadcastWithEstimate { source, nu }).budget(max_rounds)"
)]
pub fn run_s_broadcast_with_estimate<P: MetricPoint>(
    points: Vec<P>,
    params: &SinrParams,
    consts: Constants,
    source: usize,
    nu: usize,
    seed: u64,
    max_rounds: u64,
) -> Result<BroadcastReport, NetworkError> {
    assert!(
        nu >= points.len(),
        "estimate nu = {nu} below n = {}",
        points.len()
    );
    let r = run_legacy(
        points,
        params,
        consts,
        ProtocolSpec::SBroadcastWithEstimate { source, nu },
        seed,
        max_rounds,
        None,
    )?;
    Ok(BroadcastReport::from(&r))
}

/// As [`run_nos_broadcast`], with a population estimate `nu ≥ n`
/// (running time `O(D log² ν)`).
///
/// # Errors
///
/// Propagates network-construction failures.
///
/// # Panics
///
/// Panics if `nu` is below the actual station count.
#[deprecated(
    since = "0.2.0",
    note = "use Scenario::new(points).protocol(ProtocolSpec::NoSBroadcastWithEstimate { source, nu }).budget(max_rounds)"
)]
pub fn run_nos_broadcast_with_estimate<P: MetricPoint>(
    points: Vec<P>,
    params: &SinrParams,
    consts: Constants,
    source: usize,
    nu: usize,
    seed: u64,
    max_rounds: u64,
) -> Result<BroadcastReport, NetworkError> {
    assert!(
        nu >= points.len(),
        "estimate nu = {nu} below n = {}",
        points.len()
    );
    let r = run_legacy(
        points,
        params,
        consts,
        ProtocolSpec::NoSBroadcastWithEstimate { source, nu },
        seed,
        max_rounds,
        None,
    )?;
    Ok(BroadcastReport::from(&r))
}

/// Outcome of an ad hoc wake-up run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeupReport {
    /// Stations in the network.
    pub n: usize,
    /// Round of the first spontaneous wake-up.
    pub first_wake: u64,
    /// Rounds from the first spontaneous wake-up until all awake
    /// (the paper's running-time accounting), or the budget if incomplete.
    pub rounds_from_first_wake: u64,
    /// Whether every station woke within the budget.
    pub completed: bool,
}

/// Runs the ad hoc wake-up protocol under an adversarial schedule.
///
/// # Errors
///
/// Propagates network-construction failures.
///
/// # Panics
///
/// Panics if the schedule wakes nobody (running time would be undefined).
#[deprecated(
    since = "0.2.0",
    note = "use Scenario::new(points).protocol(ProtocolSpec::AdhocWakeup { schedule }).budget(max_rounds)"
)]
pub fn run_adhoc_wakeup<P: MetricPoint>(
    points: Vec<P>,
    params: &SinrParams,
    consts: Constants,
    schedule: &WakeSchedule,
    seed: u64,
    max_rounds: u64,
) -> Result<WakeupReport, NetworkError> {
    schedule
        .first_wake(points.len())
        .expect("wake schedule must wake at least one station");
    let r = run_legacy(
        points,
        params,
        consts,
        ProtocolSpec::AdhocWakeup {
            schedule: schedule.clone(),
        },
        seed,
        max_rounds,
        None,
    )?;
    match r.outcome {
        Outcome::Wakeup {
            first_wake,
            rounds_from_first_wake,
        } => Ok(WakeupReport {
            n: r.n,
            first_wake,
            rounds_from_first_wake,
            completed: r.completed,
        }),
        ref other => unreachable!("wake-up outcome expected, got {other:?}"),
    }
}

/// Runs wake-up over an **established coloring**: `coloring` gives each
/// station's backbone color, `initiators` the spontaneously-woken set.
/// Completes in `O(D log n + log² n)` rounds whp
/// (use [`Constants::wakeup_window`] as the budget).
///
/// # Errors
///
/// Propagates network-construction failures.
///
/// # Panics
///
/// Panics if the vector lengths disagree with the network size.
#[deprecated(
    since = "0.2.0",
    note = "use Scenario::new(points).protocol(ProtocolSpec::EstablishedWakeup { coloring, initiators }).budget(max_rounds)"
)]
pub fn run_established_wakeup<P: MetricPoint>(
    points: Vec<P>,
    params: &SinrParams,
    consts: Constants,
    coloring: &crate::verify::Coloring,
    initiators: &[bool],
    seed: u64,
    max_rounds: u64,
) -> Result<BroadcastReport, NetworkError> {
    let n = points.len();
    assert_eq!(coloring.len(), n, "coloring size mismatch");
    assert_eq!(initiators.len(), n, "initiator flags size mismatch");
    let r = run_legacy(
        points,
        params,
        consts,
        ProtocolSpec::EstablishedWakeup {
            coloring: coloring.clone(),
            initiators: initiators.to_vec(),
        },
        seed,
        max_rounds,
        None,
    )?;
    Ok(BroadcastReport::from(&r))
}

/// Outcome of a consensus run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsensusReport {
    /// Per-station decisions.
    pub decided: Vec<Option<u64>>,
    /// Whether all stations decided the same value.
    pub agreement: bool,
    /// Whether the common decision equals the minimum input (validity).
    pub valid: bool,
    /// Rounds executed.
    pub rounds: u64,
}

/// Runs bitwise consensus on `values` (domain `[0, 2^bits)`); `d_bound`
/// bounds the communication-graph diameter for the per-bit window.
///
/// # Errors
///
/// Propagates network-construction failures.
#[deprecated(
    since = "0.2.0",
    note = "use Scenario::new(points).protocol(ProtocolSpec::Consensus { values, bits, d_bound })"
)]
pub fn run_consensus<P: MetricPoint>(
    points: Vec<P>,
    params: &SinrParams,
    consts: Constants,
    values: &[u64],
    bits: u32,
    d_bound: u32,
    seed: u64,
) -> Result<ConsensusReport, NetworkError> {
    assert_eq!(points.len(), values.len(), "one value per station");
    let scenario = Scenario::new(points)
        .params(*params)
        .constants(consts)
        .protocol(ProtocolSpec::Consensus {
            values: values.to_vec(),
            bits,
            d_bound,
        });
    let sim = scenario.build().expect("protocol set");
    let r = match sim.run(seed) {
        Ok(report) => report,
        Err(SimError::Network(e)) => return Err(e),
        Err(e) => panic!("{e}"),
    };
    match r.outcome {
        Outcome::Consensus {
            decided,
            agreement,
            valid,
        } => Ok(ConsensusReport {
            decided,
            agreement,
            valid,
            rounds: r.rounds,
        }),
        ref other => unreachable!("consensus outcome expected, got {other:?}"),
    }
}

/// Outcome of a leader election.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaderReport {
    /// Indices of stations that declared themselves leader.
    pub leaders: Vec<usize>,
    /// Whether exactly one leader emerged.
    pub unique: bool,
    /// Rounds executed.
    pub rounds: u64,
}

/// Runs leader election: random IDs from `{1..n³}` then consensus on IDs.
///
/// # Errors
///
/// Propagates network-construction failures.
#[deprecated(
    since = "0.2.0",
    note = "use Scenario::new(points).protocol(ProtocolSpec::LeaderElection { d_bound })"
)]
pub fn run_leader_election<P: MetricPoint>(
    points: Vec<P>,
    params: &SinrParams,
    consts: Constants,
    d_bound: u32,
    seed: u64,
) -> Result<LeaderReport, NetworkError> {
    let scenario = Scenario::new(points)
        .params(*params)
        .constants(consts)
        .protocol(ProtocolSpec::LeaderElection { d_bound });
    let sim = scenario.build().expect("protocol set");
    let r = match sim.run(seed) {
        Ok(report) => report,
        Err(SimError::Network(e)) => return Err(e),
        Err(e) => panic!("{e}"),
    };
    match r.outcome {
        Outcome::Leader { leaders, unique } => Ok(LeaderReport {
            leaders,
            unique,
            rounds: r.rounds,
        }),
        ref other => unreachable!("leader outcome expected, got {other:?}"),
    }
}

#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
    use sinr_geometry::Point2;

    fn fast_consts() -> Constants {
        Constants {
            c0: 4.0,
            c2: 4.0,
            c_prime: 1,
            dissem_factor: 4.0,
            ..Constants::tuned()
        }
    }

    fn path(n: usize) -> Vec<Point2> {
        (0..n).map(|i| Point2::new(i as f64 * 0.45, 0.0)).collect()
    }

    #[test]
    fn nos_runner_completes() {
        let params = SinrParams::default_plane();
        let consts = fast_consts();
        let r =
            run_nos_broadcast(path(5), &params, consts, 0, 1, consts.phase_rounds(5) * 40).unwrap();
        assert!(r.completed);
        assert_eq!(r.informed, 5);
        assert!(r.total_transmissions > 0);
    }

    #[test]
    fn s_runner_completes() {
        let params = SinrParams::default_plane();
        let consts = fast_consts();
        let r = run_s_broadcast(path(5), &params, consts, 0, 2, 200_000).unwrap();
        assert!(r.completed);
    }

    #[test]
    fn baseline_runners_complete() {
        let params = SinrParams::default_plane();
        assert!(
            run_daum_broadcast(path(4), &params, 0, None, 3, 100_000)
                .unwrap()
                .completed
        );
        assert!(
            run_flood_broadcast(path(4), &params, 0, 0.3, 3, 100_000)
                .unwrap()
                .completed
        );
        assert!(
            run_local_broadcast(path(4), &params, 0, 3, 100_000)
                .unwrap()
                .completed
        );
    }

    #[test]
    fn incomplete_run_reports_partial_informed() {
        let params = SinrParams::default_plane();
        let consts = fast_consts();
        // Budget 0: only the source is informed.
        let r = run_nos_broadcast(path(4), &params, consts, 0, 1, 0).unwrap();
        assert!(!r.completed);
        assert_eq!(r.informed, 1);
        assert_eq!(r.rounds, 0);
    }

    #[test]
    fn estimate_runner_completes_with_inflated_nu() {
        let params = SinrParams::default_plane();
        let consts = fast_consts();
        let r =
            run_s_broadcast_with_estimate(path(5), &params, consts, 0, 40, 2, 2_000_000).unwrap();
        assert!(r.completed);
        let r = run_nos_broadcast_with_estimate(
            path(5),
            &params,
            consts,
            0,
            40,
            2,
            consts.phase_rounds(40) * 60,
        )
        .unwrap();
        assert!(r.completed);
    }

    #[test]
    #[should_panic]
    fn estimate_below_n_panics() {
        let params = SinrParams::default_plane();
        let _ = run_s_broadcast_with_estimate(path(5), &params, fast_consts(), 0, 3, 2, 100);
    }

    #[test]
    fn consensus_runner_agrees_and_validates() {
        let params = SinrParams::default_plane();
        let consts = fast_consts();
        let r = run_consensus(path(4), &params, consts, &[6, 2, 5, 7], 3, 4, 5).unwrap();
        assert!(r.agreement, "{:?}", r.decided);
        assert!(r.valid);
        assert_eq!(r.decided[0], Some(2));
    }

    #[test]
    fn leader_runner_unique() {
        let params = SinrParams::default_plane();
        let consts = fast_consts();
        let r = run_leader_election(path(4), &params, consts, 4, 6).unwrap();
        assert!(r.unique, "leaders: {:?}", r.leaders);
    }

    #[test]
    fn wakeup_runner_accounts_from_first_wake() {
        let params = SinrParams::default_plane();
        let consts = fast_consts();
        let schedule = WakeSchedule::single(0, 13);
        let r = run_adhoc_wakeup(
            path(4),
            &params,
            consts,
            &schedule,
            7,
            consts.phase_rounds(4) * 40,
        )
        .unwrap();
        assert!(r.completed);
        assert_eq!(r.first_wake, 13);
        assert!(r.rounds_from_first_wake > 0);
    }
}
