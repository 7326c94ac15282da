//! Local broadcast over the coloring backbone.
//!
//! The abstract promises the coloring is "of independent interest and
//! potential applicability to other communication tasks"; local broadcast —
//! every station delivers its *own* message to all its communication-graph
//! neighbours — is the canonical such task (the paper's reference \[11\]).
//! With the backbone in place, every station simply transmits its message
//! with the Fact 11 probability `p_v·c_ε/(c_b·log n)`: Lemma 1 keeps the
//! per-round interference bounded, Lemma 2 gives every neighbourhood a
//! constant collective transmission rate, and a station with degree Δ
//! collects all Δ neighbour messages in `O((Δ + log n)·log n)` further
//! rounds in expectation.

use std::collections::BTreeSet;

use sinr_geometry::MetricPoint;
use sinr_phy::{Network, NetworkError, SinrParams};
use sinr_runtime::{bernoulli, Engine, NodeCtx, Protocol};

use crate::coloring::ColoringMachine;
use crate::constants::Constants;

/// Message of the local broadcast: the sender's identity (standing in for
/// the sender's payload — O(log n) bits as the model allows).
pub type LocalMsg = usize;

/// Per-node state machine: establish the backbone, then announce own
/// message forever while collecting neighbours' messages.
#[derive(Debug)]
pub struct LocalCastNode {
    id: usize,
    n: usize,
    consts: Constants,
    machine: ColoringMachine,
    coloring_len: u64,
    /// Senders heard so far. Ordered so any iteration over it (coverage
    /// accounting, future table output) is deterministic by construction.
    pub heard: BTreeSet<usize>,
}

impl LocalCastNode {
    /// Creates the state machine for station `id` of `n`.
    pub fn new(id: usize, n: usize, consts: Constants) -> Self {
        LocalCastNode {
            id,
            n,
            consts,
            machine: ColoringMachine::new(n, consts),
            coloring_len: ColoringMachine::total_rounds(n, &consts),
            heard: BTreeSet::new(),
        }
    }
}

impl Protocol for LocalCastNode {
    type Msg = LocalMsg;

    fn poll_transmit(&mut self, ctx: &mut NodeCtx<'_>) -> Option<LocalMsg> {
        if ctx.round < self.coloring_len {
            return self.machine.poll_transmit(ctx.rng).then_some(self.id);
        }
        let color = self.machine.color().expect("backbone established");
        let p = self.consts.dissemination_prob(color, self.n);
        bernoulli(ctx.rng, p).then_some(self.id)
    }

    fn on_round_end(&mut self, ctx: &mut NodeCtx<'_>, _tx: bool, rx: Option<&LocalMsg>) {
        if let Some(&sender) = rx {
            self.heard.insert(sender);
        }
        if ctx.round < self.coloring_len {
            self.machine.on_round_end(rx.is_some());
        }
    }
}

/// Outcome of a local-broadcast run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalCastReport {
    /// Stations in the network.
    pub n: usize,
    /// Rounds until every station had heard all its neighbours (or the
    /// budget).
    pub rounds: u64,
    /// Whether full neighbourhood coverage was reached.
    pub completed: bool,
    /// Directed (neighbour, heard) pairs still missing at the end.
    pub missing_pairs: usize,
}

/// Runs local broadcast until every station has received the message of
/// each of its communication-graph neighbours.
///
/// # Errors
///
/// Propagates network-construction failures.
pub fn run_local_cast<P: MetricPoint>(
    points: Vec<P>,
    params: &SinrParams,
    consts: Constants,
    seed: u64,
    max_rounds: u64,
) -> Result<LocalCastReport, NetworkError> {
    let net = Network::new(points, *params)?;
    let n = net.len();
    // Snapshot the neighbourhood requirement before the engine takes the
    // network.
    let required: Vec<Vec<usize>> = (0..n)
        .map(|v| net.comm_graph().neighbors(v).to_vec())
        .collect();
    let mut eng = Engine::new(net, seed, |id| LocalCastNode::new(id, n, consts));
    let covered = |eng: &Engine<P, LocalCastNode>| {
        required.iter().enumerate().all(|(v, nbrs)| {
            let heard = &eng.nodes()[v].heard;
            nbrs.iter().all(|u| heard.contains(u))
        })
    };
    // Checking coverage every round is O(m); amortise by checking every 64
    // rounds (the final count is rounded up accordingly).
    let mut rounds = 0;
    let mut completed = false;
    while rounds < max_rounds {
        let step = 64.min(max_rounds - rounds);
        eng.run_rounds(step);
        rounds += step;
        if covered(&eng) {
            completed = true;
            break;
        }
    }
    let missing_pairs = required
        .iter()
        .enumerate()
        .map(|(v, nbrs)| {
            let heard = &eng.nodes()[v].heard;
            nbrs.iter().filter(|u| !heard.contains(u)).count()
        })
        .sum();
    Ok(LocalCastReport {
        n,
        rounds,
        completed,
        missing_pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geometry::Point2;

    fn fast() -> Constants {
        Constants {
            c0: 4.0,
            c2: 4.0,
            c_prime: 1,
            ..Constants::tuned()
        }
    }

    fn path(n: usize) -> Vec<Point2> {
        (0..n).map(|i| Point2::new(i as f64 * 0.45, 0.0)).collect()
    }

    #[test]
    fn covers_path_neighbourhoods() {
        let params = SinrParams::default_plane();
        let rep = run_local_cast(path(6), &params, fast(), 3, 3_000_000).unwrap();
        assert!(rep.completed, "{rep:?}");
        assert_eq!(rep.missing_pairs, 0);
    }

    #[test]
    fn covers_clique() {
        let params = SinrParams::default_plane();
        let pts: Vec<Point2> = (0..8)
            .map(|i| {
                let a = i as f64 * std::f64::consts::FRAC_PI_4;
                Point2::new(0.15 * a.cos(), 0.15 * a.sin())
            })
            .collect();
        let rep = run_local_cast(pts, &params, fast(), 5, 3_000_000).unwrap();
        assert!(rep.completed, "{rep:?}");
    }

    #[test]
    fn isolated_station_trivially_done() {
        let params = SinrParams::default_plane();
        let rep = run_local_cast(vec![Point2::origin()], &params, fast(), 1, 1000).unwrap();
        assert!(rep.completed);
        assert_eq!(rep.missing_pairs, 0);
    }

    #[test]
    fn budget_exhaustion_reports_missing() {
        let params = SinrParams::default_plane();
        let rep = run_local_cast(path(6), &params, fast(), 3, 64).unwrap();
        assert!(!rep.completed);
        assert!(rep.missing_pairs > 0);
    }
}
