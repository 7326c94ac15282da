//! Leader election in the ad hoc setting (Section 5):
//! `O(D log² n + log³ n)` rounds.
//!
//! Every station draws a random ID from `{1, …, n³}` (unique whp), then the
//! network runs the bitwise consensus protocol on the IDs; the station whose
//! ID equals the agreed minimum declares itself leader.

use sinr_runtime::{NodeCtx, Protocol};

use crate::consensus::{ConsensusMsg, ConsensusNode};
use crate::constants::{log2n, Constants};

/// Per-node leader-election state machine (a consensus run on random IDs).
#[derive(Debug)]
pub struct LeaderNode {
    id_value: u64,
    inner: ConsensusNode,
}

impl LeaderNode {
    /// Bit width of the ID domain `{1..n³}`: `3·⌈log₂ n⌉ + 1`.
    pub fn id_bits(n: usize) -> u32 {
        (3 * log2n(n) + 1) as u32
    }

    /// Creates the node with a pre-drawn random `id_value` (callers draw it
    /// from the node's RNG stream; see
    /// [`crate::sim::ProtocolSpec::LeaderElection`]).
    ///
    /// # Panics
    ///
    /// Panics if `id_value` does not fit in [`LeaderNode::id_bits`] bits.
    pub fn new(id_value: u64, n: usize, consts: Constants, window: u64) -> Self {
        let bits = Self::id_bits(n);
        LeaderNode {
            id_value,
            inner: ConsensusNode::new(id_value, bits, n, consts, window),
        }
    }

    /// This node's drawn ID.
    pub fn id_value(&self) -> u64 {
        self.id_value
    }

    /// Whether this node won the election (defined once consensus decided).
    pub fn is_leader(&self) -> Option<bool> {
        self.inner.decided().map(|min| min == self.id_value)
    }

    /// The agreed minimum ID, once decided.
    pub fn decided(&self) -> Option<u64> {
        self.inner.decided()
    }

    /// Total schedule length.
    pub fn total_rounds(&self) -> u64 {
        self.inner.total_rounds()
    }
}

impl Protocol for LeaderNode {
    type Msg = ConsensusMsg;

    fn poll_transmit(&mut self, ctx: &mut NodeCtx<'_>) -> Option<ConsensusMsg> {
        self.inner.poll_transmit(ctx)
    }

    fn on_round_end(&mut self, ctx: &mut NodeCtx<'_>, tx: bool, rx: Option<&ConsensusMsg>) {
        self.inner.on_round_end(ctx, tx, rx);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use sinr_geometry::Point2;
    use sinr_phy::{Network, SinrParams};
    use sinr_runtime::{node_rng, Engine};

    fn fast_consts() -> Constants {
        Constants {
            c0: 4.0,
            c2: 4.0,
            c_prime: 1,
            ..Constants::tuned()
        }
    }

    #[test]
    fn id_bits_scale() {
        assert_eq!(LeaderNode::id_bits(2), 4);
        assert_eq!(LeaderNode::id_bits(1024), 31);
    }

    #[test]
    fn elects_unique_leader_on_path() {
        let n = 4;
        let pts: Vec<Point2> = (0..n).map(|i| Point2::new(i as f64 * 0.45, 0.0)).collect();
        let net = Network::new(pts, SinrParams::default_plane()).unwrap();
        let consts = fast_consts();
        let window = consts.wakeup_window(n, n as u32);
        let bits = LeaderNode::id_bits(n);
        let seed = 77;
        let mut eng = Engine::new(net, seed, |id| {
            let mut rng = node_rng(seed, id as u64, 1); // stream 1: ID draw
            let id_value = rng.gen_range(1..(1u64 << bits));
            LeaderNode::new(id_value, n, consts, window)
        });
        let total = eng.nodes()[0].total_rounds();
        let res = eng.run_until_all_done(total + 10);
        assert!(res.completed);
        let leaders: Vec<bool> = eng
            .nodes()
            .iter()
            .map(|nd| nd.is_leader().expect("decided"))
            .collect();
        assert_eq!(leaders.iter().filter(|&&l| l).count(), 1, "{leaders:?}");
        // The leader's ID is the minimum.
        let min_id = eng.nodes().iter().map(LeaderNode::id_value).min().unwrap();
        let winner = eng
            .nodes()
            .iter()
            .position(|nd| nd.is_leader() == Some(true))
            .unwrap();
        assert_eq!(eng.nodes()[winner].id_value(), min_id);
    }

    #[test]
    #[should_panic]
    fn oversized_id_rejected() {
        let _ = LeaderNode::new(u64::MAX >> 1, 4, fast_consts(), 10);
    }
}
