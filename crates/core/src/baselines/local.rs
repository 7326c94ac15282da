//! Local-broadcast-style adaptive flooding, after Halldórsson & Mitra,
//! *Towards Tight Bounds for Local Broadcasting* (FOMC 2012) — the paper's
//! reference \[11\].
//!
//! Each informed station starts from a very small transmission probability
//! and doubles it after every quiet stretch, halving on congestion
//! (receiving "too many" messages). This adapts to local density like the
//! paper's DensityTest does, but *without* the Playoff step that
//! distinguishes `B(v, ε/2)` density from `B(v, 1)` density — so as a
//! global broadcast it carries the `O(D(Δ + log n) log n)` shape the paper
//! quotes for local-broadcast-based solutions, and the A2 ablation uses it
//! to show what the Playoff buys.

use sinr_runtime::{bernoulli, NodeCtx, Protocol};

use crate::constants::log2n;

/// Per-node adaptive flooding state machine.
#[derive(Debug)]
pub struct LocalBroadcastNode {
    payload: Option<u64>,
    informed_at: Option<u64>,
    p: f64,
    p_floor: f64,
    p_cap: f64,
    /// Rounds in the current observation window.
    window_rounds: u64,
    /// Receptions observed in the current window.
    window_rx: u64,
    /// Observation window length (`log n` rounds).
    window_len: u64,
}

impl LocalBroadcastNode {
    /// Creates the node; probabilities adapt within `[1/(2n), p_cap]`.
    pub fn new(id: usize, source: usize, payload: u64, n: usize, p_cap: f64) -> Self {
        assert!(
            p_cap > 0.0 && p_cap <= 1.0,
            "p_cap must be in (0,1], got {p_cap}"
        );
        let p_floor = 1.0 / (2.0 * n.max(1) as f64);
        LocalBroadcastNode {
            payload: (id == source).then_some(payload),
            informed_at: (id == source).then_some(0),
            p: p_floor.min(p_cap),
            p_floor: p_floor.min(p_cap),
            p_cap,
            window_rounds: 0,
            window_rx: 0,
            window_len: log2n(n).max(2),
        }
    }

    /// Whether the node holds the message.
    pub fn informed(&self) -> bool {
        self.payload.is_some()
    }

    /// Round at which the node became informed.
    pub fn informed_at(&self) -> Option<u64> {
        self.informed_at
    }

    /// Current adaptive transmission probability (diagnostics).
    pub fn current_p(&self) -> f64 {
        self.p
    }
}

impl Protocol for LocalBroadcastNode {
    type Msg = u64;

    fn poll_transmit(&mut self, ctx: &mut NodeCtx<'_>) -> Option<u64> {
        let payload = self.payload?;
        bernoulli(ctx.rng, self.p).then_some(payload)
    }

    fn on_round_end(&mut self, ctx: &mut NodeCtx<'_>, _tx: bool, rx: Option<&u64>) {
        if let Some(&msg) = rx {
            if self.payload.is_none() {
                self.payload = Some(msg);
                self.informed_at = Some(ctx.round);
                return; // start adapting from the next round
            }
        }
        if self.payload.is_none() {
            return;
        }
        self.window_rounds += 1;
        if rx.is_some() {
            self.window_rx += 1;
        }
        if self.window_rounds >= self.window_len {
            // Quiet window: too few receptions means the neighbourhood is
            // under-transmitting — double. Congested window: halve.
            if self.window_rx == 0 {
                self.p = (self.p * 2.0).min(self.p_cap);
            } else if self.window_rx > self.window_len / 2 {
                self.p = (self.p / 2.0).max(self.p_floor);
            }
            self.window_rounds = 0;
            self.window_rx = 0;
        }
    }

    fn is_done(&self) -> bool {
        self.informed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geometry::Point2;
    use sinr_phy::{Network, SinrParams};
    use sinr_runtime::Engine;

    #[test]
    fn completes_on_path() {
        let n = 5;
        let pts: Vec<Point2> = (0..n).map(|i| Point2::new(i as f64 * 0.45, 0.0)).collect();
        let net = Network::new(pts, SinrParams::default_plane()).unwrap();
        let mut eng = Engine::new(net, 2, |id| LocalBroadcastNode::new(id, 0, 4, n, 0.5));
        let res = eng.run_until_all_done(100_000);
        assert!(res.completed);
    }

    #[test]
    fn probability_rises_from_floor_in_isolation() {
        let n = 64;
        let mut node = LocalBroadcastNode::new(0, 0, 1, n, 0.5);
        let p0 = node.current_p();
        let mut rng = sinr_runtime::node_rng(0, 0, 0);
        for r in 0..200 {
            let mut ctx = NodeCtx {
                id: 0,
                round: r,
                n,
                rng: &mut rng,
            };
            let _ = node.poll_transmit(&mut ctx);
            node.on_round_end(&mut ctx, false, None);
        }
        assert!(
            node.current_p() > p0 * 8.0,
            "p did not grow: {}",
            node.current_p()
        );
    }

    #[test]
    fn sleeping_node_does_not_adapt() {
        let n = 16;
        let mut node = LocalBroadcastNode::new(1, 0, 1, n, 0.5);
        let p0 = node.current_p();
        let mut rng = sinr_runtime::node_rng(0, 1, 0);
        for r in 0..100 {
            let mut ctx = NodeCtx {
                id: 1,
                round: r,
                n,
                rng: &mut rng,
            };
            assert!(node.poll_transmit(&mut ctx).is_none());
            node.on_round_end(&mut ctx, false, None);
        }
        assert_eq!(node.current_p(), p0);
        assert!(!node.informed());
    }

    #[test]
    #[should_panic]
    fn rejects_bad_cap() {
        let _ = LocalBroadcastNode::new(0, 0, 1, 4, 1.5);
    }
}
