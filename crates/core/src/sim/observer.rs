//! Pluggable per-round observation hooks.

use sinr_runtime::RoundStats;

use super::RunReport;

/// A per-run observation hook.
///
/// A fresh observer is created for every run (see
/// [`crate::sim::Scenario::observe`]), so sweeps stay deterministic and
/// thread-safe: observers never share state across seeds.
pub trait Observer: Send {
    /// Called once before the first round with the station count.
    fn begin(&mut self, _n: usize) {}

    /// Called after every executed round with the round's statistics and
    /// the number of stations that currently satisfy the protocol's
    /// per-station goal (informed / awake / decided).
    fn on_round(&mut self, stats: &RoundStats, informed: usize);

    /// Called once after the run; typically records scalars into
    /// [`RunReport::measurements`].
    fn finish(&mut self, report: &mut RunReport);
}
