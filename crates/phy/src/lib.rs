//! SINR physical layer for ad hoc wireless-network simulation.
//!
//! Implements the Signal-to-Interference-and-Noise-Ratio model of
//! Jurdzinski, Kowalski, Rozanski & Stachowiak, *On the Impact of Geometry
//! on Ad Hoc Communication in Wireless Networks* (PODC 2014), Section 1.1:
//!
//! * [`SinrParams`] — validated model parameters (α, β, N, ε) with the
//!   paper's uniform-power normalisation `P = N·β` (communication range 1);
//! * [`resolve_round`] / [`Network::resolve`] — one-shot reception-oracle
//!   calls for Equation (1);
//! * [`ReceptionOracle`] / [`Network::resolve_with`] — the stateful oracle
//!   that resolves rounds through a staged plan → accumulate → decide
//!   pipeline with **zero steady-state allocations**; every round loop in
//!   the workspace (engine, runners, sweeps) builds it once per trial and
//!   reuses it across thousands of rounds;
//! * [`ReceptionOracle::set_threads`] — shards the accumulate stage
//!   across scoped threads with bitwise-identical results at any thread
//!   count (see *Threads and batching* below);
//! * [`CommGraph`] — the communication graph over edges of length ≤ 1 − ε,
//!   with BFS, diameter, connectivity and granularity `R_s`. Stored as
//!   flat CSR so dynamic topologies refresh it **in place** per epoch
//!   ([`CommGraph::rebuild_from`], allocation-reusing), with
//!   scratch-reusing connectivity checks ([`GraphScratch`]);
//! * [`Network::apply_churn`] / [`ChurnDelta`] — dynamic **populations**:
//!   index-stable tombstones for stations that leave, rejoins at new
//!   positions, spawns at fresh indices, with the spatial index and the
//!   comm graph rebuilt in place over the survivors;
//! * [`facts`] — Facts 1–3 of the paper as checkable predicates.
//!
//! # Incremental repair
//!
//! Epoch boundaries no longer pay O(n + m) when little changed:
//! [`Network`] tracks which stations moved (bitwise coordinate diff
//! against a per-epoch snapshot) or churned, and routes the delta
//! through [`CommGraph::repair`] — which repairs its owned spatial index
//! via [`sinr_geometry::GridIndex::repair`], rebuilds the CSR rows of
//! the dirty stations by re-query, patches rows a dirty station may
//! have entered or left with one distance test per candidate, and
//! bulk-copies everything else through double-buffered, allocation-free
//! splices. The repaired graph is **bit-identical** to
//! [`CommGraph::build_masked`] over the same population — same row
//! order, ascending neighbours, same edge count — so protocols, BFS
//! tie-breaks and interference sums cannot observe which path ran
//! (`tests/repair_equivalence.rs` pins this in both interference
//! modes and at physics-thread counts 1/2/8). Measured on the
//! `repair/` rows of `BENCH.json`: 18.8×/18.9×/17.5× faster than the
//! full rebuild at n = 10⁴/10⁵/10⁶ with 1% movers (57.9×/35.7×/37.0×
//! at 0.1%); [`RepairPolicy`] (default `Auto`) falls back to the full
//! rebuild past a 5% dirty fraction, where repair degenerates to ~1×.
//!
//! # Choosing an interference mode
//!
//! Two fidelities trade accuracy against per-round cost
//! ([`InterferenceMode`]). Cost is the fastest of 10 rounds on a dense
//! uniform deployment (density 30 per unit square, 2% of stations
//! transmitting, α = 3, one physics thread), from the `oracle/` rows of
//! the committed `BENCH.json` (regenerate with
//! `cargo run --release -p sinr-bench --bin microbench -- --suite phy`):
//!
//! | mode | n = 1 024 | n = 10 000 | decode | interference tail |
//! |------|----------:|-----------:|--------|-------------------|
//! | `Exact` | 491 µs | 47.5 ms | exact | exact (`O(\|T\|·n)`) |
//! | `GridNative{4}` | 113 µs | **1.74 ms** | exact | per-receiver-**cell** shared tail, error ≲ α·√2/4 per far term |
//!
//! `Exact` is the ground truth and the default everywhere;
//! [`InterferenceMode::grid_native`] is the mode for large sweeps (exact
//! decode decisions whenever the SINR margin exceeds its tail
//! perturbation; the a3 ablation sweeps its `near_radius`), selected with
//! `Scenario::interference_mode(InterferenceMode::grid_native())`. Two
//! earlier approximations were deleted because neither paid: a truncated
//! tail (5× slower than grid-native at n = 10⁴, and biased toward exactly
//! the receptions Theorems 1–2 count) and a per-receiver cell aggregate
//! (slower than `Exact` at n = 4 096).
//!
//! Determinism: both modes are a pure function of `(points, params, T)`;
//! grid-native iterates transmitter cells in sorted key order.
//!
//! # Threads and batching
//!
//! Rounds resolve through a staged **plan → accumulate → decide**
//! pipeline ([`ReceptionOracle`]), and the accumulate stage — where all
//! the floating-point work lives — both *batches* and *shards*:
//!
//! * **SoA batch kernels.** Cell members are stored in split per-axis
//!   arrays keyed by the grid's CSR slot order
//!   ([`sinr_geometry::PositionStore`]), so the grid-native near loops
//!   run `distance_sq_batch` + [`SinrParams::signal_at_sq_batch`] over
//!   contiguous slices that LLVM autovectorizes — with bitwise identical
//!   per-element arithmetic to the scalar loops they replaced. Measured
//!   single-thread effect on the grid-native kernel (this machine):
//!   2.61 ms → 1.72 ms at n = 10⁴ and 73.6 ms → 49.3 ms at n = 10⁵
//!   (min wall-clock per round, ~1.5×).
//! * **Thread sharding.** [`ReceptionOracle::set_threads`] shards the
//!   accumulate stage across scoped worker threads: grid-native by
//!   contiguous receiver-cell ranges (each shard owns a contiguous slot
//!   range, with per-shard scratch), exact by contiguous station ranges.
//!   Because every per-receiver sum keeps its serial accumulation order
//!   and shard writes are disjoint slices, **results are bitwise
//!   identical at any thread count** — pinned at the oracle level
//!   (`oracle::tests`), the engine level and the full `RunReport` level
//!   (`tests/mode_determinism.rs`).
//!
//! Wire-up: the oracle an `Engine` builds per trial holds the thread
//! count (`Engine::set_physics_threads`), `Scenario::physics_threads(n)`
//! sets it from the builder, and `Simulation::sweep` divides the
//! machine's thread budget (resolved once per `Simulation`) by the
//! physics thread count, so the auto-sized composition of the two axes
//! stays within the budget. Each round spawns one scoped thread per
//! shard beyond the first. Whole `Simulation::run` wall time at two
//! threads against one, grid-native, 8 pairs per shape on a 2-vCPU
//! Xeon VM (same process, same seed per pair, alternating which side
//! runs first):
//!
//! | shape | transmitters per round | one-thread time ÷ two-thread time |
//! |---|---:|---|
//! | `flood-dense-30k`: flood p = 0.05, n = 3·10⁴ | ~870 | 1.17–1.59×, median 1.54× |
//! | `sbcast-static-10k`: `SBroadcast`, n = 10⁴ | < 20 | 0.87–1.17×, median 0.97× |
//!
//! So physics threads pay off for *few trials with dense rounds*, while
//! sweep workers remain the right axis for *many trials*. `BENCH.json`
//! tracks `oracle/grid_native_r4_t{1,2,8}` rows at n = 10⁴/10⁵ so thread
//! scaling is measured on the machine that regenerates it (the committed
//! file was produced on a single-core container, where t8/t1 ≈ 1.0 by
//! construction — regenerate on real hardware for meaningful scaling).
//!
//! # Example
//!
//! ```
//! use sinr_geometry::Point2;
//! use sinr_phy::{Network, SinrParams};
//!
//! // Two stations half a range apart: an isolated transmission is decoded.
//! let net = Network::new(
//!     vec![Point2::new(0.0, 0.0), Point2::new(0.5, 0.0)],
//!     SinrParams::default_plane(),
//! )?;
//! let outcome = net.resolve(&[0]);
//! assert_eq!(outcome.decoded_from[1], Some(0));
//! # Ok::<(), sinr_phy::NetworkError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod commgraph;
pub mod facts;
pub mod network;
pub mod oracle;
pub mod params;
mod pool;
pub mod reception;

pub use bounds::ParamBounds;
pub use commgraph::{CommGraph, GraphScratch, UNREACHABLE};
pub use network::{ChurnDelta, Network, NetworkError};
pub use oracle::ReceptionOracle;
pub use params::{ParamError, SinrParams, SinrParamsBuilder};
pub use reception::{
    interference_at, resolve_round, total_signal_at, InterferenceMode, RoundOutcome,
};
pub use sinr_geometry::RepairPolicy;
