//! Micro-benchmarks of the reusable zero-allocation `ReceptionOracle`
//! (`oracle/...`) across interference modes, network sizes, physics
//! thread counts and transmitter densities.
//!
//! ```text
//! cargo bench -p sinr-bench --bench interference [-- --json out.json] [-- --quick]
//! ```
//!
//! The same suite backs the `microbench` binary that CI runs to produce
//! the tracked `BENCH.json`.

use sinr_bench::microbench::Session;
use sinr_bench::phy_suite;

fn main() {
    let mut session = Session::from_args();
    phy_suite::run(&mut session);
    session.finish().expect("write benchmark report");
}
