//! Machine-readable benchmark runner for every tracked suite.
//!
//! Runs the shared [`sinr_bench::phy_suite`],
//! [`sinr_bench::broadcast_suite`], [`sinr_bench::coloring_suite`],
//! [`sinr_bench::mobility_suite`], [`sinr_bench::churn_suite`],
//! [`sinr_bench::degradation_suite`] and [`sinr_bench::repair_suite`]
//! and always writes a unified JSON report (default `BENCH.json`,
//! override with `--json <path>`; `--quick` shrinks sizes for CI smoke
//! runs; `--suite phy|broadcast|coloring|mobility|churn|degradation|repair`
//! runs one suite only). Any other argument is a usage error, so a typo
//! never overwrites the committed report:
//!
//! ```text
//! cargo run --release -p sinr-bench --bin microbench -- \
//!     [--json BENCH.json] [--quick] [--suite phy]
//! ```
//!
//! CI runs this on every push, uploads the report as a workflow
//! artifact, and gates on regressions against the committed `BENCH.json`
//! via the `bench_gate` binary; the copy committed at the repository
//! root records the before/after trajectory of the tracked kernels.

use sinr_bench::microbench::Session;
use sinr_bench::{
    broadcast_suite, churn_suite, coloring_suite, degradation_suite, mobility_suite, phy_suite,
    repair_suite,
};

fn main() {
    let mut session = Session::from_args();
    session.default_json("BENCH.json");
    let suite = session.suite.clone().unwrap_or_else(|| "all".into());
    let want = |name: &str| suite == "all" || suite == name;
    assert!(
        [
            "all",
            "phy",
            "broadcast",
            "coloring",
            "mobility",
            "churn",
            "degradation",
            "repair"
        ]
        .contains(&suite.as_str()),
        "unknown --suite {suite}; expected all, phy, broadcast, coloring, mobility, churn, degradation or repair"
    );
    if want("phy") {
        phy_suite::run(&mut session);
    }
    if want("broadcast") {
        broadcast_suite::run(&mut session);
    }
    if want("coloring") {
        coloring_suite::run(&mut session);
    }
    if want("mobility") {
        mobility_suite::run(&mut session);
    }
    if want("churn") {
        churn_suite::run(&mut session);
    }
    if want("degradation") {
        degradation_suite::run(&mut session);
    }
    if want("repair") {
        repair_suite::run(&mut session);
    }
    session.finish().expect("write benchmark report");
}
