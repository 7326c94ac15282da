//! Baseline broadcast algorithms the paper is compared against.
//!
//! * [`daum`] — granularity-dependent decay-class broadcast in the style of
//!   Daum et al. (DISC 2013), the paper's reference \[5\];
//! * [`flood`] — naive fixed-probability flooding;
//! * [`local`] — adaptive local-broadcast-style flooding after
//!   Halldórsson & Mitra (FOMC 2012), the paper's reference \[11\];
//! * [`gps`] — the GPS-oracle grid TDMA, full geometry knowledge in its
//!   strongest form (the yardstick for the paper's title question);
//! * [`reflood`] — burst-based re-flooding, the mobility/churn-aware
//!   flooding variant that re-seeds on topology changes.

pub mod daum;
pub mod flood;
pub mod gps;
pub mod local;
pub mod reflood;

pub use daum::DaumBroadcastNode;
pub use flood::FloodNode;
pub use local::LocalBroadcastNode;
pub use reflood::ReFloodNode;
