//! Statistics, model fitting and table rendering for the experiment suite.
//!
//! * [`Summary`] / [`quantile`] / [`fraction`] — sample summaries of round
//!   counts and success rates;
//! * [`fit_least_squares`] and friends — scaling-law fits used to validate
//!   the paper's asymptotic bounds (e.g. regressing measured rounds against
//!   `D·log²n` and checking the ratio is flat with high `R²`);
//! * [`Table`] — plain-text/CSV rendering of experiment tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Libraries return data; binaries print (README.md "Static analysis").
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

pub mod fit;
pub mod summary;
pub mod table;

pub use fit::{fit_affine, fit_least_squares, fit_power_law, fit_proportional, FitResult};
pub use summary::{fraction, histogram, quantile, Summary};
pub use table::{fmt_f64, Table};
