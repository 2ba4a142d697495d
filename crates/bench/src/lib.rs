//! # bench — the benchmark harness
//!
//! Regenerates every table and figure of the paper's evaluation
//! (`cargo run -p bench --bin repro -- list` prints the experiment
//! index):
//!
//! * [`figures`] — one generator per table/figure, each printing an
//!   "ours vs paper" comparison;
//! * [`paper`] — the paper-reported reference values;
//! * [`table`] — plain-text table rendering.
//!
//! Run `cargo run -p bench --bin repro -- all` for everything, or a
//! specific id (`fig9a`, `fig12`, `table5`, ...). Criterion benches in
//! `benches/` time the underlying simulators.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figures;
pub mod paper;
pub mod table;

pub use table::{num, TextTable};
