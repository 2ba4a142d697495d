//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (`design_sweep`, `overload_rr`, `open_batched_mc`,
//! `fleet_faulted`) for `--seconds` of timed operations and prints, as
//! its last stdout line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the traced variant and reports the per-layer
//! ledger, writing its spans as Chrome trace-event JSON next to the
//! executable. Exits 1 when an output check fails, 2 on bad arguments.
//! See `perfbench/README.md`.

// Reading the wall clock is this benchmark's purpose; the workspace
// lint that forbids it guards simulation code, where time is `SimTime`.
#![allow(clippy::disallowed_methods)]

mod measure;
mod metrics;
mod recorder;
mod stats;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <design_sweep|overload_rr|open_batched_mc|\
fleet_faulted> [--seed <u64>] [--seconds <s>] [--trace <0|1>]";

fn main() -> ExitCode {
    let args = match measure::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = measure::run(&args);
    for line in &outcome.notes {
        println!("{line}");
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
