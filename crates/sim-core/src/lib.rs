//! # sim-core — discrete-event simulation substrate
//!
//! Shared simulation kernel for the Cambricon-LLM reproduction. The paper
//! evaluates its architecture on SSDsim (a C discrete-event flash
//! simulator) plus a cycle-accurate NPU model; this crate provides the
//! equivalent substrate in Rust:
//!
//! * [`SimTime`] — picosecond-resolution virtual time,
//! * [`EventQueue`] — a deterministic time-ordered event queue, the
//!   reference kernel of the test oracles,
//! * [`BusyTracker`] / [`Counter`] / [`Aggregate`] — the statistics the
//!   paper's figures report (channel utilization, bytes moved),
//! * [`SplitMix64`] — a pinned, reproducible RNG for error injection.
//!
//! Higher-level crates (`flash-sim`, `npu-sim`, `cambricon-llm`) build the
//! actual device models on top of these primitives.
//!
//! ## Example
//!
//! ```
//! use sim_core::{EventQueue, SimTime, BusyTracker};
//!
//! // A toy simulator: one resource serving three 10ns jobs back-to-back.
//! let mut q = EventQueue::new();
//! let mut busy = BusyTracker::new();
//! let mut free_at = SimTime::ZERO;
//! for job in 0..3u32 {
//!     let start = free_at;
//!     let end = start + SimTime::from_nanos(10);
//!     q.schedule(end, job);
//!     busy.add_interval(start, end);
//!     free_at = end;
//! }
//! while q.pop().is_some() {}
//! assert_eq!(q.now(), SimTime::from_nanos(30));
//! assert!((busy.utilization(q.now()) - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod parallel;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use parallel::{parallel_map, parallel_map_workers};
pub use rng::SplitMix64;
pub use stats::{sum_ordered, Aggregate, BusyTracker, CacheStats, Counter, Estimate, Samples};
pub use time::{transfer_time, SimTime};
