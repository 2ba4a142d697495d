//! # flash-sim — NAND flash device simulator with on-die compute
//!
//! A discrete-event model of the Cambricon-LLM flash chip (paper §IV):
//! the channel/chip/die/plane hierarchy of Figure 2, the per-die shared
//! Compute Core and register pipeline of Figure 4(b), the novel
//! *read-compute* request, and the Slice Control of §IV-C that interposes
//! sliced plain-read traffic in the channel bubbles.
//!
//! This plays the role SSDsim (extended with Read-Compute commands)
//! plays in the paper's evaluation.
//!
//! ## Example
//!
//! ```
//! use flash_sim::{ChannelWorkload, EngineConfig, FlashDevice, Topology};
//!
//! // Cambricon-LLM-S: 8 channels × 2 chips × 2 dies.
//! let dev = FlashDevice::new(EngineConfig::paper(Topology::cambricon_s()));
//! // 100 read-compute rounds (one 16 KB page per core per round) plus
//! // 170 plain-read pages streamed to the NPU per channel.
//! let rep = dev.run_uniform(ChannelWorkload {
//!     rc_rounds: 100,
//!     rc_input_bytes: 256,
//!     rc_result_bytes_per_core: 64,
//!     ops_per_page: 2 * 16 * 1024,
//!     read_pages: 170,
//! });
//! // Sliced reads ride in the read-compute bubbles: the run takes about
//! // 100 × tR = 3 ms rather than serializing.
//! assert!(rep.finish.as_secs_f64() < 3.6e-3);
//! assert!(rep.mean_utilization > 0.8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aging;
pub mod device;
pub mod engine;
pub mod report;
pub mod slice;
pub mod timing;
pub mod topology;
pub mod workload;

pub use aging::{BerModel, FlashAge};
pub use device::{ChannelRuns, FlashDevice};
pub use engine::ChannelEngine;
pub use report::{ChannelReport, DeviceReport};
pub use slice::SlicePolicy;
pub use timing::{CoreParams, RequestModel, Timing};
pub use topology::Topology;
pub use workload::{ChannelWorkload, EngineConfig};
