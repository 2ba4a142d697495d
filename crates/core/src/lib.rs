//! # cambricon-llm — the paper's primary contribution, end to end
//!
//! A chiplet-based hybrid architecture: an edge NPU plus a NAND flash
//! chip with on-die compute cores, cooperating on single-batch LLM
//! decode (Yu et al., *Cambricon-LLM*, MICRO 2024). This crate composes
//! the substrate crates into the full system:
//!
//! * [`config`] — Table II system configurations (S/M/L + ablations);
//! * [`system`] — the per-token decode simulator (weight GeMVs on
//!   flash+NPU via hardware-aware tiling, KV work on NPU/DRAM, SFU ops);
//! * [`serve`] — the multi-request serving engine (request queue,
//!   FCFS/round-robin scheduling, fleet-shared GeMV memoization);
//! * [`fleet`] — N device replicas behind a cluster router with an
//!   explicit interconnect, merged into cluster-level percentiles;
//! * [`energy`] — the Figure 16 data-movement energy model;
//! * [`cost`] / [`area`] — Tables I/IV/V (BOM cost, compute-core area);
//! * [`roofline`] — Figures 1(a)/3(a);
//! * [`prefill`](mod@prefill) — prefill/TTFT model (extension);
//! * [`reliability`] — fault-injected serving, deadlines, and wear
//!   trajectories (extension).
//!
//! ## Quickstart
//!
//! ```
//! use cambricon_llm::{System, SystemConfig};
//! use llm_workload::zoo;
//!
//! let mut sys = System::new(SystemConfig::cambricon_l());
//! let speed = sys.decode_speed(&zoo::llama2_70b(), 1000);
//! // The headline result: the paper reports 3.44 tokens/s for a 70B
//! // model on device; this model gives 4.09 (ROADMAP item 2).
//! assert!(speed > 2.0, "{speed}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod config;
pub mod cost;
pub mod energy;
pub mod fleet;
pub mod functional;
pub mod montecarlo;
pub mod prefill;
pub mod reliability;
pub mod roofline;
pub mod serve;
pub mod sweep;
pub mod system;
pub mod validate;

pub use area::{AreaModel, CoreAreaReport};
pub use config::SystemConfig;
pub use cost::{cambricon_bom, table_i, traditional_bom, Bom, Prices};
pub use energy::EnergyModel;
pub use fleet::{FleetEngine, FleetReport, Interconnect, RouterPolicy};
pub use functional::{gemv_through_flash, reference_gemv, FunctionalResult};
pub use montecarlo::{MonteCarlo, MonteCarloReport};
pub use prefill::{prefill, PrefillError, PrefillReport};
pub use reliability::{
    page_fail_prob, FaultConfig, FaultMode, ReliabilitySummary, WearPoint, WearReport,
    WearTrajectory,
};
pub use roofline::{attainable_gops, cambricon_point, smartphone_npu_point, RooflinePoint};
pub use serve::{
    DeviceEngine, PrefillMode, RequestReport, SchedulePolicy, ServeEngine, ServeReport, SpanMode,
};
pub use sweep::{sweep_channels, sweep_chips, SweepPoint};
pub use system::{GemvCache, OpClass, OpCost, PrefillCost, System, TokenReport, TrafficBreakdown};
pub use validate::{cross_check, CrossCheck};
