//! # llm-workload — LLM inference workload models
//!
//! Shape-level descriptions of the LLMs the Cambricon-LLM paper evaluates
//! (OPT-6.7B/13B/30B/66B, Llama2-7B/13B/70B), the per-token operation
//! streams of single-batch decode, quantization byte-accounting, KV-cache
//! sizing, and the arithmetic-intensity / reduction-ratio analytics behind
//! Figures 1 and 3(a).
//!
//! No real weights are involved: the simulator needs only matrix shapes
//! and op orderings.
//!
//! ## Example
//!
//! ```
//! use llm_workload::{zoo, Quant, ops::decode_step};
//!
//! let model = zoo::llama2_70b();
//! let step = decode_step(&model, Quant::W8A8, 1000);
//! // One token streams the full ~69 GB of INT8 weights...
//! assert!(step.total_weight_bytes() > 60_000_000_000);
//! // ...for only ~0.14 Tera-ops of compute: intensity ≈ 2 ops/byte.
//! let intensity = step.total_ops() as f64
//!     / (step.total_weight_bytes() + step.total_dram_bytes()) as f64;
//! assert!(intensity > 1.5 && intensity < 2.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod intensity;
pub mod kv;
pub mod ops;
pub mod plan;
pub mod quant;
pub mod spec;
pub mod trace;
pub mod zoo;

pub use batch::{
    batch_to_saturate, batched_decode_intensity, ArrivalTrace, RequestArrival, RequestShape,
};
pub use ops::{decode_step, DecodeOp, DecodeStep, OpShape, SpecialKind};
pub use plan::{OpCursor, OpStream, PrefillPlan, TokenPlan};
pub use quant::Quant;
pub use spec::{Family, ModelSpec};
pub use trace::{GenerationTrace, TraceTotals};
