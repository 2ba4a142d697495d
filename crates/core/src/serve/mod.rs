//! Multi-request serving engine: many concurrent decode requests on one
//! Cambricon-LLM device.
//!
//! # Scheduler model
//!
//! The single-request simulator ([`crate::system`]) prices a token as
//! the *serial* sum of its op latencies, because at batch 1 every op
//! consumes the previous op's output. Across **different requests**
//! there is no such dependency, and the paper's Figure 4 pipeline
//! exposes two serially-exclusive resources that can serve different
//! requests at the same time:
//!
//! * the **flash device** (NAND channels + in-flash compute cores,
//!   together with the NPU share that consumes pages as they stream) —
//!   occupied by weight GeMVs ([`OpClass::Flash`]);
//! * the **NPU/DRAM side** (systolic array, SFU, LPDDR KV traffic) —
//!   occupied by KV matrix work, special functions and cache appends
//!   ([`OpClass::Npu`]).
//!
//! The engine is a discrete-event simulation: each in-flight request is
//! an [`OpCursor`] over the model's shared [`TokenPlan`], each resource
//! serves one op at a time, and when a resource frees it picks the next
//! waiting request according to the [`SchedulePolicy`]. While request
//! A's GeMV holds the flash device, request B can run its attention/KV
//! phase on the NPU — that overlap is why per-token latency degrades
//! *sub-linearly* in the number of in-flight requests, exactly as in a
//! real serving stack that pipelines prefill/attention against weight
//! streaming.
//!
//! # Continuous batching
//!
//! [`SchedulePolicy::ContinuousBatch`] goes one step further than
//! overlap: up to `max_batch` requests march through the shared plan in
//! **lockstep** — a batch step is one plan walk with many cursors
//! parked at the same position. Each weight GeMV then streams from
//! NAND **once per step** for the whole batch (seq-invariant slots are
//! priced once per plan through the `PlanTable`), while the three
//! attention slots are re-priced per request from its own
//! [`OpCursor::seq_len`]. That amortization of the per-token weight
//! fetch is exactly what makes cloud serving batch-efficient (§III-A's
//! arithmetic-intensity cliff), applied to the edge device. New
//! requests join the running batch at token boundaries, and admission
//! is gated on [`npu_sim::KvCache`] capacity: each admitted request
//! reserves DRAM for its whole context and releases it on completion,
//! so an oversubscribed trace queues (FIFO, head-of-line, starvation
//! free) instead of silently over-committing memory. Requests whose
//! context can never fit are rejected and counted
//! ([`ServeReport::kv_rejections`]); batch occupancy is reported
//! time-weighted ([`ServeReport::mean_batch_occupancy`]).
//!
//! # Hot-path structure
//!
//! A device run takes one of two event loops:
//!
//! * the **FCFS/round-robin loop**, which interleaves the two resources
//!   op by op. Its hot path handles an op completion with targeted
//!   dispatch on the resources it frees; arrivals and the completions
//!   around a prefill take small out-of-line handlers. With spans on it
//!   also runs **solo spans**, which price a lone in-flight request's
//!   whole tokens with a few adds each;
//! * the **batched loop** for continuous batching, which runs batch
//!   steps coalesced into spans of whole steps (one-step spans under
//!   [`SpanMode::PerOp`]).
//!
//! Both are built around reuse instead of re-materialization:
//!
//! * the per-token op sequence is never materialized — every request
//!   walks the engine's one [`TokenPlan`] with a cursor, and only the
//!   few seq-dependent attention ops are re-priced, once per token;
//! * op latencies come from a per-plan **slot table**: each distinct
//!   cost slot is priced once through [`System::op_cost`] (which itself
//!   memoizes by canonical shape in the
//!   [`crate::system::OpCostCache`]) and replayed by array index, and
//!   attention prices sit in a dense cumulative array over sequence
//!   positions, so reading a position or a range is two array reads;
//! * all of that pricing happens in **one step before the event loop
//!   starts**, into one immutable priced table: the step prices the
//!   plan's seq-invariant slots, every admitted request's decode range
//!   of attention positions (prompt length up to prompt plus decode
//!   length) and each prompt length's prefill cost, then drops its
//!   `System`. The loops borrow the table and hold no `System`, so they
//!   only read prices. The step does not depend on the policy; the
//!   Monte Carlo harness and the fleet take it once for all their
//!   traces, and every run borrows that one table;
//! * the event core is specialized to this scheduler's shape: at most
//!   one completion can be pending per resource, so "next event" is a
//!   three-way minimum over two completion slots and an arrival queue
//!   rather than a general priority queue, with the same
//!   `(time, schedule-order)` FIFO tie-breaking as
//!   [`sim_core::EventQueue`];
//! * each per-op policy keeps one ready set for the whole run, shared
//!   by every handler of its loop and by solo spans. Neither
//!   policy's key changes while a request waits, so no heap is needed:
//!   FCFS ranks a request once at admission and keeps rank-indexed
//!   bitmasks; round-robin keeps an id-ordered lane for never-scheduled
//!   requests and, per completing resource, an ascending FIFO lane of
//!   last-dispatch stamps.
//!
//! All timing still flows through the same flash discrete-event model
//! and NPU roofline as the single-request path; with one in-flight
//! request the engine reproduces [`System::decode_token`] exactly, and
//! golden tests pin the reports bit-for-bit to the pre-optimization
//! engine. Identical shapes across requests hit the shared caches, so a
//! fleet of same-model requests costs one flash simulation per distinct
//! shape, not per request.
//!
//! # Span fast-forwarding
//!
//! Even with per-op dispatch reduced to array lookups, firing one
//! event-core round per op makes wall-clock scale linearly in
//! `new_tokens` — painful exactly in the long-decode regime where
//! continuous batching matters most. But between two **scheduling
//! boundaries** (the next arrival, the next completion — the minimum
//! remaining tokens in flight —, the next admission opportunity, a
//! prefill window) the dynamics are fully deterministic: only the
//! attention slots' cost varies, and predictably, with each request's
//! sequence position. [`SpanMode::Coalesced`] (the default) therefore
//! computes the number `k` of whole tokens until the earliest boundary
//! and executes them as **one** bulk-priced span: the seq-invariant
//! slots once per token from the `PlanTable`, the attention templates
//! over the growing prefix in the exact per-token order, cursors
//! advanced `k` tokens in one shot ([`OpCursor::advance_by`]), traffic
//! booked through the bulk
//! [`TrafficBreakdown::absorb_batch_span`], and a single span-end
//! event. The batched loop spans whole batch steps (one event round per
//! span instead of per step), so the win compounds with batch size; the
//! FCFS/round-robin loop spans a lone in-flight request between
//! arrivals.
//!
//! **Bit-exactness invariant:** every quantity the engine accumulates —
//! timestamps, busy time, occupancy integrals, traffic, dispatch
//! counters — is integer picoseconds/bytes/ops, and spans sum them in
//! the identical per-token order, so regrouping is exact: coalesced
//! reports equal [`SpanMode::PerOp`] reports field for field (pinned by
//! the goldens and a span-equivalence proptest across policies, prefill
//! modes and forced-tiny-span caps). Span equivalence compares the
//! engine's paths with each other: under batching `PerOp` is itself a
//! one-step span, and under FCFS and round-robin it is the same loop
//! without solo spans. The independent reference for all three policies
//! is a deliberately naive oracle, `tests/support/oracle.rs`: it
//! prices every op of every request through [`System::op_cost`] and
//! shares none of the engine's structures, and `tests/oracle.rs` pins
//! whole reports to it.
//!
//! # Prefill
//!
//! Every request walks the state machine **Queued → Prefilling →
//! Decoding → Done**. Under [`PrefillMode::Modeled`] a request's
//! prompt is not free: after admission it runs a prefill stage — the
//! NPU's prompt-wide GeMMs overlapped with a one-shot weight stream at
//! the *effective* (tiling-derived) read bandwidth, priced by
//! [`System::prefill_cost`] once per `(model, quant, prompt_len)`
//! bucket — that occupies **both** the flash channel and the NPU for
//! its duration, so it contends with every in-flight decode:
//!
//! * under FCFS/round-robin a prefill waits for both resources to be
//!   free, holds them together, and head-of-line blocks later flash
//!   work until it completes;
//! * under continuous batching the prefill of a joining request runs
//!   at the token boundary where it is admitted, delaying the shared
//!   batch step for everyone already in the batch.
//!
//! Time-to-first-token is therefore real: [`RequestReport::ttft`]
//! spans arrival → first decoded token, including queue wait and
//! prefill, and [`ServeReport`] carries its percentiles alongside the
//! old decode-only metric ([`RequestReport::decode_ttft`]). With
//! [`PrefillMode::Off`] (the default) requests enter with their prompt
//! already in the KV cache, exactly as before — the decode-only
//! goldens pin that mode bit for bit.
//!
//! # Example
//!
//! ```
//! use cambricon_llm::serve::{ServeEngine, SchedulePolicy};
//! use cambricon_llm::SystemConfig;
//! use llm_workload::{zoo, ArrivalTrace, RequestShape};
//!
//! let trace = ArrivalTrace::closed_loop(2, 1, RequestShape::new(256, 4));
//! let engine = ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b());
//! let report = engine.run(&trace, SchedulePolicy::RoundRobin);
//! assert_eq!(report.requests_served, 2);
//! assert_eq!(report.tokens_served, 8);
//! assert!(report.tokens_per_sec > 0.0);
//! ```
//!
//! [`System::op_cost`]: crate::System::op_cost
//! [`System::decode_token`]: crate::System::decode_token
//! [`System::prefill_cost`]: crate::System::prefill_cost
//! [`TokenPlan`]: llm_workload::TokenPlan
//! [`OpClass::Flash`]: crate::OpClass::Flash
//! [`OpClass::Npu`]: crate::OpClass::Npu
//! [`OpCursor`]: llm_workload::OpCursor
//! [`OpCursor::seq_len`]: llm_workload::OpCursor::seq_len
//! [`OpCursor::advance_by`]: llm_workload::OpCursor::advance_by

use crate::reliability::ReliabilitySummary;
use crate::system::TrafficBreakdown;
use sim_core::{Aggregate, SimTime};

/// Whether the engine simulates the prefill phase of each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrefillMode {
    /// Requests enter with their prompt already materialized in the KV
    /// cache; only decode is simulated. The pre-prefill behavior,
    /// pinned bit for bit by the decode-only goldens.
    #[default]
    Off,
    /// Each admitted request runs a prefill stage (NPU GeMM compute
    /// overlapped with a one-shot weight stream at the effective read
    /// bandwidth) that occupies the flash channel and the NPU, delaying
    /// its own first token and contending with in-flight decodes.
    Modeled,
}

/// How aggressively the event loops coalesce decode work between
/// scheduling boundaries into bulk-priced **spans**.
///
/// Between two scheduling boundaries — the next arrival, the next
/// completion (minimum remaining tokens in flight), the next admission
/// opportunity, a prefill window — the decode dynamics are fully
/// deterministic: only the attention slots' cost varies, and
/// predictably, with each request's sequence position. A span executes
/// that whole run of tokens as one event-core round, pricing the
/// seq-invariant slots once per token from the `PlanTable` and the
/// attention templates over the growing prefix **in the exact
/// per-token order**, so every timestamp, sample, counter and traffic
/// total is bit-identical to per-op stepping (all quantities are
/// integer picoseconds/bytes/ops, so regrouped sums are exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanMode {
    /// No coalescing: under FCFS and round-robin the event loop runs
    /// without solo spans, stepping every op; under continuous batching
    /// every span is one step. Span equivalence pins the coalesced mode
    /// against it, but it runs the same loop and ready set, so the
    /// independent reference for all three policies is the naive
    /// oracle in `tests/support/oracle.rs`.
    PerOp,
    /// Fast-forward up to `max_span` whole tokens per span between
    /// scheduling boundaries. The default mode is unbounded
    /// (`usize::MAX`: spans end only at real boundaries); tiny caps
    /// force degenerate spans (`k = 1`) for boundary-case testing.
    Coalesced {
        /// Most tokens one span may coalesce (at least 1).
        max_span: usize,
    },
}

impl Default for SpanMode {
    fn default() -> Self {
        SpanMode::Coalesced {
            max_span: usize::MAX,
        }
    }
}

impl SpanMode {
    /// The span cap this mode imposes: 0 encodes per-op stepping (one
    /// step per span under batching).
    fn cap(self) -> usize {
        match self {
            SpanMode::PerOp => 0,
            SpanMode::Coalesced { max_span } => {
                assert!(
                    max_span >= 1,
                    "a coalesced span must hold at least one token"
                );
                max_span
            }
        }
    }
}

/// How a freed resource picks the next waiting request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulePolicy {
    /// First come, first served: the earliest-arrived waiting request
    /// wins. Minimizes queueing delay variance across requests but lets
    /// an early long request starve later short ones.
    Fcfs,
    /// Round-robin: the least-recently-scheduled waiting request wins,
    /// interleaving per-token progress fairly across in-flight requests.
    RoundRobin,
    /// Continuous batching: up to `max_batch` in-flight requests march
    /// through the shared [`TokenPlan`](llm_workload::TokenPlan) in
    /// **lockstep** — one batch step is one plan walk with many cursors
    /// parked at the same position. Each weight GeMV streams from NAND
    /// **once** per step
    /// for the whole batch (the cloud-style amortization of §III-A),
    /// while per-request NPU work (attention, softmax, KV appends)
    /// repeats per batch member at its own sequence position. New
    /// requests join the running batch at token boundaries, FIFO, and
    /// admission is gated on [`npu_sim::KvCache`] capacity: a request
    /// reserves DRAM for its whole context (`prompt + new_tokens`) at
    /// admission and releases it on completion, so oversubscribed
    /// traces queue instead of silently over-committing memory.
    /// Requests whose context can never fit are rejected and counted
    /// in [`ServeReport::kv_rejections`].
    ContinuousBatch {
        /// Most requests served concurrently by one batch step.
        max_batch: usize,
    },
}

/// Summary of one served request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestReport {
    /// Request id (issue order).
    pub id: usize,
    /// Arrival time.
    pub arrived: SimTime,
    /// When the device first worked for the request (prefill start
    /// under [`PrefillMode::Modeled`], first decode op otherwise).
    pub started: SimTime,
    /// When the request's prefill stage completed and decode could
    /// begin. Equal to `started` when no prefill ran (mode off, or an
    /// empty prompt).
    pub prefill_end: SimTime,
    /// Timestamp at which the first decoded token completed.
    ///
    /// This is an absolute virtual time, not a latency: subtract
    /// `arrived` for the arrival-relative TTFT ([`RequestReport::ttft`])
    /// or `prefill_end` for the decode-only metric
    /// ([`RequestReport::decode_ttft`]) — the two are deliberately
    /// separate methods so they cannot be confused. (This field was
    /// previously named `first_token` and mislabeled "decode-only
    /// TTFT".)
    pub first_token_at: SimTime,
    /// When the last token completed.
    pub finished: SimTime,
    /// Tokens generated.
    pub tokens: usize,
}

impl RequestReport {
    /// Time spent queued before any work (prefill or decode op) ran.
    pub fn queueing_delay(&self) -> SimTime {
        self.started.saturating_sub(self.arrived)
    }

    /// Arrival-relative time to first token: queue wait + prefill +
    /// the first decoded token. The user-visible TTFT.
    pub fn ttft(&self) -> SimTime {
        self.first_token_at.saturating_sub(self.arrived)
    }

    /// Decode-only time to first token, measured from the end of
    /// prefill (or from service start when no prefill ran) — the
    /// metric the old `first_token` field's label promised.
    pub fn decode_ttft(&self) -> SimTime {
        self.first_token_at.saturating_sub(self.prefill_end)
    }

    /// Time the request spent in its prefill stage (zero when none
    /// ran).
    pub fn prefill_time(&self) -> SimTime {
        self.prefill_end.saturating_sub(self.started)
    }

    /// Mean time per generated token once running.
    pub fn mean_token_latency(&self) -> SimTime {
        let span = self.finished.saturating_sub(self.started);
        SimTime::from_picos(span.as_picos() / self.tokens.max(1) as u64)
    }
}

/// Fleet-level results of a serving run.
///
/// Implements `PartialEq` so span-equivalence tests can compare whole
/// reports bit for bit (every field is either an integer or an `f64`
/// derived from integer picosecond arithmetic).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Scheduling policy that produced this report.
    pub policy: SchedulePolicy,
    /// Whether prefill was simulated ([`PrefillMode::Modeled`]) or the
    /// prompts were taken as pre-materialized.
    pub prefill: PrefillMode,
    /// Requests completed.
    pub requests_served: usize,
    /// Tokens generated across all requests.
    pub tokens_served: u64,
    /// Virtual time from the first *admitted* request's arrival to the
    /// last completion or deadline shed, whichever is later. Rejected
    /// arrivals are not simulated and do not stretch it (or the
    /// rates/utilizations derived from it).
    pub makespan: SimTime,
    /// Aggregate decode throughput over the makespan.
    pub tokens_per_sec: f64,
    /// Median per-token latency in seconds.
    pub p50_token_latency_s: f64,
    /// 99th-percentile per-token latency in seconds.
    pub p99_token_latency_s: f64,
    /// Mean per-token latency in seconds.
    pub mean_token_latency_s: f64,
    /// Median arrival-relative TTFT ([`RequestReport::ttft`]): queue
    /// wait + prefill + first decoded token, in seconds.
    pub ttft_p50_s: f64,
    /// 99th-percentile arrival-relative TTFT in seconds.
    pub ttft_p99_s: f64,
    /// Mean arrival-relative TTFT in seconds.
    pub ttft_mean_s: f64,
    /// The old decode-only TTFT ([`RequestReport::decode_ttft`])
    /// statistics, in seconds — reported alongside the arrival-relative
    /// percentiles so the two metrics cannot be confused.
    pub decode_ttft_s: Aggregate,
    /// Virtual seconds the device spent in prefill stages (both
    /// resources held). Zero with [`PrefillMode::Off`]; divide by the
    /// makespan for the prefill share of utilization.
    pub prefill_busy_s: f64,
    /// Queueing delay (arrival → first op) statistics, in seconds.
    pub queueing_delay_s: Aggregate,
    /// Busy fraction of the flash device over the makespan.
    pub flash_utilization: f64,
    /// Busy fraction of the NPU/DRAM side over the makespan.
    pub npu_utilization: f64,
    /// GeMV-cache hits across the fleet: weight-GeMV dispatches served
    /// without re-running the flash discrete-event simulation.
    pub gemv_cache_hits: u64,
    /// GeMV-cache misses (distinct shapes actually simulated).
    pub gemv_cache_misses: u64,
    /// Dispatched ops priced from the memo ([`crate::system::OpCostCache`]
    /// plus the per-plan slot table derived from it): the dispatched
    /// ops less the misses, so the two partition the dispatched ops:
    /// `hits + misses == tokens_served × ops_per_token` (plus the
    /// prefill component lookups).
    pub op_cost_cache_hits: u64,
    /// Op costs the run had to derive from the hardware models — the
    /// distinct canonical shapes its pricing step priced before the
    /// event loop started, including the attention ops' shapes at every
    /// position of every admitted request's decode range. A request a
    /// fault deadline sheds mid-decode still counts the positions it
    /// never reached. A Monte Carlo seed or a fleet replica reads a
    /// table priced for the whole scenario and reports zero.
    pub op_cost_cache_misses: u64,
    /// Time-weighted mean number of requests in the running batch over
    /// the makespan. Zero for [`SchedulePolicy::Fcfs`] and
    /// [`SchedulePolicy::RoundRobin`], which do not maintain a batch.
    pub mean_batch_occupancy: f64,
    /// Largest batch assembled at any token boundary (zero for the
    /// non-batched policies).
    pub peak_batch_occupancy: usize,
    /// Requests rejected by KV-capacity admission control — each one a
    /// counted [`npu_sim::KvCapacityError`]: the whole context
    /// (`prompt + new_tokens`) can never fit in the DRAM KV
    /// allocation, under any policy. Rejected requests are not
    /// simulated and do not appear in `requests`.
    pub kv_rejections: u64,
    /// Total traffic across all requests.
    pub traffic: TrafficBreakdown,
    /// Fault-injection counters ([`crate::reliability`]): rereads,
    /// uncorrectable events, degradation, deadline sheds, and goodput.
    /// All zero (the `Default`) when the run had
    /// [`FaultMode::Off`](crate::FaultMode::Off).
    pub reliability: ReliabilitySummary,
    /// Per-request summaries, in completion order.
    pub requests: Vec<RequestReport>,
}

impl ServeReport {
    /// Renders the headline numbers as a short multi-line summary.
    pub fn summary(&self) -> String {
        let makespan_s = self.makespan.as_secs_f64();
        let prefill_pct = if makespan_s > 0.0 {
            self.prefill_busy_s / makespan_s * 100.0
        } else {
            0.0
        };
        let mut out = format!(
            "served {} requests / {} tokens in {:.2} s ({:.2} tok/s)\n\
             token latency: p50 {:.0} ms, p99 {:.0} ms, mean {:.0} ms\n\
             ttft (arrival-relative): p50 {:.0} ms, p99 {:.0} ms, mean {:.0} ms\n\
             decode-only ttft: mean {:.0} ms | prefill busy {:.2} s ({:.0}% of makespan, {:?})\n\
             queueing delay: mean {:.0} ms, max {:.0} ms\n\
             utilization: flash {:.0}%, npu {:.0}% | gemv cache: {} hits / {} misses\n\
             op-cost cache: {} hits / {} misses\n\
             batch occupancy: mean {:.2}, peak {} | kv rejections: {}",
            self.requests_served,
            self.tokens_served,
            makespan_s,
            self.tokens_per_sec,
            self.p50_token_latency_s * 1e3,
            self.p99_token_latency_s * 1e3,
            self.mean_token_latency_s * 1e3,
            self.ttft_p50_s * 1e3,
            self.ttft_p99_s * 1e3,
            self.ttft_mean_s * 1e3,
            self.decode_ttft_s.mean().unwrap_or(0.0) * 1e3,
            self.prefill_busy_s,
            prefill_pct,
            self.prefill,
            self.queueing_delay_s.mean().unwrap_or(0.0) * 1e3,
            self.queueing_delay_s.max().unwrap_or(0.0) * 1e3,
            self.flash_utilization * 100.0,
            self.npu_utilization * 100.0,
            self.gemv_cache_hits,
            self.gemv_cache_misses,
            self.op_cost_cache_hits,
            self.op_cost_cache_misses,
            self.mean_batch_occupancy,
            self.peak_batch_occupancy,
            self.kv_rejections,
        );
        if self.reliability != ReliabilitySummary::default() {
            let r = &self.reliability;
            out.push_str(&format!(
                "\nreliability: rber {:.2e}, rereads {}, uncorrectable {}, degraded {} chips ({:.0}% bw lost)\n\
                 deadlines: {} ttft timeouts, {} sheds | goodput {} reqs / {} tokens ({:.2} tok/s)",
                r.rber,
                r.page_rereads,
                r.uncorrectable_events,
                r.degraded_chips,
                r.degraded_bandwidth_fraction * 100.0,
                r.ttft_timeouts,
                r.deadline_sheds,
                r.goodput_requests,
                r.goodput_tokens,
                r.deadline_goodput_tps,
            ));
        }
        out
    }
}

mod device;
mod pricing;

pub use device::DeviceEngine;
pub(crate) use pricing::PricedRun;

/// The single-device serving engine: the name the goldens, examples
/// and benchmarks use for [`DeviceEngine`].
pub type ServeEngine = DeviceEngine;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::system::System;
    use llm_workload::{zoo, ArrivalTrace, RequestShape};

    fn engine() -> ServeEngine {
        ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
    }

    #[test]
    fn single_request_matches_decode_token_exactly() {
        // One in-flight request serializes every op, so the serving
        // engine must reproduce the single-request simulator tick for
        // tick — same flash model, same roofline, same cache.
        let shape = RequestShape::new(500, 3);
        let rep = engine().run(
            &ArrivalTrace::closed_loop(1, 1, shape),
            SchedulePolicy::Fcfs,
        );
        let mut sys = System::new(SystemConfig::cambricon_s());
        let expected: SimTime = (0..3)
            .map(|i| sys.decode_token(&zoo::opt_6_7b(), 500 + i).total)
            .fold(SimTime::ZERO, |a, b| a + b);
        assert_eq!(rep.makespan, expected);
        assert_eq!(rep.tokens_served, 3);
        assert_eq!(rep.requests_served, 1);
        assert_eq!(rep.queueing_delay_s.max(), Some(0.0));
    }

    #[test]
    fn deterministic_across_runs() {
        let shape = RequestShape::new(300, 4);
        let trace = ArrivalTrace::poisson(5.0, 6, shape, 42);
        for policy in [SchedulePolicy::Fcfs, SchedulePolicy::RoundRobin] {
            let a = engine().run(&trace, policy);
            let b = engine().run(&trace, policy);
            assert_eq!(a.makespan, b.makespan);
            assert_eq!(a.requests, b.requests);
            assert_eq!(a.p99_token_latency_s, b.p99_token_latency_s);
        }
    }

    #[test]
    fn concurrent_requests_degrade_sublinearly() {
        // Two in-flight requests share the device; NPU phases of one
        // overlap flash phases of the other, so the makespan is less
        // than 2x the single-request makespan.
        let shape = RequestShape::new(400, 3);
        let one = engine().run(
            &ArrivalTrace::closed_loop(1, 1, shape),
            SchedulePolicy::RoundRobin,
        );
        let two = engine().run(
            &ArrivalTrace::closed_loop(2, 1, shape),
            SchedulePolicy::RoundRobin,
        );
        assert!(
            two.makespan < one.makespan + one.makespan,
            "2-request makespan {} not sublinear vs {}",
            two.makespan,
            one.makespan
        );
        assert!(
            two.makespan > one.makespan,
            "device is still serial per resource"
        );
        assert_eq!(two.tokens_served, 2 * one.tokens_served);
    }

    #[test]
    fn shared_gemv_cache_simulates_each_shape_once() {
        let shape = RequestShape::new(200, 2);
        let rep = engine().run(&ArrivalTrace::burst(4, shape), SchedulePolicy::RoundRobin);
        // OPT decode has 5 distinct weight shapes regardless of fleet size.
        assert!(rep.gemv_cache_misses <= 5, "{}", rep.gemv_cache_misses);
        assert!(rep.gemv_cache_hits > rep.gemv_cache_misses);
    }

    #[test]
    fn op_cost_cache_amortizes_across_fleet() {
        let shape = RequestShape::new(200, 2);
        let rep = engine().run(&ArrivalTrace::burst(4, shape), SchedulePolicy::RoundRobin);
        // Hits + misses partition the dispatched ops exactly.
        let ops_per_token = 32 * 13 + 2; // OPT-6.7B: 32 layers × 13 ops + norm + head
        assert_eq!(
            rep.op_cost_cache_hits + rep.op_cost_cache_misses,
            rep.tokens_served * ops_per_token
        );
        // Distinct shapes: a dozen invariant ones plus a couple per
        // sequence position reached (2 tokens → 2 positions).
        assert!(
            rep.op_cost_cache_misses < 30,
            "{}",
            rep.op_cost_cache_misses
        );
        assert!(rep.op_cost_cache_hits > 100 * rep.op_cost_cache_misses);
    }

    #[test]
    fn fcfs_favors_early_arrivals_round_robin_shares() {
        // A burst of equal requests: FCFS finishes them in arrival order
        // with spread-out finish times; round-robin finishes them close
        // together (fair progress). Queueing delay mean is lower for RR
        // first tokens... at minimum, both serve everything and FCFS
        // keeps arrival order.
        let shape = RequestShape::new(300, 4);
        let trace = ArrivalTrace::burst(3, shape);
        let fcfs = engine().run(&trace, SchedulePolicy::Fcfs);
        let rr = engine().run(&trace, SchedulePolicy::RoundRobin);
        assert_eq!(fcfs.requests_served, 3);
        assert_eq!(rr.requests_served, 3);
        // FCFS: completion order == arrival (id) order.
        let order: Vec<usize> = fcfs.requests.iter().map(|r| r.id).collect();
        assert_eq!(order, vec![0, 1, 2]);
        // RR spreads first tokens across requests; its spread between
        // first and last completion is no larger than FCFS's.
        let spread = |rep: &ServeReport| {
            let first = rep
                .requests
                .iter()
                .map(|r| r.finished)
                .fold(rep.makespan, SimTime::min);
            rep.makespan.saturating_sub(first)
        };
        assert!(spread(&rr) <= spread(&fcfs));
        // Total work is identical either way.
        assert_eq!(fcfs.tokens_served, rr.tokens_served);
    }

    #[test]
    fn open_trace_queueing_delay_reported() {
        // Simultaneous arrivals contend for the NPU's first op: every
        // request but the first must queue before starting.
        let shape = RequestShape::new(300, 2);
        let rep = engine().run(&ArrivalTrace::burst(5, shape), SchedulePolicy::Fcfs);
        assert_eq!(rep.requests_served, 5);
        assert!(rep.queueing_delay_s.max().unwrap() > 0.0);
        assert_eq!(rep.queueing_delay_s.min(), Some(0.0));
        assert!(rep.p99_token_latency_s >= rep.p50_token_latency_s);
        assert!(rep.flash_utilization > 0.5);
    }

    #[test]
    fn poisson_open_trace_serves_all_requests() {
        let shape = RequestShape::new(300, 2);
        let trace = ArrivalTrace::poisson(50.0, 5, shape, 9);
        let rep = engine().run(&trace, SchedulePolicy::Fcfs);
        assert_eq!(rep.requests_served, 5);
        assert_eq!(rep.tokens_served, 10);
        assert!(rep.flash_utilization > 0.5);
    }

    #[test]
    fn batch_of_one_matches_single_stream_exactly() {
        // A batch step over one request prices the same serial op walk
        // as the unbatched engine, so batch-of-1 reproduces the FCFS
        // single stream tick for tick.
        let shape = RequestShape::new(500, 3);
        let trace = ArrivalTrace::closed_loop(1, 2, shape);
        let fcfs = engine().run(&trace, SchedulePolicy::Fcfs);
        let batched = engine().run(&trace, SchedulePolicy::ContinuousBatch { max_batch: 1 });
        assert_eq!(batched.makespan, fcfs.makespan);
        assert_eq!(batched.tokens_served, fcfs.tokens_served);
        assert_eq!(batched.traffic, fcfs.traffic);
        assert_eq!(batched.requests.len(), fcfs.requests.len());
        for (b, f) in batched.requests.iter().zip(&fcfs.requests) {
            assert_eq!(b.finished, f.finished);
            assert_eq!(b.first_token_at, f.first_token_at);
        }
        assert_eq!(batched.peak_batch_occupancy, 1);
        assert!((batched.mean_batch_occupancy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn continuous_batching_amortizes_the_weight_stream() {
        // Four concurrent requests: FCFS streams all weights once per
        // token *per request*; the batch streams them once per step for
        // everyone. NAND traffic drops ~4x and throughput rises.
        let shape = RequestShape::new(300, 3);
        let trace = ArrivalTrace::closed_loop(4, 1, shape);
        let fcfs = engine().run(&trace, SchedulePolicy::Fcfs);
        let batched = engine().run(&trace, SchedulePolicy::ContinuousBatch { max_batch: 4 });
        assert_eq!(batched.tokens_served, fcfs.tokens_served);
        assert!(
            batched.tokens_per_sec > fcfs.tokens_per_sec,
            "batched {} <= fcfs {}",
            batched.tokens_per_sec,
            fcfs.tokens_per_sec
        );
        assert_eq!(
            batched.traffic.nand_array_bytes * 4,
            fcfs.traffic.nand_array_bytes
        );
        // Per-request work is identical either way: every member still
        // runs its own KV traffic and its own share of the GeMV
        // arithmetic on the streamed weights — only the *stream* is
        // shared.
        assert_eq!(batched.traffic.dram_bytes, fcfs.traffic.dram_bytes);
        assert_eq!(batched.traffic.npu_ops, fcfs.traffic.npu_ops);
        assert_eq!(batched.traffic.flash_ops, fcfs.traffic.flash_ops);
        assert_eq!(batched.peak_batch_occupancy, 4);
        assert!(batched.mean_batch_occupancy > 3.9);
        assert_eq!(batched.kv_rejections, 0);
    }

    #[test]
    fn huge_batches_hit_the_compute_ceiling() {
        // The shared weight stream is floored by both compute
        // rooflines on batch × the per-request MAC shares. The
        // in-flash cores are sized to just match the NAND read rate at
        // batch 1, so they throttle the stream within a few batch
        // members and throughput stops scaling — the §III-A intensity
        // cliff from the other side. (Short prompts keep KV
        // reservations small enough for one batch.)
        let shape = RequestShape::new(4, 1);
        let one = engine().run(
            &ArrivalTrace::burst(1, shape),
            SchedulePolicy::ContinuousBatch { max_batch: 1 },
        );
        let many = engine().run(
            &ArrivalTrace::burst(1024, shape),
            SchedulePolicy::ContinuousBatch { max_batch: 1024 },
        );
        let speedup = many.tokens_per_sec / one.tokens_per_sec;
        assert!(
            speedup < 20.0,
            "batch 1024 scaled past the compute ceiling ({speedup:.0}x)"
        );
        assert!(
            speedup > 1.5,
            "batching stopped paying at all ({speedup:.1}x)"
        );
    }

    #[test]
    fn max_batch_caps_the_running_batch() {
        let shape = RequestShape::new(300, 2);
        let rep = engine().run(
            &ArrivalTrace::burst(5, shape),
            SchedulePolicy::ContinuousBatch { max_batch: 2 },
        );
        assert_eq!(rep.requests_served, 5);
        assert_eq!(rep.peak_batch_occupancy, 2);
        assert!(rep.mean_batch_occupancy <= 2.0 + 1e-12);
    }

    #[test]
    fn impossible_prompt_is_rejected_not_simulated() {
        // OPT-6.7B W8A8: 256 KiB of KV per token, 2 GB of DRAM — a
        // ~7.6k-token context is the ceiling. A 10k-token prompt can
        // never fit and must be a counted rejection under every policy.
        let shape = RequestShape::new(10_000, 2);
        for policy in [
            SchedulePolicy::Fcfs,
            SchedulePolicy::RoundRobin,
            SchedulePolicy::ContinuousBatch { max_batch: 4 },
        ] {
            let rep = engine().run(&ArrivalTrace::burst(2, shape), policy);
            assert_eq!(rep.requests_served, 0, "{policy:?}");
            assert_eq!(rep.kv_rejections, 2, "{policy:?}");
            assert_eq!(rep.tokens_served, 0);
            assert!(rep.requests.is_empty());
        }
    }

    #[test]
    fn rejection_criterion_is_the_full_context_under_every_policy() {
        // The prompt fits (7000 < ~7.6k-token ceiling) but prompt +
        // generation never can: simulating it would price attention at
        // sequence positions DRAM cannot hold, so every policy rejects
        // it — the per-op policies agree with the batched reservation.
        let shape = RequestShape::new(7000, 1000);
        for policy in [
            SchedulePolicy::Fcfs,
            SchedulePolicy::RoundRobin,
            SchedulePolicy::ContinuousBatch { max_batch: 2 },
        ] {
            let rep = engine().run(&ArrivalTrace::burst(1, shape), policy);
            assert_eq!(rep.requests_served, 0, "{policy:?}");
            assert_eq!(rep.kv_rejections, 1, "{policy:?}");
        }
        // Just inside the ceiling is served by all of them.
        let fits = RequestShape::new(7000, 100);
        for policy in [
            SchedulePolicy::Fcfs,
            SchedulePolicy::ContinuousBatch { max_batch: 2 },
        ] {
            let rep = engine().run(&ArrivalTrace::burst(1, fits), policy);
            assert_eq!(rep.requests_served, 1, "{policy:?}");
            assert_eq!(rep.kv_rejections, 0, "{policy:?}");
        }
    }

    #[test]
    fn rejected_stragglers_do_not_stretch_the_makespan() {
        // A servable request at t=0 plus an impossible one arriving
        // long after it completes: the rejection event advances the
        // virtual clock, but the report spans actual service only —
        // throughput and utilization must not be diluted by a request
        // that was never simulated.
        let ok = RequestShape::new(300, 2);
        let huge = RequestShape::new(10_000, 2);
        let late = SimTime::from_secs_f64(1000.0);
        let trace = ArrivalTrace::Open(vec![
            llm_workload::RequestArrival {
                at: SimTime::ZERO,
                shape: ok,
            },
            llm_workload::RequestArrival {
                at: late,
                shape: huge,
            },
        ]);
        let baseline = engine().run(&ArrivalTrace::burst(1, ok), SchedulePolicy::Fcfs);
        for policy in [
            SchedulePolicy::Fcfs,
            SchedulePolicy::ContinuousBatch { max_batch: 2 },
        ] {
            let rep = engine().run(&trace, policy);
            assert_eq!(rep.requests_served, 1, "{policy:?}");
            assert_eq!(rep.kv_rejections, 1, "{policy:?}");
            assert_eq!(rep.makespan, baseline.makespan, "{policy:?}");
            assert_eq!(rep.tokens_per_sec, baseline.tokens_per_sec, "{policy:?}");
        }
        // Symmetrically, an early rejected arrival must not drag the
        // span's start earlier than the first admitted request.
        let trace = ArrivalTrace::Open(vec![
            llm_workload::RequestArrival {
                at: SimTime::ZERO,
                shape: huge,
            },
            llm_workload::RequestArrival {
                at: late,
                shape: ok,
            },
        ]);
        for policy in [
            SchedulePolicy::Fcfs,
            SchedulePolicy::ContinuousBatch { max_batch: 2 },
        ] {
            let rep = engine().run(&trace, policy);
            assert_eq!(rep.makespan, baseline.makespan, "{policy:?}");
        }
    }

    #[test]
    fn mixed_trace_serves_what_fits_and_counts_the_rest() {
        let ok = RequestShape::new(300, 2);
        let huge = RequestShape::new(10_000, 2);
        let trace = ArrivalTrace::Open(vec![
            llm_workload::RequestArrival {
                at: SimTime::ZERO,
                shape: ok,
            },
            llm_workload::RequestArrival {
                at: SimTime::ZERO,
                shape: huge,
            },
            llm_workload::RequestArrival {
                at: SimTime::ZERO,
                shape: ok,
            },
        ]);
        for policy in [
            SchedulePolicy::Fcfs,
            SchedulePolicy::ContinuousBatch { max_batch: 4 },
        ] {
            let rep = engine().run(&trace, policy);
            assert_eq!(rep.requests_served, 2, "{policy:?}");
            assert_eq!(rep.kv_rejections, 1, "{policy:?}");
            assert_eq!(rep.tokens_served, 4);
        }
    }

    #[test]
    fn oversubscribed_batch_queues_on_kv_capacity() {
        // Each request reserves ~3000 KV tokens of the ~7.6k-token
        // DRAM allocation, so only two fit at a time: the batch must
        // run at peak 2 even though max_batch allows 4, and everything
        // still completes once reservations release.
        let shape = RequestShape::new(2990, 10);
        let rep = engine().run(
            &ArrivalTrace::burst(4, shape),
            SchedulePolicy::ContinuousBatch { max_batch: 4 },
        );
        assert_eq!(rep.requests_served, 4);
        assert_eq!(rep.kv_rejections, 0);
        assert_eq!(rep.peak_batch_occupancy, 2);
        assert_eq!(rep.tokens_served, 40);
        // Later requests queued for capacity, not forever.
        assert!(rep.queueing_delay_s.max().unwrap() > 0.0);
    }

    #[test]
    fn promptless_joiner_starts_when_the_prefill_window_closes() {
        // Two requests join one boundary under modelled prefill: the
        // first owes a prefill, the second has an empty prompt. The
        // device first works for the second in the shared step after
        // the first's prefill window, so that is when it starts; the
        // window is its queueing delay.
        let arrival = |prompt| llm_workload::RequestArrival {
            at: SimTime::ZERO,
            shape: RequestShape::new(prompt, 2),
        };
        let rep = engine().with_prefill(PrefillMode::Modeled).run(
            &ArrivalTrace::Open(vec![arrival(300), arrival(0)]),
            SchedulePolicy::ContinuousBatch { max_batch: 2 },
        );
        let [first, second] = &rep.requests[..] else {
            panic!("both requests complete");
        };
        assert!(first.prefill_time() > SimTime::ZERO);
        assert_eq!(second.started, first.prefill_end);
        assert_eq!(second.prefill_time(), SimTime::ZERO);
        assert_eq!(second.queueing_delay(), first.prefill_time());
    }

    #[test]
    fn closed_loop_clients_rejoin_the_batch() {
        // 2 clients x 3 requests each: every completion respawns at the
        // token boundary, so the batch stays full and everything is
        // served.
        let shape = RequestShape::new(200, 2);
        let rep = engine().run(
            &ArrivalTrace::closed_loop(2, 3, shape),
            SchedulePolicy::ContinuousBatch { max_batch: 2 },
        );
        assert_eq!(rep.requests_served, 6);
        assert_eq!(rep.tokens_served, 12);
        assert!(
            rep.mean_batch_occupancy > 1.9,
            "{}",
            rep.mean_batch_occupancy
        );
    }

    #[test]
    fn batched_runs_are_deterministic() {
        let shape = RequestShape::new(300, 3);
        let trace = ArrivalTrace::poisson(5.0, 6, shape, 42);
        let policy = SchedulePolicy::ContinuousBatch { max_batch: 3 };
        let a = engine().run(&trace, policy);
        let b = engine().run(&trace, policy);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.mean_batch_occupancy, b.mean_batch_occupancy);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    fn empty_trace_reports_all_zero_finite() {
        // Satellite: zero-duration runs report 0.0, never NaN.
        for policy in [
            SchedulePolicy::Fcfs,
            SchedulePolicy::RoundRobin,
            SchedulePolicy::ContinuousBatch { max_batch: 4 },
        ] {
            let rep = engine().run(&ArrivalTrace::Open(Vec::new()), policy);
            assert_eq!(rep.requests_served, 0);
            assert_eq!(rep.tokens_served, 0);
            assert_eq!(rep.makespan, SimTime::ZERO);
            assert_eq!(rep.tokens_per_sec, 0.0);
            assert_eq!(rep.p50_token_latency_s, 0.0);
            assert_eq!(rep.p99_token_latency_s, 0.0);
            assert_eq!(rep.mean_token_latency_s, 0.0);
            assert_eq!(rep.flash_utilization, 0.0);
            assert_eq!(rep.npu_utilization, 0.0);
            assert_eq!(rep.mean_batch_occupancy, 0.0);
            assert!(rep.summary().lines().count() >= 5);
        }
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_max_batch_panics() {
        engine().run(
            &ArrivalTrace::burst(1, RequestShape::new(10, 1)),
            SchedulePolicy::ContinuousBatch { max_batch: 0 },
        );
    }
}
