//! The full Cambricon-LLM system simulator.
//!
//! Replays the decode-phase op stream of an LLM (crate `llm-workload`)
//! against the hardware models:
//!
//! * weight GeMVs → `tiling` plans → the discrete-event flash device
//!   (`flash-sim`), with the NPU consuming its share as pages stream in;
//! * KV-cache matrix work, KV appends → the NPU/DRAM roofline model
//!   (`npu-sim`);
//! * softmax/activations/norms → the NPU's SFU.
//!
//! Decode is strictly sequential (each op consumes the previous op's
//! output at batch size 1), so per-token latency is the sum of op
//! latencies. Layers share identical GeMV shapes, so each distinct shape
//! is planned once and its measured latency reused; below that, each
//! distinct channel workload is simulated once per system, so two shapes
//! that tile to the same per-channel work (an FFN up/down pair on
//! Cambricon-LLM-S or -M) share one discrete-event run. Both are exact
//! for the steady state and are what make full-model sweeps fast.

use crate::config::SystemConfig;
use flash_sim::{ChannelRuns, DeviceReport, FlashDevice};
use llm_workload::{
    decode_step, DecodeOp, ModelSpec, OpShape, PrefillPlan, SpecialKind, TokenPlan,
};
use npu_sim::NpuModel;
use sim_core::{CacheStats, SimTime};
use std::hash::{BuildHasherDefault, Hasher};
use tiling::{plan_gemv, GemvPlan};

/// Timing and traffic of one **prefill** phase, as priced by
/// [`System::prefill_cost`].
///
/// Prefill overlaps a one-shot weight stream from flash (plain reads —
/// the in-flash cores are GeMV-only, so they sit the phase out) with
/// the NPU running the prompt-wide GeMMs, attention, special functions
/// and KV writes; the phase lasts as long as the slower side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefillCost {
    /// Phase latency: `max(stream, compute)`.
    pub total: SimTime,
    /// One-shot weight stream at the effective (tiling-derived) read
    /// bandwidth — the flash-channel occupancy of the phase.
    pub stream: SimTime,
    /// NPU-side time: GeMMs + attention + SFU + KV writes.
    pub compute: SimTime,
    /// The attention (KV) share of `compute` — the term the legacy
    /// integer division truncated to zero for 1-token prompts.
    pub kv_compute: SimTime,
    /// Whether the NPU side outlasted the weight stream.
    pub compute_bound: bool,
    /// Traffic of the phase: the full weight stream crosses NAND and
    /// the D2D link to the NPU; attention and KV writes hit DRAM.
    pub traffic: TrafficBreakdown,
}

impl PrefillCost {
    /// The all-zero cost of an empty prompt: nothing streams, nothing
    /// computes, the phase is skipped.
    pub const ZERO: PrefillCost = PrefillCost {
        total: SimTime::ZERO,
        stream: SimTime::ZERO,
        compute: SimTime::ZERO,
        kv_compute: SimTime::ZERO,
        compute_bound: false,
        traffic: TrafficBreakdown {
            nand_array_bytes: 0,
            in_flash_bytes: 0,
            d2d_bytes: 0,
            dram_bytes: 0,
            npu_ops: 0,
            flash_ops: 0,
        },
    };

    /// Number of [`System::op_cost`] lookups one cost derivation makes
    /// (GeMM, attention, SFU, KV write) — lets serving reports keep
    /// `hits + misses` an exact partition of priced work.
    pub const COMPONENT_OPS: u64 = 4;
}

/// Byte/operation traffic of one generated token, for the energy model
/// and Figure 16.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrafficBreakdown {
    /// Bytes read from NAND arrays (all weights, wherever consumed).
    pub nand_array_bytes: u64,
    /// Weight bytes consumed by the in-flash compute cores.
    pub in_flash_bytes: u64,
    /// Bytes crossing the chiplet D2D link (both directions).
    pub d2d_bytes: u64,
    /// DRAM traffic (KV reads + writes).
    pub dram_bytes: u64,
    /// Arithmetic ops executed on the NPU.
    pub npu_ops: u64,
    /// Arithmetic ops executed by the flash compute cores.
    pub flash_ops: u64,
}

impl TrafficBreakdown {
    /// Total bytes moved over external interfaces (D2D + DRAM) — the
    /// quantity Figure 16(a) reports as "Data Trans Size".
    pub fn transferred_bytes(&self) -> u64 {
        self.d2d_bytes + self.dram_bytes
    }

    /// Accumulates another breakdown into this one.
    pub fn absorb(&mut self, other: &TrafficBreakdown) {
        self.absorb_scaled(other, 1);
    }

    /// Accumulates a **span** of `steps` batched steps:
    /// `shared × steps` plus `per_request × batch × steps`.
    ///
    /// This is the traffic law of continuous batching
    /// ([`crate::serve::SchedulePolicy::ContinuousBatch`]): the weight
    /// *stream* — NAND reads, in-flash consumption, the D2D weight
    /// share — is fetched **once** per step for all requests in the
    /// batch, while everything a request does for itself (its share of
    /// the GeMV arithmetic on both sides, KV reads/writes, special
    /// functions) repeats per batch member. A span between two
    /// scheduling boundaries has a fixed batch, so its invariant
    /// traffic is one multiplication instead of one call per step;
    /// every field is an exact integer, so the result is bit-identical
    /// to `steps` one-step calls.
    pub fn absorb_batch_span(
        &mut self,
        shared: &TrafficBreakdown,
        per_request: &TrafficBreakdown,
        batch: u64,
        steps: u64,
    ) {
        self.absorb_scaled(shared, steps);
        self.absorb_scaled(per_request, batch * steps);
    }

    /// Field-wise difference `self − earlier`, for differencing two
    /// cumulative snapshots of the same fold (attention prefix tables):
    /// every field is an exact integer counter, so the difference of a
    /// later prefix sum against an earlier one reproduces the summed
    /// in-between contributions bit for bit.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `earlier` exceeds `self` in any field — the
    /// operands were not snapshots of one monotone accumulation.
    pub fn difference(&self, earlier: &TrafficBreakdown) -> TrafficBreakdown {
        TrafficBreakdown {
            nand_array_bytes: self.nand_array_bytes - earlier.nand_array_bytes,
            in_flash_bytes: self.in_flash_bytes - earlier.in_flash_bytes,
            d2d_bytes: self.d2d_bytes - earlier.d2d_bytes,
            dram_bytes: self.dram_bytes - earlier.dram_bytes,
            npu_ops: self.npu_ops - earlier.npu_ops,
            flash_ops: self.flash_ops - earlier.flash_ops,
        }
    }

    /// Accumulates `n` occurrences of another breakdown at once (an op
    /// repeated `n` times per token contributes `n ×` its traffic).
    pub fn absorb_scaled(&mut self, other: &TrafficBreakdown, n: u64) {
        self.nand_array_bytes += n * other.nand_array_bytes;
        self.in_flash_bytes += n * other.in_flash_bytes;
        self.d2d_bytes += n * other.d2d_bytes;
        self.dram_bytes += n * other.dram_bytes;
        self.npu_ops += n * other.npu_ops;
        self.flash_ops += n * other.flash_ops;
    }
}

/// Timing and traffic of one generated token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenReport {
    /// Total latency of the token.
    pub total: SimTime,
    /// Decode speed implied by this token's latency.
    pub tokens_per_sec: f64,
    /// Time in weight GeMVs (flash + NPU co-execution).
    pub gemv: SimTime,
    /// Time in KV-cache matrix work on the NPU.
    pub kv: SimTime,
    /// Time in SFU special functions.
    pub sfu: SimTime,
    /// Mean flash-channel utilization during GeMV phases (time-weighted).
    pub channel_utilization: f64,
    /// Byte/op traffic for the energy model.
    pub traffic: TrafficBreakdown,
}

/// Memoized GeMV simulations: shape → (plan, device report), over a
/// memo of the channel runs behind them.
///
/// Layers share identical GeMV shapes within a token, tokens share them
/// across a request, and concurrent requests of the same model share
/// them across the fleet — so each distinct shape is planned exactly
/// once per [`System`]. Below the shapes, each distinct channel workload
/// (under the active engine configuration, after any die shrink) is
/// simulated through the discrete-event flash engine exactly once per
/// [`System`]: transposed shapes often tile to the same per-channel
/// work and then share one run. The hit/miss counters surface the shape
/// sharing in serving reports; [`GemvCache::channel_runs`] and
/// [`GemvCache::channel_events`] count the simulation work.
#[derive(Debug, Clone, Default)]
pub struct GemvCache {
    entries: Vec<((usize, usize), GemvPlan, DeviceReport)>,
    runs: ChannelRuns,
    stats: CacheStats,
}

impl GemvCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct shapes planned so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no shapes have been planned yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from memory (shape already planned).
    pub fn hits(&self) -> u64 {
        self.stats.hits()
    }

    /// Lookups that planned a new shape. A miss runs the flash
    /// discrete-event simulation only for channel workloads no earlier
    /// miss ran ([`GemvCache::channel_runs`]).
    pub fn misses(&self) -> u64 {
        self.stats.misses()
    }

    /// Flash channel simulations run so far: one per distinct (engine
    /// configuration, channel workload) pair. It counts memo entries
    /// rather than lookups.
    pub fn channel_runs(&self) -> u64 {
        self.runs.runs()
    }

    /// Discrete events those channel simulations processed, summed.
    pub fn channel_events(&self) -> u64 {
        self.runs.events()
    }

    /// Both counters as one summary.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn lookup(&mut self, rows: usize, cols: usize) -> Option<(GemvPlan, DeviceReport)> {
        match self
            .entries
            .iter()
            .find(|((r, c), _, _)| *r == rows && *c == cols)
        {
            Some((_, plan, rep)) => {
                self.stats.hit();
                Some((*plan, *rep))
            }
            None => {
                self.stats.miss();
                None
            }
        }
    }

    fn insert(&mut self, rows: usize, cols: usize, plan: GemvPlan, rep: DeviceReport) {
        self.entries.push(((rows, cols), plan, rep));
    }
}

/// Which serially-exclusive hardware resource a [`DecodeOp`] occupies.
///
/// Weight GeMVs occupy the flash device (plus the NPU share consuming
/// pages as they stream — the co-execution of Figure 5); everything
/// else runs on the NPU/DRAM side alone. Ops of *different* classes
/// from *different* requests can overlap, which is what the serving
/// engine ([`crate::serve`]) exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Flash device + streaming NPU share (weight GeMVs).
    Flash,
    /// NPU compute / SFU / DRAM (KV work, special functions, appends).
    Npu,
}

impl OpClass {
    /// The resource `op` occupies. Pure classification — use
    /// [`System::op_cost`] when the latency is also needed.
    pub fn of(op: &DecodeOp) -> OpClass {
        match op {
            DecodeOp::WeightGemv { .. } => OpClass::Flash,
            _ => OpClass::Npu,
        }
    }
}

/// Latency and accounting of one decode op, as priced by [`System::op_cost`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// Time the op occupies its resource.
    pub latency: SimTime,
    /// Resource the op occupies.
    pub class: OpClass,
    /// Byte/op traffic contributed by the op.
    pub traffic: TrafficBreakdown,
    /// Mean flash-channel utilization while the op runs (GeMVs only,
    /// zero otherwise).
    pub channel_utilization: f64,
}

/// Multiply-rotate hasher (fx-hash style) for the op-cost map.
///
/// `OpShape` keys are three machine words; SipHash (std's default)
/// costs more than recomputing most op costs, which would defeat the
/// cache. This hasher is a handful of ALU ops per word — not DoS
/// resistant, which is fine for keys the simulator itself generates.
#[derive(Debug, Default, Clone, Copy)]
struct ShapeHasher {
    hash: u64,
}

impl ShapeHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for ShapeHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Memoized op pricing: canonical shape ([`llm_workload::OpShape`],
/// the single definition of the "cost depends only on shape" contract)
/// → [`OpCost`].
///
/// Sibling of [`GemvCache`], one level up: where the GeMV cache
/// memoizes the expensive flash discrete-event simulation, this cache
/// memoizes the *entire* [`System::op_cost`] derivation (roofline
/// arithmetic, traffic accounting, the GeMV-cache consultation itself),
/// so a repeated op costs one hash lookup. Decode streams repeat a
/// dozen distinct shapes hundreds of times per token, and concurrent
/// same-model requests repeat each other's shapes across the fleet —
/// serving reports surface the hit/miss split to show that sharing.
///
/// A serving scenario fills one cache in its pricing step and then
/// drops it with its [`System`]: the event loops read the priced
/// tables, never the cache.
#[derive(Debug, Clone, Default)]
pub struct OpCostCache {
    map: OpCostMap,
    stats: CacheStats,
}

/// The op-cost memo's entries.
#[allow(clippy::disallowed_types)]
// simlint: allow(D2) — lookup-only hot-path memo (get/insert/len); never iterated, so hash order cannot reach a report
type OpCostMap = std::collections::HashMap<OpShape, OpCost, BuildHasherDefault<ShapeHasher>>;

impl OpCostCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct shapes priced so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no shape has been priced yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups served from memory.
    pub fn hits(&self) -> u64 {
        self.stats.hits()
    }

    /// Lookups that derived the cost from the hardware models.
    pub fn misses(&self) -> u64 {
        self.stats.misses()
    }

    /// Both counters as one summary.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn lookup(&mut self, shape: OpShape) -> Option<OpCost> {
        match self.map.get(&shape) {
            Some(cost) => {
                self.stats.hit();
                Some(*cost)
            }
            None => {
                self.stats.miss();
                None
            }
        }
    }

    fn insert(&mut self, shape: OpShape, cost: OpCost) {
        self.map.insert(shape, cost);
    }
}

/// The system: configuration plus lazily simulated GeMV latencies.
///
/// `Clone` gives the copy its own memoization state, entries and
/// counters both. A serving scenario prices everything its runs can
/// read on one system before any run starts and shares the resulting
/// tables, not the system ([`crate::serve`]).
#[derive(Debug, Clone)]
pub struct System {
    cfg: SystemConfig,
    npu: NpuModel,
    gemv_cache: GemvCache,
    op_cache: OpCostCache,
    /// Memoized [`System::effective_read_bandwidth`].
    eff_read_bw: Option<f64>,
}

impl System {
    /// Builds a system from a configuration.
    pub fn new(cfg: SystemConfig) -> Self {
        System {
            npu: NpuModel::new(cfg.npu),
            cfg,
            gemv_cache: GemvCache::new(),
            op_cache: OpCostCache::new(),
            eff_read_bw: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The memoized GeMV simulations accumulated so far.
    pub fn gemv_cache(&self) -> &GemvCache {
        &self.gemv_cache
    }

    /// The memoized op costs accumulated so far.
    pub fn op_cost_cache(&self) -> &OpCostCache {
        &self.op_cache
    }

    /// Plans (or recalls) one weight GeMV of shape `rows × cols`,
    /// simulating only the channel workloads this system has not run.
    fn gemv(&mut self, rows: usize, cols: usize) -> (GemvPlan, DeviceReport) {
        if let Some(hit) = self.gemv_cache.lookup(rows, cols) {
            return hit;
        }
        // With very many compute cores a single full-device tile can
        // exceed the whole matrix (Figure 15: "many [chips] remained
        // idle, yielding no performance gains"). Model the paper's
        // behaviour by shrinking the *active* per-channel die count
        // until one tile fits; the surplus dies simply idle.
        let mut engine = self.cfg.engine;
        let mut inp = self.cfg.alpha_inputs();
        if self.cfg.tile_override.is_none() && self.cfg.strategy != tiling::Strategy::NpuOnly {
            while tiling::fit_tile(&inp.topology, inp.weight_bits, rows, cols).is_none()
                && (engine.topology.chips_per_channel > 1 || engine.topology.dies_per_chip > 1)
            {
                if engine.topology.chips_per_channel > 1 {
                    engine.topology.chips_per_channel =
                        (engine.topology.chips_per_channel / 2).max(1);
                } else {
                    engine.topology.dies_per_chip = (engine.topology.dies_per_chip / 2).max(1);
                }
                inp.topology = engine.topology;
            }
        }
        let plan = plan_gemv(&inp, rows, cols, self.cfg.strategy, self.cfg.tile_override);
        let rep = FlashDevice::new(engine)
            .run_per_channel(&plan.channel_workloads(&inp), &mut self.gemv_cache.runs);
        self.gemv_cache.insert(rows, cols, plan, rep);
        (plan, rep)
    }

    /// Prices one decode op: its latency, the resource it occupies, and
    /// its traffic contribution. This is the per-op stepping API the
    /// serving engine ([`crate::serve`]) schedules with; [`decode_token`]
    /// is the strictly-sequential sum of these costs.
    ///
    /// Costs are memoized by canonical shape ([`OpCostCache`]): the
    /// first op of each shape runs the full derivation, repeats are a
    /// hash lookup.
    ///
    /// [`decode_token`]: System::decode_token
    pub fn op_cost(&mut self, op: &DecodeOp) -> OpCost {
        let shape = OpShape::of(op);
        if let Some(cost) = self.op_cache.lookup(shape) {
            return cost;
        }
        let cost = self.derive_op_cost(op);
        self.op_cache.insert(shape, cost);
        cost
    }

    /// Runs the full cost derivation, bypassing the memo (the cache
    /// guarantees one call per distinct shape).
    fn derive_op_cost(&mut self, op: &DecodeOp) -> OpCost {
        let quant = self.cfg.quant;
        let mut traffic = TrafficBreakdown::default();
        match op {
            DecodeOp::WeightGemv { rows, cols, .. } => {
                let (plan, rep) = self.gemv(*rows, *cols);
                // The NPU consumes its share as pages stream in; its
                // compute time only matters if it exceeds the
                // transfer window (it never does at 2 TOPS, but the
                // roofline keeps the model honest).
                let npu_ops = 2 * plan.npu_params;
                let latency = rep.finish.max(self.npu.compute_time(npu_ops));
                traffic.nand_array_bytes += quant.weight_bytes(plan.total_params());
                traffic.in_flash_bytes += quant.weight_bytes(plan.flash_params);
                traffic.d2d_bytes += rep.bytes_to_npu + rep.bytes_from_npu;
                traffic.npu_ops += npu_ops;
                traffic.flash_ops += 2 * plan.flash_params;
                OpCost {
                    latency,
                    class: OpClass::Flash,
                    traffic,
                    channel_utilization: rep.mean_utilization,
                }
            }
            DecodeOp::KvMatVec {
                dram_bytes, ops, ..
            } => {
                traffic.dram_bytes += dram_bytes;
                traffic.npu_ops += ops;
                OpCost {
                    latency: self.npu.kv_op_time(*ops, *dram_bytes),
                    class: OpClass::Npu,
                    traffic,
                    channel_utilization: 0.0,
                }
            }
            DecodeOp::Special { elems, .. } => OpCost {
                latency: self.npu.sfu_time(*elems),
                class: OpClass::Npu,
                traffic,
                channel_utilization: 0.0,
            },
            DecodeOp::KvAppend { bytes } => {
                traffic.dram_bytes += bytes;
                OpCost {
                    latency: self.npu.dram_write_time(*bytes),
                    class: OpClass::Npu,
                    traffic,
                    channel_utilization: 0.0,
                }
            }
        }
    }

    /// Simulates one decode step (token generation) at context length
    /// `seq_len`.
    ///
    /// Enumerates the ops eagerly via [`decode_step`]; when stepping
    /// many tokens of one model, build a [`TokenPlan`] once and use
    /// [`decode_token_planned`](System::decode_token_planned) instead.
    pub fn decode_token(&mut self, model: &ModelSpec, seq_len: usize) -> TokenReport {
        let step = decode_step(model, self.cfg.quant, seq_len);
        self.sum_op_costs(step.ops.iter().copied())
    }

    /// [`decode_token`](System::decode_token) over a prebuilt
    /// [`TokenPlan`]: identical result, no per-token enumeration or
    /// allocation. The plan's quantization must match the system's.
    ///
    /// # Panics
    ///
    /// Panics if `plan.quant()` differs from the system configuration.
    pub fn decode_token_planned(&mut self, plan: &TokenPlan, seq_len: usize) -> TokenReport {
        assert_eq!(
            plan.quant(),
            self.cfg.quant,
            "token plan quantization does not match the system"
        );
        self.sum_op_costs(plan.stream(seq_len))
    }

    fn sum_op_costs(&mut self, ops: impl Iterator<Item = DecodeOp>) -> TokenReport {
        let mut total = SimTime::ZERO;
        let mut gemv_t = SimTime::ZERO;
        let mut kv_t = SimTime::ZERO;
        let mut sfu_t = SimTime::ZERO;
        let mut traffic = TrafficBreakdown::default();
        let mut util_weighted = 0.0f64;

        for op in ops {
            let cost = self.op_cost(&op);
            total += cost.latency;
            match op {
                DecodeOp::WeightGemv { .. } => {
                    gemv_t += cost.latency;
                    util_weighted += cost.channel_utilization * cost.latency.as_secs_f64();
                }
                DecodeOp::KvMatVec { .. } | DecodeOp::KvAppend { .. } => kv_t += cost.latency,
                DecodeOp::Special { .. } => sfu_t += cost.latency,
            }
            traffic.absorb(&cost.traffic);
        }

        TokenReport {
            total,
            tokens_per_sec: 1.0 / total.as_secs_f64(),
            gemv: gemv_t,
            kv: kv_t,
            sfu: sfu_t,
            channel_utilization: if gemv_t == SimTime::ZERO {
                0.0
            } else {
                util_weighted / gemv_t.as_secs_f64()
            },
            traffic,
        }
    }

    /// Decode speed in tokens/second at a fixed context length (the
    /// paper evaluates at sequence length ≈ 1000).
    pub fn decode_speed(&mut self, model: &ModelSpec, seq_len: usize) -> f64 {
        self.decode_token(model, seq_len).tokens_per_sec
    }

    /// NPU roofline time for `ops` arithmetic operations — the compute
    /// floor under a shared weight stream. A batched weight GeMV
    /// ([`crate::serve`]'s continuous batching) occupies the flash
    /// device for the single-stream window *unless* `batch ×` the
    /// per-request NPU share of the MACs exceeds it; this is how the
    /// scheduler prices that ceiling, ending batching's free lunch at
    /// large batch exactly as §III-A's intensity cliff predicts.
    pub fn npu_compute_time(&self, ops: u64) -> SimTime {
        sim_core::transfer_time(ops, self.npu_ops_per_sec())
    }

    /// The NPU's peak ops per second, the rate
    /// [`System::npu_compute_time`] divides by.
    pub(crate) fn npu_ops_per_sec(&self) -> u64 {
        self.npu.config().peak_ops_per_sec()
    }

    /// Aggregate in-flash compute time for `ops` arithmetic operations
    /// spread across every die's core — the other compute floor under a
    /// shared weight stream. The paper sizes each core to exactly match
    /// the NAND read rate at batch 1 ("computing power must match the
    /// read speed"), so the in-flash share of a batched GeMV throttles
    /// the stream once `batch ×` its MACs outrun the cores, well before
    /// the NPU does.
    pub fn flash_compute_time(&self, ops: u64) -> SimTime {
        sim_core::transfer_time(ops, self.flash_ops_per_sec())
    }

    /// The in-flash cores' aggregate ops per second, the rate
    /// [`System::flash_compute_time`] divides by.
    pub(crate) fn flash_ops_per_sec(&self) -> u64 {
        let cores = self.cfg.engine.topology.total_compute_cores() as u64;
        cores.max(1) * self.cfg.engine.core.ops_per_sec()
    }

    /// Effective plain-read bandwidth of the whole flash device in
    /// bytes/second — what a one-shot weight stream (prefill) actually
    /// sustains.
    ///
    /// Derived from the same [`tiling::effective_rates`] the GeMV
    /// planner uses: each page read pays its per-chunk command cycles
    /// on the channel bus (`t_page`), so the sustained rate is
    /// `channels × page_bytes / t_page` — strictly below the raw bus
    /// rate `channels × channel_bytes_per_sec`, which ignores command
    /// overhead and slice chunking. Memoized per system.
    pub fn effective_read_bandwidth(&mut self) -> f64 {
        if let Some(bw) = self.eff_read_bw {
            return bw;
        }
        let inp = self.cfg.alpha_inputs();
        let tile = self
            .cfg
            .tile_override
            .unwrap_or_else(|| tiling::optimal_tile(&inp.topology, inp.weight_bits));
        let rates = tiling::effective_rates(&inp, tile);
        // simlint: allow(D5) — bandwidth model boundary: exact integer geometry enters the analytic f64 rate model here
        let bw = inp.topology.channels as f64 * inp.topology.page_bytes as f64 / rates.t_page_s;
        self.eff_read_bw = Some(bw);
        bw
    }

    /// Prices the prefill phase of an `m`-token prompt: a one-shot
    /// weight stream at [`System::effective_read_bandwidth`] overlapped
    /// with the NPU-side compute, the phase lasting as long as the
    /// slower side ([`PrefillCost`]).
    ///
    /// The NPU components are priced through [`System::op_cost`] as
    /// canonical shapes ([`OpCostCache`] entries like any decode op —
    /// exactly [`PrefillCost::COMPONENT_OPS`] lookups per call), so a
    /// serving fleet re-pricing the same `(model, quant, prompt_len)`
    /// bucket is pure recall. An empty prompt is a legal no-op:
    /// [`PrefillCost::ZERO`], nothing priced.
    pub fn prefill_cost(&mut self, plan: &PrefillPlan, prompt_tokens: usize) -> PrefillCost {
        assert_eq!(
            plan.quant(),
            self.cfg.quant,
            "prefill plan quantization does not match the system"
        );
        if prompt_tokens == 0 {
            return PrefillCost::ZERO;
        }
        let m = prompt_tokens;
        let mut traffic = TrafficBreakdown::default();

        // The whole weight set streams from NAND once, all of it to the
        // NPU over the D2D link (no in-flash compute during prefill).
        let weight_bytes = plan.weight_bytes();
        // simlint: allow(D5) — same boundary: byte count is exact in f64 far below 2^53; result re-enters integer ps via from_secs_f64
        let stream = SimTime::from_secs_f64(weight_bytes as f64 / self.effective_read_bandwidth());
        traffic.nand_array_bytes += weight_bytes;
        traffic.d2d_bytes += weight_bytes;

        // NPU side, one canonical shape per component (GeMMs as pure
        // compute, attention as KV-stream work, SFU, KV writes).
        let gemm = self.op_cost(&DecodeOp::KvMatVec {
            label: "prefill_gemm",
            dram_bytes: 0,
            ops: plan.gemm_ops(m),
        });
        let (attn_ops, attn_dram) = plan.attention(m);
        let attn = self.op_cost(&DecodeOp::KvMatVec {
            label: "prefill_attn",
            dram_bytes: attn_dram,
            ops: attn_ops,
        });
        let sfu = self.op_cost(&DecodeOp::Special {
            kind: SpecialKind::Softmax,
            elems: plan.sfu_elems(m),
        });
        let append = self.op_cost(&DecodeOp::KvAppend {
            bytes: plan.kv_write_bytes(m),
        });
        for cost in [&gemm, &attn, &sfu, &append] {
            traffic.absorb(&cost.traffic);
        }
        let compute = gemm.latency + attn.latency + sfu.latency + append.latency;

        PrefillCost {
            total: stream.max(compute),
            stream,
            compute,
            kv_compute: attn.latency,
            compute_bound: compute > stream,
            traffic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use llm_workload::{zoo, Quant};
    use tiling::Strategy;

    /// Paper Figure 9(a) numbers for Cambricon-LLM-S/M/L on OPT-6.7B.
    #[test]
    fn fig9_opt_6_7b_decode_speeds_in_band() {
        let model = zoo::opt_6_7b();
        let cases = [
            (SystemConfig::cambricon_s(), 3.56, 0.35),
            (SystemConfig::cambricon_m(), 10.96, 0.35),
            (SystemConfig::cambricon_l(), 36.34, 0.40),
        ];
        for (cfg, paper, tol) in cases {
            let mut sys = System::new(cfg);
            let speed = sys.decode_speed(&model, 1000);
            let rel = (speed - paper).abs() / paper;
            assert!(
                rel < tol,
                "{}: {speed:.2} tok/s vs paper {paper} (rel {rel:.2})",
                cfg.name
            );
        }
    }

    #[test]
    fn seventy_b_on_l_hits_paper_band() {
        // Headline claim: the paper reports 3.44 tokens/s for 70B on
        // Cambricon-LLM-L; the model gives 4.09 (ROADMAP item 2).
        let mut sys = System::new(SystemConfig::cambricon_l());
        let speed = sys.decode_speed(&zoo::llama2_70b(), 1000);
        assert!(
            (2.4..4.6).contains(&speed),
            "Llama2-70B on L: {speed:.2} tok/s"
        );
    }

    #[test]
    fn speed_decreases_with_model_size() {
        let mut sys = System::new(SystemConfig::cambricon_m());
        let speeds: Vec<f64> = zoo::opt_family()
            .iter()
            .map(|m| sys.decode_speed(m, 1000))
            .collect();
        for w in speeds.windows(2) {
            assert!(w[0] > w[1], "{speeds:?}");
        }
    }

    #[test]
    fn w4a16_speeds_up_inference() {
        // Figure 11: W4A16 improves Cam-S by ~85% on average.
        let model = zoo::opt_6_7b();
        let mut w8 = System::new(SystemConfig::cambricon_s());
        let mut w4 = System::new(SystemConfig::cambricon_s().with_quant(Quant::W4A16));
        let s8 = w8.decode_speed(&model, 1000);
        let s4 = w4.decode_speed(&model, 1000);
        let gain = s4 / s8;
        assert!((1.3..2.2).contains(&gain), "gain {gain:.2}");
    }

    #[test]
    fn tiling_beats_flash_only() {
        // Figure 14: hardware-aware tiling is 1.3–1.4× faster than
        // flash-only execution.
        let model = zoo::opt_6_7b();
        let mut ours = System::new(SystemConfig::cambricon_s());
        let mut flash_only =
            System::new(SystemConfig::cambricon_s().with_strategy(Strategy::FlashOnly));
        let a = ours.decode_speed(&model, 1000);
        let b = flash_only.decode_speed(&model, 1000);
        let gain = a / b;
        assert!((1.15..1.8).contains(&gain), "gain {gain:.2}");
    }

    #[test]
    fn slicing_beats_unsliced() {
        // Figure 12: read-request slicing is 1.6–1.8× faster.
        let model = zoo::opt_6_7b();
        let mut ours = System::new(SystemConfig::cambricon_s());
        let mut unsliced = System::new(SystemConfig::cambricon_s().without_read_slice());
        let a = ours.decode_speed(&model, 1000);
        let b = unsliced.decode_speed(&model, 1000);
        let gain = a / b;
        assert!(gain > 1.25, "gain {gain:.2}");
    }

    #[test]
    fn channel_utilization_in_paper_band() {
        // Figure 12(b): "our method" runs at ~79–91% channel usage.
        let model = zoo::opt_6_7b();
        let mut sys = System::new(SystemConfig::cambricon_s());
        let rep = sys.decode_token(&model, 1000);
        assert!(
            (0.6..1.0).contains(&rep.channel_utilization),
            "{}",
            rep.channel_utilization
        );
    }

    #[test]
    fn flash_only_has_tiny_utilization() {
        // Figure 14(b): without tiling, channel usage collapses to ~3%.
        let model = zoo::opt_6_7b();
        let mut sys = System::new(SystemConfig::cambricon_s().with_strategy(Strategy::FlashOnly));
        let rep = sys.decode_token(&model, 1000);
        assert!(
            rep.channel_utilization < 0.10,
            "{}",
            rep.channel_utilization
        );
    }

    #[test]
    fn traffic_accounting_is_consistent() {
        let model = zoo::opt_6_7b();
        let mut sys = System::new(SystemConfig::cambricon_s());
        let rep = sys.decode_token(&model, 1000);
        let t = rep.traffic;
        // All weights are read from NAND exactly once per token.
        let expect_weights: u64 = decode_step(&model, Quant::W8A8, 1000).total_weight_bytes();
        assert_eq!(t.nand_array_bytes, expect_weights);
        // In-flash share is large but below total.
        assert!(t.in_flash_bytes > expect_weights / 3);
        assert!(t.in_flash_bytes < expect_weights);
        // D2D carries roughly the NPU share (1-α) of weights.
        let npu_share = expect_weights - t.in_flash_bytes;
        assert!(t.d2d_bytes as f64 > npu_share as f64 * 0.9);
        assert!((t.d2d_bytes as f64) < npu_share as f64 * 1.3);
        // Figure 16(a): Cam-S moves ~1.9 GB/token on OPT-6.7B.
        let gb = t.transferred_bytes() as f64 / 1e9;
        assert!((1.2..3.0).contains(&gb), "{gb} GB/token");
    }

    #[test]
    fn time_breakdown_sums_to_total() {
        let model = zoo::opt_13b();
        let mut sys = System::new(SystemConfig::cambricon_s());
        let rep = sys.decode_token(&model, 500);
        let sum = rep.gemv + rep.kv + rep.sfu;
        assert_eq!(sum, rep.total);
        assert!(rep.gemv > rep.kv); // weights dominate at seq 500
    }

    #[test]
    fn batch_step_traffic_shares_weights_and_repeats_kv() {
        let shared = TrafficBreakdown {
            nand_array_bytes: 1000,
            in_flash_bytes: 600,
            d2d_bytes: 400,
            dram_bytes: 0,
            npu_ops: 50,
            flash_ops: 70,
        };
        let per_request = TrafficBreakdown {
            dram_bytes: 8,
            npu_ops: 16,
            ..TrafficBreakdown::default()
        };
        let mut t = TrafficBreakdown::default();
        t.absorb_batch_span(&shared, &per_request, 4, 1);
        assert_eq!(t.nand_array_bytes, 1000); // weights streamed once
        assert_eq!(t.in_flash_bytes, 600);
        assert_eq!(t.d2d_bytes, 400);
        assert_eq!(t.dram_bytes, 4 * 8); // KV repeats per request
        assert_eq!(t.npu_ops, 50 + 4 * 16);
        assert_eq!(t.flash_ops, 70);
        // batch == 1 degenerates to absorbing both once.
        let mut one = TrafficBreakdown::default();
        one.absorb_batch_span(&shared, &per_request, 1, 1);
        let mut serial = TrafficBreakdown::default();
        serial.absorb(&shared);
        serial.absorb(&per_request);
        assert_eq!(one, serial);
    }

    #[test]
    fn batch_span_equals_repeated_batch_steps() {
        let shared = TrafficBreakdown {
            nand_array_bytes: 999,
            in_flash_bytes: 501,
            d2d_bytes: 333,
            dram_bytes: 1,
            npu_ops: 47,
            flash_ops: 83,
        };
        let per_request = TrafficBreakdown {
            dram_bytes: 13,
            npu_ops: 29,
            d2d_bytes: 7,
            ..TrafficBreakdown::default()
        };
        for (batch, steps) in [(1u64, 1u64), (4, 1), (1, 9), (7, 512)] {
            let mut bulk = TrafficBreakdown::default();
            bulk.absorb_batch_span(&shared, &per_request, batch, steps);
            let mut stepped = TrafficBreakdown::default();
            for _ in 0..steps {
                stepped.absorb_batch_span(&shared, &per_request, batch, 1);
            }
            assert_eq!(bulk, stepped, "batch {batch} steps {steps}");
        }
        // Zero steps is a no-op.
        let mut none = TrafficBreakdown::default();
        none.absorb_batch_span(&shared, &per_request, 5, 0);
        assert_eq!(none, TrafficBreakdown::default());
    }

    #[test]
    fn gemv_cache_dedupes_shapes() {
        let model = zoo::opt_6_7b();
        let mut sys = System::new(SystemConfig::cambricon_s());
        sys.decode_token(&model, 100);
        // OPT layers have 4 distinct shapes (h×h, 4h×h, h×4h) + lm_head.
        assert!(sys.gemv_cache.len() <= 5, "{}", sys.gemv_cache.len());
    }

    fn weight_gemv(rows: usize, cols: usize) -> DecodeOp {
        DecodeOp::WeightGemv {
            label: "W",
            rows,
            cols,
        }
    }

    /// The paper's design grid, one fresh system per point: every zoo
    /// model at W8A8 on Cambricon-LLM-S/M/L and at W4A16 on -S/L
    /// (Figures 9 and 11, 35 points), then Figure 15's chip sweep at 8
    /// channels and channel sweep at 4 chips per channel for the first
    /// three zoo models at W8A8 (45 points).
    fn design_grid() -> Vec<(ModelSpec, SystemConfig)> {
        let [s, m, l] = SystemConfig::paper_variants();
        let mut grid = Vec::new();
        for model in zoo::all() {
            for cfg in [
                s,
                m,
                l,
                s.with_quant(Quant::W4A16),
                l.with_quant(Quant::W4A16),
            ] {
                grid.push((model.clone(), cfg));
            }
        }
        for model in &zoo::all()[..3] {
            let chips = [1, 2, 4, 8, 16, 32, 64, 128].map(|c| (8, c));
            let channels = [1, 2, 4, 8, 16, 32, 64].map(|ch| (ch, 4));
            for (ch, c) in chips.into_iter().chain(channels) {
                grid.push((model.clone(), SystemConfig::custom(ch, c)));
            }
        }
        grid
    }

    /// The flash simulation work of the design grid: shapes planned,
    /// channel runs and their events. Context length moves only NPU
    /// attention ops, so none of the three depends on it.
    #[test]
    fn design_grid_channel_work_is_pinned() {
        let grid = design_grid();
        assert_eq!(grid.len(), 35 + 45);
        let (mut shapes, mut runs, mut events) = (0, 0, 0);
        for (model, cfg) in &grid {
            let mut sys = System::new(*cfg);
            sys.decode_token(model, 1000);
            let cache = sys.gemv_cache();
            shapes += cache.misses();
            runs += cache.channel_runs();
            events += cache.channel_events();
        }
        assert_eq!((shapes, runs, events), (325, 332, 1_950_912));
    }

    /// OPT-6.7B's FFN pair (`4h × h` up, `h × 4h` down) tiles to one
    /// channel workload on Cambricon-LLM-S, which runs it once; on -L
    /// the transposes tile differently and each runs its own.
    #[test]
    fn transposed_ffn_pair_shares_a_run_on_cam_s_only() {
        let (up, down) = (weight_gemv(16384, 4096), weight_gemv(4096, 16384));
        for (cfg, shared) in [
            (SystemConfig::cambricon_s(), true),
            (SystemConfig::cambricon_l(), false),
        ] {
            let mut sys = System::new(cfg);
            sys.op_cost(&up);
            let runs = sys.gemv_cache().channel_runs();
            assert!(runs >= 1);
            sys.op_cost(&down);
            assert_eq!(sys.gemv_cache().misses(), 2);
            let added = sys.gemv_cache().channel_runs() - runs;
            assert_eq!(added == 0, shared, "{}: {added} new runs", cfg.name);
        }
    }

    /// Every weight GeMV priced on one shared system costs exactly what
    /// it costs on a fresh system of its own, where no run is shared:
    /// each recalled channel run is the run the shape would have made.
    /// Covers every zoo model on Cambricon-LLM-S/M/L at W8A8 and W4A16
    /// and Figure 15's 1×4, 2×4 and 8×128 points (the last shrinks the
    /// active dies per shape).
    #[test]
    fn shared_channel_runs_match_fresh_systems() {
        let mut cfgs = Vec::new();
        for quant in [Quant::W8A8, Quant::W4A16] {
            cfgs.extend(SystemConfig::paper_variants().map(|c| c.with_quant(quant)));
        }
        cfgs.extend([(1, 4), (2, 4), (8, 128)].map(|(ch, c)| SystemConfig::custom(ch, c)));
        let (mut shared_runs, mut fresh_runs) = (0, 0);
        for cfg in cfgs {
            for model in zoo::all() {
                let mut shared = System::new(cfg);
                for (rows, cols, _) in decode_step(&model, cfg.quant, 1).gemv_shape_census() {
                    let op = weight_gemv(rows, cols);
                    let mut fresh = System::new(cfg);
                    assert_eq!(
                        shared.op_cost(&op),
                        fresh.op_cost(&op),
                        "{model} {rows}x{cols} on {} {:?}",
                        cfg.name,
                        cfg.quant
                    );
                    fresh_runs += fresh.gemv_cache().channel_runs();
                }
                shared_runs += shared.gemv_cache().channel_runs();
            }
        }
        // The shared systems did recall runs, so the equality above
        // checked some.
        assert!(shared_runs < fresh_runs, "{shared_runs} vs {fresh_runs}");
    }

    #[test]
    fn op_shape_collapses_labels_and_kinds() {
        // Wq and Wo share a matrix shape; a softmax and a norm over the
        // same element count share SFU time. Both collapse.
        let a = DecodeOp::WeightGemv {
            label: "Wq",
            rows: 4096,
            cols: 4096,
        };
        let b = DecodeOp::WeightGemv {
            label: "Wo",
            rows: 4096,
            cols: 4096,
        };
        assert_eq!(OpShape::of(&a), OpShape::of(&b));
        let c = DecodeOp::Special {
            kind: llm_workload::SpecialKind::Softmax,
            elems: 77,
        };
        let d = DecodeOp::Special {
            kind: llm_workload::SpecialKind::Norm,
            elems: 77,
        };
        assert_eq!(OpShape::of(&c), OpShape::of(&d));
        assert_ne!(OpShape::of(&a), OpShape::of(&c));
    }

    #[test]
    fn op_cost_cache_memoizes_decode_stream() {
        let model = zoo::opt_6_7b();
        let mut sys = System::new(SystemConfig::cambricon_s());
        sys.decode_token(&model, 100);
        let ops_per_token = 32 * 13 + 2; // OPT-6.7B: 32 layers x 13 ops + norm + head
        let cache = sys.op_cost_cache();
        assert_eq!(cache.stats().lookups(), ops_per_token);
        // A dozen distinct shapes price the whole token.
        assert!(cache.misses() <= 12, "{}", cache.misses());
        assert_eq!(cache.len() as u64, cache.misses());
        assert!(cache.hits() > 300);
        // Replaying the token is pure recall.
        let misses_before = cache.misses();
        sys.decode_token(&model, 100);
        assert_eq!(sys.op_cost_cache().misses(), misses_before);
    }

    #[test]
    fn cached_op_cost_is_identical_to_derived() {
        let model = zoo::opt_13b();
        let step = decode_step(&model, Quant::W8A8, 500);
        let mut cold = System::new(SystemConfig::cambricon_s());
        let mut warm = System::new(SystemConfig::cambricon_s());
        for op in &step.ops {
            warm.op_cost(op);
        }
        for op in &step.ops {
            assert_eq!(cold.op_cost(op), warm.op_cost(op));
        }
    }

    #[test]
    fn planned_decode_matches_eager_decode() {
        use llm_workload::TokenPlan;
        let model = zoo::llama2_7b();
        let plan = TokenPlan::new(&model, Quant::W8A8);
        let mut a = System::new(SystemConfig::cambricon_s());
        let mut b = System::new(SystemConfig::cambricon_s());
        let eager = a.decode_token(&model, 777);
        let planned = b.decode_token_planned(&plan, 777);
        assert_eq!(eager, planned);
    }

    #[test]
    #[should_panic(expected = "quantization")]
    fn planned_decode_rejects_quant_mismatch() {
        use llm_workload::TokenPlan;
        let model = zoo::llama2_7b();
        let plan = TokenPlan::new(&model, Quant::W4A16);
        let mut sys = System::new(SystemConfig::cambricon_s());
        sys.decode_token_planned(&plan, 100);
    }
}
