//! The device component: one flash/NPU device's entire event loop.
//!
//! [`DeviceEngine`] owns everything that happens *inside* one device —
//! the request pool, ready queues, span coalescing, fault windows and
//! prefill holds. Traces are fed in from the outside (a whole trace for
//! a single device, a routed sub-trace per replica under
//! [`crate::fleet`]), and the device runs its own specialized event
//! core.
//!
//! One run's shared state — pool, event core, pricing table, fault
//! run, report accumulators — lives in a [`DeviceRun`], built once and
//! turned into the report once. Two event loops drive it:
//!
//! * [`Simulation`], the per-op loop for FCFS and round-robin. It is
//!   the reference semantics ([`SpanMode::PerOp`]) and, with spans on,
//!   the dispatcher for two fast paths: **solo spans**
//!   ([`DeviceRun::run_solo_span`]), which price a lone request's whole
//!   tokens with a few adds, and the **replay loop**
//!   ([`run_interleaved`]), which re-executes the multi-request steady
//!   state between arrivals without the event core or heaps.
//! * [`BatchedSimulation`], the continuous-batching loop, stepping the
//!   batch per plan position or, with spans on, in bulk-priced spans
//!   of whole batch steps.
//!
//! Everything here is an implementation detail of the serving model
//! documented on [`crate::serve`]; the public surface is
//! [`DeviceEngine`] (also named [`super::ServeEngine`]).

use crate::config::SystemConfig;
use crate::reliability::{FaultMode, FaultRun, WindowDraw};
use crate::system::{OpClass, PrefillCost, System, TrafficBreakdown};
use llm_workload::kv::kv_bytes_per_token;
use llm_workload::{
    ArrivalTrace, AttnPrefix, ModelSpec, OpCursor, PrefillPlan, RequestShape, TokenPlan,
};
use npu_sim::KvCache;
use sim_core::{Aggregate, BusyTracker, Samples, SimTime, SplitMix64};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use super::{PrefillMode, RequestReport, SchedulePolicy, ServeReport, SpanMode};

/// The scheduler's ready queues: per resource, a priority heap of the
/// requests whose next op is waiting for that resource.
///
/// Used by the per-op interleaving policies (FCFS, round-robin): every
/// arrival whose context fits in DRAM is admitted immediately and
/// enqueued here. The batched policy keeps its own FIFO admission
/// queue instead ([`BatchedSimulation`]). Entries carry the
/// active policy's priority key, computed **at enqueue time** — exact
/// because both policies' keys (FCFS arrival time, round-robin
/// last-scheduled stamp) cannot change while a request waits — so a
/// freed resource pops its winner in O(log n) instead of scanning.
#[derive(Debug, Default)]
pub(crate) struct RequestQueue {
    ready: [BinaryHeap<Reverse<(u64, u64)>>; 2],
}

impl RequestQueue {
    #[inline]
    fn enqueue(&mut self, class_slot: usize, key: u64, id: usize) {
        self.ready[class_slot].push(Reverse((key, id as u64)));
    }

    /// Removes and returns the waiting request minimizing `(key, id)`.
    #[inline]
    fn pop_min(&mut self, class_slot: usize) -> Option<usize> {
        let Reverse((_, id)) = self.ready[class_slot].pop()?;
        Some(id as usize)
    }

    /// Total requests waiting across both resources.
    fn len(&self) -> usize {
        self.ready.iter().map(BinaryHeap::len).sum()
    }

    /// Whether no request is waiting.
    fn is_empty(&self) -> bool {
        self.ready.iter().all(BinaryHeap::is_empty)
    }
}

/// A multi-request serving engine over one simulated device.
#[derive(Debug, Clone)]
pub struct DeviceEngine {
    cfg: SystemConfig,
    model: ModelSpec,
    /// Shared decode plan: one per engine, reused by every request of
    /// every run.
    plan: TokenPlan,
    /// Shared prefill aggregates, evaluated per `(prompt_len)` bucket
    /// when [`PrefillMode::Modeled`].
    prefill_plan: PrefillPlan,
    prefill: PrefillMode,
    span: SpanMode,
    faults: FaultMode,
}

impl DeviceEngine {
    /// An engine serving `model` on a device configured as `cfg`, with
    /// prefill off ([`PrefillMode::Off`] — the decode-only engine the
    /// goldens pin).
    pub fn new(cfg: SystemConfig, model: ModelSpec) -> Self {
        let plan = TokenPlan::new(&model, cfg.quant);
        let prefill_plan = PrefillPlan::new(&model, cfg.quant);
        DeviceEngine {
            cfg,
            model,
            plan,
            prefill_plan,
            prefill: PrefillMode::Off,
            span: SpanMode::default(),
            faults: FaultMode::Off,
        }
    }

    /// Sets the prefill mode for every subsequent run.
    pub fn with_prefill(mut self, mode: PrefillMode) -> Self {
        self.prefill = mode;
        self
    }

    /// The active prefill mode.
    pub fn prefill_mode(&self) -> PrefillMode {
        self.prefill
    }

    /// Sets the span-coalescing mode for every subsequent run.
    /// [`SpanMode::Coalesced`] (the default) is bit-identical to
    /// [`SpanMode::PerOp`] and only changes wall-clock speed; the
    /// per-op mode exists as the reference semantics and for pinning
    /// tests.
    ///
    /// # Panics
    ///
    /// Panics if the mode is `Coalesced { max_span: 0 }` — a span must
    /// hold at least one token (the misconfiguration is reported here,
    /// at the construction site, not at the first `run`).
    pub fn with_span_mode(mut self, mode: SpanMode) -> Self {
        mode.cap();
        self.span = mode;
        self
    }

    /// The active span-coalescing mode.
    pub fn span_mode(&self) -> SpanMode {
        self.span
    }

    /// Sets the fault-injection mode for every subsequent run.
    /// [`FaultMode::Off`] (the default) is bit-for-bit inert; with
    /// [`FaultMode::Injected`] every run samples seeded NAND read
    /// faults, enforces the configured deadlines, and fills
    /// [`ServeReport::reliability`].
    ///
    /// Span coalescing stays on under fault injection: a solo span
    /// draws each later token's fault window on a copy of the request's
    /// fault stream and commits it only when the token is accepted, so
    /// faulted runs stay bit-identical to [`SpanMode::PerOp`].
    pub fn with_faults(mut self, mode: FaultMode) -> Self {
        self.faults = mode;
        self
    }

    /// The active fault-injection mode.
    pub fn fault_mode(&self) -> FaultMode {
        self.faults
    }

    /// The system configuration this engine simulates.
    pub fn config(&self) -> SystemConfig {
        self.cfg
    }

    /// The model this engine serves.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// The shared decode plan every request of every run walks.
    pub fn plan(&self) -> &TokenPlan {
        &self.plan
    }

    /// Runs `trace` to completion under `policy` and reports fleet
    /// statistics. Deterministic: the same trace and policy always
    /// produce an identical report.
    ///
    /// # Panics
    ///
    /// Panics if `policy` is [`SchedulePolicy::ContinuousBatch`] with
    /// `max_batch == 0` (a batch must hold at least one request).
    pub fn run(&self, trace: &ArrivalTrace, policy: SchedulePolicy) -> ServeReport {
        self.run_with_system(trace, policy, System::new(self.cfg)).0
    }

    /// Runs `trace` on a caller-provided [`System`], using and
    /// extending the memoization state (GeMV cache, op-cost cache) it
    /// carries, and returns the system alongside the report.
    ///
    /// The Monte Carlo harness hands every seeded run a clone of one
    /// pre-warmed system, so the fixed pricing cost of a scenario is
    /// paid once instead of once per seed; [`DeviceEngine::run`] passes
    /// a fresh system, preserving the cold-cache reports the goldens
    /// pin (cache hit/miss counters included).
    pub(crate) fn run_with_system(
        &self,
        trace: &ArrivalTrace,
        policy: SchedulePolicy,
        system: System,
    ) -> (ServeReport, System) {
        match policy {
            SchedulePolicy::ContinuousBatch { max_batch } => {
                assert!(max_batch >= 1, "a batch must hold at least one request");
                BatchedSimulation::new(self, trace, max_batch, system).run()
            }
            _ => Simulation::new(self, trace, policy, system).run(),
        }
    }
}

/// Upper bound on seq-dependent cost slots per plan (both model
/// families have exactly three: scores, softmax, context). Sized with
/// one spare so a new attention template doesn't immediately overflow.
const MAX_DEP_SLOTS: usize = 4;

/// Per-plan pricing table: latencies and traffic by cost slot, so the
/// per-op dispatch path is an array index instead of an op
/// materialization plus cost derivation.
#[derive(Debug)]
struct PlanTable {
    /// Resource class of each plan position.
    classes: Vec<OpClass>,
    /// `slot(classes[idx])` per plan position — the resource index the
    /// interleaved fast loop reads per op (a load instead of a match).
    class_slots: Vec<u8>,
    /// Per-op dispatch latency in picoseconds for the fast loop, built
    /// once the invariant slots are priced: invariant positions carry
    /// their latency directly; seq-dependent positions carry
    /// `u64::MAX - dep_index` (never a real latency), telling the
    /// dispatcher to read the member's own attention pricing instead.
    fast_lat: Vec<u64>,
    /// Cost slot of each plan position.
    slots: Vec<u32>,
    /// Latency per seq-invariant slot (indices `0..n_inv`).
    inv_lat: Vec<SimTime>,
    n_inv: usize,
    n_dep: usize,
    /// Ops per token mapping to each invariant slot.
    inv_counts: Vec<u64>,
    /// Whether each invariant slot is a weight GeMV (flash class).
    inv_is_weight: Vec<bool>,
    /// Ops per token mapping to each seq-dependent slot.
    dep_counts: [u64; MAX_DEP_SLOTS],
    /// Serial per-token latency of the weight (flash) positions —
    /// `Σ inv_lat × count` over weight slots. One term of a solo span's
    /// token latency; filled by [`price_invariant`].
    solo_flash_lat: SimTime,
    /// Serial per-token latency of the invariant NPU positions (the
    /// attention slots are priced per sequence position on top).
    solo_npu_lat: SimTime,
    /// Traffic of one token's seq-invariant ops.
    inv_traffic: TrafficBreakdown,
    /// The shared-stream share of `inv_traffic`: NAND reads, in-flash
    /// consumption and the D2D weight share, which a batched step pays
    /// **once** for the whole batch.
    inv_stream_traffic: TrafficBreakdown,
    /// The per-request share of `inv_traffic` — each member's share of
    /// the GeMV arithmetic on both sides, plus KV appends, norms and
    /// activations: repeated per batch member.
    inv_request_traffic: TrafficBreakdown,
    /// Per-request NPU ops of each invariant slot's op (zero for
    /// non-weight slots): the operand of the batched NPU compute floor.
    inv_npu_ops: Vec<u64>,
    /// Per-request in-flash ops of each invariant slot's op (zero for
    /// non-weight slots): the operand of the batched flash-core floor.
    inv_flash_ops: Vec<u64>,
    /// Weight GeMVs per token (for GeMV-cache recall accounting).
    gemvs_per_token: u64,
    /// Whether the invariant slots have been priced yet (done lazily so
    /// an empty trace prices nothing, like the engine it replaced).
    priced: bool,
    /// Memoized cumulative attention prices by sequence position, grown
    /// on demand: pricing a position a second time (another member of a
    /// cohort, another span probe) is two table reads instead of three
    /// op-cost lookups, and a contiguous range prices as one
    /// prefix-sum difference. Segmented, so only positions requests
    /// actually visit are ever priced — the op-cost cache's miss count
    /// (a report field) sees exactly the per-op loop's derivations.
    attn: AttnPrefix<AttnPoint>,
}

/// One sequence position's attention prices, folded cumulatively in
/// [`PlanTable::attn`]: the per-dependent-slot op latency plus the
/// position's combined slot-count-scaled traffic.
#[derive(Debug, Clone, Default)]
struct AttnPoint {
    lat: [SimTime; MAX_DEP_SLOTS],
    traffic: TrafficBreakdown,
}

impl PlanTable {
    fn new(plan: &TokenPlan) -> Self {
        let classes: Vec<OpClass> = (0..plan.len())
            .map(|idx| OpClass::of(&plan.op_at(idx, 0)))
            .collect();
        let gemvs_per_token = plan.weight_ops_per_token() as u64;
        debug_assert_eq!(
            gemvs_per_token,
            classes.iter().filter(|c| **c == OpClass::Flash).count() as u64,
            "plan's weight positions disagree with the op classification"
        );
        let n_inv = plan.invariant_slots();
        let n_dep = plan.dependent_slots();
        assert!(
            n_dep <= MAX_DEP_SLOTS,
            "plan has {n_dep} seq-dependent slots; raise MAX_DEP_SLOTS"
        );
        let mut dep_counts = [0u64; MAX_DEP_SLOTS];
        for (d, count) in dep_counts.iter_mut().enumerate().take(n_dep) {
            *count = plan.slot_count(n_inv + d) as u64;
        }
        PlanTable {
            class_slots: classes.iter().map(|c| slot(*c) as u8).collect(),
            fast_lat: Vec::new(),
            classes,
            slots: (0..plan.len())
                .map(|idx| plan.cost_slot(idx) as u32)
                .collect(),
            inv_lat: vec![SimTime::ZERO; n_inv],
            n_inv,
            n_dep,
            inv_counts: (0..n_inv).map(|s| plan.slot_count(s) as u64).collect(),
            inv_is_weight: (0..n_inv).map(|s| plan.slot_is_weight(s)).collect(),
            dep_counts,
            solo_flash_lat: SimTime::ZERO,
            solo_npu_lat: SimTime::ZERO,
            inv_traffic: TrafficBreakdown::default(),
            inv_stream_traffic: TrafficBreakdown::default(),
            inv_request_traffic: TrafficBreakdown::default(),
            inv_npu_ops: vec![0; n_inv],
            inv_flash_ops: vec![0; n_inv],
            gemvs_per_token,
            priced: false,
            attn: AttnPrefix::new(),
        }
    }

    /// Builds [`PlanTable::fast_lat`] from the priced invariant slots.
    /// Idempotent; the invariant prices never change once set.
    fn build_fast_lat(&mut self) {
        if self.fast_lat.len() == self.slots.len() {
            return;
        }
        debug_assert!(self.priced, "fast_lat needs priced invariant slots");
        self.fast_lat = self
            .slots
            .iter()
            .map(|&s| {
                let s = s as usize;
                if s < self.n_inv {
                    let lat = self.inv_lat[s].as_picos();
                    debug_assert!(lat < DEP_LAT_MARK, "latency collides with dep marker");
                    lat
                } else {
                    u64::MAX - (s - self.n_inv) as u64
                }
            })
            .collect();
    }
}

/// `fast_lat` values at or above this are seq-dependent-slot markers
/// (`u64::MAX - dep_index`), not latencies.
const DEP_LAT_MARK: u64 = u64::MAX - MAX_DEP_SLOTS as u64;

/// Branch-layout hint: calling this marks the enclosing block cold, so
/// the replay loop's rare arms (one token boundary per `n_ops` events)
/// are laid out away from the hot op path.
#[cold]
#[inline(never)]
fn cold_mark() {}

/// Prices the attention slots at sequence position `seq` through the
/// table's prefix table and returns the position's per-slot latencies
/// plus its combined count-scaled traffic. First visit of a position
/// prices it through [`System::op_cost`] in ascending slot order —
/// exactly the calls (and therefore the cache misses) the per-op loop
/// makes — and every later visit is two adjacent prefix reads.
fn attn_at(
    system: &mut System,
    plan: &TokenPlan,
    table: &mut PlanTable,
    seq: usize,
) -> ([SimTime; MAX_DEP_SLOTS], TrafficBreakdown) {
    let n_inv = table.n_inv;
    let n_dep = table.n_dep;
    let dep_counts = table.dep_counts;
    table.attn.ensure(
        seq,
        seq + 1,
        AttnPoint::default(),
        &mut |pos| {
            let mut p = AttnPoint::default();
            for (d, &count) in dep_counts.iter().enumerate().take(n_dep) {
                let cost = system.op_cost(&plan.slot_op(n_inv + d, pos));
                p.lat[d] = cost.latency;
                p.traffic.absorb_scaled(&cost.traffic, count);
            }
            p
        },
        &mut |a, b| {
            for d in 0..MAX_DEP_SLOTS {
                a.lat[d] += b.lat[d];
            }
            a.traffic.absorb(&b.traffic);
        },
    );
    let (lo, hi) = table.attn.range(seq, seq + 1);
    let mut lat = [SimTime::ZERO; MAX_DEP_SLOTS];
    for (d, l) in lat.iter_mut().enumerate().take(n_dep) {
        *l = hi.lat[d] - lo.lat[d];
    }
    (lat, hi.traffic.difference(&lo.traffic))
}

/// Prices the seq-invariant slots once, filling the latency table and
/// both traffic views (serial total for the unbatched engines, the
/// stream/per-request split for batched steps). Lazy so an empty trace
/// prices nothing, like the engine it replaced.
fn price_invariant(system: &mut System, plan: &TokenPlan, table: &mut PlanTable) {
    if table.priced {
        return;
    }
    for s in 0..table.n_inv {
        let cost = system.op_cost(&plan.slot_op(s, 0));
        table.inv_lat[s] = cost.latency;
        let count = plan.slot_count(s) as u64;
        table.inv_traffic.absorb_scaled(&cost.traffic, count);
        if plan.slot_is_weight(s) {
            table.solo_flash_lat += cost.latency * count;
            // A weight slot's *weight bytes* (NAND stream, in-flash and
            // D2D consumption) are shared by a batch; everything else —
            // each member multiplying the streamed weights by its own
            // activations on both the flash cores and the NPU, and any
            // DRAM traffic a weight op might ever book — repeats per
            // member, same as the non-weight slots.
            table.inv_npu_ops[s] = cost.traffic.npu_ops;
            table.inv_flash_ops[s] = cost.traffic.flash_ops;
            let stream = TrafficBreakdown {
                nand_array_bytes: cost.traffic.nand_array_bytes,
                in_flash_bytes: cost.traffic.in_flash_bytes,
                d2d_bytes: cost.traffic.d2d_bytes,
                ..TrafficBreakdown::default()
            };
            let mut per_member = cost.traffic;
            per_member.nand_array_bytes = 0;
            per_member.in_flash_bytes = 0;
            per_member.d2d_bytes = 0;
            table.inv_stream_traffic.absorb_scaled(&stream, count);
            table.inv_request_traffic.absorb_scaled(&per_member, count);
        } else {
            table.solo_npu_lat += cost.latency * count;
            table
                .inv_request_traffic
                .absorb_scaled(&cost.traffic, count);
        }
    }
    table.priced = true;
}

/// Where a request sits in its lifecycle: the serving state machine
/// `Queued → Prefilling → Decoding → Done`. With [`PrefillMode::Off`]
/// (or an empty prompt) the `Prefilling` state is skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Admitted (or awaiting admission) with no work dispatched yet.
    Queued,
    /// The prefill stage holds the device (flash stream + NPU GeMMs).
    Prefilling,
    /// Emitting tokens through the shared [`TokenPlan`].
    Decoding,
    /// All tokens emitted; the request has left the engine.
    Done,
}

/// Per-request execution state, laid out struct-of-arrays.
///
/// The event loops scan a handful of fields per request on every
/// scheduling decision — the span boundary computation's min-remaining
/// scan, the batched walk's per-member sequence positions and attention
/// latencies, the round-robin recency keys — while the rest (arrival
/// stamps, report timestamps, client bindings) is touched only at
/// admission and completion. A `Vec` of one heterogeneous struct
/// strides those hot scans over the cold report fields; splitting the
/// loop-scanned fields into dense parallel arrays keeps each scan on a
/// contiguous lane of same-typed values. Pure layout change: every
/// site reads and writes the same values in the same order, so reports
/// are bit-identical to the array-of-structs engine (pinned by the
/// goldens and the span-equivalence suite).
#[derive(Debug, Default)]
struct RequestPool {
    /// Lifecycle phase (`Queued → Prefilling → Decoding → Done`).
    phase: Vec<Phase>,
    /// Decode tokens still owed — the operand of the span boundary
    /// computation's min-remaining scan.
    remaining: Vec<usize>,
    /// Position in the shared [`TokenPlan`] (carries the sequence
    /// length the batched walk reads per member per step).
    cursor: Vec<OpCursor>,
    /// Start of the token currently being decoded.
    token_started: Vec<SimTime>,
    /// Latencies of the current token's seq-dependent slots, refreshed
    /// at each token start.
    dep_lat: Vec<[SimTime; MAX_DEP_SLOTS]>,
    /// Monotone stamp of the last time a resource scheduled each
    /// request (round-robin recency key).
    last_scheduled: Vec<u64>,
    /// Per-request fault stream, forked from `fault_root` at push time
    /// (empty-state generators when faults are off — never drawn from).
    fault_rng: Vec<SplitMix64>,
    /// Fault-added picoseconds of the request's current token, consumed
    /// by its first flash dispatch or by the solo span that runs the
    /// token (always 0 with faults off).
    fault_extra: Vec<u64>,
    /// Root generator the per-request streams fork from; `None` (the
    /// default) when faults are off. Seeded before the trace loads so
    /// stream assignment follows push order — deterministic and
    /// policy-independent.
    fault_root: Option<SplitMix64>,
    /// The boundary-only half of each request's state.
    cold: Vec<ColdRequest>,
}

/// The cold half of a request's state: everything a [`RequestReport`]
/// needs that no inner loop scans.
#[derive(Debug)]
struct ColdRequest {
    shape: RequestShape,
    arrived: SimTime,
    started: Option<SimTime>,
    /// When the prefill stage completed (set iff one ran).
    prefill_end: Option<SimTime>,
    first_token: Option<SimTime>,
    /// Closed-loop client this request belongs to, if any.
    client: Option<usize>,
}

impl RequestPool {
    /// A pool with every parallel array sized for `n` requests up
    /// front, so the deep-queue regime (hundreds of queued arrivals,
    /// closed-loop respawns) never reallocates the hot arrays
    /// mid-loop. Capacity only — contents and push order are
    /// unchanged, so reports are bit-identical (pinned by the goldens).
    fn with_capacity(n: usize) -> Self {
        RequestPool {
            phase: Vec::with_capacity(n),
            remaining: Vec::with_capacity(n),
            cursor: Vec::with_capacity(n),
            token_started: Vec::with_capacity(n),
            dep_lat: Vec::with_capacity(n),
            last_scheduled: Vec::with_capacity(n),
            fault_rng: Vec::with_capacity(n),
            fault_extra: Vec::with_capacity(n),
            fault_root: None,
            cold: Vec::with_capacity(n),
        }
    }

    /// Appends a fresh request and returns its id. The single
    /// construction site for request state — shared by trace admission
    /// and the closed-loop respawn path inside the event loops.
    fn push(&mut self, shape: RequestShape, arrived: SimTime, client: Option<usize>) -> usize {
        let id = self.cold.len();
        debug_assert!(
            id < SPAN_BOUNDARY,
            "request ids collide with event sentinels"
        );
        self.phase.push(Phase::Queued);
        self.remaining.push(shape.new_tokens);
        self.cursor.push(OpCursor::new(shape.prompt_len));
        self.token_started.push(arrived);
        self.dep_lat.push([SimTime::ZERO; MAX_DEP_SLOTS]);
        self.last_scheduled.push(0);
        self.fault_rng.push(match &mut self.fault_root {
            Some(root) => root.fork(),
            // simlint: allow(D1) — placeholder stream for fault-free runs; never drawn from
            None => SplitMix64::new(0),
        });
        self.fault_extra.push(0);
        self.cold.push(ColdRequest {
            shape,
            arrived,
            started: None,
            prefill_end: None,
            first_token: None,
            client,
        });
        id
    }

    /// Tokens generated so far — the report-facing complement of
    /// [`RequestPool::remaining`].
    fn tokens_done(&self, id: usize) -> usize {
        self.cold[id].shape.new_tokens - self.remaining[id]
    }
}

/// The serving scheduler's event core.
///
/// A general priority queue is overkill here: each resource serves one
/// op at a time, so at most one completion is pending per resource, and
/// the only other event source is the arrival sequence. "Next event" is
/// therefore a three-way minimum over two slots and the arrival heap.
/// Ordering matches [`sim_core::EventQueue`] exactly: earliest
/// `(time, schedule_stamp)` wins, so simultaneous events fire in the
/// order they were scheduled (FIFO) and every run is deterministic.
#[derive(Debug, Default)]
struct EventCore {
    /// Pending op completion per resource: `(fires_at_ps, stamp, req)`.
    op_done: [Option<(u64, u64, u32)>; 2],
    /// Pending arrivals as `(time_ps, stamp, req)`, earliest first.
    arrivals: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Global schedule stamp (FIFO tie-break).
    stamp: u64,
    /// Timestamp of the most recently fired event.
    now: SimTime,
}

/// Which event source fired; see [`EventCore::pop`].
#[derive(Debug, Clone, Copy)]
enum Fired {
    /// Op completion on a resource slot, for a request.
    Op(usize, usize),
    /// Arrival of a request.
    Arrive(usize),
}

impl EventCore {
    /// A core whose arrival heap holds `n` pending arrivals without
    /// growing — an open trace schedules its whole arrival sequence up
    /// front, so sizing from the trace length keeps the heap's one
    /// allocation out of the event loop.
    fn with_capacity(n: usize) -> Self {
        EventCore {
            arrivals: BinaryHeap::with_capacity(n),
            ..EventCore::default()
        }
    }

    fn schedule_arrival(&mut self, at: SimTime, id: usize) {
        let stamp = self.stamp;
        self.stamp += 1;
        self.arrivals
            .push(Reverse((at.as_picos(), stamp, id as u32)));
    }

    #[inline]
    fn schedule_op(&mut self, class_slot: usize, at: SimTime, id: usize) {
        debug_assert!(self.op_done[class_slot].is_none(), "resource already busy");
        let stamp = self.stamp;
        self.stamp += 1;
        self.op_done[class_slot] = Some((at.as_picos(), stamp, id as u32));
    }

    /// Whether resource `class_slot` is serving an op.
    #[inline]
    fn busy(&self, class_slot: usize) -> bool {
        self.op_done[class_slot].is_some()
    }

    /// Earliest pending arrival's timestamp (picoseconds), if any —
    /// the next externally imposed scheduling boundary a coalesced
    /// span must respect.
    #[inline]
    fn next_arrival_ps(&self) -> Option<u64> {
        self.arrivals.peek().map(|&Reverse((at, _, _))| at)
    }

    /// Advances the schedule stamp by `n` without scheduling anything.
    /// Span fast-forwarding accounts for the per-op events it elides so
    /// stamp-based FIFO tie-breaking (and the round-robin recency keys
    /// derived from the sibling dispatch stamp) stay identical to
    /// per-op stepping.
    #[inline]
    fn bump_stamp(&mut self, n: u64) {
        self.stamp += n;
    }

    /// Pops an arrival scheduled for exactly `now`, if any — used by
    /// the batched scheduler to fold simultaneous arrivals (bursts,
    /// closed-loop respawns) into the token boundary being processed
    /// instead of making them wait out a full batch step. The clock is
    /// unchanged: only events at the current instant qualify.
    fn pop_due_arrival(&mut self, now: SimTime) -> Option<usize> {
        let &Reverse((at, _, req)) = self.arrivals.peek()?;
        if at != now.as_picos() {
            return None;
        }
        self.arrivals.pop();
        Some(req as usize)
    }

    /// Fires the earliest pending event, advancing the clock.
    #[inline]
    fn pop(&mut self) -> Option<Fired> {
        let mut best: Option<(u64, u64, Fired)> = None;
        for s in 0..2 {
            if let Some((at, stamp, req)) = self.op_done[s] {
                if best.map_or(true, |(bt, bs, _)| (at, stamp) < (bt, bs)) {
                    best = Some((at, stamp, Fired::Op(s, req as usize)));
                }
            }
        }
        if let Some(&Reverse((at, stamp, req))) = self.arrivals.peek() {
            if best.map_or(true, |(bt, bs, _)| (at, stamp) < (bt, bs)) {
                best = Some((at, stamp, Fired::Arrive(req as usize)));
            }
        }
        let (at, _, fired) = best?;
        debug_assert!(at >= self.now.as_picos(), "event core went back in time");
        self.now = SimTime::from_picos(at);
        match fired {
            Fired::Op(s, _) => self.op_done[s] = None,
            Fired::Arrive(_) => {
                self.arrivals.pop();
            }
        }
        Some(fired)
    }
}

/// One run's state shared by both event loops: the priced system and
/// plan table, the request pool and event core, the closed-loop
/// clients, the fault run, and every report accumulator. Built once by
/// [`DeviceRun::new`] and turned into the report once by
/// [`DeviceRun::finish`]; each loop adds only its own scheduling state.
struct DeviceRun<'a> {
    system: System,
    plan: &'a TokenPlan,
    table: PlanTable,
    /// Prefill simulation state: `Some` iff [`PrefillMode::Modeled`],
    /// holding the shared aggregates and the per-prompt-length cost
    /// buckets.
    prefill: Option<PrefillState<'a>>,
    ev: EventCore,
    requests: RequestPool,
    busy_track: [BusyTracker; 2],
    /// Remaining requests per closed-loop client.
    client_remaining: Vec<usize>,
    closed_shape: Option<RequestShape>,
    traffic: TrafficBreakdown,
    token_latencies: Samples,
    queueing: Aggregate,
    done: Vec<RequestReport>,
    /// Arrival time of the first *admitted* request — rejected
    /// arrivals are not simulated and must not stretch the makespan.
    first_arrival: Option<SimTime>,
    /// [`kv_cache`]`().max_tokens()`: arrivals whose context exceeds
    /// it are rejected, not simulated.
    kv_max_context: usize,
    kv_rejections: u64,
    /// Most tokens (or batch steps) one span may coalesce (0 = per-op
    /// stepping). Any nonzero cap also lets the interleaved replay loop
    /// ([`run_interleaved`]) take over multi-request steady stretches.
    span_cap: usize,
    /// Fault-injection state; `None` when [`FaultMode::Off`].
    faults: Option<FaultRun>,
    /// Every solo span run, as `(request, tokens coalesced, tokens the
    /// request owed at its start)`. Filled only in unit tests, which
    /// use it to see that a span engaged: reports cannot show that.
    solo_spans: Vec<(usize, usize, usize)>,
}

impl<'a> DeviceRun<'a> {
    /// Sets up a run of `trace` on `system`: the fault run, pool and
    /// event-core capacity, the per-request fault root, and the trace's
    /// requests and arrival events. Shared by both loops, so arrival
    /// order — and therefore event stamps — is identical regardless of
    /// policy.
    fn new(engine: &'a DeviceEngine, trace: &ArrivalTrace, mut system: System) -> Self {
        let faults = FaultRun::for_engine(&engine.faults, &engine.cfg, &mut system);
        let (total_requests, peak_arrivals) = trace_sizes(trace);
        let mut requests = RequestPool::with_capacity(total_requests);
        let mut ev = EventCore::with_capacity(peak_arrivals);
        if let Some(f) = &faults {
            // simlint: allow(D1) — fault root seeded from the config's own seed; per-request streams fork() from it
            requests.fault_root = Some(SplitMix64::new(f.seed()));
        }
        let (client_remaining, closed_shape) = match trace {
            ArrivalTrace::Open(arrivals) => {
                for a in arrivals {
                    let id = requests.push(a.shape, a.at, None);
                    ev.schedule_arrival(a.at, id);
                }
                (Vec::new(), None)
            }
            ArrivalTrace::ClosedLoop {
                clients,
                requests_per_client,
                shape,
            } => {
                // The variant's fields are public, so a hand-built trace
                // can bypass `ArrivalTrace::closed_loop`'s asserts.
                assert!(
                    *clients >= 1 && *requests_per_client >= 1,
                    "closed loop needs at least one client and one request per client"
                );
                for client in 0..*clients {
                    let id = requests.push(*shape, SimTime::ZERO, Some(client));
                    ev.schedule_arrival(SimTime::ZERO, id);
                }
                (vec![requests_per_client - 1; *clients], Some(*shape))
            }
        };
        DeviceRun {
            system,
            plan: &engine.plan,
            table: PlanTable::new(&engine.plan),
            prefill: PrefillState::new(engine),
            ev,
            requests,
            busy_track: [BusyTracker::new(), BusyTracker::new()],
            client_remaining,
            closed_shape,
            traffic: TrafficBreakdown::default(),
            token_latencies: Samples::new(),
            queueing: Aggregate::new(),
            done: Vec::new(),
            first_arrival: None,
            kv_max_context: kv_cache(engine).max_tokens(),
            kv_rejections: 0,
            span_cap: engine.span.cap(),
            faults,
            solo_spans: Vec::new(),
        }
    }

    /// Starts a token for request `id`: prices this token's
    /// seq-dependent slots (through the memoizing [`System::op_cost`])
    /// and books the whole token's traffic up front — totals at
    /// completion are identical to per-dispatch accounting because every
    /// admitted token runs all its ops. The cursor must already sit at
    /// the token's first op.
    fn begin_token(&mut self, id: usize) {
        let DeviceRun {
            system,
            plan,
            table,
            traffic,
            requests,
            faults,
            ..
        } = self;
        price_invariant(system, plan, table);
        traffic.absorb(&table.inv_traffic);
        let seq = requests.cursor[id].seq_len();
        let (dep_lat, dep_traffic) = attn_at(system, plan, table, seq);
        requests.dep_lat[id] = dep_lat;
        traffic.absorb(&dep_traffic);
        // Fault sampling at token granularity: the token's NAND weight
        // stream is the page-read window, drawn from the request's own
        // stream so reports are independent of interleaving order. The
        // extra time lands on the token's first flash dispatch.
        if let Some(f) = faults {
            let extra = f.window_extra(
                table.inv_stream_traffic.nand_array_bytes,
                table.solo_flash_lat.as_picos(),
                &mut requests.fault_rng[id],
            );
            requests.fault_extra[id] = extra;
        }
    }

    /// Completes `id` at `now`: marks it `Done`, assembles its report,
    /// scores it against the fault run's deadlines, and files the report
    /// and its queueing delay. The caller releases KV and respawns the
    /// client.
    fn complete_request(&mut self, id: usize, now: SimTime) {
        let requests = &mut self.requests;
        requests.phase[id] = Phase::Done;
        let c = &requests.cold[id];
        let started = c.started.expect("completed request never started");
        let report = RequestReport {
            id,
            arrived: c.arrived,
            started,
            prefill_end: c.prefill_end.unwrap_or(started),
            first_token_at: c.first_token.expect("completed request has tokens"),
            finished: now,
            tokens: requests.tokens_done(id),
        };
        if let Some(f) = &mut self.faults {
            f.note_completion(&report);
        }
        self.queueing.push(report.queueing_delay().as_secs_f64());
        self.done.push(report);
    }

    /// Closed-loop respawn: the client behind departing request `id`
    /// (completed, shed or rejected), if any, issues its next request
    /// at the same instant.
    fn respawn_client(&mut self, id: usize, now: SimTime) {
        if let Some(client) = self.requests.cold[id].client {
            if self.client_remaining[client] > 0 {
                self.client_remaining[client] -= 1;
                let shape = self.closed_shape.expect("closed loop has a shape");
                let next = self.requests.push(shape, now, Some(client));
                self.ev.schedule_arrival(now, next);
            }
        }
    }

    /// Charges `id`'s prefill stage and returns its latency: the
    /// prompt's cost (derived once per `(model, quant, prompt_len)`
    /// bucket — the engine fixes `(model, quant)`, so the key is the
    /// prompt length), stretched by the prompt's NAND read volume taken
    /// as one fault window, then booked as prefill busy time and
    /// traffic.
    fn charge_prefill(&mut self, id: usize) -> SimTime {
        let DeviceRun {
            system,
            prefill,
            requests,
            traffic,
            faults,
            ..
        } = self;
        let ps = prefill.as_mut().expect("prefill charged with prefill off");
        let m = requests.cold[id].shape.prompt_len;
        let plan = ps.plan;
        let cost = *ps
            .buckets
            .entry(m)
            .or_insert_with(|| system.prefill_cost(plan, m));
        let mut total = cost.total;
        if let Some(f) = faults {
            let extra = f.window_extra(
                cost.traffic.nand_array_bytes,
                cost.total.as_picos(),
                &mut requests.fault_rng[id],
            );
            if extra > 0 {
                total += SimTime::from_picos(extra);
            }
        }
        ps.busy += total;
        traffic.absorb(&cost.traffic);
        total
    }

    /// Assembles the report: rate, percentile, utilization and
    /// cache-recall arithmetic is identical across policies
    /// (zero-duration runs divide out to 0.0 everywhere), so a new
    /// report field or formula change lands in exactly one place. The
    /// loop supplies its own dispatch accounting (`ops_dispatched`
    /// without prefill, `gemv_dispatched`) and batch occupancy (zero for
    /// the per-op policies).
    fn finish(
        self,
        policy: SchedulePolicy,
        ops_dispatched: u64,
        gemv_dispatched: u64,
        occ_weighted_ps: u128,
        peak_batch_occupancy: usize,
    ) -> (ServeReport, System) {
        let DeviceRun {
            system,
            prefill,
            busy_track,
            traffic,
            mut token_latencies,
            queueing,
            done,
            first_arrival,
            kv_rejections,
            faults,
            ..
        } = self;
        // Op-pricing accounting, in dispatched-op terms: each distinct
        // canonical shape was derived once (a cache miss), and every
        // other dispatch replayed a memoized cost through the slot
        // table, so hits + misses partition the dispatched ops exactly.
        // Prefill pricing contributes its component lookups once per
        // prompt-length bucket.
        let (prefill_priced, prefill_busy) = prefill
            .as_ref()
            .map_or((0, SimTime::ZERO), |p| (p.priced(), p.busy));
        let ops_dispatched = ops_dispatched + prefill_priced * PrefillCost::COMPONENT_OPS;
        // Fault counters (all-zero default when faults were off); the
        // goodput rate is derived below, where the horizon is known.
        let mut reliability = faults.as_ref().map(FaultRun::summary).unwrap_or_default();
        // TTFT in both frames: arrival-relative (queue + prefill + first
        // decoded token — the user-visible number) and the old decode-only
        // metric, kept side by side so neither masquerades as the other.
        let mut ttft = Samples::new();
        let mut decode_ttft = Aggregate::new();
        for r in &done {
            ttft.push(r.ttft().as_secs_f64());
            decode_ttft.push(r.decode_ttft().as_secs_f64());
        }
        // Span of actual service: first admitted arrival to last
        // completion. Rejected arrivals advance the event clock but are
        // not simulated, so they must not stretch the makespan or dilute
        // the rates, utilizations and occupancy derived from it.
        let makespan = match (first_arrival, done.last()) {
            (Some(first), Some(last)) => last.finished.saturating_sub(first),
            _ => SimTime::ZERO,
        };
        let mean_batch_occupancy = if makespan > SimTime::ZERO {
            // simlint: allow(D5) — report boundary: integer ps accounting ends here, both operands exact
            occ_weighted_ps as f64 / makespan.as_picos() as f64
        } else {
            0.0
        };
        let tokens_served: u64 = done.iter().map(|r| r.tokens as u64).sum();
        let horizon = makespan.as_secs_f64();
        if horizon > 0.0 {
            reliability.deadline_goodput_tps = reliability.goodput_tokens as f64 / horizon;
        }
        let op_misses = system.op_cost_cache().misses();
        let gemv_misses = system.gemv_cache().misses();
        let report = ServeReport {
            policy,
            prefill: if prefill.is_some() {
                PrefillMode::Modeled
            } else {
                PrefillMode::Off
            },
            requests_served: done.len(),
            tokens_served,
            makespan,
            tokens_per_sec: if horizon > 0.0 {
                tokens_served as f64 / horizon
            } else {
                0.0
            },
            p50_token_latency_s: token_latencies.percentile(50.0).unwrap_or(0.0),
            p99_token_latency_s: token_latencies.percentile(99.0).unwrap_or(0.0),
            mean_token_latency_s: token_latencies.mean().unwrap_or(0.0),
            ttft_p50_s: ttft.percentile(50.0).unwrap_or(0.0),
            ttft_p99_s: ttft.percentile(99.0).unwrap_or(0.0),
            ttft_mean_s: ttft.mean().unwrap_or(0.0),
            decode_ttft_s: decode_ttft,
            prefill_busy_s: prefill_busy.as_secs_f64(),
            queueing_delay_s: queueing,
            flash_utilization: busy_track[0].utilization(makespan),
            npu_utilization: busy_track[1].utilization(makespan),
            gemv_cache_hits: gemv_dispatched.saturating_sub(gemv_misses),
            gemv_cache_misses: gemv_misses,
            op_cost_cache_hits: ops_dispatched.saturating_sub(op_misses),
            op_cost_cache_misses: op_misses,
            mean_batch_occupancy,
            peak_batch_occupancy,
            kv_rejections,
            traffic,
            reliability,
            requests: done,
        };
        (report, system)
    }
}

/// Shared prefill-pricing state of one simulation run.
#[derive(Debug)]
struct PrefillState<'a> {
    plan: &'a PrefillPlan,
    /// Cost per prompt length, derived once per bucket. The bucket
    /// count is also the derivation count for op-pricing accounting.
    buckets: BTreeMap<usize, PrefillCost>,
    /// Total device time spent prefilling.
    busy: SimTime,
}

impl<'a> PrefillState<'a> {
    fn new(engine: &'a DeviceEngine) -> Option<Self> {
        match engine.prefill {
            PrefillMode::Off => None,
            PrefillMode::Modeled => Some(PrefillState {
                plan: &engine.prefill_plan,
                buckets: BTreeMap::new(),
                busy: SimTime::ZERO,
            }),
        }
    }

    /// Prompt-length buckets actually derived (each one made
    /// [`PrefillCost::COMPONENT_OPS`] op-cost lookups).
    fn priced(&self) -> u64 {
        self.buckets.len() as u64
    }
}

fn slot(class: OpClass) -> usize {
    match class {
        OpClass::Flash => 0,
        OpClass::Npu => 1,
    }
}

/// Event-core sentinel: the NPU-side hold of an in-flight prefill. A
/// prefill occupies both resources; its completion event lives on the
/// flash slot (owned by the prefilling request) and this sentinel
/// parks the NPU slot for the same window, firing as a no-op release.
const PREFILL_HOLD: usize = u32::MAX as usize - 1;

/// Event-core sentinel for the batched loop's admission-prefill window:
/// the serialized prefills of newly joined members, after which the
/// delayed batch step starts.
const BATCH_PREFILL: usize = u32::MAX as usize - 2;

/// Event-core sentinel for a coalesced span's end in the batched loop:
/// the token boundary closing a bulk-priced run of batch steps, handled
/// by the ordinary [`BatchedSimulation::token_boundary`].
const SPAN_BOUNDARY: usize = u32::MAX as usize - 3;

/// Sizing hints a trace implies: `(total requests over the run, peak
/// simultaneously scheduled arrivals)` — the capacities
/// [`RequestPool::with_capacity`] and [`EventCore::with_capacity`]
/// reserve before the loop starts. A closed loop holds at most one
/// scheduled arrival per client (respawns replace completions), while
/// an open trace schedules everything up front.
fn trace_sizes(trace: &ArrivalTrace) -> (usize, usize) {
    match trace {
        ArrivalTrace::Open(arrivals) => (arrivals.len(), arrivals.len()),
        ArrivalTrace::ClosedLoop {
            clients,
            requests_per_client,
            ..
        } => (clients.saturating_mul(*requests_per_client), *clients),
    }
}

/// The DRAM KV cache for this engine's model and quantization — the
/// single source of capacity truth: its `max_tokens()` is the
/// never-fits rejection criterion every policy shares, and the batched
/// loop additionally reserves and releases context through it.
fn kv_cache(engine: &DeviceEngine) -> KvCache {
    KvCache::new(
        kv_bytes_per_token(&engine.model, engine.cfg.quant),
        &engine.cfg.npu,
    )
}

/// Retires one token for `r` at boundary time `tb`: the count, the
/// latency sample (clocked from `token_started`, which may predate the
/// token for a request's first — queue wait and prefill are in the
/// first token's latency under every policy), the clock reset and the
/// first-token stamp. The **single** definition of per-token retire
/// bookkeeping, shared by both per-token handlers and both span paths —
/// span/per-op bit-exactness requires these four sites to agree, so
/// the agreement is structural rather than copy-discipline.
#[inline]
fn retire_token(requests: &mut RequestPool, id: usize, tb: SimTime, token_latencies: &mut Samples) {
    requests.remaining[id] -= 1;
    token_latencies.push(tb.saturating_sub(requests.token_started[id]).as_secs_f64());
    requests.token_started[id] = tb;
    let first = &mut requests.cold[id].first_token;
    if first.is_none() {
        *first = Some(tb);
    }
}

/// Deadline check at a token boundary, shared by both event loops:
/// returns whether the in-flight request `id` must be shed at `now`,
/// updating the fault counters. Checks are strict (`>`): a request
/// finishing exactly on its deadline meets it. A request whose tokens
/// are all done is never shed — late completions are penalized through
/// goodput scoring instead, so the completion path stays the only exit
/// for finished work.
fn deadline_shed(f: &mut FaultRun, requests: &RequestPool, id: usize, now: SimTime) -> bool {
    if requests.remaining[id] == 0 {
        return false;
    }
    let elapsed = now.saturating_sub(requests.cold[id].arrived);
    // The TTFT check fires exactly once, at the first token's boundary.
    if requests.tokens_done(id) == 1 {
        if let Some(dl) = f.ttft_deadline() {
            if elapsed > dl {
                f.ttft_timeouts += 1;
                f.shed_tokens += requests.tokens_done(id) as u64;
                return true;
            }
        }
    }
    if let Some(dl) = f.total_deadline() {
        if elapsed > dl {
            f.deadline_sheds += 1;
            f.shed_tokens += requests.tokens_done(id) as u64;
            return true;
        }
    }
    false
}

/// The earliest absolute instant (picoseconds) at which
/// [`deadline_shed`] could still shed the in-flight request `id`: its
/// total deadline, and its TTFT deadline while no token has retired.
/// `None` when neither applies. A span must end at the first token
/// boundary at or after this instant so the boundary's shed check runs
/// there; every earlier boundary lands strictly before each deadline,
/// where the strict check cannot fire.
fn deadline_ps(f: &FaultRun, requests: &RequestPool, id: usize) -> Option<u64> {
    let arrived = requests.cold[id].arrived;
    let total = f.total_deadline().map(|d| (arrived + d).as_picos());
    let ttft = f
        .ttft_deadline()
        .filter(|_| requests.cold[id].first_token.is_none())
        .map(|d| (arrived + d).as_picos());
    total.into_iter().chain(ttft).min()
}

impl DeviceRun<'_> {
    /// Span fast-forwarding for the per-op loop: coalesces a run of
    /// whole tokens for the **lone** in-flight request `id`, which must
    /// be parked at a token boundary (cursor at op 0, its current token
    /// already priced and booked by [`DeviceRun::begin_token`]). With
    /// nothing else in flight the request's ops run strictly serially,
    /// so a token's latency is the sum of the plan's slot latencies —
    /// the seq-invariant positions from the [`PlanTable`], the attention
    /// positions at the token's own sequence position — and a run of `k`
    /// tokens is priced in the exact per-token order without touching
    /// the event machinery.
    ///
    /// The span ends at the earliest scheduling boundary: the request's
    /// completion, a forced span cap, the first token boundary at or
    /// after one of its deadlines ([`deadline_ps`]), or the **last token
    /// boundary at or before the next arrival** — a token an arrival
    /// would land inside must run per-op, because the newcomer starts
    /// interleaving on the free resource mid-token. Returns the number
    /// of tokens coalesced; 0 means the very next token would cross an
    /// arrival and the caller must fall back to per-op dispatch for it.
    ///
    /// Under fault injection each token carries its fault window's extra
    /// flash time. The first token's was drawn (and committed) by
    /// `begin_token`; each later token draws on a copy of the request's
    /// fault stream and commits the draw — counters, degradation, and
    /// the advanced stream — only once the token is accepted. A rejected
    /// token's draw is dropped, so its own `begin_token` later draws the
    /// identical window from the untouched stream.
    ///
    /// The final token's last op becomes the span-end event, so the
    /// ordinary completion handler retires it (sample, completion
    /// report, respawn) exactly as in per-op stepping. Elided per-op
    /// dispatches are accounted into both schedule stamps (the event
    /// core's and the loop's dispatch `stamp`) so round-robin recency
    /// keys and FIFO tie-breaks stay identical.
    fn run_solo_span(&mut self, stamp: &mut u64, id: usize, now: SimTime) -> usize {
        let DeviceRun {
            system,
            plan,
            table,
            ev,
            requests,
            busy_track,
            traffic,
            token_latencies,
            span_cap,
            faults,
            ..
        } = self;
        debug_assert!(table.priced, "a begun token implies a priced table");
        debug_assert_eq!(
            requests.cursor[id].index(),
            0,
            "span starts at a token boundary"
        );
        let n_ops = plan.len();
        let next_arrival = ev.next_arrival_ps();
        let remaining = requests.remaining[id];
        let mut lats: Vec<SimTime> = Vec::with_capacity(remaining.min(*span_cap).min(4096));
        let mut t = now;
        let mut k = 0usize;
        // Attention latencies of the token under consideration. The first
        // token's were already priced (and its traffic booked) by
        // `begin_token`; later tokens are priced speculatively below and
        // booked only on acceptance — a rejected token is re-priced by its
        // own `begin_token` later, hitting the memo.
        let mut dep = requests.dep_lat[id];
        let mut unbooked: Option<TrafficBreakdown> = None;
        // Fault time of the token under consideration, and the uncommitted
        // draw (with its advanced stream) behind it for every token but the
        // first.
        let mut extra = requests.fault_extra[id];
        let mut uncommitted: Option<(WindowDraw, SplitMix64)> = None;
        let mut span_fault_extra = 0u64;
        let deadline = faults.as_ref().and_then(|f| deadline_ps(f, requests, id));
        loop {
            let mut lat = table.solo_flash_lat + table.solo_npu_lat + SimTime::from_picos(extra);
            for (d, &dep_lat) in dep.iter().enumerate().take(table.n_dep) {
                lat += dep_lat * table.dep_counts[d];
            }
            let end = t + lat;
            if next_arrival.is_some_and(|ta| end.as_picos() > ta) {
                // The token would overlap the arrival: leave it per-op.
                break;
            }
            if let Some(tr) = unbooked.take() {
                // Book the accepted token exactly as `begin_token` would
                // have at its start.
                traffic.absorb(&table.inv_traffic);
                traffic.absorb(&tr);
            }
            if let Some((draw, rng)) = uncommitted.take() {
                faults
                    .as_mut()
                    .expect("a draw implies faults on")
                    .commit_window(&draw);
                requests.fault_rng[id] = rng;
            }
            span_fault_extra += extra;
            k += 1;
            t = end;
            lats.push(lat);
            if k == remaining || k >= *span_cap {
                break;
            }
            if next_arrival == Some(t.as_picos()) {
                // An arrival lands exactly on this boundary; it must see
                // the engine at the boundary, so the span stops here.
                break;
            }
            if deadline.is_some_and(|dl| t.as_picos() >= dl) {
                // First boundary at or after a deadline: stop so the
                // ordinary boundary handler's shed check runs.
                break;
            }
            // Price the next token's attention slots (speculative; the
            // prefix table keeps the entries either way, and a rejected
            // token's position is re-read — not re-priced — by its own
            // `begin_token` later).
            let seq = requests.cursor[id].seq_len() + k;
            let (lat, tr) = attn_at(system, plan, table, seq);
            dep = lat;
            unbooked = Some(tr);
            // Its fault window, drawn speculatively on a stream copy.
            if let Some(f) = faults.as_ref() {
                let mut rng = requests.fault_rng[id].clone();
                let draw = f.sample_window(
                    table.inv_stream_traffic.nand_array_bytes,
                    table.solo_flash_lat.as_picos(),
                    &mut rng,
                );
                extra = draw.extra();
                uncommitted = Some((draw, rng));
            }
        }
        if k == 0 {
            return 0;
        }
        if cfg!(test) {
            self.solo_spans.push((id, k, remaining));
        }
        // The first token's fault time is spent inside the span.
        requests.fault_extra[id] = 0;
        // Per-op bookkeeping the span elides: one dispatch (and one event
        // stamp) per op of every coalesced token.
        let elided = (k * n_ops) as u64;
        *stamp += elided;
        requests.last_scheduled[id] = *stamp;
        let started = &mut requests.cold[id].started;
        if started.is_none() {
            *started = Some(now);
        }
        // Interior boundaries: every token but the last retires inline.
        let mut tb = now;
        for &lat in &lats[..k - 1] {
            tb += lat;
            retire_token(requests, id, tb, token_latencies);
        }
        // Advance the cursor past the retired tokens in one shot, then
        // park it one op short of the final token's end so the ordinary
        // completion handler's advance lands on the token boundary.
        requests.cursor[id].advance_by(k - 1);
        requests.cursor[id].seek(n_ops - 1);
        // One busy interval per resource for the whole span: the per-class
        // totals are identical to per-op interval accounting (integer
        // sums), and each interval ends before the span does. Fault time
        // is flash time: rereads occupy the flash device.
        let flash_busy = table.solo_flash_lat * k as u64 + SimTime::from_picos(span_fault_extra);
        busy_track[0].add_interval(now, now + flash_busy);
        busy_track[1].add_interval(now, now + ((t - now) - flash_busy));
        ev.schedule_op(slot(table.classes[n_ops - 1]), t, id);
        ev.bump_stamp(elided - 1);
        k
    }
}

/// Ready-set interface of the interleaved replay loop
/// ([`run_interleaved`]): a policy-specialized stand-in for
/// [`RequestQueue`] whose operations avoid per-op heap churn.
///
/// Implementations must reproduce `RequestQueue`'s pop order exactly
/// under the replay loop's **fixed-membership discipline**: the member
/// set is frozen at entry (only members and their re-enqueues flow
/// through), and each policy's key law holds — FCFS keys are static
/// per member, round-robin keys strictly increase along each enqueue
/// source.
trait FastReady {
    /// Whether a member popped as the minimum stays the minimum for as
    /// long as the member set and every key are unchanged (true for
    /// FCFS, whose keys are static; false for round-robin, whose
    /// rotation re-keys every dispatch). Inside a frozen-membership
    /// stretch this licenses redispatching the completing member
    /// without touching the ready structure.
    const RETAINS_MIN: bool;
    /// Queues member `id` for resource `rs`. `src` is the resource
    /// whose completion triggered the enqueue and `key` the policy key
    /// at enqueue time (what the general loop's `ready_key` computes).
    fn enqueue(&mut self, rs: usize, src: usize, key: u64, id: u32);
    /// Removes and returns the queued member minimizing `(key, id)`
    /// for `rs` — the [`RequestQueue::pop_min`] contract.
    fn pop_min(&mut self, rs: usize) -> Option<u32>;
    /// Entry: drains the general loop's heaps into the ready set (the
    /// in-flight ops of `ev` complete the member set) and returns the
    /// queued count per resource.
    fn begin(
        &mut self,
        ready: &mut RequestQueue,
        ev: &EventCore,
        requests: &RequestPool,
    ) -> [usize; 2];
    /// Exit: pushes the still-queued members back into the heaps with
    /// the keys the general loop would have given them, and resets the
    /// set for the next entry.
    fn finish(&mut self, ready: &mut RequestQueue, requests: &RequestPool);
}

/// FCFS ready-set for the replay loop: arrival keys are static, so the
/// members are ranked once at entry (ascending `(arrived, id)` — the
/// heap's exact order) and each resource's ready set is a rank-indexed
/// bitmask. Pop-min is a trailing-zeros scan; enqueue sets one bit.
#[derive(Debug, Default)]
struct FcfsReady {
    /// Member id per rank.
    order: Vec<u32>,
    /// id → rank, dense over the request pool. Member entries are
    /// reset at writeback; anything else is never read.
    rank: Vec<u32>,
    /// Rank-indexed ready bits per resource.
    mask: [Vec<u64>; 2],
    /// Entry scratch: `(key, id)` of every member, heap order.
    members: Vec<(u64, u32)>,
    /// Entry scratch: `(resource, id)` of the initially queued members.
    queued: Vec<(u8, u32)>,
}

impl FastReady for FcfsReady {
    const RETAINS_MIN: bool = true;

    /// Drains the heaps, ranks every member (queued and in-flight),
    /// and seeds the masks. Returns the queued count per resource.
    fn begin(
        &mut self,
        ready: &mut RequestQueue,
        ev: &EventCore,
        requests: &RequestPool,
    ) -> [usize; 2] {
        debug_assert!(self.order.is_empty() && self.members.is_empty());
        let mut n = [0usize; 2];
        for (rs, count) in n.iter_mut().enumerate() {
            while let Some(Reverse((key, id))) = ready.ready[rs].pop() {
                self.members.push((key, id as u32));
                self.queued.push((rs as u8, id as u32));
                *count += 1;
            }
        }
        for slot_ev in &ev.op_done {
            if let Some((_, _, id)) = *slot_ev {
                self.members
                    .push((requests.cold[id as usize].arrived.as_picos(), id));
            }
        }
        self.members.sort_unstable();
        if self.rank.len() < requests.phase.len() {
            self.rank.resize(requests.phase.len(), u32::MAX);
        }
        for (r, &(_, id)) in self.members.iter().enumerate() {
            self.rank[id as usize] = r as u32;
            self.order.push(id);
        }
        let words = self.members.len().div_ceil(64);
        for m in &mut self.mask {
            m.clear();
            m.resize(words, 0);
        }
        for i in 0..self.queued.len() {
            let (rs, id) = self.queued[i];
            let r = self.rank[id as usize] as usize;
            self.mask[rs as usize][r / 64] |= 1u64 << (r % 64);
        }
        n
    }

    /// Pushes the still-queued members back into the heaps (their keys
    /// are static, so re-push order is irrelevant to pop order) and
    /// resets the member ranks for the next entry.
    fn finish(&mut self, ready: &mut RequestQueue, requests: &RequestPool) {
        for rs in 0..2 {
            for w in 0..self.mask[rs].len() {
                let mut word = self.mask[rs][w];
                while word != 0 {
                    let r = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let id = self.order[r] as usize;
                    ready.enqueue(rs, requests.cold[id].arrived.as_picos(), id);
                }
            }
            self.mask[rs].clear();
        }
        for &id in &self.order {
            self.rank[id as usize] = u32::MAX;
        }
        self.order.clear();
        self.members.clear();
        self.queued.clear();
    }

    #[inline]
    fn enqueue(&mut self, rs: usize, _src: usize, _key: u64, id: u32) {
        let r = self.rank[id as usize] as usize;
        debug_assert_ne!(r, u32::MAX as usize, "enqueue of a non-member");
        self.mask[rs][r / 64] |= 1u64 << (r % 64);
    }

    #[inline]
    fn pop_min(&mut self, rs: usize) -> Option<u32> {
        for (w, word) in self.mask[rs].iter_mut().enumerate() {
            if *word != 0 {
                let b = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some(self.order[w * 64 + b]);
            }
        }
        None
    }
}

/// One ascending FIFO lane of the round-robin replay ready-set: a
/// power-of-two ring whose front key is cached in a register-friendly
/// field (`u64::MAX` when empty), so the three-way pop-min compares
/// three plain loads. Head and tail grow monotonically and are masked
/// on access; live entries never exceed the member count the ring was
/// sized for.
#[derive(Debug, Default)]
struct RrLane {
    key: Vec<u64>,
    id: Vec<u32>,
    head: usize,
    tail: usize,
    mask: usize,
    /// Key at the head, `u64::MAX` when empty. Real keys are dispatch
    /// stamps (bounded by the dispatch count), never `u64::MAX`.
    front: u64,
}

impl RrLane {
    fn reset(&mut self, cap: usize) {
        let cap = cap.next_power_of_two().max(4);
        if self.key.len() < cap {
            self.key.resize(cap, 0);
            self.id.resize(cap, 0);
        }
        self.mask = self.key.len() - 1;
        self.head = 0;
        self.tail = 0;
        self.front = u64::MAX;
    }

    #[inline]
    fn push(&mut self, key: u64, id: u32) {
        debug_assert!(self.tail - self.head <= self.mask, "lane overflow");
        debug_assert!(
            self.head == self.tail || key >= self.key[(self.tail - 1) & self.mask],
            "lane keys must ascend"
        );
        if self.head == self.tail {
            self.front = key;
        }
        let t = self.tail & self.mask;
        self.key[t] = key;
        self.id[t] = id;
        self.tail += 1;
    }

    #[inline]
    fn pop(&mut self) -> u32 {
        debug_assert!(self.head < self.tail, "pop of an empty lane");
        let h = self.head & self.mask;
        let v = self.id[h];
        self.head += 1;
        self.front = if self.head == self.tail {
            u64::MAX
        } else {
            self.key[self.head & self.mask]
        };
        v
    }
}

/// Round-robin ready-set for the replay loop. Keys are last-scheduled
/// stamps, which strictly increase along each of the three enqueue
/// sources — the entry drain arrives heap-sorted, and each resource
/// completes ops in dispatch-stamp order, so its completions enqueue
/// ascending keys. Three ascending FIFO lanes per resource therefore
/// replace the heap, and pop-min is a three-way cached-front
/// comparison. Fresh never-scheduled members share key 0, but only the
/// (sorted) entry lane can hold them, so cross-lane ties cannot occur.
#[derive(Debug, Default)]
struct RrReady {
    /// `lanes[rs][src]`: src 0 = entry drain, 1 = fed by flash
    /// completions, 2 = fed by NPU completions.
    lanes: [[RrLane; 3]; 2],
}

impl FastReady for RrReady {
    const RETAINS_MIN: bool = false;

    /// Drains the heaps into the entry lanes (pop order is ascending
    /// `(key, id)`) and sizes every lane for the member count. Returns
    /// the queued count per resource.
    fn begin(&mut self, ready: &mut RequestQueue, _: &EventCore, _: &RequestPool) -> [usize; 2] {
        let members = ready.ready[0].len() + ready.ready[1].len() + 2;
        let mut n = [0usize; 2];
        for (rs, count) in n.iter_mut().enumerate() {
            for lane in &mut self.lanes[rs] {
                debug_assert_eq!(lane.head, lane.tail);
                lane.reset(members);
            }
            while let Some(Reverse((key, id))) = ready.ready[rs].pop() {
                self.lanes[rs][0].push(key, id as u32);
                *count += 1;
            }
        }
        n
    }

    /// Pushes the still-queued members back into the heaps. Each entry
    /// keeps the key it was enqueued with — its last-scheduled stamp,
    /// unchanged while queued — so heap keys match the general loop's.
    fn finish(&mut self, ready: &mut RequestQueue, _: &RequestPool) {
        for rs in 0..2 {
            for lane in &mut self.lanes[rs] {
                while lane.head < lane.tail {
                    let h = lane.head & lane.mask;
                    ready.enqueue(rs, lane.key[h], lane.id[h] as usize);
                    lane.head += 1;
                }
                lane.front = u64::MAX;
            }
        }
    }

    #[inline]
    fn enqueue(&mut self, rs: usize, src: usize, key: u64, id: u32) {
        self.lanes[rs][src + 1].push(key, id);
    }

    #[inline]
    fn pop_min(&mut self, rs: usize) -> Option<u32> {
        let lanes = &mut self.lanes[rs];
        // Keys are globally unique dispatch stamps (the shared key 0 of
        // fresh members lives only in the sorted entry lane), so strict
        // comparison is total and tie handling is moot.
        let mut best = 0usize;
        let mut bk = lanes[0].front;
        if lanes[1].front < bk {
            best = 1;
            bk = lanes[1].front;
        }
        if lanes[2].front < bk {
            best = 2;
            bk = lanes[2].front;
        }
        if bk == u64::MAX {
            return None;
        }
        Some(lanes[best].pop())
    }
}

/// The per-policy replay structures, chosen once per run.
// One long-lived stack local per run; the six-ring round-robin
// variant's size is irrelevant there and boxing it would put a deref
// on every ready-set call in the hot loop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum FastLane {
    Fcfs(FcfsReady),
    Rr(RrReady),
}

/// Whether the general loop may hand control to [`run_interleaved`]:
/// the next event to fire must be an op completion (not an arrival)
/// belonging to a `Decoding` request, and — when prefill is modeled —
/// no queued member may be awaiting a prefill (the replay loop has no
/// whole-device dispatch path). Exact, not heuristic: any state this
/// rejects is handled by the general loop, which re-checks after every
/// event.
fn replay_eligible(
    ev: &EventCore,
    ready: &RequestQueue,
    requests: &RequestPool,
    prefill_on: bool,
) -> bool {
    let mut best: Option<(u64, u64)> = None;
    for slot_ev in &ev.op_done {
        if let Some((at, st, id)) = *slot_ev {
            let id = id as usize;
            if id == PREFILL_HOLD || requests.phase[id] != Phase::Decoding {
                return false;
            }
            if best.map_or(true, |b| (at, st) < b) {
                best = Some((at, st));
            }
        }
    }
    let Some(best) = best else {
        return false;
    };
    if let Some(&Reverse((at, st, _))) = ev.arrivals.peek() {
        if (at, st) < best {
            return false;
        }
    }
    if prefill_on {
        for heap in &ready.ready {
            for &Reverse((_, id)) in heap.iter() {
                if requests.phase[id as usize] != Phase::Decoding {
                    return false;
                }
            }
        }
    }
    true
}

/// The interleaved replay loop: executes the multi-request steady
/// state — every live request decoding, arrivals quiescent — as a
/// faithful specialized replica of the general event loop, firing op
/// completions and dispatching through a [`FastReady`] instead of the
/// event core and heaps. Every decision point is replayed in the same
/// order with the same keys and stamps, so the trajectory (dispatch
/// order, busy intervals, fault draws, retire times, completion
/// reports) is bit-identical by construction; what's elided is pure
/// mechanism — heap rebalancing, arrival re-peeks, sentinel and phase
/// checks that the entry conditions ([`replay_eligible`]) already
/// discharged for the whole stretch.
///
/// Drains `ready` into `q` on entry and runs until the next event is an
/// arrival (a scheduling boundary the general loop owns: admission, KV
/// rejection, prefill entry), the event core drains, or a token
/// boundary leaves both resources idle with exactly one request queued
/// — the solo-span trigger, also the general loop's. It then writes the
/// in-flight events, stamps, clock and still-queued members back.
/// Returns whether it stopped at the solo-span trigger, in which case
/// the general loop re-runs its solo check, dispatch pass and replay
/// entry at the same instant instead of popping an event. Token
/// boundaries, deadline sheds, completions and closed-loop respawns are
/// handled inline through the same [`DeviceRun`] helpers the general
/// loop calls.
fn run_interleaved<Q: FastReady>(
    q: &mut Q,
    ready: &mut RequestQueue,
    run: &mut DeviceRun<'_>,
    stamp: &mut u64,
) -> bool {
    let rlen = q.begin(ready, &run.ev, &run.requests);
    run.table.build_fast_lat();
    let mut r = Replay::enter(q, run, rlen, *stamp);
    let solo = loop {
        let s = usize::from((r.s_at[1], r.s_st[1]) < (r.s_at[0], r.s_st[0]));
        let at = r.s_at[s];
        if at == u64::MAX || r.next_arr < (at, r.s_st[s]) {
            break false;
        }
        r.now = SimTime::from_picos(at);
        let solo = if s == 0 { r.step::<0>() } else { r.step::<1>() };
        if solo {
            break true;
        }
    };
    *stamp = r.exit();
    q.finish(ready, &run.requests);
    solo
}

/// The replay loop's state: the ready set and its per-resource queued
/// counts, local mirrors of the event core's hot state, and the open
/// busy runs. A stack local of [`run_interleaved`] whose methods are all
/// inlined into it — [`Replay::boundary`] too, kept cold by
/// [`cold_mark`] rather than out of line — so the struct never escapes
/// into a call and its fields stay in registers.
///
/// The event-core mirrors are the two op slots (flattened to sentinel
/// arrays — `u64::MAX` end time marks an empty slot, cheaper to test and
/// update than `Option` tuples), the schedule stamp, the clock, and the
/// earliest pending arrival (refreshed after any respawn).
/// `EventCore::pop`'s ordering is reproduced exactly — stamps are
/// unique, so the slot comparison and the arrival cutoff are total.
///
/// Busy time is booked lazily: dispatches that chain gaplessly on a
/// resource (its start equals the previous dispatch's end — always true
/// on a saturated resource) merge into one open run, flushed as a
/// single `add_contiguous` when a starvation gap opens and at exit.
/// Busy sum, final `last_end`, and interval count are identical to
/// per-op `add_interval` booking, and the two per-resource trackers are
/// independent, so the deferral is unobservable.
struct Replay<'r, 'a, Q> {
    q: &'r mut Q,
    run: &'r mut DeviceRun<'a>,
    /// Queued members per resource.
    rlen: [usize; 2],
    n_ops: usize,
    faults_on: bool,
    s_at: [u64; 2],
    s_st: [u64; 2],
    s_id: [u32; 2],
    ev_stamp: u64,
    /// Mirror of the general loop's dispatch stamp.
    d_stamp: u64,
    now: SimTime,
    next_arr: (u64, u64),
    busy_start: [u64; 2],
    /// End of each resource's open busy run; `u64::MAX` when none.
    busy_end: [u64; 2],
    busy_k: [u64; 2],
}

/// `(time, stamp)` of the earliest pending arrival; `u64::MAX` pairs
/// when none.
fn peek_arrival(ev: &EventCore) -> (u64, u64) {
    ev.arrivals
        .peek()
        .map_or((u64::MAX, u64::MAX), |&Reverse((at, st, _))| (at, st))
}

impl<'r, 'a, Q: FastReady> Replay<'r, 'a, Q> {
    /// Takes the in-flight ops out of the event core into the mirrors.
    #[inline(always)]
    fn enter(q: &'r mut Q, run: &'r mut DeviceRun<'a>, rlen: [usize; 2], d_stamp: u64) -> Self {
        let mut s_at = [u64::MAX; 2];
        let mut s_st = [u64::MAX; 2];
        let mut s_id = [0u32; 2];
        for rs in 0..2 {
            if let Some((at, st, id)) = run.ev.op_done[rs].take() {
                s_at[rs] = at;
                s_st[rs] = st;
                s_id[rs] = id;
            }
        }
        Replay {
            rlen,
            n_ops: run.plan.len(),
            faults_on: run.faults.is_some(),
            s_at,
            s_st,
            s_id,
            ev_stamp: run.ev.stamp,
            d_stamp,
            now: run.ev.now,
            next_arr: peek_arrival(&run.ev),
            busy_start: [0; 2],
            busy_end: [u64::MAX; 2],
            busy_k: [0; 2],
            q,
            run,
        }
    }

    /// Writes the mirrors back and returns the dispatch stamp; the
    /// general loop resumes where it left off.
    #[inline(always)]
    fn exit(mut self) -> u64 {
        self.flush_busy(0);
        self.flush_busy(1);
        let ev = &mut self.run.ev;
        for rs in 0..2 {
            ev.op_done[rs] =
                (self.s_at[rs] != u64::MAX).then(|| (self.s_at[rs], self.s_st[rs], self.s_id[rs]));
        }
        ev.stamp = self.ev_stamp;
        ev.now = self.now;
        self.d_stamp
    }

    /// Books resource `rs`'s open busy run, if any.
    #[inline(always)]
    fn flush_busy(&mut self, rs: usize) {
        if self.busy_k[rs] > 0 {
            self.run.busy_track[rs].add_contiguous(
                SimTime::from_picos(self.busy_start[rs]),
                SimTime::from_picos(self.busy_end[rs]),
                self.busy_k[rs],
            );
            self.busy_k[rs] = 0;
            self.busy_end[rs] = u64::MAX;
        }
    }

    /// Dispatches member `nid32` on resource `rs` at `now`. Called with
    /// a constant `rs` on the hot paths, so the resource-conditional
    /// branches fold away.
    #[inline(always)]
    fn dispatch(&mut self, rs: usize, nid32: u32) {
        let nid = nid32 as usize;
        let now = self.now;
        let requests = &mut self.run.requests;
        let table = &self.run.table;
        debug_assert_eq!(requests.phase[nid], Phase::Decoding);
        self.d_stamp += 1;
        requests.last_scheduled[nid] = self.d_stamp;
        if requests.cold[nid].started.is_none() {
            requests.cold[nid].started = Some(now);
        }
        let idx = requests.cursor[nid].index();
        debug_assert_eq!(
            slot(table.classes[idx]),
            rs,
            "ready list / op class mismatch"
        );
        let lat = table.fast_lat[idx];
        let mut latency = if lat >= DEP_LAT_MARK {
            requests.dep_lat[nid][(u64::MAX - lat) as usize]
        } else {
            SimTime::from_picos(lat)
        };
        if self.faults_on && rs == slot(OpClass::Flash) {
            let extra = std::mem::take(&mut requests.fault_extra[nid]);
            if extra > 0 {
                latency += SimTime::from_picos(extra);
            }
        }
        let end_ps = (now + latency).as_picos();
        if self.busy_end[rs] == now.as_picos() {
            self.busy_end[rs] = end_ps;
        } else {
            self.flush_busy(rs);
            self.busy_start[rs] = now.as_picos();
            self.busy_end[rs] = end_ps;
        }
        self.busy_k[rs] += 1;
        self.s_at[rs] = end_ps;
        self.s_st[rs] = self.ev_stamp;
        self.s_id[rs] = nid32;
        self.ev_stamp += 1;
    }

    /// Queues member `id32` for `rs` on behalf of a completion on `src`
    /// and dispatches the queue's winner — the general loop's
    /// enqueue-then-pop on a freed resource.
    #[inline(always)]
    fn requeue_dispatch(&mut self, rs: usize, src: usize, id32: u32) {
        let key = self.run.requests.last_scheduled[id32 as usize];
        self.q.enqueue(rs, src, key, id32);
        let nid32 = self.q.pop_min(rs).expect("just enqueued");
        self.dispatch(rs, nid32);
    }

    /// Queues member `id32` for busy resource `rs`.
    #[inline(always)]
    fn enqueue(&mut self, rs: usize, src: usize, id32: u32) {
        let key = self.run.requests.last_scheduled[id32 as usize];
        self.q.enqueue(rs, src, key, id32);
        self.rlen[rs] += 1;
    }

    /// Dispatches resource `rs`'s queue winner, if any is queued.
    #[inline(always)]
    fn dispatch_queued(&mut self, rs: usize) {
        if self.rlen[rs] > 0 {
            let nid32 = self.q.pop_min(rs).expect("counted member is queued");
            self.rlen[rs] -= 1;
            self.dispatch(rs, nid32);
        }
    }

    /// Re-issues the closed-loop client of departing request `id`
    /// through the event core, keeping the stamp and arrival mirrors in
    /// step.
    #[inline(always)]
    fn respawn(&mut self, id: usize) {
        self.run.ev.stamp = self.ev_stamp;
        self.run.respawn_client(id, self.now);
        self.ev_stamp = self.run.ev.stamp;
        self.next_arr = peek_arrival(&self.run.ev);
    }

    /// One op completion on resource `S`, giving each resource its own
    /// straight-line path with well-predicted branches. Dispatch is
    /// event-driven: only the freed slot and the enqueued-to slot can
    /// act, and the general loop's flash-before-NPU dispatch order is
    /// preserved in each arm. A member whose next op stays on the freed
    /// resource with nobody else queued redispatches directly, skipping
    /// the ready structure entirely — with identical stamps, since the
    /// pop it elides could only have returned that member. Returns
    /// whether the loop must stop for the solo-span trigger.
    #[inline(always)]
    fn step<const S: usize>(&mut self) -> bool {
        let o = 1 - S;
        let id32 = self.s_id[S];
        let id = id32 as usize;
        self.s_at[S] = u64::MAX;
        self.run.requests.cursor[id].advance();
        let idx = self.run.requests.cursor[id].index();
        if idx >= self.n_ops {
            return self.boundary(S, id32);
        }
        let rs2 = self.run.table.class_slots[idx] as usize;
        if rs2 == S {
            if self.rlen[S] == 0 {
                self.dispatch(S, id32);
            } else {
                self.requeue_dispatch(S, S, id32);
            }
            // Single-resource stretch: until the other slot's completion
            // fires (or forever, while it sits idle with an empty queue
            // — the sentinel makes its guard always pass), every next
            // event is a completion on `S`, and nothing can enqueue to
            // `S`'s queue from outside. Chew through them without
            // re-selecting the slot, exiting — before touching anything
            // — on the other slot's turn (ties included, stamps decide
            // there), arrivals, token boundaries, or a cross-resource
            // op. The membership and keys of `S`'s queue are frozen for
            // the whole stretch, so a key-static policy (`RETAINS_MIN`)
            // redispatches the completing member — popped as min from
            // this very set — directly.
            let other = (self.s_at[o], self.s_st[o]);
            loop {
                let at2 = self.s_at[S];
                if (at2, self.s_st[S]) >= other || self.next_arr < (at2, self.s_st[S]) {
                    break;
                }
                let cid32 = self.s_id[S];
                let cursor = &mut self.run.requests.cursor[cid32 as usize];
                let nidx = cursor.index() + 1;
                if nidx >= self.n_ops || self.run.table.class_slots[nidx] as usize != S {
                    break;
                }
                cursor.advance();
                self.now = SimTime::from_picos(at2);
                self.s_at[S] = u64::MAX;
                if Q::RETAINS_MIN || self.rlen[S] == 0 {
                    self.dispatch(S, cid32);
                } else {
                    self.requeue_dispatch(S, S, cid32);
                }
            }
        } else if o == 0 {
            // NPU completion, next op on flash: the flash slot
            // dispatches first (directly if it sat idle, which implies
            // its queue is empty), then the freed NPU.
            if self.s_at[0] == u64::MAX {
                debug_assert_eq!(self.rlen[0], 0, "idle slot implies empty queue");
                self.dispatch(0, id32);
            } else {
                self.enqueue(0, S, id32);
            }
            self.dispatch_queued(1);
        } else {
            // Flash completion, next op on NPU: the freed flash slot
            // dispatches first, then the NPU side.
            self.dispatch_queued(0);
            if self.s_at[1] == u64::MAX {
                debug_assert_eq!(self.rlen[1], 0, "idle slot implies empty queue");
                self.dispatch(1, id32);
            } else {
                self.enqueue(1, S, id32);
            }
        }
        false
    }

    /// The token-boundary arm of a completion on `s`: retire, then
    /// shed, continue or complete, then the solo-span trigger and a full
    /// dispatch pass. Rare (one op in `n_ops`), so it stays generic over
    /// the completing resource. Returns whether the loop must stop for
    /// the solo-span trigger: both resources idle and exactly one member
    /// queued, which leaves that member the lone request in flight.
    #[inline(always)]
    fn boundary(&mut self, s: usize, id32: u32) -> bool {
        cold_mark();
        let id = id32 as usize;
        let now = self.now;
        let run = &mut *self.run;
        retire_token(&mut run.requests, id, now, &mut run.token_latencies);
        let shed = run
            .faults
            .as_mut()
            .is_some_and(|f| deadline_shed(f, &run.requests, id, now));
        if shed {
            run.requests.phase[id] = Phase::Done;
            self.respawn(id);
        } else if run.requests.remaining[id] > 0 {
            run.requests.cursor[id].next_token();
            run.begin_token(id);
            let rs0 = run.table.class_slots[0] as usize;
            self.enqueue(rs0, s, id32);
        } else {
            run.complete_request(id, now);
            self.respawn(id);
        }
        if self.s_at[0] == u64::MAX && self.s_at[1] == u64::MAX && self.rlen[0] + self.rlen[1] == 1
        {
            return true;
        }
        // Full dispatch pass, flash first like the general loop.
        for rs in 0..2 {
            if self.s_at[rs] == u64::MAX {
                self.dispatch_queued(rs);
            }
        }
        false
    }
}

/// The per-op event loop for FCFS and round-robin: each resource serves
/// one op at a time, and a freed resource dispatches the ready request
/// its policy ranks first. With spans on it hands a lone request's
/// whole tokens to [`DeviceRun::run_solo_span`] and overloaded steady
/// stretches to [`run_interleaved`].
struct Simulation<'a> {
    run: DeviceRun<'a>,
    policy: SchedulePolicy,
    ready: RequestQueue,
    /// Dispatch stamp, bumped per dispatched op: the round-robin
    /// recency key.
    stamp: u64,
}

impl<'a> Simulation<'a> {
    fn new(
        engine: &'a DeviceEngine,
        trace: &ArrivalTrace,
        policy: SchedulePolicy,
        system: System,
    ) -> Self {
        Simulation {
            run: DeviceRun::new(engine, trace, system),
            policy,
            ready: RequestQueue::default(),
            stamp: 0,
        }
    }

    fn run(mut self) -> (ServeReport, System) {
        self.event_loop();
        self.finish()
    }

    fn finish(self) -> (ServeReport, System) {
        assert!(
            self.ready.is_empty(),
            "event core drained with work outstanding"
        );
        let run = self.run;
        // Shed requests dispatched every op of the tokens they finished
        // before the deadline cut them off — sheds happen only at token
        // boundaries — so their tokens count as dispatched work even
        // though no completion report carries them. Every weight-GeMV
        // dispatch beyond the first per distinct shape reused a memoized
        // flash simulation.
        let tokens = run.done.iter().map(|r| r.tokens as u64).sum::<u64>()
            + run.faults.as_ref().map_or(0, |f| f.shed_tokens);
        let ops_dispatched = tokens * run.plan.len() as u64;
        let gemv_dispatched = tokens * run.table.gemvs_per_token;
        run.finish(self.policy, ops_dispatched, gemv_dispatched, 0, 0)
    }

    /// The general loop, one iteration per event: the hot path only
    /// under [`SpanMode::PerOp`]. With spans on, solo spans and the
    /// replay loop take over whole tokens and whole overloaded
    /// stretches, and this loop handles arrivals, prefill and the
    /// handoffs between them.
    fn event_loop(&mut self) {
        let Simulation {
            run,
            policy,
            ready,
            stamp,
        } = self;
        let policy = *policy;
        let n_ops = run.table.classes.len();
        // The interleaved replay structures, standing by whenever span
        // coalescing is on for one of the per-op policies.
        let mut fast: Option<FastLane> = match (run.span_cap > 0, policy) {
            (true, SchedulePolicy::Fcfs) => Some(FastLane::Fcfs(FcfsReady::default())),
            (true, SchedulePolicy::RoundRobin) => Some(FastLane::Rr(RrReady::default())),
            _ => None,
        };
        let ready_key = |requests: &RequestPool, id: usize| {
            match policy {
                // Earliest arrival wins; id breaks ties
                // deterministically (heap entries are `(key, id)`).
                SchedulePolicy::Fcfs => requests.cold[id].arrived.as_picos(),
                // Least-recently-scheduled wins: fair rotation.
                SchedulePolicy::RoundRobin => requests.last_scheduled[id],
                // Routed to `BatchedSimulation` by `DeviceEngine::run`.
                SchedulePolicy::ContinuousBatch { .. } => {
                    unreachable!("batched policy has its own loop")
                }
            }
        };

        while let Some(fired) = run.ev.pop() {
            let now = run.ev.now;
            match fired {
                Fired::Arrive(id) => {
                    // KV admission control: a context (prompt +
                    // generation) that can never fit in the DRAM KV
                    // allocation is a counted rejection
                    // (`KvCapacityError` at prefill/append on real
                    // hardware), not a simulated run — the same
                    // never-fits criterion `ContinuousBatch` uses.
                    // Anything that fits alone is admitted immediately;
                    // these policies interleave per-op and do not
                    // reserve shared capacity ahead, `ContinuousBatch`
                    // does.
                    let shape = run.requests.cold[id].shape;
                    if shape.prompt_len + shape.new_tokens > run.kv_max_context {
                        run.kv_rejections += 1;
                        run.respawn_client(id, now);
                        continue;
                    }
                    // The request prices its first token and enters the
                    // ready queue of its first op's resource — unless it
                    // owes a prefill, in which case it queues (state
                    // `Queued`) for the whole device on the flash list
                    // and prices its first token only once the prompt is
                    // resident.
                    if run.first_arrival.is_none() {
                        run.first_arrival = Some(run.requests.cold[id].arrived);
                    }
                    run.requests.token_started[id] = now;
                    if run.prefill.is_some() && shape.prompt_len > 0 {
                        ready.enqueue(slot(OpClass::Flash), ready_key(&run.requests, id), id);
                    } else {
                        run.requests.phase[id] = Phase::Decoding;
                        run.begin_token(id);
                        let s = slot(run.table.classes[run.requests.cursor[id].index()]);
                        ready.enqueue(s, ready_key(&run.requests, id), id);
                    }
                }
                Fired::Op(_, id) if id == PREFILL_HOLD => {
                    // The NPU-side hold of a finished prefill: nothing
                    // to step, the resource is simply free again for the
                    // dispatch pass below.
                }
                Fired::Op(_, id) if run.requests.phase[id] == Phase::Prefilling => {
                    // Prefill complete (flash-slot event): the prompt is
                    // resident, decode begins.
                    run.requests.phase[id] = Phase::Decoding;
                    run.requests.cold[id].prefill_end = Some(now);
                    run.begin_token(id);
                    let s = slot(run.table.classes[run.requests.cursor[id].index()]);
                    ready.enqueue(s, ready_key(&run.requests, id), id);
                }
                Fired::Op(_, id) => {
                    // The resource freed (`pop` vacated its slot); step
                    // the request's cursor.
                    run.requests.cursor[id].advance();
                    let idx = run.requests.cursor[id].index();
                    if idx < n_ops {
                        ready.enqueue(
                            slot(run.table.classes[idx]),
                            ready_key(&run.requests, id),
                            id,
                        );
                    } else {
                        // Token complete.
                        retire_token(&mut run.requests, id, now, &mut run.token_latencies);
                        let shed = run
                            .faults
                            .as_mut()
                            .is_some_and(|f| deadline_shed(f, &run.requests, id, now));
                        if shed {
                            // Deadline missed: the request is shed (not
                            // completed, not reported), its client
                            // re-issues immediately.
                            run.requests.phase[id] = Phase::Done;
                            run.respawn_client(id, now);
                        } else if run.requests.remaining[id] > 0 {
                            // Next token: context has grown by the token
                            // just emitted.
                            run.requests.cursor[id].next_token();
                            run.begin_token(id);
                            ready.enqueue(
                                slot(run.table.classes[0]),
                                ready_key(&run.requests, id),
                                id,
                            );
                        } else {
                            // Request complete; in a closed loop the
                            // client immediately issues its next request.
                            run.complete_request(id, now);
                            run.respawn_client(id, now);
                        }
                    }
                }
            }

            // Solo check, dispatch pass, replay — repeated at the same
            // instant while the replay loop stops at the solo-span
            // trigger, whose clock is then the one to act at.
            loop {
                let now = run.ev.now;
                // Span fast-forwarding: with exactly one request in
                // flight, parked at a token boundary, and both resources
                // idle, whole tokens coalesce into one bulk-priced span
                // (every other live request would be in a ready heap or
                // holding a pending completion, so this condition is
                // exact).
                if run.span_cap > 0 && !run.ev.busy(0) && !run.ev.busy(1) && ready.len() == 1 {
                    let s_heap = usize::from(ready.ready[0].is_empty());
                    let id = ready.pop_min(s_heap).expect("ready holds one request");
                    if run.requests.phase[id] == Phase::Decoding
                        && run.requests.cursor[id].index() == 0
                        && run.run_solo_span(stamp, id, now) > 0
                    {
                        break;
                    }
                    // No coalescible token (an arrival is imminent, or
                    // the request owes a prefill or sits mid-token):
                    // back in the ready heap for ordinary per-op
                    // dispatch below.
                    ready.enqueue(s_heap, ready_key(&run.requests, id), id);
                }

                // Dispatch: start an op on every idle resource that has
                // waiting requests (flash first). The index addresses
                // four parallel structures, not one slice.
                #[allow(clippy::needless_range_loop)]
                for s in 0..2 {
                    if run.ev.busy(s) {
                        continue;
                    }
                    let Some(id) = ready.pop_min(s) else {
                        continue;
                    };
                    let requests = &mut run.requests;
                    if requests.phase[id] == Phase::Queued {
                        // A pending prefill: it needs the whole device
                        // (flash stream + NPU GeMMs together). If the
                        // NPU is mid-op, the flash idles and the prefill
                        // keeps its place at the head — no later flash
                        // work jumps it — retrying at the next
                        // completion event.
                        debug_assert_eq!(s, slot(OpClass::Flash));
                        if run.ev.busy(slot(OpClass::Npu)) {
                            ready.enqueue(s, ready_key(requests, id), id);
                            continue;
                        }
                        *stamp += 1;
                        requests.last_scheduled[id] = *stamp;
                        requests.phase[id] = Phase::Prefilling;
                        if requests.cold[id].started.is_none() {
                            requests.cold[id].started = Some(now);
                        }
                        let total = run.charge_prefill(id);
                        run.busy_track[0].add_interval(now, now + total);
                        run.busy_track[1].add_interval(now, now + total);
                        run.ev.schedule_op(0, now + total, id);
                        run.ev.schedule_op(1, now + total, PREFILL_HOLD);
                        continue;
                    }
                    *stamp += 1;
                    requests.last_scheduled[id] = *stamp;
                    if requests.cold[id].started.is_none() {
                        requests.cold[id].started = Some(now);
                    }
                    let table = &run.table;
                    let idx = requests.cursor[id].index();
                    debug_assert_eq!(
                        slot(table.classes[idx]),
                        s,
                        "ready list / op class mismatch"
                    );
                    let cost_slot = table.slots[idx] as usize;
                    let mut latency = if cost_slot < table.n_inv {
                        table.inv_lat[cost_slot]
                    } else {
                        requests.dep_lat[id][cost_slot - table.n_inv]
                    };
                    // The token's sampled fault time rides on its first
                    // flash dispatch (always 0 with faults off).
                    if s == slot(OpClass::Flash) {
                        let extra = std::mem::take(&mut requests.fault_extra[id]);
                        if extra > 0 {
                            latency += SimTime::from_picos(extra);
                        }
                    }
                    run.busy_track[s].add_interval(now, now + latency);
                    run.ev.schedule_op(s, now + latency, id);
                }

                // Interleaved replay: when every pending event is an op
                // completion of a decoding request — the steady state
                // between arrivals — the stretch up to the next arrival
                // replays in the specialized loop instead of paying the
                // general machinery per op. Bit-identical by
                // construction; see [`run_interleaved`].
                let solo = match fast.as_mut() {
                    Some(lane)
                        if replay_eligible(
                            &run.ev,
                            ready,
                            &run.requests,
                            run.prefill.is_some(),
                        ) =>
                    {
                        match lane {
                            FastLane::Fcfs(q) => run_interleaved(q, ready, run, stamp),
                            FastLane::Rr(q) => run_interleaved(q, ready, run, stamp),
                        }
                    }
                    _ => false,
                };
                if !solo {
                    break;
                }
            }
        }
    }
}

/// Event-core request id for batched op completions: the whole batch
/// retires one plan position together, so no single request owns the
/// event.
const BATCH_EVENT: usize = u32::MAX as usize;

/// The running batch of a [`SchedulePolicy::ContinuousBatch`]
/// simulation: the requests marching through the plan in lockstep plus
/// the shared walk state. "Many cursors parked at the same plan
/// position" — the batch holds one position, each member holds its own
/// sequence length.
#[derive(Debug)]
struct BatchState {
    /// Requests in the batch, admission order.
    active: Vec<usize>,
    /// Plan position of the in-flight batched op.
    pos: usize,
    /// Admission cap.
    max_batch: usize,
    /// Occupancy integral (batch size × picoseconds) for the
    /// time-weighted mean in the report.
    occ_weighted_ps: u128,
    /// When the integral was last advanced.
    occ_last: SimTime,
    /// Largest batch assembled at any boundary.
    peak: usize,
}

impl BatchState {
    fn new(max_batch: usize) -> Self {
        BatchState {
            active: Vec::with_capacity(max_batch),
            pos: 0,
            max_batch,
            occ_weighted_ps: 0,
            occ_last: SimTime::ZERO,
            peak: 0,
        }
    }

    /// Advances the occupancy integral to `now` at the current batch
    /// size. Call before any admission or retirement at `now`.
    fn note_occupancy(&mut self, now: SimTime) {
        let dt = now.saturating_sub(self.occ_last).as_picos();
        self.occ_weighted_ps += self.active.len() as u128 * dt as u128;
        self.occ_last = now;
    }
}

/// The continuous-batching event loop.
///
/// Compared with [`Simulation`], which interleaves *individual* ops of
/// independent requests across the two resources, this loop executes
/// **batch steps**: one walk of the shared [`TokenPlan`] serving every
/// in-flight request at once. Per plan position:
///
/// * a weight GeMV occupies the flash device **once** for the whole
///   batch — the weight stream is fetched a single time and every
///   request consumes it (the amortization that makes cloud serving
///   batch-efficient, now at the edge), floored by the NPU roofline on
///   `batch ×` the per-request MAC share so huge batches hit the
///   compute ceiling instead of scaling forever, and with each
///   member's share of the GeMV arithmetic booked in the traffic
///   ledger;
/// * NPU-side work (attention, softmax, norms, KV appends) runs per
///   request — invariant slots at the shared table price, the three
///   attention slots at each request's own sequence position.
///
/// Requests join at token boundaries, FIFO, gated on KV capacity: a
/// request reserves `prompt + new_tokens` KV entries at admission
/// ([`KvCache::prefill`]) and releases them on completion
/// ([`KvCache::release`]). A context that can never fit is rejected and
/// counted. Head-of-line order is preserved — a blocked head is not
/// jumped by smaller later requests, so admission is starvation-free.
///
/// With one in-flight request a batch step prices exactly the serial
/// op walk, so batch-of-1 reproduces the FCFS single-stream makespan
/// tick for tick.
struct BatchedSimulation<'a> {
    run: DeviceRun<'a>,
    batch: BatchState,
    /// Arrived requests awaiting admission, FIFO.
    pending: VecDeque<usize>,
    /// Shared DRAM KV allocation; holds one whole-context reservation
    /// per in-flight request. Built by the same [`kv_cache`] as the
    /// run's never-fits criterion, so the two cannot disagree.
    kv: KvCache,
    /// Op dispatches in batched terms: one per shared weight fetch,
    /// one per request for NPU positions.
    ops_dispatched: u64,
    gemv_dispatched: u64,
    /// Fault-added picoseconds of the current batch step, consumed by
    /// its first weight dispatch (always 0 with faults off).
    step_fault_extra: u64,
}

impl<'a> BatchedSimulation<'a> {
    fn new(
        engine: &'a DeviceEngine,
        trace: &ArrivalTrace,
        max_batch: usize,
        system: System,
    ) -> Self {
        BatchedSimulation {
            run: DeviceRun::new(engine, trace, system),
            batch: BatchState::new(max_batch),
            pending: VecDeque::new(),
            kv: kv_cache(engine),
            ops_dispatched: 0,
            gemv_dispatched: 0,
            step_fault_extra: 0,
        }
    }

    /// Whether a batched op is in flight (the step is mid-walk).
    fn stepping(&self) -> bool {
        self.run.ev.busy(0) || self.run.ev.busy(1)
    }

    fn run(mut self) -> (ServeReport, System) {
        while let Some(fired) = self.run.ev.pop() {
            let now = self.run.ev.now;
            self.batch.note_occupancy(now);
            match fired {
                Fired::Arrive(id) => {
                    self.pending.push_back(id);
                    if !self.stepping() {
                        // Device idle: this instant is a (trivial)
                        // token boundary. Fold in simultaneous
                        // arrivals so a burst forms one batch.
                        while let Some(more) = self.run.ev.pop_due_arrival(now) {
                            self.pending.push_back(more);
                        }
                        let delay = self.admit(now);
                        self.launch(now, delay);
                    }
                }
                Fired::Op(_, id) if id == BATCH_PREFILL => {
                    // The admission-prefill window closed: every
                    // joining member's prompt is resident, the delayed
                    // batch step starts.
                    for &id in &self.batch.active {
                        if self.run.requests.phase[id] == Phase::Prefilling {
                            self.run.requests.phase[id] = Phase::Decoding;
                        }
                    }
                    self.start(now);
                }
                Fired::Op(_, id) if id == SPAN_BOUNDARY => {
                    // A coalesced span closed: its final step's token
                    // boundary retires exactly like a per-step one.
                    self.token_boundary(now);
                }
                Fired::Op(..) => {
                    self.batch.pos += 1;
                    if self.batch.pos < self.run.table.classes.len() {
                        self.dispatch(now);
                    } else {
                        self.token_boundary(now);
                    }
                }
            }
        }
        self.finish()
    }

    /// One token retired for every batch member: samples latencies,
    /// completes finished requests (releasing their KV reservation),
    /// folds due arrivals in, admits, and starts the next step.
    fn token_boundary(&mut self, now: SimTime) {
        let active = std::mem::take(&mut self.batch.active);
        let mut survivors = Vec::with_capacity(active.len());
        for id in active {
            retire_token(
                &mut self.run.requests,
                id,
                now,
                &mut self.run.token_latencies,
            );
            let shed = match &mut self.run.faults {
                Some(f) => deadline_shed(f, &self.run.requests, id, now),
                None => false,
            };
            if shed {
                // Deadline missed: the request is shed (not completed,
                // not reported), its KV reservation is released so the
                // freed capacity admits waiting work, and its client
                // re-issues immediately.
                self.run.requests.phase[id] = Phase::Done;
                let shape = self.run.requests.cold[id].shape;
                self.kv.release(shape.prompt_len + shape.new_tokens);
                self.run.respawn_client(id, now);
            } else if self.run.requests.remaining[id] > 0 {
                self.run.requests.cursor[id].next_token();
                survivors.push(id);
            } else {
                self.run.complete_request(id, now);
                let shape = self.run.requests.cold[id].shape;
                self.kv.release(shape.prompt_len + shape.new_tokens);
                self.run.respawn_client(id, now);
            }
        }
        self.batch.active = survivors;
        // Closed-loop respawns and open-trace arrivals landing exactly
        // on this boundary join it instead of waiting out a full step.
        while let Some(id) = self.run.ev.pop_due_arrival(now) {
            self.pending.push_back(id);
        }
        let delay = self.admit(now);
        self.launch(now, delay);
    }

    /// Starts the device after an admission pass: either immediately
    /// (no prefill owed) or after the serialized prefill window of the
    /// members that just joined — during which the whole device is
    /// held, so prefill of a joining request delays the shared batch
    /// step for everyone already in the batch.
    fn launch(&mut self, now: SimTime, prefill_delay: SimTime) {
        if prefill_delay > SimTime::ZERO {
            debug_assert!(!self.stepping(), "prefill window overlaps a step");
            self.run.busy_track[0].add_interval(now, now + prefill_delay);
            self.run.busy_track[1].add_interval(now, now + prefill_delay);
            self.run
                .ev
                .schedule_op(slot(OpClass::Flash), now + prefill_delay, BATCH_PREFILL);
        } else {
            self.start(now);
        }
    }

    /// Starts the device on the current batch: a coalesced span when
    /// fast-forwarding is on, the per-position stepping loop otherwise.
    fn start(&mut self, now: SimTime) {
        if self.run.span_cap > 0 {
            self.start_span(now);
        } else {
            self.start_step(now);
        }
    }

    /// FIFO admission at a token boundary: reserve KV for the whole
    /// context or wait. A context that can never fit (it exceeds the
    /// empty-cache capacity) is rejected and counted. Returns the
    /// serialized prefill time the newly admitted members owe before
    /// the next step may start (zero with prefill off).
    fn admit(&mut self, now: SimTime) -> SimTime {
        let mut delay = SimTime::ZERO;
        while self.batch.active.len() < self.batch.max_batch {
            let Some(&id) = self.pending.front() else {
                break;
            };
            let shape = self.run.requests.cold[id].shape;
            let context = shape.prompt_len + shape.new_tokens;
            if context > self.run.kv_max_context {
                self.pending.pop_front();
                self.run.kv_rejections += 1;
                self.run.respawn_client(id, now);
                continue;
            }
            // Capacity gate: the head waits for in-flight requests to
            // release their reservations; later arrivals do not jump
            // the queue (starvation-free FIFO).
            if !self.kv.fits(context) {
                break;
            }
            self.kv
                .prefill(context)
                .expect("fits() is prefill's admissibility criterion");
            self.pending.pop_front();
            if self.run.first_arrival.is_none() {
                self.run.first_arrival = Some(self.run.requests.cold[id].arrived);
            }
            self.batch.active.push(id);
            self.batch.peak = self.batch.peak.max(self.batch.active.len());
            // The step including this request starts at `now`. Its
            // first-token clock keeps running from *arrival* (set at
            // request construction), exactly like the per-op policies,
            // so token-latency percentiles are comparable across
            // policies: time spent pending for a batch slot or KV
            // capacity is in the first token's latency, not hidden.
            if self.run.requests.cold[id].started.is_none() {
                self.run.requests.cold[id].started = Some(now);
            }
            // Admission puts the member straight into decode; the
            // prefill branch below overrides to `Prefilling` when the
            // member owes a prefill stage first.
            self.run.requests.phase[id] = Phase::Decoding;
            // The joining member's prompt must be made resident first:
            // its prefill runs in the admission window (serialized
            // after any other joiner's), pushing the next shared step
            // out by its full overlapped latency. `started` is the
            // member's actual prefill start — after the joiners ahead
            // of it — so the serialized wait lands in queueing delay,
            // not in an inflated prefill_time.
            if shape.prompt_len > 0 && self.run.prefill.is_some() {
                let total = self.run.charge_prefill(id);
                let cold = &mut self.run.requests.cold[id];
                cold.started = Some(now + delay);
                delay += total;
                cold.prefill_end = Some(now + delay);
                self.run.requests.phase[id] = Phase::Prefilling;
            }
        }
        delay
    }

    /// Prices and launches one batch step: the invariant table is
    /// shared, each member's attention slots are re-priced at its own
    /// sequence position, and the step's traffic books the weight
    /// stream once plus per-request work × batch.
    fn start_step(&mut self, now: SimTime) {
        if self.batch.active.is_empty() {
            return;
        }
        debug_assert!(!self.stepping(), "batch step already in flight");
        price_invariant(&mut self.run.system, self.run.plan, &mut self.run.table);
        self.run.traffic.absorb_batch_step(
            &self.run.table.inv_stream_traffic,
            &self.run.table.inv_request_traffic,
            self.batch.active.len() as u64,
        );
        for i in 0..self.batch.active.len() {
            let id = self.batch.active[i];
            let seq = self.run.requests.cursor[id].seq_len();
            let (dep_lat, dep_traffic) = attn_at(
                &mut self.run.system,
                self.run.plan,
                &mut self.run.table,
                seq,
            );
            self.run.requests.dep_lat[id] = dep_lat;
            self.run.traffic.absorb(&dep_traffic);
        }
        // One fault window per batch step: the shared weight stream is
        // read once for the whole batch, so its page faults are drawn
        // once — from the head member's stream, which is stable in
        // admission order. The extra time rides on the step's first
        // weight dispatch.
        if let Some(f) = &mut self.run.faults {
            let owner = self.batch.active[0];
            self.step_fault_extra = f.window_extra(
                self.run.table.inv_stream_traffic.nand_array_bytes,
                self.run.table.solo_flash_lat.as_picos(),
                &mut self.run.requests.fault_rng[owner],
            );
        }
        self.batch.pos = 0;
        self.dispatch(now);
    }

    /// Prices and launches a **span**: a run of up to `span_cap` batch
    /// steps executed as one event-core round instead of one round per
    /// plan position. Between scheduling boundaries the batch is fixed,
    /// so each step's latency decomposes into
    ///
    /// * a flash term — every weight slot at the table price floored by
    ///   both compute rooflines on `batch ×` the per-request MAC shares
    ///   (identical to [`BatchedSimulation::dispatch`]'s per-position
    ///   arithmetic, hoisted out of the loop because the batch cannot
    ///   change mid-span);
    /// * an NPU term — invariant slots at `table price × batch` plus
    ///   the attention slots summed over each member's own growing
    ///   sequence position, priced step by step in the exact per-token
    ///   order so the op-cost cache sees the same lookup sequence.
    ///
    /// The span ends at the earliest scheduling boundary: the next
    /// completion (minimum remaining tokens in flight), the first token
    /// boundary at or after the next arrival (an admission
    /// opportunity — the arrival itself fires mid-span and queues, like
    /// it would mid-step), or a forced span cap. Admission blocked on
    /// KV capacity or a full batch can only unblock at a completion, so
    /// no opportunity is skipped. Interior token boundaries retire
    /// inline; the final one is the scheduled span-end event, handled
    /// by the ordinary [`BatchedSimulation::token_boundary`].
    ///
    /// Every quantity is integer picoseconds/bytes/ops, so the
    /// regrouped sums are bit-identical to per-position stepping.
    fn start_span(&mut self, now: SimTime) {
        if self.batch.active.is_empty() {
            return;
        }
        debug_assert!(!self.stepping(), "span overlaps a step");
        price_invariant(&mut self.run.system, self.run.plan, &mut self.run.table);
        let batch = self.batch.active.len() as u64;
        let n_ops = self.run.table.classes.len();
        // Per-step invariant latencies at this batch size.
        let mut flash_step = SimTime::ZERO;
        let mut npu_inv_step = SimTime::ZERO;
        for s in 0..self.run.table.n_inv {
            let count = self.run.table.inv_counts[s];
            if self.run.table.inv_is_weight[s] {
                let lat = self.run.table.inv_lat[s]
                    .max(
                        self.run
                            .system
                            .npu_compute_time(self.run.table.inv_npu_ops[s] * batch),
                    )
                    .max(
                        self.run
                            .system
                            .flash_compute_time(self.run.table.inv_flash_ops[s] * batch),
                    );
                flash_step += lat * count;
            } else {
                npu_inv_step += (self.run.table.inv_lat[s] * batch) * count;
            }
        }
        let k_max = self
            .batch
            .active
            .iter()
            .map(|&id| self.run.requests.remaining[id])
            .min()
            .expect("batch is non-empty")
            .min(self.run.span_cap);
        // A request already waiting for admission (it arrived during a
        // prefill window or mid-step) may act at the *very next* token
        // boundary, so the span may not run past it — but only when the
        // boundary would actually change state: with batch room, an
        // admissible head joins there and a never-fits head is rejected
        // (and its closed-loop client respawned) there. A head blocked
        // on KV capacity can only unblock at a completion — KV releases
        // happen in the boundary's completion branch, which is always a
        // span end — and a full batch admits nothing, so neither bounds
        // the span.
        let k_max = match self.pending.front() {
            Some(&head) if self.batch.active.len() < self.batch.max_batch => {
                let shape = self.run.requests.cold[head].shape;
                let context = shape.prompt_len + shape.new_tokens;
                if context > self.run.kv_max_context || self.kv.fits(context) {
                    1
                } else {
                    k_max
                }
            }
            _ => k_max,
        };
        debug_assert!(k_max >= 1, "an active member always owes a token");
        // Deadlines bound the span: it ends at the first token boundary
        // at or after the earliest member deadline, where
        // `token_boundary`'s shed check runs.
        let min_deadline_ps: Option<u64> = self.run.faults.as_ref().and_then(|f| {
            self.batch
                .active
                .iter()
                .filter_map(|&id| deadline_ps(f, &self.run.requests, id))
                .min()
        });
        // An arrival landing mid-span only matters if the boundary after
        // it could admit (or reject) it. With a full batch, `admit`'s
        // loop never runs until a completion frees a slot — and every
        // completion is a span end. With a non-empty pending queue, the
        // newcomer parks *behind* the head (starvation-free FIFO), so it
        // can only act when the head does — and the head's own bound was
        // already decided above. In both cases every intervening token
        // boundary is a no-op for the arrival: the span runs through it,
        // and the span-end `token_boundary` pops the (time-ordered) due
        // arrivals into `pending` exactly as per-step mode would have.
        let consider_arrivals =
            self.batch.active.len() < self.batch.max_batch && self.pending.is_empty();
        let next_arrival = if consider_arrivals {
            self.run.ev.next_arrival_ps()
        } else {
            None
        };
        let mut lats: Vec<SimTime> = Vec::with_capacity(k_max.min(4096));
        let mut t = now;
        let mut npu_busy = SimTime::ZERO;
        let mut span_fault_extra: u64 = 0;
        let mut k = 0usize;
        // Attention traffic accumulates span-locally and lands in the
        // shared ledger once at span end: the integer per-step sums
        // regroup exactly, and the hot loop stops round-tripping
        // through the full-width ledger every step.
        let mut dep_traffic = TrafficBreakdown::default();
        loop {
            // This step's attention slots, at each member's position
            // `k` tokens ahead of its cursor (cursors advance at the
            // boundary pass below). Consecutive members at the same
            // sequence position — the common case, lockstep admission
            // parks whole cohorts together — share one pricing and
            // scale by the run length; the scaled integer sums equal
            // per-member accumulation exactly.
            let mut dep_step = SimTime::ZERO;
            let mut i = 0;
            while i < self.batch.active.len() {
                let seq = self.run.requests.cursor[self.batch.active[i]].seq_len() + k;
                let mut run = 1usize;
                while i + run < self.batch.active.len()
                    && self.run.requests.cursor[self.batch.active[i + run]].seq_len() + k == seq
                {
                    run += 1;
                }
                let (lat, tr) = attn_at(
                    &mut self.run.system,
                    self.run.plan,
                    &mut self.run.table,
                    seq,
                );
                let mut pos_dep = SimTime::ZERO;
                for (d, &l) in lat.iter().enumerate().take(self.run.table.n_dep) {
                    pos_dep += l * self.run.table.dep_counts[d];
                }
                dep_step += pos_dep * run as u64;
                dep_traffic.absorb_scaled(&tr, run as u64);
                i += run;
            }
            let mut lat = flash_step + npu_inv_step + dep_step;
            // One fault window per step, same stream and window as
            // per-step mode — every priced step is committed, so the
            // draws are never speculative.
            if let Some(f) = &mut self.run.faults {
                let owner = self.batch.active[0];
                let extra = f.window_extra(
                    self.run.table.inv_stream_traffic.nand_array_bytes,
                    self.run.table.solo_flash_lat.as_picos(),
                    &mut self.run.requests.fault_rng[owner],
                );
                if extra > 0 {
                    lat += SimTime::from_picos(extra);
                    span_fault_extra += extra;
                }
            }
            npu_busy += npu_inv_step + dep_step;
            t += lat;
            lats.push(lat);
            k += 1;
            if k == k_max {
                // The earliest completion (or the forced cap): a real
                // scheduling boundary, handled by the span-end event.
                break;
            }
            if next_arrival.is_some_and(|ta| t.as_picos() >= ta) {
                // First boundary at or after the next arrival: stop so
                // the admission pass sees it (the arrival itself fires
                // mid-span and queues, exactly as it would mid-step).
                break;
            }
            if min_deadline_ps.is_some_and(|dl| t.as_picos() >= dl) {
                // First boundary at or after a member deadline: stop so
                // the boundary's shed check runs.
                break;
            }
        }
        self.run.traffic.absorb(&dep_traffic);
        // The span's invariant traffic in one bulk booking: `k ×` the
        // shared stream plus `k × batch ×` the per-request share.
        self.run.traffic.absorb_batch_span(
            &self.run.table.inv_stream_traffic,
            &self.run.table.inv_request_traffic,
            batch,
            k as u64,
        );
        let weights = self.run.table.gemvs_per_token;
        self.gemv_dispatched += k as u64 * weights;
        self.ops_dispatched += k as u64 * (weights + (n_ops as u64 - weights) * batch);
        // One busy interval per resource for the whole span; per-class
        // totals are identical to per-position interval accounting.
        // Fault time is flash time: rereads occupy the flash device.
        self.run.busy_track[0].add_interval(
            now,
            now + flash_step * k as u64 + SimTime::from_picos(span_fault_extra),
        );
        self.run.busy_track[1].add_interval(now, now + npu_busy);
        // Interior token boundaries (all steps but the last) retire
        // inline: samples and first tokens in the same member order as
        // `token_boundary`. No member completes here — `k` never
        // exceeds the minimum remaining tokens.
        let mut tb = now;
        for &lat in &lats[..k - 1] {
            tb += lat;
            for i in 0..self.batch.active.len() {
                let id = self.batch.active[i];
                retire_token(
                    &mut self.run.requests,
                    id,
                    tb,
                    &mut self.run.token_latencies,
                );
            }
        }
        // Every member's cursor jumps the retired tokens in one shot.
        for i in 0..self.batch.active.len() {
            let id = self.batch.active[i];
            self.run.requests.cursor[id].advance_by(k - 1);
        }
        // The final step's boundary is the span-end event. Elided
        // per-position events are accounted into the schedule stamp so
        // FIFO tie-breaking stays identical to per-step mode.
        self.run
            .ev
            .schedule_op(slot(OpClass::Flash), t, SPAN_BOUNDARY);
        self.run.ev.bump_stamp((k * n_ops - 1) as u64);
    }

    /// Launches the batched op at the current plan position: one shared
    /// fetch for a weight GeMV, the batch's summed latency for NPU
    /// work.
    fn dispatch(&mut self, now: SimTime) {
        let idx = self.batch.pos;
        let s = slot(self.run.table.classes[idx]);
        let cost_slot = self.run.table.slots[idx] as usize;
        let batch = self.batch.active.len() as u64;
        let latency = if s == slot(OpClass::Flash) {
            // One weight stream serves every cursor parked here — but
            // every member still multiplies the streamed weights by its
            // own activations, so the shared window is floored by both
            // compute rooflines on `batch ×` the per-request MAC shares
            // — the in-flash cores (sized to just match the read rate
            // at batch 1, so they throttle first) and the NPU. This is
            // the compute ceiling that ends batching's free lunch; at
            // batch 1 both floors are already inside the table price.
            debug_assert!(
                cost_slot < self.run.table.n_inv,
                "weight slots are invariant"
            );
            self.gemv_dispatched += 1;
            self.ops_dispatched += 1;
            let npu_floor = self
                .run
                .system
                .npu_compute_time(self.run.table.inv_npu_ops[cost_slot] * batch);
            let flash_floor = self
                .run
                .system
                .flash_compute_time(self.run.table.inv_flash_ops[cost_slot] * batch);
            let base = self.run.table.inv_lat[cost_slot]
                .max(npu_floor)
                .max(flash_floor);
            // The step's sampled fault time rides on its first weight
            // window (always 0 with faults off).
            if self.step_fault_extra > 0 {
                base + SimTime::from_picos(std::mem::take(&mut self.step_fault_extra))
            } else {
                base
            }
        } else if cost_slot < self.run.table.n_inv {
            // Per-request NPU work at the shared table price.
            self.ops_dispatched += batch;
            self.run.table.inv_lat[cost_slot] * batch
        } else {
            // Attention: summed over each member's sequence position.
            self.ops_dispatched += batch;
            let d = cost_slot - self.run.table.n_inv;
            self.batch
                .active
                .iter()
                .map(|&id| self.run.requests.dep_lat[id][d])
                .sum()
        };
        self.run.busy_track[s].add_interval(now, now + latency);
        self.run.ev.schedule_op(s, now + latency, BATCH_EVENT);
    }

    fn finish(mut self) -> (ServeReport, System) {
        assert!(
            self.pending.is_empty() && self.batch.active.is_empty(),
            "event core drained with work outstanding"
        );
        debug_assert_eq!(self.kv.tokens(), 0, "kv reservations leaked");
        self.batch.note_occupancy(self.run.ev.now);
        self.run.finish(
            SchedulePolicy::ContinuousBatch {
                max_batch: self.batch.max_batch,
            },
            self.ops_dispatched,
            self.gemv_dispatched,
            self.batch.occ_weighted_ps,
            self.batch.peak,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::FaultConfig;
    use flash_sim::FlashAge;
    use llm_workload::{zoo, RequestArrival};

    const TOKENS: usize = 12;

    fn faulted_engine(fc: FaultConfig) -> DeviceEngine {
        DeviceEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
            .with_faults(FaultMode::Injected(fc))
    }

    fn lone_trace() -> ArrivalTrace {
        ArrivalTrace::burst(1, RequestShape::new(300, TOKENS))
    }

    /// Admits the trace's lone request the way the general loop does
    /// (first token begun, fault window drawn), then runs one solo span
    /// with no arrival pending. Returns the run, the tokens coalesced,
    /// and the span-end event's time.
    fn lone_span(engine: &DeviceEngine) -> (DeviceRun<'_>, usize, SimTime) {
        let mut run = DeviceRun::new(engine, &lone_trace(), System::new(engine.cfg));
        let Some(Fired::Arrive(id)) = run.ev.pop() else {
            panic!("the trace's first event is its arrival");
        };
        assert_eq!(run.ev.next_arrival_ps(), None);
        let now = run.ev.now;
        run.requests.phase[id] = Phase::Decoding;
        run.requests.token_started[id] = now;
        run.begin_token(id);
        let k = run.run_solo_span(&mut 0, id, now);
        let (end, _, _) = run
            .ev
            .op_done
            .iter()
            .flatten()
            .copied()
            .next()
            .expect("a span schedules its end event");
        (run, k, SimTime::from_picos(end))
    }

    /// Runs `trace` through the per-op loop under `policy`; returns the
    /// report and the solo spans the run took.
    fn run_counting_spans(
        engine: &DeviceEngine,
        trace: &ArrivalTrace,
        policy: SchedulePolicy,
    ) -> (ServeReport, Vec<(usize, usize, usize)>) {
        let mut sim = Simulation::new(engine, trace, policy, System::new(engine.cfg));
        sim.event_loop();
        let spans = std::mem::take(&mut sim.run.solo_spans);
        (sim.finish().0, spans)
    }

    const POLICIES: [SchedulePolicy; 2] = [SchedulePolicy::Fcfs, SchedulePolicy::RoundRobin];

    #[test]
    fn lone_arrival_decodes_in_one_solo_span() {
        let engine = DeviceEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b());
        for policy in POLICIES {
            let (report, spans) = run_counting_spans(&engine, &lone_trace(), policy);
            assert_eq!(spans, [(0, TOKENS, TOKENS)], "{policy:?}");
            assert_eq!(report.tokens_served, TOKENS as u64);
        }
    }

    #[test]
    fn overlap_survivor_finishes_in_one_solo_span() {
        // Two decodes overlap from time zero, so the replay loop runs
        // them. Once the short one completes, the replay loop must hand
        // the survivor back at its next token boundary, and its
        // remaining tokens must run as one span ending at completion.
        // Reports cannot show this: they are equal with or without it.
        const SHORT: usize = 3;
        const LONG: usize = 20;
        let engine = DeviceEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b());
        let trace = ArrivalTrace::Open(
            [SHORT, LONG]
                .map(|n| RequestArrival {
                    at: SimTime::ZERO,
                    shape: RequestShape::new(300, n),
                })
                .to_vec(),
        );
        for policy in POLICIES {
            let (report, spans) = run_counting_spans(&engine, &trace, policy);
            let [short, long] = &report.requests[..] else {
                panic!("both requests complete");
            };
            assert_eq!((short.id, long.id), (0, 1), "{policy:?}");
            assert!(short.finished < long.finished, "{policy:?}");
            let [(id, k, owed)] = spans[..] else {
                panic!("{policy:?}: expected one solo span, got {spans:?}");
            };
            assert_eq!(id, 1, "{policy:?}");
            assert_eq!(k, owed, "{policy:?}: the span ends at completion");
            assert!(k < LONG, "{policy:?}: the overlapped tokens ran per op");
            let per_op = engine
                .clone()
                .with_span_mode(SpanMode::PerOp)
                .run(&trace, policy);
            assert_eq!(report, per_op, "{policy:?}");
        }
    }

    #[test]
    fn faulted_solo_span_coalesces_every_remaining_token() {
        // Worn out: every window rereads and uncorrectables derate the
        // bandwidth mid-span. With no arrival or deadline pending, one
        // span must carry the whole decode and end where per-op
        // stepping finishes.
        let fc = FaultConfig::aged(FlashAge::worn_out());
        let engine = faulted_engine(fc);
        let (run, k, end) = lone_span(&engine);
        assert_eq!(k, TOKENS);
        let f = run.faults.as_ref().expect("faults on");
        assert!(f.page_rereads > 0 && f.degraded_chips > 0);
        let per_op = faulted_engine(fc)
            .with_span_mode(SpanMode::PerOp)
            .run(&lone_trace(), SchedulePolicy::Fcfs);
        assert_eq!(end, per_op.requests[0].finished);
    }

    #[test]
    fn faulted_solo_span_stops_at_the_deadline_boundary() {
        // A total deadline halfway through the decode: the span must
        // coalesce the tokens before it and end on the first token
        // boundary at or after it, where the shed check runs.
        let probe = faulted_engine(FaultConfig::aged(FlashAge::worn_out()))
            .run(&lone_trace(), SchedulePolicy::Fcfs);
        let deadline = probe.requests[0].finished / 2;
        let fc = FaultConfig::aged(FlashAge::worn_out()).with_deadlines(None, Some(deadline));
        let engine = faulted_engine(fc);
        let (run, k, end) = lone_span(&engine);
        assert!((2..TOKENS).contains(&k), "span of {k} tokens");
        // The request arrived at zero, so the deadline is absolute.
        let last_interior = run.requests.token_started[0];
        assert!(last_interior < deadline && deadline <= end);
    }
}
