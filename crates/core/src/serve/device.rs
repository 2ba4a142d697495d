//! The device component: one flash/NPU device's entire event loop.
//!
//! [`DeviceEngine`] owns everything that happens *inside* one device —
//! the request pool, ready sets, span coalescing, fault windows and
//! prefill holds. Traces are fed in from the outside (a whole trace for
//! a single device, a routed sub-trace per replica under
//! [`crate::fleet`]), and the device runs its own specialized event
//! core.
//!
//! One run's shared state — pool, event core, fault run, report
//! accumulators, and a borrow of the [`PricedRun`] every cost comes
//! from — lives in a [`DeviceRun`], built once and turned into the
//! report once. Two event loops drive it:
//!
//! * [`Simulation`], the one loop for FCFS and round-robin, generic over
//!   the policy's [`ReadySet`], the one queue of the run. It interleaves
//!   the two resources op by op: a hot completion handler with targeted
//!   dispatch, out-of-line handlers for arrivals and for completions
//!   around a prefill, and one post-event dispatch pass. With spans on,
//!   that pass also starts **solo spans** ([`Simulation::solo_span`]),
//!   which price a lone request's whole tokens with a few adds;
//!   [`SpanMode::PerOp`] turns them off.
//! * **Layer-period jumps**, inside [`Simulation`] with spans on: a
//!   checkpoint between events each time the reference request enters
//!   a layer; when one repeats a checkpoint one or two layers earlier
//!   (relative to `now`, both stamps and the plan index), the loop
//!   applies the following periods as shifts instead of stepping them.
//!   This is exact because every position of the plan's layer loop
//!   prices like the one a layer later and the loop reads only the
//!   relative state. A jump ends before the next arrival and before any
//!   in-flight request leaves the layer loop, so no token boundary is
//!   skipped. [`SpanMode::PerOp`] turns jumps off too.
//! * [`BatchedSimulation`], the continuous-batching loop. It runs the
//!   batch in bulk-priced spans of whole batch steps; under
//!   [`SpanMode::PerOp`] each span is one step.
//!
//! Every path of both loops is pinned to the naive oracle in
//! `tests/support/oracle.rs`, which shares none of this module's
//! structures.
//!
//! Everything here is an implementation detail of the serving model
//! documented on [`crate::serve`]; the public surface is
//! [`DeviceEngine`] (also named [`super::ServeEngine`]).

use crate::config::SystemConfig;
use crate::reliability::{FaultMode, FaultRun, WindowDraw};
use crate::system::{PrefillCost, TrafficBreakdown};
use llm_workload::kv::kv_bytes_per_token;
use llm_workload::{ArrivalTrace, ModelSpec, OpCursor, PrefillPlan, RequestShape, TokenPlan};
use npu_sim::KvCache;
use sim_core::{Aggregate, BusyTracker, Samples, SimTime, SplitMix64};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use super::pricing::{decode_ranges, prompt_lens, PricedRun, DEP_LAT_MARK, MAX_DEP_SLOTS};
use super::{PrefillMode, RequestReport, SchedulePolicy, ServeReport, SpanMode};

/// A multi-request serving engine over one simulated device.
#[derive(Debug, Clone)]
pub struct DeviceEngine {
    pub(super) cfg: SystemConfig,
    pub(super) model: ModelSpec,
    /// Shared decode plan: one per engine, reused by every request of
    /// every run.
    pub(super) plan: TokenPlan,
    /// Shared prefill aggregates, evaluated per `(prompt_len)` bucket
    /// when [`PrefillMode::Modeled`].
    pub(super) prefill_plan: PrefillPlan,
    pub(super) prefill: PrefillMode,
    span: SpanMode,
    pub(super) faults: FaultMode,
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
    /// per-op mode (no solo spans and no layer-period jumps, one-step
    /// batch spans) exists for the span-equivalence tests and the
    /// benchmark's warm-up check.
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
        let priced = PricedRun::new(self, std::slice::from_ref(trace));
        self.run_priced(trace, policy, &priced)
    }

    /// Runs `trace` on a table priced before the call. The run reads
    /// every cost from `priced` and derives none, so `priced` must
    /// cover the trace: [`DeviceEngine::run`] prices the trace itself,
    /// and the Monte Carlo harness and the fleet price all their traces
    /// into one table ([`PricedRun::shared`]) that every run borrows.
    /// The report's cache counters count against `priced`.
    ///
    /// # Panics
    ///
    /// Panics if `priced` was built for another model or quantization,
    /// or the run reaches an attention position or prompt length it
    /// does not hold.
    pub(crate) fn run_priced(
        &self,
        trace: &ArrivalTrace,
        policy: SchedulePolicy,
        priced: &PricedRun,
    ) -> ServeReport {
        match policy {
            SchedulePolicy::ContinuousBatch { max_batch } => {
                assert!(max_batch >= 1, "a batch must hold at least one request");
                BatchedSimulation::new(self, trace, max_batch, priced).run()
            }
            SchedulePolicy::Fcfs => Simulation::<FcfsReady>::new(self, trace, priced).run(),
            SchedulePolicy::RoundRobin => Simulation::<RrReady>::new(self, trace, priced).run(),
        }
    }
}

/// Latency of request `id`'s current op, which runs on resource `rs`:
/// the plan position's price (the request's own attention price at an
/// attention position) plus, on flash with faults on, the fault time
/// its token has not spent yet — the token's sampled fault time rides
/// on its first flash dispatch. The one pricing rule of every per-op
/// dispatch; `pos_lat` is the priced table's `PlanTable::pos_lat`.
#[inline(always)]
fn op_latency(
    pos_lat: &[u64],
    requests: &mut RequestPool,
    id: usize,
    rs: usize,
    faults_on: bool,
) -> SimTime {
    let lat = pos_lat[requests.cursor[id].index()];
    let mut latency = if lat >= DEP_LAT_MARK {
        requests.dep_lat[id][(u64::MAX - lat) as usize]
    } else {
        SimTime::from_picos(lat)
    };
    if faults_on && rs == FLASH {
        let extra = std::mem::take(&mut requests.fault_extra[id]);
        if extra > 0 {
            latency += SimTime::from_picos(extra);
        }
    }
    latency
}

/// Branch-layout hint: calling this marks the enclosing block cold, so
/// the FCFS/RR loop's rare arms (one token boundary per `n_ops` events)
/// are laid out away from the hot op path.
#[cold]
#[inline(never)]
fn cold_mark() {}

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

    /// Records a dispatch of `id` at `now` under dispatch stamp `stamp`:
    /// the stamp becomes its round-robin key, and its first dispatch
    /// starts its service.
    #[inline(always)]
    fn note_dispatch(&mut self, id: usize, stamp: u64, now: SimTime) {
        self.last_scheduled[id] = stamp;
        self.cold[id].started.get_or_insert(now);
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
/// The batched loop pops it; the FCFS/RR loop ([`Simulation`]) keeps
/// its own op-slot mirrors and uses only the arrival heap and the
/// stamp.
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

    /// `(time_ps, stamp)` of the earliest pending arrival, `u64::MAX`
    /// pairs when none — the next externally imposed scheduling
    /// boundary a span or the FCFS/RR loop must respect.
    #[inline]
    fn next_arrival(&self) -> (u64, u64) {
        self.arrivals
            .peek()
            .map_or((u64::MAX, u64::MAX), |&Reverse((at, st, _))| (at, st))
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

/// One run's state shared by both event loops: the borrowed priced
/// table, the request pool and event core, the closed-loop clients, the
/// fault run, and every report accumulator. Built once by
/// [`DeviceRun::new`] and turned into the report once by
/// [`DeviceRun::finish`]; each loop adds only its own scheduling state.
struct DeviceRun<'a> {
    priced: &'a PricedRun,
    plan: &'a TokenPlan,
    /// Prefill simulation state: `Some` iff [`PrefillMode::Modeled`].
    prefill: Option<PrefillState>,
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
    /// Most tokens (or batch steps) one span may coalesce. 0 encodes
    /// [`SpanMode::PerOp`]: no solo spans under FCFS and round-robin,
    /// one-step spans under batching.
    span_cap: usize,
    /// Fault-injection state; `None` when [`FaultMode::Off`].
    faults: Option<FaultRun>,
}

impl<'a> DeviceRun<'a> {
    /// Sets up a run of `trace` on `priced`: builds the fault run, pool
    /// and event-core capacity, the per-request fault root, and the
    /// trace's requests and arrival events. Shared by both loops, so
    /// arrival order — and therefore event stamps — is identical
    /// regardless of policy.
    fn new(engine: &'a DeviceEngine, trace: &ArrivalTrace, priced: &'a PricedRun) -> Self {
        priced.check_plan(engine);
        let faults = FaultRun::for_engine(&engine.faults, &engine.cfg, priced.read_bw());
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
            priced,
            plan: &engine.plan,
            prefill: PrefillState::new(engine, trace),
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
        }
    }

    /// Starts a token for request `id`: reads this token's
    /// seq-dependent slot prices from the table and books the whole
    /// token's traffic up front — totals at completion are identical to
    /// per-dispatch accounting because every admitted token runs all its
    /// ops. The cursor must already sit at the token's first op.
    fn begin_token(&mut self, id: usize) {
        let DeviceRun {
            priced,
            traffic,
            requests,
            faults,
            ..
        } = self;
        let table = &priced.table;
        debug_assert!(!table.pos_lat.is_empty(), "plan unpriced");
        traffic.absorb(&table.inv_traffic);
        let seq = requests.cursor[id].seq_len();
        let (dep_lat, dep_traffic) = priced.attn_at(seq);
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
    /// prompt's cost (priced once per `(model, quant, prompt_len)`
    /// bucket before the loop starts — the engine fixes `(model,
    /// quant)`, so the key is the prompt length), stretched by the
    /// prompt's NAND read volume taken as one fault window, then booked
    /// as prefill busy time and traffic.
    fn charge_prefill(&mut self, id: usize) -> SimTime {
        let DeviceRun {
            priced,
            prefill,
            requests,
            traffic,
            faults,
            ..
        } = self;
        let ps = prefill.as_mut().expect("prefill charged with prefill off");
        let cost = priced.prefill_cost(requests.cold[id].shape.prompt_len);
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
    ) -> ServeReport {
        let DeviceRun {
            priced,
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
        // canonical shape the pricing step derived is a cache miss, and
        // every other dispatch replayed a memoized cost through the slot
        // table, so hits + misses partition the dispatched ops exactly.
        // Prefill pricing contributes its component lookups once per
        // prompt length of the run's own admitted requests.
        let (prefill_priced, prefill_busy) = prefill
            .as_ref()
            .map_or((0, SimTime::ZERO), |p| (p.buckets, p.busy));
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
            ttft.push(r.ttft());
            decode_ttft.push(r.decode_ttft().as_secs_f64());
        }
        // Span of actual service: first admitted arrival to the later of
        // the last completion and the last deadline shed, so busy time
        // spent on a shed request stays inside the horizon. Rejected
        // arrivals advance the event clock but are not simulated, so
        // they must not stretch the makespan or dilute the rates,
        // utilizations and occupancy derived from it.
        let last_exit = done.last().map(|r| r.finished).max(reliability.last_shed);
        let makespan = match (first_arrival, last_exit) {
            (Some(first), Some(last)) => last.saturating_sub(first),
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
        let (op_misses, gemv_misses) = priced.misses();
        ServeReport {
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
        }
    }
}

/// Prefill state of one simulation run.
#[derive(Debug)]
struct PrefillState {
    /// Distinct non-empty prompt lengths of the run's own admitted
    /// requests. Every admitted request with a prompt runs its prefill,
    /// so each is one priced bucket of [`PrefillCost::COMPONENT_OPS`]
    /// op-cost lookups for op-pricing accounting, whatever other traces
    /// the shared table was priced for.
    buckets: u64,
    /// Total device time spent prefilling.
    busy: SimTime,
}

impl PrefillState {
    fn new(engine: &DeviceEngine, trace: &ArrivalTrace) -> Option<Self> {
        match engine.prefill {
            PrefillMode::Off => None,
            PrefillMode::Modeled => Some(PrefillState {
                buckets: prompt_lens(&decode_ranges(engine, std::slice::from_ref(trace))).count()
                    as u64,
                busy: SimTime::ZERO,
            }),
        }
    }
}

/// Resource index of the flash device.
pub(super) const FLASH: usize = 0;
/// Resource index of the NPU.
pub(super) const NPU: usize = 1;

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
pub(super) fn kv_cache(engine: &DeviceEngine) -> KvCache {
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
    token_latencies.push(tb.saturating_sub(requests.token_started[id]));
    requests.token_started[id] = tb;
    let first = &mut requests.cold[id].first_token;
    if first.is_none() {
        *first = Some(tb);
    }
}

/// Deadline check at a token boundary, shared by both event loops:
/// returns whether the in-flight request `id` must be shed at `now`,
/// updating the fault counters and the last-shed instant. Checks are
/// strict (`>`): a request finishing exactly on its deadline meets it.
/// A request whose tokens are all done is never shed — late
/// completions are penalized through goodput scoring instead, so the
/// completion path stays the only exit for finished work.
fn deadline_shed(f: &mut FaultRun, requests: &RequestPool, id: usize, now: SimTime) -> bool {
    if requests.remaining[id] == 0 {
        return false;
    }
    let elapsed = now.saturating_sub(requests.cold[id].arrived);
    // The TTFT check fires exactly once, at the first token's boundary.
    let ttft_missed =
        requests.tokens_done(id) == 1 && f.ttft_deadline().is_some_and(|dl| elapsed > dl);
    if ttft_missed {
        f.ttft_timeouts += 1;
    } else if f.total_deadline().is_some_and(|dl| elapsed > dl) {
        f.deadline_sheds += 1;
    } else {
        return false;
    }
    f.shed_tokens += requests.tokens_done(id) as u64;
    f.last_shed = Some(now);
    true
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

/// A per-op policy's ready set: per resource, the admitted requests
/// whose next op waits for that resource, popped in ascending
/// `(key, id)` order. The FCFS key is the arrival time; the
/// round-robin key is the last-scheduled dispatch stamp, 0 before the
/// first dispatch. One set lives for the whole run, and every handler
/// of [`Simulation`] enqueues into it and pops from it.
///
/// Neither key changes while a request waits, so each policy orders its
/// members by a law of its own instead of a heap: FCFS ranks a request
/// once, at admission, and round-robin relies on each resource
/// completing its ops in dispatch-stamp order. The independent check of
/// the pop order is the oracle in `tests/support/oracle.rs`.
trait ReadySet: Default {
    /// The policy the set implements.
    const POLICY: SchedulePolicy;
    /// Whether a member popped as the minimum stays the minimum for as
    /// long as the membership and every key are unchanged (true for
    /// FCFS, whose keys are static; false for round-robin, whose
    /// rotation re-keys every dispatch). Inside a single-resource
    /// stretch of [`Simulation::step`] this licenses redispatching the
    /// completing member without touching the set.
    const RETAINS_MIN: bool;
    /// Admits request `id`, which arrived at `arrived_ps`, and queues
    /// it for resource `rs`. Admissions come in ascending
    /// `(arrival, id)` order: ids and arrival events are handed out
    /// together, in push order, and arrivals fire in `(time, push)`
    /// order.
    fn admit(&mut self, rs: usize, arrived_ps: u64, id: u32);
    /// Re-queues member `id` for resource `rs` after its op on resource
    /// `src` completed; `key` is its last-scheduled stamp, the stamp of
    /// that op's dispatch.
    fn enqueue(&mut self, rs: usize, src: usize, key: u64, id: u32);
    /// The queued member minimizing `(key, id)` for `rs`.
    fn peek_min(&self, rs: usize) -> Option<u32>;
    /// Removes and returns [`ReadySet::peek_min`].
    fn pop_min(&mut self, rs: usize) -> Option<u32>;
    /// Members queued for `rs`.
    fn queued(&self, rs: usize) -> usize;
    /// Calls `f` on every member queued for `rs`, in pop order. Returns
    /// false when that order does not follow from the members' keys
    /// alone: round-robin members never scheduled yet pop first, by id.
    /// A layer-period checkpoint records the order.
    fn pop_order(&self, rs: usize, f: impl FnMut(u32)) -> bool;
    /// Adds `by` to every key that is a dispatch stamp: a layer-period
    /// jump moves every dispatch stamp, and so every round-robin key,
    /// forward by `by`.
    fn shift_keys(&mut self, by: u64);
}

/// FCFS ready set. Arrival keys are static and admissions come in key
/// order, so a request's rank is its admission index, assigned once,
/// and each resource's set is a rank-indexed bitmask. Enqueue sets one
/// bit. Pop-min is a trailing-zeros scan from the lowest word that can
/// hold a bit, so it walks the live rank window, not every request
/// admitted so far.
#[derive(Debug, Default)]
struct FcfsReady {
    /// Member id per rank.
    order: Vec<u32>,
    /// id → rank, dense over the admitted ids.
    rank: Vec<u32>,
    /// Rank-indexed ready bits per resource.
    mask: [Vec<u64>; 2],
    /// Per resource, a word index with no ready bit below it.
    lo: [usize; 2],
    queued: [usize; 2],
    /// Arrival of the latest admission, for the order check.
    last_arrival: u64,
}

impl FcfsReady {
    #[inline(always)]
    fn set(&mut self, rs: usize, r: usize) {
        let w = r / 64;
        self.mask[rs][w] |= 1u64 << (r % 64);
        self.lo[rs] = self.lo[rs].min(w);
        self.queued[rs] += 1;
    }

    /// Word and bit of the lowest queued rank for `rs`.
    #[inline(always)]
    fn first(&self, rs: usize) -> Option<(usize, usize)> {
        if self.queued[rs] == 0 {
            return None;
        }
        let mask = &self.mask[rs];
        let mut w = self.lo[rs];
        while mask[w] == 0 {
            w += 1;
        }
        Some((w, mask[w].trailing_zeros() as usize))
    }
}

impl ReadySet for FcfsReady {
    const POLICY: SchedulePolicy = SchedulePolicy::Fcfs;
    const RETAINS_MIN: bool = true;

    fn admit(&mut self, rs: usize, arrived_ps: u64, id: u32) {
        debug_assert!(
            self.order
                .last()
                .map_or(true, |&prev| (self.last_arrival, prev) < (arrived_ps, id)),
            "admissions out of (arrival, id) order"
        );
        self.last_arrival = arrived_ps;
        let r = self.order.len();
        self.order.push(id);
        let i = id as usize;
        if self.rank.len() <= i {
            self.rank.resize(i + 1, u32::MAX);
        }
        self.rank[i] = r as u32;
        if r % 64 == 0 {
            for m in &mut self.mask {
                m.push(0);
            }
        }
        self.set(rs, r);
    }

    #[inline]
    fn enqueue(&mut self, rs: usize, _src: usize, _key: u64, id: u32) {
        let r = self.rank[id as usize] as usize;
        debug_assert_ne!(r, u32::MAX as usize, "enqueue of a non-member");
        self.set(rs, r);
    }

    #[inline]
    fn peek_min(&self, rs: usize) -> Option<u32> {
        let (w, b) = self.first(rs)?;
        Some(self.order[w * 64 + b])
    }

    #[inline]
    fn pop_min(&mut self, rs: usize) -> Option<u32> {
        let (w, b) = self.first(rs)?;
        self.mask[rs][w] &= !(1u64 << b);
        self.lo[rs] = w;
        self.queued[rs] -= 1;
        Some(self.order[w * 64 + b])
    }

    #[inline]
    fn queued(&self, rs: usize) -> usize {
        self.queued[rs]
    }

    fn pop_order(&self, rs: usize, mut f: impl FnMut(u32)) -> bool {
        let mut left = self.queued[rs];
        let mut w = self.lo[rs];
        while left > 0 {
            let mut bits = self.mask[rs][w];
            while bits != 0 {
                f(self.order[w * 64 + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
                left -= 1;
            }
            w += 1;
        }
        true
    }

    /// Arrival keys are not stamps: nothing moves.
    fn shift_keys(&mut self, _by: u64) {}
}

/// One ascending FIFO lane of the round-robin ready set: a power-of-two
/// ring whose front key is cached in a register-friendly field
/// (`u64::MAX` when empty), so pop-min compares plain loads. Head and
/// tail grow monotonically and are masked on access; a full ring
/// doubles.
#[derive(Debug)]
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

impl Default for RrLane {
    fn default() -> Self {
        RrLane {
            key: Vec::new(),
            id: Vec::new(),
            head: 0,
            tail: 0,
            mask: 0,
            front: u64::MAX,
        }
    }
}

impl RrLane {
    #[inline]
    fn push(&mut self, key: u64, id: u32) {
        if self.tail - self.head == self.key.len() {
            self.grow();
        }
        debug_assert!(
            self.head == self.tail || key > self.key[(self.tail - 1) & self.mask],
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

    /// Doubles the ring (at least 4 entries), keeping the queued
    /// entries in order.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let n = self.tail - self.head;
        let cap = (2 * n).max(4);
        let mut key = Vec::with_capacity(cap);
        let mut id = Vec::with_capacity(cap);
        for i in self.head..self.tail {
            key.push(self.key[i & self.mask]);
            id.push(self.id[i & self.mask]);
        }
        key.resize(cap, 0);
        id.resize(cap, 0);
        self.key = key;
        self.id = id;
        self.head = 0;
        self.tail = n;
        self.mask = cap - 1;
    }

    #[inline]
    fn peek(&self) -> u32 {
        debug_assert!(self.head < self.tail, "peek of an empty lane");
        self.id[self.head & self.mask]
    }

    #[inline]
    fn pop(&mut self) -> u32 {
        let v = self.peek();
        self.head += 1;
        self.front = if self.head == self.tail {
            u64::MAX
        } else {
            self.key[self.head & self.mask]
        };
        v
    }

    /// Adds `by` to every queued key; the lane stays ascending.
    fn shift(&mut self, by: u64) {
        for i in self.head..self.tail {
            self.key[i & self.mask] += by;
        }
        if self.head != self.tail {
            self.front += by;
        }
    }
}

/// Round-robin ready set. A scheduled member's key is the stamp of its
/// last dispatch, and each resource completes its ops in dispatch-stamp
/// order, so the members one resource's completions re-queue arrive in
/// ascending key order. Per target resource, one ascending FIFO lane
/// per completing resource therefore replaces a heap, and pop-min
/// compares two cached fronts. Keys are unique stamps, so the
/// comparison is total. Never-scheduled members share key 0 and rank
/// by id: they wait in a lane of their own, kept in id order (closed
/// loops and hand-built open traces can admit ids out of order), which
/// wins whenever it is non-empty.
#[derive(Debug, Default)]
struct RrReady {
    /// Per resource: never-scheduled members, ascending id.
    fresh: [VecDeque<u32>; 2],
    /// `lanes[rs][src]`: members re-queued for `rs` by a completion on
    /// `src`.
    lanes: [[RrLane; 2]; 2],
    queued: [usize; 2],
}

impl ReadySet for RrReady {
    const POLICY: SchedulePolicy = SchedulePolicy::RoundRobin;
    const RETAINS_MIN: bool = false;

    fn admit(&mut self, rs: usize, _arrived_ps: u64, id: u32) {
        let fresh = &mut self.fresh[rs];
        let at = fresh.partition_point(|&f| f < id);
        fresh.insert(at, id);
        self.queued[rs] += 1;
    }

    #[inline]
    fn enqueue(&mut self, rs: usize, src: usize, key: u64, id: u32) {
        debug_assert!(key > 0, "a re-queued member was scheduled");
        self.lanes[rs][src].push(key, id);
        self.queued[rs] += 1;
    }

    #[inline]
    fn peek_min(&self, rs: usize) -> Option<u32> {
        if let Some(&id) = self.fresh[rs].front() {
            return Some(id);
        }
        let [a, b] = &self.lanes[rs];
        if a.front < b.front {
            Some(a.peek())
        } else if b.front != u64::MAX {
            Some(b.peek())
        } else {
            None
        }
    }

    #[inline]
    fn pop_min(&mut self, rs: usize) -> Option<u32> {
        let id = match self.fresh[rs].pop_front() {
            Some(id) => id,
            None => {
                let [a, b] = &mut self.lanes[rs];
                if a.front < b.front {
                    a.pop()
                } else if b.front != u64::MAX {
                    b.pop()
                } else {
                    return None;
                }
            }
        };
        self.queued[rs] -= 1;
        Some(id)
    }

    #[inline]
    fn queued(&self, rs: usize) -> usize {
        self.queued[rs]
    }

    fn pop_order(&self, rs: usize, mut f: impl FnMut(u32)) -> bool {
        self.fresh[rs].iter().for_each(|&id| f(id));
        // Merge the two ascending lanes by key, as `pop_min` would.
        let [a, b] = &self.lanes[rs];
        let (mut i, mut j) = (a.head, b.head);
        while i < a.tail || j < b.tail {
            let ka = if i < a.tail {
                a.key[i & a.mask]
            } else {
                u64::MAX
            };
            let kb = if j < b.tail {
                b.key[j & b.mask]
            } else {
                u64::MAX
            };
            if ka < kb {
                f(a.id[i & a.mask]);
                i += 1;
            } else {
                f(b.id[j & b.mask]);
                j += 1;
            }
        }
        self.fresh[rs].is_empty()
    }

    fn shift_keys(&mut self, by: u64) {
        debug_assert!(
            self.fresh.iter().all(VecDeque::is_empty),
            "a jump with never-scheduled members"
        );
        for lane in self.lanes.iter_mut().flatten() {
            lane.shift(by);
        }
    }
}

/// Most layers one period of a [`Simulation`] layer-period jump may
/// span. Lockstep round-robin on Llama2-70B repeats with a period of
/// one layer for most of a token, and of two late in a long decode.
const MAX_PERIOD_LAYERS: usize = 2;

/// Entries of the [`Simulation`] checkpoint ring: the latest
/// [`MAX_PERIOD_LAYERS`] and the one being taken.
const CK_RING: usize = MAX_PERIOD_LAYERS + 1;

/// What a layer-period jump shifts: `now`, the event and dispatch
/// stamps, and the busy time booked per resource (its open run
/// included), all in picoseconds or stamps.
#[derive(Debug, Default, Clone, Copy)]
struct Clock {
    now: u64,
    stamp: u64,
    d_stamp: u64,
    booked: [u64; 2],
}

/// One layer-period checkpoint of [`Simulation`], taken between events.
///
/// Every checkpoint records the pace: the reference's plan index, the
/// dispatch stamp and how many requests are in flight. A full one also
/// records the loop's state relative to its clock and the reference's
/// plan index. Two full checkpoints with equal states, whose reference
/// indices differ by whole layers, have the same future up to that
/// shift, for as long as every position they reach is periodic and no
/// arrival intervenes.
#[derive(Debug, Default)]
struct Checkpoint {
    /// The reference request's plan index.
    ref_idx: usize,
    /// The dispatch stamp.
    d_stamp: u64,
    /// Requests in flight.
    in_flight: usize,
    /// Whether the rest was recorded: every field below is meaningful
    /// only then.
    full: bool,
    clock: Clock,
    /// Per resource: its slot's end and stamp (`u64::MAX` twice when
    /// idle), the end of the busy run a dispatch could still chain onto
    /// (`u64::MAX` when none), and its ready-set size.
    head: [u64; 8],
    /// The in-flight requests: the occupants of the flash and NPU
    /// slots, then each resource's ready set in pop order.
    members: Vec<u32>,
    /// Per member: its id, sequence position, plan index and
    /// round-robin key.
    rel: Vec<u64>,
    /// The highest plan index of any member.
    max_idx: usize,
}

impl Checkpoint {
    /// Whether the loop kept a lockstep pace from `a`, taken `layers`
    /// layers of `len` ops earlier: the same requests in flight, and
    /// exactly one dispatch per op each of them moved if they all moved
    /// `layers` layers, as a repeat of `a` requires.
    fn keeps_pace(&self, a: &Checkpoint, layers: usize, len: usize) -> bool {
        let ops = layers * len;
        a.ref_idx + ops == self.ref_idx
            && a.in_flight == self.in_flight
            && self.d_stamp - a.d_stamp == (self.in_flight * ops) as u64
    }
}

/// The event loop for FCFS and round-robin, generic over the policy's
/// [`ReadySet`]: each resource serves one op at a time, and a freed
/// resource dispatches the ready request its policy ranks first.
///
/// The loop keeps its own mirrors of the two op slots for the whole run
/// (flattened to sentinel arrays — `u64::MAX` end time marks an idle
/// slot, cheaper to test and update than `Option` tuples) and reads
/// arrivals from the event core's heap through a cached head. The next
/// event is the earliest `(time, stamp)` of the two slots and that
/// head; stamps are unique, so the order is total and simultaneous
/// events fire in the order they were scheduled. Each event takes one
/// of three handlers:
///
/// * [`Simulation::step`], the hot path: an op completion no prefill
///   interacts with, dispatching only on the resources the completion
///   can affect;
/// * [`Simulation::arrive`]: KV admission control, the first token's
///   start, and entry into the ready set;
/// * [`Simulation::general`]: the op completions a prefill interacts
///   with ([`Simulation::prefill_blocks`]) — the prefill's finish, the
///   release of its NPU hold, and decodes that must not take `step`'s
///   targeted dispatch because a queued prefill may be next on the
///   flash or may keep it idle with its queue non-empty.
///
/// [`Simulation::settle`] then runs the solo-span check and a dispatch
/// pass over every idle resource; it follows every event except a KV
/// rejection and a `step` completion that stays inside a token. Token
/// boundaries go through one [`Simulation::token_done`] on both
/// completion paths.
///
/// Busy time is booked lazily: dispatches that chain gaplessly on a
/// resource (its start equals the previous dispatch's end — always true
/// on a saturated resource) merge into one open run, flushed as a
/// single interval when a gap opens and at the end of the run. Busy
/// sums are integer picoseconds and the two trackers are independent,
/// so the deferral is unobservable.
///
/// **Layer-period jumps.** With spans on, the loop also skips the
/// layers a lockstep schedule repeats exactly. Each time the reference
/// request (the trailing one: the highest in-flight id) enters a new
/// layer of the plan's periodic range ([`TokenPlan::periodic_range`]),
/// the loop takes a [`Checkpoint`] between events; where it kept a
/// lockstep pace, the checkpoint records its whole state relative to
/// `now`, both stamps and the reference's plan index. When that state
/// equals the one recorded `p ≤` [`MAX_PERIOD_LAYERS`] layers earlier,
/// the next `k` periods are that period shifted, and
/// [`Simulation::jump`] applies them in O(in-flight) arithmetic. When
/// the trailing request starts a token every other member has started
/// its own, so a token's jumps begin a layer sooner than with the
/// leading request as reference, whose first layer entry still
/// straddles the previous token. The argument is exact: inside the
/// periodic range a position and the one a layer later have the same
/// resource and price, no in-flight request owes fault time, and every
/// decision the loop takes reads only the recorded relative state. `k`
/// is bounded so that no arrival lands at or before the jump's end and
/// every plan position the skipped periods touch stays inside the
/// periodic range, so no token boundary — no latency sample, shed,
/// fault draw, respawn or traffic booking — is skipped.
/// [`SpanMode::PerOp`] turns jumps off with the solo spans.
struct Simulation<'a, Q> {
    run: DeviceRun<'a>,
    ready: Q,
    n_ops: usize,
    /// The priced table's `PlanTable::class_slots` and
    /// `PlanTable::pos_lat`, held here so the per-op path reads them
    /// without going through the table.
    class_slots: &'a [u8],
    pos_lat: &'a [u64],
    faults_on: bool,
    /// Per resource: end time in picoseconds of the op in flight
    /// (`u64::MAX` when idle), its event stamp and its request.
    s_at: [u64; 2],
    s_st: [u64; 2],
    s_id: [u32; 2],
    /// Dispatch stamp, bumped per dispatched op: the round-robin
    /// recency key.
    d_stamp: u64,
    now: SimTime,
    /// `(time_ps, stamp)` of the earliest pending arrival, refreshed
    /// whenever the heap changes.
    next_arr: (u64, u64),
    /// Admitted requests whose prefill has not released the NPU yet.
    /// While it is nonzero, [`Simulation::prefill_blocks`] picks the
    /// completions that take [`Simulation::general`].
    prefills: usize,
    busy_start: [u64; 2],
    /// End of each resource's open busy run; `u64::MAX` when none.
    busy_end: [u64; 2],
    /// The plan's layer length and the end of its periodic range (which
    /// starts at position 0), for layer-period jumps.
    layer_len: usize,
    periodic_end: usize,
    /// The reference request: the trailing one, the highest in-flight
    /// id, whose layer entries take the checkpoints.
    ck_ref: usize,
    /// The reference's plan index at which the next checkpoint fires;
    /// `usize::MAX` when none will (spans off, or nothing in flight).
    ck_idx: usize,
    /// A ring of checkpoints: the latest `ck_len` (at most
    /// [`MAX_PERIOD_LAYERS`]) since the last jump, reference token
    /// boundary or arrival end at `ck_at`, and the next one goes into
    /// the entry after it.
    cks: [Checkpoint; CK_RING],
    ck_at: usize,
    ck_len: usize,
    /// Checkpoints taken, layer-period jumps taken, the periods they
    /// skipped, and the per-op dispatches actually executed. Filled only
    /// in unit tests, which pin them: reports are the same with or
    /// without jumps.
    #[cfg(test)]
    checkpoints: u64,
    #[cfg(test)]
    jumps: u64,
    #[cfg(test)]
    periods_skipped: u64,
    #[cfg(test)]
    dispatches: u64,
    /// Every solo span run, as `(request, tokens coalesced, tokens the
    /// request owed at its start)`. Filled only in unit tests, which
    /// use it to see that a span engaged: reports cannot show that.
    #[cfg(test)]
    solo_spans: Vec<(usize, usize, usize)>,
    /// Op completions that took [`Simulation::general`]. Filled only in
    /// unit tests: reports are the same whichever path an op takes.
    #[cfg(test)]
    general_ops: u64,
}

impl<'a, Q: ReadySet> Simulation<'a, Q> {
    fn new(engine: &'a DeviceEngine, trace: &ArrivalTrace, priced: &'a PricedRun) -> Self {
        let run = DeviceRun::new(engine, trace, priced);
        debug_assert_eq!(run.plan.periodic_range().start, 0);
        Simulation {
            ready: Q::default(),
            n_ops: run.plan.len(),
            class_slots: &priced.table.class_slots,
            pos_lat: &priced.table.pos_lat,
            faults_on: run.faults.is_some(),
            s_at: [u64::MAX; 2],
            s_st: [u64::MAX; 2],
            s_id: [0; 2],
            d_stamp: 0,
            now: SimTime::ZERO,
            next_arr: run.ev.next_arrival(),
            prefills: 0,
            busy_start: [0; 2],
            busy_end: [u64::MAX; 2],
            layer_len: run.plan.layer_len(),
            periodic_end: run.plan.periodic_range().end,
            ck_ref: 0,
            ck_idx: usize::MAX,
            cks: Default::default(),
            ck_at: 0,
            ck_len: 0,
            run,
            #[cfg(test)]
            checkpoints: 0,
            #[cfg(test)]
            jumps: 0,
            #[cfg(test)]
            periods_skipped: 0,
            #[cfg(test)]
            dispatches: 0,
            #[cfg(test)]
            solo_spans: Vec::new(),
            #[cfg(test)]
            general_ops: 0,
        }
    }

    fn run(mut self) -> ServeReport {
        self.drive();
        self.finish()
    }

    fn finish(self) -> ServeReport {
        assert!(
            self.ready.queued(FLASH) + self.ready.queued(NPU) == 0,
            "event loop drained with work outstanding"
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
        let gemv_dispatched = tokens * run.priced.table.gemvs_per_token;
        run.finish(Q::POLICY, ops_dispatched, gemv_dispatched, 0, 0)
    }

    /// Fires events until none is pending, then books the open busy
    /// runs.
    fn drive(&mut self) {
        loop {
            let s = usize::from((self.s_at[1], self.s_st[1]) < (self.s_at[0], self.s_st[0]));
            let at = self.s_at[s];
            if self.next_arr < (at, self.s_st[s]) {
                self.arrive();
                continue;
            }
            if at == u64::MAX {
                break;
            }
            debug_assert!(at >= self.now.as_picos(), "event loop went back in time");
            self.now = SimTime::from_picos(at);
            if self.prefills > 0 && self.prefill_blocks(s) {
                self.general(s);
            } else if s == 0 {
                self.step::<0>();
            } else {
                self.step::<1>();
            }
            if self.run.requests.cursor[self.ck_ref].index() >= self.ck_idx {
                self.checkpoint();
            }
        }
        self.flush_busy(FLASH);
        self.flush_busy(NPU);
    }

    /// Whether the completion on `s` must take [`Simulation::general`]
    /// while [`Simulation::prefills`] is nonzero: a prefill is in flight
    /// (its finish, and the release of its NPU hold), the NPU frees
    /// while the flash idles behind a queued prefill, or the flash frees
    /// with a queued prefill at the head of its queue. Any other
    /// completion leaves a queued prefill where it is, so `step`'s
    /// targeted dispatch stays exact.
    #[inline(always)]
    fn prefill_blocks(&self, s: usize) -> bool {
        if self.s_at[NPU] != u64::MAX && self.s_id[NPU] == PREFILL_HOLD as u32 {
            return true;
        }
        if s == NPU {
            return self.s_at[FLASH] == u64::MAX;
        }
        self.ready
            .peek_min(FLASH)
            .is_some_and(|id| self.run.requests.phase[id as usize] == Phase::Queued)
    }

    /// The arrival handler: pops the earliest arrival and either rejects
    /// it or admits it into the ready set, then settles.
    #[inline(never)]
    fn arrive(&mut self) {
        let Reverse((at, _, id)) = self.run.ev.arrivals.pop().expect("an arrival is pending");
        debug_assert!(at >= self.now.as_picos(), "event loop went back in time");
        let now = SimTime::from_picos(at);
        self.now = now;
        // An arrival is not part of any layer period: no earlier
        // checkpoint may measure one across it.
        self.ck_len = 0;
        let id = id as usize;
        let run = &mut self.run;
        // KV admission control: a context (prompt + generation) that can
        // never fit in the DRAM KV allocation is a counted rejection
        // (`KvCapacityError` at prefill/append on real hardware), not a
        // simulated run — the same never-fits criterion
        // `ContinuousBatch` uses. Anything that fits alone is admitted
        // immediately; these policies interleave per-op and do not
        // reserve shared capacity ahead, `ContinuousBatch` does. A
        // rejection changes nothing a dispatch pass could act on.
        let shape = run.requests.cold[id].shape;
        if shape.prompt_len + shape.new_tokens > run.kv_max_context {
            run.kv_rejections += 1;
            self.respawn(id);
            return;
        }
        self.next_arr = run.ev.next_arrival();
        // The request begins its first token and enters the ready set of
        // its first op's resource — unless it owes a prefill, in which
        // case it queues (state `Queued`) for the whole device on the
        // flash side and begins its first token only once the prompt is
        // resident.
        let arrived = run.requests.cold[id].arrived;
        run.first_arrival.get_or_insert(arrived);
        run.requests.token_started[id] = now;
        let rs = if run.prefill.is_some() && shape.prompt_len > 0 {
            self.prefills += 1;
            FLASH
        } else {
            run.requests.phase[id] = Phase::Decoding;
            run.begin_token(id);
            self.class_slots[run.requests.cursor[id].index()] as usize
        };
        self.ready.admit(rs, arrived.as_picos(), id as u32);
        if self.run.span_cap > 0 && (self.ck_idx == usize::MAX || id > self.ck_ref) {
            self.ck_ref = id;
            self.ck_idx = 0;
        }
        self.settle();
    }

    /// An op completion on `s` that a prefill interacts with: finishes
    /// the prefill or releases its hold, or re-queues the completing
    /// request wherever its next op waits; then settles.
    #[inline(never)]
    fn general(&mut self, s: usize) {
        #[cfg(test)]
        {
            self.general_ops += 1;
        }
        let id32 = self.s_id[s];
        let id = id32 as usize;
        self.s_at[s] = u64::MAX;
        let run = &mut self.run;
        if id == PREFILL_HOLD {
            // The NPU-side hold of a finished prefill: nothing to step,
            // the resource is simply free again for the dispatch pass.
            self.prefills -= 1;
        } else if run.requests.phase[id] == Phase::Prefilling {
            // Prefill complete (flash-slot event): the prompt is
            // resident, decode begins.
            run.requests.phase[id] = Phase::Decoding;
            run.requests.cold[id].prefill_end = Some(self.now);
            run.begin_token(id);
            let rs = self.class_slots[run.requests.cursor[id].index()] as usize;
            self.enqueue(rs, s, id32);
        } else {
            run.requests.cursor[id].advance();
            let idx = run.requests.cursor[id].index();
            if idx < self.n_ops {
                let rs = self.class_slots[idx] as usize;
                self.enqueue(rs, s, id32);
            } else {
                self.token_done(s, id32);
            }
        }
        self.settle();
    }

    /// The post-event pass: the solo-span check, then a dispatch on
    /// every idle resource with a ready request, flash first. A queued
    /// prefill waits for both resources.
    #[inline(never)]
    fn settle(&mut self) {
        // Span fast-forwarding: with exactly one request in flight,
        // parked at a token boundary, and both resources idle, whole
        // tokens coalesce into one bulk-priced span (every other live
        // request would be queued or holding a pending completion, so
        // this condition is exact). A request that cannot coalesce a
        // token (an arrival is imminent, or it owes a prefill or sits
        // mid-token) stays queued for ordinary per-op dispatch below.
        if self.run.span_cap > 0
            && self.s_at[FLASH] == u64::MAX
            && self.s_at[NPU] == u64::MAX
            && self.ready.queued(FLASH) + self.ready.queued(NPU) == 1
        {
            let rs = usize::from(self.ready.queued(FLASH) == 0);
            let id = self.ready.peek_min(rs).expect("one request is queued") as usize;
            if self.run.requests.phase[id] == Phase::Decoding
                && self.run.requests.cursor[id].index() == 0
                && self.solo_span(id) > 0
            {
                self.ready.pop_min(rs);
                return;
            }
        }
        for s in [FLASH, NPU] {
            if self.s_at[s] != u64::MAX {
                continue;
            }
            let Some(id32) = self.ready.peek_min(s) else {
                continue;
            };
            let id = id32 as usize;
            if self.run.requests.phase[id] == Phase::Queued {
                // A pending prefill: it needs the whole device (flash
                // stream + NPU GeMMs together). If the NPU is mid-op,
                // the flash idles and the prefill keeps its place at the
                // head — no later flash work jumps it — retrying at the
                // next completion event.
                debug_assert_eq!(s, FLASH);
                if self.s_at[NPU] != u64::MAX {
                    continue;
                }
                self.ready.pop_min(s);
                self.d_stamp += 1;
                let now = self.now;
                self.run.requests.note_dispatch(id, self.d_stamp, now);
                self.run.requests.phase[id] = Phase::Prefilling;
                let end = (now + self.run.charge_prefill(id)).as_picos();
                self.book(FLASH, now.as_picos(), end);
                self.book(NPU, now.as_picos(), end);
                self.schedule(FLASH, end, id32);
                self.schedule(NPU, end, PREFILL_HOLD as u32);
                continue;
            }
            self.ready.pop_min(s);
            self.dispatch(s, id32);
        }
    }

    /// The token-boundary half of a completion on `s`: retire the token,
    /// then shed, continue or complete the request. Both completion
    /// paths call it, and settle after it.
    #[inline(always)]
    fn token_done(&mut self, s: usize, id32: u32) {
        let id = id32 as usize;
        let now = self.now;
        let run = &mut self.run;
        retire_token(&mut run.requests, id, now, &mut run.token_latencies);
        let shed = run
            .faults
            .as_mut()
            .is_some_and(|f| deadline_shed(f, &run.requests, id, now));
        if shed {
            // Deadline missed: the request is shed (not completed, not
            // reported), its client re-issues immediately.
            run.requests.phase[id] = Phase::Done;
            self.respawn(id);
        } else if run.requests.remaining[id] > 0 {
            // Next token: context has grown by the token just emitted.
            run.requests.cursor[id].next_token();
            run.begin_token(id);
            let rs0 = self.class_slots[0] as usize;
            self.enqueue(rs0, s, id32);
        } else {
            // Request complete; in a closed loop the client immediately
            // issues its next request.
            run.complete_request(id, now);
            self.respawn(id);
        }
        if id == self.ck_ref && self.ck_idx != usize::MAX {
            self.rebase_checkpoints();
        }
    }

    /// Re-issues the closed-loop client of departing request `id`, if
    /// any, and refreshes the arrival head.
    #[inline(always)]
    fn respawn(&mut self, id: usize) {
        self.run.respawn_client(id, self.now);
        self.next_arr = self.run.ev.next_arrival();
    }

    /// Books `[start, end)` picoseconds busy on `rs`, extending the open
    /// run when the interval chains onto it.
    #[inline(always)]
    fn book(&mut self, rs: usize, start: u64, end: u64) {
        if self.busy_end[rs] != start {
            self.flush_busy(rs);
            self.busy_start[rs] = start;
        }
        self.busy_end[rs] = end;
    }

    /// Books resource `rs`'s open busy run, if any.
    #[inline(always)]
    fn flush_busy(&mut self, rs: usize) {
        if self.busy_end[rs] != u64::MAX {
            self.run.busy_track[rs].add_interval(
                SimTime::from_picos(self.busy_start[rs]),
                SimTime::from_picos(self.busy_end[rs]),
            );
            self.busy_end[rs] = u64::MAX;
        }
    }

    /// Fills slot `rs` with an op of request `id32` ending at `end_ps`,
    /// under the next event stamp.
    #[inline(always)]
    fn schedule(&mut self, rs: usize, end_ps: u64, id32: u32) {
        debug_assert_eq!(self.s_at[rs], u64::MAX, "resource already busy");
        self.s_at[rs] = end_ps;
        self.s_st[rs] = self.run.ev.stamp;
        self.s_id[rs] = id32;
        self.run.ev.stamp += 1;
    }

    /// Dispatches member `nid32` on resource `rs` at `now`. Called with
    /// a constant `rs` on the hot paths, so the resource-conditional
    /// branches fold away.
    #[inline(always)]
    fn dispatch(&mut self, rs: usize, nid32: u32) {
        let nid = nid32 as usize;
        let now = self.now;
        #[cfg(test)]
        {
            self.dispatches += 1;
        }
        let requests = &mut self.run.requests;
        debug_assert_eq!(requests.phase[nid], Phase::Decoding);
        self.d_stamp += 1;
        requests.note_dispatch(nid, self.d_stamp, now);
        debug_assert_eq!(
            self.class_slots[requests.cursor[nid].index()] as usize,
            rs,
            "ready list / op class mismatch"
        );
        let latency = op_latency(self.pos_lat, requests, nid, rs, self.faults_on);
        let end_ps = (now + latency).as_picos();
        self.book(rs, now.as_picos(), end_ps);
        self.schedule(rs, end_ps, nid32);
    }

    /// Queues member `id32` for `rs` on behalf of a completion on `src`
    /// and dispatches the queue's winner — enqueue-then-pop on a freed
    /// resource.
    #[inline(always)]
    fn requeue_dispatch(&mut self, rs: usize, src: usize, id32: u32) {
        self.enqueue(rs, src, id32);
        self.dispatch_queued(rs);
    }

    /// Queues member `id32` for resource `rs` on behalf of a completion
    /// on `src`.
    #[inline(always)]
    fn enqueue(&mut self, rs: usize, src: usize, id32: u32) {
        let key = self.run.requests.last_scheduled[id32 as usize];
        self.ready.enqueue(rs, src, key, id32);
    }

    /// Dispatches resource `rs`'s queue winner, if any is queued.
    #[inline(always)]
    fn dispatch_queued(&mut self, rs: usize) {
        if let Some(nid32) = self.ready.pop_min(rs) {
            self.dispatch(rs, nid32);
        }
    }

    /// One op completion on resource `S` that no prefill interacts
    /// with, giving each resource its own straight-line path with
    /// well-predicted branches. Dispatch is event-driven: only the freed
    /// slot and the enqueued-to slot can act, and [`Simulation::settle`]'s
    /// flash-before-NPU dispatch order is preserved in each arm (outside
    /// [`Simulation::prefill_blocks`], an idle slot has an empty queue
    /// and the flash never pops a prefill). A member whose
    /// next op stays on the freed resource with nobody else queued
    /// redispatches directly, skipping the ready set entirely — with
    /// identical stamps, since the pop it elides could only have
    /// returned that member.
    #[inline(always)]
    fn step<const S: usize>(&mut self) {
        let o = 1 - S;
        let id32 = self.s_id[S];
        let id = id32 as usize;
        self.s_at[S] = u64::MAX;
        self.run.requests.cursor[id].advance();
        let idx = self.run.requests.cursor[id].index();
        if idx >= self.n_ops {
            // A token boundary: rare (one op in `n_ops`), so it stays
            // cold and generic over the completing resource.
            cold_mark();
            self.token_done(S, id32);
            self.settle();
            return;
        }
        let rs2 = self.class_slots[idx] as usize;
        if rs2 == S {
            if self.ready.queued(S) == 0 {
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
                if nidx >= self.n_ops || self.class_slots[nidx] as usize != S {
                    break;
                }
                cursor.advance();
                self.now = SimTime::from_picos(at2);
                self.s_at[S] = u64::MAX;
                if Q::RETAINS_MIN || self.ready.queued(S) == 0 {
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
                debug_assert_eq!(self.ready.queued(0), 0, "idle slot implies empty queue");
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
                debug_assert_eq!(self.ready.queued(1), 0, "idle slot implies empty queue");
                self.dispatch(1, id32);
            } else {
                self.enqueue(1, S, id32);
            }
        }
    }

    /// Span fast-forwarding: coalesces a run of whole tokens for the
    /// **lone** in-flight request `id`, which must be parked at a token
    /// boundary (cursor at op 0, its current token already priced and
    /// booked by [`DeviceRun::begin_token`]). With nothing else in
    /// flight the request's ops run strictly serially, so a token's
    /// latency is the sum of the plan's slot latencies — the
    /// seq-invariant positions from the priced `PlanTable`, the attention
    /// positions at the token's own sequence position — and a run of `k`
    /// tokens is priced in the exact per-token order without stepping
    /// its ops.
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
    /// dispatches are accounted into both stamps (the event stamp and
    /// the dispatch stamp) so round-robin recency keys and FIFO
    /// tie-breaks stay identical.
    fn solo_span(&mut self, id: usize) -> usize {
        let now = self.now;
        let next_arrival = self.next_arr.0;
        let n_ops = self.n_ops;
        let DeviceRun {
            priced,
            requests,
            traffic,
            token_latencies,
            span_cap,
            faults,
            ..
        } = &mut self.run;
        let table = &priced.table;
        debug_assert!(
            !table.pos_lat.is_empty(),
            "a begun token implies a priced table"
        );
        debug_assert_eq!(
            requests.cursor[id].index(),
            0,
            "span starts at a token boundary"
        );
        let remaining = requests.remaining[id];
        let mut lats: Vec<SimTime> = Vec::with_capacity(remaining.min(*span_cap).min(4096));
        let mut t = now;
        let mut k = 0usize;
        // Attention latencies of the token under consideration. The first
        // token's were already read (and its traffic booked) by
        // `begin_token`; later tokens are read speculatively below and
        // booked only on acceptance — a rejected token is read again by
        // its own `begin_token` later.
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
            if end.as_picos() > next_arrival {
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
            if t.as_picos() == next_arrival {
                // An arrival lands exactly on this boundary; it must see
                // the engine at the boundary, so the span stops here.
                break;
            }
            if deadline.is_some_and(|dl| t.as_picos() >= dl) {
                // First boundary at or after a deadline: stop so the
                // ordinary boundary handler's shed check runs.
                break;
            }
            // Read the next token's attention slots (speculative; a
            // rejected token's position is read again by its own
            // `begin_token` later).
            let seq = requests.cursor[id].seq_len() + k;
            let (lat, tr) = priced.attn_at(seq);
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
        #[cfg(test)]
        self.solo_spans.push((id, k, remaining));
        // The first token's fault time is spent inside the span.
        requests.fault_extra[id] = 0;
        // Per-op bookkeeping the span elides: one dispatch (and one event
        // stamp) per op of every coalesced token.
        let elided = (k * n_ops) as u64;
        self.d_stamp += elided;
        requests.note_dispatch(id, self.d_stamp, now);
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
        let last = table.class_slots[n_ops - 1] as usize;
        self.book(FLASH, now.as_picos(), (now + flash_busy).as_picos());
        self.book(
            NPU,
            now.as_picos(),
            (now + ((t - now) - flash_busy)).as_picos(),
        );
        self.schedule(last, t.as_picos(), id as u32);
        self.run.ev.stamp += elided - 1;
        k
    }

    /// Picks the reference again after the current one crossed a token
    /// boundary or left: itself while it is still in flight, otherwise
    /// the highest id in flight. Earlier checkpoints cannot repeat.
    #[cold]
    #[inline(never)]
    fn rebase_checkpoints(&mut self) {
        self.ck_len = 0;
        if self.run.requests.phase[self.ck_ref] != Phase::Done {
            self.ck_idx = 0;
            return;
        }
        let mut top = None;
        for rs in [FLASH, NPU] {
            if self.s_at[rs] != u64::MAX && (self.s_id[rs] as usize) < PREFILL_HOLD {
                top = top.max(Some(self.s_id[rs]));
            }
            self.ready.pop_order(rs, |id| top = top.max(Some(id)));
        }
        (self.ck_ref, self.ck_idx) = match top {
            Some(id) => (id as usize, 0),
            None => (0, usize::MAX),
        };
    }

    /// Busy time booked on `rs` so far, its open run included.
    fn booked(&self, rs: usize) -> u64 {
        let open = if self.busy_end[rs] == u64::MAX {
            0
        } else {
            self.busy_end[rs] - self.busy_start[rs]
        };
        self.run.busy_track[rs].busy_time().as_picos() + open
    }

    /// The reference (the trailing request) entered a new layer: takes
    /// a checkpoint, and jumps when it repeats one taken a whole number
    /// of layers earlier. The state is recorded only where a period can
    /// start or end: after a reset, and where the loop kept a lockstep
    /// pace since an earlier checkpoint, so a schedule that does not lock
    /// step (FCFS) pays a few words per checkpoint, inline in the loop.
    #[inline(always)]
    fn checkpoint(&mut self) {
        let len = self.layer_len;
        let idx = self.run.requests.cursor[self.ck_ref].index();
        // The next layer entry: one layer on, unless the reference moved
        // further (a reset, or a solo span's end).
        self.ck_idx = if idx < self.ck_idx + len {
            self.ck_idx + len
        } else {
            (idx / len + 1) * len
        };
        if idx + len >= self.periodic_end || self.prefills > 0 {
            // No period can end a layer or more past this point, or a
            // prefill holds the device.
            return;
        }
        let n = self.ck_len;
        let at = (self.ck_at + 1) % CK_RING;
        let earlier = |p: usize| (at + CK_RING - p) % CK_RING;
        self.ck_at = at;
        self.ck_len = (n + 1).min(MAX_PERIOD_LAYERS);
        let busy =
            usize::from(self.s_at[FLASH] != u64::MAX) + usize::from(self.s_at[NPU] != u64::MAX);
        #[cfg(test)]
        {
            self.checkpoints += 1;
        }
        let b = &mut self.cks[at];
        b.ref_idx = idx;
        b.d_stamp = self.d_stamp;
        b.in_flight = busy + self.ready.queued(FLASH) + self.ready.queued(NPU);
        b.full = false;
        let b = &self.cks[at];
        if n == 0 || (1..=n).any(|p| b.keeps_pace(&self.cks[earlier(p)], p, len)) {
            self.checkpoint_state(at, n);
        }
    }

    /// The rest of a checkpoint in entry `at` of the ring, which follows
    /// `n` earlier ones: records the state, and jumps when it repeats
    /// one of them.
    #[cold]
    #[inline(never)]
    fn checkpoint_state(&mut self, at: usize, n: usize) {
        let len = self.layer_len;
        let earlier = |p: usize| (at + CK_RING - p) % CK_RING;
        let mut b = std::mem::take(&mut self.cks[at]);
        b.full = self.take_state(&mut b);
        let period = (1..=n).find(|&p| {
            let a = &self.cks[earlier(p)];
            b.full && a.full && b.keeps_pace(a, p, len) && a.head == b.head && a.rel == b.rel
        });
        if let Some(p) = period {
            let from = self.cks[earlier(p)].clock;
            let k = self.periods_to_jump(from, &b, p);
            if k > 0 {
                self.jump(from, &b, p, k);
                self.ck_len = 0;
            }
        }
        self.cks[at] = b;
    }

    /// Records the clock and the loop's state into `ck`; false when the
    /// state has no layer period: a member owes fault time, or a ready
    /// set's order is not fixed by its keys.
    fn take_state(&self, ck: &mut Checkpoint) -> bool {
        let now = self.now.as_picos();
        for rs in [FLASH, NPU] {
            let (end, stamp) = if self.s_at[rs] == u64::MAX {
                (u64::MAX, u64::MAX)
            } else {
                (self.s_at[rs] - now, self.run.ev.stamp - self.s_st[rs])
            };
            let busy_end = self.busy_end[rs];
            let chain = if busy_end != u64::MAX && busy_end >= now {
                busy_end - now
            } else {
                u64::MAX
            };
            let queued = self.ready.queued(rs) as u64;
            ck.head[4 * rs..4 * rs + 4].copy_from_slice(&[end, stamp, chain, queued]);
        }
        ck.clock = Clock {
            now,
            stamp: self.run.ev.stamp,
            d_stamp: self.d_stamp,
            booked: [self.booked(FLASH), self.booked(NPU)],
        };
        ck.members.clear();
        ck.rel.clear();
        for rs in [FLASH, NPU] {
            if self.s_at[rs] != u64::MAX {
                ck.members.push(self.s_id[rs]);
            }
        }
        for rs in [FLASH, NPU] {
            if !self.ready.pop_order(rs, |id| ck.members.push(id)) {
                return false;
            }
        }
        let requests = &self.run.requests;
        let ref_idx = requests.cursor[self.ck_ref].index();
        ck.max_idx = 0;
        for &id in &ck.members {
            let id = id as usize;
            if requests.phase[id] != Phase::Decoding || requests.fault_extra[id] != 0 {
                return false;
            }
            let cursor = requests.cursor[id];
            ck.max_idx = ck.max_idx.max(cursor.index());
            ck.rel.extend([
                id as u64,
                cursor.seq_len() as u64,
                cursor.index().wrapping_sub(ref_idx) as u64,
                self.d_stamp - requests.last_scheduled[id],
            ]);
        }
        true
    }

    /// How many more periods of `layers` layers, each the period from
    /// the checkpoint at `from` to `b`, the loop can jump from `b`: every
    /// position they touch stays inside the periodic range, and the jump
    /// lands before the next arrival.
    fn periods_to_jump(&self, from: Clock, b: &Checkpoint, layers: usize) -> usize {
        let dt = b.clock.now - from.now;
        let span = layers * self.layer_len;
        if dt == 0 || b.max_idx + span >= self.periodic_end {
            return 0;
        }
        let k = (self.periodic_end - 1 - b.max_idx) / span;
        match self.next_arr.0 {
            u64::MAX => k,
            arrival => k.min((arrival.saturating_sub(b.clock.now + 1) / dt) as usize),
        }
    }

    /// Applies `k` periods of `layers` layers, each the period from the
    /// checkpoint at `from` to `b` (the current state): every in-flight
    /// cursor moves `k·layers` layers; `now`, the slot ends and the open
    /// busy runs move by `k` times the period's time; the event stamp,
    /// the dispatch stamp and every round-robin key by `k` times its
    /// stamps; and each resource books `k` times its busy time.
    fn jump(&mut self, from: Clock, b: &Checkpoint, layers: usize, k: usize) {
        let k64 = k as u64;
        let to = b.clock;
        let dt = (to.now - from.now) * k64;
        let ds = (to.stamp - from.stamp) * k64;
        let dd = (to.d_stamp - from.d_stamp) * k64;
        self.now += SimTime::from_picos(dt);
        let now = self.now.as_picos();
        for rs in [FLASH, NPU] {
            if self.s_at[rs] != u64::MAX {
                self.s_at[rs] += dt;
                self.s_st[rs] += ds;
            }
            // The skipped busy time lies before the open run, if any.
            let until = if self.busy_end[rs] == u64::MAX {
                now
            } else {
                self.busy_start[rs] += dt;
                self.busy_end[rs] += dt;
                self.busy_start[rs]
            };
            let busy = (to.booked[rs] - from.booked[rs]) * k64;
            self.run.busy_track[rs].add_bulk(SimTime::from_picos(busy), SimTime::from_picos(until));
        }
        self.run.ev.stamp += ds;
        self.d_stamp += dd;
        self.ready.shift_keys(dd);
        let requests = &mut self.run.requests;
        for &id in &b.members {
            let cursor = &mut requests.cursor[id as usize];
            cursor.seek(cursor.index() + k * layers * self.layer_len);
            requests.last_scheduled[id as usize] += dd;
        }
        #[cfg(test)]
        {
            self.jumps += 1;
            self.periods_skipped += k64;
        }
    }
}

/// The running batch of a [`SchedulePolicy::ContinuousBatch`]
/// simulation: the requests stepping through the plan in lockstep,
/// each at its own sequence length, plus the occupancy accounting. A
/// span moves every member by the same number of whole tokens.
#[derive(Debug)]
struct BatchState {
    /// Requests in the batch, admission order.
    active: Vec<usize>,
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
/// in-flight request at once, priced in spans of whole steps
/// ([`BatchedSimulation::start_span`]). Per step:
///
/// * a weight GeMV occupies the flash device **once** for the whole
///   batch — the weight stream is fetched a single time and every
///   request consumes it (the amortization that makes cloud serving
///   batch-efficient, now at the edge), floored by both compute
///   rooflines on `batch ×` the per-request MAC shares so huge batches
///   hit the compute ceiling instead of scaling forever, and with each
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
}

impl<'a> BatchedSimulation<'a> {
    fn new(
        engine: &'a DeviceEngine,
        trace: &ArrivalTrace,
        max_batch: usize,
        priced: &'a PricedRun,
    ) -> Self {
        BatchedSimulation {
            run: DeviceRun::new(engine, trace, priced),
            batch: BatchState::new(max_batch),
            pending: VecDeque::new(),
            kv: kv_cache(engine),
            ops_dispatched: 0,
            gemv_dispatched: 0,
        }
    }

    /// Whether a batched op is in flight (the step is mid-walk).
    fn stepping(&self) -> bool {
        self.run.ev.busy(0) || self.run.ev.busy(1)
    }

    fn run(mut self) -> ServeReport {
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
                    self.start_span(now);
                }
                Fired::Op(_, id) if id == SPAN_BOUNDARY => {
                    // A span closed: its final step's token boundary.
                    self.token_boundary(now);
                }
                Fired::Op(..) => unreachable!("batched events are prefill windows and span ends"),
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
                .schedule_op(FLASH, now + prefill_delay, BATCH_PREFILL);
        } else {
            self.start_span(now);
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
            // The device first works for this member after the prefill
            // windows of the joiners ahead of it: its own prefill
            // starts there, or, with none owed, its first step does.
            // Either way the serialized wait lands in queueing delay,
            // not in an inflated prefill_time. Its first-token clock
            // keeps running from *arrival* (set at request
            // construction), exactly like the per-op policies, so
            // token-latency percentiles are comparable across policies:
            // time spent pending for a batch slot or KV capacity is in
            // the first token's latency, not hidden.
            self.run.requests.cold[id].started = Some(now + delay);
            // Admission puts the member straight into decode; the
            // prefill branch below overrides to `Prefilling` when the
            // member owes a prefill stage first.
            self.run.requests.phase[id] = Phase::Decoding;
            // The joining member's prompt must be made resident first:
            // its prefill runs in the admission window (serialized
            // after any other joiner's), pushing the next shared step
            // out by its full overlapped latency.
            if shape.prompt_len > 0 && self.run.prefill.is_some() {
                let total = self.run.charge_prefill(id);
                let cold = &mut self.run.requests.cold[id];
                delay += total;
                cold.prefill_end = Some(now + delay);
                self.run.requests.phase[id] = Phase::Prefilling;
            }
        }
        delay
    }

    /// Prices and launches a **span**: a run of up to `span_cap` batch
    /// steps (one under [`SpanMode::PerOp`]) executed as one event-core
    /// round. Between scheduling boundaries the batch is fixed, so each
    /// step's latency decomposes into
    ///
    /// * a flash term — one weight stream serves every member, but each
    ///   member still multiplies the streamed weights by its own
    ///   activations, so every weight slot's table price is floored by
    ///   both compute rooflines on `batch ×` the per-request MAC shares:
    ///   the in-flash cores (sized to just match the read rate at batch
    ///   1, so they throttle first) and the NPU. This is the compute
    ///   ceiling that ends batching's free lunch; at batch 1 both
    ///   floors are already inside the table price;
    /// * an NPU term — invariant slots at `table price × batch` plus
    ///   the attention slots summed over each member's own growing
    ///   sequence position, read step by step in the exact per-token
    ///   order;
    /// * the step's fault time, flash time like the first term.
    ///
    /// The span ends at the earliest scheduling boundary: the next
    /// completion (minimum remaining tokens in flight), the first token
    /// boundary at or after the next arrival (an admission
    /// opportunity — the arrival itself fires mid-span and queues, like
    /// it would mid-step), the first token boundary at or after a
    /// member's deadline, or the span cap. Admission blocked on KV
    /// capacity or a full batch can only unblock at a completion, so
    /// no opportunity is skipped. Interior token boundaries retire
    /// inline; the final one is the scheduled span-end event, handled
    /// by the ordinary [`BatchedSimulation::token_boundary`].
    ///
    /// Every quantity is integer picoseconds/bytes/ops, so the
    /// regrouped sums are bit-identical to one-step spans.
    fn start_span(&mut self, now: SimTime) {
        if self.batch.active.is_empty() {
            return;
        }
        debug_assert!(!self.stepping(), "span overlaps a step");
        debug_assert!(!self.run.priced.table.pos_lat.is_empty(), "plan unpriced");
        let batch = self.batch.active.len() as u64;
        let priced = self.run.priced;
        let table = &priced.table;
        let n_ops = table.class_slots.len();
        // Per-step invariant latencies at this batch size.
        let mut flash_step = SimTime::ZERO;
        let mut npu_inv_step = SimTime::ZERO;
        for s in 0..table.n_inv {
            let count = table.inv_counts[s];
            if table.inv_is_weight[s] {
                let lat = table.inv_lat[s]
                    .max(priced.npu_compute_time(table.inv_npu_ops[s] * batch))
                    .max(priced.flash_compute_time(table.inv_flash_ops[s] * batch));
                flash_step += lat * count;
            } else {
                npu_inv_step += (table.inv_lat[s] * batch) * count;
            }
        }
        let k_max = self
            .batch
            .active
            .iter()
            .map(|&id| self.run.requests.remaining[id])
            .min()
            .expect("batch is non-empty")
            // `SpanMode::PerOp` encodes its cap as 0: one-step spans.
            .min(self.run.span_cap.max(1));
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
        // arrivals into `pending` exactly as a one-step span's would.
        let consider_arrivals =
            self.batch.active.len() < self.batch.max_batch && self.pending.is_empty();
        let next_arrival = if consider_arrivals {
            self.run.ev.next_arrival().0
        } else {
            u64::MAX
        };
        let mut lats: Vec<SimTime> = Vec::with_capacity(k_max.min(4096));
        let mut t = now;
        let mut npu_busy = SimTime::ZERO;
        let mut span_fault_extra: u64 = 0;
        let mut k = 0usize;
        loop {
            // This step's attention slots, at each member's position
            // `k` tokens ahead of its cursor (cursors advance at the
            // boundary pass below). Consecutive members at the same
            // sequence position — the common case, lockstep admission
            // parks whole cohorts together — share one read and scale
            // by the run length; the scaled integer sums equal
            // per-member accumulation exactly.
            let mut dep_step = 0u64;
            let mut i = 0;
            while i < self.batch.active.len() {
                let seq = self.run.requests.cursor[self.batch.active[i]].seq_len() + k;
                let mut run = 1usize;
                while i + run < self.batch.active.len()
                    && self.run.requests.cursor[self.batch.active[i + run]].seq_len() + k == seq
                {
                    run += 1;
                }
                dep_step += priced.attn_lat_at(seq) * run as u64;
                i += run;
            }
            let dep_step = SimTime::from_picos(dep_step);
            let mut lat = flash_step + npu_inv_step + dep_step;
            // One fault window per step: the shared weight stream is
            // read once for the whole batch, so its page faults are
            // drawn once, from the head member's stream, which is
            // stable in admission order. Every priced step is
            // committed, so the draws are never speculative.
            if let Some(f) = &mut self.run.faults {
                let owner = self.batch.active[0];
                let extra = f.window_extra(
                    table.inv_stream_traffic.nand_array_bytes,
                    table.solo_flash_lat.as_picos(),
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
            if t.as_picos() >= next_arrival {
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
        // Each member's attention traffic over the span's `k` positions
        // is one difference of cumulative entries. The integer sums
        // regroup the per-step booking exactly.
        for &id in &self.batch.active {
            let seq = self.run.requests.cursor[id].seq_len();
            self.run.traffic.absorb(&priced.attn_traffic(seq, seq + k));
        }
        // The span's invariant traffic in one bulk booking: `k ×` the
        // shared stream plus `k × batch ×` the per-request share.
        self.run.traffic.absorb_batch_span(
            &table.inv_stream_traffic,
            &table.inv_request_traffic,
            batch,
            k as u64,
        );
        let weights = table.gemvs_per_token;
        self.gemv_dispatched += k as u64 * weights;
        self.ops_dispatched += k as u64 * (weights + (n_ops as u64 - weights) * batch);
        // One busy interval per resource for the whole span; per-class
        // totals are identical to per-step interval accounting. Fault
        // time is flash time: rereads occupy the flash device.
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
        // The final step's boundary is the span-end event.
        self.run.ev.schedule_op(FLASH, t, SPAN_BOUNDARY);
    }

    fn finish(mut self) -> ServeReport {
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

    /// Fires the trace's lone arrival, whose settle pass admits it and
    /// runs one solo span with no arrival pending. Returns the loop,
    /// the tokens coalesced, and the span-end event's time.
    fn lone_span<'a>(
        engine: &'a DeviceEngine,
        priced: &'a PricedRun,
    ) -> (Simulation<'a, FcfsReady>, usize, SimTime) {
        let mut sim = Simulation::<FcfsReady>::new(engine, &lone_trace(), priced);
        sim.arrive();
        assert_eq!(sim.next_arr.0, u64::MAX, "no arrival pending");
        let [(0, k, _)] = sim.solo_spans[..] else {
            panic!("the arrival runs one solo span: {:?}", sim.solo_spans);
        };
        let end = sim
            .s_at
            .into_iter()
            .find(|&at| at != u64::MAX)
            .expect("a span schedules its end event");
        (sim, k, SimTime::from_picos(end))
    }

    /// What an FCFS/RR run did that its report cannot show: the solo
    /// spans it took, the op completions that took the general path,
    /// the checkpoints it took, the layer-period jumps and the periods
    /// they skipped, and the per-op dispatches it executed.
    struct FastPaths {
        solo_spans: Vec<(usize, usize, usize)>,
        general_ops: u64,
        checkpoints: u64,
        jumps: u64,
        periods_skipped: u64,
        dispatches: u64,
    }

    /// Runs `trace` through the FCFS/RR loop under `policy`; returns the
    /// report and the fast paths the run took.
    fn run_counting(
        engine: &DeviceEngine,
        trace: &ArrivalTrace,
        policy: SchedulePolicy,
    ) -> (ServeReport, FastPaths) {
        fn go<Q: ReadySet>(
            engine: &DeviceEngine,
            trace: &ArrivalTrace,
        ) -> (ServeReport, FastPaths) {
            let priced = PricedRun::new(engine, std::slice::from_ref(trace));
            let mut sim = Simulation::<Q>::new(engine, trace, &priced);
            sim.drive();
            let paths = FastPaths {
                solo_spans: std::mem::take(&mut sim.solo_spans),
                general_ops: sim.general_ops,
                checkpoints: sim.checkpoints,
                jumps: sim.jumps,
                periods_skipped: sim.periods_skipped,
                dispatches: sim.dispatches,
            };
            (sim.finish(), paths)
        }
        match policy {
            SchedulePolicy::Fcfs => go::<FcfsReady>(engine, trace),
            SchedulePolicy::RoundRobin => go::<RrReady>(engine, trace),
            SchedulePolicy::ContinuousBatch { .. } => {
                unreachable!("batched runs have their own loop")
            }
        }
    }

    const POLICIES: [SchedulePolicy; 2] = [SchedulePolicy::Fcfs, SchedulePolicy::RoundRobin];

    #[test]
    fn lone_arrival_decodes_in_one_solo_span() {
        let engine = DeviceEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b());
        for policy in POLICIES {
            let (report, paths) = run_counting(&engine, &lone_trace(), policy);
            assert_eq!(paths.solo_spans, [(0, TOKENS, TOKENS)], "{policy:?}");
            assert_eq!(report.tokens_served, TOKENS as u64);
        }
    }

    #[test]
    fn overlap_survivor_finishes_in_one_solo_span() {
        // Two decodes overlap from time zero, so their ops interleave.
        // Once the short one completes, the survivor's next token
        // boundary must trigger the solo-span check, and its remaining
        // tokens must run as one span ending at completion.
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
            let (report, paths) = run_counting(&engine, &trace, policy);
            let spans = paths.solo_spans;
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
    fn only_completions_around_a_prefill_take_the_general_path() {
        // Sixteen closed-loop clients keep every decode overlapping. With
        // prefill off every op completion must take `step`; with prefill
        // modeled only those while a prefill is queued or in flight may
        // take `general`. A `prefills` count stuck above zero would keep
        // reports equal (`general` computes the same trajectory) and show
        // only as wall time.
        let trace = ArrivalTrace::closed_loop(16, 3, RequestShape::new(300, 16));
        for prefill in [PrefillMode::Off, PrefillMode::Modeled] {
            let engine = DeviceEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
                .with_prefill(prefill);
            for policy in POLICIES {
                let (report, paths) = run_counting(&engine, &trace, policy);
                let ops = report.tokens_served * engine.plan().len() as u64;
                assert_eq!(report.tokens_served, 16 * 3 * 16, "{policy:?}");
                let general = paths.general_ops;
                match prefill {
                    PrefillMode::Off => assert_eq!(general, 0, "{policy:?}"),
                    PrefillMode::Modeled => assert!(
                        general > 0 && general * 100 < ops * 5,
                        "{policy:?}: {general} of {ops} ops took the general path"
                    ),
                }
            }
        }
    }

    #[test]
    fn layer_period_jumps_skip_the_repeated_layers() {
        // The paper's workload at overload: 70B on Cam-L, 16 closed-loop
        // long-prompt decodes. Round-robin runs them in lockstep, so most
        // layers repeat one or two layers earlier bit for bit and are
        // jumped; FCFS does not lock step. The counts are deterministic:
        // a change to the checkpoint, the recorded state or the jump bound
        // shows here, and the report must not change with them.
        let engine = DeviceEngine::new(SystemConfig::cambricon_l(), zoo::llama2_70b());
        let trace = ArrivalTrace::closed_loop(16, 1, RequestShape::new(1000, 64));
        let per_op = engine.clone().with_span_mode(SpanMode::PerOp);
        // (checkpoints, jumps, periods skipped, per-op dispatches
        // executed) of the 1,230,848 the 1,024 tokens owe: round-robin
        // executes 2.8% of them, FCFS 96.1%.
        let expected = [(1_902, 1, 74, 1_182_860), (135, 64, 4_985, 34_448)];
        for (policy, counts) in POLICIES.into_iter().zip(expected) {
            let (report, paths) = run_counting(&engine, &trace, policy);
            let (reference, plain) = run_counting(&per_op, &trace, policy);
            assert_eq!(report, reference, "{policy:?}");
            let ops = report.tokens_served * engine.plan().len() as u64;
            assert_eq!(ops, 1_230_848);
            assert_eq!((plain.jumps, plain.dispatches), (0, ops), "{policy:?}");
            let jumped = (
                paths.checkpoints,
                paths.jumps,
                paths.periods_skipped,
                paths.dispatches,
            );
            assert_eq!(jumped, counts, "{policy:?}");
        }
    }

    #[test]
    fn layer_period_jumps_resume_after_a_reference_handoff() {
        // Four closed-loop clients, three requests each, under
        // round-robin. A departing request's client respawns at once
        // with a higher id, which takes over as the reference while the
        // others are mid-token; the old reference departs later. Up to
        // the first departure the three-round run is the one-round run,
        // so jumps beyond the one-round count are jumps after a handoff:
        // every round jumps once per token.
        let engine = DeviceEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b());
        let per_op = engine.clone().with_span_mode(SpanMode::PerOp);
        let policy = SchedulePolicy::RoundRobin;
        let jumps = [1, 3].map(|rounds| {
            let trace = ArrivalTrace::closed_loop(4, rounds, RequestShape::new(300, 16));
            let (report, paths) = run_counting(&engine, &trace, policy);
            assert_eq!(report, per_op.run(&trace, policy), "{rounds} rounds");
            paths.jumps
        });
        assert_eq!(jumps, [16, 48]);
    }

    #[test]
    fn a_checkpoint_records_round_robin_keys() {
        // Under round-robin a member's key decides where it re-enters a
        // queue, so two states that differ only in one key have
        // different futures and their checkpoints must differ. Step a
        // three-request burst until every member has been scheduled
        // (before that, the never-scheduled lane refuses a checkpoint),
        // then age the key of the member in a slot.
        let engine = DeviceEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b());
        let trace = ArrivalTrace::burst(3, RequestShape::new(300, TOKENS));
        let priced = PricedRun::new(&engine, std::slice::from_ref(&trace));
        let mut sim = Simulation::<RrReady>::new(&engine, &trace, &priced);
        for _ in 0..3 {
            sim.arrive();
        }
        let mut ck = Checkpoint::default();
        let mut refused = 0;
        while !sim.take_state(&mut ck) {
            refused += 1;
            let s = usize::from((sim.s_at[1], sim.s_st[1]) < (sim.s_at[0], sim.s_st[0]));
            sim.now = SimTime::from_picos(sim.s_at[s]);
            if s == FLASH {
                sim.step::<FLASH>();
            } else {
                sim.step::<NPU>();
            }
        }
        assert!(refused > 0, "the burst starts in the never-scheduled lane");
        let s = usize::from(sim.s_at[FLASH] == u64::MAX);
        let id = sim.s_id[s] as usize;
        sim.run.requests.last_scheduled[id] -= 1;
        let mut aged = Checkpoint::default();
        assert!(sim.take_state(&mut aged));
        assert_eq!(aged.members, ck.members);
        assert_ne!(aged.rel, ck.rel, "the key of request {id} is not recorded");
    }

    #[test]
    fn faulted_solo_span_coalesces_every_remaining_token() {
        // Worn out: every window rereads and uncorrectables derate the
        // bandwidth mid-span. With no arrival or deadline pending, one
        // span must carry the whole decode and end where per-op
        // stepping finishes.
        let fc = FaultConfig::aged(FlashAge::worn_out());
        let engine = faulted_engine(fc);
        let priced = PricedRun::new(&engine, &[lone_trace()]);
        let (sim, k, end) = lone_span(&engine, &priced);
        assert_eq!(k, TOKENS);
        let f = sim.run.faults.as_ref().expect("faults on");
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
        let priced = PricedRun::new(&engine, &[lone_trace()]);
        let (sim, k, end) = lone_span(&engine, &priced);
        assert!((2..TOKENS).contains(&k), "span of {k} tokens");
        // The request arrived at zero, so the deadline is absolute.
        let last_interior = sim.run.requests.token_started[0];
        assert!(last_interior < deadline && deadline <= end);
    }

    #[test]
    fn event_loops_price_nothing_after_the_pricing_step() {
        // The loops hold no `System`, so they cannot price. What the
        // pricing step must get right is coverage: every position and
        // prompt a run reaches is priced before its loop starts (a run
        // reaching anything else panics), under every policy, prefill
        // mode and fault mode, deadline sheds included, and the report
        // counts exactly the step's misses.
        let trace = ArrivalTrace::Open(
            [(0, 300, 12), (0, 40, 20), (20, 100, 6), (50, 40, 9)]
                .map(|(ms, prompt, tokens)| RequestArrival {
                    at: SimTime::from_millis(ms),
                    shape: RequestShape::new(prompt, tokens),
                })
                .to_vec(),
        );
        let traces = std::slice::from_ref(&trace);
        for policy in [
            SchedulePolicy::Fcfs,
            SchedulePolicy::RoundRobin,
            SchedulePolicy::ContinuousBatch { max_batch: 3 },
        ] {
            for prefill in [PrefillMode::Off, PrefillMode::Modeled] {
                let engine = DeviceEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
                    .with_prefill(prefill);
                let priced = PricedRun::new(&engine, traces);
                let probe = engine.run_priced(&trace, policy, &priced);
                let misses = (probe.op_cost_cache_misses, probe.gemv_cache_misses);
                assert_eq!(misses, priced.misses(), "{policy:?} {prefill:?}");
                let deadline = probe.makespan / 2;
                let fc =
                    FaultConfig::aged(FlashAge::worn_out()).with_deadlines(None, Some(deadline));
                let engine = engine.with_faults(FaultMode::Injected(fc));
                let priced = PricedRun::new(&engine, traces);
                let report = engine.run_priced(&trace, policy, &priced);
                assert!(
                    report.reliability.deadline_sheds > 0,
                    "{policy:?} {prefill:?}"
                );
                let misses = (report.op_cost_cache_misses, report.gemv_cache_misses);
                assert_eq!(misses, priced.misses(), "{policy:?} {prefill:?} faulted");
            }
        }
    }

    #[test]
    fn a_shed_request_counts_its_whole_decode_range() {
        // A cold run prices every admitted request's decode range
        // before its loop starts, so a request shed mid-decode reports
        // the op-cost misses of its whole range, as a run that decodes
        // all of it does; only the dispatched ops, and so the hits,
        // drop.
        let worn = FaultConfig::aged(FlashAge::worn_out());
        let full = faulted_engine(worn).run(&lone_trace(), SchedulePolicy::Fcfs);
        let deadline = full.requests[0].finished / 2;
        let shed = faulted_engine(worn.with_deadlines(None, Some(deadline)))
            .run(&lone_trace(), SchedulePolicy::Fcfs);
        assert_eq!(shed.reliability.deadline_sheds, 1);
        assert!(shed.requests.is_empty());
        assert_eq!(shed.op_cost_cache_misses, full.op_cost_cache_misses);
        assert!(shed.op_cost_cache_hits < full.op_cost_cache_hits);
    }
}
