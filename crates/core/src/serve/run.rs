//! One device run's shared state: the request pool, the event core, and
//! the [`DeviceRun`] both event loops drive and turn into the report,
//! with the token-boundary helpers the loops share.

use crate::reliability::FaultRun;
use crate::system::{PrefillCost, TrafficBreakdown};
use llm_workload::kv::kv_bytes_per_token;
use llm_workload::{ArrivalTrace, OpCursor, RequestShape, TokenPlan};
use npu_sim::KvCache;
use sim_core::{Aggregate, BusyTracker, Samples, SimTime, SplitMix64};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::device::DeviceEngine;
use super::pricing::{decode_ranges, prompt_lens, PricedRun, MAX_DEP_SLOTS};
use super::{PrefillMode, RequestReport, SchedulePolicy, ServeReport};

/// Where a request sits in its lifecycle: the serving state machine
/// `Queued → Prefilling → Decoding → Done`. With [`PrefillMode::Off`]
/// (or an empty prompt) the `Prefilling` state is skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Phase {
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
/// contiguous lane of same-typed values.
#[derive(Debug, Default)]
pub(super) struct RequestPool {
    /// Lifecycle phase (`Queued → Prefilling → Decoding → Done`).
    pub(super) phase: Vec<Phase>,
    /// Decode tokens still owed — the operand of the span boundary
    /// computation's min-remaining scan.
    pub(super) remaining: Vec<usize>,
    /// Position in the shared [`TokenPlan`] (carries the sequence
    /// length the batched walk reads per member per step).
    pub(super) cursor: Vec<OpCursor>,
    /// Start of the token currently being decoded.
    pub(super) token_started: Vec<SimTime>,
    /// Latencies of the current token's seq-dependent slots, refreshed
    /// at each token start.
    pub(super) dep_lat: Vec<[SimTime; MAX_DEP_SLOTS]>,
    /// Monotone stamp of the last time a resource scheduled each
    /// request (round-robin recency key).
    pub(super) last_scheduled: Vec<u64>,
    /// Per-request fault stream, forked from `fault_root` at push time
    /// (empty-state generators when faults are off — never drawn from).
    pub(super) fault_rng: Vec<SplitMix64>,
    /// Fault-added picoseconds of the request's current token, consumed
    /// by its first flash dispatch or by the solo span that runs the
    /// token (always 0 with faults off).
    pub(super) fault_extra: Vec<u64>,
    /// Root generator the per-request streams fork from; `None` (the
    /// default) when faults are off. Seeded before the trace loads so
    /// stream assignment follows push order — deterministic and
    /// policy-independent.
    pub(super) fault_root: Option<SplitMix64>,
    /// The boundary-only half of each request's state.
    pub(super) cold: Vec<ColdRequest>,
}

/// The cold half of a request's state: everything a [`RequestReport`]
/// needs that no inner loop scans.
#[derive(Debug)]
pub(super) struct ColdRequest {
    pub(super) shape: RequestShape,
    pub(super) arrived: SimTime,
    pub(super) started: Option<SimTime>,
    /// When the prefill stage completed (set iff one ran).
    pub(super) prefill_end: Option<SimTime>,
    pub(super) first_token: Option<SimTime>,
    /// Closed-loop client this request belongs to, if any.
    pub(super) client: Option<usize>,
}

impl RequestPool {
    /// A pool with every parallel array sized for `n` requests up
    /// front, so the deep-queue regime (hundreds of queued arrivals,
    /// closed-loop respawns) never reallocates the hot arrays
    /// mid-loop.
    pub(super) fn with_capacity(n: usize) -> Self {
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
    pub(super) fn push(
        &mut self,
        shape: RequestShape,
        arrived: SimTime,
        client: Option<usize>,
    ) -> usize {
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
    pub(super) fn note_dispatch(&mut self, id: usize, stamp: u64, now: SimTime) {
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
/// Each resource serves one op at a time, so at most one completion is
/// pending per resource, and the only other event source is the arrival
/// sequence: "next event" is a three-way minimum over two slots and the
/// arrival heap. As in [`sim_core::EventQueue`], the earliest
/// `(time, schedule_stamp)` wins, so simultaneous events fire in the
/// order they were scheduled. The batched loop pops it; the FCFS/RR
/// loop keeps its own op-slot mirrors and uses only the arrival heap
/// and the stamp.
#[derive(Debug, Default)]
pub(super) struct EventCore {
    /// Pending op completion per resource: `(fires_at_ps, stamp, req)`.
    pub(super) op_done: [Option<(u64, u64, u32)>; 2],
    /// Pending arrivals as `(time_ps, stamp, req)`, earliest first.
    pub(super) arrivals: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Global schedule stamp (FIFO tie-break).
    pub(super) stamp: u64,
    /// Timestamp of the most recently fired event.
    pub(super) now: SimTime,
}

/// Which event source fired; see [`EventCore::pop`].
#[derive(Debug, Clone, Copy)]
pub(super) enum Fired {
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
    pub(super) fn with_capacity(n: usize) -> Self {
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
    pub(super) fn schedule_op(&mut self, class_slot: usize, at: SimTime, id: usize) {
        debug_assert!(self.op_done[class_slot].is_none(), "resource already busy");
        let stamp = self.stamp;
        self.stamp += 1;
        self.op_done[class_slot] = Some((at.as_picos(), stamp, id as u32));
    }

    /// `(time_ps, stamp)` of the earliest pending arrival, `u64::MAX`
    /// pairs when none — the next externally imposed scheduling
    /// boundary a span or the FCFS/RR loop must respect.
    #[inline]
    pub(super) fn next_arrival(&self) -> (u64, u64) {
        self.arrivals
            .peek()
            .map_or((u64::MAX, u64::MAX), |&Reverse((at, st, _))| (at, st))
    }

    /// Pops an arrival scheduled for exactly `now`, if any — used by
    /// the batched scheduler to fold simultaneous arrivals (bursts,
    /// closed-loop respawns) into the token boundary being processed
    /// instead of making them wait out a full batch step. The clock is
    /// unchanged: only events at the current instant qualify.
    pub(super) fn pop_due_arrival(&mut self, now: SimTime) -> Option<usize> {
        let &Reverse((at, _, req)) = self.arrivals.peek()?;
        if at != now.as_picos() {
            return None;
        }
        self.arrivals.pop();
        Some(req as usize)
    }

    /// Fires the earliest pending event, advancing the clock.
    #[inline]
    pub(super) fn pop(&mut self) -> Option<Fired> {
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
pub(super) struct DeviceRun<'a> {
    pub(super) priced: &'a PricedRun,
    pub(super) plan: &'a TokenPlan,
    /// Prefill simulation state: `Some` iff [`PrefillMode::Modeled`].
    pub(super) prefill: Option<PrefillState>,
    pub(super) ev: EventCore,
    pub(super) requests: RequestPool,
    pub(super) busy_track: [BusyTracker; 2],
    /// Remaining requests per closed-loop client.
    pub(super) client_remaining: Vec<usize>,
    pub(super) closed_shape: Option<RequestShape>,
    pub(super) traffic: TrafficBreakdown,
    pub(super) token_latencies: Samples,
    pub(super) queueing: Aggregate,
    pub(super) done: Vec<RequestReport>,
    /// Arrival time of the first *admitted* request — rejected
    /// arrivals are not simulated and must not stretch the makespan.
    pub(super) first_arrival: Option<SimTime>,
    /// [`kv_cache`]`().max_tokens()`: arrivals whose context exceeds
    /// it are rejected, not simulated.
    pub(super) kv_max_context: usize,
    pub(super) kv_rejections: u64,
    /// Most tokens (or batch steps) one span may coalesce. 0 encodes
    /// [`SpanMode::PerOp`](super::SpanMode::PerOp): no solo spans under FCFS and round-robin,
    /// one-step spans under batching.
    pub(super) span_cap: usize,
    /// Fault-injection state; `None` when [`FaultMode::Off`](crate::reliability::FaultMode::Off).
    pub(super) faults: Option<FaultRun>,
}

impl<'a> DeviceRun<'a> {
    /// Sets up a run of `trace` on `priced`: builds the fault run, pool
    /// and event-core capacity, the per-request fault root, and the
    /// trace's requests and arrival events. Shared by both loops, so
    /// arrival order — and therefore event stamps — is identical
    /// regardless of policy.
    pub(super) fn new(
        engine: &'a DeviceEngine,
        trace: &ArrivalTrace,
        priced: &'a PricedRun,
    ) -> Self {
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
    pub(super) fn begin_token(&mut self, id: usize) {
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
    pub(super) fn complete_request(&mut self, id: usize, now: SimTime) {
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
    pub(super) fn respawn_client(&mut self, id: usize, now: SimTime) {
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
    pub(super) fn charge_prefill(&mut self, id: usize) -> SimTime {
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
    pub(super) fn finish(
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
pub(super) struct PrefillState {
    /// Distinct non-empty prompt lengths of the run's own admitted
    /// requests. Every admitted request with a prompt runs its prefill,
    /// so each is one priced bucket of [`PrefillCost::COMPONENT_OPS`]
    /// op-cost lookups for op-pricing accounting, whatever other traces
    /// the shared table was priced for.
    pub(super) buckets: u64,
    /// Total device time spent prefilling.
    pub(super) busy: SimTime,
}

impl PrefillState {
    pub(super) fn new(engine: &DeviceEngine, trace: &ArrivalTrace) -> Option<Self> {
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
pub(super) const PREFILL_HOLD: usize = u32::MAX as usize - 1;

/// Event-core sentinel for the batched loop's admission-prefill window:
/// the serialized prefills of newly joined members, after which the
/// delayed batch step starts.
pub(super) const BATCH_PREFILL: usize = u32::MAX as usize - 2;

/// Event-core sentinel for a coalesced span's end in the batched loop:
/// the token boundary closing a bulk-priced run of batch steps, handled
/// by the ordinary
/// [`BatchedSimulation::token_boundary`](super::batched::BatchedSimulation::token_boundary).
pub(super) const SPAN_BOUNDARY: usize = u32::MAX as usize - 3;

/// `(total requests over the run, peak scheduled arrivals)`: a closed
/// loop schedules one arrival per client at a time, an open trace all
/// of them up front.
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
/// first-token stamp. Every per-token handler and span path shares it,
/// so span and per-op runs agree by construction.
#[inline]
pub(super) fn retire_token(
    requests: &mut RequestPool,
    id: usize,
    tb: SimTime,
    token_latencies: &mut Samples,
) {
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
pub(super) fn deadline_shed(
    f: &mut FaultRun,
    requests: &RequestPool,
    id: usize,
    now: SimTime,
) -> bool {
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
pub(super) fn deadline_ps(f: &FaultRun, requests: &RequestPool, id: usize) -> Option<u64> {
    let arrived = requests.cold[id].arrived;
    let total = f.total_deadline().map(|d| (arrived + d).as_picos());
    let ttft = f
        .ttft_deadline()
        .filter(|_| requests.cold[id].first_token.is_none())
        .map(|d| (arrived + d).as_picos());
    total.into_iter().chain(ttft).min()
}
