//! A deliberately naive reference for every scheduling policy.
//!
//! [`run`] serves a trace the slow, obvious way, and builds a whole
//! [`ServeReport`] that must equal `DeviceEngine::run`'s. It shares
//! none of the engine's structures: no token plan, pricing table,
//! attention prefix table, span, ready set, request pool or event
//! core. Each token re-enumerates its op stream with [`decode_step`]
//! and prices each op through [`System::op_cost`]. Requests live in a
//! plain `Vec`, events in a [`sim_core::EventQueue`], latencies in a
//! `Vec<SimTime>` summarized by a full sort (no `Samples`), and the NAND
//! fault ladder is re-derived here from [`FaultConfig`]'s public
//! fields.
//!
//! Shared by every policy, in the engine's own terms:
//!
//! * A context (`prompt + new_tokens`) larger than the empty KV cache
//!   is rejected at admission and counted. A closed-loop client
//!   re-issues at the instant its request completes, is shed, or is
//!   rejected.
//! * Faults: each page-read window draws from one request's stream.
//!   Streams fork from the seed root in the order requests are
//!   created. A prefill is one window over the prompt's NAND bytes,
//!   drawn from the joiner's stream.
//! * Deadlines shed a request at a token boundary: the TTFT deadline at
//!   its first token, the total deadline at any token it does not
//!   finish on. Both checks are strict.
//! * The makespan runs from the first admitted arrival to the last
//!   completion or shed, whichever is later.
//!
//! [`SchedulePolicy::ContinuousBatch`]:
//!
//! * Arrivals queue FIFO and are admitted at token boundaries, or at
//!   once when the device is idle. Admission reserves KV for the whole
//!   context. A head that does not fit waits and blocks the queue.
//! * Under modelled prefill, each joining member's prefill runs in a
//!   window at its admission boundary, after the joiners ahead of it.
//!   The window holds both resources, and the next step starts when it
//!   closes. Requests arriving during it wait for the next boundary.
//! * One step retires one token for every member. Each weight GeMV
//!   streams once per step, floored by both compute rooflines at
//!   `batch ×` the per-request MAC shares. NPU ops run per member, with
//!   attention at the member's own sequence position.
//! * One fault window per step, drawn from the head member's stream
//!   over the step's weight bytes at their batch-1 flash time.
//!
//! [`SchedulePolicy::Fcfs`] and [`SchedulePolicy::RoundRobin`]:
//!
//! * The flash device runs the weight GeMVs, the NPU everything else.
//!   Each serves one op at a time. Every request that fits is admitted
//!   at arrival and waits for the resource of its next op.
//! * After every event, each idle resource, flash first, starts the
//!   waiting request with the smallest `(key, id)`. The key is the
//!   arrival time under FCFS and, under round-robin, the value of a
//!   dispatch counter at the request's last dispatch (0 before its
//!   first).
//! * Under modelled prefill, a request with a prompt first waits on
//!   the flash device for its prefill, which holds both resources. A
//!   prefill at the head of the flash queue waits for a busy NPU, and
//!   the flash device idles meanwhile.
//! * One fault window per token, drawn from the request's stream when
//!   the token starts, over its weight bytes at their flash time. The
//!   extra time lands on the token's first flash op.
//!
//! The four cache counters (`gemv_cache_*`, `op_cost_cache_*`) count
//! the engine's own memo traffic, so the oracle leaves them zero.

use cambricon_llm_repro::cambricon_llm::serve::{
    PrefillMode, RequestReport, SchedulePolicy, ServeReport,
};
use cambricon_llm_repro::cambricon_llm::{
    page_fail_prob, FaultConfig, FaultMode, ReliabilitySummary, System, SystemConfig,
    TrafficBreakdown,
};
use llm_workload::kv::kv_bytes_per_token;
use llm_workload::{decode_step, ArrivalTrace, DecodeOp, ModelSpec, PrefillPlan, RequestShape};
use npu_sim::KvCache;
use sim_core::{Aggregate, BusyTracker, EventQueue, SimTime, SplitMix64};
use std::collections::VecDeque;

/// What the engine under test was configured with.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Device configuration.
    pub cfg: SystemConfig,
    /// Served model.
    pub model: ModelSpec,
    /// Prefill mode.
    pub prefill: PrefillMode,
    /// Fault mode.
    pub faults: FaultMode,
    /// Scheduling policy.
    pub policy: SchedulePolicy,
}

/// One request, every field in one place.
#[derive(Debug)]
struct Request {
    shape: RequestShape,
    arrived: SimTime,
    client: Option<usize>,
    started: Option<SimTime>,
    prefill_end: Option<SimTime>,
    first_token: Option<SimTime>,
    /// When the token now being decoded started: the arrival for the
    /// first token, so queueing and prefill land in its latency.
    token_started: SimTime,
    tokens: usize,
    faults: SplitMix64,
    /// FCFS and round-robin only: whether the request still owes its
    /// prefill.
    owes_prefill: bool,
    /// FCFS and round-robin only: the current token's ops, in order,
    /// as `(runs on flash, latency)`.
    ops: Vec<(bool, SimTime)>,
    /// FCFS and round-robin only: index of the op waiting or running.
    next_op: usize,
    /// FCFS and round-robin only: fault time of the current token, not
    /// yet spent by its first flash op.
    fault_extra: u64,
    /// FCFS and round-robin only: the dispatch counter at the last
    /// dispatch, 0 before the first.
    last_dispatch: u64,
}

impl Request {
    fn context(&self) -> usize {
        self.shape.prompt_len + self.shape.new_tokens
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrive(usize),
    /// Batched: the admission prefill window closed.
    PrefillEnd,
    /// Batched: a batch step finished.
    StepEnd,
    /// Per-op: request `.1`'s op on resource `.0` finished.
    OpEnd(usize, usize),
    /// Per-op: the request's prefill finished; it frees the flash.
    PrefillDone(usize),
    /// Per-op: the NPU side of a prefill frees the NPU.
    HoldDone,
}

const FLASH: usize = 0;
const NPU: usize = 1;

/// The NAND reread ladder of `FaultConfig`: a page failing the sense
/// at attempt `j` is re-read at the next, finer sense, until
/// `max_rereads` escalations have run. Pages still failing are
/// uncorrectable, and each one takes a chip out of the stripe.
#[derive(Debug)]
struct Ladder {
    cfg: FaultConfig,
    rber: f64,
    /// Failure probability at attempt `j`: RBER halves per escalation.
    fail: Vec<f64>,
    /// Cost of one reread at attempt `j >= 1`, picoseconds.
    reread_ps: Vec<u64>,
    page_bytes: u64,
    chips: u32,
    degraded: u32,
    rereads: u64,
    corrected: u64,
    uncorrectable: u64,
    extra_ps: u128,
    ttft_timeouts: u64,
    deadline_sheds: u64,
    shed_tokens: u64,
    /// When the latest shed happened: the makespan runs to it.
    last_shed: Option<SimTime>,
    goodput_requests: u64,
    goodput_tokens: u64,
}

impl Ladder {
    fn new(fc: FaultConfig, cfg: &SystemConfig, system: &mut System) -> Ladder {
        let topo = &cfg.engine.topology;
        let page_bytes = topo.page_bytes as u64;
        let bandwidth = system.effective_read_bandwidth();
        let page_read_ps = if bandwidth > 0.0 {
            (page_bytes as f64 / bandwidth * 1e12) as u64
        } else {
            0
        };
        let rber = fc.ber.rber(&fc.age);
        let levels = fc.max_rereads as usize + 1;
        Ladder {
            cfg: fc,
            rber,
            fail: (0..levels)
                .map(|j| {
                    page_fail_prob(
                        rber / 2f64.powi(j as i32),
                        page_bytes * 8,
                        fc.correctable_rber,
                    )
                })
                .collect(),
            reread_ps: (0..levels)
                .map(|j| match j {
                    0 => 0,
                    _ => (page_read_ps as f64 * fc.escalate_latency_mult.powi(j as i32 - 1)) as u64,
                })
                .collect(),
            page_bytes,
            chips: (topo.channels * topo.chips_per_channel).max(1) as u32,
            degraded: 0,
            rereads: 0,
            corrected: 0,
            uncorrectable: 0,
            extra_ps: 0,
            ttft_timeouts: 0,
            deadline_sheds: 0,
            shed_tokens: 0,
            last_shed: None,
            goodput_requests: 0,
            goodput_tokens: 0,
        }
    }

    /// One page-read window of `nand_bytes` that takes `nominal_ps`
    /// fault-free: the derating of the chips degraded so far, plus the
    /// reread escalations of the pages that fail. Returns the extra
    /// picoseconds.
    fn window(&mut self, nand_bytes: u64, nominal_ps: u64, stream: &mut SplitMix64) -> u64 {
        let mut extra: u128 = 0;
        if self.degraded > 0 {
            let healthy = (self.chips - self.degraded) as u128;
            extra += nominal_ps as u128 * self.degraded as u128 / healthy;
        }
        let pages = nand_bytes.div_ceil(self.page_bytes.max(1));
        let first_failures = stream.binomial(pages, self.fail[0]);
        let mut failing = first_failures;
        for j in 1..self.fail.len() {
            if failing == 0 {
                break;
            }
            self.rereads += failing;
            extra += failing as u128 * self.reread_ps[j] as u128;
            failing = stream.binomial(failing, self.fail[j]);
        }
        self.corrected += first_failures - failing;
        if failing > 0 {
            self.uncorrectable += failing;
            let cap = self.chips - 1;
            self.degraded = self
                .degraded
                .saturating_add(failing.min(u32::MAX as u64) as u32)
                .min(cap);
        }
        self.extra_ps += extra;
        u64::try_from(extra).unwrap_or(u64::MAX)
    }

    /// Whether `r`, which just retired a token at `now` and still owes
    /// tokens, missed a deadline; counts the shed if so.
    fn sheds(&mut self, r: &Request, now: SimTime) -> bool {
        let elapsed = now - r.arrived;
        let ttft_missed = r.tokens == 1 && self.cfg.ttft_deadline.is_some_and(|d| elapsed > d);
        let total_missed = self.cfg.total_deadline.is_some_and(|d| elapsed > d);
        if ttft_missed {
            self.ttft_timeouts += 1;
        } else if total_missed {
            self.deadline_sheds += 1;
        } else {
            return false;
        }
        self.shed_tokens += r.tokens as u64;
        self.last_shed = Some(now);
        true
    }

    /// Counts a completion that met every deadline as goodput.
    fn score(&mut self, r: &RequestReport) {
        let ttft_ok = self.cfg.ttft_deadline.map_or(true, |d| r.ttft() <= d);
        let total_ok = self
            .cfg
            .total_deadline
            .map_or(true, |d| r.finished - r.arrived <= d);
        if ttft_ok && total_ok {
            self.goodput_requests += 1;
            self.goodput_tokens += r.tokens as u64;
        }
    }

    fn summary(&self) -> ReliabilitySummary {
        ReliabilitySummary {
            rber: self.rber,
            page_rereads: self.rereads,
            corrected_pages: self.corrected,
            uncorrectable_events: self.uncorrectable,
            degraded_chips: self.degraded,
            degraded_bandwidth_fraction: self.degraded as f64 / self.chips as f64,
            fault_extra_flash_s: self.extra_ps as f64 * 1e-12,
            ttft_timeouts: self.ttft_timeouts,
            deadline_sheds: self.deadline_sheds,
            shed_tokens: self.shed_tokens,
            last_shed: self.last_shed,
            goodput_requests: self.goodput_requests,
            goodput_tokens: self.goodput_tokens,
            deadline_goodput_tps: 0.0,
        }
    }
}

/// One run's state.
struct Run<'s> {
    sc: &'s Scenario,
    system: &'s mut System,
    prefill_plan: Option<PrefillPlan>,
    ladder: Option<Ladder>,
    /// The root every request's fault stream forks from.
    fault_root: SplitMix64,
    requests: Vec<Request>,
    /// Requests left to issue per closed-loop client.
    client_left: Vec<usize>,
    client_shape: Option<RequestShape>,
    events: EventQueue<Event>,
    /// Batched: whether a step or a prefill window is in flight.
    device_busy: bool,
    /// Batched: the admission queue.
    pending: VecDeque<usize>,
    /// Batched: the running batch.
    batch: Vec<usize>,
    /// Batched: the admission cap.
    max_batch: usize,
    /// Per-op: the requests waiting for each resource.
    waiting: [Vec<usize>; 2],
    /// Per-op: whether each resource is serving an op.
    serving: [bool; 2],
    /// Per-op: dispatches so far, the round-robin key.
    dispatches: u64,
    kv: KvCache,
    // Report accumulators.
    first_admitted_arrival: Option<SimTime>,
    rejections: u64,
    done: Vec<RequestReport>,
    token_latencies: Vec<SimTime>,
    queueing: Aggregate,
    traffic: TrafficBreakdown,
    flash_busy: BusyTracker,
    npu_busy: BusyTracker,
    prefill_busy: SimTime,
    occupancy_ps: u128,
    peak: usize,
}

impl Run<'_> {
    /// Creates a request arriving at `at` and schedules its arrival.
    fn issue(&mut self, shape: RequestShape, at: SimTime, client: Option<usize>) {
        let id = self.requests.len();
        self.requests.push(Request {
            shape,
            arrived: at,
            client,
            started: None,
            prefill_end: None,
            first_token: None,
            token_started: at,
            tokens: 0,
            faults: self.fault_root.fork(),
            owes_prefill: false,
            ops: Vec::new(),
            next_op: 0,
            fault_extra: 0,
            last_dispatch: 0,
        });
        self.events.schedule(at, Event::Arrive(id));
    }

    /// The client behind departing request `id`, if any, issues its
    /// next request now.
    fn reissue(&mut self, id: usize, now: SimTime) {
        if let Some(c) = self.requests[id].client {
            if self.client_left[c] > 0 {
                self.client_left[c] -= 1;
                let shape = self.client_shape.expect("closed loops have a shape");
                self.issue(shape, now, Some(c));
            }
        }
    }

    /// Moves every arrival due at `now` into the admission queue. Only
    /// arrivals can be pending while the device is between windows.
    fn queue_due_arrivals(&mut self, now: SimTime) {
        while self.events.peek_time() == Some(now) {
            match self.events.pop() {
                Some((_, Event::Arrive(id))) => self.pending.push_back(id),
                other => panic!("device event {other:?} pending at a boundary"),
            }
        }
    }

    /// Admits from the queue head, then starts the prefill window of
    /// the joiners or, if none is owed, the next step.
    fn admit_and_start(&mut self, now: SimTime) {
        let mut window = SimTime::ZERO;
        while self.batch.len() < self.max_batch {
            let Some(&id) = self.pending.front() else {
                break;
            };
            let context = self.requests[id].context();
            if context > self.kv.max_tokens() {
                self.pending.pop_front();
                self.rejections += 1;
                self.reissue(id, now);
                continue;
            }
            if !self.kv.fits(context) {
                break;
            }
            self.kv.prefill(context).expect("it fits");
            self.pending.pop_front();
            self.batch.push(id);
            self.peak = self.peak.max(self.batch.len());
            let arrived = self.requests[id].arrived;
            self.first_admitted_arrival.get_or_insert(arrived);
            self.requests[id].started = Some(now + window);
            let prompt = self.requests[id].shape.prompt_len;
            if let Some(plan) = self.prefill_plan.as_ref().filter(|_| prompt > 0) {
                let cost = self.system.prefill_cost(plan, prompt);
                let mut total = cost.total;
                if let Some(ladder) = &mut self.ladder {
                    let extra = ladder.window(
                        cost.traffic.nand_array_bytes,
                        cost.total.as_picos(),
                        &mut self.requests[id].faults,
                    );
                    total += SimTime::from_picos(extra);
                }
                self.traffic.absorb(&cost.traffic);
                self.prefill_busy += total;
                window += total;
                self.requests[id].prefill_end = Some(now + window);
            }
        }
        if window > SimTime::ZERO {
            self.flash_busy.add_interval(now, now + window);
            self.npu_busy.add_interval(now, now + window);
            self.occupancy_ps += self.batch.len() as u128 * window.as_picos() as u128;
            self.events.schedule(now + window, Event::PrefillEnd);
            self.device_busy = true;
        } else {
            self.launch_step(now);
        }
    }

    /// Prices one batch step from scratch and schedules its end.
    fn launch_step(&mut self, now: SimTime) {
        if self.batch.is_empty() {
            return;
        }
        let batch = self.batch.len() as u64;
        let mut flash = SimTime::ZERO;
        let mut npu = SimTime::ZERO;
        // The step's weight stream as one batch-1 window: its NAND
        // bytes and unfloored flash time.
        let mut stream_bytes = 0u64;
        let mut stream_ps = 0u64;
        for (member, &id) in self.batch.iter().enumerate() {
            let r = &self.requests[id];
            let step = decode_step(
                &self.sc.model,
                self.sc.cfg.quant,
                r.shape.prompt_len + r.tokens,
            );
            for op in &step.ops {
                let cost = self.system.op_cost(op);
                let t = cost.traffic;
                match op {
                    DecodeOp::WeightGemv { .. } => {
                        // Every member multiplies the weights by its own
                        // activations on both sides.
                        self.traffic.dram_bytes += t.dram_bytes;
                        self.traffic.npu_ops += t.npu_ops;
                        self.traffic.flash_ops += t.flash_ops;
                        if member == 0 {
                            // The weights stream once for the whole batch.
                            self.traffic.nand_array_bytes += t.nand_array_bytes;
                            self.traffic.in_flash_bytes += t.in_flash_bytes;
                            self.traffic.d2d_bytes += t.d2d_bytes;
                            flash += cost
                                .latency
                                .max(self.system.npu_compute_time(t.npu_ops * batch))
                                .max(self.system.flash_compute_time(t.flash_ops * batch));
                            stream_bytes += t.nand_array_bytes;
                            stream_ps += cost.latency.as_picos();
                        }
                    }
                    _ => {
                        self.traffic.absorb(&t);
                        npu += cost.latency;
                    }
                }
            }
        }
        if let Some(ladder) = &mut self.ladder {
            let head = &mut self.requests[self.batch[0]];
            flash += SimTime::from_picos(ladder.window(stream_bytes, stream_ps, &mut head.faults));
        }
        self.flash_busy.add_interval(now, now + flash);
        self.npu_busy.add_interval(now, now + npu);
        let end = now + flash + npu;
        self.occupancy_ps += self.batch.len() as u128 * (end - now).as_picos() as u128;
        self.events.schedule(end, Event::StepEnd);
        self.device_busy = true;
    }

    /// Retires one token for every member at `now`: each then
    /// completes, is shed, or stays for the next step.
    fn retire_step(&mut self, now: SimTime) {
        let members = std::mem::take(&mut self.batch);
        for id in members {
            let r = &mut self.requests[id];
            r.tokens += 1;
            self.token_latencies.push(now - r.token_started);
            r.token_started = now;
            r.first_token.get_or_insert(now);
            let finished = r.tokens == r.shape.new_tokens;
            let shed = !finished && self.ladder.as_mut().is_some_and(|l| l.sheds(r, now));
            if !finished && !shed {
                self.batch.push(id);
                continue;
            }
            let context = r.context();
            if finished {
                self.complete(id, now);
            }
            self.kv.release(context);
            self.reissue(id, now);
        }
    }

    /// Files the report of request `id`, which finished at `now`.
    fn complete(&mut self, id: usize, now: SimTime) {
        let r = &self.requests[id];
        let started = r.started.expect("admitted");
        let report = RequestReport {
            id,
            arrived: r.arrived,
            started,
            prefill_end: r.prefill_end.unwrap_or(started),
            first_token_at: r.first_token.expect("retired a token"),
            finished: now,
            tokens: r.tokens,
        };
        if let Some(ladder) = &mut self.ladder {
            ladder.score(&report);
        }
        self.queueing.push(report.queueing_delay().as_secs_f64());
        self.done.push(report);
    }

    /// Per-op: starts request `id`'s next token. Prices its ops from
    /// scratch, books their traffic, and draws the token's fault window.
    fn begin_token(&mut self, id: usize) {
        let r = &mut self.requests[id];
        let step = decode_step(
            &self.sc.model,
            self.sc.cfg.quant,
            r.shape.prompt_len + r.tokens,
        );
        r.ops.clear();
        r.next_op = 0;
        let mut stream_bytes = 0u64;
        let mut stream_ps = 0u64;
        for op in &step.ops {
            let cost = self.system.op_cost(op);
            self.traffic.absorb(&cost.traffic);
            let on_flash = matches!(op, DecodeOp::WeightGemv { .. });
            if on_flash {
                stream_bytes += cost.traffic.nand_array_bytes;
                stream_ps += cost.latency.as_picos();
            }
            r.ops.push((on_flash, cost.latency));
        }
        if let Some(ladder) = &mut self.ladder {
            r.fault_extra = ladder.window(stream_bytes, stream_ps, &mut r.faults);
        }
    }

    /// Per-op: queues request `id` for the resource of its next op.
    fn wait_for_next_op(&mut self, id: usize) {
        let r = &self.requests[id];
        let resource = if r.ops[r.next_op].0 { FLASH } else { NPU };
        self.waiting[resource].push(id);
    }

    /// Per-op: the request waiting for `resource` that the policy
    /// serves first, as an index into `waiting[resource]`.
    fn first_waiting(&self, resource: usize) -> Option<usize> {
        let key = |id: usize| match self.sc.policy {
            SchedulePolicy::Fcfs => self.requests[id].arrived.as_picos(),
            SchedulePolicy::RoundRobin => self.requests[id].last_dispatch,
            SchedulePolicy::ContinuousBatch { .. } => unreachable!("batched runs step"),
        };
        (0..self.waiting[resource].len()).min_by_key(|&i| {
            let id = self.waiting[resource][i];
            (key(id), id)
        })
    }

    /// Per-op: each idle resource, flash first, starts the waiting
    /// request the policy serves first.
    fn dispatch(&mut self, now: SimTime) {
        for resource in [FLASH, NPU] {
            if self.serving[resource] {
                continue;
            }
            let Some(i) = self.first_waiting(resource) else {
                continue;
            };
            let id = self.waiting[resource][i];
            if self.requests[id].owes_prefill && self.serving[NPU] {
                // A prefill needs both resources: the flash device
                // idles until the NPU frees.
                continue;
            }
            self.waiting[resource].remove(i);
            self.dispatches += 1;
            let r = &mut self.requests[id];
            r.last_dispatch = self.dispatches;
            r.started.get_or_insert(now);
            if r.owes_prefill {
                r.owes_prefill = false;
                let plan = self.prefill_plan.as_ref().expect("prefill is modelled");
                let cost = self.system.prefill_cost(plan, r.shape.prompt_len);
                let mut total = cost.total;
                if let Some(ladder) = &mut self.ladder {
                    let extra = ladder.window(
                        cost.traffic.nand_array_bytes,
                        cost.total.as_picos(),
                        &mut r.faults,
                    );
                    total += SimTime::from_picos(extra);
                }
                self.traffic.absorb(&cost.traffic);
                self.prefill_busy += total;
                self.flash_busy.add_interval(now, now + total);
                self.npu_busy.add_interval(now, now + total);
                self.events.schedule(now + total, Event::PrefillDone(id));
                self.events.schedule(now + total, Event::HoldDone);
                self.serving = [true, true];
                continue;
            }
            let (_, mut latency) = r.ops[r.next_op];
            if resource == FLASH {
                latency += SimTime::from_picos(std::mem::take(&mut r.fault_extra));
            }
            let busy = if resource == FLASH {
                &mut self.flash_busy
            } else {
                &mut self.npu_busy
            };
            busy.add_interval(now, now + latency);
            self.events
                .schedule(now + latency, Event::OpEnd(resource, id));
            self.serving[resource] = true;
        }
    }

    /// Per-op: request `id` finished an op at `now`. Queues its next
    /// op, or retires the token and then continues, sheds or completes.
    fn op_done(&mut self, id: usize, now: SimTime) {
        let r = &mut self.requests[id];
        r.next_op += 1;
        if r.next_op < r.ops.len() {
            self.wait_for_next_op(id);
            return;
        }
        r.tokens += 1;
        self.token_latencies.push(now - r.token_started);
        r.token_started = now;
        r.first_token.get_or_insert(now);
        let finished = r.tokens == r.shape.new_tokens;
        if !finished && self.ladder.as_mut().is_some_and(|l| l.sheds(r, now)) {
            self.reissue(id, now);
        } else if !finished {
            self.begin_token(id);
            self.wait_for_next_op(id);
        } else {
            self.complete(id, now);
            self.reissue(id, now);
        }
    }

    fn report(self) -> ServeReport {
        // Service runs from the first admitted arrival to the last
        // completion or shed, whichever is later.
        let last_shed = self.ladder.as_ref().and_then(|l| l.last_shed);
        let last_exit = self.done.last().map(|r| r.finished).max(last_shed);
        let makespan = match (self.first_admitted_arrival, last_exit) {
            (Some(first), Some(last)) => last - first,
            _ => SimTime::ZERO,
        };
        let secs = makespan.as_secs_f64();
        let per_sec = |x: f64| if secs > 0.0 { x / secs } else { 0.0 };
        let tokens_served: u64 = self.done.iter().map(|r| r.tokens as u64).sum();
        let ttft: Vec<SimTime> = self.done.iter().map(RequestReport::ttft).collect();
        let (ttft_p50_s, ttft_p99_s, ttft_mean_s) = latency_summary(ttft);
        let mut decode_ttft = Aggregate::new();
        for r in &self.done {
            decode_ttft.push(r.decode_ttft().as_secs_f64());
        }
        let mut reliability = self
            .ladder
            .as_ref()
            .map_or_else(Default::default, Ladder::summary);
        reliability.deadline_goodput_tps = per_sec(reliability.goodput_tokens as f64);
        let (p50_token_latency_s, p99_token_latency_s, mean_token_latency_s) =
            latency_summary(self.token_latencies);
        ServeReport {
            policy: self.sc.policy,
            prefill: self.sc.prefill,
            requests_served: self.done.len(),
            tokens_served,
            makespan,
            tokens_per_sec: per_sec(tokens_served as f64),
            p50_token_latency_s,
            p99_token_latency_s,
            mean_token_latency_s,
            ttft_p50_s,
            ttft_p99_s,
            ttft_mean_s,
            decode_ttft_s: decode_ttft,
            prefill_busy_s: self.prefill_busy.as_secs_f64(),
            queueing_delay_s: self.queueing,
            flash_utilization: self.flash_busy.utilization(makespan),
            npu_utilization: self.npu_busy.utilization(makespan),
            gemv_cache_hits: 0,
            gemv_cache_misses: 0,
            op_cost_cache_hits: 0,
            op_cost_cache_misses: 0,
            mean_batch_occupancy: if makespan > SimTime::ZERO {
                self.occupancy_ps as f64 / makespan.as_picos() as f64
            } else {
                0.0
            },
            peak_batch_occupancy: self.peak,
            kv_rejections: self.rejections,
            traffic: self.traffic,
            reliability,
            requests: self.done,
        }
    }
}

/// The p50, p99 and mean of `xs` in seconds (all 0 when empty), in the
/// plainest terms: nearest rank over a full sort, and the mean as one
/// IEEE division. That division is the correctly rounded mean while the
/// picosecond sum and `count · 10¹²` are both below 2⁵³, where each
/// converts to `f64` exactly; every oracle scenario stays there.
fn latency_summary(mut xs: Vec<SimTime>) -> (f64, f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    xs.sort_unstable();
    let n = xs.len();
    let nearest_rank = |p: f64| xs[((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1];
    let sum: u64 = xs.iter().map(|x| x.as_picos()).sum();
    let den = n as u64 * 1_000_000_000_000;
    assert!(
        sum < 1 << 53 && den < 1 << 53,
        "mean of {n} latencies summing to {sum} ps is outside the oracle's exact range"
    );
    (
        nearest_rank(50.0).as_secs_f64(),
        nearest_rank(99.0).as_secs_f64(),
        sum as f64 / den as f64,
    )
}

/// Serves `trace` under `sc.policy` as described in the module docs.
/// `system` must be configured as `sc.cfg`; its memo state changes no
/// price, so one system may serve many runs.
pub fn run(sc: &Scenario, trace: &ArrivalTrace, system: &mut System) -> ServeReport {
    let max_batch = match sc.policy {
        SchedulePolicy::ContinuousBatch { max_batch } => max_batch,
        SchedulePolicy::Fcfs | SchedulePolicy::RoundRobin => 0,
    };
    let ladder = match sc.faults {
        FaultMode::Off => None,
        FaultMode::Injected(fc) => Some(Ladder::new(fc, &sc.cfg, system)),
    };
    let seed = ladder.as_ref().map_or(0, |l| l.cfg.seed);
    let mut run = Run {
        sc,
        prefill_plan: match sc.prefill {
            PrefillMode::Off => None,
            PrefillMode::Modeled => Some(PrefillPlan::new(&sc.model, sc.cfg.quant)),
        },
        system,
        ladder,
        fault_root: SplitMix64::new(seed),
        requests: Vec::new(),
        client_left: Vec::new(),
        client_shape: None,
        events: EventQueue::new(),
        device_busy: false,
        pending: VecDeque::new(),
        batch: Vec::new(),
        max_batch,
        waiting: [Vec::new(), Vec::new()],
        serving: [false, false],
        dispatches: 0,
        kv: KvCache::new(kv_bytes_per_token(&sc.model, sc.cfg.quant), &sc.cfg.npu),
        first_admitted_arrival: None,
        rejections: 0,
        done: Vec::new(),
        token_latencies: Vec::new(),
        queueing: Aggregate::new(),
        traffic: TrafficBreakdown::default(),
        flash_busy: BusyTracker::new(),
        npu_busy: BusyTracker::new(),
        prefill_busy: SimTime::ZERO,
        occupancy_ps: 0,
        peak: 0,
    };
    match trace {
        ArrivalTrace::Open(arrivals) => {
            for a in arrivals {
                run.issue(a.shape, a.at, None);
            }
        }
        ArrivalTrace::ClosedLoop {
            clients,
            requests_per_client,
            shape,
        } => {
            run.client_left = vec![requests_per_client - 1; *clients];
            run.client_shape = Some(*shape);
            for c in 0..*clients {
                run.issue(*shape, SimTime::ZERO, Some(c));
            }
        }
    }
    if max_batch > 0 {
        run_batched(&mut run);
    } else {
        run_per_op(&mut run);
    }
    run.report()
}

/// The continuous-batching event loop.
fn run_batched(run: &mut Run<'_>) {
    while let Some((now, event)) = run.events.pop() {
        match event {
            Event::Arrive(id) => {
                run.pending.push_back(id);
                if !run.device_busy {
                    run.queue_due_arrivals(now);
                    run.admit_and_start(now);
                }
            }
            Event::PrefillEnd => {
                run.device_busy = false;
                run.launch_step(now);
            }
            Event::StepEnd => {
                run.device_busy = false;
                run.retire_step(now);
                run.queue_due_arrivals(now);
                run.admit_and_start(now);
            }
            other => panic!("per-op event {other:?} in a batched run"),
        }
    }
    assert!(
        run.batch.is_empty() && run.pending.is_empty(),
        "work left over"
    );
    assert_eq!(run.kv.tokens(), 0, "KV reservations leaked");
}

/// The FCFS and round-robin event loop: one event, then one dispatch
/// pass.
fn run_per_op(run: &mut Run<'_>) {
    while let Some((now, event)) = run.events.pop() {
        match event {
            Event::Arrive(id) => {
                if run.requests[id].context() > run.kv.max_tokens() {
                    run.rejections += 1;
                    run.reissue(id, now);
                } else {
                    let arrived = run.requests[id].arrived;
                    run.first_admitted_arrival.get_or_insert(arrived);
                    if run.prefill_plan.is_some() && run.requests[id].shape.prompt_len > 0 {
                        run.requests[id].owes_prefill = true;
                        run.waiting[FLASH].push(id);
                    } else {
                        run.begin_token(id);
                        run.wait_for_next_op(id);
                    }
                }
            }
            Event::PrefillDone(id) => {
                run.serving[FLASH] = false;
                run.requests[id].prefill_end = Some(now);
                run.begin_token(id);
                run.wait_for_next_op(id);
            }
            Event::HoldDone => run.serving[NPU] = false,
            Event::OpEnd(resource, id) => {
                run.serving[resource] = false;
                run.op_done(id, now);
            }
            other => panic!("batched event {other:?} in a per-op run"),
        }
        run.dispatch(now);
    }
    assert!(run.waiting.iter().all(Vec::is_empty), "work left over");
}
