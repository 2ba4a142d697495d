//! The device component: one flash/NPU device's serving engine and its
//! FCFS/round-robin event loop.
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
//! from — lives in a [`DeviceRun`] (`serve/run.rs`), built once and
//! turned into the report once. Two event loops drive it:
//!
//! * [`Simulation`], the one loop for FCFS and round-robin, generic over
//!   the policy's [`ReadySet`] (`serve/ready.rs`), the one queue of the
//!   run. It interleaves the two resources op by op: a hot completion
//!   handler with targeted dispatch, out-of-line handlers for arrivals
//!   and for completions around a prefill, and one post-event dispatch
//!   pass. With spans on, that pass also starts **solo spans**
//!   ([`Simulation::solo_span`]), which price a lone request's whole
//!   tokens with a few adds, and under round-robin the loop takes
//!   **layer-period jumps** (`serve/period.rs`) over the layers its
//!   lockstep schedule repeats exactly. FCFS compiles the jumps out;
//!   [`SpanMode::PerOp`] turns spans and jumps off.
//! * [`BatchedSimulation`] (`serve/batched.rs`), the continuous-batching
//!   loop. It runs the batch in bulk-priced spans of whole batch steps;
//!   under [`SpanMode::PerOp`] each span is one step.
//!
//! Every path of both loops, the jumps included, is pinned to the naive
//! oracle in `tests/support/oracle.rs`.
//!
//! Everything here is an implementation detail of the serving model
//! documented on [`crate::serve`]; the public surface is
//! [`DeviceEngine`] (also named [`super::ServeEngine`]).

use crate::config::SystemConfig;
use crate::reliability::{FaultMode, WindowDraw};
use crate::system::TrafficBreakdown;
use llm_workload::{ArrivalTrace, ModelSpec, PrefillPlan, TokenPlan};
use sim_core::{SimTime, SplitMix64};
use std::cmp::Reverse;

use super::batched::BatchedSimulation;
use super::period::{Checkpoint, CK_RING};
use super::pricing::{PricedRun, DEP_LAT_MARK};
use super::ready::{FcfsReady, ReadySet, RrReady};
use super::run::{
    deadline_ps, deadline_shed, retire_token, DeviceRun, Phase, RequestPool, FLASH, NPU,
    PREFILL_HOLD,
};
use super::{PrefillMode, SchedulePolicy, ServeReport, SpanMode};

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
    pub(super) span: SpanMode,
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
/// the loop's rare arms are laid out away from the hot op path.
#[cold]
#[inline(never)]
fn cold_mark() {}

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
/// Under round-robin with spans on, the loop also takes **layer-period
/// jumps** (`serve/period.rs`); [`Simulation::JUMPS`] compiles the three
/// sites that drive them out of the FCFS loop.
pub(super) struct Simulation<'a, Q> {
    pub(super) run: DeviceRun<'a>,
    pub(super) ready: Q,
    pub(super) n_ops: usize,
    /// The priced table's `PlanTable::class_slots` and `pos_lat`, held
    /// here so the per-op path reads them directly.
    pub(super) class_slots: &'a [u8],
    pub(super) pos_lat: &'a [u64],
    pub(super) faults_on: bool,
    /// Per resource: end time in picoseconds of the op in flight
    /// (`u64::MAX` when idle), its event stamp and its request.
    pub(super) s_at: [u64; 2],
    pub(super) s_st: [u64; 2],
    pub(super) s_id: [u32; 2],
    /// Dispatch stamp, bumped per dispatched op: the round-robin
    /// recency key.
    pub(super) d_stamp: u64,
    pub(super) now: SimTime,
    /// `(time_ps, stamp)` of the earliest pending arrival, refreshed
    /// whenever the heap changes.
    pub(super) next_arr: (u64, u64),
    /// Admitted requests whose prefill has not released the NPU yet.
    /// While it is nonzero, [`Simulation::prefill_blocks`] picks the
    /// completions that take [`Simulation::general`].
    pub(super) prefills: usize,
    pub(super) busy_start: [u64; 2],
    /// End of each resource's open busy run; `u64::MAX` when none.
    pub(super) busy_end: [u64; 2],
    /// The plan's layer length and the end of its periodic range (which
    /// starts at position 0), for layer-period jumps.
    pub(super) layer_len: usize,
    pub(super) periodic_end: usize,
    /// The reference request: the trailing one, the highest in-flight
    /// id, whose layer entries take the checkpoints.
    pub(super) ck_ref: usize,
    /// The reference's plan index at which the next checkpoint fires;
    /// `usize::MAX` when none will (spans off, or nothing in flight).
    pub(super) ck_idx: usize,
    /// A ring of checkpoints: the latest `ck_len` since the last jump,
    /// reference token boundary or arrival end at `ck_at`.
    pub(super) cks: [Checkpoint; CK_RING],
    pub(super) ck_at: usize,
    pub(super) ck_len: usize,
    /// The fast paths the run took, which its report cannot show. Filled
    /// only in unit tests, which pin them.
    #[cfg(test)]
    pub(super) paths: tests::FastPaths,
}

impl<'a, Q: ReadySet> Simulation<'a, Q> {
    /// Whether the loop takes layer-period checkpoints and jumps: only
    /// round-robin keeps the lockstep schedule a layer period needs, so
    /// FCFS compiles every checkpoint site out.
    const JUMPS: bool = matches!(Q::POLICY, SchedulePolicy::RoundRobin);

    pub(super) fn new(
        engine: &'a DeviceEngine,
        trace: &ArrivalTrace,
        priced: &'a PricedRun,
    ) -> Self {
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
            paths: tests::FastPaths::default(),
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
            if Self::JUMPS && self.run.requests.cursor[self.ck_ref].index() >= self.ck_idx {
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
    pub(super) fn arrive(&mut self) {
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
        if Self::JUMPS && self.run.span_cap > 0 && (self.ck_idx == usize::MAX || id > self.ck_ref) {
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
            self.paths.general_ops += 1;
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
        if Self::JUMPS && id == self.ck_ref && self.ck_idx != usize::MAX {
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
            self.paths.dispatches += 1;
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
    pub(super) fn step<const S: usize>(&mut self) {
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
        self.paths.solo_spans.push((id, k, remaining));
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
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::reliability::FaultConfig;
    use flash_sim::FlashAge;
    use llm_workload::RequestShape;
    use llm_workload::{zoo, RequestArrival};

    pub(in crate::serve) const TOKENS: usize = 12;

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
        let [(0, k, _)] = sim.paths.solo_spans[..] else {
            panic!("the arrival runs one solo span: {:?}", sim.paths.solo_spans);
        };
        let end = sim
            .s_at
            .into_iter()
            .find(|&at| at != u64::MAX)
            .expect("a span schedules its end event");
        (sim, k, SimTime::from_picos(end))
    }

    /// What an FCFS/RR run did that its report cannot show (reports are
    /// the same whichever path the work takes).
    #[derive(Debug, Default)]
    pub(in crate::serve) struct FastPaths {
        /// Every solo span run, as `(request, tokens coalesced, tokens
        /// the request owed at its start)`.
        pub(in crate::serve) solo_spans: Vec<(usize, usize, usize)>,
        /// Op completions that took [`Simulation::general`].
        pub(in crate::serve) general_ops: u64,
        /// Layer-period checkpoints taken.
        pub(in crate::serve) checkpoints: u64,
        /// The time each layer-period jump landed at, in picoseconds.
        pub(in crate::serve) landings: Vec<u64>,
        /// Layer periods the jumps skipped.
        pub(in crate::serve) periods_skipped: u64,
        /// Per-op dispatches executed.
        pub(in crate::serve) dispatches: u64,
    }

    impl FastPaths {
        /// Layer-period jumps taken.
        pub(in crate::serve) fn jumps(&self) -> u64 {
            self.landings.len() as u64
        }
    }

    /// Runs `trace` through the FCFS/RR loop under `policy`; returns the
    /// report and the fast paths the run took.
    pub(in crate::serve) fn run_counting(
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
            let paths = std::mem::take(&mut sim.paths);
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

    pub(in crate::serve) const POLICIES: [SchedulePolicy; 2] =
        [SchedulePolicy::Fcfs, SchedulePolicy::RoundRobin];

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
