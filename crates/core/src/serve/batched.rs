//! The continuous-batching event loop.

use llm_workload::ArrivalTrace;
use npu_sim::KvCache;
use sim_core::SimTime;
use std::collections::VecDeque;

use super::device::DeviceEngine;
use super::pricing::PricedRun;
use super::run::{
    deadline_ps, deadline_shed, kv_cache, retire_token, DeviceRun, Fired, Phase, BATCH_PREFILL,
    FLASH, SPAN_BOUNDARY,
};
use super::{SchedulePolicy, ServeReport};

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
    pub(super) fn new(max_batch: usize) -> Self {
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
/// Compared with [`Simulation`](super::device::Simulation), which
/// interleaves *individual* ops of independent requests across the two
/// resources, this loop executes **batch steps**: one walk of the shared
/// [`TokenPlan`](llm_workload::TokenPlan) serving every in-flight
/// request at once, priced in spans of whole steps
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
pub(super) struct BatchedSimulation<'a> {
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
    pub(super) fn new(
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
        self.run.ev.op_done.iter().any(Option::is_some)
    }

    pub(super) fn run(mut self) -> ServeReport {
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
    /// steps (one under [`SpanMode::PerOp`](super::SpanMode::PerOp))
    /// executed as one event-core round. Between scheduling boundaries
    /// the batch is fixed, so each step's latency decomposes into
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
