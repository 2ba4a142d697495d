//! Layer-period jumps of the round-robin loop: the checkpoints, and the
//! jump that skips the layers a lockstep schedule repeats exactly.
//!
//! Only round-robin keeps that schedule (`Simulation::JUMPS` compiles
//! the checkpoints out of FCFS). With spans on, each time the reference
//! request (the trailing one, the highest in-flight id) enters a layer of
//! the plan's periodic range, the loop takes a [`Checkpoint`] of its
//! state relative to `now`, both stamps and the reference's plan index.
//! When the state equals one recorded `p ≤` [`MAX_PERIOD_LAYERS`] layers
//! earlier, at a lockstep pace in between, the next `k` periods are that
//! period shifted, and [`Simulation::jump`] applies them in O(in-flight)
//! arithmetic. This is exact: inside the periodic range a position and
//! the one a layer later have the same resource and price, no member
//! owes fault time, and the loop reads only the relative state. `k` keeps
//! every position the skipped periods touch inside the periodic range,
//! so no token boundary is skipped, and lands the jump strictly before
//! the next arrival, which at one instant fires before any completion.
//!
//! A jump moves every round-robin key, the queued ones included
//! ([`ReadySet::shift_keys`]): a queued key left above a slot member's
//! would rank below that member's next key, and the two can meet in one
//! queue right after the landing (pinned in `tests/span_equivalence.rs`).

use sim_core::SimTime;

use super::device::Simulation;
use super::ready::ReadySet;
use super::run::{Phase, FLASH, NPU, PREFILL_HOLD};

/// Most layers one period of a [`Simulation`] layer-period jump may
/// span. Lockstep round-robin on Llama2-70B repeats with a period of
/// one layer for most of a token, and of two late in a long decode.
pub(super) const MAX_PERIOD_LAYERS: usize = 2;

/// Entries of the [`Simulation`] checkpoint ring: the latest
/// [`MAX_PERIOD_LAYERS`] and the one being taken.
pub(super) const CK_RING: usize = MAX_PERIOD_LAYERS + 1;

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

/// One layer-period checkpoint of [`Simulation`], taken between events:
/// the reference's plan index, the clock, and the state relative to
/// both. Two with equal states, whose reference indices differ by whole
/// layers, have the same future up to that shift while every position
/// they reach is periodic and no arrival intervenes.
#[derive(Debug, Default)]
pub(super) struct Checkpoint {
    /// The reference request's plan index.
    ref_idx: usize,
    /// Whether the state has a layer period: every member decodes and
    /// owes no fault time, and each ready set's order follows from its
    /// keys. The fields below are complete only then.
    periodic: bool,
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
    /// layers of `len` ops earlier: exactly one dispatch per op each
    /// member moved if they all moved `layers` layers, as a repeat of
    /// `a` (whose members the state comparison matches) requires.
    fn keeps_pace(&self, a: &Checkpoint, layers: usize, len: usize) -> bool {
        let ops = layers * len;
        a.ref_idx + ops == self.ref_idx
            && self.clock.d_stamp - a.clock.d_stamp == (self.members.len() * ops) as u64
    }
}

impl<'a, Q: ReadySet> Simulation<'a, Q> {
    /// Picks the reference again after the current one crossed a token
    /// boundary or left: itself while it is still in flight, otherwise
    /// the highest id in flight. Earlier checkpoints cannot repeat.
    #[cold]
    #[inline(never)]
    pub(super) fn rebase_checkpoints(&mut self) {
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
    /// of layers earlier. Once per layer of the reference, so it stays
    /// out of line.
    #[cold]
    #[inline(never)]
    pub(super) fn checkpoint(&mut self) {
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
        #[cfg(test)]
        {
            self.paths.checkpoints += 1;
        }
        let mut b = std::mem::take(&mut self.cks[at]);
        b.ref_idx = idx;
        b.periodic = self.take_state(&mut b);
        let period = (1..=n).find(|&p| {
            let a = &self.cks[earlier(p)];
            b.periodic
                && a.periodic
                && b.keeps_pace(a, p, len)
                && a.head == b.head
                && a.rel == b.rel
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
            self.paths.landings.push(now);
            self.paths.periods_skipped += k64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::serve::device::tests::{run_counting, POLICIES, TOKENS};
    use crate::serve::device::DeviceEngine;
    use crate::serve::pricing::PricedRun;
    use crate::serve::ready::RrReady;
    use crate::serve::{SchedulePolicy, SpanMode};
    use llm_workload::kv::kv_bytes_per_token;
    use llm_workload::{zoo, ArrivalTrace, Family, ModelSpec, RequestArrival, RequestShape};

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
        // executes 2.8% of them; FCFS takes no checkpoints and executes
        // 96.2% (its solo spans run the rest).
        let expected = [(0, 0, 0, 1_183_970), (135, 64, 4_985, 34_448)];
        for (policy, counts) in POLICIES.into_iter().zip(expected) {
            let (report, paths) = run_counting(&engine, &trace, policy);
            let (reference, plain) = run_counting(&per_op, &trace, policy);
            assert_eq!(report, reference, "{policy:?}");
            let ops = report.tokens_served * engine.plan().len() as u64;
            assert_eq!(ops, 1_230_848);
            assert_eq!((plain.jumps(), plain.dispatches), (0, ops), "{policy:?}");
            let jumped = (
                paths.checkpoints,
                paths.jumps(),
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
            paths.jumps()
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
    fn the_six_layer_oracle_models_take_jumps() {
        // `tests/oracle.rs` pins round-robin to its naive oracle on tiny
        // models of two and six layers. Two layers are too few for a
        // jump to start; six are not. Pin that a shape of the oracle's
        // fixed draw (three closed-loop clients on Cam-S with the KV
        // allocation cut to 2,400 tokens) does jump, so the oracle's
        // check of the jumps cannot lapse unseen.
        let model = ModelSpec {
            name: "tiny-OPT",
            family: Family::Opt,
            layers: 6,
            hidden: 512,
            heads: 8,
            kv_heads: 8,
            ffn: 2048,
            vocab: 2048,
            max_seq: 2048,
        };
        let mut cfg = SystemConfig::cambricon_s();
        cfg.npu.dram_kv_bytes = 2400 * kv_bytes_per_token(&model, cfg.quant);
        let trace = ArrivalTrace::closed_loop(3, 2, RequestShape::new(700, 5));
        let engine = DeviceEngine::new(cfg, model);
        let (_, paths) = run_counting(&engine, &trace, SchedulePolicy::RoundRobin);
        assert!(paths.jumps() > 0, "the six-layer shape takes no jump");
    }

    #[test]
    fn an_arrival_on_a_jump_landing_is_bit_exact() {
        // A jump must land strictly before the next arrival. At one
        // instant an arrival fires before any op completion, so a jump
        // that landed on it would have run the completion there first.
        // Probe where a burst's jumps land with nothing else arriving,
        // then add one arrival 1 ps before, on and 1 ps after each of
        // the first landings: the run must equal the per-op one.
        let engine = DeviceEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b());
        let per_op = engine.clone().with_span_mode(SpanMode::PerOp);
        let rr = SchedulePolicy::RoundRobin;
        let burst = ArrivalTrace::burst(4, RequestShape::new(300, TOKENS));
        let (_, probe) = run_counting(&engine, &burst, rr);
        let ArrivalTrace::Open(arrivals) = burst else {
            unreachable!("bursts are open");
        };
        assert!(probe.landings.len() >= 3, "{:?}", probe.landings);
        for &landing in &probe.landings[..3] {
            for at in [landing - 1, landing, landing + 1] {
                let late = RequestArrival {
                    at: SimTime::from_picos(at),
                    shape: RequestShape::new(100, 4),
                };
                let trace = ArrivalTrace::Open(arrivals.iter().copied().chain([late]).collect());
                assert_eq!(
                    run_counting(&engine, &trace, rr).0,
                    per_op.run(&trace, rr),
                    "an arrival at {at} ps, by a landing at {landing} ps"
                );
            }
        }
    }
}
