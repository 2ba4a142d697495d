//! The discrete-event flash channel engine.
//!
//! One [`ChannelEngine`] simulates a single flash channel with its chips,
//! dies, planes, registers, shared compute cores and the channel bus,
//! executing a [`ChannelWorkload`] (read-compute rounds + plain reads).
//! Channels in the device are symmetric and independent for the paper's
//! workloads, so [`FlashDevice`](crate::device::FlashDevice) runs one
//! engine per distinct per-channel workload, memoized across calls in a
//! [`ChannelRuns`](crate::device::ChannelRuns).
//!
//! ## Pipeline model
//!
//! Per die (Figure 4(b)):
//!
//! * **Plane 0** feeds the read-compute stream: `array read (tR)` →
//!   `data register` → `move (t_move)` → `cache register` → compute core.
//! * **Plane 1** feeds plain reads to the NPU: `array read` → `data reg`
//!   → `move` → `cache register` → channel transfer (sliced or whole).
//! * The **compute core** (one per die, shared by the planes) consumes
//!   one cache-register page per round; it requires that round's input
//!   vector (broadcast over the channel) and a free output-buffer slot.
//!
//! The **channel bus** serves three transfer kinds: round input
//! broadcasts, per-core result vectors, and read-page data. Under
//! [`SlicePolicy::Sliced`](crate::SlicePolicy::Sliced) control transfers have priority and read data
//! moves in small chunks that fill the bubbles (§IV-C); under
//! [`SlicePolicy::Unsliced`](crate::SlicePolicy::Unsliced) everything is served FIFO and a page
//! transfer is one monolithic bus transaction, reproducing the blocking
//! behaviour of Figure 6(b).
//!
//! ## Event loop
//!
//! After each event the engine makes one *pass*: it queues the input
//! broadcasts the prefetch window allows, advances every *dirty* die in
//! index order (array read, register move, compute start, read-transfer
//! start), then starts the next bus transaction if the bus is idle. A
//! die's actions depend only on its own state and on how many inputs
//! have arrived, so an event dirties exactly the dies whose actions it
//! can enable:
//!
//! * `ArrayReadDone`, `MoveDone` and `ComputeDone` dirty their own die;
//! * a bus transfer dirties its die when it frees an output-buffer slot
//!   (a result vector) or the plain-read cache register (the last chunk
//!   of a page); other read chunks dirty nothing;
//! * an input broadcast's arrival dirties every die, since any core may
//!   be waiting for it. That happens once per round, while each round
//!   costs every die at least four events of its own, so a pass costs
//!   amortized O(1) dies per event at any die count.
//!
//! Within one die the array-read check runs before the register move.
//! So when a move frees the data register, that plane's next array
//! read starts at the channel's *next* event, whichever die it belongs
//! to, not at the instant the register freed. The die stays dirty
//! until then. This deferral is part of the model's timing.
//!
//! Visiting the dirty dies in index order schedules the same events in
//! the same order as scanning every die after every event, so the dirty
//! set changes the cost of a run and no report field, `events`
//! included.
//!
//! Bus durations are fixed per run too: `new` computes the input
//! broadcast, the result vector and a full read chunk (the slice, or the
//! whole page unsliced) once, so a bus transaction costs no division.
//! Only the short last chunk of a page the slice does not divide
//! computes its own.
//!
//! Events wait in three FIFO lanes and one bus slot, not in a heap.
//! Every event kind has one fixed delay: `ArrayReadDone` fires `t_r`
//! after it is scheduled, `MoveDone` `t_move` after, and `ComputeDone`
//! `t_compute` after, one value per engine. At most one `BusFree` is
//! pending, because the bus starts a transaction only when idle. The
//! clock never goes backwards, so each lane is sorted by `(time, seq)`
//! as it is filled, `seq` counting schedules. The next event is the
//! smallest `(time, seq)` of at most four heads, exactly the event a
//! `(time, seq)` heap would pop, same-instant ties included.
//!
//! `tests/channel_equivalence.rs` checks both against the earlier loop,
//! which scans every die after every event and pops a binary heap.

use crate::report::ChannelReport;
use crate::workload::{ChannelWorkload, EngineConfig};
use sim_core::{BusyTracker, SimTime};
use std::collections::VecDeque;

/// Events inside one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// A NAND array read finished on (die, plane-role).
    ArrayReadDone { die: usize, rc: bool },
    /// A data→cache register move finished on (die, plane-role).
    MoveDone { die: usize, rc: bool },
    /// The compute core of `die` finished a round.
    ComputeDone { die: usize },
    /// The current bus transaction completed.
    BusFree,
}

/// One scheduled event of a fixed-delay lane.
#[derive(Debug, Clone, Copy)]
struct Pending {
    time: SimTime,
    seq: u64,
    ev: Ev,
}

/// The engine's event queue: a FIFO lane per fixed-delay event kind
/// plus one slot for the bus (see the module docs, "Event loop").
///
/// Pops follow `(time, seq)`, where `seq` counts schedules, so
/// same-instant events leave in scheduling order, as from a heap.
#[derive(Debug, Default)]
struct Lanes {
    /// `ArrayReadDone`, `MoveDone` and `ComputeDone`, in that order.
    fixed: [VecDeque<Pending>; 3],
    /// The pending `BusFree` as `(time, seq)`.
    bus: Option<(SimTime, u64)>,
    seq: u64,
    now: SimTime,
    popped: u64,
}

impl Lanes {
    /// Schedules `ev` at `at`. Every event of a lane must be scheduled
    /// with that lane's one delay, so lanes stay sorted.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time, or if a `BusFree` is
    /// scheduled while another is pending.
    fn schedule(&mut self, at: SimTime, ev: Ev) {
        assert!(
            at >= self.now,
            "causality violation: scheduling at {at} but now is {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let lane = match ev {
            Ev::ArrayReadDone { .. } => 0,
            Ev::MoveDone { .. } => 1,
            Ev::ComputeDone { .. } => 2,
            Ev::BusFree => {
                assert!(self.bus.is_none(), "two bus transactions in flight");
                self.bus = Some((at, seq));
                return;
            }
        };
        let lane = &mut self.fixed[lane];
        debug_assert!(
            lane.back().map_or(true, |p| p.time <= at),
            "{ev:?} at {at} breaks its lane's order"
        );
        lane.push_back(Pending { time: at, seq, ev });
    }

    /// Pops the event with the smallest `(time, seq)`, advancing the
    /// clock to it.
    fn pop(&mut self) -> Option<(SimTime, Ev)> {
        // `3` names the bus slot.
        let mut best = self.bus.map(|(time, seq)| (time, seq, 3));
        for (i, lane) in self.fixed.iter().enumerate() {
            if let Some(p) = lane.front() {
                if best.map_or(true, |(t, s, _)| (p.time, p.seq) < (t, s)) {
                    best = Some((p.time, p.seq, i));
                }
            }
        }
        let (time, _, lane) = best?;
        let ev = match lane {
            3 => {
                self.bus = None;
                Ev::BusFree
            }
            i => self.fixed[i].pop_front().expect("lane head").ev,
        };
        self.now = time;
        self.popped += 1;
        Some((time, ev))
    }
}

/// A bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Xfer {
    /// Input-vector broadcast for round `round`.
    RcInput { round: usize },
    /// Result vector of `die` (one per round per core).
    RcResult { die: usize },
    /// `bytes` of read-page data from `die`; `last` closes the page.
    ReadChunk { die: usize, bytes: u64, last: bool },
}

/// One plane's register pipeline over a fixed in-order page stream.
#[derive(Debug, Default, Clone)]
struct PlanePipe {
    /// Pages this stream must process.
    total: usize,
    /// Array reads started.
    started: usize,
    /// Page index currently being read from the array.
    reading: Option<usize>,
    /// Page index sitting in the data register.
    data_reg: Option<usize>,
    /// Page index moving from data to cache register.
    moving: Option<usize>,
    /// Page index held in the cache register.
    cache_reg: Option<usize>,
}

impl PlanePipe {
    fn new(total: usize) -> Self {
        PlanePipe {
            total,
            ..Default::default()
        }
    }
    fn exhausted(&self) -> bool {
        self.started == self.total
            && self.reading.is_none()
            && self.data_reg.is_none()
            && self.moving.is_none()
            && self.cache_reg.is_none()
    }
    /// Whether the next array read could start now.
    fn read_startable(&self) -> bool {
        self.reading.is_none() && self.started < self.total && self.data_reg.is_none()
    }
}

#[derive(Debug)]
struct DieState {
    /// Read-compute pipeline (plane 0).
    rc: PlanePipe,
    /// Plain-read pipeline (plane 1).
    rd: PlanePipe,
    /// Core busy with a round.
    core_busy: bool,
    /// Next round the core will execute.
    next_round: usize,
    /// Results sitting in the output buffer / in flight on the bus.
    pending_results: usize,
    /// A read-page transfer (possibly chunked) is in progress.
    rd_transfer_active: bool,
    /// Bytes of the active read page not yet queued on the bus.
    rd_bytes_left: u64,
}

/// A set of die indices, one bit per die.
#[derive(Debug, Clone)]
struct DieSet {
    words: Vec<u64>,
}

impl DieSet {
    fn empty(dies: usize) -> Self {
        DieSet {
            words: vec![0; dies.div_ceil(64)],
        }
    }

    fn insert(&mut self, die: usize) {
        self.words[die / 64] |= 1 << (die % 64);
    }

    fn remove(&mut self, die: usize) {
        self.words[die / 64] &= !(1 << (die % 64));
    }

    /// Adds every die below `dies`.
    fn insert_all(&mut self, dies: usize) {
        self.words.fill(u64::MAX);
        if dies % 64 != 0 {
            *self.words.last_mut().expect("at least one die") = (1 << (dies % 64)) - 1;
        }
    }

    /// The first member at or after `from`, wrapping past the end.
    fn next_cyclic(&self, from: usize) -> Option<usize> {
        let (w0, bit) = (from / 64, from % 64);
        let at = |w: usize, bits: u64| w * 64 + bits.trailing_zeros() as usize;
        let head = self.words[w0] & (u64::MAX << bit);
        if head != 0 {
            return Some(at(w0, head));
        }
        let later = (w0 + 1..self.words.len()).chain(0..=w0);
        later
            .map(|w| (w, self.words[w]))
            .find(|&(_, bits)| bits != 0)
            .map(|(w, bits)| at(w, bits))
    }
}

/// Discrete-event simulator of a single flash channel.
#[derive(Debug)]
pub struct ChannelEngine {
    cfg: EngineConfig,
    wl: ChannelWorkload,
    q: Lanes,
    dies: Vec<DieState>,
    /// Dies the next pass must visit (see the module docs).
    dirty: DieSet,
    /// Dies with read-page bytes not yet queued on the bus (sliced mode).
    rd_pending: DieSet,
    /// Dies per `next_round`, indexed by round modulo its length. Cores
    /// run at most `input_prefetch` rounds ahead of the slowest, so
    /// `input_prefetch + 1` slots never alias.
    round_counts: Vec<usize>,
    /// The smallest `next_round` over all dies.
    min_round: usize,
    /// Input rounds whose broadcast transfer has been queued.
    inputs_queued: usize,
    /// Input rounds fully arrived at the cores.
    inputs_arrived: usize,
    /// Completed result transfers (rc retirement condition).
    results_done: usize,
    /// Plain-read pages fully delivered.
    reads_done: usize,
    /// Bus state.
    bus_inflight: Option<(Xfer, SimTime)>, // (transfer, start time)
    control_q: VecDeque<Xfer>,
    fifo_q: VecDeque<Xfer>,
    read_rr: usize, // round-robin pointer over dies for sliced reads
    bus: BusyTracker,
    control_bytes: u64,
    read_bytes: u64,
    rc_finish: SimTime,
    read_finish: SimTime,
    out_slots: usize,
    t_compute: SimTime,
    /// Bus time of one input broadcast.
    t_input: SimTime,
    /// Bus time of one result vector.
    t_result: SimTime,
    /// Bytes of a full read chunk: the slice, or the whole page unsliced.
    chunk_bytes: u64,
    /// Bus time of one full read chunk.
    t_chunk: SimTime,
    /// Dies visited by passes, summed over the run. Unit tests read it
    /// to pin the per-event work: reports cannot show it.
    #[cfg(test)]
    die_visits: u64,
}

impl ChannelEngine {
    /// Creates an engine for one channel.
    ///
    /// # Panics
    ///
    /// Panics if the topology is invalid, `input_prefetch == 0`, or the
    /// output buffer cannot hold a single result vector.
    pub fn new(cfg: EngineConfig, wl: ChannelWorkload) -> Self {
        cfg.topology.validate().expect("invalid topology");
        assert!(cfg.input_prefetch >= 1, "input_prefetch must be >= 1");
        let dies_n = cfg.topology.dies_per_channel();
        let mut out_slots =
            match (cfg.core.output_buf_bytes as u64).checked_div(wl.rc_result_bytes_per_core) {
                None => usize::MAX,
                Some(slots) => {
                    assert!(
                        slots >= 1,
                        "output buffer {}B cannot hold one {}B result",
                        cfg.core.output_buf_bytes,
                        wl.rc_result_bytes_per_core
                    );
                    slots.min(64) as usize
                }
            };
        let mut cfg = cfg;
        if !cfg.slice.is_sliced() {
            // The unsliced baseline models the conventional controller of
            // Figure 6(b): command handling is single-buffered, so a
            // monolithic page transfer blocks the next round's input
            // broadcast and the pending result, stalling the compute
            // pipeline. The Slice Control exists precisely to remove
            // this serialization.
            cfg.input_prefetch = 1;
            out_slots = out_slots.min(1);
        }
        // Distribute plain-read pages round-robin over dies.
        let per_die_reads = |i: usize| {
            let base = wl.read_pages / dies_n;
            base + usize::from(i < wl.read_pages % dies_n)
        };
        let dies = (0..dies_n)
            .map(|i| DieState {
                rc: PlanePipe::new(wl.rc_rounds),
                rd: PlanePipe::new(per_die_reads(i)),
                core_busy: false,
                next_round: 0,
                pending_results: 0,
                rd_transfer_active: false,
                rd_bytes_left: 0,
            })
            .collect();
        let mut dirty = DieSet::empty(dies_n);
        dirty.insert_all(dies_n);
        let mut round_counts = vec![0; cfg.input_prefetch + 1];
        round_counts[0] = dies_n;
        let t_compute = cfg.core.compute_time(wl.ops_per_page);
        let chunk_bytes = cfg.slice.chunk_bytes(cfg.topology.page_bytes) as u64;
        // Result vectors are drained by the controller in streaming
        // mode (the Slice Control polls output buffers round-robin), so
        // they pay pure wire time; command/address cycles apply to input
        // broadcasts and read(-chunk) transactions.
        let t_input = cfg.timing.bus_occupancy(wl.rc_input_bytes);
        let t_result = cfg.timing.xfer(wl.rc_result_bytes_per_core);
        let t_chunk = cfg.timing.bus_occupancy(chunk_bytes);
        ChannelEngine {
            cfg,
            wl,
            q: Lanes::default(),
            dies,
            dirty,
            rd_pending: DieSet::empty(dies_n),
            round_counts,
            min_round: 0,
            inputs_queued: 0,
            inputs_arrived: 0,
            results_done: 0,
            reads_done: 0,
            bus_inflight: None,
            control_q: VecDeque::new(),
            fifo_q: VecDeque::new(),
            read_rr: 0,
            bus: BusyTracker::new(),
            control_bytes: 0,
            read_bytes: 0,
            rc_finish: SimTime::ZERO,
            read_finish: SimTime::ZERO,
            out_slots,
            t_compute,
            t_input,
            t_result,
            chunk_bytes,
            t_chunk,
            #[cfg(test)]
            die_visits: 0,
        }
    }

    /// Runs the workload to completion and reports.
    ///
    /// # Panics
    ///
    /// Panics on internal deadlock (a bug, not a user error).
    pub fn run(mut self) -> ChannelReport {
        self.event_loop();
        self.report()
    }

    fn event_loop(&mut self) {
        self.try_advance();
        while let Some((t, ev)) = self.q.pop() {
            self.handle(t, ev);
            self.try_advance();
        }
    }

    fn report(&self) -> ChannelReport {
        assert!(
            self.done(),
            "flash channel deadlocked: {}/{} rc results, {}/{} reads",
            self.results_done,
            self.total_results(),
            self.reads_done,
            self.wl.read_pages
        );
        let finish = self.q.now;
        ChannelReport {
            finish,
            rc_finish: self.rc_finish,
            read_finish: self.read_finish,
            bus_busy: self.bus.busy_time(),
            utilization: self.bus.utilization(finish),
            control_bytes: self.control_bytes,
            read_bytes: self.read_bytes,
            rc_rounds_done: self.wl.rc_rounds,
            read_pages_done: self.reads_done,
            events: self.q.popped,
        }
    }

    fn total_results(&self) -> usize {
        self.wl.rc_rounds * self.dies.len()
    }

    fn done(&self) -> bool {
        self.results_done == self.total_results() && self.reads_done == self.wl.read_pages
    }

    fn handle(&mut self, t: SimTime, ev: Ev) {
        match ev {
            Ev::ArrayReadDone { die, rc } => {
                let pipe = self.pipe_mut(die, rc);
                let page = pipe.reading.take().expect("array read done w/o read");
                debug_assert!(pipe.data_reg.is_none());
                pipe.data_reg = Some(page);
                self.dirty.insert(die);
            }
            Ev::MoveDone { die, rc } => {
                let pipe = self.pipe_mut(die, rc);
                let page = pipe.moving.take().expect("move done w/o move");
                debug_assert!(pipe.cache_reg.is_none());
                pipe.cache_reg = Some(page);
                self.dirty.insert(die);
            }
            Ev::ComputeDone { die } => {
                let d = &mut self.dies[die];
                d.core_busy = false;
                d.rc.cache_reg = None; // core consumed the page
                d.pending_results += 1;
                let round = d.next_round;
                d.next_round += 1;
                self.advance_round_counts(round);
                self.dirty.insert(die);
                self.enqueue(Xfer::RcResult { die });
            }
            Ev::BusFree => {
                let (xfer, start) = self.bus_inflight.take().expect("bus free w/o transfer");
                self.bus.add_interval(start, t);
                match xfer {
                    Xfer::RcInput { round } => {
                        debug_assert_eq!(round, self.inputs_arrived);
                        self.inputs_arrived += 1;
                        self.control_bytes += self.wl.rc_input_bytes;
                        self.dirty.insert_all(self.dies.len());
                    }
                    Xfer::RcResult { die } => {
                        self.dies[die].pending_results -= 1;
                        self.results_done += 1;
                        self.control_bytes += self.wl.rc_result_bytes_per_core;
                        if self.results_done == self.total_results() {
                            self.rc_finish = t;
                        }
                        self.dirty.insert(die);
                    }
                    Xfer::ReadChunk { die, bytes, last } => {
                        self.read_bytes += bytes;
                        if last {
                            let d = &mut self.dies[die];
                            d.rd.cache_reg = None;
                            d.rd_transfer_active = false;
                            self.reads_done += 1;
                            if self.reads_done == self.wl.read_pages {
                                self.read_finish = t;
                            }
                            self.dirty.insert(die);
                        }
                    }
                }
            }
        }
    }

    /// Moves one die from `round` to `round + 1` in `round_counts` and
    /// raises `min_round` past rounds no die is on any more.
    fn advance_round_counts(&mut self, round: usize) {
        let slots = self.round_counts.len();
        debug_assert!(
            round + 1 - self.min_round < slots,
            "die ran past the window"
        );
        self.round_counts[round % slots] -= 1;
        self.round_counts[(round + 1) % slots] += 1;
        while self.round_counts[self.min_round % slots] == 0 {
            self.min_round += 1;
        }
    }

    fn pipe_mut(&mut self, die: usize, rc: bool) -> &mut PlanePipe {
        let d = &mut self.dies[die];
        if rc {
            &mut d.rc
        } else {
            &mut d.rd
        }
    }

    /// Fires every action whose preconditions now hold.
    fn try_advance(&mut self) {
        let now = self.q.now;
        // 1. Channel-level: queue input broadcasts within the prefetch window.
        while self.inputs_queued < self.wl.rc_rounds
            && self.inputs_queued < self.min_round + self.cfg.input_prefetch
        {
            let round = self.inputs_queued;
            self.inputs_queued += 1;
            self.enqueue(Xfer::RcInput { round });
        }

        // 2. Register pipelines and cores of the dirty dies, in index
        // order. A visit re-dirties only its own die, whose bit is
        // already cleared from the word being walked.
        for w in 0..self.dirty.words.len() {
            let mut bits = std::mem::take(&mut self.dirty.words[w]);
            while bits != 0 {
                let die = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.advance_die(die, now);
            }
        }

        // 3. Bus.
        self.maybe_start_bus(now);
    }

    /// Fires the actions of one die; keeps it dirty when a register
    /// move freed a data register the next array read now waits on.
    fn advance_die(&mut self, die: usize, now: SimTime) {
        #[cfg(test)]
        {
            self.die_visits += 1;
        }
        let mut again = self.advance_pipe(die, true, now, false);
        // With one physical plane, plain reads wait for the rc stream.
        let rd_blocked = self.cfg.topology.planes_per_die < 2 && !self.dies[die].rc.exhausted();
        again |= self.advance_pipe(die, false, now, rd_blocked);
        self.maybe_start_compute(die, now);
        self.maybe_start_read_transfer(die);
        if again {
            self.dirty.insert(die);
        }
    }

    /// Advances one plane; returns whether its next array read became
    /// startable during the call (it then starts on the next pass).
    fn advance_pipe(&mut self, die: usize, rc: bool, now: SimTime, blocked: bool) -> bool {
        if blocked {
            return false;
        }
        let t_r = self.cfg.timing.t_r;
        let t_move = self.cfg.timing.t_move;
        let pipe = self.pipe_mut(die, rc);
        // Start the next array read if the data register will be free.
        if pipe.read_startable() {
            pipe.reading = Some(pipe.started);
            pipe.started += 1;
            self.q.schedule(now + t_r, Ev::ArrayReadDone { die, rc });
            // Re-borrow after scheduling.
        }
        let pipe = self.pipe_mut(die, rc);
        // Move data register → cache register when both sides are ready.
        if pipe.moving.is_none() && pipe.cache_reg.is_none() {
            if let Some(page) = pipe.data_reg.take() {
                pipe.moving = Some(page);
                self.q.schedule(now + t_move, Ev::MoveDone { die, rc });
            }
        }
        self.pipe_mut(die, rc).read_startable()
    }

    fn maybe_start_compute(&mut self, die: usize, now: SimTime) {
        if self.wl.rc_rounds == 0 {
            return;
        }
        let arrived = self.inputs_arrived;
        let out_slots = self.out_slots;
        let t_compute = self.t_compute;
        let d = &mut self.dies[die];
        if d.core_busy || d.next_round >= self.wl.rc_rounds {
            return;
        }
        let input_ready = arrived > d.next_round;
        let page_ready = d.rc.cache_reg == Some(d.next_round);
        let slot_free = d.pending_results < out_slots;
        if input_ready && page_ready && slot_free {
            d.core_busy = true;
            self.q.schedule(now + t_compute, Ev::ComputeDone { die });
        }
    }

    fn maybe_start_read_transfer(&mut self, die: usize) {
        let d = &mut self.dies[die];
        if !d.rd_transfer_active && d.rd.cache_reg.is_some() {
            d.rd_transfer_active = true;
            d.rd_bytes_left = self.cfg.topology.page_bytes as u64;
            if self.cfg.slice.is_sliced() {
                // Chunks are pulled on demand by the bus.
                self.rd_pending.insert(die);
            } else {
                // FIFO mode: one monolithic page transaction.
                let bytes = d.rd_bytes_left;
                d.rd_bytes_left = 0;
                self.fifo_q.push_back(Xfer::ReadChunk {
                    die,
                    bytes,
                    last: true,
                });
            }
        }
    }

    fn enqueue(&mut self, x: Xfer) {
        if self.cfg.slice.is_sliced() {
            self.control_q.push_back(x);
        } else {
            self.fifo_q.push_back(x);
        }
    }

    /// Picks the next bus transaction according to the arbitration policy.
    fn next_xfer(&mut self) -> Option<Xfer> {
        if self.cfg.slice.is_sliced() {
            if let Some(x) = self.control_q.pop_front() {
                return Some(x);
            }
            // Round-robin a read chunk from dies with active transfers.
            let die = self.rd_pending.next_cyclic(self.read_rr)?;
            let d = &mut self.dies[die];
            let bytes = self.chunk_bytes.min(d.rd_bytes_left);
            d.rd_bytes_left -= bytes;
            let last = d.rd_bytes_left == 0;
            if last {
                self.rd_pending.remove(die);
            }
            self.read_rr = (die + 1) % self.dies.len();
            Some(Xfer::ReadChunk { die, bytes, last })
        } else {
            self.fifo_q.pop_front()
        }
    }

    fn maybe_start_bus(&mut self, now: SimTime) {
        if self.bus_inflight.is_some() {
            return;
        }
        if let Some(x) = self.next_xfer() {
            let dur = match x {
                Xfer::RcInput { .. } => self.t_input,
                Xfer::RcResult { .. } => self.t_result,
                Xfer::ReadChunk { bytes, .. } if bytes == self.chunk_bytes => self.t_chunk,
                // The short last chunk of a page the slice does not divide.
                Xfer::ReadChunk { bytes, .. } => self.cfg.timing.bus_occupancy(bytes),
            };
            self.bus_inflight = Some((x, now));
            self.q.schedule(now + dur, Ev::BusFree);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SlicePolicy, Timing, Topology};

    fn s_cfg() -> EngineConfig {
        EngineConfig::paper(Topology::cambricon_s())
    }

    /// Cam-S optimal-tile workload for one channel: 4 cores/channel,
    /// Hreq=256, Wreq=2048 → input 256 B/round, result 64 B/core.
    fn s_workload(rc_rounds: usize, read_pages: usize) -> ChannelWorkload {
        ChannelWorkload {
            rc_rounds,
            rc_input_bytes: 256,
            rc_result_bytes_per_core: 64,
            ops_per_page: 2 * 16 * 1024,
            read_pages,
        }
    }

    #[test]
    fn rc_only_steady_state_cadence_is_t_r() {
        // 100 rounds, 4 dies: steady state retires one round per tR.
        let rep = ChannelEngine::new(s_cfg(), s_workload(100, 0)).run();
        let t = rep.finish.as_secs_f64();
        let expected = 100.0 * 30e-6; // 3.0 ms
        assert!(
            (t - expected).abs() / expected < 0.1,
            "finish {t}, expected ~{expected}"
        );
        assert_eq!(rep.rc_rounds_done, 100);
    }

    #[test]
    fn rc_only_low_channel_utilization() {
        // §IV-C: with only read-compute requests the channel is ≤6% busy.
        let rep = ChannelEngine::new(s_cfg(), s_workload(200, 0)).run();
        // (the paper's ≤6% excludes per-transaction command overhead;
        // with t_cmd included the ceiling sits slightly higher)
        assert!(rep.utilization < 0.08, "{}", rep.utilization);
    }

    #[test]
    fn read_only_saturates_channel() {
        // 4 dies can supply ~2.1 GB/s but the bus moves 1 GB/s → the
        // channel should be nearly fully utilized and finish in about
        // pages × 16.4 µs (plus per-chunk command overhead).
        let rep = ChannelEngine::new(s_cfg(), ChannelWorkload::read_only(100)).run();
        assert!(rep.utilization > 0.9, "{}", rep.utilization);
        let per_page = rep.finish.as_secs_f64() / 100.0;
        assert!(per_page < 20e-6, "{per_page}");
        assert_eq!(rep.read_pages_done, 100);
        assert_eq!(rep.read_bytes, 100 * 16 * 1024);
    }

    #[test]
    fn mixed_workload_reads_ride_in_bubbles() {
        // Balanced mix: 100 rounds consume 400 pages in flash and take
        // ~3 ms; ~170 read pages fit in the leftover bandwidth in the
        // same window, so the finish time should stay near the rc-only
        // time instead of serializing.
        let rep = ChannelEngine::new(s_cfg(), s_workload(100, 170)).run();
        let t = rep.finish.as_secs_f64();
        assert!(t < 3.6e-3, "finish {t}");
        assert!(rep.utilization > 0.8, "{}", rep.utilization);
    }

    #[test]
    fn unsliced_is_slower_and_half_utilization() {
        // Figure 12: removing read-request slicing costs 1.6–1.8× speed
        // and drops channel usage to ~50%.
        let sliced = ChannelEngine::new(s_cfg(), s_workload(150, 255)).run();
        let mut cfg = s_cfg();
        cfg.slice = SlicePolicy::Unsliced;
        let unsliced = ChannelEngine::new(cfg, s_workload(150, 255)).run();
        let slowdown = unsliced.finish.as_secs_f64() / sliced.finish.as_secs_f64();
        assert!(slowdown > 1.2, "expected unsliced slowdown, got {slowdown}");
        assert!(
            unsliced.utilization < sliced.utilization,
            "unsliced {} vs sliced {}",
            unsliced.utilization,
            sliced.utilization
        );
    }

    #[test]
    fn empty_workload_finishes_at_zero() {
        let rep = ChannelEngine::new(s_cfg(), ChannelWorkload::read_only(0)).run();
        assert_eq!(rep.finish, SimTime::ZERO);
        assert_eq!(rep.events, 0);
    }

    #[test]
    fn single_round_completes() {
        let rep = ChannelEngine::new(s_cfg(), s_workload(1, 0)).run();
        // One round: input + tR + move + compute + result.
        let t = rep.finish.as_secs_f64();
        assert!(t > 30e-6 && t < 60e-6, "{t}");
    }

    #[test]
    fn byte_accounting_matches_workload() {
        let wl = s_workload(50, 30);
        let rep = ChannelEngine::new(s_cfg(), wl).run();
        assert_eq!(
            rep.control_bytes,
            wl.control_bytes(Topology::cambricon_s().compute_cores_per_channel())
        );
        assert_eq!(rep.read_bytes, wl.read_bytes(16 * 1024));
    }

    #[test]
    fn compute_bound_core_throttles_pipeline() {
        // A deliberately weak core (1 MAC @ 100 MHz → 0.2 GOPS) needs
        // 163.8 µs per page, so cadence is compute-bound, not tR-bound.
        let mut cfg = s_cfg();
        cfg.core.macs = 1;
        cfg.core.freq_hz = 100_000_000;
        let rep = ChannelEngine::new(cfg, s_workload(20, 0)).run();
        let per_round = rep.finish.as_secs_f64() / 20.0;
        assert!(per_round > 150e-6, "{per_round}");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = ChannelEngine::new(s_cfg(), s_workload(37, 23)).run();
        let b = ChannelEngine::new(s_cfg(), s_workload(37, 23)).run();
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.events, b.events);
        assert_eq!(a.bus_busy, b.bus_busy);
    }

    #[test]
    fn cam_s_channel_throughput_matches_analytic_model() {
        // Steady state, balanced mix: the channel should consume weights
        // at ≈ cores×page/tR (flash) + leftover-bandwidth (reads)
        // ≈ 2.18 + 0.9 GB/s ≈ 3.1 GB/s per channel.
        let rounds = 200;
        let reads = 360; // ≈ balanced NPU share
        let rep = ChannelEngine::new(s_cfg(), s_workload(rounds, reads)).run();
        let pages = (rounds * 4 + reads) as f64;
        let rate = pages * 16384.0 / rep.finish.as_secs_f64() / 1e9;
        assert!((2.6..3.6).contains(&rate), "rate {rate} GB/s");
    }

    #[test]
    fn timing_without_cmd_overhead_still_runs() {
        let mut cfg = s_cfg();
        cfg.timing = Timing {
            t_cmd: SimTime::ZERO,
            ..Timing::paper()
        };
        let rep = ChannelEngine::new(cfg, s_workload(10, 10)).run();
        assert_eq!(rep.rc_rounds_done, 10);
        assert_eq!(rep.read_pages_done, 10);
    }

    /// A pass visits only the dies an event touched. At 256 dies on one
    /// channel a scan of every die would visit 256 per event; the
    /// dirty set must stay within a few, for every workload kind and
    /// both slice policies.
    #[test]
    fn passes_visit_few_dies_per_event_at_256_dies() {
        for slice in [SlicePolicy::default(), SlicePolicy::Unsliced] {
            for wl in [
                s_workload(6, 0),
                ChannelWorkload::read_only(768),
                s_workload(6, 768),
            ] {
                let mut cfg = EngineConfig::paper(Topology::custom(1, 128));
                cfg.slice = slice;
                let mut engine = ChannelEngine::new(cfg, wl);
                engine.event_loop();
                let events = engine.q.popped;
                let per_event = engine.die_visits as f64 / events as f64;
                assert!(
                    per_event <= 4.0,
                    "{slice:?} {wl:?}: {} die visits over {events} events",
                    engine.die_visits
                );
            }
        }
    }

    /// The lanes pop what a `(time, seq)` heap pops, for schedules that
    /// keep each lane's one delay. Delays on a 64 ns grid, zero
    /// included, and several pushes per pop put every lane and the bus
    /// slot on the same instants.
    #[test]
    fn lanes_pop_like_the_reference_heap() {
        type Heap = sim_core::EventQueue<Ev>;
        fn push(lanes: &mut Lanes, heap: &mut Heap, at: SimTime, ev: Ev) {
            lanes.schedule(at, ev);
            heap.schedule(at, ev);
        }
        let grid = |k: u64| SimTime::from_nanos(64 * k);
        let mut rng = sim_core::SplitMix64::new(0x1a7e5);
        for _ in 0..200 {
            let delays = [(); 3].map(|()| grid(rng.next_below(4)));
            let (mut lanes, mut heap) = (Lanes::default(), Heap::new());
            let ev = Ev::ArrayReadDone { die: 0, rc: true };
            push(&mut lanes, &mut heap, delays[0], ev);
            let (mut pushes, mut bus_pending) = (1, false);
            loop {
                let popped = heap.pop();
                assert_eq!(lanes.pop(), popped);
                let Some((now, ev)) = popped else { break };
                bus_pending &= ev != Ev::BusFree;
                if pushes >= 400 {
                    continue;
                }
                for _ in 0..rng.next_below(4) {
                    let die = pushes;
                    pushes += 1;
                    let (lane, ev) = match rng.next_below(3) {
                        0 => (0, Ev::ArrayReadDone { die, rc: false }),
                        1 => (1, Ev::MoveDone { die, rc: true }),
                        _ => (2, Ev::ComputeDone { die }),
                    };
                    push(&mut lanes, &mut heap, now + delays[lane], ev);
                }
                if !bus_pending && rng.chance(0.7) {
                    bus_pending = true;
                    let at = now + grid(rng.next_below(3));
                    push(&mut lanes, &mut heap, at, Ev::BusFree);
                }
            }
            assert_eq!(lanes.popped, heap.total_popped());
            assert_eq!(lanes.now, heap.now());
        }
    }

    #[test]
    fn single_plane_serializes_reads_after_compute() {
        let mut cfg = s_cfg();
        cfg.topology.planes_per_die = 1;
        let two_plane = ChannelEngine::new(s_cfg(), s_workload(50, 80)).run();
        let one_plane = ChannelEngine::new(cfg, s_workload(50, 80)).run();
        assert!(one_plane.finish > two_plane.finish);
    }
}
