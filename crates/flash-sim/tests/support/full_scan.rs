//! The flash channel engine as it was before it tracked dirty dies: a
//! full scan of every die after every event. It is the reference that
//! `tests/channel_equivalence.rs` holds `flash_sim::ChannelEngine` to,
//! report for report, so it lives here and never in the library.
//!
//! The code below is the old `engine.rs` body, unchanged apart from
//! the imports, which name the library's public paths.

use flash_sim::ChannelReport;
use flash_sim::{ChannelWorkload, EngineConfig};
use sim_core::{BusyTracker, EventQueue, SimTime};
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
    /// Plain-read pages fully delivered.
    rd_pages_done: usize,
}

/// Discrete-event simulator of a single flash channel.
#[derive(Debug)]
pub struct ChannelEngine {
    cfg: EngineConfig,
    wl: ChannelWorkload,
    q: EventQueue<Ev>,
    dies: Vec<DieState>,
    /// Input rounds whose broadcast transfer has been queued.
    inputs_queued: usize,
    /// Input rounds fully arrived at the cores.
    inputs_arrived: usize,
    /// Completed result transfers (rc retirement condition).
    results_done: usize,
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
                rd_pages_done: 0,
            })
            .collect();
        let t_compute = cfg.core.compute_time(wl.ops_per_page);
        ChannelEngine {
            cfg,
            wl,
            q: EventQueue::new(),
            dies,
            inputs_queued: 0,
            inputs_arrived: 0,
            results_done: 0,
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
        }
    }

    /// Runs the workload to completion and reports.
    ///
    /// # Panics
    ///
    /// Panics on internal deadlock (a bug, not a user error).
    pub fn run(mut self) -> ChannelReport {
        self.try_advance();
        while let Some((t, ev)) = self.q.pop() {
            self.handle(t, ev);
            self.try_advance();
        }
        assert!(
            self.done(),
            "flash channel deadlocked: {}/{} rc results, {}/{} reads",
            self.results_done,
            self.total_results(),
            self.reads_done(),
            self.wl.read_pages
        );
        let finish = self.q.now();
        ChannelReport {
            finish,
            rc_finish: self.rc_finish,
            read_finish: self.read_finish,
            bus_busy: self.bus.busy_time(),
            utilization: self.bus.utilization(finish),
            control_bytes: self.control_bytes,
            read_bytes: self.read_bytes,
            rc_rounds_done: self.wl.rc_rounds,
            read_pages_done: self.reads_done(),
            events: self.q.total_popped(),
        }
    }

    fn total_results(&self) -> usize {
        self.wl.rc_rounds * self.dies.len()
    }

    fn reads_done(&self) -> usize {
        self.dies.iter().map(|d| d.rd_pages_done).sum()
    }

    fn done(&self) -> bool {
        self.results_done == self.total_results() && self.reads_done() == self.wl.read_pages
    }

    fn handle(&mut self, t: SimTime, ev: Ev) {
        match ev {
            Ev::ArrayReadDone { die, rc } => {
                let pipe = self.pipe_mut(die, rc);
                let page = pipe.reading.take().expect("array read done w/o read");
                debug_assert!(pipe.data_reg.is_none());
                pipe.data_reg = Some(page);
            }
            Ev::MoveDone { die, rc } => {
                let pipe = self.pipe_mut(die, rc);
                let page = pipe.moving.take().expect("move done w/o move");
                debug_assert!(pipe.cache_reg.is_none());
                pipe.cache_reg = Some(page);
            }
            Ev::ComputeDone { die } => {
                let d = &mut self.dies[die];
                d.core_busy = false;
                d.rc.cache_reg = None; // core consumed the page
                d.pending_results += 1;
                d.next_round += 1;
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
                    }
                    Xfer::RcResult { die } => {
                        self.dies[die].pending_results -= 1;
                        self.results_done += 1;
                        self.control_bytes += self.wl.rc_result_bytes_per_core;
                        if self.results_done == self.total_results() {
                            self.rc_finish = t;
                        }
                    }
                    Xfer::ReadChunk { die, bytes, last } => {
                        self.read_bytes += bytes;
                        if last {
                            let d = &mut self.dies[die];
                            d.rd.cache_reg = None;
                            d.rd_transfer_active = false;
                            d.rd_pages_done += 1;
                            if self.reads_done() == self.wl.read_pages {
                                self.read_finish = t;
                            }
                        }
                    }
                }
            }
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
        let now = self.q.now();
        // 1. Channel-level: queue input broadcasts within the prefetch window.
        let min_round = self
            .dies
            .iter()
            .map(|d| d.next_round)
            .min()
            .unwrap_or(usize::MAX);
        while self.inputs_queued < self.wl.rc_rounds
            && self.inputs_queued < min_round + self.cfg.input_prefetch
        {
            let round = self.inputs_queued;
            self.inputs_queued += 1;
            self.enqueue(Xfer::RcInput { round });
        }

        // 2. Per-die register pipelines and cores.
        let single_plane = self.cfg.topology.planes_per_die < 2;
        for die in 0..self.dies.len() {
            self.advance_pipe(die, true, now, false);
            // With one physical plane, plain reads wait for the rc stream.
            let rd_blocked = single_plane && !self.dies[die].rc.exhausted();
            self.advance_pipe(die, false, now, rd_blocked);
            self.maybe_start_compute(die, now);
            self.maybe_start_read_transfer(die);
        }

        // 3. Bus.
        self.maybe_start_bus(now);
    }

    fn advance_pipe(&mut self, die: usize, rc: bool, now: SimTime, blocked: bool) {
        if blocked {
            return;
        }
        let t_r = self.cfg.timing.t_r;
        let t_move = self.cfg.timing.t_move;
        let pipe = self.pipe_mut(die, rc);
        // Start the next array read if the data register will be free.
        if pipe.reading.is_none() && pipe.started < pipe.total && pipe.data_reg.is_none() {
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
            if !self.cfg.slice.is_sliced() {
                // FIFO mode: one monolithic page transaction.
                let bytes = d.rd_bytes_left;
                d.rd_bytes_left = 0;
                self.fifo_q.push_back(Xfer::ReadChunk {
                    die,
                    bytes,
                    last: true,
                });
            }
            // Sliced mode: chunks are pulled on demand by the bus.
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
            let n = self.dies.len();
            let chunk = self.cfg.slice.chunk_bytes(self.cfg.topology.page_bytes) as u64;
            for k in 0..n {
                let die = (self.read_rr + k) % n;
                let d = &mut self.dies[die];
                if d.rd_transfer_active && d.rd_bytes_left > 0 {
                    let bytes = chunk.min(d.rd_bytes_left);
                    d.rd_bytes_left -= bytes;
                    let last = d.rd_bytes_left == 0;
                    self.read_rr = (die + 1) % n;
                    return Some(Xfer::ReadChunk { die, bytes, last });
                }
            }
            None
        } else {
            self.fifo_q.pop_front()
        }
    }

    fn maybe_start_bus(&mut self, now: SimTime) {
        if self.bus_inflight.is_some() {
            return;
        }
        if let Some(x) = self.next_xfer() {
            // Result vectors are drained by the controller in streaming
            // mode (the Slice Control polls output buffers round-robin),
            // so they pay pure wire time; command/address cycles apply
            // to input broadcasts and read(-chunk) transactions.
            let dur = match x {
                Xfer::RcInput { .. } => self.cfg.timing.bus_occupancy(self.wl.rc_input_bytes),
                Xfer::RcResult { .. } => self.cfg.timing.xfer(self.wl.rc_result_bytes_per_core),
                Xfer::ReadChunk { bytes, .. } => self.cfg.timing.bus_occupancy(bytes),
            };
            self.bus_inflight = Some((x, now));
            self.q.schedule(now + dur, Ev::BusFree);
        }
    }
}
