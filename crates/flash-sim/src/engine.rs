//! The discrete-event flash channel engine.
//!
//! One [`ChannelEngine`] simulates a single flash channel with its chips,
//! dies, planes, registers, shared compute cores and the channel bus,
//! executing a [`ChannelWorkload`] (read-compute rounds + plain reads).
//! Channels in the device are symmetric and independent for the paper's
//! workloads, so [`FlashDevice`](crate::device::FlashDevice) runs one
//! engine per distinct per-channel workload.
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

use crate::report::ChannelReport;
use crate::workload::{ChannelWorkload, EngineConfig};
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

    #[test]
    fn single_plane_serializes_reads_after_compute() {
        let mut cfg = s_cfg();
        cfg.topology.planes_per_die = 1;
        let two_plane = ChannelEngine::new(s_cfg(), s_workload(50, 80)).run();
        let one_plane = ChannelEngine::new(cfg, s_workload(50, 80)).run();
        assert!(one_plane.finish > two_plane.finish);
    }
}
