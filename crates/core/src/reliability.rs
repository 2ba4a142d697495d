//! Fault-injected serving: NAND read errors, ECC reread retries,
//! deadlines, and graceful degradation under wear.
//!
//! The serving loops in [`crate::serve`] price flash traffic at nominal
//! latency; a deployed device does not get that luxury. §III-C of the
//! paper: retention and read-disturb errors push raw BER from ~1e-5 on
//! a fresh chip past 1e-2 near end of life, and the outlier-aware ECC
//! of §VI corrects only up to a knee. This module turns that physics
//! into serving-visible behavior:
//!
//! * **Rereads** — every scheduling window's flash page-read volume
//!   (straight from the [`TrafficBreakdown`](crate::TrafficBreakdown)
//!   ledger the loops already keep) is sampled against
//!   [`BerModel::rber`]`(&`[`FlashAge`]`)` pushed through the ECC
//!   correction threshold. Pages that fail the first sense are re-read;
//!   the extra page reads lengthen the window at real flash latency.
//! * **Escalation** — a failed reread escalates to a finer sense at a
//!   latency multiplier (backoff), up to a capped attempt count. Each
//!   escalation step halves the effective RBER, modeling soft-decision
//!   senses recovering more charge resolution per attempt.
//! * **Graceful degradation** — pages still failing after the last
//!   attempt are **uncorrectable**: the affected chip is marked
//!   degraded and drops out of the striped read path, derating
//!   effective read bandwidth for every subsequent window. Serving
//!   slows; it never crashes.
//! * **Deadlines** — per-request TTFT and total-latency deadlines shed
//!   requests at token boundaries (counted separately from
//!   `kv_rejections`), and completions are scored against the same
//!   deadlines to yield *goodput*: tokens per second of requests that
//!   met their SLO.
//! * **Wear trajectory** — [`WearTrajectory`] replays the same scenario
//!   across simulated months, feeding each step's read volume back into
//!   [`FlashAge::absorb_reads`], and reports how many days of traffic a
//!   device survives before goodput degrades past the SLO.
//!
//! ## Determinism
//!
//! Fault sampling draws from per-request [`SplitMix64`] streams forked
//! from one root seed at admission order (the same seed-hygiene rule as
//! [`SplitMix64::split_seeds`]). All fault state lives in the per-run
//! `FaultRun`, never in the shared pricing [`System`], so a faulted
//! report is bit-identical at any Monte Carlo worker count for free —
//! the same argument that makes the fault-free harness deterministic.

use crate::config::SystemConfig;
use crate::serve::{PrefillMode, SchedulePolicy, ServeEngine};
use crate::system::System;
use flash_sim::{BerModel, FlashAge};
use llm_workload::{ArrivalTrace, ModelSpec};
use sim_core::{SimTime, SplitMix64};

/// Whether a serving run injects flash read faults.
///
/// `Off` is the default and is bit-for-bit inert: no RNG is consumed,
/// no latency is added, and every report field matches a build without
/// this module.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FaultMode {
    /// No fault injection; nominal flash latency.
    #[default]
    Off,
    /// Seeded fault injection with the given configuration.
    Injected(FaultConfig),
}

/// Configuration for fault-injected serving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Wear/retention state of the flash under test.
    pub age: FlashAge,
    /// RBER model mapping age to a raw bit error rate.
    pub ber: BerModel,
    /// Root seed for the per-request fault streams.
    pub seed: u64,
    /// Per-bit error rate the page ECC corrects (paper §VI knee). The
    /// default is [`outlier_ecc::CORRECTABLE_RBER`] — the same constant
    /// the codec crate derives its threshold from, so the two cannot
    /// drift.
    pub correctable_rber: f64,
    /// Maximum reread attempts before a page is uncorrectable.
    pub max_rereads: u32,
    /// Latency multiplier per escalated sense: reread attempt `j`
    /// costs `page_read × mult^(j-1)`.
    pub escalate_latency_mult: f64,
    /// Arrival-relative TTFT deadline; `None` disables TTFT shedding.
    pub ttft_deadline: Option<SimTime>,
    /// Arrival-relative total-latency deadline; `None` disables it.
    pub total_deadline: Option<SimTime>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            age: FlashAge::fresh(),
            ber: BerModel::default(),
            seed: 0xFA117,
            correctable_rber: outlier_ecc::CORRECTABLE_RBER,
            max_rereads: 4,
            escalate_latency_mult: 2.0,
            ttft_deadline: None,
            total_deadline: None,
        }
    }
}

impl FaultConfig {
    /// A config for a chip of the given age, everything else default.
    pub fn aged(age: FlashAge) -> Self {
        FaultConfig {
            age,
            ..FaultConfig::default()
        }
    }

    /// Sets both deadlines.
    pub fn with_deadlines(mut self, ttft: Option<SimTime>, total: Option<SimTime>) -> Self {
        self.ttft_deadline = ttft;
        self.total_deadline = total;
        self
    }
}

/// Reliability counters attached to a [`ServeReport`](crate::serve::ServeReport).
///
/// All-zero (the `Default`) when the run had `FaultMode::Off`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReliabilitySummary {
    /// Raw bit error rate the run sampled against.
    pub rber: f64,
    /// Page reread attempts issued (every escalation level counts).
    pub page_rereads: u64,
    /// Pages that failed the first sense but were eventually corrected.
    pub corrected_pages: u64,
    /// Pages unrecoverable after the full escalation ladder.
    pub uncorrectable_events: u64,
    /// Chips marked degraded by uncorrectable events.
    pub degraded_chips: u32,
    /// Fraction of striped read bandwidth lost to degraded chips.
    pub degraded_bandwidth_fraction: f64,
    /// Virtual seconds of flash time added by faults (rereads,
    /// escalations, and degraded-bandwidth derating).
    pub fault_extra_flash_s: f64,
    /// Requests shed for missing the TTFT deadline.
    pub ttft_timeouts: u64,
    /// Requests shed mid-decode for missing the total deadline.
    pub deadline_sheds: u64,
    /// Tokens generated for requests that were later shed (work wasted).
    pub shed_tokens: u64,
    /// Instant of the latest TTFT timeout or deadline shed, if any. A
    /// run's service span ends no earlier: the work spent on a shed
    /// request is still busy time.
    pub last_shed: Option<SimTime>,
    /// Completed requests that met every configured deadline.
    pub goodput_requests: u64,
    /// Tokens of deadline-meeting completions.
    pub goodput_tokens: u64,
    /// Goodput tokens per second of virtual time.
    pub deadline_goodput_tps: f64,
}

impl ReliabilitySummary {
    /// Requests shed for any deadline reason (distinct from KV
    /// admission rejections).
    pub fn total_sheds(&self) -> u64 {
        self.ttft_timeouts + self.deadline_sheds
    }

    /// Folds the decoder-observed damage of an [`outlier_ecc`] trial
    /// into the serve-side counters, so bit-exact codec experiments and
    /// event-loop fault accounting share one ledger. Repaired outliers
    /// and corrected addresses were saved by a reread-equivalent
    /// recovery; discarded entries are data loss — uncorrectable.
    pub fn absorb_decode_stats(&mut self, stats: &outlier_ecc::DecodeStats) {
        self.corrected_pages += (stats.outliers_repaired + stats.addresses_corrected) as u64;
        self.uncorrectable_events += stats.entries_discarded as u64;
    }
}

/// Probability that a page read fails ECC: more than
/// `page_bits × correctable_rber` bits flip when each flips
/// independently at `rber`.
///
/// Normal approximation to the binomial tail,
/// `Q((t − B·r) / √(B·r·(1−r)))`, which is exact enough everywhere it
/// matters: at the 16 KiB page size `B ≈ 1.3e5`, so the knee region
/// has mean counts in the tens. Well below the knee the result
/// underflows to 0, well above it saturates to 1 — exactly the cliff
/// behavior the paper's Figure 10 shows.
pub fn page_fail_prob(rber: f64, page_bits: u64, correctable_rber: f64) -> f64 {
    if rber <= 0.0 || page_bits == 0 {
        return 0.0;
    }
    let r = rber.min(0.5);
    let bits = page_bits as f64;
    let correctable = (bits * correctable_rber).floor();
    let mean = bits * r;
    let var = bits * r * (1.0 - r);
    if var <= 0.0 {
        return if mean > correctable { 1.0 } else { 0.0 };
    }
    let z = (correctable - mean) / var.sqrt();
    (0.5 * (1.0 - erf(z / std::f64::consts::SQRT_2))).clamp(0.0, 1.0)
}

/// Abramowitz & Stegun 7.1.26 rational approximation (|err| < 1.5e-7);
/// `std` has no `erf` and the crate policy is no new dependencies.
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = ((((1.061_405_429 * t - 1.453_152_027) * t + 1.421_413_741) * t - 0.284_496_736)
        * t
        + 0.254_829_592)
        * t;
    sign * (1.0 - poly * (-x * x).exp())
}

/// One scheduling window's sampled faults: drawn by
/// [`FaultRun::sample_window`], applied by [`FaultRun::commit_window`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WindowDraw {
    extra_ps: u128,
    page_rereads: u64,
    corrected_pages: u64,
    uncorrectable: u64,
}

impl WindowDraw {
    /// Extra picoseconds the window takes: degraded-bandwidth derating
    /// plus reread escalations (saturating at `u64::MAX`).
    pub(crate) fn extra(&self) -> u64 {
        u64::try_from(self.extra_ps).unwrap_or(u64::MAX)
    }
}

/// Per-run fault state: the sampling ladder, degradation level, and
/// every reliability counter. Lives beside the event loop — never in
/// the shared [`System`] — so Monte Carlo clones stay thread-safe.
#[derive(Debug, Clone)]
pub(crate) struct FaultRun {
    cfg: FaultConfig,
    /// ECC failure probability of the sense at each attempt level:
    /// index 0 is the nominal read, `1..=max_rereads` are escalated
    /// senses, each halving the effective RBER.
    attempt_fail: Vec<f64>,
    /// Latency of one page reread at each attempt level, picoseconds.
    /// Index 0 is unused (the nominal read is already priced).
    attempt_cost_ps: Vec<u64>,
    page_bytes: u64,
    chips_total: u32,
    rber: f64,
    pub(crate) degraded_chips: u32,
    pub(crate) page_rereads: u64,
    pub(crate) corrected_pages: u64,
    pub(crate) uncorrectable_events: u64,
    pub(crate) fault_extra_ps: u128,
    pub(crate) ttft_timeouts: u64,
    pub(crate) deadline_sheds: u64,
    pub(crate) shed_tokens: u64,
    /// Instant of the latest deadline shed: the run's service span
    /// ends no earlier, since work on a shed request is still busy time.
    pub(crate) last_shed: Option<SimTime>,
    pub(crate) goodput_requests: u64,
    pub(crate) goodput_tokens: u64,
}

impl FaultRun {
    /// Builds the per-run state for an engine's fault mode; `None` when
    /// faults are off. Touches the system only to price one page read
    /// at effective (striped) bandwidth.
    pub(crate) fn for_engine(
        mode: &FaultMode,
        cfg: &SystemConfig,
        system: &mut System,
    ) -> Option<FaultRun> {
        let fc = match mode {
            FaultMode::Off => return None,
            FaultMode::Injected(fc) => *fc,
        };
        let topo = &cfg.engine.topology;
        let page_bytes = topo.page_bytes as u64;
        let chips_total = (topo.channels * topo.chips_per_channel).max(1) as u32;
        let eff_bw = system.effective_read_bandwidth();
        let page_read_ps = if eff_bw > 0.0 {
            (page_bytes as f64 / eff_bw * 1e12) as u64
        } else {
            0
        };
        let rber = fc.ber.rber(&fc.age);
        let page_bits = page_bytes * 8;
        let attempts = fc.max_rereads as usize + 1;
        let attempt_fail: Vec<f64> = (0..attempts)
            .map(|i| page_fail_prob(rber / (1u64 << i) as f64, page_bits, fc.correctable_rber))
            .collect();
        let attempt_cost_ps: Vec<u64> = (0..attempts)
            .map(|j| {
                if j == 0 {
                    0
                } else {
                    (page_read_ps as f64 * fc.escalate_latency_mult.powi(j as i32 - 1)) as u64
                }
            })
            .collect();
        Some(FaultRun {
            cfg: fc,
            attempt_fail,
            attempt_cost_ps,
            page_bytes,
            chips_total,
            rber,
            degraded_chips: 0,
            page_rereads: 0,
            corrected_pages: 0,
            uncorrectable_events: 0,
            fault_extra_ps: 0,
            ttft_timeouts: 0,
            deadline_sheds: 0,
            shed_tokens: 0,
            last_shed: None,
            goodput_requests: 0,
            goodput_tokens: 0,
        })
    }

    /// Root seed for the per-request fault streams.
    pub(crate) fn seed(&self) -> u64 {
        self.cfg.seed
    }

    pub(crate) fn ttft_deadline(&self) -> Option<SimTime> {
        self.cfg.ttft_deadline
    }

    pub(crate) fn total_deadline(&self) -> Option<SimTime> {
        self.cfg.total_deadline
    }

    /// Samples the fault cost of one scheduling window that reads
    /// `nand_bytes` from flash at a nominal latency of
    /// `nominal_flash_ps`, then commits it: the counters and possibly
    /// the degradation level are updated. Returns the extra picoseconds
    /// the window takes.
    pub(crate) fn window_extra(
        &mut self,
        nand_bytes: u64,
        nominal_flash_ps: u64,
        rng: &mut SplitMix64,
    ) -> u64 {
        let draw = self.sample_window(nand_bytes, nominal_flash_ps, rng);
        self.commit_window(&draw)
    }

    /// Draws one window's faults without touching the run state: only
    /// `rng` advances. A caller pricing a window speculatively draws on
    /// a copy of the request's stream and keeps (and commits) the draw
    /// only if the window really runs, so a discarded draw is later
    /// redrawn identically from the untouched stream.
    pub(crate) fn sample_window(
        &self,
        nand_bytes: u64,
        nominal_flash_ps: u64,
        rng: &mut SplitMix64,
    ) -> WindowDraw {
        let mut extra: u128 = 0;
        // Graceful degradation: the stripe is `chips_total` wide; each
        // degraded chip's share of the read volume is re-served by the
        // survivors, stretching the window proportionally.
        if self.degraded_chips > 0 {
            let healthy = (self.chips_total - self.degraded_chips) as u128;
            extra += nominal_flash_ps as u128 * self.degraded_chips as u128 / healthy;
        }
        let pages = nand_bytes.div_ceil(self.page_bytes.max(1));
        let mut failing = rng.binomial(pages, self.attempt_fail[0]);
        let initially_failing = failing;
        let mut page_rereads = 0;
        let mut attempt = 1usize;
        while failing > 0 && attempt < self.attempt_fail.len() {
            page_rereads += failing;
            extra += failing as u128 * self.attempt_cost_ps[attempt] as u128;
            failing = rng.binomial(failing, self.attempt_fail[attempt]);
            attempt += 1;
        }
        WindowDraw {
            extra_ps: extra,
            page_rereads,
            corrected_pages: initially_failing - failing,
            uncorrectable: failing,
        }
    }

    /// Applies a drawn window to the counters and the degradation
    /// level. Returns the window's extra picoseconds.
    pub(crate) fn commit_window(&mut self, draw: &WindowDraw) -> u64 {
        self.page_rereads += draw.page_rereads;
        self.corrected_pages += draw.corrected_pages;
        if draw.uncorrectable > 0 {
            self.uncorrectable_events += draw.uncorrectable;
            // Mark chips degraded, always keeping at least one healthy:
            // the device slows down, it never bricks.
            let cap = self.chips_total.saturating_sub(1);
            self.degraded_chips = self
                .degraded_chips
                .saturating_add(draw.uncorrectable.min(u32::MAX as u64) as u32)
                .min(cap);
        }
        self.fault_extra_ps += draw.extra_ps;
        draw.extra()
    }

    /// Scores a completed request against the deadlines for goodput.
    pub(crate) fn note_completion(&mut self, report: &crate::serve::RequestReport) {
        let ttft_ok = !self.cfg.ttft_deadline.is_some_and(|d| report.ttft() > d);
        let total_ok = !self
            .cfg
            .total_deadline
            .is_some_and(|d| report.finished.saturating_sub(report.arrived) > d);
        if ttft_ok && total_ok {
            self.goodput_requests += 1;
            self.goodput_tokens += report.tokens as u64;
        }
    }

    /// Freezes the counters into a report section. The goodput rate is
    /// filled in by `build_report`, which knows the horizon.
    pub(crate) fn summary(&self) -> ReliabilitySummary {
        ReliabilitySummary {
            rber: self.rber,
            page_rereads: self.page_rereads,
            corrected_pages: self.corrected_pages,
            uncorrectable_events: self.uncorrectable_events,
            degraded_chips: self.degraded_chips,
            degraded_bandwidth_fraction: self.degraded_chips as f64 / self.chips_total as f64,
            fault_extra_flash_s: self.fault_extra_ps as f64 * 1e-12,
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

/// Replays one serving scenario across simulated months of wear,
/// feeding each step's flash read volume back into the age model, and
/// reports when goodput degrades past the SLO.
///
/// Each step runs the full fault-injected engine at the current
/// [`FlashAge`], then advances the age by `days_per_step` of retention
/// plus the wear-equivalent of `traffic_scale` replays per day of the
/// step's measured NAND read volume ([`FlashAge::absorb_reads`]).
#[derive(Debug, Clone, Copy)]
pub struct WearTrajectory {
    /// Starting wear state (day zero).
    pub start: FlashAge,
    /// Simulated days advanced per step.
    pub days_per_step: f64,
    /// Horizon: stop before sampling a day past this, even if the SLO
    /// holds.
    pub max_days: f64,
    /// How many times per day the measured trace repeats. A trace
    /// covering one virtual minute of traffic served all day is
    /// `~1440.0`.
    pub traffic_scale: f64,
    /// Read-disturb wear: bytes read per equivalent P/E cycle
    /// (0 = reads are wear-free).
    pub bytes_per_pe: u64,
    /// SLO floor: the trajectory is violated when deadline goodput
    /// drops below this many tokens/s.
    pub slo_goodput_tps: f64,
    /// Fault config template; `age` is overridden per step.
    pub base: FaultConfig,
}

impl WearTrajectory {
    /// Most steps one trajectory simulates after day zero; a horizon
    /// needing more is cut short, and the report says so.
    pub const MAX_STEPS: usize = 512;

    /// Runs the trajectory: one fault-injected serve per step until the
    /// SLO breaks, the next step would pass `max_days`, or
    /// [`Self::MAX_STEPS`] steps run. Day zero is always sampled, and no
    /// sampled day exceeds `max_days`.
    ///
    /// # Panics
    ///
    /// Panics if `days_per_step` is not positive.
    pub fn run(
        &self,
        cfg: SystemConfig,
        model: &ModelSpec,
        prefill: PrefillMode,
        trace: &ArrivalTrace,
        policy: SchedulePolicy,
    ) -> WearReport {
        assert!(
            self.days_per_step > 0.0,
            "WearTrajectory needs a positive step"
        );
        let mut age = self.start;
        let mut day = 0.0;
        let mut points = Vec::new();
        let mut days_until_slo = None;
        let mut truncated = false;
        loop {
            let fc = FaultConfig { age, ..self.base };
            let engine = ServeEngine::new(cfg, model.clone())
                .with_prefill(prefill)
                .with_faults(FaultMode::Injected(fc));
            let rep = engine.run(trace, policy);
            let rel = rep.reliability;
            points.push(WearPoint {
                day,
                age,
                rber: self.base.ber.rber(&age),
                tokens_per_sec: rep.tokens_per_sec,
                goodput_tps: rel.deadline_goodput_tps,
                page_rereads: rel.page_rereads,
                uncorrectable_events: rel.uncorrectable_events,
                sheds: rel.total_sheds(),
            });
            if rel.deadline_goodput_tps < self.slo_goodput_tps {
                days_until_slo = Some(day);
                break;
            }
            let next_day = day + self.days_per_step;
            if next_day > self.max_days {
                break;
            }
            if points.len() > Self::MAX_STEPS {
                truncated = true;
                break;
            }
            let day_reads = (rep.traffic.nand_array_bytes as f64
                * self.traffic_scale
                * self.days_per_step) as u64;
            age.absorb_reads(day_reads, self.bytes_per_pe, self.days_per_step);
            day = next_day;
        }
        WearReport {
            slo_goodput_tps: self.slo_goodput_tps,
            last_day: points.last().map_or(0.0, |p| p.day),
            truncated,
            points,
            days_until_slo,
        }
    }
}

/// One step of a [`WearTrajectory`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearPoint {
    /// Simulated days of traffic endured before this step.
    pub day: f64,
    /// Wear state the step ran at.
    pub age: FlashAge,
    /// RBER at that age.
    pub rber: f64,
    /// Raw decode throughput of the step's run.
    pub tokens_per_sec: f64,
    /// Deadline goodput of the step's run.
    pub goodput_tps: f64,
    /// Reread attempts during the step.
    pub page_rereads: u64,
    /// Uncorrectable pages during the step.
    pub uncorrectable_events: u64,
    /// Deadline sheds (TTFT + total) during the step.
    pub sheds: u64,
}

/// Result of a [`WearTrajectory`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct WearReport {
    /// The goodput floor the trajectory was tested against.
    pub slo_goodput_tps: f64,
    /// Per-step measurements, in day order.
    pub points: Vec<WearPoint>,
    /// First *sampled* day at which goodput fell below the SLO; `None`
    /// if the device survived every simulated day. Days are sampled
    /// `days_per_step` apart, so this is an upper bound: the true
    /// crossing lies after the previous sample, the second-to-last of
    /// `points` (none when the SLO already failed at day zero).
    pub days_until_slo: Option<f64>,
    /// Day of the last step actually simulated.
    pub last_day: f64,
    /// Whether the step limit ([`WearTrajectory::MAX_STEPS`]) stopped
    /// the run before `max_days` with the SLO still holding: the device
    /// survived `last_day`, and nothing is known past it.
    pub truncated: bool,
}

impl WearReport {
    /// Renders the trajectory as one line per step.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for p in &self.points {
            out.push_str(&format!(
                "day {:7.1}: rber {:.2e}, goodput {:8.2} tok/s, rereads {}, uncorrectable {}, sheds {}\n",
                p.day, p.rber, p.goodput_tps, p.page_rereads, p.uncorrectable_events, p.sheds
            ));
        }
        let held = self.points.len().checked_sub(2).map(|i| self.points[i].day);
        match (self.days_until_slo, held) {
            (Some(d), Some(h)) => out.push_str(&format!(
                "SLO ({:.2} tok/s goodput) held through day {h:.1}, violated by day {d:.1}\n",
                self.slo_goodput_tps
            )),
            (Some(d), None) => out.push_str(&format!(
                "SLO ({:.2} tok/s goodput) violated at day {d:.1}, the first sample\n",
                self.slo_goodput_tps
            )),
            (None, _) if self.truncated => out.push_str(&format!(
                "SLO ({:.2} tok/s goodput) held through day {:.1}; horizon truncated at {} steps\n",
                self.slo_goodput_tps,
                self.last_day,
                WearTrajectory::MAX_STEPS
            )),
            (None, _) => out.push_str(&format!(
                "SLO ({:.2} tok/s goodput) held for the whole horizon\n",
                self.slo_goodput_tps
            )),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE_BITS: u64 = 16384 * 8;

    #[test]
    fn page_fail_prob_edges() {
        assert_eq!(page_fail_prob(0.0, PAGE_BITS, 2e-4), 0.0);
        assert_eq!(page_fail_prob(-1.0, PAGE_BITS, 2e-4), 0.0);
        assert_eq!(page_fail_prob(1e-3, 0, 2e-4), 0.0);
        // Far above the knee: certain failure.
        assert!(page_fail_prob(0.5, PAGE_BITS, 2e-4) > 0.999);
    }

    #[test]
    fn page_fail_prob_has_a_knee_at_the_correctable_rate() {
        // The ECC threshold corrects up to `correctable_rber` of the
        // page; the failure probability must cliff around that rate
        // (paper Figure 10's shape).
        let t = outlier_ecc::CORRECTABLE_RBER;
        let below = page_fail_prob(t / 4.0, PAGE_BITS, t);
        let at = page_fail_prob(t, PAGE_BITS, t);
        let above = page_fail_prob(t * 4.0, PAGE_BITS, t);
        assert!(below < 1e-9, "{below}");
        assert!((0.1..0.9).contains(&at), "{at}");
        assert!(above > 0.999, "{above}");
    }

    #[test]
    fn page_fail_prob_monotone_in_rber() {
        let mut last = -1.0;
        for exp in -6..0 {
            let p = page_fail_prob(10f64.powi(exp), PAGE_BITS, 2e-4);
            assert!(p >= last, "p({exp}) = {p} < {last}");
            last = p;
        }
    }

    #[test]
    fn fresh_chip_is_effectively_fault_free() {
        let fc = FaultConfig::default();
        let rber = fc.ber.rber(&fc.age);
        let p = page_fail_prob(rber, PAGE_BITS, fc.correctable_rber);
        assert!(p < 1e-20, "fresh chips must not visibly fault: {p}");
    }

    #[test]
    fn worn_chip_faults_constantly() {
        let fc = FaultConfig::aged(FlashAge::worn_out());
        let rber = fc.ber.rber(&fc.age);
        let p = page_fail_prob(rber, PAGE_BITS, fc.correctable_rber);
        assert!(p > 0.999, "worn chips must collapse: {p}");
    }

    #[test]
    fn erf_matches_known_values() {
        // erf(0) = 0, erf(±∞) → ±1, erf(1) ≈ 0.8427007929.
        assert!(erf(0.0).abs() < 2e-7);
        assert!((erf(1.0) - 0.842_700_792_9).abs() < 2e-7);
        assert!((erf(-1.0) + 0.842_700_792_9).abs() < 2e-7);
        assert!((erf(6.0) - 1.0).abs() < 2e-7);
    }

    /// Everything a window draw can change in a run, for equality.
    fn run_state(f: &FaultRun) -> (ReliabilitySummary, u128, u32) {
        (f.summary(), f.fault_extra_ps, f.degraded_chips)
    }

    #[test]
    fn sample_then_commit_equals_window_extra() {
        // The speculative solo span prices a token's fault window on a
        // stream copy and commits it only on acceptance. That is exact
        // only if sample + commit is window_extra split in two, and a
        // discarded sample leaves no trace. Three ages: fault-free, the
        // ECC knee (partial rereads) and worn out (uncorrectables, so
        // later windows see the degraded-bandwidth term).
        let cfg = SystemConfig::cambricon_s();
        let mut system = System::new(cfg);
        let knee = FlashAge {
            pe_cycles: 340,
            retention_days: 30.5,
        };
        for (age, expect_rereads, expect_degraded) in [
            (FlashAge::fresh(), false, false),
            (knee, true, false),
            (FlashAge::worn_out(), true, true),
        ] {
            let mode = FaultMode::Injected(FaultConfig::aged(age));
            let mut whole = FaultRun::for_engine(&mode, &cfg, &mut system).expect("faults on");
            let mut split = whole.clone();
            let mut whole_rng = SplitMix64::new(0x5EED);
            let mut split_rng = whole_rng.clone();
            for window in 0..48u64 {
                let nand_bytes = (1 << 20) + window * 4096;
                let nominal_ps = 2_000_000_000 + window;
                let extra = whole.window_extra(nand_bytes, nominal_ps, &mut whole_rng);

                let before = run_state(&split);
                let stream_before = split_rng.clone();
                let mut copy = split_rng.clone();
                let _discarded = split.sample_window(nand_bytes, nominal_ps, &mut copy);
                assert_eq!(
                    run_state(&split),
                    before,
                    "{age:?}: sampling mutated the run"
                );
                assert_eq!(
                    split_rng, stream_before,
                    "{age:?}: sampling a copy moved the stream"
                );

                let draw = split.sample_window(nand_bytes, nominal_ps, &mut split_rng);
                assert_eq!(draw.extra(), extra, "{age:?} window {window}");
                assert_eq!(split.commit_window(&draw), extra, "{age:?} window {window}");
                assert_eq!(
                    run_state(&split),
                    run_state(&whole),
                    "{age:?} window {window}"
                );
                assert_eq!(split_rng, whole_rng, "{age:?} window {window}");
            }
            assert_eq!(whole.page_rereads > 0, expect_rereads, "{age:?}");
            assert_eq!(whole.degraded_chips > 0, expect_degraded, "{age:?}");
        }
    }

    #[test]
    fn wear_trajectory_reports_a_truncated_horizon() {
        // A horizon of more steps than the cap: the run stops at the
        // cap with the SLO holding, and the report must say the horizon
        // was cut short rather than claim it held throughout.
        let shape = llm_workload::RequestShape::new(8, 1);
        let trace = ArrivalTrace::burst(1, shape);
        let wt = WearTrajectory {
            start: FlashAge::fresh(),
            days_per_step: 1.0,
            max_days: (WearTrajectory::MAX_STEPS + 88) as f64,
            traffic_scale: 1.0,
            bytes_per_pe: 0,
            slo_goodput_tps: 0.0,
            base: FaultConfig::default(),
        };
        let model = llm_workload::zoo::opt_6_7b();
        let rep = wt.run(
            SystemConfig::cambricon_s(),
            &model,
            PrefillMode::Off,
            &trace,
            SchedulePolicy::Fcfs,
        );
        assert_eq!(rep.points.len(), WearTrajectory::MAX_STEPS + 1);
        assert_eq!(rep.days_until_slo, None);
        assert!(rep.truncated);
        assert_eq!(rep.last_day, WearTrajectory::MAX_STEPS as f64);
        let summary = rep.summary();
        assert!(summary.contains("truncated"), "{summary}");
        assert!(!summary.contains("whole horizon"), "{summary}");

        // Within the cap the same trajectory covers its whole horizon.
        let short = WearTrajectory {
            max_days: 4.0,
            ..wt
        }
        .run(
            SystemConfig::cambricon_s(),
            &model,
            PrefillMode::Off,
            &trace,
            SchedulePolicy::Fcfs,
        );
        assert!(!short.truncated);
        assert_eq!(short.last_day, 4.0);
        assert!(short.summary().contains("whole horizon"));
    }

    #[test]
    fn wear_trajectory_never_samples_past_its_horizon() {
        // 10 days in 3-day steps: the last sample is day 9, not day 12.
        let shape = llm_workload::RequestShape::new(8, 1);
        let trace = ArrivalTrace::burst(1, shape);
        let wt = WearTrajectory {
            start: FlashAge::fresh(),
            days_per_step: 3.0,
            max_days: 10.0,
            traffic_scale: 1.0,
            bytes_per_pe: 0,
            slo_goodput_tps: 0.0,
            base: FaultConfig::default(),
        };
        let rep = wt.run(
            SystemConfig::cambricon_s(),
            &llm_workload::zoo::opt_6_7b(),
            PrefillMode::Off,
            &trace,
            SchedulePolicy::Fcfs,
        );
        let days: Vec<f64> = rep.points.iter().map(|p| p.day).collect();
        assert_eq!(days, [0.0, 3.0, 6.0, 9.0]);
        assert_eq!(rep.last_day, 9.0);
        assert_eq!(rep.days_until_slo, None);
        assert!(!rep.truncated);
        assert!(rep.summary().contains("whole horizon"));
    }

    #[test]
    fn absorb_decode_stats_maps_damage_to_counters() {
        let stats = outlier_ecc::DecodeStats {
            outliers_repaired: 3,
            addresses_corrected: 2,
            entries_discarded: 1,
            values_clamped: 7,
        };
        let mut rel = ReliabilitySummary::default();
        rel.absorb_decode_stats(&stats);
        assert_eq!(rel.corrected_pages, 5);
        assert_eq!(rel.uncorrectable_events, 1);
    }
}
