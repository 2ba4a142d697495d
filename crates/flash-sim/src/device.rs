//! Whole-device simulation.
//!
//! Channels are symmetric and independent in Cambricon-LLM's GeMV
//! workloads (each channel owns a column slice of every tile and its own
//! share of NPU-bound pages), so a channel's report depends only on the
//! engine configuration and its own [`ChannelWorkload`]. The device
//! simulator runs one [`ChannelEngine`] per *distinct* per-channel
//! workload and replicates the result across identical channels. This
//! is exact, not an approximation, and keeps full-model simulations
//! fast.
//!
//! The memo of runs is a [`ChannelRuns`] the caller owns and passes to
//! every [`FlashDevice::run_per_channel`] call, so dedup reaches across
//! calls as well as across the channels of one call: the system
//! simulator keeps one per system, where an FFN up/down pair (`R×C` and
//! `C×R`) often tiles to the same channel workload.

use crate::engine::ChannelEngine;
use crate::report::{ChannelReport, DeviceReport};
use crate::workload::{ChannelWorkload, EngineConfig};
use sim_core::SimTime;

/// Channel runs memoized by (engine configuration, workload).
///
/// Each distinct non-empty pair runs the [`ChannelEngine`] once; a
/// repeat recalls its report. Empty workloads are never run. The
/// counters report the work done, for benchmarks and tests.
#[derive(Debug, Clone, Default)]
pub struct ChannelRuns {
    entries: Vec<(EngineConfig, ChannelWorkload, ChannelReport)>,
}

impl ChannelRuns {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine runs performed: one per distinct non-empty pair seen.
    pub fn runs(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Discrete events those runs processed ([`ChannelReport::events`],
    /// summed).
    pub fn events(&self) -> u64 {
        self.entries.iter().map(|(_, _, rep)| rep.events).sum()
    }

    /// The report of `wl` under `cfg`, running the engine only the first
    /// time the pair is seen.
    fn run(&mut self, cfg: &EngineConfig, wl: ChannelWorkload) -> ChannelReport {
        if wl.is_empty() {
            return ChannelReport::empty();
        }
        if let Some((_, _, rep)) = self.entries.iter().find(|(c, w, _)| *w == wl && c == cfg) {
            return *rep;
        }
        let rep = ChannelEngine::new(*cfg, wl).run();
        self.entries.push((*cfg, wl, rep));
        rep
    }
}

/// The flash device: a bundle of identical channels.
#[derive(Debug, Clone, Copy)]
pub struct FlashDevice {
    cfg: EngineConfig,
}

impl FlashDevice {
    /// Creates a device with the given engine configuration.
    ///
    /// # Panics
    ///
    /// Panics if the topology fails validation.
    pub fn new(cfg: EngineConfig) -> Self {
        cfg.topology.validate().expect("invalid topology");
        FlashDevice { cfg }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Runs the same workload on every channel (the common case: GeMV
    /// tiles are distributed evenly).
    pub fn run_uniform(&self, per_channel: ChannelWorkload) -> DeviceReport {
        let rep = if per_channel.is_empty() {
            ChannelReport::empty()
        } else {
            ChannelEngine::new(self.cfg, per_channel).run()
        };
        let pairs: Vec<(ChannelWorkload, ChannelReport)> =
            vec![(per_channel, rep); self.cfg.topology.channels];
        self.aggregate(&pairs)
    }

    /// Runs per-channel workloads (which may differ, e.g. remainder
    /// pages on the last channel). A workload `runs` already holds for
    /// this configuration is recalled instead of simulated, and each new
    /// one is simulated once and added to `runs`.
    pub fn run_per_channel(
        &self,
        workloads: &[ChannelWorkload],
        runs: &mut ChannelRuns,
    ) -> DeviceReport {
        assert_eq!(
            workloads.len(),
            self.cfg.topology.channels,
            "need one workload per channel"
        );
        let pairs: Vec<(ChannelWorkload, ChannelReport)> = workloads
            .iter()
            .map(|wl| (*wl, runs.run(&self.cfg, *wl)))
            .collect();
        self.aggregate(&pairs)
    }

    fn aggregate(&self, pairs: &[(ChannelWorkload, ChannelReport)]) -> DeviceReport {
        let finish = pairs
            .iter()
            .map(|(_, r)| r.finish)
            .max()
            .unwrap_or(SimTime::ZERO);
        // Utilization is measured against the device finish time so idle
        // channels dilute the mean, matching how the paper reports
        // "channel usage".
        let mean_utilization = if pairs.is_empty() || finish == SimTime::ZERO {
            0.0
        } else {
            sim_core::sum_ordered(
                pairs
                    .iter()
                    .map(|(_, r)| r.bus_busy.as_picos() as f64 / finish.as_picos() as f64),
            ) / pairs.len() as f64
        };
        let cores = self.cfg.topology.compute_cores_per_channel() as u64;
        let page = self.cfg.topology.page_bytes as u64;
        let mut bytes_to_npu = 0;
        let mut bytes_from_npu = 0;
        let mut in_flash = 0;
        for (wl, r) in pairs {
            let rounds = r.rc_rounds_done as u64;
            bytes_to_npu += r.read_bytes + rounds * cores * wl.rc_result_bytes_per_core;
            bytes_from_npu += rounds * wl.rc_input_bytes;
            in_flash += rounds * cores * page;
        }
        DeviceReport {
            finish,
            mean_utilization,
            bytes_to_npu,
            bytes_from_npu,
            bytes_computed_in_flash: in_flash,
            channels: pairs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    fn wl(rc: usize, rd: usize) -> ChannelWorkload {
        ChannelWorkload {
            rc_rounds: rc,
            rc_input_bytes: 256,
            rc_result_bytes_per_core: 64,
            ops_per_page: 32768,
            read_pages: rd,
        }
    }

    #[test]
    fn uniform_run_replicates_channels() {
        let dev = FlashDevice::new(EngineConfig::paper(Topology::cambricon_s()));
        let rep = dev.run_uniform(wl(50, 40));
        assert_eq!(rep.channels, 8);
        assert!(rep.finish > SimTime::ZERO);
        assert!(rep.mean_utilization > 0.0 && rep.mean_utilization <= 1.0);
    }

    #[test]
    fn per_channel_heterogeneous() {
        let dev = FlashDevice::new(EngineConfig::paper(Topology::cambricon_s()));
        let mut wls = vec![wl(50, 40); 8];
        wls[7] = wl(50, 55); // remainder pages on the last channel
        let mut runs = ChannelRuns::new();
        let rep = dev.run_per_channel(&wls, &mut runs);
        let uni = dev.run_uniform(wl(50, 40));
        assert!(rep.finish >= uni.finish);
        // Seven identical channels share one run.
        assert_eq!(runs.runs(), 2);
    }

    #[test]
    fn runs_are_shared_across_calls_and_keyed_by_config() {
        let s = EngineConfig::paper(Topology::cambricon_s());
        let mut unsliced = s;
        unsliced.slice = crate::SlicePolicy::Unsliced;
        let mut runs = ChannelRuns::new();
        let first = FlashDevice::new(s).run_per_channel(&[wl(20, 10); 8], &mut runs);
        assert_eq!(runs.runs(), 1);
        let events = runs.events();
        assert!(events > 0);
        // The same workload again, on every channel: pure recall.
        let again = FlashDevice::new(s).run_per_channel(&[wl(20, 10); 8], &mut runs);
        assert_eq!((again, runs.runs(), runs.events()), (first, 1, events));
        // Another configuration is another run; empty channels are none.
        let mut wls = [wl(20, 10); 8];
        wls[0] = ChannelWorkload::read_only(0);
        let other = FlashDevice::new(unsliced).run_per_channel(&wls, &mut runs);
        assert_eq!(runs.runs(), 2);
        assert_ne!(other.finish, first.finish);
    }

    #[test]
    #[should_panic(expected = "one workload per channel")]
    fn wrong_channel_count_panics() {
        let dev = FlashDevice::new(EngineConfig::paper(Topology::cambricon_s()));
        dev.run_per_channel(&[wl(1, 1); 3], &mut ChannelRuns::new());
    }

    #[test]
    fn byte_accounting_is_exact() {
        let dev = FlashDevice::new(EngineConfig::paper(Topology::cambricon_s()));
        let rep = dev.run_uniform(wl(10, 3));
        // 8 channels × 10 rounds × 4 cores × 16 KB computed in flash.
        assert_eq!(rep.bytes_computed_in_flash, 8 * 10 * 4 * 16384);
        // To NPU: read pages + result vectors.
        assert_eq!(rep.bytes_to_npu, 8 * (3 * 16384 + 10 * 4 * 64));
        // From NPU: input broadcasts.
        assert_eq!(rep.bytes_from_npu, 8 * 10 * 256);
        assert_eq!(rep.d2d_bytes(), rep.bytes_to_npu + rep.bytes_from_npu);
    }

    #[test]
    fn empty_device_run() {
        let dev = FlashDevice::new(EngineConfig::paper(Topology::cambricon_s()));
        let rep = dev.run_uniform(ChannelWorkload::read_only(0));
        assert_eq!(rep.finish, SimTime::ZERO);
        assert_eq!(rep.mean_utilization, 0.0);
    }
}
