//! Per-channel workload descriptions submitted to the flash engine.
//!
//! The system layer (crate `cambricon-llm`) translates each weight-GeMV
//! into one [`ChannelWorkload`] per channel: a number of read-compute
//! *rounds* (every compute core on the channel retires one page-sized
//! atomic tile per round) plus a number of plain read pages destined for
//! the NPU (the hardware-aware-tiling remainder).

use crate::slice::SlicePolicy;

// `SlicePolicy` participates in `EngineConfig` below.

/// Work to execute on a single flash channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelWorkload {
    /// Read-compute rounds. Each round processes one page per compute
    /// core on this channel (one atomic tile per core).
    pub rc_rounds: usize,
    /// Input-vector bytes broadcast over the channel per round
    /// (`Wreq / channelnum × act_bytes`).
    pub rc_input_bytes: u64,
    /// Result-vector bytes returned per core per round
    /// (`Hreq / ccorenum × act_bytes`).
    pub rc_result_bytes_per_core: u64,
    /// Arithmetic operations per page of weights (2 ops per weight).
    pub ops_per_page: u64,
    /// Plain read pages to stream to the NPU over this channel.
    pub read_pages: usize,
}

impl ChannelWorkload {
    /// A workload with only read-compute traffic (the "without
    /// hardware-aware tiling" ablation of Figure 14 — flash does all
    /// GeMV work, nothing is offloaded to the NPU).
    pub fn rc_only(
        rc_rounds: usize,
        input_bytes: u64,
        result_bytes_per_core: u64,
        ops_per_page: u64,
    ) -> Self {
        ChannelWorkload {
            rc_rounds,
            rc_input_bytes: input_bytes,
            rc_result_bytes_per_core: result_bytes_per_core,
            ops_per_page,
            read_pages: 0,
        }
    }

    /// A workload with only plain reads (a conventional flash-offloading
    /// device with no on-die compute).
    pub fn read_only(read_pages: usize) -> Self {
        ChannelWorkload {
            rc_rounds: 0,
            rc_input_bytes: 0,
            rc_result_bytes_per_core: 0,
            ops_per_page: 0,
            read_pages,
        }
    }

    /// Whether there is nothing to do.
    pub fn is_empty(&self) -> bool {
        self.rc_rounds == 0 && self.read_pages == 0
    }

    /// Total control-transfer bytes (inputs broadcast + results) this
    /// workload will move over the channel, given `cores` per channel.
    pub fn control_bytes(&self, cores: usize) -> u64 {
        self.rc_rounds as u64 * (self.rc_input_bytes + self.rc_result_bytes_per_core * cores as u64)
    }

    /// Total plain-read bytes moved, given the page size.
    pub fn read_bytes(&self, page_bytes: usize) -> u64 {
        self.read_pages as u64 * page_bytes as u64
    }
}

/// Full engine configuration for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Device topology.
    pub topology: crate::Topology,
    /// Timing parameters.
    pub timing: crate::Timing,
    /// Compute-core parameters.
    pub core: crate::CoreParams,
    /// Slice-control policy for plain reads.
    pub slice: SlicePolicy,
    /// How many rounds of input vectors may be in flight ahead of the
    /// oldest uncomputed round (double-buffering in the 2 KB core
    /// buffers → 2).
    pub input_prefetch: usize,
}

impl EngineConfig {
    /// Paper-default configuration on the given topology.
    pub fn paper(topology: crate::Topology) -> Self {
        EngineConfig {
            topology,
            timing: crate::Timing::paper(),
            core: crate::CoreParams::paper(),
            slice: SlicePolicy::default(),
            input_prefetch: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    #[test]
    fn byte_accounting() {
        let w = ChannelWorkload {
            rc_rounds: 10,
            rc_input_bytes: 256,
            rc_result_bytes_per_core: 64,
            ops_per_page: 32768,
            read_pages: 5,
        };
        assert_eq!(w.control_bytes(4), 10 * (256 + 64 * 4));
        assert_eq!(w.read_bytes(16384), 5 * 16384);
        assert!(!w.is_empty());
    }

    #[test]
    fn constructors() {
        assert_eq!(ChannelWorkload::read_only(3).rc_rounds, 0);
        assert_eq!(ChannelWorkload::rc_only(3, 1, 2, 4).read_pages, 0);
        assert!(ChannelWorkload::read_only(0).is_empty());
    }

    #[test]
    fn paper_config_defaults() {
        let cfg = EngineConfig::paper(Topology::cambricon_s());
        assert_eq!(cfg.input_prefetch, 2);
        assert!(cfg.slice.is_sliced());
    }
}
