//! The flash channel engine against its full-scan reference.
//!
//! `ChannelEngine` advances only the dies an event touched and keeps
//! its events in fixed-delay FIFO lanes. The reference in
//! `support/full_scan.rs` scans every die after every event and pops a
//! `sim_core::EventQueue` heap. The two must agree on the whole
//! `ChannelReport`, the event count included, so the dirty set and the
//! lanes change the cost of a run and nothing else.

mod support {
    pub mod full_scan;
}

use flash_sim::{ChannelEngine, ChannelWorkload, EngineConfig, SlicePolicy, Timing, Topology};
use proptest::prelude::*;
use sim_core::SimTime;

/// One channel of `dies` dies with `planes` planes each.
fn topology(dies: usize, planes: usize) -> Topology {
    let mut topo = if dies % 2 == 0 {
        Topology::custom(1, dies / 2)
    } else {
        let mut t = Topology::custom(1, dies);
        t.dies_per_chip = 1;
        t
    };
    topo.planes_per_die = planes;
    topo
}

fn assert_engines_agree(cfg: EngineConfig, wl: ChannelWorkload) {
    let fast = ChannelEngine::new(cfg, wl).run();
    let reference = support::full_scan::ChannelEngine::new(cfg, wl).run();
    assert_eq!(fast, reference, "{cfg:?}\n{wl:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Whole-report equality across die counts, planes, slice policies,
    /// prefetch depths, output-buffer sizes and workload mixes. Rounds
    /// and pages shrink as the die count grows, because the reference
    /// pays every die on every event.
    #[test]
    fn dirty_dies_match_the_full_scan(
        dies in 1usize..257,
        planes in 1usize..3,
        slice_pick in 0usize..4,
        input_prefetch in 1usize..4,
        out_slots in 1usize..33,
        mix in 0usize..3,
        rounds in 1usize..41,
        pages in 1usize..97,
        ops_scale in 1u64..9,
        result_bytes in 16u64..513,
        input_bytes in 16u64..4097,
    ) {
        let slice = match slice_pick {
            0 => SlicePolicy::Unsliced,
            1 => SlicePolicy::Sliced { slice_bytes: 512 },
            2 => SlicePolicy::Sliced { slice_bytes: 2048 },
            _ => SlicePolicy::Sliced { slice_bytes: 16384 },
        };
        let mut cfg = EngineConfig::paper(topology(dies, planes));
        cfg.slice = slice;
        cfg.input_prefetch = input_prefetch;
        cfg.core.output_buf_bytes = out_slots * result_bytes as usize;
        let rounds = rounds.min(1 + 512 / dies);
        let pages = pages.min(1 + 2048 / dies);
        let (rc_rounds, read_pages) = match mix {
            0 => (rounds, 0),
            1 => (0, pages),
            _ => (rounds, pages),
        };
        let wl = ChannelWorkload {
            rc_rounds,
            rc_input_bytes: input_bytes,
            rc_result_bytes_per_core: result_bytes,
            ops_per_page: 2 * 16 * 1024 * ops_scale,
            read_pages,
        };
        assert_engines_agree(cfg, wl);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Same-instant events on different lanes. Every duration is a
    /// multiple of 64 ns (array read, register move, command overhead,
    /// compute at 256 MACs and 1 GHz, and each transfer at 1 GB/s), so
    /// array reads, moves, compute and bus transfers often finish on
    /// the same picosecond, and the engine must break those ties in
    /// scheduling order, as the reference heap does. Paper timings
    /// almost never tie, so the test above cannot see a wrong tie-break.
    /// Every case mixes rounds with plain reads: a tie-break by lane
    /// instead of by scheduling order changed only mixed workloads'
    /// reports, in about one case in a hundred.
    #[test]
    fn same_instant_events_match_the_full_scan(
        dies in 1usize..17,
        slice_pick in 0usize..3,
        input_prefetch in 1usize..4,
        out_slots in 1usize..5,
        rounds in 1usize..13,
        pages in 1usize..25,
        t_r in 1u64..9,
        t_move in 0u64..3,
        t_cmd in 0u64..2,
        compute in 1u64..9,
        input_lines in 1u64..9,
        result_lines in 1u64..5,
    ) {
        let slice = match slice_pick {
            0 => SlicePolicy::Unsliced,
            1 => SlicePolicy::Sliced { slice_bytes: 512 },
            _ => SlicePolicy::Sliced { slice_bytes: 2048 },
        };
        let grid = |k: u64| SimTime::from_nanos(64 * k);
        let mut cfg = EngineConfig::paper(topology(dies, 2));
        cfg.slice = slice;
        cfg.input_prefetch = input_prefetch;
        cfg.timing = Timing {
            t_r: grid(t_r),
            t_move: grid(t_move),
            t_cmd: grid(t_cmd),
            channel_bytes_per_sec: 1_000_000_000,
            ..Timing::paper()
        };
        cfg.core.macs = 256;
        cfg.core.freq_hz = 1_000_000_000;
        let result_bytes = 64 * result_lines;
        cfg.core.output_buf_bytes = out_slots * result_bytes as usize;
        let wl = ChannelWorkload {
            rc_rounds: rounds,
            rc_input_bytes: 64 * input_lines,
            rc_result_bytes_per_core: result_bytes,
            // 512 Gop/s: 32,768 ops take 64 ns.
            ops_per_page: 32_768 * compute,
            read_pages: pages,
        };
        assert_engines_agree(cfg, wl);
    }
}

/// The paper's channels at full depth: Cam-S, Cam-M and Cam-L (4, 8
/// and 16 dies) and a 128-chip Fig. 15 point, on a balanced mix.
#[test]
fn paper_channels_match_the_full_scan() {
    for chips in [2, 4, 8, 128] {
        let wl = ChannelWorkload {
            rc_rounds: if chips == 128 { 6 } else { 60 },
            rc_input_bytes: 256,
            rc_result_bytes_per_core: 64,
            ops_per_page: 2 * 16 * 1024,
            read_pages: 3 * 2 * chips,
        };
        for slice in [SlicePolicy::default(), SlicePolicy::Unsliced] {
            let mut cfg = EngineConfig::paper(Topology::custom(1, chips));
            cfg.slice = slice;
            assert_engines_agree(cfg, wl);
        }
    }
}
