//! Structured design-space sweeps (Figure 15 and §VIII-E).
//!
//! Design points are independent, so sweeps evaluate them in parallel
//! through [`sim_core::parallel_map`] — results come back in grid
//! order, identical to sequential evaluation, regardless of thread
//! scheduling. (The atomic-claim worker pool used to live here; it was
//! hoisted into `sim_core::parallel` so the Monte Carlo serving
//! harness shares the same deterministic fan-out.)

use crate::config::SystemConfig;
use crate::system::System;
use llm_workload::{ModelSpec, TokenPlan};
use sim_core::parallel_map;

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Channels in the configuration.
    pub channels: usize,
    /// Chips per channel.
    pub chips_per_channel: usize,
    /// Decode speed in tokens/s.
    pub tokens_per_sec: f64,
    /// Mean channel utilization.
    pub channel_utilization: f64,
}

/// Sweeps chips-per-channel at a fixed channel count (Figure 15(a)/(c)).
pub fn sweep_chips(
    model: &ModelSpec,
    channels: usize,
    chips: &[usize],
    seq_len: usize,
) -> Vec<SweepPoint> {
    let grid: Vec<(usize, usize)> = chips.iter().map(|&c| (channels, c)).collect();
    evaluate_grid(model, &grid, seq_len)
}

/// Sweeps channel count at fixed chips per channel (Figure 15(b)/(d)).
pub fn sweep_channels(
    model: &ModelSpec,
    channel_counts: &[usize],
    chips_per_channel: usize,
    seq_len: usize,
) -> Vec<SweepPoint> {
    let grid: Vec<(usize, usize)> = channel_counts
        .iter()
        .map(|&ch| (ch, chips_per_channel))
        .collect();
    evaluate_grid(model, &grid, seq_len)
}

fn evaluate(model: &ModelSpec, channels: usize, chips: usize, seq_len: usize) -> SweepPoint {
    let cfg = SystemConfig::custom(channels, chips);
    evaluate_planned(&TokenPlan::new(model, cfg.quant), cfg, seq_len)
}

fn evaluate_planned(plan: &TokenPlan, cfg: SystemConfig, seq_len: usize) -> SweepPoint {
    let channels = cfg.engine.topology.channels;
    let chips = cfg.engine.topology.chips_per_channel;
    let mut sys = System::new(cfg);
    let rep = sys.decode_token_planned(plan, seq_len);
    SweepPoint {
        channels,
        chips_per_channel: chips,
        tokens_per_sec: rep.tokens_per_sec,
        channel_utilization: rep.channel_utilization,
    }
}

/// Evaluates every `(channels, chips)` point of `grid` in parallel,
/// returning results in grid order. The decode plan is built once and
/// shared (read-only) by every worker — design points vary the
/// hardware, not the workload.
fn evaluate_grid(model: &ModelSpec, grid: &[(usize, usize)], seq_len: usize) -> Vec<SweepPoint> {
    if grid.len() <= 1 {
        return grid
            .iter()
            .map(|&(ch, c)| evaluate(model, ch, c, seq_len))
            .collect();
    }
    let plan = TokenPlan::new(model, SystemConfig::custom(grid[0].0, grid[0].1).quant);
    parallel_map(grid, |_, &(ch, chips)| {
        evaluate_planned(&plan, SystemConfig::custom(ch, chips), seq_len)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_workload::zoo;

    #[test]
    fn chip_sweep_is_monotone_per_figure_15() {
        let pts = sweep_chips(&zoo::opt_6_7b(), 8, &[1, 2, 4, 8], 500);
        assert_eq!(pts.len(), 4);
        for w in pts.windows(2) {
            assert!(w[1].tokens_per_sec >= w[0].tokens_per_sec * 0.95);
        }
    }

    #[test]
    fn channel_sweep_scales_steadily() {
        let pts = sweep_channels(&zoo::opt_6_7b(), &[2, 4, 8, 16], 4, 500);
        for w in pts.windows(2) {
            assert!(w[1].tokens_per_sec > w[0].tokens_per_sec * 1.3);
        }
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        // The scoped-thread sweep must return the same points in the
        // same order as one-at-a-time evaluation.
        let model = zoo::opt_6_7b();
        let grid: Vec<(usize, usize)> = vec![(4, 2), (8, 1), (8, 4), (16, 2), (2, 8)];
        let par = evaluate_grid(&model, &grid, 300);
        let seq: Vec<SweepPoint> = grid
            .iter()
            .map(|&(ch, c)| evaluate(&model, ch, c, 300))
            .collect();
        assert_eq!(par, seq);
    }
}
