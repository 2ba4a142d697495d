//! Prefill-phase model (extension beyond the paper's decode focus).
//!
//! §II-A: prefill processes all `m` prompt tokens in parallel, reusing
//! each weight tile across the whole batch — intensity rises to ~2·m and
//! the workload turns compute-bound on the NPU. Cambricon-LLM handles
//! prefill by streaming weights once while the NPU applies them to the
//! full token block (the flash cores' GeMV path is vector-only, so
//! prefill GeMM runs on the NPU).
//!
//! The weight stream runs at the device's **effective** plain-read
//! bandwidth ([`System::effective_read_bandwidth`]): each page read
//! pays its per-chunk command cycles on the channel bus, so the
//! sustained rate sits below the raw bus rate. An earlier revision
//! derived those rates and then discarded them, streaming at the raw
//! rate — the pinned tests below keep the effective rate wired in.
//!
//! This module is the standalone entry point; the serving engine
//! ([`crate::serve`]) prices the same phase through the same
//! [`System::prefill_cost`], so a request's in-engine prefill and this
//! report always agree.

use crate::config::SystemConfig;
use crate::system::{PrefillCost, System};
use llm_workload::{ModelSpec, PrefillPlan};
use sim_core::SimTime;

/// Why a prefill request could not be priced.
///
/// The serving path must not be panickable from a trace, so malformed
/// prompts surface as typed errors instead of asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefillError {
    /// The prompt holds no tokens: there is nothing to prefill. (The
    /// serving engine treats such requests as decode-only and skips the
    /// phase; see the pinned empty-prompt admission tests.)
    EmptyPrompt,
}

impl std::fmt::Display for PrefillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrefillError::EmptyPrompt => write!(f, "empty prompt: nothing to prefill"),
        }
    }
}

impl std::error::Error for PrefillError {}

/// Prefill timing for an `m`-token prompt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefillReport {
    /// Prompt length.
    pub prompt_tokens: usize,
    /// Total prefill latency.
    pub total: SimTime,
    /// Time to first token implied (= prefill latency).
    pub ttft_s: f64,
    /// Weight-stream time at the effective read bandwidth.
    pub stream_s: f64,
    /// NPU-side compute time (GeMMs + attention + SFU + KV writes).
    pub compute_s: f64,
    /// The attention (KV) share of `compute_s` — nonzero even for a
    /// 1-token prompt (regression-pinned).
    pub kv_compute_s: f64,
    /// Whether the phase was compute-bound (vs. weight-stream-bound).
    pub compute_bound: bool,
}

impl PrefillReport {
    fn from_cost(prompt_tokens: usize, cost: PrefillCost) -> Self {
        PrefillReport {
            prompt_tokens,
            total: cost.total,
            ttft_s: cost.total.as_secs_f64(),
            stream_s: cost.stream.as_secs_f64(),
            compute_s: cost.compute.as_secs_f64(),
            kv_compute_s: cost.kv_compute.as_secs_f64(),
            compute_bound: cost.compute_bound,
        }
    }
}

/// Estimates prefill latency: weights stream from flash once at the
/// effective plain-read bandwidth (no read-compute — the on-die cores
/// only do GeMV) while the NPU runs the `m`-wide GeMMs.
///
/// # Errors
///
/// [`PrefillError::EmptyPrompt`] if `prompt_tokens == 0`.
pub fn prefill(
    cfg: &SystemConfig,
    model: &ModelSpec,
    prompt_tokens: usize,
) -> Result<PrefillReport, PrefillError> {
    if prompt_tokens == 0 {
        return Err(PrefillError::EmptyPrompt);
    }
    let plan = PrefillPlan::new(model, cfg.quant);
    let mut system = System::new(*cfg);
    let cost = system.prefill_cost(&plan, prompt_tokens);
    Ok(PrefillReport::from_cost(prompt_tokens, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_workload::zoo;

    #[test]
    fn short_prompts_are_stream_bound() {
        let r = prefill(&SystemConfig::cambricon_s(), &zoo::opt_6_7b(), 8).unwrap();
        assert!(!r.compute_bound);
        // Streaming 6.7 GB over ~7.5 GB/s effective ≈ 0.9 s.
        assert!((0.5..1.5).contains(&r.ttft_s), "{}", r.ttft_s);
    }

    #[test]
    fn long_prompts_become_compute_bound() {
        let short = prefill(&SystemConfig::cambricon_s(), &zoo::opt_6_7b(), 8).unwrap();
        let long = prefill(&SystemConfig::cambricon_s(), &zoo::opt_6_7b(), 2000).unwrap();
        assert!(long.compute_bound);
        assert!(long.ttft_s > short.ttft_s);
    }

    #[test]
    fn prefill_beats_decoding_token_by_token() {
        // The whole point of the phase split: m tokens via prefill must
        // be far cheaper than m sequential decode steps.
        let cfg = SystemConfig::cambricon_s();
        let model = zoo::opt_6_7b();
        let m = 256;
        let pre = prefill(&cfg, &model, m).unwrap();
        let mut sys = crate::system::System::new(cfg);
        let per_token = sys.decode_token(&model, m).total.as_secs_f64();
        assert!(pre.ttft_s < 0.3 * per_token * m as f64);
    }

    #[test]
    fn zero_prompt_is_a_typed_error_not_a_panic() {
        // The serving path prices prefill from trace-supplied shapes,
        // so an empty prompt must be a value, not an assert.
        assert_eq!(
            prefill(&SystemConfig::cambricon_s(), &zoo::opt_6_7b(), 0),
            Err(PrefillError::EmptyPrompt)
        );
        assert!(!PrefillError::EmptyPrompt.to_string().is_empty());
    }

    #[test]
    fn one_token_prompt_has_nonzero_attention_cost() {
        // Regression: `ops * m / 2` truncated to zero at m = 1, erasing
        // the KV term from the shortest prompts.
        let r = prefill(&SystemConfig::cambricon_s(), &zoo::opt_6_7b(), 1).unwrap();
        assert!(r.kv_compute_s > 0.0, "m=1 attention cost truncated away");
        assert!(r.compute_s > r.kv_compute_s);
    }

    #[test]
    fn stream_runs_at_the_effective_read_bandwidth() {
        // Pins the bandwidth-satellite fix: the weight stream uses the
        // tiling-derived effective rate (per-page command + slice
        // overhead included), which sits strictly below the raw bus
        // rate the old code used — so the stream is strictly slower
        // than raw division would predict, and exactly as fast as the
        // effective rate predicts.
        let cfg = SystemConfig::cambricon_s();
        let model = zoo::opt_6_7b();
        let r = prefill(&cfg, &model, 8).unwrap();
        let plan = PrefillPlan::new(&model, cfg.quant);
        let mut sys = System::new(cfg);
        let eff = sys.effective_read_bandwidth();
        let raw = cfg.alpha_inputs().timing.channel_bytes_per_sec as f64
            * cfg.alpha_inputs().topology.channels as f64;
        assert!(eff < raw, "effective {eff} not below raw {raw}");
        let expect = plan.weight_bytes() as f64 / eff;
        assert!(
            (r.stream_s - expect).abs() < 1e-9,
            "{} vs {expect}",
            r.stream_s
        );
        assert!(r.stream_s > plan.weight_bytes() as f64 / raw);
    }
}
