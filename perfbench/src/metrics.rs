//! The benchmark's vocabulary: workload names and every metric with
//! its unit. `BENCHMARK.json` at the repository root lists the same
//! names; a self-test keeps the two in step.

/// The workloads, in the order the docs describe them.
pub const WORKLOADS: [&str; 4] = [
    "design_sweep",
    "overload_rr",
    "open_batched_mc",
    "fleet_faulted",
];

/// End-to-end metrics (`--trace 0`), `(name, unit)`.
///
/// Host metrics are wall-clock measurements of the simulator; the
/// `sim_*` and `paper_err_pct` metrics are modelled results, which are
/// deterministic for a given seed. Simulated seconds carry the unit
/// `sim_s` so they are never mistaken for host time.
pub const END_TO_END: [(&str, &str); 10] = [
    ("sim_tokens_per_wall_s", "tok/s"),
    ("run_ms_p50", "ms"),
    ("run_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("sim_tok_s", "tok/sim_s"),
    ("sim_ttft_p99_s", "sim_s"),
    ("sim_goodput_frac", "frac"),
    ("paper_err_pct", "%"),
];

/// Per-layer metrics (`--trace 1`), `(name, unit)`. Counts come from
/// the simulator's reports and repeat exactly for a seed; `_ms`/`_ns`
/// metrics are self times of the traced run's spans. A layer that does
/// no work on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    // llm_workload: plans and arrival traces.
    ("setup.plan_ms", "ms"),
    ("setup.trace_ms", "ms"),
    ("setup.warmup_ms", "ms"),
    // tiling + flash_sim: GeMV fills behind System::op_cost.
    ("pricing.gemv_fills", "count"),
    ("pricing.gemv_fill_ms", "ms"),
    // core::system: the op-cost memo.
    ("pricing.op_fills", "count"),
    ("pricing.op_fill_ms", "ms"),
    ("pricing.op_lookups", "count"),
    ("pricing.op_hit_ratio", "frac"),
    ("pricing.hit_ns", "ns"),
    ("pricing.cold_token_ms", "ms"),
    ("pricing.prefill_buckets", "count"),
    ("pricing.prefill_cost_ms", "ms"),
    // core::serve: the device event loops.
    ("serve.runs", "count"),
    ("serve.run_ms", "ms"),
    ("serve.tokens", "count"),
    ("serve.requests", "count"),
    ("serve.dispatches", "count"),
    ("serve.ns_per_dispatch", "ns"),
    ("serve.fastpath_speedup", "x"),
    ("serve.sim_flash_util", "frac"),
    ("serve.sim_npu_util", "frac"),
    ("serve.sim_batch_occupancy", "count"),
    ("serve.sim_queue_delay_mean_s", "sim_s"),
    ("serve.kv_rejections", "count"),
    // core::montecarlo: warm-clone fan-out.
    ("mc.seeds", "count"),
    ("mc.threads", "count"),
    ("mc.run_ms", "ms"),
    ("mc.seed_run_ms", "ms"),
    ("mc.speedup", "x"),
    // core::reliability: fault sampling.
    ("faults.page_rereads", "count"),
    ("faults.uncorrectable", "count"),
    ("faults.sheds", "count"),
    ("faults.mode_overhead_ms", "ms"),
    // core::fleet: routing, replica fan-out, merge.
    ("fleet.replicas", "count"),
    ("fleet.threads", "count"),
    ("fleet.run_ms", "ms"),
    ("fleet.load_imbalance", "x"),
    ("fleet.replica_tokens_max", "count"),
    ("fleet.thread_speedup", "x"),
    // The tracer itself.
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.spans", "count"),
    ("trace.ops", "count"),
    ("trace.wall_ms", "ms"),
];

#[cfg(test)]
/// Whether `s` is a legal metric or workload name: ASCII letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn is_valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
