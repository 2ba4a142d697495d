//! Monte Carlo serving harness: one scenario, many seeded arrival
//! traces, distribution estimates with confidence intervals.
//!
//! A single [`ServeReport`] answers "what happened on *this* trace";
//! architecture questions ("is continuous batching's p99 TTFT actually
//! better, or did one lucky arrival pattern make it look that way?")
//! need the distribution across arrival randomness. [`MonteCarlo`] fans one scenario across `n`
//! seeds and reports each metric as an [`Estimate`] — mean, sample
//! stddev, and a 95% confidence half-width — so two designs can be
//! compared with error bars instead of single draws.
//!
//! ## Seed hygiene
//!
//! Per-seed traces derive from **one** root seed via
//! [`SplitMix64::split_seeds`]: each stream seed is a successive output
//! of a root-seeded generator, never `root + i` (adjacent SplitMix64
//! states walk the same sequence one step apart — maximally correlated
//! "independent" replicas). The whole batch reproduces exactly from
//! the root seed.
//!
//! ## Determinism across thread counts
//!
//! Seeds fan out through [`sim_core::parallel_map`] (the same
//! atomic-claim, pre-assigned-slot pool the design-space sweeps use),
//! so per-seed reports land in seed order regardless of scheduling.
//! The only cross-seed state is the batch's priced table, and it is
//! **immutable**. [`MonteCarlo::run`] generates every seed's trace
//! first, then prices all of them in one step, the same step a single
//! serving run takes on its own trace before its event loop starts: it
//! prices the plan's seq-invariant slots (the weight GeMVs' flash
//! discrete-event runs), the union of every request's attention
//! positions (its prompt length up to prompt plus decode length, each
//! position once) and every prompt length's prefill cost. The pricing
//! `System` is dropped, and every seed reads the resulting table
//! through one shared reference. No run can write to it, so each
//! per-seed [`ServeReport`] is bit-identical whether the batch runs on
//! 1 thread or 64. The table does not depend on the schedule policy.
//!
//! ## What the per-seed cache counters count
//!
//! A seed's op-cost and GeMV hit/miss counters count against the
//! batch's shared table, not against a cold system: the table's miss
//! counts are zeroed, so a seed reports zero misses, and
//! `op_cost_cache_hits + op_cost_cache_misses` still equals the ops it
//! dispatched. A cold [`ServeEngine::run`] of the same trace reports
//! the same dispatches with its own misses; every other report field
//! is equal.
//!
//! The shared table also carries the harness's throughput: pricing a
//! scenario (flash discrete-event runs per GeMV shape, op-cost
//! derivations per attention position) costs ~ms while replaying a
//! priced trace costs ~0.1 µs/token, so paying the fixed cost once —
//! instead of once per seed — is what lets an `n`-seed batch simulate
//! tens of millions of tokens per wall-second. Pricing the batch's
//! positions up front also prices each once, however many seeds visit
//! it (a 70B mixed-shape batch of 64 seeds with prompts up to 2,000
//! tokens and decodes up to 512 shares about 1,900 positions, which
//! its seeds used to re-price about 13,000 times per batch).

use crate::serve::{PrefillMode, PricedRun, SchedulePolicy, ServeEngine, ServeReport};
use llm_workload::ArrivalTrace;
use sim_core::{parallel_map_workers, Estimate, SplitMix64};

/// Configuration for a Monte Carlo serving batch: how many seeds, from
/// which root, on how many threads.
///
/// # Examples
///
/// ```
/// use cambricon_llm::montecarlo::MonteCarlo;
/// use cambricon_llm::serve::{SchedulePolicy, ServeEngine};
/// use cambricon_llm::SystemConfig;
/// use llm_workload::{zoo, ArrivalTrace, RequestShape};
///
/// let engine = ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b());
/// let shape = RequestShape { prompt_len: 64, new_tokens: 8 };
/// let mc = MonteCarlo::new(4, 0xC0FFEE);
/// let report = mc.run(&engine, SchedulePolicy::Fcfs, |seed| {
///     ArrivalTrace::poisson(200.0, 6, shape, seed)
/// });
/// assert_eq!(report.per_seed.len(), 4);
/// assert!(report.throughput.mean > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarlo {
    seeds: usize,
    root_seed: u64,
    /// Worker override; `None` = `available_parallelism()`.
    threads: Option<usize>,
}

impl MonteCarlo {
    /// A batch of `seeds` runs derived from `root_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `seeds == 0` — an empty batch estimates nothing.
    pub fn new(seeds: usize, root_seed: u64) -> Self {
        assert!(seeds >= 1, "a Monte Carlo batch needs at least one seed");
        MonteCarlo {
            seeds,
            root_seed,
            threads: None,
        }
    }

    /// Pins the worker-thread count (default: all available cores).
    /// Results are bit-identical for every choice; this exists for the
    /// determinism tests and for sharing a machine.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The derived per-seed stream seeds, in run order.
    pub fn seed_vec(&self) -> Vec<u64> {
        SplitMix64::split_seeds(self.root_seed, self.seeds)
    }

    /// Runs the scenario once per seed and aggregates.
    ///
    /// `trace_fn` maps a stream seed to that replica's arrival trace
    /// (typically [`ArrivalTrace::poisson`] with the seed passed
    /// through). It must be deterministic in the seed; it is called
    /// once per seed, before any run.
    pub fn run<F>(
        &self,
        engine: &ServeEngine,
        policy: SchedulePolicy,
        trace_fn: F,
    ) -> MonteCarloReport
    where
        F: Fn(u64) -> ArrivalTrace,
    {
        let seeds = self.seed_vec();
        let traces: Vec<ArrivalTrace> = seeds.iter().map(|&seed| trace_fn(seed)).collect();
        let priced = &PricedRun::shared(engine, &traces);
        let workers = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        let per_seed: Vec<ServeReport> = parallel_map_workers(&traces, workers, |_, trace| {
            engine.run_priced(trace, policy, priced)
        });
        MonteCarloReport::aggregate(
            policy,
            engine.prefill_mode(),
            self.root_seed,
            seeds,
            per_seed,
        )
    }
}

/// Distribution estimates across a Monte Carlo batch.
///
/// Each [`Estimate`] summarizes one per-seed scalar (the corresponding
/// [`ServeReport`] field) over the batch.
/// `PartialEq` compares everything, `per_seed` included, so the
/// determinism tests can pin whole batches bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloReport {
    /// Scheduling policy the batch ran under.
    pub policy: SchedulePolicy,
    /// Prefill mode the batch ran under.
    pub prefill: PrefillMode,
    /// Root seed the per-seed streams derive from.
    pub root_seed: u64,
    /// Derived stream seeds, in run order ([`SplitMix64::split_seeds`]).
    pub seeds: Vec<u64>,
    /// Requests completed, summed across seeds.
    pub requests_served: usize,
    /// Tokens generated, summed across seeds.
    pub tokens_served: u64,
    /// Per-seed decode throughput (tokens/s of virtual time).
    pub throughput: Estimate,
    /// Per-seed median arrival-relative TTFT, seconds.
    pub ttft_p50_s: Estimate,
    /// Per-seed p99 arrival-relative TTFT, seconds.
    pub ttft_p99_s: Estimate,
    /// Per-seed median token latency, seconds.
    pub token_latency_p50_s: Estimate,
    /// Per-seed p99 token latency, seconds.
    pub token_latency_p99_s: Estimate,
    /// Per-seed mean token latency, seconds.
    pub token_latency_mean_s: Estimate,
    /// Per-seed time-weighted mean batch occupancy (zero under the
    /// non-batched policies).
    pub batch_occupancy: Estimate,
    /// Per-seed KV-capacity admission rejections.
    pub kv_rejections: Estimate,
    /// Per-seed ECC reread count (zero with faults off).
    pub page_rereads: Estimate,
    /// Per-seed uncorrectable-read events (zero with faults off).
    pub uncorrectable_events: Estimate,
    /// Per-seed deadline sheds, TTFT and total combined (zero with
    /// faults off or no deadlines configured).
    pub deadline_sheds: Estimate,
    /// Per-seed deadline-goodput (tokens/s from requests that met
    /// their deadlines; zero with faults off).
    pub goodput_tps: Estimate,
    /// The full per-seed reports, in seed order. Their cache hit/miss
    /// counters count against the batch's shared priced table (see the
    /// module docs): a seed reports zero misses, with hits + misses
    /// still equal to the ops it dispatched. Every other field equals a
    /// cold run of the seed's trace.
    pub per_seed: Vec<ServeReport>,
}

impl MonteCarloReport {
    fn aggregate(
        policy: SchedulePolicy,
        prefill: PrefillMode,
        root_seed: u64,
        seeds: Vec<u64>,
        per_seed: Vec<ServeReport>,
    ) -> Self {
        // Left-to-right over seed order: deterministic f64 summation.
        let est = |f: &dyn Fn(&ServeReport) -> f64| {
            let samples: Vec<f64> = per_seed.iter().map(f).collect();
            Estimate::from_samples(&samples)
        };
        MonteCarloReport {
            policy,
            prefill,
            root_seed,
            requests_served: per_seed.iter().map(|r| r.requests_served).sum(),
            tokens_served: per_seed.iter().map(|r| r.tokens_served).sum(),
            throughput: est(&|r| r.tokens_per_sec),
            ttft_p50_s: est(&|r| r.ttft_p50_s),
            ttft_p99_s: est(&|r| r.ttft_p99_s),
            token_latency_p50_s: est(&|r| r.p50_token_latency_s),
            token_latency_p99_s: est(&|r| r.p99_token_latency_s),
            token_latency_mean_s: est(&|r| r.mean_token_latency_s),
            batch_occupancy: est(&|r| r.mean_batch_occupancy),
            kv_rejections: est(&|r| r.kv_rejections as f64),
            page_rereads: est(&|r| r.reliability.page_rereads as f64),
            uncorrectable_events: est(&|r| r.reliability.uncorrectable_events as f64),
            deadline_sheds: est(&|r| r.reliability.total_sheds() as f64),
            goodput_tps: est(&|r| r.reliability.deadline_goodput_tps),
            seeds,
            per_seed,
        }
    }

    /// Renders the headline estimates as `mean ± ci95` lines.
    pub fn summary(&self) -> String {
        let pm =
            |e: &Estimate, scale: f64| format!("{:.2} ± {:.2}", e.mean * scale, e.ci95 * scale);
        let mut out = format!(
            "{} seeds (root {:#x}) under {:?} / {:?}: {} requests, {} tokens\n\
             throughput: {} tok/s\n\
             ttft: p50 {} ms, p99 {} ms\n\
             token latency: p50 {} ms, p99 {} ms, mean {} ms\n\
             batch occupancy: {} | kv rejections: {}",
            self.seeds.len(),
            self.root_seed,
            self.policy,
            self.prefill,
            self.requests_served,
            self.tokens_served,
            pm(&self.throughput, 1.0),
            pm(&self.ttft_p50_s, 1e3),
            pm(&self.ttft_p99_s, 1e3),
            pm(&self.token_latency_p50_s, 1e3),
            pm(&self.token_latency_p99_s, 1e3),
            pm(&self.token_latency_mean_s, 1e3),
            pm(&self.batch_occupancy, 1.0),
            pm(&self.kv_rejections, 1.0),
        );
        // Reliability estimates only when faults actually ran: a batch
        // with faults off has identically-zero estimates here.
        if self.page_rereads.mean > 0.0
            || self.uncorrectable_events.mean > 0.0
            || self.deadline_sheds.mean > 0.0
            || self.goodput_tps.mean > 0.0
        {
            out.push_str(&format!(
                "\nreliability: rereads {} | uncorrectable {} | sheds {} | goodput {} tok/s",
                pm(&self.page_rereads, 1.0),
                pm(&self.uncorrectable_events, 1.0),
                pm(&self.deadline_sheds, 1.0),
                pm(&self.goodput_tps, 1.0),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use llm_workload::{zoo, RequestShape};

    fn engine() -> ServeEngine {
        ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
    }

    fn shape() -> RequestShape {
        RequestShape {
            prompt_len: 64,
            new_tokens: 8,
        }
    }

    #[test]
    fn batch_runs_every_seed() {
        let mc = MonteCarlo::new(5, 11);
        let rep = mc.run(&engine(), SchedulePolicy::Fcfs, |s| {
            ArrivalTrace::poisson(100.0, 4, shape(), s)
        });
        assert_eq!(rep.per_seed.len(), 5);
        assert_eq!(rep.seeds, SplitMix64::split_seeds(11, 5));
        assert_eq!(rep.throughput.n, 5);
        assert_eq!(
            rep.tokens_served,
            rep.per_seed.iter().map(|r| r.tokens_served).sum::<u64>()
        );
        assert!(rep.throughput.mean > 0.0);
    }

    #[test]
    fn distinct_seeds_give_distinct_reports() {
        // The poisson traces genuinely differ per stream seed, so the
        // makespans (integer picoseconds) differ too.
        let mc = MonteCarlo::new(4, 0xFEED);
        let rep = mc.run(&engine(), SchedulePolicy::Fcfs, |s| {
            ArrivalTrace::poisson(100.0, 4, shape(), s)
        });
        let mut spans: Vec<_> = rep.per_seed.iter().map(|r| r.makespan).collect();
        spans.sort_unstable();
        spans.dedup();
        assert!(spans.len() > 1, "all seeds produced the same trace");
    }

    #[test]
    fn same_root_reproduces_exactly() {
        let run = || {
            MonteCarlo::new(3, 77).run(&engine(), SchedulePolicy::RoundRobin, |s| {
                ArrivalTrace::poisson(150.0, 4, shape(), s)
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn warm_cache_matches_cold_run_modulo_counters() {
        // A seeded run inside the batch must report identical serving
        // metrics to the same trace run cold through `ServeEngine::run`
        // — the shared table changes pricing *work*, never results.
        // Only the cache hit/miss split may differ.
        let eng = engine();
        let mc = MonteCarlo::new(2, 5);
        let rep = mc.run(&eng, SchedulePolicy::Fcfs, |s| {
            ArrivalTrace::poisson(100.0, 4, shape(), s)
        });
        let seeds = mc.seed_vec();
        for (seed, warm_rep) in seeds.iter().zip(&rep.per_seed) {
            let cold = eng.run(
                &ArrivalTrace::poisson(100.0, 4, shape(), *seed),
                SchedulePolicy::Fcfs,
            );
            assert_eq!(cold.makespan, warm_rep.makespan);
            assert_eq!(cold.tokens_served, warm_rep.tokens_served);
            assert_eq!(cold.tokens_per_sec, warm_rep.tokens_per_sec);
            assert_eq!(cold.ttft_p99_s, warm_rep.ttft_p99_s);
            assert_eq!(cold.traffic, warm_rep.traffic);
            assert_eq!(cold.requests, warm_rep.requests);
            // The warm run dispatched the same ops...
            assert_eq!(
                cold.op_cost_cache_hits + cold.op_cost_cache_misses,
                warm_rep.op_cost_cache_hits + warm_rep.op_cost_cache_misses
            );
            // ...but priced no more of them from scratch than cold.
            assert!(warm_rep.op_cost_cache_misses <= cold.op_cost_cache_misses);
        }
    }

    /// A Poisson trace whose requests draw mixed prompt and decode
    /// lengths from `seed`, so seeds visit different attention
    /// positions.
    fn mixed_trace(seed: u64) -> ArrivalTrace {
        let streams = SplitMix64::split_seeds(seed, 2);
        let ArrivalTrace::Open(mut arrivals) = ArrivalTrace::poisson(150.0, 6, shape(), streams[0])
        else {
            unreachable!("a Poisson trace is open")
        };
        let mut rng = SplitMix64::new(streams[1]);
        for a in &mut arrivals {
            let prompt = [16, 48, 96][rng.next_below(3) as usize];
            let decode = [4, 9, 17][rng.next_below(3) as usize];
            a.shape = RequestShape::new(prompt, decode);
        }
        ArrivalTrace::Open(arrivals)
    }

    #[test]
    fn batch_prices_request_ranges_once_and_seeds_share_them() {
        // The batch step prices exactly the union of the requests'
        // decode positions, and every seed reads it with zero misses.
        let eng = engine().with_prefill(PrefillMode::Modeled);
        let mut traces: Vec<ArrivalTrace> = MonteCarlo::new(4, 0xA77E)
            .seed_vec()
            .into_iter()
            .map(mixed_trace)
            .collect();
        // A prompt length no mixed trace draws, whose prefill the shared
        // table must hold too.
        traces.push(ArrivalTrace::burst(2, RequestShape::new(64, 3)));
        let mut union = std::collections::BTreeSet::new();
        for trace in &traces {
            let ArrivalTrace::Open(arrivals) = trace else {
                unreachable!("every trace here is open")
            };
            for a in arrivals {
                union.extend(a.shape.prompt_len..a.shape.prompt_len + a.shape.new_tokens);
            }
        }
        let union: Vec<usize> = union.into_iter().collect();
        let priced = PricedRun::shared(&eng, &traces);
        assert_eq!(priced.priced_positions(), union);
        for policy in [
            SchedulePolicy::Fcfs,
            SchedulePolicy::RoundRobin,
            SchedulePolicy::ContinuousBatch { max_batch: 3 },
        ] {
            for trace in &traces {
                let rep = eng.run_priced(trace, policy, &priced);
                assert_eq!(rep.op_cost_cache_misses, 0, "{policy:?}");
                assert_eq!(rep.gemv_cache_misses, 0, "{policy:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "the plan that priced it")]
    fn warm_state_rejects_another_plan() {
        // A priced table serves only runs of the plan it was priced for.
        let trace = ArrivalTrace::poisson(100.0, 2, shape(), 3);
        let priced = PricedRun::new(&engine(), std::slice::from_ref(&trace));
        let other = ServeEngine::new(SystemConfig::cambricon_s(), zoo::llama2_7b());
        other.run_priced(&trace, SchedulePolicy::Fcfs, &priced);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn zero_seeds_rejected() {
        MonteCarlo::new(0, 1);
    }
}
