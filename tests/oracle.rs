//! Every scheduling policy against an independent oracle.
//!
//! `support::oracle` re-derives a run from public pricing calls alone,
//! one op of one request at a time, with none of the engine's plan
//! tables, spans, ready sets, request pool or event core. A bug in code
//! the engine's execution paths share shows up here even though span
//! equivalence, which compares those paths to each other, cannot see
//! it. Under FCFS and round-robin one event loop runs every path —
//! `SpanMode::PerOp` only turns its solo spans off — and every path
//! pops the same ready set, so this is the only check of that set's
//! order and of how the loop breaks same-instant ties.
//!
//! Whole reports must be equal, per-request timelines included. Only
//! the four cache counters are copied over from the engine, because
//! they count the engine's own memo traffic.

mod support {
    pub mod oracle;
}

use cambricon_llm_repro::prelude::*;
use flash_sim::FlashAge;
use llm_workload::kv::kv_bytes_per_token;
use llm_workload::{Family, ModelSpec, RequestArrival};
use proptest::prelude::*;
use sim_core::SimTime;
use support::oracle::{self, Scenario};

/// A two-layer OPT: every weight shape of the family at a size whose
/// flash simulation is cheap in a debug build.
fn tiny_opt() -> ModelSpec {
    ModelSpec {
        name: "tiny-OPT",
        family: Family::Opt,
        layers: 2,
        hidden: 512,
        heads: 8,
        kv_heads: 8,
        ffn: 2048,
        vocab: 2048,
        max_seq: 2048,
    }
}

/// A two-layer Llama-2 with grouped-query attention.
fn tiny_llama() -> ModelSpec {
    ModelSpec {
        name: "tiny-Llama2",
        family: Family::Llama2,
        layers: 2,
        hidden: 512,
        heads: 8,
        kv_heads: 2,
        ffn: 1408,
        vocab: 2048,
        max_seq: 2048,
    }
}

/// Most context tokens the KV allocation holds: two mid-sized requests
/// fit together, a third waits, and the longest prompt never fits.
const KV_TOKENS: u64 = 2400;

/// Cam-S with its DRAM KV allocation cut to [`KV_TOKENS`] of `model`.
fn config(model: &ModelSpec) -> SystemConfig {
    let mut cfg = SystemConfig::cambricon_s();
    cfg.npu.dram_kv_bytes = KV_TOKENS * kv_bytes_per_token(model, cfg.quant);
    cfg
}

/// Request shapes `(prompt, new_tokens)`: an empty prompt, short and
/// long decodes, two that block each other on KV, one never fits.
const SHAPES: [(usize, usize); 6] = [(0, 4), (40, 9), (700, 5), (1100, 3), (250, 12), (2600, 2)];

fn shape(i: usize) -> RequestShape {
    let (prompt, tokens) = SHAPES[i % SHAPES.len()];
    RequestShape::new(prompt, tokens)
}

/// A flash age at the ECC knee: most windows reread pages, and the
/// escalated senses recover them all.
const KNEE: FlashAge = FlashAge {
    pe_cycles: 340,
    retention_days: 30.5,
};

/// The three fault levels: off, at the knee, and worn out (pages go
/// uncorrectable and chips drop out of the stripe).
fn fault_levels() -> [Option<FlashAge>; 3] {
    [None, Some(KNEE), Some(FlashAge::worn_out())]
}

/// A deadline halfway between the smallest and the median of `spans`,
/// so it sheds some requests and spares others. `None` when the spans
/// are too few or too alike to place one.
fn shedding_deadline(spans: impl Iterator<Item = SimTime>) -> Option<SimTime> {
    let mut spans: Vec<SimTime> = spans.collect();
    spans.sort();
    let (&lo, &median) = (spans.first()?, spans.get(spans.len() / 2)?);
    (median > lo).then(|| lo + (median - lo) / 2)
}

/// What the property saw across all its cases, so the test can check
/// that each mechanism it claims to cover really ran.
#[derive(Debug, Default)]
struct Coverage {
    kv_rejections: u64,
    kv_blocked: usize,
    /// Requests that waited between arrival and their first dispatch.
    queued: usize,
    prefill_runs: usize,
    rereads: u64,
    uncorrectable: u64,
    ttft_timeouts: u64,
    deadline_sheds: u64,
    /// Arrivals landing exactly on another request's op completion.
    tied_arrivals: usize,
}

/// Runs one scenario through the oracle and through the engine in both
/// span modes, asserts whole-report equality, and returns the report.
fn check(
    sc: &Scenario,
    trace: &ArrivalTrace,
    system: &mut System,
    seen: &mut Coverage,
) -> ServeReport {
    let mut expected = oracle::run(sc, trace, system);
    for mode in [SpanMode::default(), SpanMode::PerOp] {
        let actual = DeviceEngine::new(sc.cfg, sc.model.clone())
            .with_prefill(sc.prefill)
            .with_faults(sc.faults)
            .with_span_mode(mode)
            .run(trace, sc.policy);
        expected.gemv_cache_hits = actual.gemv_cache_hits;
        expected.gemv_cache_misses = actual.gemv_cache_misses;
        expected.op_cost_cache_hits = actual.op_cost_cache_hits;
        expected.op_cost_cache_misses = actual.op_cost_cache_misses;
        assert_eq!(
            expected, actual,
            "engine ({mode:?}) departs from the oracle: {sc:?} on {trace:?}"
        );
    }
    let rel = expected.reliability;
    seen.kv_rejections += expected.kv_rejections;
    if let SchedulePolicy::ContinuousBatch { max_batch } = sc.policy {
        if expected.peak_batch_occupancy < max_batch.min(expected.requests.len()) {
            seen.kv_blocked += 1;
        }
    }
    seen.queued += expected
        .requests
        .iter()
        .filter(|r| r.started > r.arrived)
        .count();
    if expected.prefill_busy_s > 0.0 {
        seen.prefill_runs += 1;
    }
    seen.rereads += rel.page_rereads;
    seen.uncorrectable += rel.uncorrectable_events;
    seen.ttft_timeouts += rel.ttft_timeouts;
    seen.deadline_sheds += rel.deadline_sheds;
    expected
}

/// The batched policies under test: every batch cap from 1 to 4.
fn batched() -> Vec<SchedulePolicy> {
    (1..=4)
        .map(|max_batch| SchedulePolicy::ContinuousBatch { max_batch })
        .collect()
}

/// The per-op policies under test.
fn per_op() -> Vec<SchedulePolicy> {
    vec![SchedulePolicy::Fcfs, SchedulePolicy::RoundRobin]
}

/// Every policy of `policies`, prefill mode, fault level and deadline
/// kind on one trace. Deadlines come from a deadline-free oracle probe
/// of the same scenario.
fn check_matrix(
    policies: &[SchedulePolicy],
    model: &ModelSpec,
    trace: &ArrivalTrace,
    seed: u64,
    seen: &mut Coverage,
) {
    let cfg = config(model);
    let mut system = System::new(cfg);
    for &policy in policies {
        for prefill in [PrefillMode::Off, PrefillMode::Modeled] {
            for age in fault_levels() {
                let mut sc = Scenario {
                    cfg,
                    model: model.clone(),
                    prefill,
                    faults: FaultMode::Off,
                    policy,
                };
                let Some(age) = age else {
                    check(&sc, trace, &mut system, seen);
                    continue;
                };
                let base = FaultConfig {
                    seed,
                    ..FaultConfig::aged(age)
                };
                sc.faults = FaultMode::Injected(base);
                let probe = oracle::run(&sc, trace, &mut system);
                check(&sc, trace, &mut system, seen);
                let ttft = shedding_deadline(probe.requests.iter().map(|r| r.ttft()));
                let total =
                    shedding_deadline(probe.requests.iter().map(|r| r.finished - r.arrived));
                for (ttft, total) in [(ttft, None), (None, total)] {
                    if ttft.is_some() || total.is_some() {
                        sc.faults = FaultMode::Injected(base.with_deadlines(ttft, total));
                        check(&sc, trace, &mut system, seen);
                    }
                }
            }
        }
    }
}

/// An open trace over mixed shapes, arrivals `gap_ms` apart on average
/// (Poisson) or all at once (burst).
fn open_trace(n: usize, first_shape: usize, gap_ms: Option<u64>, seed: u64) -> ArrivalTrace {
    let arrivals = match gap_ms {
        Some(gap) => match ArrivalTrace::poisson(1e3 / gap as f64, n, shape(0), seed) {
            ArrivalTrace::Open(arrivals) => arrivals,
            ArrivalTrace::ClosedLoop { .. } => unreachable!("poisson traces are open"),
        },
        None => vec![
            RequestArrival {
                at: SimTime::ZERO,
                shape: shape(0),
            };
            n
        ],
    };
    let arrivals = arrivals
        .into_iter()
        .enumerate()
        .map(|(i, a)| RequestArrival {
            shape: shape(first_shape + i),
            ..a
        })
        .collect();
    ArrivalTrace::Open(arrivals)
}

/// `n` mixed-shape arrivals 20 µs apart, listed latest first: each
/// request arrives while the earlier ones still wait, and its id is
/// lower than theirs, so admission runs against id order — the order
/// round-robin breaks ties among never-scheduled requests by.
fn latest_first(n: usize, first_shape: usize) -> ArrivalTrace {
    ArrivalTrace::Open(
        (0..n)
            .map(|i| RequestArrival {
                at: SimTime::from_micros(20 * (n - 1 - i) as u64),
                shape: shape(first_shape + i),
            })
            .collect(),
    )
}

/// Four requests whose arrivals tie with op completions of request 0,
/// timed by fault-free oracle probes of `sc`: two overlap from time
/// zero, a third arrives at request 0's first token and a fourth when
/// it finishes. Arrivals are scheduled before any op, so each tie must
/// fire the arrival first. No shape is the one that never fits.
fn tied_trace(sc: &Scenario, first_shape: usize, system: &mut System) -> ArrivalTrace {
    let fitting = |i: usize| shape((first_shape + i) % (SHAPES.len() - 1));
    let mut arrivals: Vec<RequestArrival> = (0..2)
        .map(|i| RequestArrival {
            at: SimTime::ZERO,
            shape: fitting(i),
        })
        .collect();
    for i in 2..4 {
        let probe = oracle::run(sc, &ArrivalTrace::Open(arrivals.clone()), system);
        let first = probe.requests.iter().find(|r| r.id == 0);
        let first = first.expect("request 0 completes");
        arrivals.push(RequestArrival {
            at: if i == 2 {
                first.first_token_at
            } else {
                first.finished
            },
            shape: fitting(i),
        });
    }
    ArrivalTrace::Open(arrivals)
}

/// Every policy of `policies` under both prefill modes on its own
/// [`tied_trace`], counting the arrivals that do tie.
fn check_tied(
    policies: &[SchedulePolicy],
    model: &ModelSpec,
    first_shape: usize,
    seen: &mut Coverage,
) {
    let cfg = config(model);
    let mut system = System::new(cfg);
    for &policy in policies {
        for prefill in [PrefillMode::Off, PrefillMode::Modeled] {
            let sc = Scenario {
                cfg,
                model: model.clone(),
                prefill,
                faults: FaultMode::Off,
                policy,
            };
            let trace = tied_trace(&sc, first_shape, &mut system);
            let report = check(&sc, &trace, &mut system, seen);
            let first = report.requests.iter().find(|r| r.id == 0);
            let first = first.expect("request 0 completes");
            seen.tied_arrivals += report
                .requests
                .iter()
                .filter(|r| {
                    r.id >= 2 && [first.first_token_at, first.finished].contains(&r.arrived)
                })
                .count();
        }
    }
}

/// The fixed draw of the property's inputs that the coverage tests
/// check: one closed loop, one burst and one Poisson trace.
fn fixed_traces() -> [ArrivalTrace; 3] {
    [
        ArrivalTrace::closed_loop(3, 2, shape(2)),
        open_trace(6, 0, None, 7),
        open_trace(6, 1, Some(20), 7),
    ]
}

/// Runs the fixed draw and the tied traces under `policies` on both
/// models and returns what it covered.
fn fixed_draw_coverage(policies: &[SchedulePolicy]) -> Coverage {
    let mut seen = Coverage::default();
    for model in [tiny_opt(), tiny_llama()] {
        for trace in &fixed_traces() {
            check_matrix(policies, &model, trace, 7, &mut seen);
        }
        check_tied(policies, &model, 0, &mut seen);
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The oracle property: across closed-loop, burst and Poisson
    /// traces, batch caps 1–4, both prefill modes, faults off / at the
    /// knee / worn out, and no deadline, a TTFT deadline or a total
    /// deadline, the engine's report equals the oracle's, under the
    /// default coalesced spans and under `SpanMode::PerOp`.
    #[test]
    fn continuous_batch_reports_equal_the_oracle(
        llama in 0usize..2,
        n in 2usize..6,
        first_shape in 0usize..SHAPES.len(),
        clients in 1usize..4,
        per_client in 1usize..4,
        closed_shape in 0usize..SHAPES.len() - 1,
        gap_ms in 5u64..400,
        seed in 0u64..1000,
    ) {
        let model = if llama == 1 { tiny_llama() } else { tiny_opt() };
        let traces = [
            ArrivalTrace::closed_loop(clients, per_client, shape(closed_shape)),
            open_trace(n, first_shape, None, seed),
            open_trace(n, first_shape, Some(gap_ms), seed),
        ];
        for trace in &traces {
            check_matrix(&batched(), &model, trace, seed, &mut Coverage::default());
        }
    }

    /// The same property under FCFS and round-robin, plus a trace
    /// listed latest first and the tied traces: with solo spans on and
    /// off, the event loop must reproduce the oracle's report.
    #[test]
    fn fcfs_and_round_robin_reports_equal_the_oracle(
        llama in 0usize..2,
        n in 2usize..6,
        first_shape in 0usize..SHAPES.len(),
        clients in 1usize..4,
        per_client in 1usize..4,
        closed_shape in 0usize..SHAPES.len() - 1,
        gap_ms in 5u64..400,
        seed in 0u64..1000,
    ) {
        let model = if llama == 1 { tiny_llama() } else { tiny_opt() };
        let traces = [
            ArrivalTrace::closed_loop(clients, per_client, shape(closed_shape)),
            open_trace(n, first_shape, None, seed),
            open_trace(n, first_shape, Some(gap_ms), seed),
            latest_first(n, first_shape),
        ];
        for trace in &traces {
            check_matrix(&per_op(), &model, trace, seed, &mut Coverage::default());
        }
        check_tied(&per_op(), &model, first_shape, &mut Coverage::default());
    }
}

#[test]
fn the_oracle_property_exercises_every_mechanism() {
    // One fixed draw of the property's inputs, checked for coverage:
    // each mechanism the oracle models must fire at least once, or the
    // equality above could pass without testing it.
    let seen = fixed_draw_coverage(&batched());
    assert!(seen.kv_rejections > 0, "{seen:?}");
    assert!(seen.kv_blocked > 0, "{seen:?}");
    assert!(seen.prefill_runs > 0, "{seen:?}");
    assert!(seen.rereads > 0 && seen.uncorrectable > 0, "{seen:?}");
    assert!(
        seen.ttft_timeouts > 0 && seen.deadline_sheds > 0,
        "{seen:?}"
    );
}

#[test]
fn the_per_op_oracle_property_exercises_every_mechanism() {
    // The same fixed draw under FCFS and round-robin. Requests must
    // also contend: some wait between arrival and their first dispatch,
    // and some arrive exactly on another request's op completion.
    let seen = fixed_draw_coverage(&per_op());
    assert!(seen.kv_rejections > 0, "{seen:?}");
    assert!(seen.queued > 0, "{seen:?}");
    assert!(seen.tied_arrivals > 0, "{seen:?}");
    assert!(seen.prefill_runs > 0, "{seen:?}");
    assert!(seen.rereads > 0 && seen.uncorrectable > 0, "{seen:?}");
    assert!(
        seen.ttft_timeouts > 0 && seen.deadline_sheds > 0,
        "{seen:?}"
    );
}
