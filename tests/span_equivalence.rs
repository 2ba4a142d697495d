//! Span fast-forwarding ≡ per-token stepping, bit for bit.
//!
//! The coalesced span path ([`SpanMode::Coalesced`], the default) is a
//! pure wall-clock optimization: every simulated quantity — virtual
//! timestamps, per-token latency samples, busy time, traffic bytes,
//! cache accounting — is integer arithmetic regrouped, so whole
//! [`ServeReport`]s must compare equal to the per-op reference
//! ([`SpanMode::PerOp`]) under every policy, both prefill modes, and
//! arbitrary traces. Forced-tiny spans (`max_span` 1 and 2) exercise
//! the boundary edge cases: single-token spans, spans cut short by
//! arrivals (the `k = 0` per-op fallback), and closed-loop respawns
//! that make an arrival and a completion simultaneous.
//!
//! Under FCFS and round-robin both modes run the one event loop, and
//! `PerOp` only turns its solo spans off, so the overloaded regime
//! (several decodes overlapping, where solo spans never fire) runs the
//! same code in both. The overload matrix below still pins FCFS and
//! round-robin at 2–16 clients, both prefill modes, and fault injection
//! on and off to whole-report equality (and Llama2-70B on
//! Cambricon-LLM-L at 16 clients), plus an arrival landing exactly on a
//! mid-run token boundary while decodes overlap: a solo span that
//! engages or ends at the wrong boundary shows there. The independent
//! check of the loop itself is `tests/oracle.rs`.
//!
//! Under fault injection, solo spans price each later token's fault
//! window on a copy of the request's fault stream and commit it only
//! when the token is accepted. The spaced matrix pins that on open
//! traces where lone decodes dominate, with deadlines that shed. The
//! batched matrix pins faulted continuous batching the same way, where
//! each step draws one window from the head member's stream.

use cambricon_llm_repro::prelude::*;
use flash_sim::FlashAge;
use llm_workload::RequestArrival;
use proptest::prelude::*;
use sim_core::SimTime;

fn arb_model() -> impl proptest::Strategy<Value = llm_workload::ModelSpec> {
    prop_oneof![
        Just(zoo::opt_6_7b()),
        Just(zoo::opt_13b()),
        Just(zoo::llama2_7b()),
    ]
}

/// The span caps under test: unbounded (the default), plus tiny forced
/// spans that stress the boundary logic.
const SPAN_MODES: [SpanMode; 3] = [
    SpanMode::Coalesced {
        max_span: usize::MAX,
    },
    SpanMode::Coalesced { max_span: 1 },
    SpanMode::Coalesced { max_span: 2 },
];

fn engines(
    model: &llm_workload::ModelSpec,
    prefill: PrefillMode,
    mode: SpanMode,
) -> (ServeEngine, ServeEngine) {
    let cfg = SystemConfig::cambricon_s();
    let reference = ServeEngine::new(cfg, model.clone())
        .with_prefill(prefill)
        .with_span_mode(SpanMode::PerOp);
    let coalesced = ServeEngine::new(cfg, model.clone())
        .with_prefill(prefill)
        .with_span_mode(mode);
    (reference, coalesced)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole invariant: for arbitrary traces, every policy and
    /// both prefill modes, the coalesced report equals the per-op
    /// report field for field (`ServeReport: PartialEq` covers every
    /// field, per-request timestamps included).
    #[test]
    fn coalesced_reports_equal_per_op_reports(
        model in arb_model(),
        trace_ix in 0usize..3,
        clients in 1usize..4,
        per_client in 1usize..3,
        prompt in 0usize..1200,
        tokens in 1usize..6,
        rate_tenths in 1u64..80,
        seed in 0u64..1000,
        max_batch in 1usize..4,
        span_ix in 0usize..3,
    ) {
        let shape = RequestShape::new(prompt, tokens);
        let trace = match trace_ix {
            // Closed loop: respawns make arrivals and completions
            // simultaneous at token boundaries.
            0 => ArrivalTrace::closed_loop(clients, per_client, shape),
            // Burst: simultaneous arrivals contend immediately.
            1 => ArrivalTrace::burst(clients * per_client, shape),
            // Poisson: arrivals land at arbitrary mid-token instants.
            _ => ArrivalTrace::poisson(
                rate_tenths as f64 / 10.0,
                clients * per_client,
                shape,
                seed,
            ),
        };
        let mode = SPAN_MODES[span_ix];
        for policy in [
            SchedulePolicy::Fcfs,
            SchedulePolicy::RoundRobin,
            SchedulePolicy::ContinuousBatch { max_batch },
        ] {
            for prefill in [PrefillMode::Off, PrefillMode::Modeled] {
                let (reference, coalesced) = engines(&model, prefill, mode);
                let a = reference.run(&trace, policy);
                let b = coalesced.run(&trace, policy);
                prop_assert_eq!(
                    a,
                    b,
                    "span mode {:?} diverged from per-op under {:?}/{:?}",
                    mode,
                    policy,
                    prefill
                );
            }
        }
    }
}

/// A flash age at the ECC knee: most token windows reread pages, and
/// the escalated senses recover them all.
const KNEE: FlashAge = FlashAge {
    pe_cycles: 340,
    retention_days: 30.5,
};

#[test]
fn arrival_exactly_on_a_token_boundary_is_bit_exact() {
    // The sharpest span edge: an arrival landing exactly on a token
    // boundary (not just near it). Probe a per-op run for a true
    // boundary timestamp, then replay a trace with an arrival pinned
    // to that instant under every policy and span mode. With faults
    // on, the boundary comes from the faulted probe (the first
    // request's fault stream is the same in both traces), so the
    // faulted solo span must accept the token ending exactly there.
    let shape = RequestShape::new(300, 4);
    for faults in [
        FaultMode::Off,
        FaultMode::Injected(FaultConfig::aged(KNEE)),
        FaultMode::Injected(FaultConfig::aged(FlashAge::worn_out())),
    ] {
        let engine = |mode| {
            ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
                .with_faults(faults)
                .with_span_mode(mode)
        };
        let probe =
            engine(SpanMode::PerOp).run(&ArrivalTrace::burst(1, shape), SchedulePolicy::Fcfs);
        let boundary = probe.requests[0].first_token_at;
        assert!(boundary > SimTime::ZERO);
        if faults != FaultMode::Off {
            assert!(probe.reliability.page_rereads > 0, "{faults:?}");
        }
        let trace = ArrivalTrace::Open(vec![
            RequestArrival {
                at: SimTime::ZERO,
                shape,
            },
            RequestArrival {
                at: boundary,
                shape: RequestShape::new(200, 2),
            },
        ]);
        for policy in [
            SchedulePolicy::Fcfs,
            SchedulePolicy::RoundRobin,
            SchedulePolicy::ContinuousBatch { max_batch: 2 },
        ] {
            let reference = engine(SpanMode::PerOp).run(&trace, policy);
            for mode in SPAN_MODES {
                let coalesced = engine(mode).run(&trace, policy);
                assert_eq!(reference, coalesced, "{faults:?} {policy:?} {mode:?}");
            }
        }
    }
}

#[test]
fn long_decode_spans_compress_events_not_results() {
    // The regime the optimization exists for: few scheduling
    // boundaries, many tokens between them. A 2-client closed loop at
    // 96 tokens coalesces nearly everything; results stay identical.
    let trace = ArrivalTrace::closed_loop(2, 1, RequestShape::new(500, 96));
    for policy in [
        SchedulePolicy::Fcfs,
        SchedulePolicy::ContinuousBatch { max_batch: 2 },
    ] {
        let reference = ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
            .with_span_mode(SpanMode::PerOp)
            .run(&trace, policy);
        let coalesced =
            ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b()).run(&trace, policy);
        assert_eq!(reference, coalesced, "{policy:?}");
        assert_eq!(coalesced.tokens_served, 192);
    }
}

#[test]
fn kv_blocked_pending_requests_stay_bit_exact_over_long_spans() {
    // Requests reserving ~3000 KV tokens of the ~7.6k allocation run
    // two at a time while the rest sit pending, blocked on capacity —
    // the regime where spans must keep coalescing (a blocked head can
    // only be admitted at a completion, which is always a span end)
    // yet still retire the waves in the per-op order.
    let shape = RequestShape::new(2990, 40);
    let trace = ArrivalTrace::burst(4, shape);
    let policy = SchedulePolicy::ContinuousBatch { max_batch: 4 };
    let reference = ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
        .with_span_mode(SpanMode::PerOp)
        .run(&trace, policy);
    assert_eq!(reference.peak_batch_occupancy, 2);
    for mode in SPAN_MODES {
        let coalesced = ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
            .with_span_mode(mode)
            .run(&trace, policy);
        assert_eq!(reference, coalesced, "{mode:?}");
    }
}

#[test]
fn interleaved_replay_is_bit_exact_across_the_overload_matrix() {
    // The multi-request steady state the interleaved replay loop
    // serves: 2–16 overlapping decodes, where solo spans never fire
    // and every op completion is a scheduling event. Whole-report
    // equality against the per-op reference across FCFS and
    // round-robin, both prefill modes, fault injection on and off,
    // and every span cap (tiny caps stress replay entry/exit, since
    // the replay loop runs whenever coalescing is on at all). The odd
    // client count exercises rotation order that never realigns with
    // the plan's class runs.
    let model = zoo::opt_6_7b();
    let cfg = SystemConfig::cambricon_s();
    for clients in [2usize, 9, 16] {
        let trace = ArrivalTrace::closed_loop(clients, 1, RequestShape::new(200, 8));
        for policy in [SchedulePolicy::Fcfs, SchedulePolicy::RoundRobin] {
            for prefill in [PrefillMode::Off, PrefillMode::Modeled] {
                for faulty in [false, true] {
                    let mk = |mode| {
                        let engine = ServeEngine::new(cfg, model.clone())
                            .with_prefill(prefill)
                            .with_span_mode(mode);
                        if faulty {
                            engine.with_faults(FaultMode::Injected(FaultConfig::aged(
                                FlashAge::worn_out(),
                            )))
                        } else {
                            engine
                        }
                    };
                    let reference = mk(SpanMode::PerOp).run(&trace, policy);
                    for mode in SPAN_MODES {
                        let replayed = mk(mode).run(&trace, policy);
                        assert_eq!(
                            reference, replayed,
                            "{clients} clients {policy:?} {prefill:?} faults={faulty} {mode:?}"
                        );
                    }
                }
            }
        }
    }
    // The paper's workload at overload: 70B on Cam-L, 16 long-prompt
    // decodes in flight, so every stretch the replay loop takes is
    // long and the FCFS order never rotates. The default engine
    // against the per-op reference.
    let trace = ArrivalTrace::closed_loop(16, 1, RequestShape::new(1000, 64));
    let engine = || ServeEngine::new(SystemConfig::cambricon_l(), zoo::llama2_70b());
    for policy in [SchedulePolicy::Fcfs, SchedulePolicy::RoundRobin] {
        assert_eq!(
            engine().with_span_mode(SpanMode::PerOp).run(&trace, policy),
            engine().run(&trace, policy),
            "70B 16 clients {policy:?}"
        );
    }
}

#[test]
fn admission_boundary_exactly_under_overlapping_decodes_is_bit_exact() {
    // The interleaved-regime sibling of the boundary pin above: with
    // several decodes in flight, probe a real token boundary from a
    // per-op run, then pin an extra arrival to exactly that instant.
    // The replay loop must hand control back at (not after) the tied
    // boundary so the admission pass sees the newcomer in the same
    // order the per-op loop would.
    let shape = RequestShape::new(250, 6);
    let probe_trace = ArrivalTrace::burst(3, shape);
    for policy in [SchedulePolicy::Fcfs, SchedulePolicy::RoundRobin] {
        let probe = ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
            .with_span_mode(SpanMode::PerOp)
            .run(&probe_trace, policy);
        // A mid-run boundary: the last client's first token lands while
        // the other decodes are still in flight.
        let boundary = probe
            .requests
            .iter()
            .map(|r| r.first_token_at)
            .max()
            .expect("probe served requests");
        assert!(boundary > SimTime::ZERO);
        let mut arrivals: Vec<RequestArrival> = (0..3)
            .map(|_| RequestArrival {
                at: SimTime::ZERO,
                shape,
            })
            .collect();
        arrivals.push(RequestArrival {
            at: boundary,
            shape: RequestShape::new(100, 3),
        });
        let trace = ArrivalTrace::Open(arrivals);
        let reference = ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
            .with_span_mode(SpanMode::PerOp)
            .run(&trace, policy);
        for mode in SPAN_MODES {
            let replayed = ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
                .with_span_mode(mode)
                .run(&trace, policy);
            assert_eq!(reference, replayed, "{policy:?} {mode:?}");
        }
    }
}

/// Mixed request shapes: prompt lengths spread the per-token attention
/// cost (and, with prefill modelled, the TTFT), decode lengths leave
/// room for a deadline to land mid-decode.
const SPACED_SHAPES: [(usize, usize); 4] = [(64, 10), (900, 3), (300, 7), (1500, 5)];

/// Open traces where a request mostly runs alone, so solo spans carry
/// most tokens: a low-rate Poisson trace, and a hand-built one whose
/// gaps mix lone decodes with a few overlapping pairs.
fn spaced_traces() -> Vec<ArrivalTrace> {
    let shape = |i: usize| {
        let (prompt, tokens) = SPACED_SHAPES[i % SPACED_SHAPES.len()];
        RequestShape::new(prompt, tokens)
    };
    let mut poisson = match ArrivalTrace::poisson(0.04, 8, shape(0), 42) {
        ArrivalTrace::Open(arrivals) => arrivals,
        ArrivalTrace::ClosedLoop { .. } => unreachable!("poisson traces are open"),
    };
    for (i, a) in poisson.iter_mut().enumerate() {
        a.shape = shape(i);
    }
    let gapped = [0.0, 0.05, 30.0, 30.0005, 60.0, 90.0]
        .iter()
        .enumerate()
        .map(|(i, &at)| RequestArrival {
            at: SimTime::from_secs_f64(at),
            shape: shape(i + 1),
        })
        .collect();
    vec![ArrivalTrace::Open(poisson), ArrivalTrace::Open(gapped)]
}

/// A deadline halfway between the smallest and the median of `spans`:
/// the strict shed check fires for at least half of the requests —
/// lone ones included, not just those that queued — and not for the
/// fastest.
fn shedding_deadline(spans: impl Iterator<Item = SimTime>) -> SimTime {
    let mut spans: Vec<SimTime> = spans.collect();
    spans.sort();
    let (lo, median) = (spans[0], spans[spans.len() / 2]);
    assert!(
        median > lo,
        "probe latencies must differ to place a deadline"
    );
    lo + (median - lo) / 2
}

#[test]
fn faulted_solo_spans_are_bit_exact_across_the_spaced_matrix() {
    // Solo spans under fault injection draw each later token's fault
    // window on a stream copy and commit it on acceptance. Pin whole
    // reports against the per-op reference where solo spans actually
    // fire: spaced open traces, both per-op policies, both prefill
    // modes, a knee age (rereads) and a worn-out age (uncorrectables
    // derate bandwidth mid-span), with no deadline, a TTFT deadline, or
    // a total deadline. Deadlines sit between the fastest and the
    // median request of a deadline-free per-op probe, so some requests
    // are shed — the total deadline mid-decode — and some are not.
    let model = zoo::opt_6_7b();
    let cfg = SystemConfig::cambricon_s();
    let mut ttft_timeouts = 0;
    let mut deadline_sheds = 0;
    for trace in spaced_traces() {
        for policy in [SchedulePolicy::Fcfs, SchedulePolicy::RoundRobin] {
            for prefill in [PrefillMode::Off, PrefillMode::Modeled] {
                for age in [KNEE, FlashAge::worn_out()] {
                    let run = |fc: FaultConfig, mode: SpanMode| {
                        ServeEngine::new(cfg, model.clone())
                            .with_prefill(prefill)
                            .with_span_mode(mode)
                            .with_faults(FaultMode::Injected(fc))
                            .run(&trace, policy)
                    };
                    let base = FaultConfig::aged(age);
                    let probe = run(base, SpanMode::PerOp);
                    assert!(probe.reliability.page_rereads > 0, "{age:?}");
                    if age == FlashAge::worn_out() {
                        assert!(probe.reliability.uncorrectable_events > 0);
                    }
                    let ttft = shedding_deadline(probe.requests.iter().map(|r| r.ttft()));
                    let total =
                        shedding_deadline(probe.requests.iter().map(|r| r.finished - r.arrived));
                    for (ttft_dl, total_dl) in
                        [(None, None), (Some(ttft), None), (None, Some(total))]
                    {
                        let fc = base.with_deadlines(ttft_dl, total_dl);
                        let reference = run(fc, SpanMode::PerOp);
                        let rel = reference.reliability;
                        if ttft_dl.is_some() {
                            assert!(rel.ttft_timeouts > 0, "TTFT deadline shed nothing");
                        }
                        if total_dl.is_some() {
                            // Sheds happen only with tokens still owed:
                            // every one of these is mid-decode.
                            assert!(rel.deadline_sheds > 0, "total deadline shed nothing");
                        }
                        ttft_timeouts += rel.ttft_timeouts;
                        deadline_sheds += rel.deadline_sheds;
                        for mode in SPAN_MODES {
                            assert_eq!(
                                reference,
                                run(fc, mode),
                                "{policy:?} {prefill:?} {age:?} ttft={ttft_dl:?} total={total_dl:?} {mode:?}"
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(ttft_timeouts > 0 && deadline_sheds > 0);
}

#[test]
fn faulted_batched_spans_are_bit_exact_across_the_matrix() {
    // A batched span draws one fault window per step from the head
    // member's stream and ends at the first boundary at or after a
    // member's deadline. Pin whole reports against the per-op
    // reference for batch caps 1, 2 and 4 on Poisson, closed-loop and
    // burst traces, both prefill modes, a knee and a worn-out age, with
    // and without a total deadline. The deadline sits between the
    // fastest and the median request of a deadline-free probe (or
    // below every request when they all take equally long), so it
    // sheds mid-decode.
    let model = zoo::opt_6_7b();
    let cfg = SystemConfig::cambricon_s();
    let mixed = |at: Vec<SimTime>| {
        let arrivals = at
            .into_iter()
            .enumerate()
            .map(|(i, at)| {
                let (prompt, tokens) = SPACED_SHAPES[i % SPACED_SHAPES.len()];
                RequestArrival {
                    at,
                    shape: RequestShape::new(prompt, tokens),
                }
            })
            .collect();
        ArrivalTrace::Open(arrivals)
    };
    let ArrivalTrace::Open(poisson) = ArrivalTrace::poisson(1.0, 6, RequestShape::new(1, 1), 42)
    else {
        unreachable!("poisson traces are open");
    };
    let traces = [
        mixed(poisson.iter().map(|a| a.at).collect()),
        ArrivalTrace::closed_loop(3, 2, RequestShape::new(300, 7)),
        mixed(vec![SimTime::ZERO; 4]),
    ];
    let mut comparisons = 0;
    let mut deadline_sheds = 0;
    for trace in &traces {
        for max_batch in [1, 2, 4] {
            let policy = SchedulePolicy::ContinuousBatch { max_batch };
            for prefill in [PrefillMode::Off, PrefillMode::Modeled] {
                for age in [KNEE, FlashAge::worn_out()] {
                    let run = |fc: FaultConfig, mode: SpanMode| {
                        ServeEngine::new(cfg, model.clone())
                            .with_prefill(prefill)
                            .with_span_mode(mode)
                            .with_faults(FaultMode::Injected(fc))
                            .run(trace, policy)
                    };
                    let base = FaultConfig::aged(age);
                    let probe = run(base, SpanMode::PerOp);
                    assert!(probe.reliability.page_rereads > 0, "{age:?}");
                    let mut spans: Vec<SimTime> = probe
                        .requests
                        .iter()
                        .map(|r| r.finished - r.arrived)
                        .collect();
                    spans.sort();
                    let (lo, median) = (spans[0], spans[spans.len() / 2]);
                    let deadline = if median > lo {
                        lo + (median - lo) / 2
                    } else {
                        lo - lo / 4
                    };
                    for total in [None, Some(deadline)] {
                        let fc = base.with_deadlines(None, total);
                        let reference = run(fc, SpanMode::PerOp);
                        deadline_sheds += reference.reliability.deadline_sheds;
                        for mode in SPAN_MODES {
                            assert_eq!(
                                reference,
                                run(fc, mode),
                                "{trace:?} {max_batch} {prefill:?} {age:?} total={total:?} {mode:?}"
                            );
                            comparisons += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(comparisons, 216);
    assert!(deadline_sheds > 0);
}

#[test]
fn layer_period_jumps_are_bit_exact_at_their_edges() {
    // With spans on, the FCFS/RR loop jumps over the layers a lockstep
    // schedule repeats exactly; the per-op reference never jumps. Pin
    // whole reports where a jump must stop short or resume, on an OPT
    // and a Llama2 model (their layer templates differ):
    // * closed loops with two requests per client, so every departure
    //   and respawn arrival breaks the period and jumps must resume;
    // * a burst plus one arrival landing mid-layer inside the span a
    //   jump would otherwise skip;
    // * round-robin with a longer arrival landing mid-token, mid-layer,
    //   after the burst has locked step: it becomes the trailing
    //   reference while every earlier request is mid-token;
    // * round-robin at the ECC knee with a total deadline that sheds,
    //   where each token's fault time rides on its first flash op;
    // * prefill modelled, where a respawn's prefill holds the device;
    // * round-robin on a narrow model with long prompts, where a jump
    //   lands with a member queued for a resource under a key above
    //   the key of the member that holds it, whose next op needs that
    //   resource again: the two meet in one queue right after the
    //   landing, and only a jump that shifts the queued keys with the
    //   dispatch stamps pops them in the per-op order.
    let cfg = SystemConfig::cambricon_s();
    let shape = RequestShape::new(300, 12);
    let closed = ArrivalTrace::closed_loop(8, 2, shape);
    let rr = SchedulePolicy::RoundRobin;
    let check =
        |case: &str, engine: &dyn Fn(SpanMode) -> ServeEngine, trace: &ArrivalTrace, policy| {
            let reference = engine(SpanMode::PerOp).run(trace, policy);
            for mode in SPAN_MODES {
                assert_eq!(
                    reference,
                    engine(mode).run(trace, policy),
                    "{case} {policy:?} {mode:?}"
                );
            }
            reference
        };
    for model in [zoo::opt_6_7b(), zoo::llama2_7b()] {
        let plain = |mode| ServeEngine::new(cfg, model.clone()).with_span_mode(mode);
        let burst = ArrivalTrace::burst(6, shape);
        let first_token = plain(SpanMode::PerOp).run(&burst, rr).requests[0].first_token_at;
        let ArrivalTrace::Open(arrivals) = burst else {
            unreachable!("bursts are open");
        };
        let late = |at: SimTime, shape| {
            let late = RequestArrival {
                at: at + SimTime::from_picos(1),
                shape,
            };
            ArrivalTrace::Open(arrivals.iter().copied().chain([late]).collect())
        };
        let mid_jump = late(first_token / 2, RequestShape::new(100, 4));
        let handoff = late(first_token * 5 / 2, RequestShape::new(300, 16));
        check("trailing handoff", &plain, &handoff, rr);
        for policy in [SchedulePolicy::Fcfs, rr] {
            check("respawns", &plain, &closed, policy);
            check("mid-jump arrival", &plain, &mid_jump, policy);
        }
        let knee = |total| {
            move |mode| {
                plain(mode).with_faults(FaultMode::Injected(
                    FaultConfig::aged(KNEE).with_deadlines(None, total),
                ))
            }
        };
        // Lockstep requests finish close together, so cut them all
        // three quarters of the way through the fastest one's decode.
        let probe = knee(None)(SpanMode::PerOp).run(&closed, rr);
        let fastest = probe.requests.iter().map(|r| r.finished - r.arrived).min();
        let deadline = fastest.expect("the probe served requests") * 3 / 4;
        let shed = check("knee deadline", &knee(Some(deadline)), &closed, rr);
        assert!(
            shed.reliability.deadline_sheds > 0,
            "{}: nothing shed",
            model.name
        );
        let prefill = |mode| plain(mode).with_prefill(PrefillMode::Modeled);
        check("prefill", &prefill, &closed, rr);
    }
    // Attention over a 2,500-token context outlasts this model's weight
    // GeMVs on Cam-M at W4A16, which sets the meeting up.
    let narrow = llm_workload::ModelSpec {
        name: "narrow-OPT",
        family: llm_workload::Family::Opt,
        layers: 8,
        hidden: 1024,
        heads: 8,
        kv_heads: 8,
        ffn: 4096,
        vocab: 2048,
        max_seq: 8192,
    };
    let cfg = SystemConfig::cambricon_m().with_quant(Quant::W4A16);
    let meeting = |mode| ServeEngine::new(cfg, narrow.clone()).with_span_mode(mode);
    let long = ArrivalTrace::closed_loop(4, 1, RequestShape::new(2500, 4));
    check("queued keys meet", &meeting, &long, rr);
}

#[test]
fn span_cap_of_zero_tokens_panics_at_configuration() {
    let result = std::panic::catch_unwind(|| {
        ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
            .with_span_mode(SpanMode::Coalesced { max_span: 0 })
    });
    assert!(result.is_err(), "max_span: 0 must be rejected");
}
