//! Integration tests for fault-injected serving: the `FaultMode::Off`
//! no-op guarantee, fault-on latency dominance, deterministic replay,
//! deadline shedding, and graceful degradation under wear.

use cambricon_llm_repro::prelude::*;
use flash_sim::FlashAge;
use proptest::prelude::*;
use sim_core::SimTime;

fn engine(prefill: PrefillMode) -> ServeEngine {
    ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b()).with_prefill(prefill)
}

fn policies() -> [SchedulePolicy; 3] {
    [
        SchedulePolicy::Fcfs,
        SchedulePolicy::RoundRobin,
        SchedulePolicy::ContinuousBatch { max_batch: 4 },
    ]
}

fn trace(seed: u64) -> ArrivalTrace {
    ArrivalTrace::poisson(120.0, 5, RequestShape::new(96, 6), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `FaultMode::Off` is a true no-op: the report — latencies,
    /// counters, per-request timelines, traffic ledger — equals a build
    /// that never heard of faults, field for field.
    #[test]
    fn fault_mode_off_is_bit_identical_to_no_faults(seed in 0u64..1000) {
        for policy in policies() {
            for mode in [PrefillMode::Off, PrefillMode::Modeled] {
                let plain = engine(mode).run(&trace(seed), policy);
                let off = engine(mode)
                    .with_faults(FaultMode::Off)
                    .run(&trace(seed), policy);
                prop_assert_eq!(&plain, &off, "{:?}/{:?}", policy, mode);
            }
        }
    }

    /// Fault injection only ever adds flash time: with no deadlines
    /// configured (so the request population is identical), every
    /// latency percentile under faults dominates the fault-free run.
    #[test]
    fn fault_on_latencies_dominate_fault_off(seed in 0u64..1000) {
        let fc = FaultConfig::aged(FlashAge::worn_out());
        for policy in policies() {
            for mode in [PrefillMode::Off, PrefillMode::Modeled] {
                let base = engine(mode).run(&trace(seed), policy);
                let faulted = engine(mode)
                    .with_faults(FaultMode::Injected(fc))
                    .run(&trace(seed), policy);
                prop_assert_eq!(base.requests_served, faulted.requests_served);
                prop_assert!(faulted.ttft_p50_s >= base.ttft_p50_s);
                prop_assert!(faulted.ttft_p99_s >= base.ttft_p99_s);
                prop_assert!(faulted.p50_token_latency_s >= base.p50_token_latency_s);
                prop_assert!(faulted.p99_token_latency_s >= base.p99_token_latency_s);
                prop_assert!(faulted.makespan >= base.makespan);
                prop_assert!(faulted.reliability.page_rereads > 0,
                    "worn chip produced no rereads under {:?}/{:?}", policy, mode);
            }
        }
    }
}

#[test]
fn fault_runs_replay_exactly() {
    // Same engine, same trace, same fault seed → bit-identical reports,
    // reliability counters included.
    let fc = FaultConfig::aged(FlashAge::worn_out());
    for policy in policies() {
        let run = || {
            engine(PrefillMode::Modeled)
                .with_faults(FaultMode::Injected(fc))
                .run(&trace(7), policy)
        };
        assert_eq!(run(), run(), "{policy:?}");
    }
}

#[test]
fn deadline_sheds_are_counted_and_distinct_from_kv_rejections() {
    // A worn chip plus a tight total-latency deadline: requests shed
    // mid-decode land in the reliability ledger, not in `kv_rejections`
    // (admission-time capacity) and not among completed requests.
    let fc = FaultConfig::aged(FlashAge::worn_out())
        .with_deadlines(None, Some(SimTime::from_secs_f64(2.0)));
    for policy in policies() {
        let eng = engine(PrefillMode::Modeled).with_faults(FaultMode::Injected(fc));
        let rep = eng.run(&trace(3), policy);
        let rel = &rep.reliability;
        assert!(
            rel.total_sheds() > 0,
            "{policy:?}: worn chip met a 2 s deadline"
        );
        assert_eq!(rel.total_sheds(), rel.ttft_timeouts + rel.deadline_sheds);
        // Sheds never masquerade as KV rejections or completions.
        assert_eq!(rep.kv_rejections, 0, "{policy:?}");
        assert_eq!(rep.requests.len(), rep.requests_served, "{policy:?}");
        assert!(
            rep.requests_served + rel.total_sheds() as usize <= 5 + rel.total_sheds() as usize,
            "{policy:?}"
        );
        // Goodput only counts deadline-meeting completions.
        assert!(rel.goodput_requests as usize <= rep.requests_served);
        assert!(rel.goodput_tokens <= rep.tokens_served);
        assert!(rel.deadline_goodput_tps <= rep.tokens_per_sec);
    }
}

#[test]
fn ttft_deadline_sheds_before_total_deadline() {
    // With only a TTFT deadline configured, every shed is a TTFT
    // timeout; with only a total deadline, none are.
    let worn = FlashAge::worn_out();
    let ttft_only = FaultConfig::aged(worn).with_deadlines(Some(SimTime::from_secs_f64(1.0)), None);
    let total_only =
        FaultConfig::aged(worn).with_deadlines(None, Some(SimTime::from_secs_f64(2.0)));
    let eng = |fc| engine(PrefillMode::Modeled).with_faults(FaultMode::Injected(fc));
    let a = eng(ttft_only).run(&trace(5), SchedulePolicy::Fcfs);
    assert!(a.reliability.ttft_timeouts > 0);
    assert_eq!(a.reliability.deadline_sheds, 0);
    let b = eng(total_only).run(&trace(5), SchedulePolicy::Fcfs);
    assert_eq!(b.reliability.ttft_timeouts, 0);
}

#[test]
fn wear_degrades_gracefully_not_catastrophically() {
    // Fresh → worn: throughput decreases monotonically in wear, but
    // even the worn chip still serves every request (no crash, no
    // starvation) — the graceful-degradation contract.
    let ages = [
        FlashAge::fresh(),
        FlashAge {
            pe_cycles: 1500,
            retention_days: 180.0,
        },
        FlashAge::worn_out(),
    ];
    let mut last_tps = f64::INFINITY;
    for age in ages {
        let eng =
            engine(PrefillMode::Modeled).with_faults(FaultMode::Injected(FaultConfig::aged(age)));
        let rep = eng.run(&trace(11), SchedulePolicy::ContinuousBatch { max_batch: 4 });
        assert_eq!(rep.requests_served, 5, "wear must not drop requests");
        assert!(
            rep.tokens_per_sec <= last_tps,
            "throughput rose with wear: {} > {last_tps}",
            rep.tokens_per_sec
        );
        last_tps = rep.tokens_per_sec;
    }
}

#[test]
fn uncorrectable_events_derate_bandwidth() {
    // A worn chip accumulates uncorrectable reads; each marks a chip
    // degraded and the report exposes the lost bandwidth fraction.
    let eng = engine(PrefillMode::Off)
        .with_faults(FaultMode::Injected(FaultConfig::aged(FlashAge::worn_out())));
    let rel = eng.run(&trace(13), SchedulePolicy::Fcfs).reliability;
    assert!(rel.uncorrectable_events > 0);
    assert!(rel.degraded_chips > 0);
    assert!(rel.degraded_bandwidth_fraction > 0.0 && rel.degraded_bandwidth_fraction < 1.0);
    assert!(rel.fault_extra_flash_s > 0.0);
}

#[test]
fn wear_trajectory_finds_the_slo_cliff() {
    // The wear-trajectory driver: replay traffic day after day, feeding
    // read volume back into the age, until goodput drops below the SLO.
    // A fresh chip starts above the SLO and the driver reports a finite
    // day count for the violation.
    let cfg = SystemConfig::cambricon_s();
    let model = zoo::opt_6_7b();
    let tr = trace(17);
    let base = FaultConfig::default().with_deadlines(None, Some(SimTime::from_secs_f64(20.0)));
    let fresh = ServeEngine::new(cfg, model.clone())
        .with_prefill(PrefillMode::Modeled)
        .with_faults(FaultMode::Injected(base));
    let healthy_tps = fresh
        .run(&tr, SchedulePolicy::Fcfs)
        .reliability
        .deadline_goodput_tps;
    assert!(healthy_tps > 0.0);
    let wt = WearTrajectory {
        start: FlashAge::fresh(),
        days_per_step: 60.0,
        max_days: 3650.0,
        traffic_scale: 2000.0,
        bytes_per_pe: 1 << 30,
        slo_goodput_tps: healthy_tps * 0.5,
        base,
    };
    let rep = wt.run(cfg, &model, PrefillMode::Modeled, &tr, SchedulePolicy::Fcfs);
    assert!(!rep.points.is_empty());
    assert!(rep.points[0].goodput_tps >= wt.slo_goodput_tps);
    let days = rep
        .days_until_slo
        .expect("2000x-amplified traffic never wore the chip out within ten years");
    assert!(days > 0.0 && days <= wt.max_days);
    // `days` is only an upper bound: the crossing is bracketed by the
    // last sample that held and the first that broke, one step apart,
    // and the summary reports that bracket.
    let [.., held, broke] = &rep.points[..] else {
        panic!("a violation after day zero leaves two samples");
    };
    assert!(held.goodput_tps >= wt.slo_goodput_tps);
    assert!(broke.goodput_tps < wt.slo_goodput_tps);
    assert_eq!(broke.day, days);
    assert_eq!(broke.day - held.day, wt.days_per_step);
    let summary = rep.summary();
    let bracket = format!(
        "held through day {:.1}, violated by day {days:.1}",
        held.day
    );
    assert!(summary.contains(&bracket), "{summary}");
    // RBER grows monotonically along the trajectory.
    for w in rep.points.windows(2) {
        assert!(w[1].rber >= w[0].rber);
    }
}
