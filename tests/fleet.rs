//! Fleet-scale serving invariants: the single-replica fleet golden
//! (router + interconnect at zero cost must reproduce a cold
//! `DeviceEngine::run` bit for bit, cache counters aside), worker-count
//! independence of the merged report, and a proptest pinning the
//! cluster aggregates to the deterministic replica-major merge of the
//! per-replica reports.

use cambricon_llm_repro::prelude::*;
use flash_sim::FlashAge;
use llm_workload::RequestArrival;
use proptest::prelude::*;
use sim_core::{Samples, SimTime};

fn device(prefill: PrefillMode) -> DeviceEngine {
    DeviceEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b()).with_prefill(prefill)
}

fn poisson(rate: f64, n: usize, seed: u64) -> ArrivalTrace {
    ArrivalTrace::poisson(rate, n, RequestShape::new(128, 4), seed)
}

/// `report` with its four cache counters taken from `reference`. A
/// fleet prices from a clone of one pre-warmed system, which changes
/// only cache accounting — the trade `MonteCarlo` makes too — so every
/// other field must equal a cold `DeviceEngine::run`.
fn with_cache_counters_of(mut report: ServeReport, reference: &ServeReport) -> ServeReport {
    report.gemv_cache_hits = reference.gemv_cache_hits;
    report.gemv_cache_misses = reference.gemv_cache_misses;
    report.op_cost_cache_hits = reference.op_cost_cache_hits;
    report.op_cost_cache_misses = reference.op_cost_cache_misses;
    report
}

/// A one-replica fleet with a free interconnect is the identity
/// wrapper: every field of its single replica report but the cache
/// counters — virtual timestamps, utilizations, traffic — must equal a
/// cold `DeviceEngine::run` on the same trace, for every schedule
/// policy and prefill mode. Pins the admission/trace-feeding move from
/// the device loop up to the scheduler boundary as a pure refactor.
#[test]
fn one_replica_fleet_reproduces_serve_engine_bit_for_bit() {
    let policies = [
        SchedulePolicy::Fcfs,
        SchedulePolicy::RoundRobin,
        SchedulePolicy::ContinuousBatch { max_batch: 4 },
    ];
    let trace = poisson(30.0, 10, 42);
    for prefill in [PrefillMode::Off, PrefillMode::Modeled] {
        for policy in policies {
            let solo = device(prefill).run(&trace, policy);
            let fleet = FleetEngine::new(device(prefill), 1).run(&trace, policy);
            assert_eq!(
                with_cache_counters_of(fleet.per_replica[0].clone(), &solo),
                solo,
                "fleet wrapper drifted from DeviceEngine ({policy:?}, {prefill:?})"
            );
            assert_eq!(fleet.requests_served, solo.requests_served);
            assert_eq!(fleet.tokens_served, solo.tokens_served);
            assert_eq!(fleet.load_imbalance, 1.0);
        }
    }
}

/// Warm-system sharing may only change cache accounting: each replica
/// of a round-robin fleet with zero hops must report what a cold
/// `DeviceEngine::run` reports on its routed sub-trace — every
/// simulated timestamp, utilization, and traffic number.
#[test]
fn warm_sharing_changes_only_cache_counters() {
    let replicas = 2;
    let trace = poisson(40.0, 12, 7);
    let policy = SchedulePolicy::Fcfs;
    let fleet = FleetEngine::new(device(PrefillMode::Off), replicas).run(&trace, policy);
    // Round-robin with zero hops: the router deals the time-ordered
    // arrivals out in turn, unshifted.
    let ArrivalTrace::Open(mut arrivals) = trace else {
        unreachable!("poisson traces are open");
    };
    arrivals.sort_by_key(|a| a.at);
    assert_eq!(fleet.per_replica.len(), replicas);
    for (i, warm) in fleet.per_replica.iter().enumerate() {
        let routed = arrivals.iter().skip(i).step_by(replicas).copied().collect();
        let cold = device(PrefillMode::Off).run(&ArrivalTrace::Open(routed), policy);
        assert!(!cold.requests.is_empty());
        assert_eq!(
            with_cache_counters_of(warm.clone(), &cold),
            cold,
            "replica {i} drifted from a cold run under warm sharing"
        );
    }
}

/// The merged report is bit-identical at any worker-thread count —
/// replica runs are independent between router boundaries and the
/// merge reads them positionally, so threading only trades wall-clock.
/// Faults are on so the per-replica seed derivation is exercised too.
#[test]
fn fleet_report_is_bit_identical_at_any_thread_count() {
    let trace = poisson(60.0, 16, 99);
    let policy = SchedulePolicy::RoundRobin;
    let faults = FaultMode::Injected(FaultConfig::aged(FlashAge::worn_out()));
    let run = |threads: usize| {
        FleetEngine::new(device(PrefillMode::Off).with_faults(faults), 4)
            .with_router(RouterPolicy::LeastLoaded)
            .with_interconnect(Interconnect::symmetric(SimTime::from_micros(20)))
            .with_threads(threads)
            .run(&trace, policy)
    };
    let one = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            run(threads),
            one,
            "report drifted at {threads} worker threads"
        );
    }
}

/// Distinct replicas must draw from distinct fault streams: with
/// faults injected, at least two replicas of a routed fleet should
/// disagree on reread counts or timings (split seeds, not clones).
/// Mid-life wear keeps the per-window ECC failure probability strictly
/// inside (0, 1) — at `worn_out()` it saturates and the reread cascade
/// goes deterministic, which would hide a shared stream.
#[test]
fn fault_streams_differ_across_replicas() {
    let trace = ArrivalTrace::poisson(80.0, 24, RequestShape::new(512, 8), 5);
    let mid_life = FlashAge {
        pe_cycles: 1_200,
        retention_days: 60.0,
    };
    let engine =
        device(PrefillMode::Off).with_faults(FaultMode::Injected(FaultConfig::aged(mid_life)));
    let fleet = FleetEngine::new(engine, 2).run(&trace, SchedulePolicy::Fcfs);
    let a = &fleet.per_replica[0].reliability;
    let b = &fleet.per_replica[1].reliability;
    assert_ne!(
        (a.page_rereads, a.fault_extra_flash_s.to_bits()),
        (b.page_rereads, b.fault_extra_flash_s.to_bits()),
        "replicas replayed the same fault stream"
    );
}

/// A deadline shed after the last completion ends the cluster
/// makespan, as it ends the replica's: a one-replica fleet spans its
/// replica's makespan plus both hops, whatever the hop cost.
#[test]
fn cluster_makespan_covers_a_late_shed() {
    let at_zero = |tokens| RequestArrival {
        at: SimTime::ZERO,
        shape: RequestShape::new(64, tokens),
    };
    let alone =
        device(PrefillMode::Off).run(&ArrivalTrace::Open(vec![at_zero(40)]), SchedulePolicy::Fcfs);
    let token_time = alone.makespan.as_picos() / 40;
    let fc = FaultConfig::aged(FlashAge::fresh())
        .with_deadlines(None, Some(SimTime::from_picos(6 * token_time)));
    let trace = ArrivalTrace::Open(vec![at_zero(2), at_zero(40)]);
    for hop_us in [0, 20] {
        let interconnect = Interconnect::symmetric(SimTime::from_micros(hop_us));
        let fleet = FleetEngine::new(
            device(PrefillMode::Off).with_faults(FaultMode::Injected(fc)),
            1,
        )
        .with_interconnect(interconnect)
        .run(&trace, SchedulePolicy::Fcfs);
        let replica = &fleet.per_replica[0];
        assert_eq!(replica.requests_served, 1);
        assert_eq!(replica.reliability.deadline_sheds, 1);
        let shed = replica
            .reliability
            .last_shed
            .expect("the long request is shed");
        assert!(
            shed > replica.requests[0].finished,
            "the shed is the last exit"
        );
        assert_eq!(
            fleet.makespan,
            replica.makespan + interconnect.dispatch_hop + interconnect.response_hop,
            "{hop_us} us hops"
        );
    }
}

/// A deadline shed before the first completion starts the cluster
/// makespan, as it starts the replica's: an early request shed at its
/// TTFT deadline, then a later one completing, still spans the
/// replica's makespan plus both hops.
#[test]
fn cluster_makespan_starts_at_an_early_shed() {
    let long_prompt = RequestArrival {
        at: SimTime::ZERO,
        shape: RequestShape::new(1500, 4),
    };
    let late = |at| RequestArrival {
        at,
        shape: RequestShape::new(0, 4),
    };
    let ttft_alone = |arrival: RequestArrival| {
        let mut arrival = arrival;
        arrival.at = SimTime::ZERO;
        device(PrefillMode::Modeled)
            .run(&ArrivalTrace::Open(vec![arrival]), SchedulePolicy::Fcfs)
            .requests[0]
            .ttft()
    };
    let (slow, fast) = (ttft_alone(long_prompt), ttft_alone(late(SimTime::ZERO)));
    assert!(fast < slow, "a prompt-free request answers first");
    let fc =
        FaultConfig::aged(FlashAge::fresh()).with_deadlines(Some(fast + (slow - fast) / 2), None);
    // The late request arrives long after the early one is shed.
    let trace = ArrivalTrace::Open(vec![long_prompt, late(slow * 4)]);
    for hop_us in [0, 20] {
        let interconnect = Interconnect::symmetric(SimTime::from_micros(hop_us));
        let fleet = FleetEngine::new(
            device(PrefillMode::Modeled).with_faults(FaultMode::Injected(fc)),
            1,
        )
        .with_interconnect(interconnect)
        .run(&trace, SchedulePolicy::Fcfs);
        let replica = &fleet.per_replica[0];
        assert_eq!(replica.requests_served, 1);
        assert_eq!(replica.reliability.ttft_timeouts, 1);
        assert!(
            replica.requests[0].arrived > replica.reliability.last_shed.expect("a shed"),
            "the completed request arrives after the shed"
        );
        assert_eq!(
            fleet.makespan,
            replica.makespan + interconnect.dispatch_hop + interconnect.response_hop,
            "{hop_us} us hops"
        );
    }
}

/// Recomputes the replica-major merge of a [`FleetReport`] from its
/// `per_replica` reports, in the exact operation order the engine
/// uses, so equality is bit-for-bit.
fn remerge(report: &FleetReport) -> (usize, u64, u64, SimTime, f64, [f64; 5], f64) {
    let round_trip = report.interconnect.dispatch_hop + report.interconnect.response_hop;
    let mut ttft = Samples::new();
    let mut token_latency = Samples::new();
    let mut first_arrival: Option<SimTime> = None;
    let mut last_exit = SimTime::ZERO;
    for rep in &report.per_replica {
        let replica_end = rep.requests.last().map(|r| r.finished);
        if let Some(end) = replica_end.max(rep.reliability.last_shed) {
            let start = (end - rep.makespan).saturating_sub(report.interconnect.dispatch_hop);
            first_arrival = Some(first_arrival.map_or(start, |f| f.min(start)));
        }
        if let Some(shed) = rep.reliability.last_shed {
            last_exit = last_exit.max(shed + report.interconnect.response_hop);
        }
        for r in &rep.requests {
            ttft.push((r.ttft() + round_trip).as_secs_f64());
            token_latency.push(r.mean_token_latency().as_secs_f64());
            last_exit = last_exit.max(r.finished + report.interconnect.response_hop);
        }
    }
    let makespan = first_arrival.map_or(SimTime::ZERO, |f| last_exit.saturating_sub(f));
    let horizon = makespan.as_secs_f64();
    let requests: usize = report.per_replica.iter().map(|r| r.requests_served).sum();
    let tokens: u64 = report.per_replica.iter().map(|r| r.tokens_served).sum();
    let goodput: u64 = report
        .per_replica
        .iter()
        .map(|r| r.reliability.goodput_tokens)
        .sum();
    let peak = report
        .per_replica
        .iter()
        .map(|r| r.tokens_served)
        .max()
        .unwrap_or(0);
    let mean = tokens as f64 / report.replicas as f64;
    let imbalance = if mean > 0.0 { peak as f64 / mean } else { 1.0 };
    (
        requests,
        tokens,
        goodput,
        makespan,
        if horizon > 0.0 {
            tokens as f64 / horizon
        } else {
            0.0
        },
        [
            ttft.percentile(50.0).unwrap_or(0.0),
            ttft.percentile(99.0).unwrap_or(0.0),
            ttft.mean().unwrap_or(0.0),
            token_latency.percentile(50.0).unwrap_or(0.0),
            token_latency.percentile(99.0).unwrap_or(0.0),
        ],
        imbalance,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cluster aggregates are a pure function of the per-replica
    /// reports: recomputing the merge must reproduce every aggregate
    /// exactly, for any replica count, router policy, and hop cost.
    #[test]
    fn cluster_aggregates_equal_replica_merge(
        seed in 0u64..1_000,
        n in 4usize..14,
        replicas in 1usize..5,
        router_pick in 0usize..3,
        hop_us in 0u64..100,
    ) {
        let router = match router_pick {
            0 => RouterPolicy::RoundRobin,
            1 => RouterPolicy::LeastLoaded,
            _ => RouterPolicy::SessionAffinity { sessions: 3 },
        };
        let trace = poisson(50.0, n, seed);
        let report = FleetEngine::new(device(PrefillMode::Off), replicas)
            .with_router(router)
            .with_interconnect(Interconnect::symmetric(SimTime::from_micros(hop_us)))
            .run(&trace, SchedulePolicy::Fcfs);

        let (requests, tokens, goodput, makespan, tps, latencies, imbalance) =
            remerge(&report);
        prop_assert_eq!(report.requests_served, requests);
        prop_assert_eq!(report.requests_served, n);
        prop_assert_eq!(report.tokens_served, tokens);
        prop_assert_eq!(report.goodput_tokens, goodput);
        prop_assert_eq!(report.makespan, makespan);
        prop_assert_eq!(report.tokens_per_sec, tps);
        prop_assert_eq!(report.ttft_p50_s, latencies[0]);
        prop_assert_eq!(report.ttft_p99_s, latencies[1]);
        prop_assert_eq!(report.ttft_mean_s, latencies[2]);
        prop_assert_eq!(report.token_latency_p50_s, latencies[3]);
        prop_assert_eq!(report.token_latency_p99_s, latencies[4]);
        prop_assert_eq!(report.load_imbalance, imbalance);
    }
}
