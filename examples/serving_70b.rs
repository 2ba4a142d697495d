//! Multi-request serving of Llama2-70B on Cambricon-LLM-L: the
//! personal-agent device suddenly has a family of users.
//!
//! Runs a single-request baseline, then fleets of concurrent closed-loop
//! clients, and prints the `ServeReport` for each — showing (a) per-token
//! latency degrading *sub-linearly* in concurrency because one request's
//! NPU/KV phase overlaps another's flash GeMV phase, and (b) the shared
//! GeMV cache simulating each distinct weight shape once for the whole
//! fleet. The same ladder is then re-run under continuous batching,
//! where one weight stream per batch step lifts throughput well past
//! the per-request FCFS plateau until the in-flash compute ceiling
//! binds (~2.9× here), with KV-capacity admission control gating what
//! joins the batch. Then an open-loop Poisson trace, the classic
//! serving study — then the same Poisson scenario as a Monte Carlo
//! batch across seeded arrival traces, turning the single-draw report
//! into mean ± 95% CI estimates — and finally a fleet ladder: the one
//! Poisson trace routed across 1, 2, and 4 device replicas behind a
//! cluster router, showing how replication drains the queueing that
//! dominates the single device's TTFT p99, and how the routing policy
//! (round-robin vs least-loaded vs session-affinity) moves that tail
//! on the identical trace.
//!
//! ```text
//! cargo run --release --example serving_70b [-- <tokens_per_request>]
//! ```

use cambricon_llm_repro::prelude::*;

fn main() {
    let tokens: usize = match std::env::args().nth(1) {
        None => 8,
        Some(a) => match a.parse() {
            Ok(t) if t >= 1 => t,
            _ => {
                eprintln!(
                    "usage: serving_70b [<tokens_per_request>] (a positive integer, got {a:?})"
                );
                std::process::exit(2);
            }
        },
    };
    let cfg = SystemConfig::cambricon_l();
    let model = zoo::llama2_70b();
    let prompt = 1000;
    println!(
        "Serving {} on {} ({} tokens/request, {prompt}-token prompts)\n",
        model, cfg.name, tokens
    );

    let engine = ServeEngine::new(cfg, model.clone());

    // Closed-loop concurrency ladder: 1 request is the paper's
    // single-user scenario; the rest is the multi-user extension.
    let shape = RequestShape::new(prompt, tokens);
    let mut single_latency = 0.0;
    println!(
        "{:<12} {:>9} {:>12} {:>12} {:>12} {:>11} {:>14}",
        "clients", "tok/s", "p50 ms/tok", "p99 ms/tok", "slowdown", "linear", "cache hit/miss"
    );
    println!("{}", "-".repeat(88));
    for clients in [1usize, 2, 4, 8] {
        let trace = ArrivalTrace::closed_loop(clients, 1, shape);
        let rep = engine.run(&trace, SchedulePolicy::RoundRobin);
        if clients == 1 {
            single_latency = rep.mean_token_latency_s;
        }
        let slowdown = rep.mean_token_latency_s / single_latency;
        println!(
            "{:<12} {:>9.2} {:>12.0} {:>12.0} {:>11.2}x {:>10}x {:>9}/{}",
            clients,
            rep.tokens_per_sec,
            rep.p50_token_latency_s * 1e3,
            rep.p99_token_latency_s * 1e3,
            slowdown,
            clients,
            rep.gemv_cache_hits,
            rep.gemv_cache_misses,
        );
    }

    // The same ladder under continuous batching: every rung walks the
    // plan in lockstep and streams the 70B weights once per batch step,
    // so throughput climbs past the per-request FCFS plateau until the
    // in-flash compute cores (sized to match the read rate at batch 1)
    // become the bottleneck. KV admission control reserves each
    // request's whole context in DRAM at the boundary it joins.
    println!("\nContinuous batching (max_batch = clients, KV-gated admission):");
    println!(
        "{:<12} {:>9} {:>12} {:>12} {:>12} {:>14} {:>8}",
        "clients", "tok/s", "p50 ms/tok", "p99 ms/tok", "vs FCFS", "occupancy", "kv-rej"
    );
    println!("{}", "-".repeat(88));
    for clients in [1usize, 2, 4, 8] {
        let trace = ArrivalTrace::closed_loop(clients, 1, shape);
        let fcfs = engine.run(&trace, SchedulePolicy::Fcfs);
        let rep = engine.run(
            &trace,
            SchedulePolicy::ContinuousBatch { max_batch: clients },
        );
        println!(
            "{:<12} {:>9.2} {:>12.0} {:>12.0} {:>11.2}x {:>7.2} (pk {}) {:>8}",
            clients,
            rep.tokens_per_sec,
            rep.p50_token_latency_s * 1e3,
            rep.p99_token_latency_s * 1e3,
            rep.tokens_per_sec / fcfs.tokens_per_sec,
            rep.mean_batch_occupancy,
            rep.peak_batch_occupancy,
            rep.kv_rejections,
        );
    }

    // The same ladder with prefill modeled: each joining prompt runs
    // its prefill stage (NPU GeMMs overlapped with the one-shot weight
    // stream), holding both resources — so TTFT is arrival-relative
    // and, for 1000-token 70B prompts on a 2-TOPS NPU, dominated by
    // prefill compute. This is the honest first-token latency the
    // decode-only ladder above hides.
    println!("\nWith prefill modeled (TTFT = queue + prefill + first token):");
    let prefill_engine = ServeEngine::new(cfg, model.clone()).with_prefill(PrefillMode::Modeled);
    println!(
        "{:<12} {:>9} {:>12} {:>12} {:>14} {:>14}",
        "clients", "tok/s", "ttft p50 s", "ttft p99 s", "decode-ttft s", "prefill busy s"
    );
    println!("{}", "-".repeat(88));
    for clients in [1usize, 2, 4] {
        let trace = ArrivalTrace::closed_loop(clients, 1, shape);
        let rep = prefill_engine.run(&trace, SchedulePolicy::RoundRobin);
        println!(
            "{:<12} {:>9.3} {:>12.1} {:>12.1} {:>14.2} {:>14.1}",
            clients,
            rep.tokens_per_sec,
            rep.ttft_p50_s,
            rep.ttft_p99_s,
            rep.decode_ttft_s.mean().unwrap_or(0.0),
            rep.prefill_busy_s,
        );
    }

    // Open-loop Poisson arrivals near the device's service rate.
    println!("\nOpen-loop Poisson trace (8 requests, ~0.4 req/s), FCFS vs round-robin vs batched:");
    let trace = ArrivalTrace::poisson(0.4, 8, shape, 2024);
    for policy in [
        SchedulePolicy::Fcfs,
        SchedulePolicy::RoundRobin,
        SchedulePolicy::ContinuousBatch { max_batch: 4 },
    ] {
        let rep = engine.run(&trace, policy);
        println!("\n[{policy:?}]");
        println!("{}", rep.summary());
    }

    // The same Poisson scenario as a distribution, not a draw: 8
    // arrival traces derived from one root seed, every seed replayed
    // on one table priced for all eight traces up front. The CI
    // half-widths
    // are what the single-trace reports above cannot give.
    println!("\nMonte Carlo across 8 seeded arrival traces (batched policy):");
    let mc = MonteCarlo::new(8, 2024);
    let report = mc.run(
        &engine,
        SchedulePolicy::ContinuousBatch { max_batch: 4 },
        |seed| ArrivalTrace::poisson(0.4, 8, shape, seed),
    );
    println!("{}", report.summary());

    // Fleet ladder: the same heavy Poisson trace routed across 1, 2,
    // and 4 replicas of the device behind a cluster router with 50 us
    // interconnect hops. One device drowns (TTFT p99 is pure queueing);
    // each doubling of the fleet thins every replica's arrivals and the
    // tail collapses. The router-policy rows then hold the fleet at 4
    // replicas and change only the dispatch decision — session affinity
    // (3 sessions on 4 replicas) deliberately trades balance for
    // locality, and the imbalance shows up straight in the tail.
    println!("\nFleet ladder (16 Poisson arrivals at 0.4 req/s, FCFS devices, 50 us hops):");
    let fleet_trace = ArrivalTrace::poisson(0.4, 16, shape, 2024);
    println!(
        "{:<12} {:<18} {:>9} {:>12} {:>12} {:>11}",
        "replicas", "router", "tok/s", "ttft p50 s", "ttft p99 s", "imbalance"
    );
    println!("{}", "-".repeat(88));
    let mut rows = vec![
        (1usize, RouterPolicy::RoundRobin),
        (2, RouterPolicy::RoundRobin),
        (4, RouterPolicy::RoundRobin),
        (4, RouterPolicy::LeastLoaded),
        (4, RouterPolicy::SessionAffinity { sessions: 3 }),
    ];
    for (replicas, router) in rows.drain(..) {
        let fleet = FleetEngine::new(DeviceEngine::new(cfg, model.clone()), replicas)
            .with_router(router)
            .with_interconnect(Interconnect::symmetric(sim_core::SimTime::from_micros(50)));
        let rep = fleet.run(&fleet_trace, SchedulePolicy::Fcfs);
        println!(
            "{:<12} {:<18} {:>9.2} {:>12.2} {:>12.2} {:>10.2}x",
            replicas,
            router.label(),
            rep.tokens_per_sec,
            rep.ttft_p50_s,
            rep.ttft_p99_s,
            rep.load_imbalance,
        );
    }
}
