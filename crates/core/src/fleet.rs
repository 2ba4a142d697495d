//! Fleet-scale serving: N device replicas behind a cluster router.
//!
//! One [`DeviceEngine`] models one flash/NPU device. This module
//! composes **N replicas** of that device under a cluster-level
//! router, fed by a single heavy arrival trace — the "millions of
//! users" direction of the roadmap. The composition runs in two
//! phases, joined at the router boundary:
//!
//! 1. **Routing** — a single fold over the trace in `(time,
//!    arrival-order)` sequence: the [`RouterPolicy`] picks a replica
//!    for each arrival, which lands in that replica's inbox one
//!    dispatch hop later. The router's state depends only on arrival
//!    order and the hop is constant, so every inbox is already in
//!    delivery order. Admission and trace-feeding thus live *above*
//!    the device: a replica only ever sees its own routed sub-trace,
//!    with arrival timestamps already shifted by the dispatch hop.
//! 2. **Execution** — between router boundaries the replicas share
//!    nothing, so each replica's [`DeviceEngine`] runs its sub-trace
//!    to completion on its own scoped thread
//!    ([`sim_core::parallel_map`] machinery), every replica starting
//!    from a clone of one pre-warmed pricing [`System`] exactly the
//!    way the Monte Carlo harness shares one warm system across seeds.
//!    Results merge deterministically in replica order into a
//!    [`FleetReport`].
//!
//! # Determinism
//!
//! The report is a pure function of `(engine, trace, policies)`:
//! routing is a single-threaded fold in `(time, arrival-order)`
//! sequence, replica runs are independent, and the merge reads the
//! positional results in replica order — so the fleet is **bit-identical
//! at any worker count** ([`FleetEngine::with_threads`]), the same
//! contract `MonteCarlo` pins per seed. Per-replica fault streams are
//! derived with [`SplitMix64::split_seeds`] — never `seed + replica`
//! arithmetic, which would hand adjacent replicas overlapping
//! sequences (the D1 seed-hygiene rule, machine-checked by simlint).
//!
//! # Example
//!
//! ```
//! use cambricon_llm::fleet::{FleetEngine, RouterPolicy};
//! use cambricon_llm::serve::{DeviceEngine, SchedulePolicy};
//! use cambricon_llm::SystemConfig;
//! use llm_workload::{zoo, ArrivalTrace, RequestShape};
//!
//! let device = DeviceEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b());
//! let fleet = FleetEngine::new(device, 2).with_router(RouterPolicy::RoundRobin);
//! let trace = ArrivalTrace::poisson(50.0, 8, RequestShape::new(128, 4), 7);
//! let report = fleet.run(&trace, SchedulePolicy::Fcfs);
//! assert_eq!(report.requests_served, 8);
//! assert_eq!(report.per_replica.len(), 2);
//! ```

use crate::reliability::FaultMode;
use crate::serve::{DeviceEngine, SchedulePolicy, ServeReport};
use crate::system::System;
use llm_workload::{ArrivalTrace, RequestArrival, RequestShape};
use sim_core::{parallel_map_workers, Samples, SimTime, SplitMix64};

/// How the cluster router picks a replica for each arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Dispatch arrivals to replicas in rotation, ignoring shape.
    RoundRobin,
    /// Dispatch to the replica with the least *booked* work: the
    /// router tracks the total tokens (prompt + decode) it has
    /// assigned to each replica and picks the minimum, lowest index on
    /// ties. The router sits across the interconnect from the devices,
    /// so it balances what it booked, not device-internal telemetry —
    /// a join-least-work approximation of least-loaded that, unlike
    /// round-robin, sees heterogeneous request shapes.
    LeastLoaded,
    /// Pin conversational sessions to replicas (KV/prefix locality).
    /// Open traces carry no session ids, so arrivals are striped into
    /// `sessions` sessions in arrival order (`i % sessions`), and each
    /// session is pinned to replica `session % replicas`. When
    /// `sessions` is not a multiple of the replica count this is
    /// deliberately imbalanced — affinity trades balance for locality.
    SessionAffinity {
        /// Number of distinct sessions striped across the trace.
        sessions: usize,
    },
}

impl RouterPolicy {
    /// Short stable label for benches and tables.
    pub fn label(&self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::LeastLoaded => "least-loaded",
            RouterPolicy::SessionAffinity { .. } => "session-affinity",
        }
    }
}

/// Explicit cluster interconnect cost between router and replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interconnect {
    /// Wire time for a dispatched request (router → replica): every
    /// routed arrival reaches its replica this much later than it hit
    /// the cluster.
    pub dispatch_hop: SimTime,
    /// Wire time for a response (replica → router): added on top of
    /// device completion times for every cluster-visible latency.
    pub response_hop: SimTime,
}

impl Interconnect {
    /// A free interconnect (both hops zero) — the fleet timeline
    /// degenerates to the device timeline, which is what the
    /// single-replica golden pins against [`DeviceEngine::run`].
    pub const ZERO: Interconnect = Interconnect {
        dispatch_hop: SimTime::ZERO,
        response_hop: SimTime::ZERO,
    };

    /// Equal cost in both directions.
    pub fn symmetric(hop: SimTime) -> Self {
        Interconnect {
            dispatch_hop: hop,
            response_hop: hop,
        }
    }
}

/// N replica [`DeviceEngine`]s behind a [`RouterPolicy`], joined by an
/// explicit [`Interconnect`]. See the [module docs](self) for the
/// two-phase composition and its determinism contract.
#[derive(Debug)]
pub struct FleetEngine {
    device: DeviceEngine,
    replicas: usize,
    router: RouterPolicy,
    interconnect: Interconnect,
    threads: Option<usize>,
}

impl FleetEngine {
    /// A fleet of `replicas` copies of `device` behind a round-robin
    /// router with a free interconnect.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    pub fn new(device: DeviceEngine, replicas: usize) -> Self {
        assert!(replicas >= 1, "a fleet needs at least one replica");
        FleetEngine {
            device,
            replicas,
            router: RouterPolicy::RoundRobin,
            interconnect: Interconnect::ZERO,
            threads: None,
        }
    }

    /// Sets the routing policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy is [`RouterPolicy::SessionAffinity`] with
    /// `sessions == 0` (there must be at least one session to pin).
    pub fn with_router(mut self, policy: RouterPolicy) -> Self {
        if let RouterPolicy::SessionAffinity { sessions } = policy {
            assert!(sessions >= 1, "session affinity needs at least one session");
        }
        self.router = policy;
        self
    }

    /// Sets the interconnect hop costs.
    pub fn with_interconnect(mut self, interconnect: Interconnect) -> Self {
        self.interconnect = interconnect;
        self
    }

    /// Pins the replica worker-thread count (default: one per
    /// available core, capped at the replica count). Reports are
    /// bit-identical at any value; this only trades wall-clock.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The template device every replica copies.
    pub fn device(&self) -> &DeviceEngine {
        &self.device
    }

    /// Runs one open arrival trace across the fleet under `policy` on
    /// every replica, and merges the per-replica reports.
    ///
    /// # Panics
    ///
    /// Panics on a closed-loop trace: closed-loop clients couple their
    /// next arrival to a completion on one device, so they cannot be
    /// pre-routed across independent replicas. Feed the fleet an open
    /// trace (Poisson, burst, or hand-built).
    pub fn run(&self, trace: &ArrivalTrace, policy: SchedulePolicy) -> FleetReport {
        let arrivals: Vec<RequestArrival> = match trace {
            ArrivalTrace::Open(v) => {
                let mut a = v.clone();
                // Stable by time: simultaneous arrivals keep their
                // trace order, matching the device event core's
                // (time, schedule-order) FIFO.
                a.sort_by_key(|r| r.at);
                a
            }
            ArrivalTrace::ClosedLoop { .. } => panic!(
                "closed-loop traces are client-coupled to one device; \
                 fleet routing requires an open trace"
            ),
        };

        let inboxes = self.route(&arrivals);
        let subtraces: Vec<ArrivalTrace> = inboxes.into_iter().map(ArrivalTrace::Open).collect();
        let engines = self.replica_engines();
        let engine_for = |i: usize| engines.as_ref().map_or(&self.device, |v| &v[i]);

        let workers = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        let warm = self.warm_system(&arrivals, engine_for(0), policy);
        let per_replica: Vec<ServeReport> = parallel_map_workers(&subtraces, workers, |i, sub| {
            engine_for(i).run_with_system(sub, policy, warm.clone()).0
        });

        self.merge(policy, per_replica)
    }

    /// Routes `arrivals` (already in `(time, order)` sequence) to one
    /// delivered sub-trace per replica, each arrival shifted by the
    /// dispatch hop.
    fn route(&self, arrivals: &[RequestArrival]) -> Vec<Vec<RequestArrival>> {
        let mut router = RouterState::new(self.router, self.replicas);
        let mut inboxes = vec![Vec::new(); self.replicas];
        for a in arrivals {
            inboxes[router.route(a.shape)].push(RequestArrival {
                at: a.at + self.interconnect.dispatch_hop,
                shape: a.shape,
            });
        }
        inboxes
    }

    /// Per-replica engines, or `None` when every replica can share the
    /// template. Only fault injection needs distinct replicas: each
    /// gets its own stream seed via [`SplitMix64::split_seeds`] so no
    /// two replicas replay correlated fault draws.
    fn replica_engines(&self) -> Option<Vec<DeviceEngine>> {
        let FaultMode::Injected(base) = self.device.fault_mode() else {
            return None;
        };
        let seeds = SplitMix64::split_seeds(base.seed, self.replicas);
        Some(
            seeds
                .into_iter()
                .map(|replica_seed| {
                    let mut cfg = base;
                    cfg.seed = replica_seed;
                    self.device.clone().with_faults(FaultMode::Injected(cfg))
                })
                .collect(),
        )
    }

    /// One pre-warmed pricing system for every replica to clone: a
    /// single-request probe walks one decode token (plus prefill, when
    /// modeled) so the seq-invariant weight GeMVs — the expensive
    /// flash discrete-event simulations, shared by every replica — are
    /// priced once, then the counters are zeroed so replica reports
    /// stay comparable. The same warm-clone pattern as `MonteCarlo`.
    fn warm_system(
        &self,
        arrivals: &[RequestArrival],
        engine: &DeviceEngine,
        policy: SchedulePolicy,
    ) -> System {
        let mut system = System::new(self.device.config());
        if let Some(first) = arrivals.first() {
            let probe =
                ArrivalTrace::closed_loop(1, 1, RequestShape::new(first.shape.prompt_len, 1));
            system = engine.run_with_system(&probe, policy, system).1;
        }
        system.reset_cache_stats();
        system
    }

    /// Deterministic merge: reads the positional per-replica reports
    /// in replica order and derives every cluster aggregate.
    fn merge(&self, policy: SchedulePolicy, per_replica: Vec<ServeReport>) -> FleetReport {
        let round_trip = self.interconnect.dispatch_hop + self.interconnect.response_hop;
        let mut ttft = Samples::new();
        let mut token_latency = Samples::new();
        let mut first_arrival: Option<SimTime> = None;
        let mut last_exit = SimTime::ZERO;
        for rep in &per_replica {
            // The replica's service starts at its first admitted
            // arrival, shed or not: its makespan runs from there to its
            // last completion or shed. The cluster saw that arrival one
            // dispatch hop earlier.
            let replica_end = rep.requests.last().map(|r| r.finished);
            if let Some(end) = replica_end.max(rep.reliability.last_shed) {
                let start = (end - rep.makespan).saturating_sub(self.interconnect.dispatch_hop);
                first_arrival = Some(first_arrival.map_or(start, |f| f.min(start)));
            }
            // A shed is answered over the return hop like a completion,
            // and the replica's work on it stays inside the horizon.
            if let Some(shed) = rep.reliability.last_shed {
                last_exit = last_exit.max(shed + self.interconnect.response_hop);
            }
            for r in &rep.requests {
                ttft.push((r.ttft() + round_trip).as_secs_f64());
                token_latency.push(r.mean_token_latency().as_secs_f64());
                last_exit = last_exit.max(r.finished + self.interconnect.response_hop);
            }
        }
        let makespan = match first_arrival {
            Some(first) => last_exit.saturating_sub(first),
            None => SimTime::ZERO,
        };
        let horizon = makespan.as_secs_f64();

        let requests_served: usize = per_replica.iter().map(|r| r.requests_served).sum();
        let tokens_served: u64 = per_replica.iter().map(|r| r.tokens_served).sum();
        let kv_rejections: u64 = per_replica.iter().map(|r| r.kv_rejections).sum();
        let goodput_requests: u64 = per_replica
            .iter()
            .map(|r| r.reliability.goodput_requests)
            .sum();
        let goodput_tokens: u64 = per_replica
            .iter()
            .map(|r| r.reliability.goodput_tokens)
            .sum();

        let peak = per_replica
            .iter()
            .map(|r| r.tokens_served)
            .max()
            .unwrap_or(0);
        let mean = tokens_served as f64 / self.replicas as f64;
        let load_imbalance = if mean > 0.0 { peak as f64 / mean } else { 1.0 };

        FleetReport {
            router: self.router,
            policy,
            replicas: self.replicas,
            interconnect: self.interconnect,
            requests_served,
            tokens_served,
            kv_rejections,
            makespan,
            tokens_per_sec: if horizon > 0.0 {
                tokens_served as f64 / horizon
            } else {
                0.0
            },
            ttft_p50_s: ttft.percentile(50.0).unwrap_or(0.0),
            ttft_p99_s: ttft.percentile(99.0).unwrap_or(0.0),
            ttft_mean_s: ttft.mean().unwrap_or(0.0),
            token_latency_p50_s: token_latency.percentile(50.0).unwrap_or(0.0),
            token_latency_p99_s: token_latency.percentile(99.0).unwrap_or(0.0),
            goodput_requests,
            goodput_tokens,
            goodput_tps: if horizon > 0.0 {
                goodput_tokens as f64 / horizon
            } else {
                0.0
            },
            load_imbalance,
            per_replica,
        }
    }
}

/// Cluster-level results of a fleet run: the per-replica
/// [`ServeReport`]s plus aggregates derived from them by the
/// deterministic merge (pinned by a proptest — recomputing any
/// aggregate from `per_replica` must reproduce it exactly).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Routing policy that distributed the trace.
    pub router: RouterPolicy,
    /// Device scheduling policy every replica ran.
    pub policy: SchedulePolicy,
    /// Number of replicas.
    pub replicas: usize,
    /// Interconnect hop costs the timeline was charged.
    pub interconnect: Interconnect,
    /// Requests completed across the fleet.
    pub requests_served: usize,
    /// Tokens generated across the fleet.
    pub tokens_served: u64,
    /// KV-capacity rejections across the fleet.
    pub kv_rejections: u64,
    /// Cluster-visible window: first arrival at the router to the last
    /// response or deadline shed back at the router (both hops
    /// included).
    pub makespan: SimTime,
    /// Fleet decode throughput over the cluster makespan.
    pub tokens_per_sec: f64,
    /// Median cluster-visible TTFT: queue + prefill + first token,
    /// plus both interconnect hops.
    pub ttft_p50_s: f64,
    /// 99th-percentile cluster-visible TTFT.
    pub ttft_p99_s: f64,
    /// Mean cluster-visible TTFT.
    pub ttft_mean_s: f64,
    /// Median of per-request mean token latency (steady-state decode
    /// cadence; interconnect hops shift delivery, not cadence).
    pub token_latency_p50_s: f64,
    /// 99th percentile of per-request mean token latency.
    pub token_latency_p99_s: f64,
    /// Requests that met their deadlines, across the fleet (equal to
    /// `requests_served` when no deadlines are configured).
    pub goodput_requests: u64,
    /// Tokens from deadline-meeting requests, across the fleet.
    pub goodput_tokens: u64,
    /// Goodput tokens over the cluster makespan.
    pub goodput_tps: f64,
    /// Peak-to-mean ratio of per-replica `tokens_served`: 1.0 is a
    /// perfectly balanced fleet, `replicas` is one replica serving
    /// everything. 1.0 when the fleet served nothing.
    pub load_imbalance: f64,
    /// Every replica's full report, in replica order.
    pub per_replica: Vec<ServeReport>,
}

impl FleetReport {
    /// Renders the headline cluster numbers as a short summary.
    pub fn summary(&self) -> String {
        format!(
            "fleet of {} ({}): served {} requests / {} tokens in {:.2} s ({:.2} tok/s)\n\
             cluster ttft: p50 {:.0} ms, p99 {:.0} ms, mean {:.0} ms\n\
             token latency: p50 {:.0} ms, p99 {:.0} ms | load imbalance {:.2}\n\
             goodput: {} reqs / {} tokens ({:.2} tok/s) | kv rejections: {}",
            self.replicas,
            self.router.label(),
            self.requests_served,
            self.tokens_served,
            self.makespan.as_secs_f64(),
            self.tokens_per_sec,
            self.ttft_p50_s * 1e3,
            self.ttft_p99_s * 1e3,
            self.ttft_mean_s * 1e3,
            self.token_latency_p50_s * 1e3,
            self.token_latency_p99_s * 1e3,
            self.load_imbalance,
            self.goodput_requests,
            self.goodput_tokens,
            self.goodput_tps,
            self.kv_rejections,
        )
    }
}

/// The router's dispatch-time state.
struct RouterState {
    policy: RouterPolicy,
    replicas: usize,
    /// Arrivals dispatched so far (round-robin / session striping).
    dispatched: u64,
    /// Tokens booked per replica (least-loaded).
    booked: Vec<u64>,
}

impl RouterState {
    fn new(policy: RouterPolicy, replicas: usize) -> Self {
        RouterState {
            policy,
            replicas,
            dispatched: 0,
            booked: vec![0; replicas],
        }
    }

    fn route(&mut self, shape: RequestShape) -> usize {
        let i = self.dispatched;
        self.dispatched += 1;
        let replica = match self.policy {
            RouterPolicy::RoundRobin => (i % self.replicas as u64) as usize,
            RouterPolicy::LeastLoaded => self
                .booked
                .iter()
                .enumerate()
                .min_by_key(|&(r, &b)| (b, r))
                .map(|(r, _)| r)
                .expect("a fleet has at least one replica"),
            RouterPolicy::SessionAffinity { sessions } => {
                let session = (i % sessions as u64) as usize;
                session % self.replicas
            }
        };
        self.booked[replica] += (shape.prompt_len + shape.new_tokens) as u64;
        replica
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use llm_workload::zoo;

    fn device() -> DeviceEngine {
        DeviceEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
    }

    #[test]
    fn round_robin_rotates() {
        let mut r = RouterState::new(RouterPolicy::RoundRobin, 3);
        let s = RequestShape::new(10, 2);
        let picks: Vec<usize> = (0..6).map(|_| r.route(s)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_loaded_balances_heterogeneous_shapes() {
        let mut r = RouterState::new(RouterPolicy::LeastLoaded, 2);
        // A heavy request books replica 0; the next two light ones
        // both go to replica 1 until it catches up.
        assert_eq!(r.route(RequestShape::new(1000, 100)), 0);
        assert_eq!(r.route(RequestShape::new(10, 1)), 1);
        assert_eq!(r.route(RequestShape::new(10, 1)), 1);
        assert_eq!(r.booked, vec![1100, 22]);
    }

    #[test]
    fn session_affinity_pins_sessions() {
        let mut r = RouterState::new(RouterPolicy::SessionAffinity { sessions: 3 }, 2);
        let s = RequestShape::new(10, 2);
        // Sessions 0,1,2 pin to replicas 0,1,0: the stripe repeats.
        let picks: Vec<usize> = (0..6).map(|_| r.route(s)).collect();
        assert_eq!(picks, vec![0, 1, 0, 0, 1, 0]);
    }

    fn trace(n: usize, seed: u64) -> ArrivalTrace {
        ArrivalTrace::poisson(40.0, n, RequestShape::new(96, 3), seed)
    }

    #[test]
    fn routing_preserves_timestamps_and_order_at_zero_hop() {
        let fleet = FleetEngine::new(device(), 2);
        let ArrivalTrace::Open(arrivals) = trace(8, 11) else {
            unreachable!()
        };
        let inboxes = fleet.route(&arrivals);
        let mut merged: Vec<RequestArrival> = inboxes.concat();
        merged.sort_by_key(|a| a.at);
        let mut expected = arrivals.clone();
        expected.sort_by_key(|a| a.at);
        assert_eq!(merged, expected);
        // Round-robin: even indices to replica 0, odd to replica 1.
        assert_eq!(inboxes[0].len(), 4);
        assert_eq!(inboxes[1].len(), 4);
    }

    #[test]
    fn dispatch_hop_shifts_replica_arrivals() {
        let hop = SimTime::from_micros(5);
        let fleet = FleetEngine::new(device(), 2).with_interconnect(Interconnect::symmetric(hop));
        let ArrivalTrace::Open(arrivals) = trace(4, 3) else {
            unreachable!()
        };
        let inboxes = fleet.route(&arrivals);
        let delivered: Vec<SimTime> = inboxes.concat().iter().map(|a| a.at).collect();
        let mut expected: Vec<SimTime> = arrivals.iter().map(|a| a.at + hop).collect();
        expected.sort();
        let mut got = delivered.clone();
        got.sort();
        assert_eq!(got, expected);
    }

    fn at(micros: u64, prompt_len: usize, new_tokens: usize) -> RequestArrival {
        RequestArrival {
            at: SimTime::from_micros(micros),
            shape: RequestShape::new(prompt_len, new_tokens),
        }
    }

    #[test]
    fn routing_delivers_exact_inboxes_in_order() {
        // Hand-built trace, already in (time, arrival-order) sequence,
        // with ties at 0 and 5 us. Booked tokens per arrival:
        // 110, 21, 31, 42, 52, 6.
        let ties = vec![
            at(0, 100, 10),
            at(0, 20, 1),
            at(0, 30, 1),
            at(5, 40, 2),
            at(5, 50, 2),
            at(9, 5, 1),
        ];
        // The same arrivals one 3 us dispatch hop later.
        let [a0, a1, a2, a3, a4, a5] = [
            at(3, 100, 10),
            at(3, 20, 1),
            at(3, 30, 1),
            at(8, 40, 2),
            at(8, 50, 2),
            at(12, 5, 1),
        ];
        let ArrivalTrace::Open(burst) = ArrivalTrace::burst(4, RequestShape::new(8, 2)) else {
            unreachable!()
        };
        let b = at(0, 8, 2);
        let hop = SimTime::from_micros(3);
        let route = |policy, replicas, dispatch_hop, arrivals: &[RequestArrival]| {
            FleetEngine::new(device(), replicas)
                .with_router(policy)
                .with_interconnect(Interconnect::symmetric(dispatch_hop))
                .route(arrivals)
        };

        assert_eq!(
            route(RouterPolicy::RoundRobin, 2, hop, &ties),
            vec![vec![a0, a2, a4], vec![a1, a3, a5]]
        );
        // Booked after each pick: [110,0] [110,21] [110,52] [110,94]
        // [110,146] [116,146].
        assert_eq!(
            route(RouterPolicy::LeastLoaded, 2, hop, &ties),
            vec![vec![a0, a5], vec![a1, a2, a3, a4]]
        );
        // Sessions 0,1,2,0,1,2 pin to replicas 0,1,0,0,1,0.
        let affinity = RouterPolicy::SessionAffinity { sessions: 3 };
        assert_eq!(
            route(affinity, 2, hop, &ties),
            vec![vec![a0, a2, a3, a5], vec![a1, a4]]
        );

        let zero = SimTime::ZERO;
        assert_eq!(
            route(RouterPolicy::RoundRobin, 3, zero, &burst),
            vec![vec![b, b], vec![b], vec![b]]
        );
        assert_eq!(
            route(RouterPolicy::LeastLoaded, 3, zero, &burst),
            vec![vec![b, b], vec![b], vec![b]]
        );
        let affinity = RouterPolicy::SessionAffinity { sessions: 2 };
        assert_eq!(
            route(affinity, 3, zero, &burst),
            vec![vec![b, b], vec![b, b], vec![]]
        );
    }

    #[test]
    fn replica_fault_seeds_are_split_not_sequential() {
        use crate::reliability::FaultConfig;
        let base = FaultConfig::default();
        let faulted = device().with_faults(FaultMode::Injected(base));
        let fleet = FleetEngine::new(faulted, 4);
        let engines = fleet.replica_engines().expect("faults are on");
        let seeds: Vec<u64> = engines
            .iter()
            .map(|e| match e.fault_mode() {
                FaultMode::Injected(c) => c.seed,
                FaultMode::Off => unreachable!(),
            })
            .collect();
        assert_eq!(seeds, SplitMix64::split_seeds(base.seed, 4));
        for (r, &s) in seeds.iter().enumerate() {
            assert_ne!(s, base.seed.wrapping_add(r as u64), "sequential seeding");
        }
    }

    #[test]
    fn closed_loop_trace_is_rejected() {
        let fleet = FleetEngine::new(device(), 2);
        let trace = ArrivalTrace::closed_loop(2, 1, RequestShape::new(64, 2));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fleet.run(&trace, SchedulePolicy::Fcfs)
        }));
        assert!(err.is_err());
    }
}
