//! The four workloads. Each builds its inputs from the workload seed,
//! runs one operation per call, checks its output against a reference,
//! and, in the traced run, wraps every call into a layer in a span.

use crate::recorder::Recorder;
use bench::paper;
use cambricon_llm::fleet::{FleetEngine, FleetReport, Interconnect, RouterPolicy};
use cambricon_llm::montecarlo::{MonteCarlo, MonteCarloReport};
use cambricon_llm::reliability::{FaultConfig, FaultMode};
use cambricon_llm::serve::{
    DeviceEngine, PrefillMode, SchedulePolicy, ServeEngine, ServeReport, SpanMode,
};
use cambricon_llm::{sweep_channels, sweep_chips, SweepPoint, System, SystemConfig, TokenReport};
use flash_sim::FlashAge;
use llm_workload::{
    zoo, ArrivalTrace, DecodeOp, ModelSpec, PrefillPlan, Quant, RequestShape, TokenPlan,
};
use sim_core::{SimTime, SplitMix64};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Per-layer metrics of one traced run, by name (see
/// [`crate::metrics::PER_LAYER`]); names a workload does not exercise
/// stay 0.
pub type Ledger = BTreeMap<&'static str, f64>;

/// A workload as the measurement loop sees it.
pub trait Workload: Sized {
    /// One operation's result, compared bit for bit with the warm-up's.
    type Output: PartialEq;
    /// Builds the inputs and engines from `seed` and runs the untimed
    /// warm-up operation.
    fn setup(seed: u64, rec: &mut Recorder) -> Self;
    /// Checks the warm-up output against a reference that does not use
    /// the fast path, and derives work counts; runs once, untimed.
    fn oracle(&mut self) -> Result<(), String>;
    /// One timed operation.
    fn run(&self) -> Self::Output;
    /// One operation with a span around each call into a layer.
    fn run_traced(&self, rec: &mut Recorder) -> Self::Output;
    /// The warm-up output every operation must reproduce.
    fn warm(&self) -> &Self::Output;
    /// Simulated tokens one operation produces (design points priced,
    /// for the design sweep).
    fn tokens(&self) -> u64;
    /// The modelled end-to-end results.
    fn modelled(&self) -> Modelled;
    /// Deterministic work counts of one operation.
    fn work(&self) -> Work;
    /// One line naming the inputs.
    fn describe(&self) -> String;
    /// Traced-run extras: the cold-pricing probe, references and
    /// layer-specific measurements, written into `ledger`.
    fn probe(&self, rec: &mut Recorder, ledger: &mut Ledger, op_ms: f64);
}

/// Modelled results: deterministic for a seed, and unchanged by any
/// change that only makes the simulator faster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modelled {
    /// Simulated tokens per simulated second.
    pub sim_tok_s: f64,
    /// p99 time to first token, simulated seconds.
    pub ttft_p99_s: f64,
    /// Goodput tokens over offered tokens.
    pub goodput_frac: f64,
    /// Mean absolute % error against the paper's reported cells.
    pub paper_err_pct: f64,
}

/// Work one operation does, counted by the simulator's own reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Work {
    /// Tokens generated (none for the design sweep, which serves nothing).
    pub tokens: u64,
    /// Ops dispatched by the device loops (op-cost hits + misses).
    pub dispatches: u64,
    /// Op-cost memo lookups.
    pub op_lookups: u64,
    /// Op costs derived from the hardware models (memo misses).
    pub op_fills: u64,
    /// GeMVs simulated through the flash discrete-event model.
    pub gemv_fills: u64,
    /// ECC page rereads.
    pub page_rereads: u64,
    /// Requests shed at a deadline.
    pub sheds: u64,
}

/// Device the serving workloads run on.
fn serving_config() -> SystemConfig {
    SystemConfig::cambricon_l()
}

/// Model the serving workloads serve.
fn serving_model() -> ModelSpec {
    zoo::llama2_70b()
}

/// Worker threads for the layers that fan out.
fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Independent streams derived from the workload seed.
struct Streams {
    /// Context-length jitter.
    jitter: u64,
    /// Monte Carlo root seed.
    mc_root: u64,
    /// Fault-injection root seed.
    faults: u64,
}

fn streams(seed: u64) -> Streams {
    let s = SplitMix64::split_seeds(seed, 3);
    Streams {
        jitter: s[0],
        mc_root: s[1],
        faults: s[2],
    }
}

/// A context length within ±8 tokens of `center`, drawn from `stream`:
/// the seed reaches the input without moving the regime.
fn jittered(stream: u64, center: usize) -> usize {
    center - 8 + SplitMix64::new(stream).next_below(17) as usize
}

const GEMV_FILL: &str = "tiling_flash_sim/gemv_fill";
const OP_FILL: &str = "core_system/op_cost_fill";
const OP_HIT: &str = "core_system/op_cost_hit";

/// Prices one token's ops on `sys` one `op_cost` call at a time, each
/// call a span named by which memo it filled: a GeMV fill (tiling plan
/// plus flash DES), an op-cost fill, or a memo hit. Returns the cache
/// counters the walk left, as `(gemv misses, op misses, lookups)`.
fn priced_walk(
    sys: &mut System,
    plan: &TokenPlan,
    seq: usize,
    rec: &mut Recorder,
) -> (u64, u64, u64) {
    for op in plan.stream(seq) {
        let gemv = sys.gemv_cache().misses();
        let fills = sys.op_cost_cache().misses();
        let id = rec.open("core_system/op_cost");
        black_box(sys.op_cost(&op));
        let name = if sys.gemv_cache().misses() > gemv {
            GEMV_FILL
        } else if sys.op_cost_cache().misses() > fills {
            OP_FILL
        } else {
            OP_HIT
        };
        rec.close_as(id, name, name == OP_HIT);
    }
    let ops = sys.op_cost_cache();
    (
        sys.gemv_cache().misses(),
        ops.misses(),
        ops.hits() + ops.misses(),
    )
}

/// A fresh system priced through [`priced_walk`], then the token report.
fn walk_point(
    cfg: SystemConfig,
    plan: &TokenPlan,
    seq: usize,
    rec: &mut Recorder,
) -> (TokenReport, (u64, u64, u64)) {
    let mut sys = rec.span("core_system/new", || System::new(cfg));
    let counts = priced_walk(&mut sys, plan, seq, rec);
    let rep = rec.span("core_system/decode_token_planned", || {
        sys.decode_token_planned(plan, seq)
    });
    (rep, counts)
}

/// Opens a top-level probe section: its own operation id and a
/// `bench/probe` span that the layer spans nest under.
fn probe_section<R>(
    rec: &mut Recorder,
    label: &'static str,
    f: impl FnOnce(&mut Recorder) -> R,
) -> R {
    rec.begin_op(label);
    let id = rec.open("bench/probe");
    let out = f(rec);
    rec.close(id);
    out
}

/// Median wall milliseconds of `reps` calls of `f`, each inside a span.
fn timed_reps<R>(rec: &mut Recorder, name: &'static str, reps: usize, f: impl Fn() -> R) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(rec.span(name, &f));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&walls)
}

/// The cold-pricing probe every workload runs in its traced run: one
/// token of `plan` priced on a fresh system (the fixed pricing a cold
/// serving run pays), then a tight loop of memo hits on the now-warm
/// system. Fills `pricing.cold_token_ms`, `pricing.hit_ns` and the fill
/// self times of the cold token.
fn pricing_probe(
    rec: &mut Recorder,
    ledger: &mut Ledger,
    cfg: SystemConfig,
    plan: &TokenPlan,
    seq: usize,
) {
    let t0 = Instant::now();
    let mut sys = probe_section(rec, "probe.cold_token", |rec| {
        let mut sys = rec.span("core_system/new", || System::new(cfg));
        priced_walk(&mut sys, plan, seq, rec);
        sys
    });
    ledger.insert("pricing.cold_token_ms", t0.elapsed().as_secs_f64() * 1e3);
    let cold = |name: &'static str| {
        move |s: &crate::recorder::Span, op: &'static str| {
            s.name == name && op == "probe.cold_token"
        }
    };
    ledger.insert("pricing.gemv_fill_ms", rec.self_ms_where(cold(GEMV_FILL)));
    ledger.insert("pricing.op_fill_ms", rec.self_ms_where(cold(OP_FILL)));
    let ops: Vec<DecodeOp> = plan.stream(seq).collect();
    const ROUNDS: usize = 50;
    let ns = probe_section(rec, "probe.memo_hits", |rec| {
        let t0 = Instant::now();
        rec.span("core_system/op_cost_hits", || {
            for _ in 0..ROUNDS {
                for op in &ops {
                    black_box(sys.op_cost(op));
                }
            }
        });
        t0.elapsed().as_nanos() as f64
    });
    ledger.insert("pricing.hit_ns", ns / (ROUNDS * ops.len()) as f64);
}

/// Decode speed of Llama2-70B on Cam-L at the paper's context length,
/// and its % error against Figure 9(b) — the batch-1 pricing every
/// serving workload is built on.
fn pricing_fit_err_pct() -> f64 {
    let plan = TokenPlan::new(&serving_model(), Quant::W8A8);
    let ours = System::new(serving_config())
        .decode_token_planned(&plan, 1000)
        .tokens_per_sec;
    let (name, _, _, cam_l, _) = paper::FIG9B[2];
    assert_eq!(name, serving_model().name, "Figure 9(b) row order");
    pct_err(ours, cam_l)
}

fn pct_err(ours: f64, paper: f64) -> f64 {
    (ours - paper).abs() / paper * 100.0
}

fn serve_work(reports: &[ServeReport]) -> Work {
    let mut w = Work::default();
    for r in reports {
        w.tokens += r.tokens_served;
        w.dispatches += r.op_cost_cache_hits + r.op_cost_cache_misses;
        w.op_fills += r.op_cost_cache_misses;
        w.gemv_fills += r.gemv_cache_misses;
        w.page_rereads += r.reliability.page_rereads;
        w.sheds += r.reliability.total_sheds();
    }
    w.op_lookups = w.dispatches;
    w
}

/// Simulated per-device means across `reports` for the serve-layer
/// ledger rows.
fn serve_ledger(ledger: &mut Ledger, reports: &[ServeReport]) {
    let n = reports.len() as f64;
    let mean = |f: &dyn Fn(&ServeReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
    ledger.insert("serve.sim_flash_util", mean(&|r| r.flash_utilization));
    ledger.insert("serve.sim_npu_util", mean(&|r| r.npu_utilization));
    ledger.insert(
        "serve.sim_batch_occupancy",
        mean(&|r| r.mean_batch_occupancy),
    );
    ledger.insert(
        "serve.sim_queue_delay_mean_s",
        mean(&|r| r.queueing_delay_s.mean().unwrap_or(0.0)),
    );
    ledger.insert(
        "serve.kv_rejections",
        reports.iter().map(|r| r.kv_rejections).sum::<u64>() as f64,
    );
    ledger.insert(
        "serve.requests",
        reports.iter().map(|r| r.requests_served).sum::<usize>() as f64,
    );
}

// ---------------------------------------------------------------------
// design_sweep

/// Decode context length of the paper's design figures.
const DESIGN_SEQ: usize = 1000;
/// Figure 15(a)/(c): chips per channel at 8 channels.
const FIG15_CHIPS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
/// Figure 15(b)/(d): channels at 4 chips per channel.
const FIG15_CHANNELS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Figure 15's models, as indices into `zoo::all()`. The grids keep the
/// paper's order on every seed: `core::sweep`'s workers claim points in
/// grid order, so reordering moves the expensive 64/128-chip points
/// between workers and changes the wall time for reasons unrelated to
/// the simulator.
const FIG15_MODELS: [usize; 3] = [0, 1, 2];

/// One Figure 9/11 design point.
#[derive(Debug, Clone, Copy)]
struct GridPoint {
    model: usize,
    cfg: SystemConfig,
    quant: Quant,
}

/// The paper's architect loop: every Figure 9(a)/(b) and Figure 11
/// point on a fresh cold system, plus Figure 15 through `core::sweep`.
pub struct DesignSweep {
    seq: usize,
    models: Vec<ModelSpec>,
    /// Plans indexed `quant_index * models + model`.
    plans: Vec<TokenPlan>,
    points: Vec<GridPoint>,
    warm: SweepOut,
    work: Option<Work>,
}

/// One design-sweep operation's results.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOut {
    /// Figure 9/11 points, in grid order.
    points: Vec<TokenReport>,
    /// Figure 15 sweeps: per model, the chip sweep then the channel
    /// sweep, each in grid order.
    sweeps: Vec<Vec<SweepPoint>>,
}

const QUANTS: [Quant; 2] = [Quant::W8A8, Quant::W4A16];

impl DesignSweep {
    fn plan(&self, model: usize, quant: Quant) -> &TokenPlan {
        let q = QUANTS
            .iter()
            .position(|&x| x == quant)
            .expect("known quant");
        &self.plans[q * self.models.len() + model]
    }

    /// Every Figure 15 design point, in output order.
    fn fig15_points() -> Vec<(usize, usize, usize)> {
        let mut pts = Vec::new();
        for model in FIG15_MODELS {
            pts.extend(FIG15_CHIPS.iter().map(|&c| (model, 8, c)));
            pts.extend(FIG15_CHANNELS.iter().map(|&ch| (model, ch, 4)));
        }
        pts
    }

    /// Decode speed of `model` on the paper config `cfg_name` at `quant`.
    fn speed(&self, out: &SweepOut, model: &str, cfg_name: &str, quant: Quant) -> f64 {
        self.points
            .iter()
            .zip(&out.points)
            .find(|(p, _)| {
                self.models[p.model].name == model && p.cfg.name == cfg_name && p.quant == quant
            })
            .map(|(_, r)| r.tokens_per_sec)
            .unwrap_or_else(|| panic!("no design point {model} {cfg_name} {quant:?}"))
    }
}

fn sweep_point(ch: usize, chips: usize, rep: &TokenReport) -> SweepPoint {
    SweepPoint {
        channels: ch,
        chips_per_channel: chips,
        tokens_per_sec: rep.tokens_per_sec,
        channel_utilization: rep.channel_utilization,
    }
}

impl Workload for DesignSweep {
    type Output = SweepOut;

    fn setup(seed: u64, rec: &mut Recorder) -> Self {
        let st = streams(seed);
        let seq = jittered(st.jitter, DESIGN_SEQ);
        let models = zoo::all();
        let plans = rec.span("llm_workload/plan", || {
            QUANTS
                .iter()
                .flat_map(|&q| models.iter().map(move |m| TokenPlan::new(m, q)))
                .collect()
        });
        let [s, m, l] = SystemConfig::paper_variants();
        let mut points = Vec::new();
        for model in 0..models.len() {
            // Figure 9(a)/(b): W8A8 on all three variants.
            for cfg in [s, m, l] {
                points.push(GridPoint {
                    model,
                    cfg,
                    quant: Quant::W8A8,
                });
            }
            // Figure 11: W4A16 on Cam-S and Cam-L (its W8A8 cells are
            // the Figure 9 points).
            for cfg in [s, l] {
                points.push(GridPoint {
                    model,
                    cfg: cfg.with_quant(Quant::W4A16),
                    quant: Quant::W4A16,
                });
            }
        }
        let mut w = DesignSweep {
            seq,
            models,
            plans,
            points,
            warm: SweepOut {
                points: Vec::new(),
                sweeps: Vec::new(),
            },
            work: None,
        };
        w.warm = rec.span("setup/warmup", || w.run());
        w
    }

    fn oracle(&mut self) -> Result<(), String> {
        // Sequential per-point reference for the parallel sweeps, and
        // the cache counters of every point on a fresh system.
        let mut work = Work::default();
        let mut add = |sys: &System| {
            let ops = sys.op_cost_cache();
            work.gemv_fills += sys.gemv_cache().misses();
            work.op_fills += ops.misses();
            work.op_lookups += ops.hits() + ops.misses();
        };
        for p in &self.points {
            let mut sys = System::new(p.cfg);
            sys.decode_token_planned(self.plan(p.model, p.quant), self.seq);
            add(&sys);
        }
        let swept: Vec<&SweepPoint> = self.warm.sweeps.iter().flatten().collect();
        let grid = Self::fig15_points();
        if swept.len() != grid.len() {
            return Err(format!(
                "{} swept points for {} grid points",
                swept.len(),
                grid.len()
            ));
        }
        for (&(model, ch, chips), got) in grid.iter().zip(swept) {
            let mut sys = System::new(SystemConfig::custom(ch, chips));
            let rep = sys.decode_token_planned(self.plan(model, Quant::W8A8), self.seq);
            add(&sys);
            let want = sweep_point(ch, chips, &rep);
            if *got != want {
                return Err(format!(
                    "core::sweep point {} {ch}x{chips}: {got:?} != sequential {want:?}",
                    self.models[model].name
                ));
            }
        }
        self.work = Some(work);
        Ok(())
    }

    fn run(&self) -> SweepOut {
        let points = self
            .points
            .iter()
            .map(|p| System::new(p.cfg).decode_token_planned(self.plan(p.model, p.quant), self.seq))
            .collect();
        let sweeps = FIG15_MODELS
            .iter()
            .flat_map(|&m| {
                let model = &self.models[m];
                [
                    sweep_chips(model, 8, &FIG15_CHIPS, self.seq),
                    sweep_channels(model, &FIG15_CHANNELS, 4, self.seq),
                ]
            })
            .collect();
        SweepOut { points, sweeps }
    }

    /// Prices every point (Figure 15's too, sequentially instead of
    /// through `core::sweep`) with one span per `op_cost` call, and
    /// checks the walk's cache counters against the oracle's.
    fn run_traced(&self, rec: &mut Recorder) -> SweepOut {
        let mut work = Work::default();
        let mut add = |(gemv, fills, lookups): (u64, u64, u64)| {
            work.gemv_fills += gemv;
            work.op_fills += fills;
            work.op_lookups += lookups;
        };
        let mut points = Vec::with_capacity(self.points.len());
        for p in &self.points {
            let (rep, counts) = walk_point(p.cfg, self.plan(p.model, p.quant), self.seq, rec);
            add(counts);
            points.push(rep);
        }
        let mut sweeps = Vec::new();
        for model in FIG15_MODELS {
            let plan = self.plan(model, Quant::W8A8);
            let mut grid = |pts: Vec<(usize, usize)>| -> Vec<SweepPoint> {
                pts.into_iter()
                    .map(|(ch, chips)| {
                        let cfg = SystemConfig::custom(ch, chips);
                        let (rep, counts) = walk_point(cfg, plan, self.seq, rec);
                        add(counts);
                        sweep_point(ch, chips, &rep)
                    })
                    .collect()
            };
            sweeps.push(grid(FIG15_CHIPS.iter().map(|&c| (8, c)).collect()));
            sweeps.push(grid(FIG15_CHANNELS.iter().map(|&ch| (ch, 4)).collect()));
        }
        if let Some(want) = self.work {
            assert_eq!(work, want, "work counts differ from the oracle's");
        }
        SweepOut { points, sweeps }
    }

    fn warm(&self) -> &SweepOut {
        &self.warm
    }

    fn tokens(&self) -> u64 {
        (self.points.len() + Self::fig15_points().len()) as u64
    }

    fn modelled(&self) -> Modelled {
        let out = &self.warm;
        let mut errs = Vec::new();
        let (s, m, l) = ("Cambricon-LLM-S", "Cambricon-LLM-M", "Cambricon-LLM-L");
        for row in paper::FIG9A {
            for (cfg, want) in [(s, row.1), (m, row.2), (l, row.3)] {
                errs.push(pct_err(self.speed(out, row.0, cfg, Quant::W8A8), want));
            }
        }
        for row in paper::FIG9B {
            for (cfg, want) in [(s, row.1), (m, row.2), (l, row.3)] {
                errs.push(pct_err(self.speed(out, row.0, cfg, Quant::W8A8), want));
            }
        }
        for row in paper::FIG11 {
            for (cfg, quant, want) in [
                (s, Quant::W8A8, row.1),
                (s, Quant::W4A16, row.2),
                (l, Quant::W8A8, row.3),
                (l, Quant::W4A16, row.4),
            ] {
                errs.push(pct_err(self.speed(out, row.0, cfg, quant), want));
            }
        }
        let headline = self.speed(out, serving_model().name, l, Quant::W8A8);
        Modelled {
            sim_tok_s: headline,
            // A lone request with its prompt in the KV cache waits one
            // decode token for its first token.
            ttft_p99_s: 1.0 / headline,
            goodput_frac: 1.0,
            paper_err_pct: errs.iter().sum::<f64>() / errs.len() as f64,
        }
    }

    fn work(&self) -> Work {
        self.work.expect("oracle ran")
    }

    fn describe(&self) -> String {
        format!(
            "{} Fig 9/11 points on fresh systems + {} Fig 15 points via core::sweep, seq {}",
            self.points.len(),
            Self::fig15_points().len(),
            self.seq
        )
    }

    fn probe(&self, rec: &mut Recorder, ledger: &mut Ledger, _op_ms: f64) {
        let plan = self.plan(self.models.len() - 1, Quant::W8A8);
        pricing_probe(rec, ledger, serving_config(), plan, self.seq);
        // The traced operations price every point themselves: report
        // their fill self times per operation instead of the probe's.
        let ops = rec.spans().iter().filter(|s| s.name == "bench/op").count();
        let per_op = |name: &'static str| {
            rec.self_ms_where(|s, op| s.name == name && op == "op") / ops.max(1) as f64
        };
        ledger.insert("pricing.gemv_fill_ms", per_op(GEMV_FILL));
        ledger.insert("pricing.op_fill_ms", per_op(OP_FILL));
    }
}

// ---------------------------------------------------------------------
// overload_rr

/// Closed-loop clients of the overload workload.
const OVERLOAD_CLIENTS: usize = 16;
/// Tokens each overload request decodes.
const OVERLOAD_TOKENS: usize = 512;

/// Sixteen closed-loop clients under round-robin: every decode
/// overlaps, so all work runs through the interleaved replay loop.
pub struct OverloadRr {
    engine: ServeEngine,
    trace: ArrivalTrace,
    prompt: usize,
    warm: ServeReport,
}

impl Workload for OverloadRr {
    type Output = ServeReport;

    fn setup(seed: u64, rec: &mut Recorder) -> Self {
        let prompt = jittered(streams(seed).jitter, 1000);
        let engine = rec.span("llm_workload/plan", || {
            ServeEngine::new(serving_config(), serving_model())
        });
        let trace = rec.span("llm_workload/trace", || {
            ArrivalTrace::closed_loop(
                OVERLOAD_CLIENTS,
                1,
                RequestShape::new(prompt, OVERLOAD_TOKENS),
            )
        });
        let warm = rec.span("setup/warmup", || {
            engine.run(&trace, SchedulePolicy::RoundRobin)
        });
        OverloadRr {
            engine,
            trace,
            prompt,
            warm,
        }
    }

    fn oracle(&mut self) -> Result<(), String> {
        let reference = ServeEngine::new(serving_config(), serving_model())
            .with_span_mode(SpanMode::PerOp)
            .run(&self.trace, SchedulePolicy::RoundRobin);
        if reference != self.warm {
            return Err("replay loop report differs from the PerOp reference".into());
        }
        Ok(())
    }

    fn run(&self) -> ServeReport {
        self.engine.run(&self.trace, SchedulePolicy::RoundRobin)
    }

    fn run_traced(&self, rec: &mut Recorder) -> ServeReport {
        rec.span("core_serve/run", || self.run())
    }

    fn warm(&self) -> &ServeReport {
        &self.warm
    }

    fn tokens(&self) -> u64 {
        self.warm.tokens_served
    }

    fn modelled(&self) -> Modelled {
        Modelled {
            sim_tok_s: self.warm.tokens_per_sec,
            ttft_p99_s: self.warm.ttft_p99_s,
            // No faults, so no deadlines: every served token is goodput.
            goodput_frac: self.warm.tokens_served as f64 / self.trace.total_new_tokens() as f64,
            paper_err_pct: pricing_fit_err_pct(),
        }
    }

    fn work(&self) -> Work {
        serve_work(std::slice::from_ref(&self.warm))
    }

    fn describe(&self) -> String {
        format!(
            "closed loop {OVERLOAD_CLIENTS} clients x (prompt {}, {OVERLOAD_TOKENS} tokens), \
             RoundRobin, prefill off, faults off",
            self.prompt
        )
    }

    fn probe(&self, rec: &mut Recorder, ledger: &mut Ledger, op_ms: f64) {
        pricing_probe(
            rec,
            ledger,
            serving_config(),
            self.engine.plan(),
            self.prompt,
        );
        let per_op =
            ServeEngine::new(serving_config(), serving_model()).with_span_mode(SpanMode::PerOp);
        let per_op_ms = probe_section(rec, "probe.per_op_reference", |rec| {
            timed_reps(rec, "core_serve/run_per_op", 3, || {
                per_op.run(&self.trace, SchedulePolicy::RoundRobin)
            })
        });
        let w = self.work();
        ledger.insert("serve.runs", 1.0);
        ledger.insert("serve.run_ms", op_ms);
        ledger.insert(
            "serve.ns_per_dispatch",
            (op_ms - ledger["pricing.cold_token_ms"]) * 1e6 / w.dispatches as f64,
        );
        ledger.insert("serve.fastpath_speedup", per_op_ms / op_ms);
        serve_ledger(ledger, std::slice::from_ref(&self.warm));
    }
}

// ---------------------------------------------------------------------
// open_batched_mc

/// Seeded traces per Monte Carlo batch.
const MC_SEEDS: usize = 64;
/// Requests per trace.
const MC_REQUESTS: usize = 32;
/// Open-loop arrival rate, requests per simulated second: below the
/// prefill-bound capacity, so the batch fills and drains.
const MC_RATE: f64 = 0.01;
/// Prompt lengths requests draw from.
const MC_PROMPTS: [usize; 5] = [128, 256, 512, 1000, 2000];
/// Decode lengths requests draw from.
const MC_DECODES: [usize; 4] = [64, 128, 256, 512];
/// Batch policy of the Monte Carlo workload.
const MC_POLICY: SchedulePolicy = SchedulePolicy::ContinuousBatch { max_batch: 8 };

/// One Monte Carlo stream's trace: Poisson arrivals with mixed shapes.
fn mc_trace(stream: u64) -> ArrivalTrace {
    let s = SplitMix64::split_seeds(stream, 2);
    let ArrivalTrace::Open(mut arrivals) =
        ArrivalTrace::poisson(MC_RATE, MC_REQUESTS, RequestShape::new(1, 1), s[0])
    else {
        unreachable!("a Poisson trace is open")
    };
    let mut rng = SplitMix64::new(s[1]);
    for a in &mut arrivals {
        let prompt = MC_PROMPTS[rng.next_below(MC_PROMPTS.len() as u64) as usize];
        let decode = MC_DECODES[rng.next_below(MC_DECODES.len() as u64) as usize];
        a.shape = RequestShape::new(prompt, decode);
    }
    ArrivalTrace::Open(arrivals)
}

/// A Monte Carlo batch of open-loop traces with mixed shapes under
/// continuous batching with modelled prefill: batched spans, KV
/// admission, prefill buckets and the warm-clone fan-out.
pub struct OpenBatchedMc {
    engine: ServeEngine,
    mc: MonteCarlo,
    threads: usize,
    /// `(stream seed, trace)` for every seed of the batch.
    traces: Vec<(u64, ArrivalTrace)>,
    warm: MonteCarloReport,
}

/// The pre-generated trace of Monte Carlo stream `seed`.
fn trace_for(traces: &[(u64, ArrivalTrace)], seed: u64) -> ArrivalTrace {
    traces
        .iter()
        .find(|(s, _)| *s == seed)
        .map(|(_, t)| t.clone())
        .expect("trace generated for every seed")
}

impl OpenBatchedMc {
    fn offered(&self) -> u64 {
        self.traces.iter().map(|(_, t)| t.total_new_tokens()).sum()
    }
}

impl Workload for OpenBatchedMc {
    type Output = MonteCarloReport;

    fn setup(seed: u64, rec: &mut Recorder) -> Self {
        let threads = nproc();
        let mc = MonteCarlo::new(MC_SEEDS, streams(seed).mc_root).with_threads(threads);
        let engine = rec.span("llm_workload/plan", || {
            ServeEngine::new(serving_config(), serving_model()).with_prefill(PrefillMode::Modeled)
        });
        let traces: Vec<(u64, ArrivalTrace)> = rec.span("llm_workload/trace", || {
            mc.seed_vec()
                .into_iter()
                .map(|s| (s, mc_trace(s)))
                .collect()
        });
        let warm = rec.span("setup/warmup", || {
            mc.run(&engine, MC_POLICY, |s| trace_for(&traces, s))
        });
        OpenBatchedMc {
            engine,
            mc,
            threads,
            traces,
            warm,
        }
    }

    fn oracle(&mut self) -> Result<(), String> {
        let per_op = ServeEngine::new(serving_config(), serving_model())
            .with_prefill(PrefillMode::Modeled)
            .with_span_mode(SpanMode::PerOp);
        let reference = self
            .mc
            .run(&per_op, MC_POLICY, |s| trace_for(&self.traces, s));
        if reference != self.warm {
            return Err("Monte Carlo batch differs from the PerOp reference".into());
        }
        Ok(())
    }

    fn run(&self) -> MonteCarloReport {
        self.mc
            .run(&self.engine, MC_POLICY, |s| trace_for(&self.traces, s))
    }

    fn run_traced(&self, rec: &mut Recorder) -> MonteCarloReport {
        rec.span("core_montecarlo/run", || self.run())
    }

    fn warm(&self) -> &MonteCarloReport {
        &self.warm
    }

    fn tokens(&self) -> u64 {
        self.warm.tokens_served
    }

    fn modelled(&self) -> Modelled {
        Modelled {
            sim_tok_s: self.warm.throughput.mean,
            ttft_p99_s: self.warm.ttft_p99_s.mean,
            goodput_frac: self.warm.tokens_served as f64 / self.offered() as f64,
            paper_err_pct: pricing_fit_err_pct(),
        }
    }

    fn work(&self) -> Work {
        serve_work(&self.warm.per_seed)
    }

    fn describe(&self) -> String {
        format!(
            "MonteCarlo {MC_SEEDS} seeds (root {:#x}) x {MC_REQUESTS} Poisson arrivals at \
             {MC_RATE}/s, prompts {MC_PROMPTS:?}, decodes {MC_DECODES:?}, \
             ContinuousBatch(8), prefill modelled, {} threads",
            self.warm.root_seed, self.threads
        )
    }

    fn probe(&self, rec: &mut Recorder, ledger: &mut Ledger, op_ms: f64) {
        pricing_probe(rec, ledger, serving_config(), self.engine.plan(), 1000);
        // Prefill pricing: one cold `prefill_cost` per prompt bucket.
        let mut buckets: Vec<usize> = self
            .traces
            .iter()
            .flat_map(|(_, t)| match t {
                ArrivalTrace::Open(v) => v.iter().map(|a| a.shape.prompt_len).collect(),
                ArrivalTrace::ClosedLoop { shape, .. } => vec![shape.prompt_len],
            })
            .collect();
        buckets.sort_unstable();
        buckets.dedup();
        let prefill_ms = probe_section(rec, "probe.prefill_buckets", |rec| {
            let plan = rec.span("llm_workload/plan", || {
                PrefillPlan::new(&serving_model(), serving_config().quant)
            });
            let mut sys = rec.span("core_system/new", || System::new(serving_config()));
            let t0 = Instant::now();
            for &m in &buckets {
                black_box(rec.span("core_system/prefill_cost", || sys.prefill_cost(&plan, m)));
            }
            t0.elapsed().as_secs_f64() * 1e3
        });
        ledger.insert("pricing.prefill_buckets", buckets.len() as f64);
        ledger.insert("pricing.prefill_cost_ms", prefill_ms);
        // Every seed's trace as a standalone cold run, the work the
        // warm-clone fan-out saves.
        let (seed_ms, seed_dispatches) = probe_section(rec, "probe.standalone_seeds", |rec| {
            let t0 = Instant::now();
            let mut dispatches = 0;
            for (_, trace) in &self.traces {
                let rep = rec.span("core_serve/run", || self.engine.run(trace, MC_POLICY));
                dispatches += rep.op_cost_cache_hits + rep.op_cost_cache_misses;
            }
            (t0.elapsed().as_secs_f64() * 1e3, dispatches)
        });
        let per_op = ServeEngine::new(serving_config(), serving_model())
            .with_prefill(PrefillMode::Modeled)
            .with_span_mode(SpanMode::PerOp);
        let per_op_ms = probe_section(rec, "probe.per_op_reference", |rec| {
            timed_reps(rec, "core_montecarlo/run_per_op", 1, || {
                self.mc
                    .run(&per_op, MC_POLICY, |s| trace_for(&self.traces, s))
            })
        });
        let seeds = self.traces.len() as f64;
        ledger.insert("mc.seeds", seeds);
        ledger.insert("mc.threads", self.threads as f64);
        ledger.insert("mc.run_ms", op_ms);
        ledger.insert("mc.seed_run_ms", seed_ms);
        ledger.insert("mc.speedup", seed_ms / op_ms);
        ledger.insert("serve.runs", seeds + 1.0);
        ledger.insert("serve.run_ms", seed_ms / seeds);
        ledger.insert(
            "serve.ns_per_dispatch",
            (seed_ms - seeds * ledger["pricing.cold_token_ms"]) * 1e6 / seed_dispatches as f64,
        );
        ledger.insert("serve.fastpath_speedup", per_op_ms / op_ms);
        serve_ledger(ledger, &self.warm.per_seed);
    }
}

// ---------------------------------------------------------------------
// fleet_faulted

/// Requests in the fleet trace.
const FLEET_REQUESTS: usize = 16;
/// Fleet arrival rate, requests per simulated second.
const FLEET_RATE: f64 = 0.03;
/// Seed of the fleet's arrival draw (the one the serving benchmark's
/// fleet ladder uses). Fixed: a 16-request trace's p99 TTFT jumps
/// between queueing modes from one draw to the next, so the workload
/// seed drives the fault streams instead.
const FLEET_ARRIVAL_SEED: u64 = 0xF1EE7;
/// Replicas behind the router.
const FLEET_REPLICAS: usize = 4;
/// Arrival-relative total deadline, simulated seconds.
const FLEET_DEADLINE_S: f64 = 600.0;

/// Flash at the ECC knee: RBER ≈ 115 ppm, where page failures start.
fn knee_age() -> FlashAge {
    FlashAge {
        pe_cycles: 340,
        retention_days: 30.5,
    }
}

/// One Poisson trace routed across four replicas with faults at the
/// ECC knee: routing and merge, per-replica fault streams, and the FCFS
/// per-op loop.
pub struct FleetFaulted {
    fault_seed: u64,
    threads: usize,
    fleet: FleetEngine,
    trace: ArrivalTrace,
    warm: FleetReport,
}

/// The workload's fleet: faults injected from `fault_seed` (or off),
/// in span mode `span`, on `threads` workers.
fn build_fleet(fault_seed: Option<u64>, span: SpanMode, threads: usize) -> FleetEngine {
    let faults = match fault_seed {
        Some(seed) => {
            let cfg = FaultConfig {
                seed,
                ..FaultConfig::aged(knee_age())
            };
            let deadline = SimTime::from_secs_f64(FLEET_DEADLINE_S);
            FaultMode::Injected(cfg.with_deadlines(None, Some(deadline)))
        }
        None => FaultMode::Off,
    };
    let device = DeviceEngine::new(serving_config(), serving_model())
        .with_span_mode(span)
        .with_faults(faults);
    FleetEngine::new(device, FLEET_REPLICAS)
        .with_router(RouterPolicy::LeastLoaded)
        .with_interconnect(Interconnect::symmetric(SimTime::from_micros(50)))
        .with_threads(threads)
}

impl FleetFaulted {
    fn fleet(&self, span: SpanMode, faults: bool, threads: usize) -> FleetEngine {
        build_fleet(faults.then_some(self.fault_seed), span, threads)
    }
}

impl Workload for FleetFaulted {
    type Output = FleetReport;

    fn setup(seed: u64, rec: &mut Recorder) -> Self {
        let threads = nproc();
        let fault_seed = streams(seed).faults;
        let fleet = rec.span("llm_workload/plan", || {
            build_fleet(Some(fault_seed), SpanMode::default(), threads)
        });
        let trace = rec.span("llm_workload/trace", || {
            ArrivalTrace::poisson(
                FLEET_RATE,
                FLEET_REQUESTS,
                RequestShape::new(1000, 512),
                FLEET_ARRIVAL_SEED,
            )
        });
        let warm = rec.span("setup/warmup", || fleet.run(&trace, SchedulePolicy::Fcfs));
        FleetFaulted {
            fault_seed,
            threads,
            fleet,
            trace,
            warm,
        }
    }

    fn oracle(&mut self) -> Result<(), String> {
        let reference = self
            .fleet(SpanMode::PerOp, true, self.threads)
            .run(&self.trace, SchedulePolicy::Fcfs);
        if reference != self.warm {
            return Err("fleet report differs from the PerOp reference".into());
        }
        Ok(())
    }

    fn run(&self) -> FleetReport {
        self.fleet.run(&self.trace, SchedulePolicy::Fcfs)
    }

    fn run_traced(&self, rec: &mut Recorder) -> FleetReport {
        rec.span("core_fleet/run", || self.run())
    }

    fn warm(&self) -> &FleetReport {
        &self.warm
    }

    fn tokens(&self) -> u64 {
        self.warm.tokens_served
    }

    fn modelled(&self) -> Modelled {
        Modelled {
            sim_tok_s: self.warm.tokens_per_sec,
            ttft_p99_s: self.warm.ttft_p99_s,
            goodput_frac: self.warm.goodput_tokens as f64 / self.trace.total_new_tokens() as f64,
            paper_err_pct: pricing_fit_err_pct(),
        }
    }

    fn work(&self) -> Work {
        serve_work(&self.warm.per_replica)
    }

    fn describe(&self) -> String {
        let rber = self.warm.per_replica[0].reliability.rber;
        format!(
            "{FLEET_REQUESTS} Poisson arrivals (seed {FLEET_ARRIVAL_SEED:#x}) x (1000, 512) at \
             {FLEET_RATE}/s over {FLEET_REPLICAS} replicas, LeastLoaded, 50 us hops, Fcfs, \
             faults at RBER {:.0} ppm (fault seed {:#x}), total deadline {FLEET_DEADLINE_S} s, \
             {} threads",
            rber * 1e6,
            self.fault_seed,
            self.threads
        )
    }

    fn probe(&self, rec: &mut Recorder, ledger: &mut Ledger, op_ms: f64) {
        pricing_probe(
            rec,
            ledger,
            serving_config(),
            self.fleet.device().plan(),
            1000,
        );
        let run = |fleet: FleetEngine| move || fleet.run(&self.trace, SchedulePolicy::Fcfs);
        let off_ms = probe_section(rec, "probe.faults_off", |rec| {
            timed_reps(
                rec,
                "core_reliability/fleet_faults_off",
                5,
                run(self.fleet(SpanMode::default(), false, self.threads)),
            )
        });
        let one_ms = probe_section(rec, "probe.one_thread", |rec| {
            timed_reps(
                rec,
                "core_fleet/run_one_thread",
                5,
                run(self.fleet(SpanMode::default(), true, 1)),
            )
        });
        let per_op_ms = probe_section(rec, "probe.per_op_reference", |rec| {
            timed_reps(
                rec,
                "core_fleet/run_per_op",
                3,
                run(self.fleet(SpanMode::PerOp, true, self.threads)),
            )
        });
        let w = self.work();
        let reports = &self.warm.per_replica;
        let rel = |f: &dyn Fn(&ServeReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
        ledger.insert(
            "faults.uncorrectable",
            rel(&|r| r.reliability.uncorrectable_events),
        );
        ledger.insert("faults.mode_overhead_ms", op_ms - off_ms);
        ledger.insert("fleet.replicas", reports.len() as f64);
        ledger.insert("fleet.threads", self.threads as f64);
        ledger.insert("fleet.run_ms", op_ms);
        ledger.insert("fleet.load_imbalance", self.warm.load_imbalance);
        ledger.insert(
            "fleet.replica_tokens_max",
            reports.iter().map(|r| r.tokens_served).max().unwrap_or(0) as f64,
        );
        ledger.insert("fleet.thread_speedup", one_ms / op_ms);
        // The device loops' serial work: the fleet on one thread, less
        // the one cold pricing pass its warm-up probe pays.
        ledger.insert("serve.runs", reports.len() as f64 + 1.0);
        ledger.insert("serve.run_ms", one_ms);
        ledger.insert(
            "serve.ns_per_dispatch",
            (one_ms - ledger["pricing.cold_token_ms"]) * 1e6 / w.dispatches as f64,
        );
        ledger.insert("serve.fastpath_speedup", per_op_ms / op_ms);
        serve_ledger(ledger, reports);
    }
}
