//! Measurement: set-up, timed operations, output checks, the
//! traced run, and the result line.

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::recorder::Recorder;
use crate::stats::{self, median};
use crate::workloads::{DesignSweep, FleetFaulted, Ledger, OpenBatchedMc, OverloadRr, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Seconds of timed operations.
    pub seconds: f64,
    /// Run the traced variant and report the per-layer ledger.
    pub trace: bool,
    /// Set-ups per run at the least; `setup_s` is their median.
    pub setup_reps: usize,
    /// Seconds of repeated set-ups at the least (capped at
    /// [`MAX_SETUPS`] set-ups).
    pub setup_seconds: f64,
    /// Timed operations per run at the least, however long they take.
    pub min_ops: usize,
}

impl Args {
    /// Parses `--workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>]`.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            setup_reps: 5,
            setup_seconds: 2.0,
            min_ops: 30,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("unknown workload {:?}", args.workload));
        }
        if !(args.seconds.is_finite() && args.seconds > 0.0) {
            return Err("--seconds must be a positive number".into());
        }
        Ok(args)
    }
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that panicked or failed their output check.
    pub failed: u64,
    /// `(name, value, unit)` in registry order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit `f64` carries.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// Runs the workload `args` names.
pub fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "design_sweep" => dispatch::<DesignSweep>(args),
        "overload_rr" => dispatch::<OverloadRr>(args),
        "open_batched_mc" => dispatch::<OpenBatchedMc>(args),
        "fleet_faulted" => dispatch::<FleetFaulted>(args),
        other => unreachable!("parse rejects workload {other}"),
    }
}

fn dispatch<W: Workload>(args: &Args) -> Outcome {
    if args.trace {
        traced::<W>(args)
    } else {
        measured::<W>(args)
    }
}

/// Timed operations of one phase.
struct Timing {
    /// `(start s, wall ms)` of each operation that passed its check.
    ops: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
}

impl Timing {
    /// Median wall milliseconds over every passing operation.
    fn median_ms(&self) -> f64 {
        let walls: Vec<f64> = self.ops.iter().map(|&(_, ms)| ms).collect();
        if walls.is_empty() {
            f64::NAN
        } else {
            median(&walls)
        }
    }
}

/// Calls `op` until `budget_s` seconds have passed and at least
/// `min_ops` operations ran, timing each; an operation fails when it
/// panics or its output differs from `warm`.
fn time_ops<O: PartialEq>(
    budget_s: f64,
    min_ops: usize,
    warm: &O,
    mut op: impl FnMut() -> std::thread::Result<O>,
) -> Timing {
    let mut t = Timing {
        ops: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let start = Instant::now();
    while (t.attempted as usize) < min_ops || start.elapsed().as_secs_f64() < budget_s {
        t.attempted += 1;
        let t0 = Instant::now();
        let out = op();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match out {
            Ok(o) if &o == warm => t.ops.push((t0.duration_since(start).as_secs_f64(), ms)),
            _ => t.failed += 1,
        }
    }
    t
}

fn check_oracle<W: Workload>(w: &mut W, notes: &mut Vec<String>) -> bool {
    match catch_unwind(AssertUnwindSafe(|| w.oracle())) {
        Ok(Ok(())) => true,
        Ok(Err(e)) => {
            notes.push(format!("output check failed: {e}"));
            false
        }
        Err(_) => {
            notes.push("output check panicked".into());
            false
        }
    }
}

fn work_note(w: &impl Workload) -> String {
    let k = w.work();
    format!(
        "work per operation: serve.dispatches={} serve.tokens={} pricing.gemv_fills={} \
         pricing.op_fills={} faults.page_rereads={} faults.sheds={}",
        k.dispatches, k.tokens, k.gemv_fills, k.op_fills, k.page_rereads, k.sheds
    )
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Most set-ups one run repeats.
pub const MAX_SETUPS: usize = 50;

/// The end-to-end run: repeated set-ups, the reference check, then
/// timed operations with tracing off.
fn measured<W: Workload>(args: &Args) -> Outcome {
    let mut setups = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while setups.len() < args.setup_reps.max(1)
        || (start.elapsed().as_secs_f64() < args.setup_seconds && setups.len() < MAX_SETUPS)
    {
        drop(last.take());
        let t0 = Instant::now();
        let w = W::setup(args.seed, &mut Recorder::off());
        setups.push(t0.elapsed().as_secs_f64());
        last = Some(w);
    }
    let mut w = last.expect("at least one set-up");
    let mut notes = vec![format!(
        "workload {} seed {}: {}",
        args.workload,
        args.seed,
        w.describe()
    )];
    notes.push(format!(
        "setup_s is the median of {} set-ups ({:.3}..{:.3} s)",
        setups.len(),
        setups.iter().cloned().fold(f64::INFINITY, f64::min),
        setups.iter().cloned().fold(0.0, f64::max)
    ));
    let oracle_ok = check_oracle(&mut w, &mut notes);
    notes.push(work_note(&w));
    let t = time_ops(args.seconds, args.min_ops, w.warm(), || {
        catch_unwind(AssertUnwindSafe(|| w.run()))
    });
    let pool = stats::calm_pool(&t.ops);
    let (p50, tail) = if pool.is_empty() {
        (f64::NAN, None)
    } else {
        (median(&pool), stats::tail(&pool))
    };
    match tail {
        Some(tl) => notes.push(format!(
            "run_ms_tail is p{:.1} of the {} runs in the calmest windows ({} beyond it), \
             out of {} timed runs; run_ms_p50 {:.3} ms there, {:.3} ms over all runs",
            tl.percentile,
            tl.samples,
            tl.beyond,
            t.ops.len(),
            p50,
            t.median_ms()
        )),
        None => notes.push(format!("too few timed runs ({}) for a tail", pool.len())),
    }
    let m = w.modelled();
    let values = [
        w.tokens() as f64 / (p50 / 1e3),
        p50,
        tail.map_or(f64::NAN, |tl| tl.value),
        median(&setups),
        peak_rss_mb(),
        (t.attempted - t.failed) as f64 / t.attempted as f64,
        m.sim_tok_s,
        m.ttft_p99_s,
        m.goodput_frac,
        m.paper_err_pct,
    ];
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        notes.push("a metric is not finite".into());
    }
    Outcome {
        correct: oracle_ok && t.failed == 0 && tail.is_some() && finite,
        attempted: t.attempted,
        failed: t.failed,
        metrics,
        notes,
    }
}

/// The traced run: untraced operations for reference, then set-up and
/// operations with a span around every call into a layer, then the
/// workload's probes; the per-layer ledger comes from those spans.
fn traced<W: Workload>(args: &Args) -> Outcome {
    let budget = args.seconds * 0.3;
    let min_ops = args.min_ops.min(5);
    let mut notes = Vec::new();

    let mut off = Recorder::off();
    let mut w0 = W::setup(args.seed, &mut off);
    let mut correct = check_oracle(&mut w0, &mut notes);
    let untraced = time_ops(budget, min_ops, w0.warm(), || {
        catch_unwind(AssertUnwindSafe(|| w0.run_traced(&mut off)))
    });
    drop(w0);

    let mut rec = Recorder::on();
    let section = rec.open("bench/setup");
    let mut w = W::setup(args.seed, &mut rec);
    rec.close(section);
    notes.push(format!(
        "workload {} seed {} (traced): {}",
        args.workload,
        args.seed,
        w.describe()
    ));
    correct &= check_oracle(&mut w, &mut notes);
    notes.push(work_note(&w));
    let traced = time_ops(budget, min_ops, w.warm(), || {
        rec.begin_op("op");
        let section = rec.open("bench/op");
        let out = catch_unwind(AssertUnwindSafe(|| w.run_traced(&mut rec)));
        rec.close_through(section);
        out
    });
    correct &= untraced.failed == 0 && traced.failed == 0;
    let (op_ms, untraced_ms) = (traced.median_ms(), untraced.median_ms());

    let mut ledger: Ledger = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    if correct {
        w.probe(&mut rec, &mut ledger, op_ms);
    }
    let in_setup = |name: &'static str| {
        move |s: &crate::recorder::Span, op: &'static str| s.name == name && op == "setup"
    };
    ledger.insert(
        "setup.plan_ms",
        rec.self_ms_where(in_setup("llm_workload/plan")),
    );
    ledger.insert(
        "setup.trace_ms",
        rec.self_ms_where(in_setup("llm_workload/trace")),
    );
    ledger.insert(
        "setup.warmup_ms",
        rec.self_ms_where(in_setup("setup/warmup")),
    );
    let k = w.work();
    for (name, v) in [
        ("pricing.gemv_fills", k.gemv_fills),
        ("pricing.op_fills", k.op_fills),
        ("pricing.op_lookups", k.op_lookups),
        ("serve.dispatches", k.dispatches),
        ("serve.tokens", k.tokens),
        ("faults.page_rereads", k.page_rereads),
        ("faults.sheds", k.sheds),
    ] {
        ledger.insert(name, v as f64);
    }
    if k.op_lookups > 0 {
        ledger.insert(
            "pricing.op_hit_ratio",
            (k.op_lookups - k.op_fills) as f64 / k.op_lookups as f64,
        );
    }
    let wall_ms: f64 = rec
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum();
    let layer_ms = rec.self_ms_where(|s, _| s.layer() != "bench");
    ledger.insert("trace.overhead_pct", (op_ms / untraced_ms - 1.0) * 100.0);
    ledger.insert("trace.coverage_pct", layer_ms / wall_ms * 100.0);
    ledger.insert("trace.spans", rec.spans().len() as f64);
    ledger.insert("trace.ops", traced.attempted as f64);
    ledger.insert("trace.wall_ms", wall_ms);
    notes.push(format!(
        "traced {} ops ({:.3} ms median) vs untraced {} ops ({:.3} ms median); \
         layer self time covers {:.2}% of {:.1} ms traced wall",
        traced.attempted,
        op_ms,
        untraced.attempted,
        untraced_ms,
        ledger["trace.coverage_pct"],
        wall_ms
    ));
    notes.push(layer_table(&rec));
    match write_trace(&rec, args) {
        Ok(path) => notes.push(format!("spans written to {path}")),
        Err(e) => notes.push(format!("spans not written: {e}")),
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = ledger[name];
            (name, if v.is_finite() { v } else { 0.0 }, unit)
        })
        .collect();
    Outcome {
        correct,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics,
        notes,
    }
}

/// Self time per layer of the traced run, largest first.
fn layer_table(rec: &Recorder) -> String {
    let selfs = rec.self_ns();
    let mut by_layer: Vec<(&str, u64)> = Vec::new();
    for (s, t) in rec.spans().iter().zip(selfs) {
        match by_layer.iter_mut().find(|(l, _)| *l == s.layer()) {
            Some(e) => e.1 += t,
            None => by_layer.push((s.layer(), t)),
        }
    }
    by_layer.sort_by_key(|&(_, t)| std::cmp::Reverse(t));
    let cells: Vec<String> = by_layer
        .iter()
        .map(|(l, t)| format!("{l} {:.3} ms", *t as f64 / 1e6))
        .collect();
    format!("self time by layer: {}", cells.join(", "))
}

/// Writes the spans beside the executable (inside the build directory).
fn write_trace(rec: &Recorder, args: &Args) -> std::io::Result<String> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or_else(|| std::io::Error::other("executable has no directory"))?
        .join("perfbench-traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, rec.chrome_json())?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.into(),
            seed: 7,
            seconds: 0.05,
            trace,
            setup_reps: 1,
            setup_seconds: 0.0,
            min_ops: 12,
        }
    }

    fn units(o: &Outcome) -> Vec<(&'static str, &'static str)> {
        o.metrics.iter().map(|&(n, _, u)| (n, u)).collect()
    }

    #[test]
    fn names_are_legal_and_unique() {
        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(END_TO_END.iter().map(|(n, _)| *n));
        all.extend(PER_LAYER.iter().map(|(n, _)| *n));
        for n in &all {
            assert!(crate::metrics::is_valid_name(n), "{n}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "a name is used twice");
        for (_, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(!u.is_empty() && u.len() <= 16, "{u}");
            assert!(u
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_lists_the_registry() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        let entries = json.matches("\"name\":").count();
        assert_eq!(
            entries,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn parse_accepts_the_benchmark_command_line() {
        let a = Args::parse(
            [
                "--workload",
                "overload_rr",
                "--seed",
                "9",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("overload_rr", 9, 3.0, true)
        );
        for bad in [
            vec!["--workload", "nope"],
            vec!["--workload", "overload_rr", "--trace", "2"],
            vec!["--workload", "overload_rr", "--seconds", "0"],
            vec!["--seed", "1"],
        ] {
            assert!(Args::parse(bad.into_iter().map(String::from)).is_err());
        }
    }

    /// Every workload prints every end-to-end metric with its unit, the
    /// tail leaves ten runs beyond it, and the run checks out.
    #[test]
    fn end_to_end_output_is_complete() {
        for w in WORKLOADS {
            let o = run(&args(w, false));
            assert!(o.correct, "{w}: {:?}", o.notes);
            assert_eq!(units(&o), END_TO_END.to_vec(), "{w}");
            assert!(
                o.metrics.iter().all(|(_, v, _)| *v > 0.0),
                "{w}: {:?}",
                o.metrics
            );
            let line = o.json();
            for (name, unit) in END_TO_END {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{w} {name}"
                );
                assert!(
                    line.contains(&format!("\"unit\": \"{unit}\"")),
                    "{w} {unit}"
                );
            }
            let tail = o
                .notes
                .iter()
                .find(|n| n.starts_with("run_ms_tail"))
                .unwrap();
            assert!(tail.contains("(10 beyond it)"), "{tail}");
        }
    }

    /// Every workload's traced run prints every per-layer metric, and
    /// its layer self times cover at least 95% of the traced wall time.
    #[test]
    fn traced_output_is_complete_and_covered() {
        for w in WORKLOADS {
            let o = run(&args(w, true));
            assert!(o.correct, "{w}: {:?}", o.notes);
            assert_eq!(units(&o), PER_LAYER.to_vec(), "{w}");
            let get = |n: &str| o.metrics.iter().find(|m| m.0 == n).unwrap().1;
            assert!(get("trace.coverage_pct") >= 95.0, "{w}: {:?}", o.notes);
            assert!(get("pricing.cold_token_ms") > 0.0, "{w}");
            assert!(get("pricing.hit_ns") > 0.0, "{w}");
        }
    }

    /// Work counts are deterministic: two set-ups of one seed agree.
    #[test]
    fn work_counts_repeat_for_a_seed() {
        fn twice<W: Workload>() {
            let mut a = W::setup(3, &mut Recorder::off());
            let mut b = W::setup(3, &mut Recorder::off());
            a.oracle().unwrap();
            b.oracle().unwrap();
            assert_eq!(a.work(), b.work());
            assert!(a.warm() == b.warm());
            assert_eq!(a.modelled(), b.modelled());
        }
        twice::<DesignSweep>();
        twice::<OverloadRr>();
        twice::<OpenBatchedMc>();
        twice::<FleetFaulted>();
    }
}
