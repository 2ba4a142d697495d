//! The determinism rule catalog.
//!
//! Every rule encodes an invariant the repo's headline claims rest on
//! — golden `ServeReport`s pinned bit-for-bit, span coalescing exact
//! by construction, Monte Carlo results identical at any worker count,
//! fault replay determinism — and each one is derived from a real past
//! bug or a pinned convention:
//!
//! * **D1 seed-hygiene** — PR 6: `root + i` per-stream seeds gave
//!   adjacent SplitMix64 states that walk the same sequence one step
//!   apart; stream seeds must come from `SplitMix64::split_seeds` (or
//!   `fork`), and generators are constructed only in the seed-stream
//!   modules.
//! * **D2 no-wall-clock / no-unordered-iteration** — `HashMap`/
//!   `HashSet` iterate in seeded-random order and `Instant::now`/
//!   `SystemTime` read the host clock; either inside a sim crate can
//!   leak nondeterminism into a report.
//! * **D3 float-ordering** — PR 5: a `partial_cmp().unwrap()`
//!   percentile comparator panicked on NaN; comparators use
//!   `f64::total_cmp`, and f64 sum/fold reductions live in
//!   `sim_core::stats` where the left-to-right order is pinned.
//! * **D4 RNG-confinement** — PR 7: speculative draws broke span vs
//!   per-op agreement; raw `next_u64`/`next_f64` draws belong to the
//!   trace modules (`reliability`, `montecarlo`, `batch`).
//! * **D5 unit-safety** — ps/bytes/ops ledgers are integer until the
//!   report boundary; an `as f64` on a unit-suffixed value in the
//!   serve/system hot path is where bit-exactness quietly dies.
//!
//! Plus two pragma-hygiene rules that keep suppressions honest:
//! **P0** (malformed pragma: missing reason, unknown rule, blanket
//! allow) and **P1** (pragma that suppresses nothing).

use crate::diagnostics::Diagnostic;
use crate::engine::FileCtx;

/// Static description of one rule, for `--rules` and the README.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable id used in diagnostics and pragmas.
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line rationale including the historical bug it encodes.
    pub rationale: &'static str,
}

/// All rules, in id order.
pub const CATALOG: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        name: "seed-hygiene",
        rationale: "stream seeds come from SplitMix64::split_seeds/fork, never seed arithmetic, \
                    and generators are constructed only in the seed-stream modules (PR 6: root+i \
                    gave adjacent states walking the same sequence one step apart)",
    },
    RuleInfo {
        id: "D2",
        name: "no-wall-clock-no-unordered-iteration",
        rationale: "sim crates must not touch HashMap/HashSet (seeded-random iteration order) or \
                    Instant::now/SystemTime (host clock); both can leak into a report",
    },
    RuleInfo {
        id: "D3",
        name: "float-ordering",
        rationale: "comparators use f64::total_cmp, not partial_cmp (PR 5: NaN panicked a \
                    percentile sort), and f64 sum/fold reductions live in sim_core::stats where \
                    left-to-right order is pinned",
    },
    RuleInfo {
        id: "D4",
        name: "rng-confinement",
        rationale: "raw next_u64/next_f64 draws belong to the trace modules \
                    (reliability/montecarlo/batch); speculative draws broke span vs per-op \
                    agreement in PR 7",
    },
    RuleInfo {
        id: "D5",
        name: "unit-safety",
        rationale: "_ps/_bytes/_ops values stay integer through the serve/system hot path; \
                    `as f64` belongs at the report boundary only",
    },
    RuleInfo {
        id: "P0",
        name: "pragma-syntax",
        rationale: "a suppression pragma must name a real rule and give a reason; blanket or \
                    file-level suppressions are rejected",
    },
    RuleInfo {
        id: "P1",
        name: "pragma-unused",
        rationale: "a pragma that suppresses nothing is stale and must be removed",
    },
];

/// Whether `id` names any rule in the catalog.
pub fn is_known(id: &str) -> bool {
    CATALOG.iter().any(|r| r.id == id)
}

/// Whether `id` may appear in an `allow(...)` pragma. The pragma
/// hygiene rules themselves cannot be suppressed.
pub fn is_suppressible(id: &str) -> bool {
    is_known(id) && id.starts_with('D')
}

/// Crates whose sources sit on a deterministic replay path. D2 and
/// D3's reduction check apply here; offline-analysis crates
/// (`accuracy-lab`, `outlier-ecc`, `baselines`, `tiling`) and the
/// wall-clock-measuring `bench` crate are out of scope by
/// construction.
pub const SIM_CRATES: &[&str] = &["core", "sim-core", "llm-workload", "npu-sim", "flash-sim"];

/// The RNG's home module: the only place seed mixing arithmetic and
/// raw draw definitions are allowed without comment.
const RNG_HOME: &str = "crates/sim-core/src/rng.rs";

/// Modules approved to construct `SplitMix64` streams and make raw
/// draws: the RNG itself plus the three trace modules whose draw
/// order is pinned by replay tests.
pub const SEED_STREAM_MODULES: &[&str] = &[
    RNG_HOME,
    "crates/core/src/reliability.rs",
    "crates/core/src/montecarlo.rs",
    "crates/llm-workload/src/batch.rs",
];

/// The approved home of f64 reductions (`sum_ordered`, `Estimate`,
/// `Aggregate`'s running sum): summation order is documented and
/// pinned there. `Samples` there sums integer picoseconds, not floats.
const FLOAT_SUM_HOME: &str = "crates/sim-core/src/stats.rs";

/// The serve/system hot path watched by D5.
const UNIT_HOT_PATH: &[&str] = &[
    "crates/core/src/serve/mod.rs",
    "crates/core/src/serve/device.rs",
    "crates/core/src/system.rs",
];

/// Runs every rule over one analyzed file.
pub fn check_file(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    d1_seed_hygiene(ctx, out);
    d2_order_and_clock(ctx, out);
    d3_float_ordering(ctx, out);
    d4_rng_confinement(ctx, out);
    d5_unit_safety(ctx, out);
}

fn seedish(name: &str) -> bool {
    name == "root" || name.ends_with("seed")
}

fn d1_seed_hygiene(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let ctor_approved = SEED_STREAM_MODULES.contains(&ctx.rel.as_str());
    let rng_home = ctx.rel == RNG_HOME;
    for i in 0..ctx.len() {
        if !ctx.live(i) {
            continue;
        }
        if !ctor_approved
            && ctx.id(i) == Some("SplitMix64")
            && ctx.colons(i + 1)
            && ctx.id(i + 3) == Some("new")
            && ctx.punct(i + 4) == Some('(')
        {
            out.push(Diagnostic::new(
                "D1",
                &ctx.rel,
                ctx.line(i),
                "`SplitMix64::new` outside the seed-stream modules (rng/reliability/montecarlo/\
                 batch): derive stream seeds with `SplitMix64::split_seeds` or `fork` there, or \
                 justify the root construction with a pragma"
                    .to_string(),
            ));
        }
        if rng_home {
            continue;
        }
        // Arithmetic seed derivation: `<seed-ish> + x`, `<seed-ish> ^ x`,
        // or the mirrored `x + <seed-ish>`.
        if matches!(ctx.punct(i + 1), Some('+') | Some('^')) {
            let lhs_val = ctx.id(i).is_some() || ctx.num(i).is_some();
            let rhs_val = ctx.id(i + 2).is_some() || ctx.num(i + 2).is_some();
            let lhs_seed = ctx.id(i).is_some_and(seedish);
            let rhs_seed = ctx.id(i + 2).is_some_and(seedish);
            if (lhs_seed && rhs_val) || (rhs_seed && lhs_val) {
                out.push(Diagnostic::new(
                    "D1",
                    &ctx.rel,
                    ctx.line(i),
                    format!(
                        "arithmetic seed derivation `{} {} ...`: adjacent SplitMix64 states walk \
                         the same sequence one step apart (the PR 6 bug class); use \
                         `SplitMix64::split_seeds`",
                        ctx.text(i),
                        ctx.text(i + 1),
                    ),
                ));
            }
        }
    }
}

fn d2_order_and_clock(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !SIM_CRATES.contains(&ctx.crate_dir.as_str()) {
        return;
    }
    for i in 0..ctx.len() {
        if !ctx.live(i) {
            continue;
        }
        match ctx.id(i) {
            Some(name @ ("HashMap" | "HashSet")) => out.push(Diagnostic::new(
                "D2",
                &ctx.rel,
                ctx.line(i),
                format!(
                    "`{name}` in a sim crate: iteration order is seeded-random and any iteration \
                     can leak into a report — use BTreeMap/Vec indexing, or pragma a \
                     lookup-only use"
                ),
            )),
            Some("SystemTime") => out.push(Diagnostic::new(
                "D2",
                &ctx.rel,
                ctx.line(i),
                "`SystemTime` in a sim crate: simulation time comes from `sim_core::SimTime`, \
                 never the host clock"
                    .to_string(),
            )),
            Some("Instant") if ctx.colons(i + 1) && ctx.id(i + 3) == Some("now") => {
                out.push(Diagnostic::new(
                    "D2",
                    &ctx.rel,
                    ctx.line(i),
                    "`Instant::now` in a sim crate: wall-clock reads belong to the bench \
                     harness; simulation time comes from `sim_core::SimTime`"
                        .to_string(),
                ));
            }
            _ => {}
        }
    }
}

fn d3_float_ordering(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    // (a) `.partial_cmp` calls — everywhere, *including* test code: a
    // NaN-panicking comparator in a test is exactly the PR 5 class.
    for i in 0..ctx.len() {
        if ctx.punct(i) == Some('.') && ctx.id(i + 1) == Some("partial_cmp") {
            out.push(Diagnostic::new(
                "D3",
                &ctx.rel,
                ctx.line(i + 1),
                "`.partial_cmp` in a comparator panics or misorders on NaN (the PR 5 percentile \
                 bug class); use `f64::total_cmp`"
                    .to_string(),
            ));
        }
    }
    // (b) f64 reductions — sim crates, live code, outside the stats home.
    if !SIM_CRATES.contains(&ctx.crate_dir.as_str()) || ctx.rel == FLOAT_SUM_HOME {
        return;
    }
    for i in 0..ctx.len() {
        if !ctx.live(i) || ctx.punct(i) != Some('.') {
            continue;
        }
        if ctx.id(i + 1) == Some("sum")
            && ctx.colons(i + 2)
            && ctx.punct(i + 4) == Some('<')
            && ctx.id(i + 5) == Some("f64")
            && ctx.punct(i + 6) == Some('>')
        {
            out.push(Diagnostic::new(
                "D3",
                &ctx.rel,
                ctx.line(i + 1),
                "f64 sum reduction outside `sim_core::stats`: summation order is a bit-exactness \
                 invariant — use `stats::sum_ordered` (pinned left-to-right) or an `Estimate` \
                 helper"
                    .to_string(),
            ));
        }
        if ctx.id(i + 1) == Some("fold") && ctx.punct(i + 2) == Some('(') {
            if let Some(init) = ctx.num(i + 3) {
                if float_literal(init) && !minmax_reducer(ctx, i + 4) {
                    out.push(Diagnostic::new(
                        "D3",
                        &ctx.rel,
                        ctx.line(i + 1),
                        format!(
                            "float fold (seed `{init}`) outside `sim_core::stats`: summation \
                             order is a bit-exactness invariant — use `stats::sum_ordered` \
                             (order-insensitive f64::max/min folds are exempt)"
                        ),
                    ));
                }
            }
        }
    }
}

fn float_literal(s: &str) -> bool {
    s.contains('.') || s.ends_with("f64") || s.ends_with("f32")
}

/// Recognizes `, f64::max` / `, f32::min` after a fold seed: min/max
/// folds are associative-commutative over non-NaN floats, so order
/// cannot change the result.
fn minmax_reducer(ctx: &FileCtx, i: usize) -> bool {
    ctx.punct(i) == Some(',')
        && matches!(ctx.id(i + 1), Some("f64") | Some("f32"))
        && ctx.colons(i + 2)
        && matches!(ctx.id(i + 4), Some("max") | Some("min"))
}

fn d4_rng_confinement(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if SEED_STREAM_MODULES.contains(&ctx.rel.as_str()) {
        return;
    }
    for i in 0..ctx.len() {
        if !ctx.live(i) {
            continue;
        }
        if ctx.punct(i) == Some('.') {
            if let Some(name @ ("next_u64" | "next_f64")) = ctx.id(i + 1) {
                out.push(Diagnostic::new(
                    "D4",
                    &ctx.rel,
                    ctx.line(i + 1),
                    format!(
                        "raw `.{name}` draw outside the trace modules \
                         (reliability/montecarlo/batch): stray draws desynchronize span vs \
                         per-op replay (the PR 7 bug class) — draw through a module-owned \
                         stream, or pragma with a reason"
                    ),
                ));
            }
        }
    }
}

fn d5_unit_safety(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !UNIT_HOT_PATH.contains(&ctx.rel.as_str()) {
        return;
    }
    for i in 0..ctx.len() {
        if !ctx.live(i) {
            continue;
        }
        if let Some(name) = ctx.id(i) {
            if (name.ends_with("_ps") || name.ends_with("_bytes") || name.ends_with("_ops"))
                && ctx.id(i + 1) == Some("as")
                && ctx.id(i + 2) == Some("f64")
            {
                out.push(Diagnostic::new(
                    "D5",
                    &ctx.rel,
                    ctx.line(i),
                    format!(
                        "`{name} as f64` in the serve/system hot path: ps/bytes/ops ledgers stay \
                         integer until the report boundary — move the cast to report \
                         construction, or pragma the boundary site"
                    ),
                ));
            }
        }
    }
}
