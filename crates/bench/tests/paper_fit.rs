//! The paper-fit ledger: every cell `bench::paper` transcribes, computed
//! the way the `repro` figures compute it, with each figure's mean
//! |error| against the paper pinned at its current value.
//!
//! A pricing change (the flash DES, the tiling planner, the NPU or
//! energy models) moves these numbers, so it fails here and must
//! re-pin them, which shows its fit delta figure by figure. The
//! qualitative claims the paper rests on are checked beside the pins;
//! the cells where the model disagrees with a claim today are listed as
//! named known exceptions, so fixing one fails the test as surely as
//! breaking another does.
//!
//! Run with `--nocapture` to print the ledger.

use baselines::{FlexGen, MlcLlm};
use bench::paper;
use cambricon_llm::{AreaModel, EnergyModel, System, SystemConfig};
use flash_sim::CoreParams;
use llm_workload::{zoo, ModelSpec, Quant};
use tiling::{Strategy, TileShape};

/// The sequence position every figure decodes at, as in `repro`.
const SEQ: usize = 1000;

/// One figure's cells as `(label, ours, paper)`.
struct Fit {
    figure: &'static str,
    cells: Vec<(String, f64, f64)>,
}

impl Fit {
    fn new(figure: &'static str) -> Self {
        Fit {
            figure,
            cells: Vec::new(),
        }
    }

    fn cell(&mut self, label: impl Into<String>, ours: f64, paper: f64) {
        self.cells.push((label.into(), ours, paper));
    }

    /// Mean of `|ours − paper| / paper` over the cells, in percent.
    fn mean_abs_err_pct(&self) -> f64 {
        let sum: f64 = self
            .cells
            .iter()
            .map(|&(_, ours, paper)| ((ours - paper) / paper).abs())
            .sum();
        100.0 * sum / self.cells.len() as f64
    }

    /// Prints the figure's cells and checks its cell count and pinned
    /// mean |error|.
    fn pin(&self, cells: usize, mean_abs_err_pct: f64) {
        for (label, ours, paper) in &self.cells {
            let err = 100.0 * (ours - paper) / paper;
            println!(
                "{:<8} {label:<28} ours {ours:>10.3}  paper {paper:>10.3}  {err:>+7.1}%",
                self.figure
            );
        }
        let err = self.mean_abs_err_pct();
        println!("{:<8} mean |error| {err:.4}%", self.figure);
        assert_eq!(self.cells.len(), cells, "{} cells", self.figure);
        assert!(
            (err - mean_abs_err_pct).abs() < 1e-4,
            "{}: mean |error| {err:.4}% moved from the pinned {mean_abs_err_pct:.4}%",
            self.figure
        );
    }
}

/// Figure 9(a): Cam-S/M/L and both FlexGen modes on the OPT family.
fn fig9a() -> Fit {
    let mut fit = Fit::new("Fig 9a");
    let mut cams = [
        SystemConfig::cambricon_s(),
        SystemConfig::cambricon_m(),
        SystemConfig::cambricon_l(),
    ]
    .map(System::new);
    for (model, p) in zoo::opt_family().iter().zip(paper::FIG9A) {
        for (name, (sys, paper)) in ["Cam-S", "Cam-M", "Cam-L"]
            .iter()
            .zip(cams.iter_mut().zip([p.1, p.2, p.3]))
        {
            fit.cell(
                format!("{} {name}", model.name),
                sys.decode_speed(model, SEQ),
                paper,
            );
        }
        let ssd = FlexGen::ssd()
            .decode_speed(model, SEQ)
            .expect("FlexGen runs OPT");
        let dram = FlexGen::dram()
            .decode_speed(model, SEQ)
            .expect("FlexGen runs OPT");
        fit.cell(format!("{} FlexGen-SSD", model.name), ssd, p.4);
        fit.cell(format!("{} FlexGen-DRAM", model.name), dram, p.5);
    }
    fit
}

/// Figure 9(b): Cam-S/M/L and MLC-LLM on the Llama2 family. An OOM
/// cell must be OOM on both sides and carries no error.
fn fig9b() -> Fit {
    let mut fit = Fit::new("Fig 9b");
    let mut cams = [
        SystemConfig::cambricon_s(),
        SystemConfig::cambricon_m(),
        SystemConfig::cambricon_l(),
    ]
    .map(System::new);
    for (model, p) in zoo::llama_family().iter().zip(paper::FIG9B) {
        for (name, (sys, paper)) in ["Cam-S", "Cam-M", "Cam-L"]
            .iter()
            .zip(cams.iter_mut().zip([p.1, p.2, p.3]))
        {
            fit.cell(
                format!("{} {name}", model.name),
                sys.decode_speed(model, SEQ),
                paper,
            );
        }
        let mlc = MlcLlm::default().decode_speed(model).ok();
        assert_eq!(mlc.is_some(), p.4.is_some(), "{} MLC-LLM OOM", model.name);
        if let (Some(ours), Some(paper)) = (mlc, p.4) {
            fit.cell(format!("{} MLC-LLM", model.name), ours, paper);
        }
    }
    fit
}

/// Figure 11's four configurations, in the paper's column order.
fn fig11_configs() -> [(&'static str, SystemConfig); 4] {
    [
        ("S-W8A8", SystemConfig::cambricon_s()),
        (
            "S-W4A16",
            SystemConfig::cambricon_s().with_quant(Quant::W4A16),
        ),
        ("L-W8A8", SystemConfig::cambricon_l()),
        (
            "L-W4A16",
            SystemConfig::cambricon_l().with_quant(Quant::W4A16),
        ),
    ]
}

/// Figure 11: W8A8 against W4A16 on Cam-S and Cam-L, every model.
fn fig11() -> Fit {
    let mut fit = Fit::new("Fig 11");
    let mut systems = fig11_configs().map(|(name, cfg)| (name, System::new(cfg)));
    for (model, p) in zoo::all().iter().zip(paper::FIG11) {
        for ((name, sys), paper) in systems.iter_mut().zip([p.1, p.2, p.3, p.4]) {
            fit.cell(
                format!("{} {name}", model.name),
                sys.decode_speed(model, SEQ),
                paper,
            );
        }
    }
    fit
}

/// Figure 12: read-request slicing on Cam-S, speed and channel usage.
fn fig12() -> Fit {
    let mut fit = Fit::new("Fig 12");
    for (model, p) in zoo::all().iter().zip(paper::FIG12) {
        let a = System::new(SystemConfig::cambricon_s()).decode_token(model, SEQ);
        let b =
            System::new(SystemConfig::cambricon_s().without_read_slice()).decode_token(model, SEQ);
        fit.cell(format!("{} tok/s slice", model.name), a.tokens_per_sec, p.1);
        fit.cell(
            format!("{} tok/s no-slice", model.name),
            b.tokens_per_sec,
            p.2,
        );
        fit.cell(
            format!("{} usage slice", model.name),
            a.channel_utilization,
            p.3,
        );
        fit.cell(
            format!("{} usage no-slice", model.name),
            b.channel_utilization,
            p.4,
        );
    }
    fit
}

/// Figure 13's tiles: the paper's 256×2048, then 128×4096 and
/// 4096×128.
fn fig13_configs() -> [(&'static str, SystemConfig); 3] {
    let tile = |h_req, w_req| SystemConfig::cambricon_s().with_tile(TileShape { h_req, w_req });
    [
        ("256x2048", SystemConfig::cambricon_s()),
        ("128x4096", tile(128, 4096)),
        ("4096x128", tile(4096, 128)),
    ]
}

/// Figure 13: the tile-size ablation on Cam-S.
fn fig13() -> Fit {
    let mut fit = Fit::new("Fig 13");
    for (model, p) in zoo::all().iter().zip(paper::FIG13) {
        for ((name, cfg), paper) in fig13_configs().into_iter().zip([p.1, p.2, p.3]) {
            fit.cell(
                format!("{} {name}", model.name),
                System::new(cfg).decode_speed(model, SEQ),
                paper,
            );
        }
    }
    fit
}

/// Figure 14: hardware-aware tiling against flash-only on Cam-S.
fn fig14() -> Fit {
    let mut fit = Fit::new("Fig 14");
    for (model, p) in zoo::all().iter().zip(paper::FIG14) {
        let a = System::new(SystemConfig::cambricon_s()).decode_token(model, SEQ);
        let b = System::new(SystemConfig::cambricon_s().with_strategy(Strategy::FlashOnly))
            .decode_token(model, SEQ);
        fit.cell(
            format!("{} tok/s tiling", model.name),
            a.tokens_per_sec,
            p.1,
        );
        fit.cell(
            format!("{} tok/s flash-only", model.name),
            b.tokens_per_sec,
            p.2,
        );
        fit.cell(
            format!("{} usage tiling", model.name),
            a.channel_utilization,
            p.3,
        );
        fit.cell(
            format!("{} usage flash-only", model.name),
            b.channel_utilization,
            p.4,
        );
    }
    fit
}

/// Figure 16: data moved and energy per token, Cam-S against
/// FlexGen-SSD, with the `repro` figure's FlexGen formulas.
fn fig16() -> Fit {
    let mut fit = Fit::new("Fig 16");
    let em = EnergyModel::calibrated();
    for ((model, pa), pb) in zoo::all().iter().zip(paper::FIG16A).zip(paper::FIG16B) {
        let rep = System::new(SystemConfig::cambricon_s()).decode_token(model, SEQ);
        let weights = model.weight_bytes(8);
        let flex_bytes = 3 * weights + rep.traffic.dram_bytes;
        let flex_j =
            em.flexgen_ssd_token_j(weights, rep.traffic.dram_bytes, 2 * model.param_count());
        let gb = |bytes: u64| bytes as f64 / 1e9;
        fit.cell(
            format!("{} Cam GB", model.name),
            gb(rep.traffic.transferred_bytes()),
            pa.1,
        );
        fit.cell(format!("{} FlexGen GB", model.name), gb(flex_bytes), pa.2);
        fit.cell(
            format!("{} Cam J", model.name),
            em.cambricon_token_j(&rep.traffic),
            pb.1,
        );
        fit.cell(format!("{} FlexGen J", model.name), flex_j, pb.2);
    }
    fit
}

/// Table IV: compute-core area and power per component and in total.
fn table4() -> Fit {
    let mut fit = Fit::new("Table IV");
    let rep = AreaModel::default().report(&CoreParams::paper());
    assert_eq!(rep.components.len(), 3);
    for (c, p) in rep.components.iter().zip(paper::TABLE4) {
        fit.cell(format!("{} area", c.name), c.area_um2, p.1);
        fit.cell(format!("{} power", c.name), c.power_uw, p.2);
    }
    let total = paper::TABLE4[3];
    fit.cell("Total area", rep.total_area_um2, total.1);
    fit.cell("Total power", rep.total_power_uw, total.2);
    fit
}

#[test]
fn fig9a_fit_is_pinned() {
    fig9a().pin(20, 9.6068);
}

#[test]
fn fig9b_fit_is_pinned() {
    fig9b().pin(10, 11.9712);
}

#[test]
fn fig11_fit_is_pinned() {
    fig11().pin(28, 11.6357);
}

#[test]
fn fig12_fit_is_pinned() {
    fig12().pin(28, 17.0384);
}

#[test]
fn fig13_fit_is_pinned() {
    fig13().pin(21, 15.2579);
}

#[test]
fn fig14_fit_is_pinned() {
    fig14().pin(28, 11.3157);
}

#[test]
fn fig16_fit_is_pinned() {
    fig16().pin(28, 9.7296);
}

#[test]
fn table4_fit_is_pinned() {
    table4().pin(8, 0.0006);
}

/// The cells where a qualitative check fails today, as
/// `(check, model, detail)`. The checks compare this list exactly, so a
/// pricing change that mends or breaks a claim must edit it.
const KNOWN_EXCEPTIONS: &[(&str, &str, &str)] = &[
    (
        "W4A16 >= W8A8",
        "Llama2-7B",
        "Cam-L runs 30.45 tok/s at W4A16 against 30.72 at W8A8; the paper has 43.4 against 34.0",
    ),
    (
        "Fig 13 tile order",
        "OPT-30B",
        "128x4096 ties 256x2048 at 0.78 tok/s and edges it in the last digits",
    ),
    (
        "Fig 13 tile order",
        "OPT-66B",
        "128x4096 ties 256x2048 at 0.36 tok/s and edges it in the last digits",
    ),
];

/// Failed qualitative checks as `(check, model, detail)`.
type Failures = Vec<(&'static str, String, String)>;

/// Files `model`'s cell under `check` unless the claim `holds`.
fn note(
    failed: &mut Failures,
    check: &'static str,
    model: &ModelSpec,
    holds: bool,
    detail: String,
) {
    if !holds {
        failed.push((check, model.name.to_string(), detail));
    }
}

#[test]
fn the_papers_qualitative_claims_hold_but_for_the_known_exceptions() {
    let mut failed = Failures::new();
    // Larger configurations decode faster: S < M < L on every model.
    {
        let mut cams = [
            SystemConfig::cambricon_s(),
            SystemConfig::cambricon_m(),
            SystemConfig::cambricon_l(),
        ]
        .map(System::new);
        for model in zoo::all() {
            let [s, m, l] = cams.each_mut().map(|sys| sys.decode_speed(&model, SEQ));
            note(
                &mut failed,
                "S < M < L",
                &model,
                s < m && m < l,
                format!("{s:.2} / {m:.2} / {l:.2}"),
            );
        }
    }
    // Halving the weight bytes never slows a token down: W4A16 ≥ W8A8
    // on Cam-S and on Cam-L.
    {
        let mut systems = fig11_configs().map(|(name, cfg)| (name, System::new(cfg)));
        for model in zoo::all() {
            let [s8, s4, l8, l4] = systems
                .each_mut()
                .map(|(_, sys)| sys.decode_speed(&model, SEQ));
            note(
                &mut failed,
                "W4A16 >= W8A8",
                &model,
                s4 >= s8,
                format!("Cam-S {s4:.2} vs {s8:.2}"),
            );
            note(
                &mut failed,
                "W4A16 >= W8A8",
                &model,
                l4 >= l8,
                format!("Cam-L {l4:.2} vs {l8:.2}"),
            );
        }
    }
    // The paper's 256×2048 tile is the fastest of Fig 13's three.
    {
        for model in zoo::all() {
            let [ours, wide, tall] =
                fig13_configs().map(|(_, cfg)| System::new(cfg).decode_speed(&model, SEQ));
            note(
                &mut failed,
                "Fig 13 tile order",
                &model,
                ours >= wide && ours >= tall,
                format!("{ours:.2} vs {wide:.2} (128x4096), {tall:.2} (4096x128)"),
            );
        }
    }
    // Read-request slicing helps: faster tokens and a busier channel.
    {
        for model in zoo::all() {
            let a = System::new(SystemConfig::cambricon_s()).decode_token(&model, SEQ);
            let b = System::new(SystemConfig::cambricon_s().without_read_slice())
                .decode_token(&model, SEQ);
            note(
                &mut failed,
                "slicing helps",
                &model,
                a.tokens_per_sec > b.tokens_per_sec
                    && a.channel_utilization > b.channel_utilization,
                format!(
                    "{:.2} vs {:.2} tok/s, usage {:.2} vs {:.2}",
                    a.tokens_per_sec,
                    b.tokens_per_sec,
                    a.channel_utilization,
                    b.channel_utilization
                ),
            );
        }
    }
    for (check, model, detail) in &failed {
        println!("known exception? {check}: {model}: {detail}");
    }
    let named: Vec<(&str, &str)> = failed.iter().map(|(c, m, _)| (*c, m.as_str())).collect();
    let known: Vec<(&str, &str)> = KNOWN_EXCEPTIONS.iter().map(|&(c, m, _)| (c, m)).collect();
    assert_eq!(named, known, "the failing qualitative checks changed");
}
