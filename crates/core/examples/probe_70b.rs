//! Diagnostic: per-GeMV tiling plans and simulated latencies for
//! Llama2-70B on Cambricon-LLM-L — the breakdown behind the model's
//! 4.09 tokens/s, against the paper's 3.44 (ROADMAP item 2 tracks the
//! gap).
//!
//! ```text
//! cargo run -p cambricon-llm --example probe_70b
//! ```

use cambricon_llm::{System, SystemConfig};
use flash_sim::FlashDevice;
use llm_workload::{decode_step, zoo, Quant};
use tiling::plan_gemv;

fn main() {
    let cfg = SystemConfig::cambricon_l();
    let model = zoo::llama2_70b();
    let step = decode_step(&model, Quant::W8A8, 1000);
    let inp = cfg.alpha_inputs();
    println!("per-shape GeMV plans for {model} on {}:", cfg.name);
    for (r, c, n) in step.gemv_shape_census() {
        let plan = plan_gemv(&inp, r, c, tiling::Strategy::HardwareAware, None);
        let dev = FlashDevice::new(cfg.engine);
        let rep = dev.run_per_channel(&plan.channel_workloads(&inp));
        println!(
            "  {r:>5}x{c:<5} x{n:<3} tile {:>4}x{:<5} rc={:<3} reads={:<5} alpha={:.2} \
             finish={:>7.1}us util={:.2}",
            plan.tile.h_req,
            plan.tile.w_req,
            plan.rc_rounds,
            plan.read_pages_total,
            plan.alpha_achieved,
            rep.finish.as_secs_f64() * 1e6,
            rep.mean_utilization
        );
    }
    let mut sys = System::new(cfg);
    let rep = sys.decode_token(&model, 1000);
    println!(
        "token: {:.1} ms total = gemv {:.1} + kv {:.1} + sfu {:.1} ms -> {:.2} tok/s",
        rep.total.as_secs_f64() * 1e3,
        rep.gemv.as_secs_f64() * 1e3,
        rep.kv.as_secs_f64() * 1e3,
        rep.sfu.as_secs_f64() * 1e3,
        rep.tokens_per_sec
    );
}
