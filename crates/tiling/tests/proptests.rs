//! Property tests for tile shapes and GeMV plans.

use flash_sim::Topology;
use proptest::prelude::*;
use tiling::{fit_tile, optimal_tile, page_params, plan_gemv, AlphaInputs, Strategy, TileShape};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The optimal tile always has exactly the device tile area and
    /// divides over the topology.
    #[test]
    fn optimal_tile_area_exact(ch_exp in 0u32..7, chips in 1usize..10, w4 in any::<bool>()) {
        let topo = Topology::custom(1 << ch_exp, chips);
        let bits = if w4 { 4 } else { 8 };
        let t = optimal_tile(&topo, bits);
        prop_assert_eq!(
            t.area(),
            topo.total_compute_cores() as u64 * page_params(&topo, bits)
        );
        let (ah, aw) = t.atomic(&topo);
        prop_assert_eq!(ah as u64 * aw as u64, page_params(&topo, bits));
    }

    /// The optimal tile is transfer-minimal among all exact-area
    /// power-of-two alternatives.
    #[test]
    fn optimal_tile_is_argmin(ch_exp in 0u32..6, chips in 1usize..9) {
        let topo = Topology::custom(1 << ch_exp, chips);
        let opt = optimal_tile(&topo, 8);
        let pp = page_params(&topo, 8);
        let cc = topo.compute_cores_per_channel() as u64;
        let mut ah = 1u64;
        while ah <= pp {
            let t = TileShape {
                h_req: (cc * ah) as usize,
                w_req: (topo.channels as u64 * (pp / ah)) as usize,
            };
            prop_assert!(opt.transfer_elems(&topo) <= t.transfer_elems(&topo),
                "{}x{} beats opt {}x{}", t.h_req, t.w_req, opt.h_req, opt.w_req);
            ah *= 2;
        }
    }

    /// fit_tile never returns a tile exceeding the matrix or a core's
    /// output buffer, and returns one whenever the trivially smallest
    /// candidate fits.
    #[test]
    fn fit_tile_respects_bounds(
        rows in 1usize..60_000,
        cols in 1usize..60_000,
        w4 in any::<bool>(),
    ) {
        let topo = Topology::cambricon_m();
        let inp = AlphaInputs {
            act_bytes: if w4 { 2 } else { 1 },
            weight_bits: if w4 { 4 } else { 8 },
            ..AlphaInputs::paper(topo)
        };
        let pp = page_params(&topo, inp.weight_bits);
        let cc = topo.compute_cores_per_channel() as u64;
        let holds = |atomic_h: u64| atomic_h as usize * inp.act_bytes <= inp.core.output_buf_bytes;
        match fit_tile(&inp, rows, cols) {
            Some(t) => {
                prop_assert!(t.h_req <= rows && t.w_req <= cols);
                prop_assert!(holds(t.h_req as u64 / cc));
                prop_assert_eq!(
                    t.area(),
                    topo.total_compute_cores() as u64 * pp
                );
            }
            None => {
                // No candidate fits: verify the extremes don't either.
                let ch = topo.channels as u64;
                let mut ah = 1u64;
                while ah <= pp && holds(ah) {
                    let h = (cc * ah) as usize;
                    let w = (ch * (pp / ah)) as usize;
                    prop_assert!(h > rows || w > cols);
                    ah *= 2;
                }
            }
        }
    }

    /// Plans conserve parameters and respect α bounds for arbitrary
    /// matrices and quantizations.
    #[test]
    fn plans_conserve_params(
        rows in 64usize..50_000,
        cols in 64usize..50_000,
        w4 in any::<bool>(),
    ) {
        let mut inp = AlphaInputs::paper(Topology::cambricon_s());
        if w4 {
            inp.weight_bits = 4;
            inp.act_bytes = 2;
        }
        let p = plan_gemv(&inp, rows, cols, Strategy::HardwareAware, None);
        prop_assert_eq!(p.flash_params + p.npu_params, rows as u64 * cols as u64);
        prop_assert!(p.alpha_achieved <= 1.0);
        // Workloads replicate the plan exactly.
        let wls = p.channel_workloads(&inp);
        let reads: usize = wls.iter().map(|w| w.read_pages).sum();
        prop_assert_eq!(reads, p.read_pages_total);
        prop_assert!(wls.iter().all(|w| w.rc_rounds == p.rc_rounds));
    }

    /// FlashOnly and NpuOnly are the two extremes of HardwareAware.
    #[test]
    fn strategies_are_ordered(rows in 1024usize..30_000, cols in 1024usize..30_000) {
        let inp = AlphaInputs::paper(Topology::cambricon_s());
        let hw = plan_gemv(&inp, rows, cols, Strategy::HardwareAware, None);
        let fo = plan_gemv(&inp, rows, cols, Strategy::FlashOnly, None);
        let no = plan_gemv(&inp, rows, cols, Strategy::NpuOnly, None);
        prop_assert!(no.flash_params == 0);
        prop_assert!(fo.flash_params >= hw.flash_params);
        prop_assert!(no.read_pages_total >= hw.read_pages_total);
    }
}
