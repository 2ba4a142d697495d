//! Per-GeMV tiling plans.
//!
//! A [`GemvPlan`] decides, for one weight matrix, how many tiles the
//! flash compute cores execute (read-compute rounds) and how many pages
//! stream to the NPU (plain reads), following §V-B's α split. The plan
//! compiles directly into per-channel [`flash_sim::ChannelWorkload`]s.

use crate::alpha::{effective_rates, AlphaInputs, EffectiveRates};
use crate::shape::{fit_tile, page_params, TileShape};
use flash_sim::ChannelWorkload;

/// How GeMV work is distributed between flash and NPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Hardware-aware tiling: α to the flash cores, remainder streamed
    /// to the NPU in the channel bubbles (the paper's method).
    #[default]
    HardwareAware,
    /// Everything on the flash cores, nothing offloaded (the Figure 14
    /// "without hardware-aware tiling" baseline).
    FlashOnly,
    /// Everything streamed to the NPU (a conventional offloading device
    /// with no on-die compute).
    NpuOnly,
}

/// A tiling plan for one `rows × cols` weight matrix.
#[derive(Debug, Clone, Copy)]
pub struct GemvPlan {
    /// Matrix height (output length).
    pub rows: usize,
    /// Matrix width (input length).
    pub cols: usize,
    /// Tile shape used.
    pub tile: TileShape,
    /// Read-compute rounds (device-wide tiles sent to flash).
    pub rc_rounds: usize,
    /// Plain-read pages (total across channels) streamed to the NPU.
    pub read_pages_total: usize,
    /// Weight elements handled in flash.
    pub flash_params: u64,
    /// Weight elements handled on the NPU.
    pub npu_params: u64,
    /// The α actually achieved (flash share of elements).
    pub alpha_achieved: f64,
    /// Effective rates used to derive the split.
    pub rates: EffectiveRates,
    /// Input-broadcast bytes per channel per round.
    pub rc_input_bytes: u64,
    /// Result bytes per core per round.
    pub rc_result_bytes_per_core: u64,
    /// Arithmetic ops per page (compute-core load).
    pub ops_per_page: u64,
}

impl GemvPlan {
    /// Total weight elements of the matrix.
    pub fn total_params(&self) -> u64 {
        self.rows as u64 * self.cols as u64
    }

    /// Compiles the plan into one workload per channel. Read pages are
    /// spread round-robin, so channels differ by at most one page.
    pub fn channel_workloads(&self, inp: &AlphaInputs) -> Vec<ChannelWorkload> {
        let ch = inp.topology.channels;
        let base = self.read_pages_total / ch;
        let extra = self.read_pages_total % ch;
        (0..ch)
            .map(|i| ChannelWorkload {
                rc_rounds: self.rc_rounds,
                rc_input_bytes: self.rc_input_bytes,
                rc_result_bytes_per_core: self.rc_result_bytes_per_core,
                ops_per_page: self.ops_per_page,
                read_pages: base + usize::from(i < extra),
            })
            .collect()
    }
}

/// Builds the tiling plan for a `rows × cols` GeMV.
///
/// The matrix is covered exactly: `flash_params + npu_params ==
/// rows × cols`. Partial tiles at the matrix edges always go to the NPU
/// (they would under-fill the compute cores).
///
/// # Panics
///
/// Panics if `rows == 0 || cols == 0` or the tile shape (when overridden)
/// does not divide over the topology.
pub fn plan_gemv(
    inp: &AlphaInputs,
    rows: usize,
    cols: usize,
    strategy: Strategy,
    tile_override: Option<TileShape>,
) -> GemvPlan {
    assert!(rows > 0 && cols > 0, "empty GeMV");
    let topo = &inp.topology;
    // Use the override verbatim (ablations measure exactly that shape);
    // otherwise fit the transfer-optimal shape to this matrix. When no
    // whole tile fits the matrix streams entirely to the NPU.
    let fitted = tile_override.or_else(|| fit_tile(inp, rows, cols));
    let tile = fitted.unwrap_or(TileShape {
        h_req: topo.compute_cores_per_channel(),
        w_req: topo.channels
            * (page_params(topo, inp.weight_bits) as usize
                / topo.compute_cores_per_channel().max(1))
            .max(1),
    });
    let rates = effective_rates(inp, tile);

    let total = rows as u64 * cols as u64;
    let pp = page_params(topo, inp.weight_bits);

    // Allocation happens at *page* granularity: atomic tiles are single
    // pages, so the flash can take any number of pages — the final
    // read-compute round may be partial (some cores idle, edge pages
    // padded). This follows the paper's "α proportion of the weight
    // matrix is assigned to flash in a tiled manner" without forcing
    // whole-device-tile multiples, which would strand up to one full
    // tile (millions of parameters) on the NPU for matrices only a few
    // tiles wide.
    let alpha_target = match (strategy, fitted) {
        (_, None) => 0.0, // nothing fits → NPU streams everything
        (Strategy::HardwareAware, _) => rates.alpha,
        (Strategy::FlashOnly, _) => 1.0,
        (Strategy::NpuOnly, _) => 0.0,
    };

    let cores_total = (topo.total_compute_cores()) as u64;
    let pages_total = total.div_ceil(pp);
    let ch = topo.channels as f64;
    // Estimated finish for a given flash page count: flash is bounded by
    // its round cadence, the NPU share by channel-bus time.
    let estimate = |flash_pages: u64| -> f64 {
        let rounds = flash_pages.div_ceil(cores_total);
        let npu_pages = pages_total - flash_pages;
        let t_flash = rounds as f64 * rates.cadence_s;
        let t_bus = rounds as f64 * rates.t_ctrl_s + npu_pages as f64 / ch * rates.t_page_s;
        t_flash.max(t_bus)
    };
    // Pick the better of the two round-boundary neighbours of the ideal
    // split (blind rounding can leave one side idle on small matrices).
    // The Figure 14 ablation strategies are exact by definition:
    // FlashOnly offloads nothing, NpuOnly computes nothing on-die.
    let ideal_pages = (alpha_target * pages_total as f64).min(pages_total as f64);
    let lo = (ideal_pages / cores_total as f64).floor() as u64 * cores_total;
    let hi = ((ideal_pages / cores_total as f64).ceil() as u64 * cores_total).min(pages_total);
    let flash_pages = match (strategy, fitted) {
        (_, None) | (Strategy::NpuOnly, _) => 0,
        (Strategy::FlashOnly, _) => pages_total,
        (Strategy::HardwareAware, _) => {
            if estimate(hi) <= estimate(lo) {
                hi
            } else {
                lo
            }
        }
    };
    let rc_rounds = flash_pages.div_ceil(cores_total) as usize;
    let flash_params = (flash_pages * pp).min(total);
    let npu_params = total - flash_params;
    let read_pages_total = (pages_total - flash_pages) as usize;

    let rc_input_bytes = (tile.w_req / topo.channels * inp.act_bytes) as u64;
    let rc_result_bytes_per_core =
        (tile.h_req / topo.compute_cores_per_channel() * inp.act_bytes) as u64;

    GemvPlan {
        rows,
        cols,
        tile,
        rc_rounds,
        read_pages_total,
        flash_params,
        npu_params,
        alpha_achieved: flash_params as f64 / total as f64,
        rates,
        rc_input_bytes,
        rc_result_bytes_per_core,
        ops_per_page: 2 * pp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_sim::Topology;

    fn inp_s() -> AlphaInputs {
        AlphaInputs::paper(Topology::cambricon_s())
    }

    #[test]
    fn plan_covers_matrix_exactly() {
        let p = plan_gemv(&inp_s(), 4096, 4096, Strategy::HardwareAware, None);
        assert_eq!(p.flash_params + p.npu_params, 4096 * 4096);
        assert!(p.rc_rounds > 0);
        assert!(p.read_pages_total > 0);
    }

    #[test]
    fn alpha_achieved_close_to_target() {
        let p = plan_gemv(&inp_s(), 16384, 4096, Strategy::HardwareAware, None);
        assert!(
            (p.alpha_achieved - p.rates.alpha).abs() < 0.05,
            "{} vs {}",
            p.alpha_achieved,
            p.rates.alpha
        );
    }

    #[test]
    fn flash_only_sends_all_whole_tiles() {
        let p = plan_gemv(&inp_s(), 4096, 4096, Strategy::FlashOnly, None);
        // 4096×4096 over 256×2048 tiles = 16×2 = 32 whole tiles.
        assert_eq!(p.rc_rounds, 32);
        assert_eq!(p.flash_params, 4096 * 4096);
        assert_eq!(p.read_pages_total, 0);
    }

    #[test]
    fn npu_only_reads_everything() {
        let p = plan_gemv(&inp_s(), 4096, 4096, Strategy::NpuOnly, None);
        assert_eq!(p.rc_rounds, 0);
        assert_eq!(p.read_pages_total, 1024); // 16 MB / 16 KB
    }

    #[test]
    fn ragged_matrix_padded_into_partial_round() {
        // 4100 rows: the 4 extra rows spill into a 33rd, partial round
        // (allocation is page-granular; edge pages are padded).
        let p = plan_gemv(&inp_s(), 4100, 4096, Strategy::FlashOnly, None);
        assert_eq!(p.flash_params, 4100 * 4096);
        assert_eq!(p.npu_params, 0);
        assert_eq!(p.rc_rounds, 33);
        assert_eq!(p.read_pages_total, 0);
    }

    #[test]
    fn workloads_split_reads_evenly() {
        let p = plan_gemv(&inp_s(), 4096, 4096, Strategy::HardwareAware, None);
        let wls = p.channel_workloads(&inp_s());
        assert_eq!(wls.len(), 8);
        let total: usize = wls.iter().map(|w| w.read_pages).sum();
        assert_eq!(total, p.read_pages_total);
        let max = wls.iter().map(|w| w.read_pages).max().unwrap();
        let min = wls.iter().map(|w| w.read_pages).min().unwrap();
        assert!(max - min <= 1);
        for w in &wls {
            assert_eq!(w.rc_rounds, p.rc_rounds);
        }
    }

    #[test]
    fn tile_override_is_used() {
        let t = TileShape {
            h_req: 128,
            w_req: 4096,
        };
        let p = plan_gemv(&inp_s(), 4096, 4096, Strategy::HardwareAware, Some(t));
        assert_eq!(p.tile, t);
        assert_eq!(p.rc_input_bytes, 4096 / 8);
        assert_eq!(p.rc_result_bytes_per_core, 128 / 4);
    }

    #[test]
    fn small_matrix_gets_no_flash_tiles() {
        // Smaller than one tile → everything to the NPU.
        let p = plan_gemv(&inp_s(), 128, 128, Strategy::HardwareAware, None);
        assert_eq!(p.rc_rounds, 0);
        assert_eq!(p.npu_params, 128 * 128);
        assert_eq!(p.read_pages_total, 1);
    }

    #[test]
    #[should_panic(expected = "empty GeMV")]
    fn zero_matrix_panics() {
        plan_gemv(&inp_s(), 0, 4096, Strategy::HardwareAware, None);
    }

    #[test]
    fn w4_plans_use_denser_pages() {
        let mut inp = inp_s();
        inp.weight_bits = 4;
        let p8 = plan_gemv(&inp_s(), 16384, 4096, Strategy::NpuOnly, None);
        let p4 = plan_gemv(&inp, 16384, 4096, Strategy::NpuOnly, None);
        assert_eq!(p4.read_pages_total * 2, p8.read_pages_total);
    }
}
