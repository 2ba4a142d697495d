//! Tile shapes and the paper's §V-A optimal-shape derivation.
//!
//! A weight matrix is cut into tiles of `Hreq × Wreq` elements; one tile
//! is one read-compute request, distributed over every compute core in
//! the device (each core handles a page-sized *atomic tile*). The channel
//! then carries, per tile, the input slice `Wreq / channelnum` (broadcast
//! to the cores of a channel) and the partial-result vector `Hreq` (the
//! per-core pieces), i.e. `Trans = Wreq + channelnum × Hreq` total.
//! Minimizing `Trans` under the fixed tile area
//! `Hreq × Wreq = channelnum × ccorenum × page_params` is an AM-GM
//! problem whose optimum is
//!
//! ```text
//! Hreq* = sqrt(ccorenum × page_params)
//! Wreq* = channelnum × sqrt(ccorenum × page_params)
//! ```

use flash_sim::Topology;

/// A tile shape in weight elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileShape {
    /// Tile height: length of the partial-result vector.
    pub h_req: usize,
    /// Tile width: length of the input-vector slice the tile consumes.
    pub w_req: usize,
}

impl TileShape {
    /// Elements covered by one tile.
    pub fn area(&self) -> u64 {
        self.h_req as u64 * self.w_req as u64
    }

    /// Total channel traffic per tile in elements (broadcast scheme of
    /// Figure 7(b)): `Wreq + channelnum × Hreq`.
    pub fn transfer_elems(&self, topo: &Topology) -> u64 {
        self.w_req as u64 + topo.channels as u64 * self.h_req as u64
    }

    /// The atomic tile (per compute core): `Hreq/ccorenum × Wreq/channelnum`.
    ///
    /// # Panics
    ///
    /// Panics if the shape does not divide evenly over the topology.
    pub fn atomic(&self, topo: &Topology) -> (usize, usize) {
        let cc = topo.compute_cores_per_channel();
        let ch = topo.channels;
        assert!(
            self.h_req % cc == 0 && self.w_req % ch == 0,
            "tile {}x{} does not divide over {} cores/channel × {} channels",
            self.h_req,
            self.w_req,
            cc,
            ch
        );
        (self.h_req / cc, self.w_req / ch)
    }
}

/// Number of weight elements in one page under `weight_bits` quantization.
pub fn page_params(topo: &Topology, weight_bits: u32) -> u64 {
    topo.page_bytes as u64 * 8 / weight_bits as u64
}

/// The §V-A optimal tile shape for a topology and weight width.
///
/// `Hreq` is rounded to the nearest multiple of `ccorenum` (and `Wreq`
/// adjusted to preserve the area) when the square root is not integral.
///
/// # Examples
///
/// ```
/// use flash_sim::Topology;
/// use tiling::optimal_tile;
///
/// // Cambricon-LLM-S, INT8: Hreq = √(4 × 16384) = 256, Wreq = 8 × 256.
/// let t = optimal_tile(&Topology::cambricon_s(), 8);
/// assert_eq!((t.h_req, t.w_req), (256, 2048));
/// ```
pub fn optimal_tile(topo: &Topology, weight_bits: u32) -> TileShape {
    let cc = topo.compute_cores_per_channel() as u64;
    let ch = topo.channels as u64;
    let pp = page_params(topo, weight_bits);
    debug_assert!(pp.is_power_of_two(), "page_params must be a power of two");
    // The atomic tile is `atomic_h × atomic_w = pp`; the ideal continuous
    // optimum has atomic_h = √(pp/cc). Since pp is a power of two, snap
    // atomic_h to the neighbouring powers of two (preserving the area
    // exactly) and keep whichever minimizes the per-tile transfer
    // `Trans = Wreq + channelnum × Hreq`.
    let ideal = ((pp as f64 / cc as f64).sqrt()).max(1.0);
    let lo = (1u64 << (ideal.log2().floor() as u32)).clamp(1, pp);
    let hi = (lo * 2).clamp(1, pp);
    let shape_for = |atomic_h: u64| TileShape {
        h_req: (cc * atomic_h) as usize,
        w_req: (ch * (pp / atomic_h)) as usize,
    };
    let (a, b) = (shape_for(lo), shape_for(hi));
    if a.transfer_elems(topo) <= b.transfer_elems(topo) {
        a
    } else {
        b
    }
}

/// The §V-A optimum constrained to fit inside a `rows × cols` matrix.
///
/// The unconstrained optimum can exceed a matrix dimension (e.g.
/// Cambricon-LLM-L's `Wreq* = 16384` against a 4096-wide projection);
/// real plans must then pick the transfer-minimizing shape among those
/// that keep the tile inside the matrix while preserving the exact tile
/// area (`cores × page_params`). Returns `None` when no whole tile fits
/// (the matrix then goes entirely to the NPU).
pub fn fit_tile(topo: &Topology, weight_bits: u32, rows: usize, cols: usize) -> Option<TileShape> {
    let cc = topo.compute_cores_per_channel() as u64;
    let ch = topo.channels as u64;
    let pp = page_params(topo, weight_bits);
    let mut best: Option<TileShape> = None;
    let mut atomic_h = 1u64;
    while atomic_h <= pp {
        if pp % atomic_h == 0 {
            let t = TileShape {
                h_req: (cc * atomic_h) as usize,
                w_req: (ch * (pp / atomic_h)) as usize,
            };
            if t.h_req <= rows && t.w_req <= cols {
                let better = match &best {
                    None => true,
                    Some(b) => t.transfer_elems(topo) < b.transfer_elems(topo),
                };
                if better {
                    best = Some(t);
                }
            }
        }
        atomic_h *= 2;
    }
    best
}

/// The minimum of `Trans` predicted by the AM-GM bound:
/// `2 × channelnum × sqrt(ccorenum × page_params)` elements.
pub fn min_transfer_elems(topo: &Topology, weight_bits: u32) -> f64 {
    let cc = topo.compute_cores_per_channel() as f64;
    let pp = page_params(topo, weight_bits) as f64;
    2.0 * topo.channels as f64 * (cc * pp).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_optimal_tiles() {
        // Table/Fig 13 context: Cam-S optimum is 256 × 2048 under INT8.
        let s = optimal_tile(&Topology::cambricon_s(), 8);
        assert_eq!((s.h_req, s.w_req), (256, 2048));
        // Cam-M: ccore = 8, √(8×16384) = 362 → snapped to 360; area kept.
        let m = optimal_tile(&Topology::cambricon_m(), 8);
        assert_eq!(m.h_req % 8, 0);
        assert_eq!(m.w_req % 16, 0);
        // Cam-L: ccore = 16, √(16×16384) = 512 exactly.
        let l = optimal_tile(&Topology::cambricon_l(), 8);
        assert_eq!((l.h_req, l.w_req), (512, 32 * 512));
    }

    #[test]
    fn optimal_is_at_amgm_bound() {
        for topo in [Topology::cambricon_s(), Topology::cambricon_l()] {
            let t = optimal_tile(&topo, 8);
            let bound = min_transfer_elems(&topo, 8);
            let actual = t.transfer_elems(&topo) as f64;
            assert!(
                actual <= bound * 1.01,
                "{actual} vs bound {bound} on {topo}"
            );
        }
    }

    #[test]
    fn optimal_beats_suboptimal_shapes() {
        // Figure 13's alternative shapes move more data.
        let topo = Topology::cambricon_s();
        let opt = optimal_tile(&topo, 8).transfer_elems(&topo);
        for (h, w) in [(128, 4096), (4096, 128)] {
            let t = TileShape { h_req: h, w_req: w };
            assert_eq!(t.area(), 256 * 2048); // same area
            assert!(t.transfer_elems(&topo) > opt, "{h}x{w}");
        }
    }

    #[test]
    fn broadcast_scheme_beats_no_reuse() {
        // §V-A: the Figure 7(c) splitting, which sends the input vector
        // to every compute core (`ccorenum × Wreq + channelnum × Hreq`),
        // is strictly worse.
        let topo = Topology::cambricon_s();
        let t = optimal_tile(&topo, 8);
        let no_reuse = topo.compute_cores_per_channel() as u64 * t.w_req as u64
            + topo.channels as u64 * t.h_req as u64;
        assert!(no_reuse > t.transfer_elems(&topo));
    }

    #[test]
    fn atomic_tile_is_page_sized() {
        let topo = Topology::cambricon_s();
        let t = optimal_tile(&topo, 8);
        let (ah, aw) = t.atomic(&topo);
        assert_eq!(ah as u64 * aw as u64, page_params(&topo, 8));
    }

    #[test]
    fn w4_doubles_page_params() {
        let topo = Topology::cambricon_s();
        assert_eq!(page_params(&topo, 4), 2 * page_params(&topo, 8));
        let t = optimal_tile(&topo, 4);
        assert_eq!(
            t.area(),
            topo.total_compute_cores() as u64 * page_params(&topo, 4)
        );
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn atomic_rejects_ragged_shape() {
        let topo = Topology::cambricon_s();
        TileShape {
            h_req: 101,
            w_req: 2048,
        }
        .atomic(&topo);
    }
}
