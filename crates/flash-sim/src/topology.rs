//! Flash device topology: channels, chips, dies, planes, pages.
//!
//! Mirrors the hierarchy of Figure 2 in the paper. In Cambricon-LLM every
//! die additionally carries one shared *Compute Core* (Figure 4(b)); the
//! core count is therefore derived as `dies × cores_per_die`.

use std::fmt;

/// Physical organization of the flash device.
///
/// # Examples
///
/// ```
/// use flash_sim::Topology;
///
/// let s = Topology::cambricon_s();
/// assert_eq!(s.channels, 8);
/// assert_eq!(s.compute_cores_per_channel(), 4); // 2 chips × 2 dies × 1 core
/// assert_eq!(s.total_compute_cores(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    /// Independent channels, each with its own 8-bit bus.
    pub channels: usize,
    /// Chips per channel (sharing the channel bus).
    pub chips_per_channel: usize,
    /// Dies per chip.
    pub dies_per_chip: usize,
    /// Planes per die (2 in all paper configurations).
    pub planes_per_die: usize,
    /// Compute cores per die (1 shared core in the paper).
    pub cores_per_die: usize,
    /// Page size in bytes (16 KB in all paper configurations).
    pub page_bytes: usize,
    /// Spare (out-of-band) bytes per page available for ECC storage.
    pub spare_bytes_per_page: usize,
}

impl Topology {
    /// Cambricon-LLM-S: 8 channels × 2 chips (Table II).
    pub fn cambricon_s() -> Self {
        Topology {
            channels: 8,
            chips_per_channel: 2,
            ..Self::paper_common()
        }
    }

    /// Cambricon-LLM-M: 16 channels × 4 chips (Table II).
    pub fn cambricon_m() -> Self {
        Topology {
            channels: 16,
            chips_per_channel: 4,
            ..Self::paper_common()
        }
    }

    /// Cambricon-LLM-L: 32 channels × 8 chips (Table II).
    pub fn cambricon_l() -> Self {
        Topology {
            channels: 32,
            chips_per_channel: 8,
            ..Self::paper_common()
        }
    }

    /// The per-chip organization shared by all Table II configurations:
    /// 2 dies per chip, 2 planes and 1 compute core per die, 16 KB pages
    /// with 1664 B spare.
    fn paper_common() -> Self {
        Topology {
            channels: 1,
            chips_per_channel: 1,
            dies_per_chip: 2,
            planes_per_die: 2,
            cores_per_die: 1,
            page_bytes: 16 * 1024,
            spare_bytes_per_page: 1664,
        }
    }

    /// A custom topology for scalability sweeps (Figure 15); keeps the
    /// paper's per-chip organization.
    pub fn custom(channels: usize, chips_per_channel: usize) -> Self {
        Topology {
            channels,
            chips_per_channel,
            ..Self::paper_common()
        }
    }

    /// Dies on one channel.
    pub fn dies_per_channel(&self) -> usize {
        self.chips_per_channel * self.dies_per_chip
    }

    /// Compute cores attached to one channel (the paper's `ccorenum`).
    pub fn compute_cores_per_channel(&self) -> usize {
        self.dies_per_channel() * self.cores_per_die
    }

    /// Compute cores in the whole device.
    pub fn total_compute_cores(&self) -> usize {
        self.channels * self.compute_cores_per_channel()
    }

    /// Validates the topology.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field (zero counts,
    /// non-power-of-two page size, or spare area too small for the
    /// paper's 722 B ECC payload).
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0
            || self.chips_per_channel == 0
            || self.dies_per_chip == 0
            || self.planes_per_die == 0
            || self.cores_per_die == 0
        {
            return Err("topology has a zero-sized level".into());
        }
        if self.page_bytes == 0 || !self.page_bytes.is_power_of_two() {
            return Err(format!("page size {} not a power of two", self.page_bytes));
        }
        Ok(())
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}ch x {}chip x {}die x {}plane, {}KB pages",
            self.channels,
            self.chips_per_channel,
            self.dies_per_chip,
            self.planes_per_die,
            self.page_bytes / 1024
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_table_ii() {
        let s = Topology::cambricon_s();
        let m = Topology::cambricon_m();
        let l = Topology::cambricon_l();
        assert_eq!((s.channels, s.chips_per_channel), (8, 2));
        assert_eq!((m.channels, m.chips_per_channel), (16, 4));
        assert_eq!((l.channels, l.chips_per_channel), (32, 8));
        for t in [s, m, l] {
            assert_eq!(t.dies_per_chip, 2);
            assert_eq!(t.planes_per_die, 2);
            assert_eq!(t.cores_per_die, 1);
            assert_eq!(t.page_bytes, 16 * 1024);
            t.validate().unwrap();
        }
    }

    #[test]
    fn core_counts() {
        assert_eq!(Topology::cambricon_s().total_compute_cores(), 32);
        assert_eq!(Topology::cambricon_m().total_compute_cores(), 128);
        assert_eq!(Topology::cambricon_l().total_compute_cores(), 512);
    }

    #[test]
    fn custom_keeps_per_chip_shape() {
        let t = Topology::custom(4, 3);
        assert_eq!(t.dies_per_channel(), 6);
        assert_eq!(t.page_bytes, 16 * 1024);
    }

    #[test]
    fn validation_catches_bad_page_size() {
        let mut t = Topology::cambricon_s();
        t.page_bytes = 10_000;
        assert!(t.validate().is_err());
        t.page_bytes = 0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validation_catches_zero_levels() {
        let mut t = Topology::cambricon_s();
        t.channels = 0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn display_is_informative() {
        let s = Topology::cambricon_s().to_string();
        assert!(s.contains("8ch"), "{s}");
        assert!(s.contains("16KB"), "{s}");
    }
}
