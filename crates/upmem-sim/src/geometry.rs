//! Hardware geometry constants and machine configuration.
//!
//! Values follow §2 of the paper: a rank holds 8 PIM chips of 8 DPUs each
//! (64 DPUs); every DPU has a 64 MB MRAM bank, 64 KB WRAM and 24 KB IRAM and
//! runs up to 24 tasklets at up to 400 MHz (the evaluation DIMMs run at
//! 350 MHz). The evaluation machine has 8 ranks; its first rank exposes only
//! 60 functional DPUs (hence the paper's 60/480-DPU configurations).

use serde::{Deserialize, Serialize};

/// DPUs per PIM chip.
pub const DPUS_PER_CHIP: usize = 8;
/// PIM chips per rank.
pub const CHIPS_PER_RANK: usize = 8;
/// DPUs per rank (8 chips × 8 DPUs).
pub const DPUS_PER_RANK: usize = DPUS_PER_CHIP * CHIPS_PER_RANK;
/// MRAM bank size per DPU: 64 MB.
pub const MRAM_SIZE: u64 = 64 << 20;
/// WRAM size per DPU: 64 KB.
pub const WRAM_SIZE: usize = 64 << 10;
/// IRAM size per DPU: 24 KB.
pub const IRAM_SIZE: usize = 24 << 10;
/// Maximum number of tasklets per DPU.
pub const MAX_TASKLETS: usize = 24;
/// Pipeline depth: a tasklet's consecutive instructions must be at least
/// this many cycles apart, so at least 11 tasklets are needed to keep the
/// pipeline full.
pub const PIPELINE_DEPTH: u64 = 11;
/// Page size used for transfer matrices (standard 4 KiB pages).
pub const PAGE_SIZE: usize = 4 << 10;
/// Maximum bytes one rank operation may move (§3.1: 4 GB hardware limit).
pub const MAX_RANK_XFER: u64 = 4 << 30;

/// Configuration of a simulated PIM machine.
///
/// # Example
///
/// ```
/// use upmem_sim::PimConfig;
///
/// let cfg = PimConfig::paper_testbed();
/// assert_eq!(cfg.ranks, 8);
/// assert_eq!(cfg.total_dpus(), 480);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PimConfig {
    /// Number of ranks installed.
    pub ranks: usize,
    /// Functional DPUs in each rank (index = rank id). Ranks beyond the
    /// vector's length default to [`DPUS_PER_RANK`]. The paper's testbed has
    /// 60 functional DPUs in rank 0 due to defects.
    pub functional_dpus: Vec<usize>,
    /// MRAM bytes per DPU. Defaults to [`MRAM_SIZE`]; tests shrink this.
    pub mram_size: u64,
    /// WRAM bytes per DPU.
    pub wram_size: usize,
    /// IRAM bytes per DPU.
    pub iram_size: usize,
    /// DPU clock in MHz (350 on the evaluation DIMMs).
    pub freq_mhz: u64,
    /// Inert; deleted by ROADMAP item 1. Nothing reads it: every transfer
    /// moves its bytes straight between host (or guest) memory and MRAM.
    #[doc(hidden)]
    pub verify_interleave: bool,
}

impl PimConfig {
    /// The paper's testbed: 8 ranks, 60 functional DPUs in rank 0 and 60 in
    /// the others too (480 total usable DPUs out of 512).
    #[must_use]
    pub fn paper_testbed() -> Self {
        PimConfig {
            ranks: 8,
            functional_dpus: vec![60; 8],
            mram_size: MRAM_SIZE,
            wram_size: WRAM_SIZE,
            iram_size: IRAM_SIZE,
            freq_mhz: 350,
            verify_interleave: false,
        }
    }

    /// A small machine for unit tests: 2 ranks × 8 DPUs × 1 MB MRAM.
    #[must_use]
    pub fn small() -> Self {
        PimConfig {
            ranks: 2,
            functional_dpus: vec![8, 8],
            mram_size: 1 << 20,
            wram_size: WRAM_SIZE,
            iram_size: IRAM_SIZE,
            freq_mhz: 350,
            verify_interleave: false,
        }
    }

    /// Number of functional DPUs in `rank`.
    #[must_use]
    pub fn dpus_in_rank(&self, rank: usize) -> usize {
        self.functional_dpus
            .get(rank)
            .copied()
            .unwrap_or(DPUS_PER_RANK)
            .min(DPUS_PER_RANK)
    }

    /// Total functional DPUs across the machine.
    #[must_use]
    pub fn total_dpus(&self) -> usize {
        (0..self.ranks).map(|r| self.dpus_in_rank(r)).sum()
    }

    /// Bytes of rank-mapped memory in one rank (full 64-DPU geometry; the
    /// manager resets the whole mapped window, not just functional DPUs).
    #[must_use]
    pub fn rank_mapped_bytes(&self) -> u64 {
        self.mram_size * DPUS_PER_RANK as u64
    }
}

impl Default for PimConfig {
    fn default() -> Self {
        PimConfig::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_matches_evaluation_section() {
        let cfg = PimConfig::paper_testbed();
        assert_eq!(cfg.ranks, 8);
        assert_eq!(cfg.dpus_in_rank(0), 60);
        assert_eq!(cfg.total_dpus(), 480);
        assert_eq!(cfg.freq_mhz, 350);
        // 8 GiB of rank-mapped memory per... no: 64 DPUs × 64 MB = 4 GiB.
        assert_eq!(cfg.rank_mapped_bytes(), 4 << 30);
    }

    #[test]
    fn dpus_beyond_vector_default_to_full_rank() {
        let cfg = PimConfig {
            ranks: 3,
            functional_dpus: vec![60],
            ..PimConfig::small()
        };
        assert_eq!(cfg.dpus_in_rank(0), 60);
        assert_eq!(cfg.dpus_in_rank(2), DPUS_PER_RANK);
    }

    #[test]
    fn functional_dpus_clamped_to_geometry() {
        let cfg = PimConfig {
            functional_dpus: vec![1000],
            ..PimConfig::small()
        };
        assert_eq!(cfg.dpus_in_rank(0), DPUS_PER_RANK);
    }

    #[test]
    fn geometry_constants() {
        assert_eq!(DPUS_PER_RANK, 64);
        assert_eq!(MRAM_SIZE, 64 << 20);
        assert_eq!(WRAM_SIZE, 64 << 10);
        assert_eq!(IRAM_SIZE, 24 << 10);
        assert_eq!(MAX_TASKLETS, 24);
        assert_eq!(PIPELINE_DEPTH, 11);
    }
}
