//! Shared plumbing for the PrIM applications.

pub use simkit::{bytes_to_u32s, u32s_to_bytes};
use simkit::SimRng;
use std::ops::Range;
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::PimMachine;

/// Strong-scaling problem size: the dataset is sized for the whole set and
/// split across however many DPUs it has (§5.2's configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleParams {
    /// Total number of elements (meaning is per-application: vector
    /// elements, matrix cells, graph vertices, …).
    pub elements: usize,
}

impl ScaleParams {
    /// A quick test-sized problem.
    #[must_use]
    pub fn tiny() -> Self {
        ScaleParams { elements: 1 << 12 }
    }

    /// The default benchmarking size (fits the reproduction machine; the
    /// paper's datasets fill one rank's MRAM).
    #[must_use]
    pub fn default_bench() -> Self {
        ScaleParams { elements: 1 << 20 }
    }

    /// A custom size.
    #[must_use]
    pub fn of(elements: usize) -> Self {
        ScaleParams { elements }
    }
}

/// Result of one application run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppRun {
    /// Whether the DPU results matched the CPU reference (§5.2: "DPU
    /// computed results match accurately with those computed on CPUs").
    pub verified: bool,
    /// An application-defined checksum of the output (for cross-transport
    /// equality assertions).
    pub checksum: u64,
}

impl AppRun {
    /// A verified run with the given checksum.
    #[must_use]
    pub fn ok(checksum: u64) -> Self {
        AppRun { verified: true, checksum }
    }

    /// A run whose output mismatched the reference.
    #[must_use]
    pub fn mismatch(checksum: u64) -> Self {
        AppRun { verified: false, checksum }
    }
}

/// One PrIM application: registration of its DPU kernels plus the host
/// program.
pub trait PrimApp: Send + Sync {
    /// Short name (Table 1), e.g. `"VA"`.
    fn name(&self) -> &'static str;

    /// Domain (Table 1), e.g. `"Dense linear algebra"`.
    fn domain(&self) -> &'static str;

    /// Full benchmark name (Table 1), e.g. `"Vector Addition"`.
    fn long_name(&self) -> &'static str;

    /// Registers the application's DPU kernels (installs its binaries).
    fn register(&self, machine: &PimMachine);

    /// The tasklet count PrIM found optimal for this benchmark.
    fn default_tasklets(&self) -> usize {
        16
    }

    /// Runs the host program on an allocated set; the set's timeline
    /// accumulates the paper's segment breakdown.
    ///
    /// # Errors
    ///
    /// SDK/transport/hardware failures.
    fn run(&self, set: &mut DpuSet, scale: &ScaleParams, seed: u64) -> Result<AppRun, SdkError>;
}

/// Splits `total` items into `parts` balanced contiguous ranges.
#[must_use]
pub fn partition(total: usize, parts: usize) -> Vec<Range<usize>> {
    (0..parts.max(1)).map(|i| partition_nth(total, parts, i)).collect()
}

/// The `i`-th range of [`partition`]`(total, parts)`, without building the
/// others: the first `total % parts` ranges hold one item more.
#[must_use]
pub fn partition_nth(total: usize, parts: usize, i: usize) -> Range<usize> {
    let parts = parts.max(1);
    let (base, extra) = (total / parts, total % parts);
    let start = i * base + i.min(extra);
    start..start + base + usize::from(i < extra)
}

/// Generates a deterministic input vector of `n` `u32`s below `bound`.
#[must_use]
pub fn gen_u32s(seed: u64, n: usize, bound: u32) -> Vec<u32> {
    let mut rng = SimRng::seeded(seed);
    rng.u32s_below(n, bound)
}

/// FNV-1a checksum over a `u32` slice (stable across transports).
#[must_use]
pub fn fnv1a_u32(vals: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in vals {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_balances_remainders() {
        let parts = partition(10, 3);
        assert_eq!(parts, vec![0..4, 4..7, 7..10]);
        assert_eq!(partition(2, 5).iter().map(|r| r.len()).sum::<usize>(), 2);
        assert_eq!(partition(0, 3).iter().map(|r| r.len()).sum::<usize>(), 0);
        assert_eq!(partition(5, 0).len(), 1);
    }

    #[test]
    fn partition_nth_matches_consecutive_balanced_ranges() {
        for total in [0, 1, 2, 15, 16, 17, 1_000, 4_097] {
            for parts in [0, 1, 3, 16, 24] {
                let (base, extra) = (total / parts.max(1), total % parts.max(1));
                let mut start = 0;
                for i in 0..parts.max(1) {
                    let len = base + usize::from(i < extra);
                    let want = start..start + len;
                    assert_eq!(partition_nth(total, parts, i), want, "{total} / {parts} [{i}]");
                    assert_eq!(partition(total, parts)[i], want);
                    start += len;
                }
                assert_eq!(start, total);
            }
        }
    }

    #[test]
    fn checksum_is_order_sensitive_and_stable() {
        let a = fnv1a_u32(&[1, 2, 3]);
        let b = fnv1a_u32(&[3, 2, 1]);
        assert_ne!(a, b);
        assert_eq!(a, fnv1a_u32(&[1, 2, 3]));
    }

    /// Values of the plain rejection loop, which every PrIM input, figure
    /// and fingerprint rests on.
    #[test]
    fn gen_matches_golden_vectors() {
        let pow2 =
            [204392214, 756103806, 971282849, 62087329, 585916004, 24728120, 442883506, 736493703];
        assert_eq!(gen_u32s(42, 8, 1 << 30), pow2);
        let prime = [188482, 382586, 173206, 314354, 42763, 52685, 885406, 257025];
        assert_eq!(gen_u32s(42, 8, 1_000_003), prime);
    }

    #[test]
    fn gen_is_deterministic() {
        assert_eq!(gen_u32s(42, 16, 100), gen_u32s(42, 16, 100));
        assert!(gen_u32s(42, 1000, 10).iter().all(|v| *v < 10));
    }
}
