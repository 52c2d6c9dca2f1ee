//! The cost model: every timing constant of the simulation, in one place.
//!
//! The vPIM paper reports wall-clock time on a 16-core Xeon Silver 4215 with
//! 4 UPMEM PIM modules (8 ranks, 480 usable DPUs at 350 MHz). This module
//! replaces that testbed with documented constants. Absolute values are
//! calibrated against published UPMEM/Firecracker measurements (PrIM,
//! Gómez-Luna et al. 2022; Firecracker, Agache et al. 2020); the *relative*
//! behaviour (who wins, by what factor, where crossovers sit) is what the
//! reproduction preserves.

use serde::{Deserialize, Serialize};

use crate::time::VirtualNanos;

/// Which implementation handles byte (de)interleaving and matrix management
/// in the backend data path.
///
/// The paper found Rust's AVX-512 support too unstable and rewrote the hot
/// data path in C ("C enhancement", §4.2, Fig. 11–13). We reproduce this as
/// two data paths with distinct measured *and* modeled throughputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataPath {
    /// Scalar per-byte implementation — models the pure-Rust/AVX2 path
    /// (`vPIM-rust` in the paper).
    Scalar,
    /// Word-wise unrolled implementation — models the C/AVX-512 rewrite
    /// (`vPIM-C` and all later variants).
    Vectorized,
}

impl DataPath {
    /// All data paths, for exhaustive sweeps.
    pub const ALL: [DataPath; 2] = [DataPath::Scalar, DataPath::Vectorized];
}

/// Timing constants for the whole simulation.
///
/// All bandwidths are in MB/s (1 MB/s ⇒ 1 byte/µs), so
/// `ns = bytes × 1000 / bw_mbps`. Fixed costs are in nanoseconds.
///
/// # Example
///
/// ```
/// use simkit::CostModel;
///
/// let cm = CostModel::default();
/// // A virtio round trip costs far more than moving one 4 KiB page.
/// assert!(cm.virtio_round_trip() > cm.memcpy(4096));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    // ---------------------------------------------------------------- DDR / rank
    /// Fixed setup cost of one rank transfer operation (driver bookkeeping,
    /// DDR command issue), per operation.
    pub rank_op_fixed_ns: u64,
    /// Bandwidth of a *parallel* rank transfer (all DPUs of a rank in one
    /// push), MB/s. PrIM reports ~6–7 GB/s per rank for wide transfers.
    pub rank_parallel_bw_mbps: u64,
    /// Bandwidth of a *serial* per-DPU transfer (one DPU at a time), MB/s.
    /// PrIM reports roughly an order of magnitude below parallel mode.
    pub rank_serial_bw_mbps: u64,
    /// One control-interface word operation (status poll, command write)
    /// performed natively through the mmap'ed CI, ns.
    pub ci_op_ns: u64,
    /// Initial interval between CI status polls while the SDK waits for a
    /// synchronous launch (the wait loop backs off from here; see
    /// [`CostModel::launch_polls`]).
    pub launch_poll_interval_ns: u64,
    /// Coefficient (×10⁻⁶) of the sublinear poll-count curve
    /// `polls = k · t_ns^(2/3)`; calibrated to §5.3.1's CI counts.
    pub poll_curve_micro: u64,

    // ---------------------------------------------------------------- host CPU
    /// Plain host memcpy bandwidth, MB/s.
    pub memcpy_bw_mbps: u64,
    /// Byte-interleaving throughput of the scalar ("Rust") path, MB/s.
    pub interleave_scalar_bw_mbps: u64,
    /// Byte-interleaving throughput of the vectorized ("C") path, MB/s.
    pub interleave_vectorized_bw_mbps: u64,

    // ---------------------------------------------------------------- DPU
    /// DPU clock frequency in MHz (the evaluation hardware runs at 350 MHz).
    pub dpu_freq_mhz: u64,

    // ---------------------------------------------------------------- virtio / VMM
    /// Guest→host notification: vmexit through KVM plus Firecracker event
    /// dispatch, per kick, ns.
    pub virtio_kick_ns: u64,
    /// Host→guest completion: IRQ injection plus guest wakeup, per
    /// interrupt, ns.
    pub irq_inject_ns: u64,
    /// Walking one virtqueue descriptor (read, validate), ns.
    pub descriptor_walk_ns: u64,
    /// Translating one guest-physical page to a host virtual address, ns.
    pub gpa_translate_page_ns: u64,
    /// Serializing one page entry of the transfer matrix in the frontend, ns.
    pub serialize_page_ns: u64,
    /// Deserializing one page entry in the backend, ns.
    pub deserialize_page_ns: u64,
    /// Frontend page management: re-anchoring one userspace page for
    /// device I/O, ns.
    pub page_mgmt_page_ns: u64,
    /// Fixed frontend cost of serving a read from the prefetch cache
    /// (lookup + validity check), ns.
    pub prefetch_hit_fixed_ns: u64,
    /// Fixed frontend cost of appending a write to the batch buffer, ns.
    pub batch_append_fixed_ns: u64,

    // ---------------------------------------------------------------- manager
    /// End-to-end `dpu_alloc` round trip through the manager when a NAAV
    /// rank is immediately available (§4.2 reports 36 ms on average).
    pub manager_alloc_ns: u64,
    /// Bandwidth of the rank-content reset memset, MB/s. The paper reports
    /// ~597 ms to reset one rank (4 GiB of rank-mapped memory).
    pub rank_reset_bw_mbps: u64,

    // ---------------------------------------------------------------- misc
    /// Additional VM boot time contributed by one vUPMEM device (§3.2
    /// reports "up to 2 ms").
    pub vupmem_boot_ns: u64,
    /// Modelled width of the backend's per-DPU copy schedule (the paper's
    /// testbed settles on 8 threads = one per chip). Virtual only: no OS
    /// thread count derives from it.
    pub backend_threads: usize,
    /// Number of threads used for GPA→HVA translation in the backend.
    pub translate_threads: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            rank_op_fixed_ns: 2_000,
            rank_parallel_bw_mbps: 6_000,
            rank_serial_bw_mbps: 700,
            ci_op_ns: 1_000,
            launch_poll_interval_ns: 50_000,
            poll_curve_micro: 22_600,

            memcpy_bw_mbps: 12_000,
            interleave_scalar_bw_mbps: 500,
            interleave_vectorized_bw_mbps: 2_500,

            dpu_freq_mhz: 350,

            virtio_kick_ns: 14_000,
            irq_inject_ns: 11_000,
            descriptor_walk_ns: 120,
            gpa_translate_page_ns: 150,
            serialize_page_ns: 30,
            deserialize_page_ns: 35,
            page_mgmt_page_ns: 90,
            prefetch_hit_fixed_ns: 350,
            batch_append_fixed_ns: 250,

            manager_alloc_ns: 36_000_000,
            rank_reset_bw_mbps: 7_200,

            vupmem_boot_ns: 2_000_000,
            backend_threads: 8,
            translate_threads: 4,
        }
    }
}

/// `ns = bytes × 1000 / bw_mbps`, computed in 128-bit to avoid overflow.
fn xfer_ns(bytes: u64, bw_mbps: u64) -> VirtualNanos {
    if bw_mbps == 0 {
        return VirtualNanos::MAX;
    }
    let ns = (bytes as u128 * 1_000) / bw_mbps as u128;
    VirtualNanos::from_nanos(ns.min(u64::MAX as u128) as u64)
}

impl CostModel {
    /// Duration of a parallel (whole-rank) transfer of `bytes`.
    #[must_use]
    pub fn rank_transfer_parallel(&self, bytes: u64) -> VirtualNanos {
        VirtualNanos::from_nanos(self.rank_op_fixed_ns) + xfer_ns(bytes, self.rank_parallel_bw_mbps)
    }

    /// Duration of a serial (single-DPU) transfer of `bytes`.
    #[must_use]
    pub fn rank_transfer_serial(&self, bytes: u64) -> VirtualNanos {
        VirtualNanos::from_nanos(self.rank_op_fixed_ns) + xfer_ns(bytes, self.rank_serial_bw_mbps)
    }

    /// Duration of one native control-interface operation.
    #[must_use]
    pub fn ci_op(&self) -> VirtualNanos {
        VirtualNanos::from_nanos(self.ci_op_ns)
    }

    /// Number of CI status polls the SDK performs while waiting out a
    /// synchronous launch of the given duration (at least one).
    ///
    /// The SDK's wait loop backs off adaptively, so the poll count grows
    /// *sublinearly* with run time. The curve `polls ≈ k · t^(2/3)` is
    /// calibrated to the paper's reported checksum CI counts (§5.3.1:
    /// ≈8 000 ops for short runs, ≈28 000 for the longest): with
    /// `poll_curve_micro = 22_600` (k = 0.0226 in ns units), a 0.18 s run
    /// polls ≈7 200 times and a 1.37 s run ≈28 000 times.
    #[must_use]
    pub fn launch_polls(&self, launch_time: VirtualNanos) -> u64 {
        if self.launch_poll_interval_ns == 0 {
            return 1;
        }
        let t = launch_time.as_nanos() as f64;
        let k = self.poll_curve_micro as f64 / 1e6;
        let curved = (k * t.powf(2.0 / 3.0)) as u64;
        // Never more than one poll per interval (short runs stay linear).
        curved
            .min(launch_time.as_nanos() / self.launch_poll_interval_ns + 1)
            .max(1)
    }

    /// Duration of a plain host memcpy of `bytes`.
    #[must_use]
    pub fn memcpy(&self, bytes: u64) -> VirtualNanos {
        xfer_ns(bytes, self.memcpy_bw_mbps)
    }

    /// Duration of (de)interleaving `bytes` on the given [`DataPath`].
    #[must_use]
    pub fn interleave(&self, bytes: u64, path: DataPath) -> VirtualNanos {
        let bw = match path {
            DataPath::Scalar => self.interleave_scalar_bw_mbps,
            DataPath::Vectorized => self.interleave_vectorized_bw_mbps,
        };
        xfer_ns(bytes, bw)
    }

    /// Converts DPU cycles to virtual time at the configured frequency.
    #[must_use]
    pub fn dpu_cycles(&self, cycles: u64) -> VirtualNanos {
        if self.dpu_freq_mhz == 0 {
            return VirtualNanos::MAX;
        }
        let ns = (cycles as u128 * 1_000) / self.dpu_freq_mhz as u128;
        VirtualNanos::from_nanos(ns.min(u64::MAX as u128) as u64)
    }

    /// One full guest↔VMM transition: kick (vmexit + dispatch) plus the
    /// completion IRQ — the paper's dominant virtualization cost.
    #[must_use]
    pub fn virtio_round_trip(&self) -> VirtualNanos {
        VirtualNanos::from_nanos(self.virtio_kick_ns + self.irq_inject_ns)
    }

    /// Cost of walking `n` virtqueue descriptors.
    #[must_use]
    pub fn descriptor_walk(&self, n: u64) -> VirtualNanos {
        VirtualNanos::from_nanos(self.descriptor_walk_ns).saturating_mul(n)
    }

    /// Cost of translating `pages` guest-physical pages using the backend's
    /// translation thread pool.
    #[must_use]
    pub fn gpa_translate(&self, pages: u64) -> VirtualNanos {
        let threads = self.translate_threads.max(1) as u64;
        VirtualNanos::from_nanos(self.gpa_translate_page_ns)
            .saturating_mul(pages.div_ceil(threads))
    }

    /// Frontend serialization of a transfer matrix with `pages` page slots.
    #[must_use]
    pub fn serialize_matrix(&self, pages: u64) -> VirtualNanos {
        VirtualNanos::from_nanos(self.serialize_page_ns).saturating_mul(pages)
    }

    /// Backend deserialization of a transfer matrix with `pages` page slots.
    #[must_use]
    pub fn deserialize_matrix(&self, pages: u64) -> VirtualNanos {
        VirtualNanos::from_nanos(self.deserialize_page_ns).saturating_mul(pages)
    }

    /// Frontend page management for `pages` userspace pages.
    #[must_use]
    pub fn page_mgmt(&self, pages: u64) -> VirtualNanos {
        VirtualNanos::from_nanos(self.page_mgmt_page_ns).saturating_mul(pages)
    }

    /// Serving `bytes` from the frontend prefetch cache (no backend trip).
    #[must_use]
    pub fn prefetch_hit(&self, bytes: u64) -> VirtualNanos {
        VirtualNanos::from_nanos(self.prefetch_hit_fixed_ns) + self.memcpy(bytes)
    }

    /// Appending `bytes` to the frontend batch buffer (no backend trip).
    #[must_use]
    pub fn batch_append(&self, bytes: u64) -> VirtualNanos {
        VirtualNanos::from_nanos(self.batch_append_fixed_ns) + self.memcpy(bytes)
    }

    /// Full manager allocation round trip for an immediately available rank.
    #[must_use]
    pub fn manager_alloc(&self) -> VirtualNanos {
        VirtualNanos::from_nanos(self.manager_alloc_ns)
    }

    /// Resetting `bytes` of rank-mapped memory on release.
    #[must_use]
    pub fn rank_reset(&self, bytes: u64) -> VirtualNanos {
        xfer_ns(bytes, self.rank_reset_bw_mbps)
    }

    /// Checkpointing `bytes` of resident rank state into host memory (the
    /// copy-out half of a preemption; runs at host memcpy bandwidth).
    #[must_use]
    pub fn rank_snapshot(&self, bytes: u64) -> VirtualNanos {
        self.memcpy(bytes)
    }

    /// Restoring `bytes` of parked rank state onto a freshly reset rank
    /// (the copy-in half of a re-grant; runs at host memcpy bandwidth).
    #[must_use]
    pub fn rank_restore(&self, bytes: u64) -> VirtualNanos {
        self.memcpy(bytes)
    }

    /// Boot-time contribution of one vUPMEM device.
    #[must_use]
    pub fn vupmem_boot(&self) -> VirtualNanos {
        VirtualNanos::from_nanos(self.vupmem_boot_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_math_is_linear() {
        let cm = CostModel::default();
        let one = cm.memcpy(1 << 20);
        let two = cm.memcpy(2 << 20);
        assert_eq!(two.as_nanos(), one.as_nanos() * 2);
    }

    #[test]
    fn parallel_rank_transfer_beats_serial() {
        let cm = CostModel::default();
        assert!(cm.rank_transfer_parallel(1 << 20) < cm.rank_transfer_serial(1 << 20));
    }

    #[test]
    fn vectorized_interleave_beats_scalar() {
        let cm = CostModel::default();
        assert!(
            cm.interleave(1 << 20, DataPath::Vectorized) < cm.interleave(1 << 20, DataPath::Scalar)
        );
    }

    #[test]
    fn zero_bandwidth_saturates_instead_of_panicking() {
        let cm = CostModel {
            memcpy_bw_mbps: 0,
            ..CostModel::default()
        };
        assert!(cm.memcpy(1).is_saturated());
    }

    #[test]
    fn round_trip_dominates_small_copies() {
        let cm = CostModel::default();
        // The paper's central finding: transition count, not bytes, drives
        // overhead. One round trip must dwarf moving a small payload.
        assert!(cm.virtio_round_trip() > cm.memcpy(4096) * 10);
    }

    #[test]
    fn reset_time_matches_paper_order_of_magnitude() {
        let cm = CostModel::default();
        // ~597 ms for one 4 GiB rank (§4.2).
        let t = cm.rank_reset(4 << 30);
        assert!(t.as_millis() > 400 && t.as_millis() < 800, "{t}");
    }

    #[test]
    fn translate_uses_thread_pool() {
        let cm = CostModel::default();
        let serial = VirtualNanos::from_nanos(cm.gpa_translate_page_ns).saturating_mul(1000);
        assert!(cm.gpa_translate(1000) < serial);
    }
}
