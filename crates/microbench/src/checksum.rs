//! The checksum microbenchmark (UPMEM's `dpu_demo`).
//!
//! The host generates a random file of the requested size and transfers it
//! to **every** allocated DPU (same data everywhere — unlike PrIM there is
//! no partitioning); each DPU checksums its copy; the host reads each
//! DPU's result from its MRAM. One execution issues one `write-to-rank`,
//! one `read-from-rank` per DPU and a few CI operations (the benchmark reads
//! `virt.backend.ci` = 4 per run); §5.3.1 counts 8 000–28 000 synchronous-
//! launch status polls, a miss ROADMAP.md item 9's count table carries.

use simkit::AppSegment;
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::error::DpuFault;
use upmem_sim::kernel::{DpuKernel, KernelImage, SymbolDef};
use upmem_sim::{DpuContext, PimMachine};

use simkit::SimRng;

/// MRAM offset where the per-DPU result is stored (top of the data area is
/// not knowable before sizing, so results live at a fixed low page and the
/// file starts one page in).
pub const RESULT_OFFSET: u64 = 0;
/// File data starts here.
pub const DATA_OFFSET: u64 = 4096;

/// The DPU kernel: block-strided 32-bit sum of the file bytes.
#[derive(Debug)]
pub struct ChecksumKernel;

impl DpuKernel for ChecksumKernel {
    fn image(&self) -> KernelImage {
        KernelImage::new("checksum_kernel", 4 << 10)
            .with_symbol(SymbolDef::u32("nbytes"))
    }

    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
        let nbytes = ctx.host_u32("nbytes")? as usize;
        let tasklets = ctx.nr_tasklets();
        let mut partials = vec![0u32; tasklets];
        ctx.parallel(|t| {
            let per = nbytes.div_ceil(tasklets);
            let lo = (t.id() * per).min(nbytes);
            let hi = ((t.id() + 1) * per).min(nbytes);
            if lo >= hi {
                return Ok(());
            }
            // The 2 KiB block buffer is accounted in WRAM; the sum reads
            // each block where the DMA finds it.
            t.wram_alloc(2048)?;
            let mut pos = lo;
            let mut acc = 0u32;
            while pos < hi {
                let take = 2048.min(hi - pos);
                acc = t.mram_read_with(DATA_OFFSET + pos as u64, take, |block| {
                    byte_sum(acc, block)
                })?;
                // The DPU runs a byte-wise inner loop: load, extend, add,
                // bound check, index bump, branch — ~8 instructions per
                // byte. Only this charge is virtual time; the host sums
                // lane-wide.
                t.charge(8 * take as u64);
                pos += take;
            }
            partials[t.id()] = acc;
            Ok(())
        })?;
        ctx.single(|t| {
            let total = partials.iter().fold(0u32, |a, v| a.wrapping_add(*v));
            t.mram_write_u32s(RESULT_OFFSET, &[total])?;
            Ok(())
        })
    }
}

/// Lanes of the host-side byte sum: one 32-byte row per step.
const LANES: usize = 32;
/// Rows added into the `u16` lanes between flushes: 255 rows of bytes
/// ≤ 255 sum to at most 255 × 255 < 2¹⁶, so no lane overflows.
const FLUSH_ROWS: usize = 255;

/// `acc` plus every byte of `bytes`, wrapping at 2³². Bytes go into
/// [`LANES`] `u16` lanes a row at a time, the lanes into the total every
/// [`FLUSH_ROWS`] rows, and the short tail byte by byte; addition mod 2³²
/// is associative and commutative, so the result is the byte-at-a-time
/// fold's.
fn byte_sum(acc: u32, bytes: &[u8]) -> u32 {
    let mut total = acc;
    for block in bytes.chunks(LANES * FLUSH_ROWS) {
        let (rows, tail) = block.as_chunks::<LANES>();
        let mut lanes = [0u16; LANES];
        for row in rows {
            for (lane, &b) in lanes.iter_mut().zip(row) {
                *lane += u16::from(b);
            }
        }
        total = lanes.iter().fold(total, |t, &l| t.wrapping_add(u32::from(l)));
        total = tail.iter().fold(total, |t, &b| t.wrapping_add(u32::from(b)));
    }
    total
}

/// Outcome of one checksum execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChecksumRun {
    /// Whether every DPU agreed with the CPU checksum.
    pub verified: bool,
    /// The checksum value.
    pub value: u32,
}

/// The checksum application driver.
#[derive(Debug)]
pub struct Checksum;

impl Checksum {
    /// The kernel's registry name.
    pub const KERNEL: &'static str = "checksum_kernel";

    /// Registers the DPU kernel.
    pub fn register(machine: &PimMachine) {
        machine.register_kernel(std::sync::Arc::new(ChecksumKernel));
    }

    /// Runs the benchmark: `file_bytes` of random data to every DPU of the
    /// set. Segments: file transfer = CPU-DPU, compute = DPU, result
    /// retrieval = DPU-CPU. The file is written once into an SDK transfer
    /// buffer and broadcast; inside a VM the buffer is guest RAM whose
    /// pages every DPU's matrix entry names, so nothing copies it again.
    ///
    /// # Errors
    ///
    /// SDK/transport failures.
    pub fn run(set: &mut DpuSet, file_bytes: usize, seed: u64) -> Result<ChecksumRun, SdkError> {
        let mut rng = SimRng::seeded(seed);
        let file = rng.bytes(file_bytes);
        let expected = file.iter().fold(0u32, |a, b| a.wrapping_add(u32::from(*b)));

        set.load(Self::KERNEL)?;
        set.set_segment(AppSegment::CpuToDpu);
        let n = set.nr_dpus();
        let mut buf = set.alloc_broadcast_buf(file_bytes);
        buf.write(0, &file)?;
        set.broadcast_to_heap(DATA_OFFSET, &buf)?;
        // Its guest pages go back before the reads, as staged copies do.
        drop(buf);
        set.broadcast_symbol_u32("nbytes", file_bytes as u32)?;

        set.set_segment(AppSegment::Dpu);
        set.launch(16)?;

        // One read-from-rank per DPU (§5.3.1's "60 read-from-rank ops").
        set.set_segment(AppSegment::DpuToCpu);
        let mut verified = true;
        let mut value = 0u32;
        for d in 0..n {
            let raw = set.copy_from_heap(d, RESULT_OFFSET, 4)?;
            let v = u32::from_le_bytes(raw[..4].try_into().expect("4 bytes"));
            if d == 0 {
                value = v;
            }
            verified &= v == expected;
        }
        Ok(ChecksumRun { verified, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simkit::CostModel;
    use std::sync::Arc;
    use upmem_driver::UpmemDriver;
    use upmem_sim::PimConfig;

    /// The byte-at-a-time fold `byte_sum` replaces.
    fn fold(acc: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(acc, |a, &b| a.wrapping_add(u32::from(b)))
    }

    /// One flush block: `FLUSH_ROWS` rows of `LANES` bytes (8 160).
    const BLOCK: usize = LANES * FLUSH_ROWS;

    /// Lengths around every boundary of `byte_sum`, by `shape`: empty,
    /// under one row, one flush block ± 1, two to four whole blocks plus
    /// a tail of up to a row, or anything up to five blocks.
    fn length(shape: u8, pick: usize) -> usize {
        match shape {
            0 => 0,
            1 => pick % LANES,
            2 => BLOCK - 1 + pick % 3,
            3 => (2 + pick % 3) * BLOCK + pick % (LANES + 1),
            _ => pick % (5 * BLOCK),
        }
    }

    proptest! {
        /// `byte_sum` is the plain fold, from any starting total.
        #[test]
        fn byte_sum_matches_the_fold(
            acc in any::<u32>(),
            shape in 0..5u8,
            pick in any::<usize>(),
            seed in any::<u64>(),
        ) {
            let bytes = SimRng::seeded(seed).bytes(length(shape, pick));
            prop_assert_eq!(byte_sum(acc, &bytes), fold(acc, &bytes));
        }
    }

    /// Every lane at its bound: four flush blocks of 0xFF fill each `u16`
    /// lane to 255 × 255 before every flush, and an odd tail follows.
    #[test]
    fn byte_sum_of_all_ones_stays_inside_the_lanes() {
        let bytes = vec![0xFF; 4 * BLOCK + 7];
        assert_eq!(byte_sum(u32::MAX - 3, &bytes), fold(u32::MAX - 3, &bytes));
    }

    fn machine() -> PimMachine {
        let m = PimMachine::new(PimConfig::small());
        Checksum::register(&m);
        m
    }

    #[test]
    fn checksum_native() {
        let driver = Arc::new(UpmemDriver::new(machine()));
        let mut set = DpuSet::alloc_native(&driver, 8, CostModel::default()).unwrap();
        let run = Checksum::run(&mut set, 64 << 10, 1).unwrap();
        assert!(run.verified);
        // The timeline shows the expected op mix: 1 parallel write, 8 reads.
        assert!(set.timeline().rank_ops() >= 9);
    }

    #[test]
    fn checksum_vpim_matches_native() {
        let driver = Arc::new(UpmemDriver::new(machine()));
        let native = {
            let mut set = DpuSet::alloc_native(&driver, 4, CostModel::default()).unwrap();
            Checksum::run(&mut set, 16 << 10, 2).unwrap()
        };
        let sys = vpim::VpimSystem::start(driver, vpim::VpimConfig::full(), vpim::StartOpts::default());
        let vm = sys.launch(vpim::TenantSpec::new("vm-ck")).unwrap();
        let mut set = DpuSet::alloc_vm(vm.frontends(), 4, CostModel::default()).unwrap();
        let virt = Checksum::run(&mut set, 16 << 10, 2).unwrap();
        assert!(virt.verified);
        assert_eq!(virt.value, native.value);
        sys.shutdown();
    }

    /// An odd-length all-0xFF image over a tasklet count that does not
    /// divide it: every tasklet range and its last 2 KiB block are partial,
    /// and each DPU's result is the plain fold, on a native and a VM set.
    #[test]
    fn kernel_sums_a_ragged_image_on_native_and_vm_sets() {
        const LEN: usize = 300_007;
        const TASKLETS: usize = 11;
        assert_ne!(LEN % TASKLETS, 0);
        let expected = fold(0, &vec![0xFF; LEN]);
        let check = |set: &mut DpuSet| {
            set.load(Checksum::KERNEL).unwrap();
            let n = set.nr_dpus();
            set.push_to_heap(DATA_OFFSET, &vec![vec![0xFF; LEN]; n]).unwrap();
            set.broadcast_symbol_u32("nbytes", LEN as u32).unwrap();
            set.launch(TASKLETS).unwrap();
            for d in 0..n {
                let raw = set.copy_from_heap(d, RESULT_OFFSET, 4).unwrap();
                assert_eq!(u32::from_le_bytes(raw[..4].try_into().unwrap()), expected, "DPU {d}");
            }
        };
        let driver = Arc::new(UpmemDriver::new(machine()));
        check(&mut DpuSet::alloc_native(&driver, 3, CostModel::default()).unwrap());
        let sys = vpim::VpimSystem::start(driver, vpim::VpimConfig::full(), vpim::StartOpts::default());
        let vm = sys.launch(vpim::TenantSpec::new("vm-ragged")).unwrap();
        check(&mut DpuSet::alloc_vm(vm.frontends(), 3, CostModel::default()).unwrap());
        sys.shutdown();
    }

    #[test]
    fn larger_files_take_longer() {
        let driver = Arc::new(UpmemDriver::new(machine()));
        let mut t_small = simkit::VirtualNanos::ZERO;
        let mut t_big = simkit::VirtualNanos::ZERO;
        for (bytes, out) in [(8 << 10, &mut t_small), (128 << 10, &mut t_big)] {
            let mut set = DpuSet::alloc_native(&driver, 4, CostModel::default()).unwrap();
            Checksum::run(&mut set, bytes, 3).unwrap();
            *out = set.timeline().app_total();
        }
        assert!(t_big > t_small);
    }
}
