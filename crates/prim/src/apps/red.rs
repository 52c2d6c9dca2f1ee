//! RED — Reduction (parallel primitives).
//!
//! Each DPU reduces its partition; tasklet partial sums land in MRAM and
//! the host's Inter-DPU step fetches them with one small (256 B)
//! `read-from-rank` per DPU — exactly the access the paper flags for
//! triggering the prefetch cache's over-fetch (33×/145× Inter-DPU overhead
//! at 60/480 DPUs, Takeaway 1).

use simkit::AppSegment;
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::error::DpuFault;
use upmem_sim::kernel::{DpuKernel, KernelImage, SymbolDef};
use upmem_sim::{DpuContext, PimMachine};

use crate::common::{
    bytes_to_u32s, fnv1a_u32, gen_u32s, partition, partition_nth, u32s_to_bytes, AppRun, PrimApp,
    ScaleParams,
};

/// Tasklet partials stored per DPU (64 × 4 B = the paper's 256 B read).
pub const PARTIAL_SLOTS: usize = 64;

/// The DPU kernel: block-strided sum, one partial per tasklet.
#[derive(Debug)]
pub struct RedKernel;

impl DpuKernel for RedKernel {
    fn image(&self) -> KernelImage {
        KernelImage::new("red_kernel", 5 << 10)
            .with_symbol(SymbolDef::u32("n"))
            .with_symbol(SymbolDef::u32("off_out"))
    }

    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
        let n = ctx.host_u32("n")? as usize;
        let off_out = u64::from(ctx.host_u32("off_out")?);
        let tasklets = ctx.nr_tasklets();
        let mut partials = vec![0u32; PARTIAL_SLOTS];
        ctx.parallel(|t| {
            let range = partition_nth(n, tasklets, t.id());
            if range.is_empty() {
                return Ok(());
            }
            t.wram_alloc(1024)?;
            let mut buf = vec![0u32; 256];
            let mut pos = range.start;
            let mut acc = 0u32;
            while pos < range.end {
                let take = 256.min(range.end - pos);
                t.mram_read_u32s((pos * 4) as u64, &mut buf[..take])?;
                for &v in &buf[..take] {
                    acc = acc.wrapping_add(v);
                }
                t.charge(take as u64);
                pos += take;
            }
            partials[t.id()] = acc;
            Ok(())
        })?;
        ctx.single(|t| {
            t.mram_write_u32s(off_out, &partials)?;
            Ok(())
        })
    }
}

/// The RED application.
#[derive(Debug)]
pub struct Red;

impl PrimApp for Red {
    fn name(&self) -> &'static str {
        "RED"
    }

    fn domain(&self) -> &'static str {
        "Parallel primitives"
    }

    fn long_name(&self) -> &'static str {
        "Reduction"
    }

    fn register(&self, machine: &PimMachine) {
        machine.register_kernel(std::sync::Arc::new(RedKernel));
    }

    fn run(&self, set: &mut DpuSet, scale: &ScaleParams, seed: u64) -> Result<AppRun, SdkError> {
        let n_dpus = set.nr_dpus();
        let ranges = partition(scale.elements, n_dpus);
        let max_per = ranges.iter().map(std::ops::Range::len).max().unwrap_or(0);
        let off_out = ((max_per * 4) as u64).div_ceil(4096) * 4096;
        let input = gen_u32s(seed, scale.elements, 1 << 20);

        set.load("red_kernel")?;
        set.set_segment(AppSegment::CpuToDpu);
        let bufs: Vec<Vec<u8>> =
            ranges.iter().map(|r| u32s_to_bytes(&input[r.clone()])).collect();
        let ns: Vec<u32> = ranges.iter().map(|r| r.len() as u32).collect();
        set.scatter_symbol_u32("n", &ns)?;
        set.broadcast_symbol_u32("off_out", off_out as u32)?;
        set.push_to_heap(0, &bufs)?;

        set.set_segment(AppSegment::Dpu);
        set.launch(self.default_tasklets())?;

        // Inter-DPU: one 256 B read per DPU (the paper's prefetch trap).
        set.set_segment(AppSegment::InterDpu);
        let mut total = 0u32;
        for d in 0..n_dpus {
            let raw = set.copy_from_heap(d, off_out, PARTIAL_SLOTS * 4)?;
            for v in bytes_to_u32s(&raw) {
                total = total.wrapping_add(v);
            }
        }

        set.set_segment(AppSegment::DpuToCpu);
        let reference = input.iter().fold(0u32, |a, v| a.wrapping_add(*v));
        let verified = total == reference;
        Ok(if verified {
            AppRun::ok(fnv1a_u32(&[total]))
        } else {
            AppRun::mismatch(fnv1a_u32(&[total]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::native_vs_vpim;

    #[test]
    fn red_native_matches_vpim() {
        native_vs_vpim(&Red, 8192);
    }
}
