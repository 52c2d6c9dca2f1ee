//! VA — Vector Addition (dense linear algebra).
//!
//! The canonical PrIM workload: `c[i] = a[i] + b[i]`, data-partitioned
//! across DPUs, each tasklet streaming its slice through WRAM in blocks.

use simkit::AppSegment;
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::error::DpuFault;
use upmem_sim::kernel::{DpuKernel, KernelImage, SymbolDef};
use upmem_sim::{DpuContext, PimMachine};

use crate::common::{
    bytes_to_u32s, fnv1a_u32, gen_u32s, partition, partition_nth, u32s_to_bytes, AppRun, PrimApp,
    ScaleParams,
};

/// Elements staged per WRAM block.
const BLOCK: usize = 256;

/// The DPU kernel: block-strided `c = a + b`.
#[derive(Debug)]
pub struct VaKernel;

impl DpuKernel for VaKernel {
    fn image(&self) -> KernelImage {
        KernelImage::new("va_kernel", 6 << 10)
            .with_symbol(SymbolDef::u32("n"))
            .with_symbol(SymbolDef::u32("off_b"))
            .with_symbol(SymbolDef::u32("off_c"))
    }

    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
        let n = ctx.host_u32("n")? as usize;
        let off_b = u64::from(ctx.host_u32("off_b")?);
        let off_c = u64::from(ctx.host_u32("off_c")?);
        let tasklets = ctx.nr_tasklets();
        ctx.parallel(|t| {
            let range = partition_nth(n, tasklets, t.id());
            if range.is_empty() {
                return Ok(());
            }
            t.wram_alloc(3 * BLOCK * 4)?;
            let mut a = vec![0u32; BLOCK];
            let mut b = vec![0u32; BLOCK];
            let mut pos = range.start;
            while pos < range.end {
                let take = BLOCK.min(range.end - pos);
                t.mram_read_u32s((pos * 4) as u64, &mut a[..take])?;
                t.mram_read_u32s(off_b + (pos * 4) as u64, &mut b[..take])?;
                for i in 0..take {
                    a[i] = a[i].wrapping_add(b[i]);
                }
                t.charge(2 * take as u64);
                t.mram_write_u32s(off_c + (pos * 4) as u64, &a[..take])?;
                pos += take;
            }
            Ok(())
        })
    }
}

/// The VA application.
#[derive(Debug)]
pub struct Va;

impl PrimApp for Va {
    fn name(&self) -> &'static str {
        "VA"
    }

    fn domain(&self) -> &'static str {
        "Dense linear algebra"
    }

    fn long_name(&self) -> &'static str {
        "Vector Addition"
    }

    fn register(&self, machine: &PimMachine) {
        machine.register_kernel(std::sync::Arc::new(VaKernel));
    }

    fn run(&self, set: &mut DpuSet, scale: &ScaleParams, seed: u64) -> Result<AppRun, SdkError> {
        let n_dpus = set.nr_dpus();
        let ranges = partition(scale.elements, n_dpus);
        let max_per = ranges.iter().map(std::ops::Range::len).max().unwrap_or(0);
        let chunk_bytes = ((max_per * 4) as u64).div_ceil(4096) * 4096;
        let (off_b, off_c) = (chunk_bytes, 2 * chunk_bytes);

        let a = gen_u32s(seed, scale.elements, 1 << 30);
        let b = gen_u32s(seed ^ 0x5bd1_e995, scale.elements, 1 << 30);

        set.load("va_kernel")?;
        set.set_segment(AppSegment::CpuToDpu);
        let bufs_a: Vec<Vec<u8>> =
            ranges.iter().map(|r| u32s_to_bytes(&a[r.clone()])).collect();
        let bufs_b: Vec<Vec<u8>> =
            ranges.iter().map(|r| u32s_to_bytes(&b[r.clone()])).collect();
        let ns: Vec<u32> = ranges.iter().map(|r| r.len() as u32).collect();
        set.scatter_symbol_u32("n", &ns)?;
        set.broadcast_symbol_u32("off_b", off_b as u32)?;
        set.broadcast_symbol_u32("off_c", off_c as u32)?;
        set.push_to_heap(0, &bufs_a)?;
        set.push_to_heap(off_b, &bufs_b)?;

        set.set_segment(AppSegment::Dpu);
        set.launch(self.default_tasklets())?;

        set.set_segment(AppSegment::DpuToCpu);
        let mut c = Vec::with_capacity(scale.elements);
        let outs = set.push_from_heap(off_c, max_per * 4)?;
        for (out, r) in outs.iter().zip(&ranges) {
            c.extend_from_slice(&bytes_to_u32s(out)[..r.len()]);
        }

        let reference: Vec<u32> =
            a.iter().zip(&b).map(|(x, y)| x.wrapping_add(*y)).collect();
        let verified = c == reference;
        Ok(if verified { AppRun::ok(fnv1a_u32(&c)) } else { AppRun::mismatch(fnv1a_u32(&c)) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::native_vs_vpim;

    #[test]
    fn va_native_matches_vpim() {
        native_vs_vpim(&Va, 4096);
    }

    #[test]
    fn va_handles_uneven_partitions() {
        native_vs_vpim(&Va, 1003);
    }
}
