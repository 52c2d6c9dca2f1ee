//! HST-S / HST-L — Image histogram, short and long (image processing).
//!
//! Each DPU histograms its pixel partition. HST-S uses few bins (each
//! tasklet keeps a private WRAM histogram, merged at the barrier); HST-L
//! uses many bins (the histogram lives in MRAM and tasklets merge
//! sequentially). The DPU-CPU step reads each DPU's histogram — a small
//! `read-from-rank` that trips vPIM's prefetch over-fetch (Takeaway 1).

use simkit::AppSegment;
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::error::DpuFault;
use upmem_sim::kernel::{DpuKernel, KernelImage, SymbolDef};
use upmem_sim::{DpuContext, PimMachine};

use crate::common::{
    bytes_to_u32s, fnv1a_u32, gen_u32s, partition, partition_nth, u32s_to_bytes, AppRun, PrimApp,
    ScaleParams,
};

/// Bin count of the short-histogram variant.
pub const BINS_S: usize = 64;
/// Bin count of the long-histogram variant.
pub const BINS_L: usize = 4096;
/// Pixel depth (12-bit grayscale, as in PrIM's input).
pub const PIXEL_MAX: u32 = 1 << 12;

/// The histogram kernel, parameterized by bin count through a symbol.
#[derive(Debug)]
pub struct HstKernel {
    name: &'static str,
}

impl HstKernel {
    /// The short-variant kernel.
    #[must_use]
    pub fn short_variant() -> Self {
        HstKernel { name: "hst_s_kernel" }
    }

    /// The long-variant kernel.
    #[must_use]
    pub fn long_variant() -> Self {
        HstKernel { name: "hst_l_kernel" }
    }
}

impl DpuKernel for HstKernel {
    fn image(&self) -> KernelImage {
        KernelImage::new(self.name, 8 << 10)
            .with_symbol(SymbolDef::u32("n"))
            .with_symbol(SymbolDef::u32("bins"))
            .with_symbol(SymbolDef::u32("off_hist"))
    }

    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
        let n = ctx.host_u32("n")? as usize;
        let bins = ctx.host_u32("bins")? as usize;
        let off_hist = u64::from(ctx.host_u32("off_hist")?);
        let tasklets = ctx.nr_tasklets();
        let small = bins * 4 <= 2048; // WRAM-resident per-tasklet histograms
        let mut partials: Vec<Vec<u32>> = vec![vec![0u32; bins]; tasklets];
        ctx.parallel(|t| {
            let range = partition_nth(n, tasklets, t.id());
            if range.is_empty() {
                return Ok(());
            }
            if small {
                t.wram_alloc(bins * 4 + 1024)?;
            } else {
                t.wram_alloc(1024)?;
            }
            let mut buf = vec![0u32; 256];
            let mut pos = range.start;
            while pos < range.end {
                let take = 256.min(range.end - pos);
                t.mram_read_u32s((pos * 4) as u64, &mut buf[..take])?;
                for &px in &buf[..take] {
                    let bin = (px as usize * bins) / PIXEL_MAX as usize;
                    partials[t.id()][bin.min(bins - 1)] += 1;
                }
                // HST-L pays extra instructions for MRAM-resident bins.
                t.charge(if small { 4 } else { 9 } * take as u64);
                pos += take;
            }
            Ok(())
        })?;
        // Barrier: merge tasklet histograms and store to MRAM.
        ctx.single(|t| {
            let mut merged = vec![0u32; bins];
            for p in &partials {
                for (m, v) in merged.iter_mut().zip(p) {
                    *m += v;
                }
            }
            t.charge((bins * partials.len()) as u64);
            t.mram_write_u32s(off_hist, &merged)?;
            Ok(())
        })
    }
}

macro_rules! hst_app {
    ($ty:ident, $name:literal, $long:literal, $kernel:literal, $bins:expr, $ctor:ident) => {
        /// The histogram application variant.
        #[derive(Debug)]
        pub struct $ty;

        impl PrimApp for $ty {
            fn name(&self) -> &'static str {
                $name
            }

            fn domain(&self) -> &'static str {
                "Image processing"
            }

            fn long_name(&self) -> &'static str {
                $long
            }

            fn register(&self, machine: &PimMachine) {
                machine.register_kernel(std::sync::Arc::new(HstKernel::$ctor()));
            }

            fn run(
                &self,
                set: &mut DpuSet,
                scale: &ScaleParams,
                seed: u64,
            ) -> Result<AppRun, SdkError> {
                run_hst(set, scale, seed, $kernel, $bins)
            }
        }
    };
}

hst_app!(HstS, "HST-S", "Image histogram short", "hst_s_kernel", BINS_S, short_variant);
hst_app!(HstL, "HST-L", "Image histogram long", "hst_l_kernel", BINS_L, long_variant);

fn run_hst(
    set: &mut DpuSet,
    scale: &ScaleParams,
    seed: u64,
    kernel: &str,
    bins: usize,
) -> Result<AppRun, SdkError> {
    let n_dpus = set.nr_dpus();
    let ranges = partition(scale.elements, n_dpus);
    let max_per = ranges.iter().map(std::ops::Range::len).max().unwrap_or(0);
    let off_hist = ((max_per * 4) as u64).div_ceil(4096) * 4096;
    let pixels = gen_u32s(seed, scale.elements, PIXEL_MAX);

    set.load(kernel)?;
    set.set_segment(AppSegment::CpuToDpu);
    let bufs: Vec<Vec<u8>> = ranges.iter().map(|r| u32s_to_bytes(&pixels[r.clone()])).collect();
    let ns: Vec<u32> = ranges.iter().map(|r| r.len() as u32).collect();
    set.scatter_symbol_u32("n", &ns)?;
    set.broadcast_symbol_u32("bins", bins as u32)?;
    set.broadcast_symbol_u32("off_hist", off_hist as u32)?;
    set.push_to_heap(0, &bufs)?;

    set.set_segment(AppSegment::Dpu);
    set.launch(16)?;

    // DPU-CPU: small per-DPU histogram reads (prefetch territory).
    set.set_segment(AppSegment::DpuToCpu);
    let mut hist = vec![0u32; bins];
    for d in 0..n_dpus {
        let raw = set.copy_from_heap(d, off_hist, bins * 4)?;
        for (h, v) in hist.iter_mut().zip(bytes_to_u32s(&raw)) {
            *h += v;
        }
    }

    let mut reference = vec![0u32; bins];
    for &px in &pixels {
        let bin = (px as usize * bins) / PIXEL_MAX as usize;
        reference[bin.min(bins - 1)] += 1;
    }
    let verified = hist == reference;
    Ok(if verified { AppRun::ok(fnv1a_u32(&hist)) } else { AppRun::mismatch(fnv1a_u32(&hist)) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::native_vs_vpim;

    #[test]
    fn hst_s_native_matches_vpim() {
        native_vs_vpim(&HstS, 4096);
    }

    #[test]
    fn hst_l_native_matches_vpim() {
        native_vs_vpim(&HstL, 4096);
    }

    #[test]
    fn bins_cover_pixel_range() {
        // The bin mapping must be total over the pixel domain.
        for px in [0u32, 1, PIXEL_MAX - 1] {
            let bin = (px as usize * BINS_S) / PIXEL_MAX as usize;
            assert!(bin.min(BINS_S - 1) < BINS_S);
        }
    }
}
