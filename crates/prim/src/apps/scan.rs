//! SCAN-SSA and SCAN-RSS — prefix sum, two decompositions (parallel
//! primitives).
//!
//! * **SCAN-SSA** (scan-scan-add): each DPU scans its partition locally,
//!   the host scans the per-DPU totals (Inter-DPU: small read + small
//!   write per DPU), and a second launch adds each DPU's base offset.
//! * **SCAN-RSS** (reduce-scan-scan): each DPU only *reduces* first, the
//!   host scans the sums, and the second launch performs the local scan
//!   with the base folded in — trading a cheaper first kernel for a
//!   heavier second one.
//!
//! Both exhibit the small Inter-DPU transfers the paper highlights.

use simkit::AppSegment;
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::error::DpuFault;
use upmem_sim::kernel::{DpuKernel, KernelImage, SymbolDef};
use upmem_sim::{DpuContext, PimMachine};

use crate::common::{
    bytes_to_u32s, fnv1a_u32, gen_u32s, partition, partition_nth, u32s_to_bytes, AppRun, PrimApp,
    ScaleParams,
};

/// Kernel phases, selected by a host symbol.
pub const PHASE_LOCAL_SCAN: u32 = 0;
/// Reduce-only phase (SCAN-RSS first launch).
pub const PHASE_REDUCE: u32 = 1;
/// Add-base phase (SCAN-SSA second launch).
pub const PHASE_ADD_BASE: u32 = 2;
/// Scan-with-base phase (SCAN-RSS second launch).
pub const PHASE_SCAN_BASE: u32 = 3;

/// The scan kernel: four phases over `[input][output]` MRAM regions.
#[derive(Debug)]
pub struct ScanKernel;

impl DpuKernel for ScanKernel {
    fn image(&self) -> KernelImage {
        KernelImage::new("scan_kernel", 9 << 10)
            .with_symbol(SymbolDef::u32("n"))
            .with_symbol(SymbolDef::u32("phase"))
            .with_symbol(SymbolDef::u32("base"))
            .with_symbol(SymbolDef::u32("off_out"))
            .with_symbol(SymbolDef::u32("total"))
    }

    #[allow(clippy::too_many_lines)]
    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
        let n = ctx.host_u32("n")? as usize;
        let phase = ctx.host_u32("phase")?;
        let base = ctx.host_u32("base")?;
        let off_out = u64::from(ctx.host_u32("off_out")?);
        let tasklets = ctx.nr_tasklets();

        match phase {
            PHASE_REDUCE => {
                let mut partials = vec![0u32; tasklets];
                ctx.parallel(|t| {
                    let range = partition_nth(n, tasklets, t.id());
                    t.wram_alloc(1024)?;
                    let mut buf = vec![0u32; 256];
                    let mut acc = 0u32;
                    let mut pos = range.start;
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
                let total = partials.iter().fold(0u32, |a, v| a.wrapping_add(*v));
                ctx.set_host_u32("total", total)?;
            }
            PHASE_LOCAL_SCAN | PHASE_SCAN_BASE => {
                // Two-pass scan: tasklet partial sums, then scan each
                // stripe with its exclusive prefix (plus the host base for
                // the SCAN_BASE phase).
                let mut partials = vec![0u32; tasklets];
                ctx.parallel(|t| {
                    let range = partition_nth(n, tasklets, t.id());
                    t.wram_alloc(1024)?;
                    let mut buf = vec![0u32; 256];
                    let mut acc = 0u32;
                    let mut pos = range.start;
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
                let mut prefix = vec![0u32; tasklets];
                let mut acc = if phase == PHASE_SCAN_BASE { base } else { 0 };
                for (i, p) in partials.iter().enumerate() {
                    prefix[i] = acc;
                    acc = acc.wrapping_add(*p);
                }
                let total = partials.iter().fold(0u32, |a, v| a.wrapping_add(*v));
                ctx.parallel(|t| {
                    let range = partition_nth(n, tasklets, t.id());
                    let mut buf = vec![0u32; 256];
                    let mut run = prefix[t.id()];
                    let mut pos = range.start;
                    while pos < range.end {
                        let take = 256.min(range.end - pos);
                        t.mram_read_u32s((pos * 4) as u64, &mut buf[..take])?;
                        for v in &mut buf[..take] {
                            run = run.wrapping_add(*v);
                            *v = run; // inclusive scan
                        }
                        t.charge(3 * take as u64);
                        t.mram_write_u32s(off_out + (pos * 4) as u64, &buf[..take])?;
                        pos += take;
                    }
                    Ok(())
                })?;
                ctx.set_host_u32("total", total)?;
            }
            PHASE_ADD_BASE => {
                ctx.parallel(|t| {
                    let range = partition_nth(n, tasklets, t.id());
                    let mut buf = vec![0u32; 256];
                    let mut pos = range.start;
                    while pos < range.end {
                        let take = 256.min(range.end - pos);
                        t.mram_read_u32s(off_out + (pos * 4) as u64, &mut buf[..take])?;
                        for v in &mut buf[..take] {
                            *v = v.wrapping_add(base);
                        }
                        t.charge(2 * take as u64);
                        t.mram_write_u32s(off_out + (pos * 4) as u64, &buf[..take])?;
                        pos += take;
                    }
                    Ok(())
                })?;
            }
            other => {
                return Err(DpuFault::new(format!("unknown scan phase {other}")));
            }
        }
        Ok(())
    }
}

fn run_scan(
    set: &mut DpuSet,
    scale: &ScaleParams,
    seed: u64,
    rss: bool,
    tasklets: usize,
) -> Result<AppRun, SdkError> {
    let n_dpus = set.nr_dpus();
    let ranges = partition(scale.elements, n_dpus);
    let max_per = ranges.iter().map(std::ops::Range::len).max().unwrap_or(0);
    let off_out = ((max_per * 4) as u64).div_ceil(4096) * 4096;
    let input = gen_u32s(seed, scale.elements, 1 << 16);

    set.load("scan_kernel")?;
    set.set_segment(AppSegment::CpuToDpu);
    let bufs: Vec<Vec<u8>> = ranges.iter().map(|r| u32s_to_bytes(&input[r.clone()])).collect();
    let ns: Vec<u32> = ranges.iter().map(|r| r.len() as u32).collect();
    set.scatter_symbol_u32("n", &ns)?;
    set.broadcast_symbol_u32("off_out", off_out as u32)?;
    set.broadcast_symbol_u32("base", 0)?;
    set.broadcast_symbol_u32("phase", if rss { PHASE_REDUCE } else { PHASE_LOCAL_SCAN })?;
    set.push_to_heap(0, &bufs)?;

    set.set_segment(AppSegment::Dpu);
    set.launch(tasklets)?;

    // Inter-DPU: read per-DPU totals, scan them, write bases back.
    set.set_segment(AppSegment::InterDpu);
    let mut bases = Vec::with_capacity(n_dpus);
    let mut acc = 0u32;
    for d in 0..n_dpus {
        bases.push(acc);
        acc = acc.wrapping_add(set.symbol_u32(d, "total")?);
    }
    set.scatter_symbol_u32("base", &bases)?;
    set.broadcast_symbol_u32("phase", if rss { PHASE_SCAN_BASE } else { PHASE_ADD_BASE })?;

    set.set_segment(AppSegment::Dpu);
    set.launch(tasklets)?;

    set.set_segment(AppSegment::DpuToCpu);
    let outs = set.push_from_heap(off_out, max_per * 4)?;
    let mut scanned = Vec::with_capacity(scale.elements);
    for (out, r) in outs.iter().zip(&ranges) {
        scanned.extend_from_slice(&bytes_to_u32s(out)[..r.len()]);
    }

    let mut reference = Vec::with_capacity(input.len());
    let mut run = 0u32;
    for &v in &input {
        run = run.wrapping_add(v);
        reference.push(run);
    }
    let verified = scanned == reference;
    Ok(if verified {
        AppRun::ok(fnv1a_u32(&scanned))
    } else {
        AppRun::mismatch(fnv1a_u32(&scanned))
    })
}

macro_rules! scan_app {
    ($ty:ident, $name:literal, $long:literal, $rss:literal) => {
        /// A prefix-sum decomposition variant.
        #[derive(Debug)]
        pub struct $ty;

        impl PrimApp for $ty {
            fn name(&self) -> &'static str {
                $name
            }

            fn domain(&self) -> &'static str {
                "Parallel primitives"
            }

            fn long_name(&self) -> &'static str {
                $long
            }

            fn register(&self, machine: &PimMachine) {
                machine.register_kernel(std::sync::Arc::new(ScanKernel));
            }

            fn run(
                &self,
                set: &mut DpuSet,
                scale: &ScaleParams,
                seed: u64,
            ) -> Result<AppRun, SdkError> {
                run_scan(set, scale, seed, $rss, self.default_tasklets())
            }
        }
    };
}

scan_app!(ScanSsa, "SCAN-SSA", "Prefix Sum: scan-scan-add", false);
scan_app!(ScanRss, "SCAN-RSS", "Prefix Sum: reduce-scan-scan", true);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::native_vs_vpim;

    #[test]
    fn scan_ssa_native_matches_vpim() {
        native_vs_vpim(&ScanSsa, 4096);
    }

    #[test]
    fn scan_rss_native_matches_vpim() {
        native_vs_vpim(&ScanRss, 4096);
    }

    #[test]
    fn both_decompositions_agree() {
        use simkit::CostModel;
        use std::sync::Arc;
        use upmem_driver::UpmemDriver;
        use upmem_sim::{PimConfig, PimMachine};

        let machine = PimMachine::new(PimConfig::small());
        ScanSsa.register(&machine);
        let driver = Arc::new(UpmemDriver::new(machine));
        let scale = ScaleParams::of(3000);
        let a = {
            let mut set = DpuSet::alloc_native(&driver, 8, CostModel::default()).unwrap();
            ScanSsa.run(&mut set, &scale, 11).unwrap()
        };
        let b = {
            let mut set = DpuSet::alloc_native(&driver, 8, CostModel::default()).unwrap();
            ScanRss.run(&mut set, &scale, 11).unwrap()
        };
        assert!(a.verified && b.verified);
        assert_eq!(a.checksum, b.checksum);
    }
}
