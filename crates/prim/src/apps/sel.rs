//! SEL — Select (databases).
//!
//! Each DPU filters its partition by a predicate (keep even values),
//! compacting survivors into an output region and reporting the count in a
//! host symbol. Faithful to PrIM's implementation detail (§5.2): the
//! **DPU-CPU step is serial**, retrieving each DPU's variable-length
//! output one at a time — which is why SEL slows down at 480 DPUs.

use simkit::AppSegment;
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::error::DpuFault;
use upmem_sim::kernel::{DpuKernel, KernelImage, SymbolDef};
use upmem_sim::{DpuContext, PimMachine};

use crate::common::{
    bytes_to_u32s, fnv1a_u32, gen_u32s, partition, partition_nth, u32s_to_bytes, AppRun, PrimApp,
    ScaleParams,
};

/// The selection predicate (shared by kernel and reference).
#[inline]
#[must_use]
pub fn keep(v: u32) -> bool {
    v.is_multiple_of(2)
}

/// The DPU kernel: per-tasklet filter + single-tasklet compaction pass.
#[derive(Debug)]
pub struct SelKernel;

impl DpuKernel for SelKernel {
    fn image(&self) -> KernelImage {
        KernelImage::new("sel_kernel", 7 << 10)
            .with_symbol(SymbolDef::u32("n"))
            .with_symbol(SymbolDef::u32("off_out"))
            .with_symbol(SymbolDef::u32("out_count"))
    }

    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
        let n = ctx.host_u32("n")? as usize;
        let off_out = u64::from(ctx.host_u32("off_out")?);
        let tasklets = ctx.nr_tasklets();
        // Phase 1: each tasklet counts its survivors (to size the prefix).
        let mut counts = vec![0u32; tasklets];
        ctx.parallel(|t| {
            let range = partition_nth(n, tasklets, t.id());
            if range.is_empty() {
                return Ok(());
            }
            t.wram_alloc(1024)?;
            let mut buf = vec![0u32; 256];
            let mut pos = range.start;
            let mut kept = 0u32;
            while pos < range.end {
                let take = 256.min(range.end - pos);
                t.mram_read_u32s((pos * 4) as u64, &mut buf[..take])?;
                kept += buf[..take].iter().filter(|v| keep(**v)).count() as u32;
                t.charge(3 * take as u64);
                pos += take;
            }
            counts[t.id()] = kept;
            Ok(())
        })?;
        // Barrier, then phase 2: compact using exclusive prefix offsets.
        let mut prefix = vec![0u32; tasklets];
        let mut acc = 0u32;
        for (i, c) in counts.iter().enumerate() {
            prefix[i] = acc;
            acc += c;
        }
        let total = acc;
        ctx.parallel(|t| {
            let range = partition_nth(n, tasklets, t.id());
            if range.is_empty() {
                return Ok(());
            }
            let mut buf = vec![0u32; 256];
            let mut out = Vec::new();
            let mut pos = range.start;
            while pos < range.end {
                let take = 256.min(range.end - pos);
                t.mram_read_u32s((pos * 4) as u64, &mut buf[..take])?;
                out.extend(buf[..take].iter().copied().filter(|v| keep(*v)));
                t.charge(4 * take as u64);
                pos += take;
            }
            if !out.is_empty() {
                t.mram_write_u32s(off_out + u64::from(prefix[t.id()]) * 4, &out)?;
            }
            Ok(())
        })?;
        ctx.set_host_u32("out_count", total)?;
        Ok(())
    }
}

/// The SEL application.
#[derive(Debug)]
pub struct Sel;

impl PrimApp for Sel {
    fn name(&self) -> &'static str {
        "SEL"
    }

    fn domain(&self) -> &'static str {
        "Databases"
    }

    fn long_name(&self) -> &'static str {
        "Select"
    }

    fn register(&self, machine: &PimMachine) {
        machine.register_kernel(std::sync::Arc::new(SelKernel));
    }

    fn run(&self, set: &mut DpuSet, scale: &ScaleParams, seed: u64) -> Result<AppRun, SdkError> {
        let n_dpus = set.nr_dpus();
        let ranges = partition(scale.elements, n_dpus);
        let max_per = ranges.iter().map(std::ops::Range::len).max().unwrap_or(0);
        let off_out = ((max_per * 4) as u64).div_ceil(4096) * 4096;
        let input = gen_u32s(seed, scale.elements, 1 << 24);

        set.load("sel_kernel")?;
        set.set_segment(AppSegment::CpuToDpu);
        let bufs: Vec<Vec<u8>> =
            ranges.iter().map(|r| u32s_to_bytes(&input[r.clone()])).collect();
        let ns: Vec<u32> = ranges.iter().map(|r| r.len() as u32).collect();
        set.scatter_symbol_u32("n", &ns)?;
        set.broadcast_symbol_u32("off_out", off_out as u32)?;
        set.push_to_heap(0, &bufs)?;

        set.set_segment(AppSegment::Dpu);
        set.launch(self.default_tasklets())?;

        // Faithful PrIM detail: serial per-DPU retrieval (count, then data).
        set.set_segment(AppSegment::DpuToCpu);
        let mut selected = Vec::new();
        for d in 0..n_dpus {
            let count = set.symbol_u32(d, "out_count")? as usize;
            if count > 0 {
                let raw = set.copy_from_heap(d, off_out, count * 4)?;
                selected.extend_from_slice(&bytes_to_u32s(&raw));
            }
        }

        let reference: Vec<u32> = input.iter().copied().filter(|v| keep(*v)).collect();
        let verified = selected == reference;
        Ok(if verified {
            AppRun::ok(fnv1a_u32(&selected))
        } else {
            AppRun::mismatch(fnv1a_u32(&selected))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::native_vs_vpim;

    #[test]
    fn sel_native_matches_vpim() {
        native_vs_vpim(&Sel, 4096);
    }
}
