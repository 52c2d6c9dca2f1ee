//! UNI — Unique (databases).
//!
//! Removes *consecutive* duplicates (like `uniq(1)` / PrIM's UNI). Each
//! DPU compacts its partition; the host stitches partition boundaries
//! (dropping a partition's first survivor when it equals the previous
//! partition's last). Like SEL, the DPU-CPU step is **serial** (§5.2).

use simkit::AppSegment;
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::error::DpuFault;
use upmem_sim::kernel::{DpuKernel, KernelImage, SymbolDef};
use upmem_sim::{DpuContext, PimMachine};

use crate::common::{
    bytes_to_u32s, fnv1a_u32, partition, partition_nth, u32s_to_bytes, AppRun, PrimApp, ScaleParams,
};
use simkit::SimRng;

/// The DPU kernel: single-pass consecutive-duplicate removal.
///
/// Tasklet stripes need the element *before* their stripe to decide the
/// first element, so each tasklet reads one extra leading element.
#[derive(Debug)]
pub struct UniKernel;

impl DpuKernel for UniKernel {
    fn image(&self) -> KernelImage {
        KernelImage::new("uni_kernel", 7 << 10)
            .with_symbol(SymbolDef::u32("n"))
            .with_symbol(SymbolDef::u32("off_out"))
            .with_symbol(SymbolDef::u32("out_count"))
    }

    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
        let n = ctx.host_u32("n")? as usize;
        let off_out = u64::from(ctx.host_u32("off_out")?);
        let tasklets = ctx.nr_tasklets();
        // Phase 1: count survivors per stripe.
        let mut counts = vec![0u32; tasklets];
        ctx.parallel(|t| {
            let range = partition_nth(n, tasklets, t.id());
            if range.is_empty() {
                return Ok(());
            }
            t.wram_alloc(2048)?;
            let mut prev: Option<u32> = None;
            if range.start > 0 {
                let mut lead = [0u32; 1];
                t.mram_read_u32s(((range.start - 1) * 4) as u64, &mut lead)?;
                prev = Some(lead[0]);
            }
            let mut buf = vec![0u32; 256];
            let mut pos = range.start;
            let mut kept = 0u32;
            while pos < range.end {
                let take = 256.min(range.end - pos);
                t.mram_read_u32s((pos * 4) as u64, &mut buf[..take])?;
                for &v in &buf[..take] {
                    if prev != Some(v) {
                        kept += 1;
                    }
                    prev = Some(v);
                }
                t.charge(3 * take as u64);
                pos += take;
            }
            counts[t.id()] = kept;
            Ok(())
        })?;
        let mut prefix = vec![0u32; tasklets];
        let mut acc = 0u32;
        for (i, c) in counts.iter().enumerate() {
            prefix[i] = acc;
            acc += c;
        }
        let total = acc;
        // Phase 2: compact.
        ctx.parallel(|t| {
            let range = partition_nth(n, tasklets, t.id());
            if range.is_empty() {
                return Ok(());
            }
            let mut prev: Option<u32> = None;
            if range.start > 0 {
                let mut lead = [0u32; 1];
                t.mram_read_u32s(((range.start - 1) * 4) as u64, &mut lead)?;
                prev = Some(lead[0]);
            }
            let mut buf = vec![0u32; 256];
            let mut out = Vec::new();
            let mut pos = range.start;
            while pos < range.end {
                let take = 256.min(range.end - pos);
                t.mram_read_u32s((pos * 4) as u64, &mut buf[..take])?;
                for &v in &buf[..take] {
                    if prev != Some(v) {
                        out.push(v);
                    }
                    prev = Some(v);
                }
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

/// The UNI application.
#[derive(Debug)]
pub struct Uni;

impl PrimApp for Uni {
    fn name(&self) -> &'static str {
        "UNI"
    }

    fn domain(&self) -> &'static str {
        "Databases"
    }

    fn long_name(&self) -> &'static str {
        "Unique"
    }

    fn register(&self, machine: &PimMachine) {
        machine.register_kernel(std::sync::Arc::new(UniKernel));
    }

    fn run(&self, set: &mut DpuSet, scale: &ScaleParams, seed: u64) -> Result<AppRun, SdkError> {
        let n_dpus = set.nr_dpus();
        let ranges = partition(scale.elements, n_dpus);
        let max_per = ranges.iter().map(std::ops::Range::len).max().unwrap_or(0);
        let off_out = ((max_per * 4) as u64).div_ceil(4096) * 4096;

        // Runs of repeated values make the workload meaningful.
        let mut rng = SimRng::seeded(seed);
        let mut input = Vec::with_capacity(scale.elements);
        let mut v = 0u32;
        while input.len() < scale.elements {
            v = rng.u64_below(1 << 16) as u32;
            let run = 1 + rng.usize_below(4);
            for _ in 0..run.min(scale.elements - input.len()) {
                input.push(v);
            }
        }
        let _ = v;

        set.load("uni_kernel")?;
        set.set_segment(AppSegment::CpuToDpu);
        let bufs: Vec<Vec<u8>> =
            ranges.iter().map(|r| u32s_to_bytes(&input[r.clone()])).collect();
        let ns: Vec<u32> = ranges.iter().map(|r| r.len() as u32).collect();
        set.scatter_symbol_u32("n", &ns)?;
        set.broadcast_symbol_u32("off_out", off_out as u32)?;
        set.push_to_heap(0, &bufs)?;

        set.set_segment(AppSegment::Dpu);
        set.launch(self.default_tasklets())?;

        // Serial retrieval + host-side boundary stitching (Inter-DPU).
        set.set_segment(AppSegment::DpuToCpu);
        let mut unique = Vec::new();
        for (d, r) in ranges.iter().enumerate() {
            let count = set.symbol_u32(d, "out_count")? as usize;
            if count == 0 {
                continue;
            }
            let raw = set.copy_from_heap(d, off_out, count * 4)?;
            let vals = bytes_to_u32s(&raw);
            // DPUs compact within their partition; a partition whose first
            // element equals the previous partition's last element keeps
            // it (the kernel has no cross-DPU context) — drop it here.
            let skip = usize::from(
                r.start > 0 && unique.last() == vals.first() && !vals.is_empty(),
            );
            unique.extend_from_slice(&vals[skip..]);
        }

        let mut reference = Vec::new();
        for &x in &input {
            if reference.last() != Some(&x) {
                reference.push(x);
            }
        }
        let verified = unique == reference;
        Ok(if verified {
            AppRun::ok(fnv1a_u32(&unique))
        } else {
            AppRun::mismatch(fnv1a_u32(&unique))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::native_vs_vpim;

    #[test]
    fn uni_native_matches_vpim() {
        native_vs_vpim(&Uni, 4096);
    }
}
