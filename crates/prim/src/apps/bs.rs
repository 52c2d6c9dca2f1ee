//! BS — Binary Search (databases).
//!
//! Each DPU holds a sorted partition; a batch of queries is broadcast to
//! all DPUs and each reports, per query, the local position of the match
//! (or a miss). The host combines per-partition answers into global
//! positions.

use simkit::AppSegment;
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::error::DpuFault;
use upmem_sim::kernel::{DpuKernel, KernelImage, SymbolDef};
use upmem_sim::{DpuContext, PimMachine};

use crate::common::{
    bytes_to_u32s, fnv1a_u32, gen_u32s, partition, partition_nth, u32s_to_bytes, AppRun, PrimApp,
    ScaleParams,
};

/// Queries per run.
pub const NR_QUERIES: usize = 128;
/// Sentinel for "not found in this partition".
pub const MISS: u32 = u32::MAX;

/// The DPU kernel: each tasklet binary-searches a stripe of the query
/// batch against the whole local partition (kept in MRAM, probed with
/// small DMA reads — the classic pointer-chase pattern).
#[derive(Debug)]
pub struct BsKernel;

impl DpuKernel for BsKernel {
    fn image(&self) -> KernelImage {
        KernelImage::new("bs_kernel", 5 << 10)
            .with_symbol(SymbolDef::u32("n"))
            .with_symbol(SymbolDef::u32("nq"))
            .with_symbol(SymbolDef::u32("off_q"))
            .with_symbol(SymbolDef::u32("off_r"))
    }

    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
        let n = ctx.host_u32("n")? as usize;
        let nq = ctx.host_u32("nq")? as usize;
        let off_q = u64::from(ctx.host_u32("off_q")?);
        let off_r = u64::from(ctx.host_u32("off_r")?);
        let tasklets = ctx.nr_tasklets();
        ctx.parallel(|t| {
            let stripe = partition_nth(nq, tasklets, t.id());
            if stripe.is_empty() {
                return Ok(());
            }
            t.wram_alloc(1024)?;
            let mut queries = vec![0u32; stripe.len()];
            t.mram_read_u32s(off_q + (stripe.start * 4) as u64, &mut queries)?;
            let mut results = vec![MISS; stripe.len()];
            for (k, q) in queries.iter().enumerate() {
                let (mut lo, mut hi) = (0usize, n);
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    let mut cell = [0u32; 1];
                    t.mram_read_u32s((mid * 4) as u64, &mut cell)?;
                    t.charge(8);
                    if cell[0] < *q {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                if lo < n {
                    let mut cell = [0u32; 1];
                    t.mram_read_u32s((lo * 4) as u64, &mut cell)?;
                    if cell[0] == *q {
                        results[k] = lo as u32;
                    }
                }
            }
            t.mram_write_u32s(off_r + (stripe.start * 4) as u64, &results)?;
            Ok(())
        })
    }
}

/// The BS application.
#[derive(Debug)]
pub struct Bs;

impl PrimApp for Bs {
    fn name(&self) -> &'static str {
        "BS"
    }

    fn domain(&self) -> &'static str {
        "Databases"
    }

    fn long_name(&self) -> &'static str {
        "Binary Search"
    }

    fn register(&self, machine: &PimMachine) {
        machine.register_kernel(std::sync::Arc::new(BsKernel));
    }

    fn run(&self, set: &mut DpuSet, scale: &ScaleParams, seed: u64) -> Result<AppRun, SdkError> {
        let n_dpus = set.nr_dpus();
        let mut sorted = gen_u32s(seed, scale.elements, 1 << 24);
        sorted.sort_unstable();
        sorted.dedup();
        let total = sorted.len();
        let ranges = partition(total, n_dpus);
        let max_per = ranges.iter().map(std::ops::Range::len).max().unwrap_or(0);
        let off_q = ((max_per * 4) as u64).div_ceil(4096) * 4096;
        let off_r = off_q + 4096;

        // Half the queries hit, half are random probes.
        let mut queries = Vec::with_capacity(NR_QUERIES);
        let probes = gen_u32s(seed ^ 0x9e37, NR_QUERIES, 1 << 24);
        for (i, p) in probes.iter().enumerate() {
            if i % 2 == 0 && !sorted.is_empty() {
                queries.push(sorted[(i * 31) % total]);
            } else {
                queries.push(*p);
            }
        }

        set.load("bs_kernel")?;
        set.set_segment(AppSegment::CpuToDpu);
        let part_bufs: Vec<Vec<u8>> =
            ranges.iter().map(|r| u32s_to_bytes(&sorted[r.clone()])).collect();
        let q_bufs: Vec<Vec<u8>> = (0..n_dpus).map(|_| u32s_to_bytes(&queries)).collect();
        let ns: Vec<u32> = ranges.iter().map(|r| r.len() as u32).collect();
        set.scatter_symbol_u32("n", &ns)?;
        set.broadcast_symbol_u32("nq", NR_QUERIES as u32)?;
        set.broadcast_symbol_u32("off_q", off_q as u32)?;
        set.broadcast_symbol_u32("off_r", off_r as u32)?;
        set.push_to_heap(0, &part_bufs)?;
        set.push_to_heap(off_q, &q_bufs)?;

        set.set_segment(AppSegment::Dpu);
        set.launch(self.default_tasklets())?;

        set.set_segment(AppSegment::DpuToCpu);
        let outs = set.push_from_heap(off_r, NR_QUERIES * 4)?;
        let mut found = vec![MISS; NR_QUERIES];
        for (d, out) in outs.iter().enumerate() {
            let locals = bytes_to_u32s(out);
            for (q, &local) in locals.iter().enumerate().take(NR_QUERIES) {
                if local != MISS {
                    found[q] = (ranges[d].start + local as usize) as u32;
                }
            }
        }

        let reference: Vec<u32> = queries
            .iter()
            .map(|q| sorted.binary_search(q).map_or(MISS, |i| i as u32))
            .collect();
        let verified = found == reference;
        Ok(if verified { AppRun::ok(fnv1a_u32(&found)) } else { AppRun::mismatch(fnv1a_u32(&found)) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::native_vs_vpim;

    #[test]
    fn bs_native_matches_vpim() {
        native_vs_vpim(&Bs, 4096);
    }
}
