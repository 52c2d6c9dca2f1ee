//! TS — Time Series Analysis (data analytics).
//!
//! A simplified matrix-profile-style workload: given a long series and a
//! short query, every DPU scans its chunk (with overlap of `QUERY-1`
//! elements, like PrIM's tiling) and reports the minimum squared euclidean
//! distance between the query and any aligned window, plus its position.
//! The host reduces per-DPU minima (Inter-DPU).

use simkit::AppSegment;
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::error::DpuFault;
use upmem_sim::kernel::{DpuKernel, KernelImage, SymbolDef};
use upmem_sim::{DpuContext, PimMachine};

use crate::common::{
    fnv1a_u32, gen_u32s, partition, partition_nth, u32s_to_bytes, AppRun, PrimApp, ScaleParams,
};

/// Query (window) length.
pub const QUERY: usize = 16;

fn window_distance(series: &[u32], query: &[u32]) -> u64 {
    series
        .iter()
        .zip(query)
        .map(|(s, q)| {
            let d = i64::from(*s) - i64::from(*q);
            (d * d) as u64
        })
        .sum()
}

/// The DPU kernel: sliding-window distance scan over the local chunk.
#[derive(Debug)]
pub struct TsKernel;

impl DpuKernel for TsKernel {
    fn image(&self) -> KernelImage {
        KernelImage::new("ts_kernel", 9 << 10)
            .with_symbol(SymbolDef::u32("n"))
            .with_symbol(SymbolDef::u32("off_q"))
            .with_symbol(SymbolDef::u64("best"))
            .with_symbol(SymbolDef::u32("best_pos"))
    }

    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
        let n = ctx.host_u32("n")? as usize;
        let off_q = u64::from(ctx.host_u32("off_q")?);
        ctx.set_host_u64("best", u64::MAX)?;
        let tasklets = ctx.nr_tasklets();
        let windows = n.saturating_sub(QUERY - 1);
        let mut bests = vec![(u64::MAX, 0u32); tasklets];
        ctx.parallel(|t| {
            let stripe = partition_nth(windows, tasklets, t.id());
            if stripe.is_empty() {
                return Ok(());
            }
            t.wram_alloc(2048)?;
            let mut q = vec![0u32; QUERY];
            t.mram_read_u32s(off_q, &mut q)?;
            // Stream the stripe plus QUERY-1 overlap.
            let span = stripe.len() + QUERY - 1;
            let mut chunk = vec![0u32; span];
            t.mram_read_u32s((stripe.start * 4) as u64, &mut chunk)?;
            let mut best = (u64::MAX, 0u32);
            for w in 0..stripe.len() {
                let d = window_distance(&chunk[w..w + QUERY], &q);
                if d < best.0 {
                    best = (d, (stripe.start + w) as u32);
                }
            }
            t.charge((stripe.len() * QUERY * 4) as u64);
            bests[t.id()] = best;
            Ok(())
        })?;
        let overall = bests
            .iter()
            .copied()
            .min_by_key(|(d, pos)| (*d, *pos))
            .unwrap_or((u64::MAX, 0));
        ctx.set_host_u64("best", overall.0)?;
        ctx.set_host_u32("best_pos", overall.1)?;
        Ok(())
    }
}

/// The TS application.
#[derive(Debug)]
pub struct Ts;

impl PrimApp for Ts {
    fn name(&self) -> &'static str {
        "TS"
    }

    fn domain(&self) -> &'static str {
        "Data analytics"
    }

    fn long_name(&self) -> &'static str {
        "Time Series Analysis"
    }

    fn register(&self, machine: &PimMachine) {
        machine.register_kernel(std::sync::Arc::new(TsKernel));
    }

    fn run(&self, set: &mut DpuSet, scale: &ScaleParams, seed: u64) -> Result<AppRun, SdkError> {
        let n_dpus = set.nr_dpus();
        let series = gen_u32s(seed, scale.elements.max(QUERY * n_dpus * 2), 1 << 12);
        let query = gen_u32s(seed ^ 0x1234, QUERY, 1 << 12);
        let total = series.len();
        let windows_total = total - QUERY + 1;
        let ranges = partition(windows_total, n_dpus);

        set.load("ts_kernel")?;
        set.set_segment(AppSegment::CpuToDpu);
        // Each DPU gets its windows plus QUERY-1 overlap elements.
        let max_span = ranges.iter().map(|r| r.len() + QUERY - 1).max().unwrap_or(0);
        let off_q = ((max_span * 4) as u64).div_ceil(4096) * 4096;
        let chunks: Vec<Vec<u8>> = ranges
            .iter()
            .map(|r| u32s_to_bytes(&series[r.start..r.end + QUERY - 1]))
            .collect();
        let q_bufs: Vec<Vec<u8>> = (0..n_dpus).map(|_| u32s_to_bytes(&query)).collect();
        let ns: Vec<u32> = ranges.iter().map(|r| (r.len() + QUERY - 1) as u32).collect();
        set.scatter_symbol_u32("n", &ns)?;
        set.broadcast_symbol_u32("off_q", off_q as u32)?;
        set.push_to_heap(0, &chunks)?;
        set.push_to_heap(off_q, &q_bufs)?;

        set.set_segment(AppSegment::Dpu);
        set.launch(self.default_tasklets())?;

        // Inter-DPU: reduce per-DPU minima on the host.
        set.set_segment(AppSegment::InterDpu);
        let mut best = (u64::MAX, 0u32);
        for (d, r) in ranges.iter().enumerate() {
            let dist = set.symbol_u64(d, "best")?;
            // The kernel reports chunk-local window positions; the chunk
            // starts at the range start, so global = start + local.
            let local = set.symbol_u32(d, "best_pos")?;
            let candidate = (dist, r.start as u32 + local);
            if candidate < best {
                best = candidate;
            }
        }

        set.set_segment(AppSegment::DpuToCpu);
        let reference = {
            let mut b = (u64::MAX, 0u32);
            for w in 0..windows_total {
                let d = window_distance(&series[w..w + QUERY], &query);
                if (d, w as u32) < b {
                    b = (d, w as u32);
                }
            }
            b
        };
        let verified = best == reference;
        let sum = [best.0 as u32, (best.0 >> 32) as u32, best.1];
        Ok(if verified { AppRun::ok(fnv1a_u32(&sum)) } else { AppRun::mismatch(fnv1a_u32(&sum)) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::native_vs_vpim;

    #[test]
    fn ts_native_matches_vpim() {
        native_vs_vpim(&Ts, 4096);
    }
}
