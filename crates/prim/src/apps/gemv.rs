//! GEMV — Matrix-Vector Multiply (dense linear algebra).
//!
//! The matrix is row-partitioned across DPUs; the dense vector is
//! broadcast. Each tasklet computes a stripe of output rows, streaming one
//! row at a time through WRAM.

use simkit::AppSegment;
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::error::DpuFault;
use upmem_sim::kernel::{DpuKernel, KernelImage, SymbolDef};
use upmem_sim::{DpuContext, PimMachine};

use crate::common::{
    bytes_to_u32s, fnv1a_u32, gen_u32s, partition, partition_nth, u32s_to_bytes, AppRun, PrimApp,
    ScaleParams,
};

/// Columns of the dense matrix (rows scale with the problem size).
pub const COLS: usize = 64;

/// The DPU kernel: `y[r] = Σ_c m[r][c] · x[c]` over the local row stripe.
#[derive(Debug)]
pub struct GemvKernel;

impl DpuKernel for GemvKernel {
    fn image(&self) -> KernelImage {
        KernelImage::new("gemv_kernel", 8 << 10)
            .with_symbol(SymbolDef::u32("rows"))
            .with_symbol(SymbolDef::u32("cols"))
            .with_symbol(SymbolDef::u32("off_x"))
            .with_symbol(SymbolDef::u32("off_y"))
    }

    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
        let rows = ctx.host_u32("rows")? as usize;
        let cols = ctx.host_u32("cols")? as usize;
        let off_x = u64::from(ctx.host_u32("off_x")?);
        let off_y = u64::from(ctx.host_u32("off_y")?);
        let tasklets = ctx.nr_tasklets();
        ctx.parallel(|t| {
            let stripe = partition_nth(rows, tasklets, t.id());
            if stripe.is_empty() {
                return Ok(());
            }
            t.wram_alloc(2 * cols * 4 + 64)?;
            let mut x = vec![0u32; cols];
            t.mram_read_u32s(off_x, &mut x)?;
            let mut row = vec![0u32; cols];
            let mut y = Vec::with_capacity(stripe.len());
            for r in stripe.clone() {
                t.mram_read_u32s((r * cols * 4) as u64, &mut row)?;
                let mut acc = 0u32;
                for c in 0..cols {
                    acc = acc.wrapping_add(row[c].wrapping_mul(x[c]));
                }
                t.charge(3 * cols as u64);
                y.push(acc);
            }
            t.mram_write_u32s(off_y + (stripe.start * 4) as u64, &y)?;
            Ok(())
        })
    }
}

/// The GEMV application.
#[derive(Debug)]
pub struct Gemv;

impl PrimApp for Gemv {
    fn name(&self) -> &'static str {
        "GEMV"
    }

    fn domain(&self) -> &'static str {
        "Dense linear algebra"
    }

    fn long_name(&self) -> &'static str {
        "Matrix-Vector Multiply"
    }

    fn register(&self, machine: &PimMachine) {
        machine.register_kernel(std::sync::Arc::new(GemvKernel));
    }

    fn run(&self, set: &mut DpuSet, scale: &ScaleParams, seed: u64) -> Result<AppRun, SdkError> {
        let rows_total = (scale.elements / COLS).max(set.nr_dpus());
        let n_dpus = set.nr_dpus();
        let ranges = partition(rows_total, n_dpus);
        let max_rows = ranges.iter().map(std::ops::Range::len).max().unwrap_or(0);
        let mat_bytes = ((max_rows * COLS * 4) as u64).div_ceil(4096) * 4096;
        let off_x = mat_bytes;
        let off_y = mat_bytes + 4096;

        let m = gen_u32s(seed, rows_total * COLS, 1 << 16);
        let x = gen_u32s(seed ^ 0xabcd, COLS, 1 << 16);

        set.load("gemv_kernel")?;
        set.set_segment(AppSegment::CpuToDpu);
        let mat_bufs: Vec<Vec<u8>> = ranges
            .iter()
            .map(|r| u32s_to_bytes(&m[r.start * COLS..r.end * COLS]))
            .collect();
        let x_bufs: Vec<Vec<u8>> = (0..n_dpus).map(|_| u32s_to_bytes(&x)).collect();
        let rows: Vec<u32> = ranges.iter().map(|r| r.len() as u32).collect();
        set.scatter_symbol_u32("rows", &rows)?;
        set.broadcast_symbol_u32("cols", COLS as u32)?;
        set.broadcast_symbol_u32("off_x", off_x as u32)?;
        set.broadcast_symbol_u32("off_y", off_y as u32)?;
        set.push_to_heap(0, &mat_bufs)?;
        set.push_to_heap(off_x, &x_bufs)?;

        set.set_segment(AppSegment::Dpu);
        set.launch(self.default_tasklets())?;

        set.set_segment(AppSegment::DpuToCpu);
        let outs = set.push_from_heap(off_y, max_rows * 4)?;
        let mut y = Vec::with_capacity(rows_total);
        for (out, r) in outs.iter().zip(&ranges) {
            y.extend_from_slice(&bytes_to_u32s(out)[..r.len()]);
        }

        let mut reference = Vec::with_capacity(rows_total);
        for r in 0..rows_total {
            let mut acc = 0u32;
            for c in 0..COLS {
                acc = acc.wrapping_add(m[r * COLS + c].wrapping_mul(x[c]));
            }
            reference.push(acc);
        }
        let verified = y == reference;
        Ok(if verified { AppRun::ok(fnv1a_u32(&y)) } else { AppRun::mismatch(fnv1a_u32(&y)) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::native_vs_vpim;

    #[test]
    fn gemv_native_matches_vpim() {
        native_vs_vpim(&Gemv, 8192);
    }
}
