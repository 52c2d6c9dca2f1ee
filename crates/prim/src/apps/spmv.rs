//! SpMV — Sparse Matrix-Vector Multiply (sparse linear algebra, CSR).
//!
//! Rows are partitioned across DPUs. Faithful to PrIM's implementation
//! detail the paper highlights (§5.2): the **CPU-DPU step is serial** (one
//! DPU at a time), so input loading time *grows* with the DPU count — one
//! of the four applications whose total time increases from 60 to 480
//! DPUs.

use simkit::AppSegment;
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::error::DpuFault;
use upmem_sim::kernel::{DpuKernel, KernelImage, SymbolDef};
use upmem_sim::{DpuContext, PimMachine};

use crate::common::{
    bytes_to_u32s, fnv1a_u32, partition, partition_nth, u32s_to_bytes, AppRun, PrimApp, ScaleParams,
};
use simkit::SimRng;

/// Dense vector length (column count).
pub const COLS: usize = 128;
/// Non-zeros per row.
pub const NNZ_PER_ROW: usize = 8;

/// A CSR matrix partition layout in MRAM:
/// `[row_ptr][col_idx][vals][x][y]`, offsets passed via symbols.
#[derive(Debug)]
pub struct SpmvKernel;

impl DpuKernel for SpmvKernel {
    fn image(&self) -> KernelImage {
        KernelImage::new("spmv_kernel", 10 << 10)
            .with_symbol(SymbolDef::u32("rows"))
            .with_symbol(SymbolDef::u32("off_col"))
            .with_symbol(SymbolDef::u32("off_val"))
            .with_symbol(SymbolDef::u32("off_x"))
            .with_symbol(SymbolDef::u32("off_y"))
    }

    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
        let rows = ctx.host_u32("rows")? as usize;
        let off_col = u64::from(ctx.host_u32("off_col")?);
        let off_val = u64::from(ctx.host_u32("off_val")?);
        let off_x = u64::from(ctx.host_u32("off_x")?);
        let off_y = u64::from(ctx.host_u32("off_y")?);
        let tasklets = ctx.nr_tasklets();
        ctx.parallel(|t| {
            let stripe = partition_nth(rows, tasklets, t.id());
            if stripe.is_empty() {
                return Ok(());
            }
            t.wram_alloc(COLS * 4 + 3 * 256)?;
            let mut x = vec![0u32; COLS];
            t.mram_read_u32s(off_x, &mut x)?;
            // row_ptr entries for the stripe (+1 for the end pointer).
            let mut row_ptr = vec![0u32; stripe.len() + 1];
            t.mram_read_u32s((stripe.start * 4) as u64, &mut row_ptr)?;
            let mut y = Vec::with_capacity(stripe.len());
            for (k, _r) in stripe.clone().enumerate() {
                let lo = row_ptr[k] as usize;
                let hi = row_ptr[k + 1] as usize;
                let nnz = hi - lo;
                let mut cols = vec![0u32; nnz];
                let mut vals = vec![0u32; nnz];
                if nnz > 0 {
                    t.mram_read_u32s(off_col + (lo * 4) as u64, &mut cols)?;
                    t.mram_read_u32s(off_val + (lo * 4) as u64, &mut vals)?;
                }
                let mut acc = 0u32;
                for i in 0..nnz {
                    acc = acc.wrapping_add(vals[i].wrapping_mul(x[cols[i] as usize % COLS]));
                }
                t.charge(4 * nnz as u64 + 6);
                y.push(acc);
            }
            t.mram_write_u32s(off_y + (stripe.start * 4) as u64, &y)?;
            Ok(())
        })
    }
}

/// The SpMV application.
#[derive(Debug)]
pub struct Spmv;

impl PrimApp for Spmv {
    fn name(&self) -> &'static str {
        "SpMV"
    }

    fn domain(&self) -> &'static str {
        "Sparse linear algebra"
    }

    fn long_name(&self) -> &'static str {
        "Sparse Matrix-Vector Multiply"
    }

    fn register(&self, machine: &PimMachine) {
        machine.register_kernel(std::sync::Arc::new(SpmvKernel));
    }

    fn run(&self, set: &mut DpuSet, scale: &ScaleParams, seed: u64) -> Result<AppRun, SdkError> {
        let rows_total = (scale.elements / NNZ_PER_ROW).max(set.nr_dpus());
        let n_dpus = set.nr_dpus();
        let ranges = partition(rows_total, n_dpus);

        // Generate a CSR matrix with NNZ_PER_ROW entries per row.
        let mut rng = SimRng::seeded(seed);
        let mut col_idx = Vec::with_capacity(rows_total * NNZ_PER_ROW);
        let mut vals = Vec::with_capacity(rows_total * NNZ_PER_ROW);
        for _ in 0..rows_total * NNZ_PER_ROW {
            col_idx.push(rng.u64_below(COLS as u64) as u32);
            vals.push(rng.u64_below(1 << 16) as u32);
        }
        let x: Vec<u32> = (0..COLS).map(|_| rng.u64_below(1 << 16) as u32).collect();

        set.load("spmv_kernel")?;
        set.set_segment(AppSegment::CpuToDpu);

        let max_rows = ranges.iter().map(std::ops::Range::len).max().unwrap_or(0);
        let ptr_bytes = (((max_rows + 1) * 4) as u64).div_ceil(4096) * 4096;
        let nnz_bytes = ((max_rows * NNZ_PER_ROW * 4) as u64).div_ceil(4096) * 4096;
        let off_col = ptr_bytes;
        let off_val = off_col + nnz_bytes;
        let off_x = off_val + nnz_bytes;
        let off_y = off_x + 4096;

        // Faithful PrIM detail: serial per-DPU input distribution.
        for (d, r) in ranges.iter().enumerate() {
            let local_ptr: Vec<u32> =
                (0..=r.len()).map(|k| (k * NNZ_PER_ROW) as u32).collect();
            let lo = r.start * NNZ_PER_ROW;
            let hi = r.end * NNZ_PER_ROW;
            set.copy_to_heap(d, 0, &u32s_to_bytes(&local_ptr))?;
            set.copy_to_heap(d, off_col, &u32s_to_bytes(&col_idx[lo..hi]))?;
            set.copy_to_heap(d, off_val, &u32s_to_bytes(&vals[lo..hi]))?;
            set.copy_to_heap(d, off_x, &u32s_to_bytes(&x))?;
        }
        let rows: Vec<u32> = ranges.iter().map(|r| r.len() as u32).collect();
        set.scatter_symbol_u32("rows", &rows)?;
        set.broadcast_symbol_u32("off_col", off_col as u32)?;
        set.broadcast_symbol_u32("off_val", off_val as u32)?;
        set.broadcast_symbol_u32("off_x", off_x as u32)?;
        set.broadcast_symbol_u32("off_y", off_y as u32)?;

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
            for k in 0..NNZ_PER_ROW {
                let i = r * NNZ_PER_ROW + k;
                acc = acc
                    .wrapping_add(vals[i].wrapping_mul(x[col_idx[i] as usize % COLS]));
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
    fn spmv_native_matches_vpim() {
        native_vs_vpim(&Spmv, 4096);
    }
}
