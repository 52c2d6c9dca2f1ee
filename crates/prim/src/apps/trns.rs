//! TRNS — Matrix Transposition (parallel primitives).
//!
//! The other worst case of the paper: the host performs the tiled layout
//! transformation, writing the matrix tile row by tile row — a huge number
//! of small `write-to-rank` operations (>980 000 ops of ~512 B at testbed
//! scale). Request batching is the optimization that saves this workload.

use simkit::AppSegment;
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::error::DpuFault;
use upmem_sim::kernel::{DpuKernel, KernelImage, SymbolDef};
use upmem_sim::{DpuContext, PimMachine};

use crate::common::{
    bytes_to_u32s, fnv1a_u32, gen_u32s, partition, partition_nth, u32s_to_bytes, AppRun, PrimApp,
    ScaleParams,
};

/// Tile edge (tiles are `TILE × TILE` elements).
pub const TILE: usize = 16;

/// The DPU kernel: transposes every locally stored tile in place
/// (`[tiles_in][tiles_out]` MRAM regions).
#[derive(Debug)]
pub struct TrnsKernel;

impl DpuKernel for TrnsKernel {
    fn image(&self) -> KernelImage {
        KernelImage::new("trns_kernel", 7 << 10)
            .with_symbol(SymbolDef::u32("tiles"))
            .with_symbol(SymbolDef::u32("off_out"))
    }

    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
        let tiles = ctx.host_u32("tiles")? as usize;
        let off_out = u64::from(ctx.host_u32("off_out")?);
        let tasklets = ctx.nr_tasklets();
        let tile_words = TILE * TILE;
        ctx.parallel(|t| {
            let stripe = partition_nth(tiles, tasklets, t.id());
            if stripe.is_empty() {
                return Ok(());
            }
            t.wram_alloc(2 * tile_words * 4)?;
            let mut tile = vec![0u32; tile_words];
            let mut out = vec![0u32; tile_words];
            for k in stripe {
                t.mram_read_u32s((k * tile_words * 4) as u64, &mut tile)?;
                for r in 0..TILE {
                    for c in 0..TILE {
                        out[c * TILE + r] = tile[r * TILE + c];
                    }
                }
                t.charge(2 * tile_words as u64);
                t.mram_write_u32s(off_out + (k * tile_words * 4) as u64, &out)?;
            }
            Ok(())
        })
    }
}

/// The TRNS application.
#[derive(Debug)]
pub struct Trns;

impl PrimApp for Trns {
    fn name(&self) -> &'static str {
        "TRNS"
    }

    fn domain(&self) -> &'static str {
        "Parallel primitives"
    }

    fn long_name(&self) -> &'static str {
        "Matrix Transposition"
    }

    fn register(&self, machine: &PimMachine) {
        machine.register_kernel(std::sync::Arc::new(TrnsKernel));
    }

    fn run(&self, set: &mut DpuSet, scale: &ScaleParams, seed: u64) -> Result<AppRun, SdkError> {
        let n_dpus = set.nr_dpus();
        // Square matrix of whole tiles sized from the element budget.
        let side_tiles = (((scale.elements as f64).sqrt() as usize) / TILE).max(1);
        let side = side_tiles * TILE;
        let total_tiles = side_tiles * side_tiles;
        let ranges = partition(total_tiles, n_dpus);
        let max_tiles = ranges.iter().map(std::ops::Range::len).max().unwrap_or(0);
        let tile_words = TILE * TILE;
        let off_out = ((max_tiles * tile_words * 4) as u64).div_ceil(4096) * 4096;

        let matrix = gen_u32s(seed, side * side, 1 << 24);

        set.load("trns_kernel")?;
        // CPU-DPU: the tiled layout transformation — one small write per
        // tile ROW (TILE elements = 64 B), the paper's torrent of small
        // writes.
        set.set_segment(AppSegment::CpuToDpu);
        let tiles: Vec<u32> = ranges.iter().map(|r| r.len() as u32).collect();
        set.scatter_symbol_u32("tiles", &tiles)?;
        set.broadcast_symbol_u32("off_out", off_out as u32)?;
        for (d, r) in ranges.iter().enumerate() {
            for (slot, k) in r.clone().enumerate() {
                let (tr, tc) = (k / side_tiles, k % side_tiles);
                for row in 0..TILE {
                    let src = (tr * TILE + row) * side + tc * TILE;
                    let dst = (slot * tile_words + row * TILE) * 4;
                    set.copy_to_heap(
                        d,
                        dst as u64,
                        &u32s_to_bytes(&matrix[src..src + TILE]),
                    )?;
                }
            }
        }

        set.set_segment(AppSegment::Dpu);
        set.launch(self.default_tasklets())?;

        // DPU-CPU: gather transposed tiles and reassemble the matrix.
        set.set_segment(AppSegment::DpuToCpu);
        let outs = set.push_from_heap(off_out, max_tiles * tile_words * 4)?;
        let mut result = vec![0u32; side * side];
        for ((out, r), _) in outs.iter().zip(&ranges).zip(0..) {
            let words = bytes_to_u32s(out);
            for (slot, k) in r.clone().enumerate() {
                // Tile (tr, tc) transposed lands at (tc, tr) in the output.
                let (tr, tc) = (k / side_tiles, k % side_tiles);
                for row in 0..TILE {
                    for col in 0..TILE {
                        let v = words[slot * tile_words + row * TILE + col];
                        result[(tc * TILE + row) * side + tr * TILE + col] = v;
                    }
                }
            }
        }

        let mut reference = vec![0u32; side * side];
        for r in 0..side {
            for c in 0..side {
                reference[c * side + r] = matrix[r * side + c];
            }
        }
        let verified = result == reference;
        Ok(if verified {
            AppRun::ok(fnv1a_u32(&result))
        } else {
            AppRun::mismatch(fnv1a_u32(&result))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::native_vs_vpim;

    #[test]
    fn trns_native_matches_vpim() {
        native_vs_vpim(&Trns, 4096);
    }

    #[test]
    fn trns_single_dpu() {
        use simkit::CostModel;
        use std::sync::Arc;
        use upmem_driver::UpmemDriver;
        use upmem_sim::{PimConfig, PimMachine};
        let machine = PimMachine::new(PimConfig::small());
        Trns.register(&machine);
        let driver = Arc::new(UpmemDriver::new(machine));
        let mut set = DpuSet::alloc_native(&driver, 1, CostModel::default()).unwrap();
        let run = Trns.run(&mut set, &ScaleParams::of(1024), 3).unwrap();
        assert!(run.verified);
    }
}
