//! MLP — Multilayer Perceptron inference (neural networks).
//!
//! Data-parallel inference: the sample batch is partitioned across DPUs;
//! layer weights are broadcast before each layer's launch (the per-layer
//! host round trips form the Inter-DPU step). Arithmetic is integer with a
//! modular activation so DPU and CPU results match bit for bit.

use simkit::AppSegment;
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::error::DpuFault;
use upmem_sim::kernel::{DpuKernel, KernelImage, SymbolDef};
use upmem_sim::{DpuContext, PimMachine};

use crate::common::{
    bytes_to_u32s, fnv1a_u32, gen_u32s, partition, partition_nth, u32s_to_bytes, AppRun, PrimApp,
    ScaleParams,
};

/// Layer dimensions: input → hidden → hidden → output.
pub const DIMS: [usize; 4] = [32, 32, 32, 16];
/// The modular "activation" keeping values bounded (and nonlinear enough
/// to catch ordering bugs).
pub const ACT_MOD: u32 = 4093;

/// Applies one dense layer on the CPU (shared reference).
#[must_use]
pub fn layer_ref(x: &[u32], w: &[u32], in_dim: usize, out_dim: usize) -> Vec<u32> {
    (0..out_dim)
        .map(|o| {
            let mut acc = 0u64;
            for i in 0..in_dim {
                acc += u64::from(w[o * in_dim + i]) * u64::from(x[i]);
            }
            (acc % u64::from(ACT_MOD)) as u32
        })
        .collect()
}

/// The DPU kernel: applies the currently loaded layer to every local
/// sample. Activations live in MRAM and ping-pong between two regions.
#[derive(Debug)]
pub struct MlpKernel;

impl DpuKernel for MlpKernel {
    fn image(&self) -> KernelImage {
        KernelImage::new("mlp_kernel", 10 << 10)
            .with_symbol(SymbolDef::u32("samples"))
            .with_symbol(SymbolDef::u32("in_dim"))
            .with_symbol(SymbolDef::u32("out_dim"))
            .with_symbol(SymbolDef::u32("off_w"))
            .with_symbol(SymbolDef::u32("off_in"))
            .with_symbol(SymbolDef::u32("off_out"))
    }

    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
        let samples = ctx.host_u32("samples")? as usize;
        let in_dim = ctx.host_u32("in_dim")? as usize;
        let out_dim = ctx.host_u32("out_dim")? as usize;
        let off_w = u64::from(ctx.host_u32("off_w")?);
        let off_in = u64::from(ctx.host_u32("off_in")?);
        let off_out = u64::from(ctx.host_u32("off_out")?);
        let tasklets = ctx.nr_tasklets();
        ctx.parallel(|t| {
            let stripe = partition_nth(samples, tasklets, t.id());
            if stripe.is_empty() {
                return Ok(());
            }
            t.wram_alloc((in_dim * out_dim + 2 * in_dim) * 4)?;
            let mut w = vec![0u32; in_dim * out_dim];
            t.mram_read_u32s(off_w, &mut w)?;
            let mut x = vec![0u32; in_dim];
            for s in stripe {
                t.mram_read_u32s(off_in + (s * in_dim * 4) as u64, &mut x)?;
                let mut y = Vec::with_capacity(out_dim);
                for o in 0..out_dim {
                    let mut acc = 0u64;
                    for i in 0..in_dim {
                        acc += u64::from(w[o * in_dim + i]) * u64::from(x[i]);
                    }
                    y.push((acc % u64::from(ACT_MOD)) as u32);
                }
                t.charge((3 * in_dim * out_dim) as u64);
                t.mram_write_u32s(off_out + (s * out_dim * 4) as u64, &y)?;
            }
            Ok(())
        })
    }
}

/// The MLP application.
#[derive(Debug)]
pub struct Mlp;

impl PrimApp for Mlp {
    fn name(&self) -> &'static str {
        "MLP"
    }

    fn domain(&self) -> &'static str {
        "Neural networks"
    }

    fn long_name(&self) -> &'static str {
        "Multilayer Perceptron"
    }

    fn register(&self, machine: &PimMachine) {
        machine.register_kernel(std::sync::Arc::new(MlpKernel));
    }

    fn default_tasklets(&self) -> usize {
        // Each tasklet stages a full weight matrix in WRAM (~4.3 KiB);
        // 12 tasklets keep the aggregate under the 64 KiB WRAM.
        12
    }

    fn run(&self, set: &mut DpuSet, scale: &ScaleParams, seed: u64) -> Result<AppRun, SdkError> {
        let samples_total = (scale.elements / DIMS[0]).max(set.nr_dpus());
        let n_dpus = set.nr_dpus();
        let ranges = partition(samples_total, n_dpus);
        let max_samples = ranges.iter().map(std::ops::Range::len).max().unwrap_or(0);
        let max_dim = *DIMS.iter().max().expect("non-empty dims");
        let act_bytes = ((max_samples * max_dim * 4) as u64).div_ceil(4096) * 4096;
        let w_bytes = ((max_dim * max_dim * 4) as u64).div_ceil(4096) * 4096;
        let off_a = 0u64;
        let off_b = act_bytes;
        let off_w = 2 * act_bytes;
        debug_assert!(off_w + w_bytes <= set.mram_size());

        let inputs = gen_u32s(seed, samples_total * DIMS[0], 1 << 12);
        let weights: Vec<Vec<u32>> = (0..3)
            .map(|l| gen_u32s(seed ^ (0x51ed + l as u64), DIMS[l] * DIMS[l + 1], 1 << 10))
            .collect();

        set.load("mlp_kernel")?;
        set.set_segment(AppSegment::CpuToDpu);
        let in_bufs: Vec<Vec<u8>> = ranges
            .iter()
            .map(|r| u32s_to_bytes(&inputs[r.start * DIMS[0]..r.end * DIMS[0]]))
            .collect();
        set.push_to_heap(off_a, &in_bufs)?;
        let samples: Vec<u32> = ranges.iter().map(|r| r.len() as u32).collect();
        set.scatter_symbol_u32("samples", &samples)?;

        // Per-layer: broadcast weights (Inter-DPU), launch (DPU).
        let mut src = off_a;
        let mut dst = off_b;
        for (l, w) in weights.iter().enumerate() {
            set.set_segment(AppSegment::InterDpu);
            let w_bufs: Vec<Vec<u8>> = (0..n_dpus).map(|_| u32s_to_bytes(w)).collect();
            set.push_to_heap(off_w, &w_bufs)?;
            set.broadcast_symbol_u32("in_dim", DIMS[l] as u32)?;
            set.broadcast_symbol_u32("out_dim", DIMS[l + 1] as u32)?;
            set.broadcast_symbol_u32("off_w", off_w as u32)?;
            set.broadcast_symbol_u32("off_in", src as u32)?;
            set.broadcast_symbol_u32("off_out", dst as u32)?;
            set.set_segment(AppSegment::Dpu);
            set.launch(self.default_tasklets())?;
            std::mem::swap(&mut src, &mut dst);
        }

        set.set_segment(AppSegment::DpuToCpu);
        let out_dim = DIMS[3];
        let outs = set.push_from_heap(src, max_samples * out_dim * 4)?;
        let mut y = Vec::with_capacity(samples_total * out_dim);
        for (out, r) in outs.iter().zip(&ranges) {
            y.extend_from_slice(&bytes_to_u32s(out)[..r.len() * out_dim]);
        }

        // CPU reference.
        let mut reference = Vec::with_capacity(samples_total * out_dim);
        for s in 0..samples_total {
            let mut act = inputs[s * DIMS[0]..(s + 1) * DIMS[0]].to_vec();
            for (l, w) in weights.iter().enumerate() {
                act = layer_ref(&act, w, DIMS[l], DIMS[l + 1]);
            }
            reference.extend_from_slice(&act);
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
    fn mlp_native_matches_vpim() {
        native_vs_vpim(&Mlp, 2048);
    }

    #[test]
    fn layer_ref_is_modular() {
        let x = vec![1, 2];
        let w = vec![1, 1, 2, 2]; // 2x2
        let y = layer_ref(&x, &w, 2, 2);
        assert_eq!(y, vec![3, 6]);
    }
}
