//! NW — Needleman-Wunsch sequence alignment (bioinformatics).
//!
//! The paper's worst case: the DP matrix is processed as a wavefront of
//! column bands (one per DPU) × row blocks, and **every block boundary
//! crosses the host** — a left boundary write, an `a`-block write and a
//! right boundary read per active DPU per iteration, each ~tens-to-hundreds
//! of bytes (§5.2: >650 000 operations of ~160 B on the testbed scale).
//! Unoptimized vPIM suffers 53× here; request batching and the prefetch
//! cache recover 10.8× (Fig. 14).

use simkit::AppSegment;
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::error::DpuFault;
use upmem_sim::kernel::{DpuKernel, KernelImage, SymbolDef};
use upmem_sim::{DpuContext, PimMachine};

use crate::common::{
    decode_u32s, encode_u32s, fnv1a_u32, gen_u32s, u32s_to_bytes, AppRun, PrimApp, ScaleParams,
};

/// Rows per block (wavefront granularity). Larger blocks mean more small
/// boundary chunks share each prefetch fetch — the regime where the
/// paper's +P step pays off (reads 5 000 → 125 on the testbed).
pub const ROW_BLOCK: usize = 64;
/// Alphabet size (DNA-like).
pub const ALPHABET: u32 = 4;
/// Match / mismatch / gap scores (classic NW).
pub const MATCH: i32 = 1;
/// Mismatch penalty.
pub const MISMATCH: i32 = -1;
/// Gap penalty.
pub const GAP: i32 = -1;

#[inline]
fn score(a: u32, b: u32) -> i32 {
    if a == b {
        MATCH
    } else {
        MISMATCH
    }
}

/// CPU reference: full DP, returns the final alignment score.
#[must_use]
pub fn reference_score(a: &[u32], b: &[u32]) -> i32 {
    let (m, n) = (a.len(), b.len());
    let mut prev: Vec<i32> = (0..=n as i32).map(|j| -j).collect();
    let mut cur = vec![0i32; n + 1];
    for i in 1..=m {
        cur[0] = -(i as i32);
        for j in 1..=n {
            let diag = prev[j - 1] + score(a[i - 1], b[j - 1]);
            let up = prev[j] + GAP;
            let left = cur[j - 1] + GAP;
            cur[j] = diag.max(up).max(left);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n]
}

/// The DPU kernel: computes one `ROW_BLOCK × band` tile of the DP matrix.
/// The band's `b` segment and the previous row persist in MRAM between
/// launches; the left boundary, `a` block and corner arrive from the host.
#[derive(Debug)]
pub struct NwKernel;

impl DpuKernel for NwKernel {
    fn image(&self) -> KernelImage {
        KernelImage::new("nw_kernel", 12 << 10)
            .with_symbol(SymbolDef::u32("w"))
            .with_symbol(SymbolDef::u32("rb"))
            .with_symbol(SymbolDef::u32("off_b"))
            .with_symbol(SymbolDef::u32("off_prev"))
            .with_symbol(SymbolDef::u32("off_left"))
            .with_symbol(SymbolDef::u32("off_a"))
            .with_symbol(SymbolDef::u32("off_right"))
            .with_symbol(SymbolDef::u32("last_score"))
    }

    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
        let w = ctx.host_u32("w")? as usize;
        let rb = ctx.host_u32("rb")? as usize;
        let off_b = u64::from(ctx.host_u32("off_b")?);
        let off_prev = u64::from(ctx.host_u32("off_prev")?);
        let off_left = u64::from(ctx.host_u32("off_left")?);
        let off_a = u64::from(ctx.host_u32("off_a")?);
        let off_right = u64::from(ctx.host_u32("off_right")?);
        // The tile has a strict left-to-right, top-to-bottom dependency
        // chain; NW on UPMEM is transfer-bound, so a single tasklet
        // computes the tile (matching PrIM's low DPU utilization here).
        let mut last = 0i32;
        ctx.single(|t| {
            // The tile's WRAM footprint: the b, prev and cur rows and the
            // left, a and right columns. It is charged as it always was;
            // reusing the rows below saves host allocations, not WRAM.
            t.wram_alloc(4 * (w + rb) * 4 + 1024)?;
            let mut b = vec![0u32; w];
            t.mram_read_u32s(off_b, &mut b)?;
            let mut prev = vec![0u32; w];
            t.mram_read_u32s(off_prev, &mut prev)?;
            let mut prev: Vec<i32> = prev.into_iter().map(|v| v as i32).collect();
            // The host writes [corner, left row 0, ..., left row rb-1].
            let mut left = vec![0u32; rb + 1];
            t.mram_read_u32s(off_left, &mut left)?;
            let (corner, left) = (left[0] as i32, &left[1..]);
            let mut a = vec![0u32; rb];
            t.mram_read_u32s(off_a, &mut a)?;

            let mut right = vec![0u32; rb];
            // Each DP row writes every `cur[j]` before reading it, so the
            // two rows trade places instead of a fresh row per DP row.
            let mut cur = vec![0i32; w];
            let mut corner_run = corner;
            for (bi, &ac) in a.iter().enumerate() {
                let mut west = left[bi] as i32;
                let mut nw = corner_run;
                for j in 0..w {
                    let diag = nw + score(ac, b[j]);
                    let up = prev[j] + GAP;
                    let l = west + GAP;
                    cur[j] = diag.max(up).max(l);
                    nw = prev[j];
                    west = cur[j];
                }
                t.charge(10 * w as u64);
                corner_run = left[bi] as i32;
                right[bi] = cur[w - 1] as u32;
                std::mem::swap(&mut prev, &mut cur);
            }
            last = prev[w - 1];
            let prev: Vec<u32> = prev.into_iter().map(|v| v as u32).collect();
            t.mram_write_u32s(off_prev, &prev)?;
            t.mram_write_u32s(off_right, &right)?;
            Ok(())
        })?;
        ctx.set_host_u32("last_score", last as u32)?;
        Ok(())
    }
}

/// The NW application.
#[derive(Debug)]
pub struct Nw;

impl PrimApp for Nw {
    fn name(&self) -> &'static str {
        "NW"
    }

    fn domain(&self) -> &'static str {
        "Bioinformatics"
    }

    fn long_name(&self) -> &'static str {
        "Needleman-Wunsch"
    }

    fn register(&self, machine: &PimMachine) {
        machine.register_kernel(std::sync::Arc::new(NwKernel));
    }

    fn default_tasklets(&self) -> usize {
        1
    }

    #[allow(clippy::too_many_lines)]
    fn run(&self, set: &mut DpuSet, scale: &ScaleParams, seed: u64) -> Result<AppRun, SdkError> {
        let n_dpus = set.nr_dpus();
        // Square-ish DP sized from the element budget, rounded so bands and
        // blocks divide evenly.
        let side = ((scale.elements as f64).sqrt() as usize).clamp(ROW_BLOCK, 4096);
        let w = side.div_ceil(n_dpus).max(4);
        let n = w * n_dpus;
        let m = side.div_ceil(ROW_BLOCK).max(1) * ROW_BLOCK;
        let kb = m / ROW_BLOCK;

        let a = gen_u32s(seed, m, ALPHABET);
        let b = gen_u32s(seed ^ 0xdead, n, ALPHABET);

        set.load("nw_kernel")?;
        set.set_segment(AppSegment::CpuToDpu);
        let band_bytes = ((w * 4) as u64).div_ceil(4096) * 4096;
        let rb_bytes = 4096u64;
        let off_b = 0u64;
        let off_prev = band_bytes;
        let off_left = off_prev + band_bytes;
        let off_a = off_left + rb_bytes;
        let off_right = off_a + rb_bytes;

        // Distribute b bands and initial prev rows (score[0][j] = -j).
        let b_bufs: Vec<Vec<u8>> =
            (0..n_dpus).map(|d| u32s_to_bytes(&b[d * w..(d + 1) * w])).collect();
        set.push_to_heap(off_b, &b_bufs)?;
        let prev_bufs: Vec<Vec<u8>> = (0..n_dpus)
            .map(|d| {
                let row: Vec<u32> =
                    (1..=w).map(|j| (-((d * w + j) as i32)) as u32).collect();
                u32s_to_bytes(&row)
            })
            .collect();
        set.push_to_heap(off_prev, &prev_bufs)?;
        set.broadcast_symbol_u32("w", w as u32)?;
        set.broadcast_symbol_u32("rb", ROW_BLOCK as u32)?;
        set.broadcast_symbol_u32("off_b", off_b as u32)?;
        set.broadcast_symbol_u32("off_prev", off_prev as u32)?;
        set.broadcast_symbol_u32("off_left", off_left as u32)?;
        set.broadcast_symbol_u32("off_a", off_a as u32)?;
        set.broadcast_symbol_u32("off_right", off_right as u32)?;
        // Boundary traffic granularity: PrIM's NW moves boundaries in
        // ~160 B pieces; we use 4-cell (16 B) chunks, the pattern that
        // makes unoptimized vPIM collapse and batching/prefetch shine.
        const CHUNK: usize = 4;

        // right_store[k][d] = right boundary of (block k, band d).
        let mut right_store: Vec<Vec<Option<Vec<i32>>>> = vec![vec![None; n_dpus]; kb];
        let mut final_score = 0i32;
        // One boundary column and one chunk's bytes, reused by every tile.
        let mut buf: Vec<u32> = Vec::with_capacity(ROW_BLOCK + 1);
        let mut raw = [0u8; 4 * CHUNK];

        for t in 0..(kb + n_dpus - 1) {
            let d_lo = t.saturating_sub(kb - 1);
            let d_hi = t.min(n_dpus - 1);
            let active: Vec<usize> = (d_lo..=d_hi).collect();
            // Inter-DPU: feed boundaries to every active DPU (many small
            // writes — the batching target).
            set.set_segment(AppSegment::InterDpu);
            for &d in &active {
                let k = t - d;
                let i0 = k * ROW_BLOCK + 1;
                let corner: i32 = if d == 0 {
                    -((i0 - 1) as i32)
                } else if k == 0 {
                    -((d * w) as i32)
                } else {
                    *right_store[k - 1][d - 1]
                        .as_ref()
                        .expect("wavefront order")
                        .last()
                        .expect("non-empty boundary")
                };
                // [corner, left...] streamed in small chunks. Left
                // boundary: score[i][j0-1] for the block's rows.
                buf.clear();
                buf.push(corner as u32);
                if d == 0 {
                    buf.extend((0..ROW_BLOCK).map(|r| -((i0 + r) as i32) as u32));
                } else {
                    let left = right_store[k][d - 1].as_ref().expect("wavefront order");
                    buf.extend(left.iter().map(|v| *v as u32));
                }
                for (ci, chunk) in buf.chunks(CHUNK).enumerate() {
                    let bytes = encode_u32s(chunk, &mut raw);
                    set.copy_to_heap(d, off_left + (ci * CHUNK * 4) as u64, bytes)?;
                }
                let a_block = &a[k * ROW_BLOCK..(k + 1) * ROW_BLOCK];
                for (ci, chunk) in a_block.chunks(CHUNK).enumerate() {
                    let bytes = encode_u32s(chunk, &mut raw);
                    set.copy_to_heap(d, off_a + (ci * CHUNK * 4) as u64, bytes)?;
                }
            }
            set.set_segment(AppSegment::Dpu);
            set.launch_on(&active, self.default_tasklets())?;
            // Inter-DPU: collect right boundaries (many small reads — the
            // prefetch-cache target).
            set.set_segment(AppSegment::InterDpu);
            for &d in &active {
                let k = t - d;
                let mut right: Vec<i32> = Vec::with_capacity(ROW_BLOCK);
                for ci in 0..ROW_BLOCK.div_ceil(CHUNK) {
                    let take = CHUNK.min(ROW_BLOCK - ci * CHUNK);
                    let raw =
                        set.copy_from_heap(d, off_right + (ci * CHUNK * 4) as u64, take * 4)?;
                    right.extend(decode_u32s(&raw).map(|v| v as i32));
                }
                right_store[k][d] = Some(right);
                if k == kb - 1 && d == n_dpus - 1 {
                    final_score = set.symbol_u32(d, "last_score")? as i32;
                }
            }
        }

        set.set_segment(AppSegment::DpuToCpu);
        let reference = reference_score(&a, &b);
        let verified = final_score == reference;
        Ok(if verified {
            AppRun::ok(fnv1a_u32(&[final_score as u32]))
        } else {
            AppRun::mismatch(fnv1a_u32(&[final_score as u32]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::native_vs_vpim;

    #[test]
    fn nw_native_matches_vpim() {
        native_vs_vpim(&Nw, 4096);
    }

    #[test]
    fn reference_identity_and_gap_scores() {
        // Identical sequences score their length.
        let s = vec![0u32, 1, 2, 3];
        assert_eq!(reference_score(&s, &s), 4);
        // Aligning against empty costs gaps.
        assert_eq!(reference_score(&s, &[]), -4);
    }
}
