//! BFS — Breadth-First Search (graph processing).
//!
//! Level-synchronous pull-style BFS. Vertices are partitioned across DPUs
//! (each DPU holds the CSR adjacency of its vertices); every level the
//! host broadcasts the global frontier bitmap, launches the kernel, then
//! gathers each DPU's next-frontier bits and unions them — the "frequent
//! synchronization handshakes among the DPUs" that give BFS its 3×
//! Inter-DPU overhead in the paper (§5.2, fourth observation).

use simkit::AppSegment;
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::error::DpuFault;
use upmem_sim::kernel::{DpuKernel, KernelImage, SymbolDef};
use upmem_sim::{DpuContext, PimMachine};

use crate::common::{
    fnv1a_u32, partition, partition_nth, u32s_to_bytes, AppRun, PrimApp, ScaleParams,
};
use crate::common::bytes_to_u32s;
use simkit::SimRng;

/// Average out-degree of the random graph.
pub const DEGREE: usize = 4;
/// Level marker for unvisited vertices.
pub const UNSET: u32 = u32::MAX;

/// MRAM layout offsets are passed via symbols:
/// `[row_ptr][col_idx][levels][frontier bitmap][next bitmap]`.
#[derive(Debug)]
pub struct BfsKernel;

impl DpuKernel for BfsKernel {
    fn image(&self) -> KernelImage {
        KernelImage::new("bfs_kernel", 12 << 10)
            .with_symbol(SymbolDef::u32("n_local"))
            .with_symbol(SymbolDef::u32("v_base"))
            .with_symbol(SymbolDef::u32("level"))
            .with_symbol(SymbolDef::u32("off_col"))
            .with_symbol(SymbolDef::u32("off_lvl"))
            .with_symbol(SymbolDef::u32("off_front"))
            .with_symbol(SymbolDef::u32("off_next"))
            .with_symbol(SymbolDef::u32("changed"))
    }

    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
        let n_local = ctx.host_u32("n_local")? as usize;
        let v_base = ctx.host_u32("v_base")? as usize;
        let level = ctx.host_u32("level")?;
        let off_col = u64::from(ctx.host_u32("off_col")?);
        let off_lvl = u64::from(ctx.host_u32("off_lvl")?);
        let off_front = u64::from(ctx.host_u32("off_front")?);
        let off_next = u64::from(ctx.host_u32("off_next")?);
        ctx.set_host_u32("changed", 0)?;
        let tasklets = ctx.nr_tasklets();
        let mut changed_any = vec![0u32; tasklets];
        ctx.parallel(|t| {
            let stripe = partition_nth(n_local, tasklets, t.id());
            if stripe.is_empty() {
                return Ok(());
            }
            t.wram_alloc(4096)?;
            // Load this stripe's row pointers, levels and next-bitmap words.
            let mut row_ptr = vec![0u32; stripe.len() + 1];
            t.mram_read_u32s((stripe.start * 4) as u64, &mut row_ptr)?;
            let mut levels = vec![0u32; stripe.len()];
            t.mram_read_u32s(off_lvl + (stripe.start * 4) as u64, &mut levels)?;
            let mut changed = 0u32;
            for (k, lvl) in levels.iter_mut().enumerate() {
                if *lvl != UNSET {
                    continue;
                }
                let lo = row_ptr[k] as usize;
                let hi = row_ptr[k + 1] as usize;
                let deg = hi - lo;
                if deg == 0 {
                    continue;
                }
                let mut neigh = vec![0u32; deg];
                t.mram_read_u32s(off_col + (lo * 4) as u64, &mut neigh)?;
                // Pull: in the frontier if any neighbor is in the frontier.
                let mut hit = false;
                for u in &neigh {
                    let word = u / 32;
                    let mut cell = [0u32; 1];
                    t.mram_read_u32s(off_front + u64::from(word) * 4, &mut cell)?;
                    t.charge(6);
                    if cell[0] & (1 << (u % 32)) != 0 {
                        hit = true;
                        break;
                    }
                }
                if hit {
                    *lvl = level + 1;
                    changed = 1;
                    let v_global = (v_base + stripe.start + k) as u32;
                    let word = v_global / 32;
                    // Tasklet-exclusive vertices may share bitmap words
                    // across stripe boundaries; read-modify-write is safe
                    // here because stripes are contiguous and words are
                    // revisited only within one tasklet... except at the
                    // edges, which the host tolerates by re-unioning.
                    let mut cell = [0u32; 1];
                    t.mram_read_u32s(off_next + u64::from(word) * 4, &mut cell)?;
                    cell[0] |= 1 << (v_global % 32);
                    t.mram_write_u32s(off_next + u64::from(word) * 4, &cell)?;
                }
                t.charge(8);
            }
            if changed != 0 {
                changed_any[t.id()] = 1;
            }
            t.mram_write_u32s(off_lvl + (stripe.start * 4) as u64, &levels)?;
            Ok(())
        })?;
        if changed_any.iter().any(|c| *c != 0) {
            ctx.set_host_u32("changed", 1)?;
        }
        Ok(())
    }
}

/// The BFS application.
#[derive(Debug)]
pub struct Bfs;

impl PrimApp for Bfs {
    fn name(&self) -> &'static str {
        "BFS"
    }

    fn domain(&self) -> &'static str {
        "Graph processing"
    }

    fn long_name(&self) -> &'static str {
        "Breadth-First Search"
    }

    fn register(&self, machine: &PimMachine) {
        machine.register_kernel(std::sync::Arc::new(BfsKernel));
    }

    #[allow(clippy::too_many_lines)]
    fn run(&self, set: &mut DpuSet, scale: &ScaleParams, seed: u64) -> Result<AppRun, SdkError> {
        let v_total = scale.elements.max(set.nr_dpus() * 8).min(1 << 16);
        let n_dpus = set.nr_dpus();
        let ranges = partition(v_total, n_dpus);
        let words = v_total.div_ceil(32);

        // Random graph with a guaranteed path backbone so BFS reaches far.
        let mut rng = SimRng::seeded(seed);
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); v_total];
        for (v, list) in adj.iter_mut().enumerate() {
            if v + 1 < v_total && rng.chance(0.8) {
                list.push((v + 1) as u32);
            }
            for _ in 0..DEGREE - 1 {
                list.push(rng.u64_below(v_total as u64) as u32);
            }
            list.sort_unstable();
            list.dedup();
        }
        // Pull-BFS needs reverse edges: build in-adjacency.
        let mut radj: Vec<Vec<u32>> = vec![Vec::new(); v_total];
        for (v, list) in adj.iter().enumerate() {
            for &u in list {
                radj[u as usize].push(v as u32);
            }
        }

        set.load("bfs_kernel")?;
        set.set_segment(AppSegment::CpuToDpu);
        let max_local = ranges.iter().map(std::ops::Range::len).max().unwrap_or(0);
        let max_edges = ranges
            .iter()
            .map(|r| radj[r.clone()].iter().map(Vec::len).sum::<usize>())
            .max()
            .unwrap_or(0);
        let ptr_bytes = (((max_local + 1) * 4) as u64).div_ceil(4096) * 4096;
        let col_bytes = ((max_edges.max(1) * 4) as u64).div_ceil(4096) * 4096;
        let lvl_bytes = ((max_local * 4) as u64).div_ceil(4096) * 4096;
        let map_bytes = ((words * 4) as u64).div_ceil(4096) * 4096;
        let off_col = ptr_bytes;
        let off_lvl = off_col + col_bytes;
        let off_front = off_lvl + lvl_bytes;
        let off_next = off_front + map_bytes;

        // Faithful PrIM detail: serial CPU-DPU distribution (§5.2).
        for (d, r) in ranges.iter().enumerate() {
            let mut ptr = vec![0u32; r.len() + 1];
            let mut cols = Vec::new();
            for (k, v) in r.clone().enumerate() {
                ptr[k] = cols.len() as u32;
                cols.extend_from_slice(&radj[v]);
                ptr[k + 1] = cols.len() as u32;
            }
            set.copy_to_heap(d, 0, &u32s_to_bytes(&ptr))?;
            if !cols.is_empty() {
                set.copy_to_heap(d, off_col, &u32s_to_bytes(&cols))?;
            }
            let levels = vec![UNSET; r.len()];
            set.copy_to_heap(d, off_lvl, &u32s_to_bytes(&levels))?;
        }
        let n_locals: Vec<u32> = ranges.iter().map(|r| r.len() as u32).collect();
        let v_bases: Vec<u32> = ranges.iter().map(|r| r.start as u32).collect();
        set.scatter_symbol_u32("n_local", &n_locals)?;
        set.scatter_symbol_u32("v_base", &v_bases)?;
        set.broadcast_symbol_u32("off_col", off_col as u32)?;
        set.broadcast_symbol_u32("off_lvl", off_lvl as u32)?;
        set.broadcast_symbol_u32("off_front", off_front as u32)?;
        set.broadcast_symbol_u32("off_next", off_next as u32)?;
        // Root = vertex 0.
        if !ranges.is_empty() && !ranges[0].is_empty() {
            set.set_symbol_u32(0, "n_local", ranges[0].len() as u32)?;
        }
        let mut frontier = vec![0u32; words];
        frontier[0] |= 1;
        let mut levels_root_fix = vec![UNSET; ranges[0].len()];
        levels_root_fix[0] = 0;
        set.copy_to_heap(0, off_lvl, &u32s_to_bytes(&levels_root_fix))?;

        // Level loop: the Inter-DPU handshakes.
        let zero_map = vec![0u32; words];
        let mut level = 0u32;
        loop {
            set.set_segment(AppSegment::InterDpu);
            let front_bufs: Vec<Vec<u8>> =
                (0..n_dpus).map(|_| u32s_to_bytes(&frontier)).collect();
            set.push_to_heap(off_front, &front_bufs)?;
            let zero_bufs: Vec<Vec<u8>> =
                (0..n_dpus).map(|_| u32s_to_bytes(&zero_map)).collect();
            set.push_to_heap(off_next, &zero_bufs)?;
            set.broadcast_symbol_u32("level", level)?;
            set.set_segment(AppSegment::Dpu);
            set.launch(self.default_tasklets())?;
            set.set_segment(AppSegment::InterDpu);
            let mut next = vec![0u32; words];
            let mut any = false;
            for d in 0..n_dpus {
                if set.symbol_u32(d, "changed")? == 0 {
                    continue;
                }
                let raw = set.copy_from_heap(d, off_next, words * 4)?;
                for (w, bits) in bytes_to_u32s(&raw).iter().enumerate() {
                    next[w] |= bits;
                    any = any || *bits != 0;
                }
            }
            if !any {
                break;
            }
            frontier = next;
            level += 1;
            if level as usize > v_total {
                break; // defensive: no graph needs more levels than vertices
            }
        }

        // Retrieve levels per DPU.
        set.set_segment(AppSegment::DpuToCpu);
        let mut levels = Vec::with_capacity(v_total);
        let outs = set.push_from_heap(off_lvl, max_local * 4)?;
        for (out, r) in outs.iter().zip(&ranges) {
            levels.extend_from_slice(&bytes_to_u32s(out)[..r.len()]);
        }

        // CPU reference BFS over the forward adjacency.
        let mut reference = vec![UNSET; v_total];
        reference[0] = 0;
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(v) = queue.pop_front() {
            for &u in &adj[v] {
                if reference[u as usize] == UNSET {
                    reference[u as usize] = reference[v] + 1;
                    queue.push_back(u as usize);
                }
            }
        }
        let verified = levels == reference;
        Ok(if verified {
            AppRun::ok(fnv1a_u32(&levels))
        } else {
            AppRun::mismatch(fnv1a_u32(&levels))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::native_vs_vpim;

    #[test]
    fn bfs_native_matches_vpim() {
        native_vs_vpim(&Bfs, 512);
    }
}
