//! Per-DPU chunking of a transfer matrix for the backend worker pool.
//!
//! The backend spreads a `write-to-rank` / `read-from-rank` over the
//! host's data pool, one OS worker per CPU the process may run on. The
//! unit of distribution is a **DPU**, never a single entry: all entries
//! targeting one DPU stay in one chunk, in their original matrix order, so
//! no two workers ever touch the same MRAM bank and same-DPU writes keep
//! their program order. Chunks are balanced by byte count with a
//! deterministic greedy rule, so the partition is a pure function of the
//! matrix and the pool width (execution order never feeds back into it).

use crate::matrix::DpuXfer;

/// One worker's share of a transfer matrix: indices into the original
/// entry slice, grouped so that a DPU's entries are contiguous and ordered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Indices into the matrix's `entries`, in per-DPU original order.
    pub entry_indices: Vec<usize>,
    /// Total payload bytes in this chunk (the balancing weight).
    pub bytes: u64,
}

/// Partitions `entries` into at most `max_chunks` chunks along DPU
/// boundaries.
///
/// Guarantees (property-tested):
/// * every entry index appears in exactly one chunk;
/// * no DPU's entries are split across two chunks;
/// * within a chunk, entries for one DPU keep their original relative order;
/// * the result is deterministic for a given `(entries, max_chunks)`.
///
/// DPU groups are assigned greedily — heaviest group first onto the
/// currently lightest chunk (ties: lowest chunk index; equal-weight groups
/// keep first-appearance order) — a standard LPT balance that is stable
/// because every tie-break is total.
#[must_use]
pub fn partition_by_dpu(entries: &[DpuXfer], max_chunks: usize) -> Vec<Chunk> {
    let max_chunks = max_chunks.max(1);
    // Group entry indices per DPU, preserving first-appearance order.
    let mut order: Vec<u32> = Vec::new();
    let mut groups: std::collections::HashMap<u32, (Vec<usize>, u64)> =
        std::collections::HashMap::new();
    for (i, e) in entries.iter().enumerate() {
        let g = groups.entry(e.dpu).or_insert_with(|| {
            order.push(e.dpu);
            (Vec::new(), 0)
        });
        g.0.push(i);
        g.1 += e.len;
    }

    // LPT: heaviest DPU group first; stable sort keeps first-appearance
    // order among equal weights.
    let mut by_weight: Vec<u32> = order.clone();
    by_weight.sort_by_key(|d| std::cmp::Reverse(groups[d].1));

    let n = max_chunks.min(order.len().max(1));
    let mut chunks: Vec<Chunk> =
        (0..n).map(|_| Chunk { entry_indices: Vec::new(), bytes: 0 }).collect();
    for dpu in by_weight {
        let (indices, bytes) = groups.remove(&dpu).expect("grouped above");
        let lightest = chunks
            .iter()
            .enumerate()
            .min_by_key(|(i, c)| (c.bytes, *i))
            .map(|(i, _)| i)
            .expect("n >= 1");
        chunks[lightest].entry_indices.extend(indices);
        chunks[lightest].bytes += bytes;
    }
    chunks.retain(|c| !c.entry_indices.is_empty());
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DpuXfer;

    fn xfer(dpu: u32, len: u64) -> DpuXfer {
        DpuXfer { dpu, mram_offset: 0, len, pages: Vec::new().into() }
    }

    #[test]
    fn empty_matrix_partitions_to_nothing() {
        assert!(partition_by_dpu(&[], 8).is_empty());
    }

    #[test]
    fn single_dpu_stays_in_one_chunk_in_order() {
        let entries = vec![xfer(3, 10), xfer(3, 20), xfer(3, 30)];
        let chunks = partition_by_dpu(&entries, 8);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].entry_indices, vec![0, 1, 2]);
        assert_eq!(chunks[0].bytes, 60);
    }

    #[test]
    fn one_chunk_takes_everything() {
        let entries: Vec<DpuXfer> = (0..8).map(|d| xfer(d, 100)).collect();
        let chunks = partition_by_dpu(&entries, 1);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].entry_indices.len(), 8);
    }

    #[test]
    fn balances_unequal_dpus() {
        // One heavy DPU and seven light ones over two chunks: the heavy one
        // should sit alone-ish, not stack with everything else.
        let mut entries = vec![xfer(0, 700)];
        entries.extend((1..8).map(|d| xfer(d, 100)));
        let chunks = partition_by_dpu(&entries, 2);
        assert_eq!(chunks.len(), 2);
        let max = chunks.iter().map(|c| c.bytes).max().unwrap();
        assert_eq!(max, 700, "heavy DPU alone in its chunk");
    }

    #[test]
    fn deterministic_for_same_input() {
        let entries: Vec<DpuXfer> =
            (0..32).map(|i| xfer(i % 11, u64::from(i % 7) * 64 + 8)).collect();
        let a = partition_by_dpu(&entries, 8);
        let b = partition_by_dpu(&entries, 8);
        assert_eq!(a, b);
    }

    proptest::proptest! {
        /// Every entry index lands in exactly one chunk, and no DPU's
        /// entries are split across two chunks.
        #[test]
        fn chunks_cover_entries_exactly_once_and_never_split_a_dpu(
            raw in proptest::collection::vec((0u32..16, 1u64..10_000), 0..64),
            max_chunks in 1usize..12,
        ) {
            let entries: Vec<DpuXfer> =
                raw.iter().map(|(d, l)| xfer(*d, *l)).collect();
            let chunks = partition_by_dpu(&entries, max_chunks);

            // Exactly-once coverage.
            let mut seen = vec![0u32; entries.len()];
            for c in &chunks {
                for &i in &c.entry_indices {
                    proptest::prop_assert!(i < entries.len());
                    seen[i] += 1;
                }
            }
            proptest::prop_assert!(seen.iter().all(|&n| n == 1));

            // A DPU appears in at most one chunk, and its entries keep
            // their original relative order within that chunk.
            let mut dpu_chunk: std::collections::HashMap<u32, usize> =
                std::collections::HashMap::new();
            for (ci, c) in chunks.iter().enumerate() {
                proptest::prop_assert_eq!(
                    c.bytes,
                    c.entry_indices.iter().map(|&i| entries[i].len).sum::<u64>()
                );
                let mut last_per_dpu: std::collections::HashMap<u32, usize> =
                    std::collections::HashMap::new();
                for &i in &c.entry_indices {
                    let d = entries[i].dpu;
                    if let Some(&owner) = dpu_chunk.get(&d) {
                        proptest::prop_assert!(owner == ci, "DPU split across chunks");
                    } else {
                        dpu_chunk.insert(d, ci);
                    }
                    if let Some(&prev) = last_per_dpu.get(&d) {
                        proptest::prop_assert!(prev < i, "same-DPU order broken");
                    }
                    last_per_dpu.insert(d, i);
                }
            }
            proptest::prop_assert!(chunks.len() <= max_chunks);

            // Pure function of the input.
            proptest::prop_assert_eq!(chunks, partition_by_dpu(&entries, max_chunks));
        }
    }
}
