//! The Wikipedia index-search microbenchmark (UPMEM's UPIS use case).
//!
//! An inverted index over a document corpus is sharded across DPUs (each
//! DPU indexes a slice of the documents). Phrase queries are sent in
//! batches of 128; every DPU scans its shard and reports matching
//! `(document, position)` pairs; the host merges shard results. The paper
//! uses 445 queries over 4 305 files of an English-Wikipedia subset
//! (63 MB); this reproduction generates a synthetic corpus of the same
//! shape (the Wikipedia subset itself is not redistributable — see
//! DESIGN.md's substitution table).

use simkit::{bytes_to_u32s, u32s_to_bytes, AppSegment, SimRng};
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::error::DpuFault;
use upmem_sim::kernel::{DpuKernel, KernelImage, SymbolDef};
use upmem_sim::{DpuContext, PimMachine};

/// Maximum hits reported per query per DPU.
pub const MAX_HITS: usize = 16;

/// Corpus and query-load shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexSearchParams {
    /// Number of documents in the corpus.
    pub n_docs: usize,
    /// Words per document.
    pub doc_len: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Total number of queries.
    pub n_queries: usize,
    /// Queries per batch (the benchmark sends 128 at a time).
    pub batch: usize,
}

impl IndexSearchParams {
    /// The paper's configuration: 4 305 documents, 445 queries, batches of
    /// 128 (4 batches).
    #[must_use]
    pub fn paper() -> Self {
        IndexSearchParams { n_docs: 4305, doc_len: 512, vocab: 8192, n_queries: 445, batch: 128 }
    }

    /// A test-sized corpus.
    #[must_use]
    pub fn small() -> Self {
        IndexSearchParams { n_docs: 48, doc_len: 64, vocab: 128, n_queries: 20, batch: 8 }
    }
}

/// MRAM layout offsets (all 4 KiB aligned, sized by the host):
/// `[vocab table][postings][queries][results]` — offsets via symbols.
#[derive(Debug)]
pub struct IndexSearchKernel;

impl DpuKernel for IndexSearchKernel {
    fn image(&self) -> KernelImage {
        KernelImage::new("index_search_kernel", 11 << 10)
            .with_symbol(SymbolDef::u32("vocab"))
            .with_symbol(SymbolDef::u32("nq"))
            .with_symbol(SymbolDef::u32("off_post"))
            .with_symbol(SymbolDef::u32("off_q"))
            .with_symbol(SymbolDef::u32("off_r"))
    }

    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
        let vocab = ctx.host_u32("vocab")? as usize;
        let nq = ctx.host_u32("nq")? as usize;
        let off_post = u64::from(ctx.host_u32("off_post")?);
        let off_q = u64::from(ctx.host_u32("off_q")?);
        let off_r = u64::from(ctx.host_u32("off_r")?);
        let tasklets = ctx.nr_tasklets();
        let rec = 1 + 2 * MAX_HITS; // per-query result record in u32s
        ctx.parallel(|t| {
            let per = nq.div_ceil(tasklets);
            let lo = (t.id() * per).min(nq);
            let hi = ((t.id() + 1) * per).min(nq);
            if lo >= hi {
                return Ok(());
            }
            t.wram_alloc(4096)?;
            for q in lo..hi {
                // Load the 2-word phrase.
                let mut phrase = [0u32; 2];
                t.mram_read_u32s(off_q + (q * 2 * 4) as u64, &mut phrase)?;
                let (w1, w2) = (phrase[0] as usize % vocab, phrase[1] as usize % vocab);
                // Vocab table entries: (offset, len) in postings pairs.
                let mut e1 = [0u32; 2];
                t.mram_read_u32s((w1 * 2 * 4) as u64, &mut e1)?;
                let mut e2 = [0u32; 2];
                t.mram_read_u32s((w2 * 2 * 4) as u64, &mut e2)?;
                let mut hits: Vec<(u32, u32)> = Vec::new();
                if e1[1] > 0 && e2[1] > 0 {
                    let mut p1 = vec![0u32; e1[1] as usize * 2];
                    t.mram_read_u32s(off_post + u64::from(e1[0]) * 8, &mut p1)?;
                    let mut p2 = vec![0u32; e2[1] as usize * 2];
                    t.mram_read_u32s(off_post + u64::from(e2[0]) * 8, &mut p2)?;
                    // Postings are (doc, pos) sorted; merge-join on
                    // (doc, pos+1).
                    for pair in p1.chunks_exact(2) {
                        if hits.len() >= MAX_HITS {
                            break;
                        }
                        let (doc, pos) = (pair[0], pair[1]);
                        let target = (doc, pos + 1);
                        let found = p2
                            .chunks_exact(2)
                            .any(|c| (c[0], c[1]) == target);
                        if found {
                            hits.push((doc, pos));
                        }
                    }
                    t.charge((p1.len() as u64 / 2) * (2 + p2.len() as u64 / 8));
                }
                let mut record = vec![0u32; rec];
                record[0] = hits.len() as u32;
                for (i, (doc, pos)) in hits.iter().enumerate() {
                    record[1 + 2 * i] = *doc;
                    record[2 + 2 * i] = *pos;
                }
                t.mram_write_u32s(off_r + (q * rec * 4) as u64, &record)?;
            }
            Ok(())
        })
    }
}

/// One query's merged result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryHits {
    /// Matching `(document id, word position)` pairs (capped per shard).
    pub hits: Vec<(u32, u32)>,
}

/// Outcome of one search run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchRun {
    /// Whether the merged hits match the CPU reference.
    pub verified: bool,
    /// Total hits across all queries.
    pub total_hits: usize,
}

/// The index-search application driver.
#[derive(Debug)]
pub struct IndexSearch;

impl IndexSearch {
    /// The kernel's registry name.
    pub const KERNEL: &'static str = "index_search_kernel";

    /// Registers the DPU kernel.
    pub fn register(machine: &PimMachine) {
        machine.register_kernel(std::sync::Arc::new(IndexSearchKernel));
    }

    /// Runs the search on a vPIM VM's frontends — the library form of the
    /// `index_search` example, used by the load harness to script the
    /// UPIS workload ([`IndexSearchParams::paper`] for full scale) into a
    /// tenant session. Returns the run plus its virtual cost.
    ///
    /// # Errors
    ///
    /// [`SdkError::NotEnoughDpus`] when the frontends cannot cover
    /// `nr_dpus`, or transport failures.
    pub fn run_vm(
        frontends: &[std::sync::Arc<vpim::Frontend>],
        nr_dpus: usize,
        params: &IndexSearchParams,
        seed: u64,
    ) -> Result<(SearchRun, simkit::VirtualNanos), SdkError> {
        let cm = frontends
            .first()
            .map_or_else(simkit::CostModel::default, |f| f.cost_model().clone());
        let mut set = DpuSet::alloc_vm(frontends, nr_dpus, cm)?;
        let run = Self::run(&mut set, params, seed)?;
        let cost = set.timeline().app_total();
        Ok((run, cost))
    }

    /// Generates the synthetic corpus (skewed word distribution).
    #[must_use]
    pub fn corpus(params: &IndexSearchParams, seed: u64) -> Vec<Vec<u32>> {
        let mut rng = SimRng::seeded(seed);
        (0..params.n_docs)
            .map(|_| {
                (0..params.doc_len)
                    .map(|_| {
                        // Quadratic skew: low ids are common, like word
                        // frequencies in text.
                        let f = rng.f64();
                        ((f * f * params.vocab as f64) as usize).min(params.vocab - 1) as u32
                    })
                    .collect()
            })
            .collect()
    }

    /// Generates the query load: half sampled phrases (guaranteed hits),
    /// half random probes.
    #[must_use]
    pub fn queries(params: &IndexSearchParams, corpus: &[Vec<u32>], seed: u64) -> Vec<(u32, u32)> {
        let mut rng = SimRng::seeded(seed ^ 0x7777);
        (0..params.n_queries)
            .map(|i| {
                if i % 2 == 0 && !corpus.is_empty() {
                    let d = rng.usize_below(corpus.len());
                    let p = rng.usize_below(corpus[d].len() - 1);
                    (corpus[d][p], corpus[d][p + 1])
                } else {
                    (
                        rng.u64_below(params.vocab as u64) as u32,
                        rng.u64_below(params.vocab as u64) as u32,
                    )
                }
            })
            .collect()
    }

    /// CPU reference: all `(doc, pos)` pairs where the phrase occurs.
    #[must_use]
    pub fn reference(corpus: &[Vec<u32>], query: (u32, u32)) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (d, doc) in corpus.iter().enumerate() {
            for p in 0..doc.len().saturating_sub(1) {
                if doc[p] == query.0 && doc[p + 1] == query.1 {
                    out.push((d as u32, p as u32));
                }
            }
        }
        out
    }

    /// Runs the benchmark on an allocated set.
    ///
    /// # Errors
    ///
    /// SDK/transport failures.
    #[allow(clippy::too_many_lines)]
    pub fn run(
        set: &mut DpuSet,
        params: &IndexSearchParams,
        seed: u64,
    ) -> Result<SearchRun, SdkError> {
        let corpus = Self::corpus(params, seed);
        let queries = Self::queries(params, &corpus, seed);
        let n_dpus = set.nr_dpus();
        let rec = 1 + 2 * MAX_HITS;

        // Shard documents and build each shard's inverted index.
        let shards: Vec<std::ops::Range<usize>> = {
            let base = params.n_docs / n_dpus;
            let extra = params.n_docs % n_dpus;
            let mut out = Vec::new();
            let mut s = 0;
            for i in 0..n_dpus {
                let len = base + usize::from(i < extra);
                out.push(s..s + len);
                s += len;
            }
            out
        };

        set.load(Self::KERNEL)?;
        set.set_segment(AppSegment::CpuToDpu);
        let mut max_postings = 0usize;
        let mut vocab_bufs = Vec::with_capacity(n_dpus);
        let mut post_bufs = Vec::with_capacity(n_dpus);
        for r in &shards {
            // word -> (doc, pos) postings, docs in global ids.
            let mut postings: Vec<Vec<(u32, u32)>> = vec![Vec::new(); params.vocab];
            for d in r.clone() {
                for (p, w) in corpus[d].iter().enumerate() {
                    postings[*w as usize].push((d as u32, p as u32));
                }
            }
            let mut table = Vec::with_capacity(params.vocab * 2);
            let mut flat: Vec<u32> = Vec::new();
            for plist in &postings {
                table.push((flat.len() / 2) as u32);
                table.push(plist.len() as u32);
                for (d, p) in plist {
                    flat.push(*d);
                    flat.push(*p);
                }
            }
            max_postings = max_postings.max(flat.len());
            vocab_bufs.push(u32s_to_bytes(&table));
            post_bufs.push(u32s_to_bytes(&flat));
        }
        let table_bytes = ((params.vocab * 2 * 4) as u64).div_ceil(4096) * 4096;
        let post_bytes = ((max_postings.max(1) * 4) as u64).div_ceil(4096) * 4096;
        let q_bytes = ((params.batch * 2 * 4) as u64).div_ceil(4096) * 4096;
        let off_post = table_bytes;
        let off_q = off_post + post_bytes;
        let off_r = off_q + q_bytes;

        // UPIS distributes the index one DPU at a time (serial transfers;
        // the paper notes Fig. 10's execution time *grows* with the DPU
        // count because of this).
        for d in 0..n_dpus {
            set.copy_to_heap(d, 0, &vocab_bufs[d])?;
            if !post_bufs[d].is_empty() {
                set.copy_to_heap(d, off_post, &post_bufs[d])?;
            }
        }
        set.broadcast_symbol_u32("vocab", params.vocab as u32)?;
        set.broadcast_symbol_u32("off_post", off_post as u32)?;
        set.broadcast_symbol_u32("off_q", off_q as u32)?;
        set.broadcast_symbol_u32("off_r", off_r as u32)?;

        // Batched query processing.
        let mut merged: Vec<QueryHits> = vec![QueryHits::default(); queries.len()];
        for (b, batch) in queries.chunks(params.batch).enumerate() {
            set.set_segment(AppSegment::CpuToDpu);
            let mut qbuf = Vec::with_capacity(batch.len() * 2);
            for (w1, w2) in batch {
                qbuf.push(*w1);
                qbuf.push(*w2);
            }
            let qbytes = u32s_to_bytes(&qbuf);
            let bufs: Vec<Vec<u8>> = (0..n_dpus).map(|_| qbytes.clone()).collect();
            set.push_to_heap(off_q, &bufs)?;
            set.broadcast_symbol_u32("nq", batch.len() as u32)?;

            set.set_segment(AppSegment::Dpu);
            set.launch(16)?;

            set.set_segment(AppSegment::DpuToCpu);
            // Results are scanned shard by shard (serial reads).
            let mut outs = Vec::with_capacity(n_dpus);
            for d in 0..n_dpus {
                outs.push(set.copy_from_heap(d, off_r, batch.len() * rec * 4)?);
            }
            for (out, _) in outs.iter().zip(0..) {
                let words = bytes_to_u32s(out);
                for (qi, _) in batch.iter().enumerate() {
                    let base = qi * rec;
                    let count = words[base] as usize;
                    let global_q = b * params.batch + qi;
                    for h in 0..count.min(MAX_HITS) {
                        merged[global_q]
                            .hits
                            .push((words[base + 1 + 2 * h], words[base + 2 + 2 * h]));
                    }
                }
            }
        }

        // Verify (accounting for the per-shard hit cap).
        let mut verified = true;
        let mut total_hits = 0usize;
        for (q, query) in queries.iter().enumerate() {
            let mut got = merged[q].hits.clone();
            got.sort_unstable();
            let mut want = Self::reference(&corpus, *query);
            // Apply the same per-shard cap the kernel applies.
            let mut capped: Vec<(u32, u32)> = Vec::new();
            for r in &shards {
                let mut in_shard: Vec<(u32, u32)> = want
                    .iter()
                    .copied()
                    .filter(|(d, _)| r.contains(&(*d as usize)))
                    .collect();
                in_shard.truncate(MAX_HITS);
                capped.extend(in_shard);
            }
            capped.sort_unstable();
            want = capped;
            if got != want {
                verified = false;
            }
            total_hits += got.len();
        }
        Ok(SearchRun { verified, total_hits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::CostModel;
    use std::sync::Arc;
    use upmem_driver::UpmemDriver;
    use upmem_sim::PimConfig;

    fn machine() -> PimMachine {
        let m = PimMachine::new(PimConfig::small());
        IndexSearch::register(&m);
        m
    }

    #[test]
    fn search_native_finds_planted_phrases() {
        let driver = Arc::new(UpmemDriver::new(machine()));
        let mut set = DpuSet::alloc_native(&driver, 8, CostModel::default()).unwrap();
        let run = IndexSearch::run(&mut set, &IndexSearchParams::small(), 5).unwrap();
        assert!(run.verified);
        // Half the queries are sampled from the corpus, so hits exist.
        assert!(run.total_hits > 0);
    }

    #[test]
    fn search_vpim_matches_native() {
        let driver = Arc::new(UpmemDriver::new(machine()));
        let params = IndexSearchParams::small();
        let native = {
            let mut set = DpuSet::alloc_native(&driver, 8, CostModel::default()).unwrap();
            IndexSearch::run(&mut set, &params, 5).unwrap()
        };
        let sys = vpim::VpimSystem::start(driver, vpim::VpimConfig::full(), vpim::StartOpts::default());
        let vm = sys.launch(vpim::TenantSpec::new("vm-is")).unwrap();
        let mut set = DpuSet::alloc_vm(vm.frontends(), 8, CostModel::default()).unwrap();
        let virt = IndexSearch::run(&mut set, &params, 5).unwrap();
        assert!(virt.verified);
        assert_eq!(virt.total_hits, native.total_hits);
        sys.shutdown();
    }

    #[test]
    fn reference_finds_adjacent_pairs_only() {
        let corpus = vec![vec![1u32, 2, 3, 1, 2]];
        assert_eq!(IndexSearch::reference(&corpus, (1, 2)), vec![(0, 0), (0, 3)]);
        assert_eq!(IndexSearch::reference(&corpus, (3, 1)), vec![(0, 2)]);
        assert!(IndexSearch::reference(&corpus, (3, 3)).is_empty());
    }
}
