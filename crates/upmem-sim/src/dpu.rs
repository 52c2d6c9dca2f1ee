//! A single DRAM Processing Unit and its execution engine.
//!
//! ## Execution model
//!
//! A DPU runs one SPMD program on up to 24 tasklets sharing MRAM, WRAM and
//! IRAM. Real tasklets interleave cycle by cycle in a 14-stage pipeline
//! with the constraint that one tasklet's consecutive instructions are at
//! least 11 cycles apart (§2: "for a given thread, 11 cycles should
//! separate 2 consecutive instructions", hence ≥ 11 tasklets for full
//! throughput).
//!
//! The simulator runs tasklets as *barrier-delimited parallel phases*
//! ([`DpuContext::parallel`]): within a phase every tasklet executes
//! independently (they are run sequentially under the hood, which is
//! observationally equivalent for data-race-free programs); phase
//! boundaries are barriers. Per phase the cycle model charges
//!
//! ```text
//! compute = max( Σᵢ instrᵢ , 11 × maxᵢ instrᵢ )   // pipeline law
//! dma     = Σᵢ dmaᵢ                                // shared DMA engine
//! cycles  = max(compute, dma)                      // DMA overlaps compute
//! ```
//!
//! which reproduces the two regimes that matter for the paper's evaluation:
//! below 11 tasklets the pipeline is underfilled (time is flat in tasklet
//! count), above it the DPU is throughput-bound.

use std::collections::HashMap;
use std::ops::Range;

use crate::error::{DpuFault, SimError};
use crate::geometry::{PimConfig, MAX_TASKLETS, PIPELINE_DEPTH};
use crate::kernel::KernelImage;
use crate::mram::MramBank;
use crate::wram::Wram;

/// Address of the MRAM heap (`DPU_MRAM_HEAP_POINTER` in the SDK).
pub const MRAM_HEAP_BASE: u64 = 0;

/// Maximum bytes a single MRAM↔WRAM DMA transfer may move; larger requests
/// are split (and charged) in 2 KiB chunks like the hardware's `mram_read`.
pub const DMA_MAX: usize = 2048;

/// DMA cycles the DPU charges per transfer of up to [`DMA_MAX`] bytes.
/// This is the DPU's own constant; nothing in `simkit::CostModel` sets it.
const DMA_FIXED_CYCLES: u64 = 77;
/// DMA cycles the DPU charges per 8 bytes moved (≈0.5 cycles/byte, so
/// ~700 MB/s per DPU at 350 MHz). Also the DPU's own constant.
const DMA_CYCLES_PER_8_BYTES: u64 = 4;

/// Lifecycle state of a DPU, as visible through the control interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DpuState {
    /// No program running.
    Idle,
    /// A program is executing (visible while polling from another thread).
    Running,
    /// The last launch completed successfully.
    Done,
    /// The last launch faulted.
    Fault(DpuFault),
}

/// Outcome of one DPU launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchReport {
    /// Total cycles consumed by the launch (pipeline model + DMA).
    pub cycles: u64,
    /// Number of barrier-delimited parallel phases executed.
    pub phases: u64,
    /// Total instructions charged across tasklets.
    pub instructions: u64,
}

/// One DRAM Processing Unit.
#[derive(Debug)]
pub struct Dpu {
    mram: MramBank,
    wram: Wram,
    iram_capacity: usize,
    loaded: Option<KernelImage>,
    symbols: HashMap<String, Vec<u8>>,
    state: DpuState,
}

impl Dpu {
    /// Creates a DPU with the geometry from `cfg`.
    #[must_use]
    pub fn new(cfg: &PimConfig) -> Self {
        Dpu {
            mram: MramBank::new(cfg.mram_size),
            wram: Wram::new(cfg.wram_size),
            iram_capacity: cfg.iram_size,
            loaded: None,
            symbols: HashMap::new(),
            state: DpuState::Idle,
        }
    }

    /// The MRAM bank.
    #[must_use]
    pub fn mram(&self) -> &MramBank {
        &self.mram
    }

    /// Mutable access to the MRAM bank (host-side transfers land here).
    pub fn mram_mut(&mut self) -> &mut MramBank {
        &mut self.mram
    }

    /// Currently loaded program image, if any.
    #[must_use]
    pub fn loaded_image(&self) -> Option<&KernelImage> {
        self.loaded.as_ref()
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn state(&self) -> &DpuState {
        &self.state
    }

    /// Loads a program image: checks the IRAM footprint and (re)initializes
    /// the image's host symbols to zero.
    ///
    /// # Errors
    ///
    /// [`SimError::IramOverflow`] if the image exceeds IRAM capacity.
    pub fn load(&mut self, image: KernelImage) -> Result<(), SimError> {
        if image.iram_bytes > self.iram_capacity {
            return Err(SimError::IramOverflow {
                image: image.iram_bytes,
                capacity: self.iram_capacity,
            });
        }
        self.symbols.clear();
        for s in &image.symbols {
            self.symbols.insert(s.name.clone(), vec![0u8; s.size]);
        }
        self.loaded = Some(image);
        self.state = DpuState::Idle;
        Ok(())
    }

    /// Copies host bytes into a symbol (`dpu_copy_to` on a symbol).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSymbol`] or [`SimError::SymbolSizeMismatch`].
    pub fn write_symbol(&mut self, name: &str, bytes: &[u8]) -> Result<(), SimError> {
        let slot = self
            .symbols
            .get_mut(name)
            .ok_or_else(|| SimError::UnknownSymbol(name.to_string()))?;
        if slot.len() != bytes.len() {
            return Err(SimError::SymbolSizeMismatch {
                name: name.to_string(),
                expected: slot.len(),
                got: bytes.len(),
            });
        }
        slot.copy_from_slice(bytes);
        Ok(())
    }

    /// Copies a symbol out to host bytes (`dpu_copy_from` on a symbol).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSymbol`] or [`SimError::SymbolSizeMismatch`].
    pub fn read_symbol(&self, name: &str, bytes: &mut [u8]) -> Result<(), SimError> {
        let slot = self
            .symbols
            .get(name)
            .ok_or_else(|| SimError::UnknownSymbol(name.to_string()))?;
        if slot.len() != bytes.len() {
            return Err(SimError::SymbolSizeMismatch {
                name: name.to_string(),
                expected: slot.len(),
                got: bytes.len(),
            });
        }
        bytes.copy_from_slice(slot);
        Ok(())
    }

    /// Runs the loaded program with `nr_tasklets` tasklets.
    ///
    /// # Errors
    ///
    /// * [`SimError::NoProgramLoaded`] if nothing is loaded,
    /// * [`SimError::InvalidTasklets`] for a tasklet count outside `1..=24`,
    /// * [`SimError::Fault`] if the program faults (the DPU is left in the
    ///   [`DpuState::Fault`] state, as the CI would report).
    pub fn launch(
        &mut self,
        kernel: &dyn crate::kernel::DpuKernel,
        nr_tasklets: usize,
    ) -> Result<LaunchReport, SimError> {
        if self.loaded.is_none() {
            return Err(SimError::NoProgramLoaded);
        }
        if nr_tasklets == 0 || nr_tasklets > MAX_TASKLETS {
            return Err(SimError::InvalidTasklets(nr_tasklets));
        }
        self.state = DpuState::Running;
        self.wram.reset();
        let (result, cycles, phases, instructions) = {
            let mut ctx = DpuContext {
                dpu: self,
                nr_tasklets,
                cycles: 0,
                phases: 0,
                instructions: 0,
            };
            let r = kernel.run(&mut ctx);
            (r, ctx.cycles, ctx.phases, ctx.instructions)
        };
        match result {
            Ok(()) => {
                self.state = DpuState::Done;
                Ok(LaunchReport { cycles, phases, instructions })
            }
            Err(fault) => {
                self.state = DpuState::Fault(fault.clone());
                Err(SimError::Fault(fault))
            }
        }
    }

    /// Captures the DPU's persistent state: resident MRAM, host symbols and
    /// the loaded image — the checkpoint half of the paper's future-work
    /// pause/resume mechanism (§7: "checkpoint-restore mechanisms could
    /// enable dynamic workload consolidation without hardware changes").
    /// The snapshot holds handles on the bank's pages, not a copy of its
    /// bytes; the first side to write a page afterwards copies it.
    #[must_use]
    pub fn snapshot(&self) -> DpuSnapshot {
        DpuSnapshot {
            mram: self.mram.clone(),
            symbols: self.symbols.clone(),
            loaded: self.loaded.clone(),
        }
    }

    /// Restores a previously captured snapshot, replacing all content. The
    /// bank takes the snapshot's page handles; no byte is copied.
    ///
    /// # Errors
    ///
    /// [`SimError::MramOutOfBounds`] if the snapshot was taken on a DPU
    /// with a larger MRAM bank.
    pub fn restore(&mut self, snap: &DpuSnapshot) -> Result<(), SimError> {
        self.reset_content();
        self.mram.restore_from(&snap.mram)?;
        self.symbols = snap.symbols.clone();
        self.loaded = snap.loaded.clone();
        self.state = DpuState::Idle;
        Ok(())
    }

    /// Zeroes MRAM, WRAM accounting and symbols — the manager's erase step.
    pub fn reset_content(&mut self) {
        self.mram.reset();
        self.wram.reset();
        for v in self.symbols.values_mut() {
            v.iter_mut().for_each(|b| *b = 0);
        }
        self.state = DpuState::Idle;
    }
}

/// A captured DPU state (resident MRAM, host symbols, loaded image). Its
/// MRAM is a copy-on-write clone of the bank: page handles, counted by the
/// bank's byte high-water mark as if they were copies.
#[derive(Debug, Clone)]
pub struct DpuSnapshot {
    mram: MramBank,
    symbols: HashMap<String, Vec<u8>>,
    loaded: Option<KernelImage>,
}

impl DpuSnapshot {
    /// Resident MRAM bytes captured.
    #[must_use]
    pub fn mram_bytes(&self) -> usize {
        self.mram.resident_bytes()
    }

    /// Bytes that differ from `base`: the dirty set a pre-copy migration
    /// must re-send after shipping `base` as its warm round. Counts
    /// byte-wise MRAM mismatches (residency growth/shrink counts in
    /// full), changed or new host-symbol payloads, and the loaded kernel
    /// image's IRAM footprint when the image changed. MRAM pages the two
    /// snapshots share are not compared byte by byte.
    #[must_use]
    pub fn diff_bytes(&self, base: &DpuSnapshot) -> u64 {
        let mut dirty = self.mram.diff_bytes(&base.mram);
        for (name, payload) in &self.symbols {
            match base.symbols.get(name) {
                Some(prev) if prev == payload => {}
                _ => dirty += payload.len() as u64,
            }
        }
        let image_name = |s: &DpuSnapshot| s.loaded.as_ref().map(|k| k.name.clone());
        if image_name(self) != image_name(base) {
            dirty += self.loaded.as_ref().map_or(0, |k| k.iram_bytes as u64);
        }
        dirty
    }
}

/// Execution context handed to a kernel's entry point.
///
/// Provides host-symbol access and the [`parallel`](DpuContext::parallel)
/// phase combinator. Created by [`Dpu::launch`]; not constructible directly.
#[derive(Debug)]
pub struct DpuContext<'a> {
    dpu: &'a mut Dpu,
    nr_tasklets: usize,
    cycles: u64,
    phases: u64,
    instructions: u64,
}

impl<'a> DpuContext<'a> {
    /// Number of tasklets this launch runs with.
    #[must_use]
    pub fn nr_tasklets(&self) -> usize {
        self.nr_tasklets
    }

    /// MRAM capacity of this DPU.
    #[must_use]
    pub fn mram_size(&self) -> u64 {
        self.dpu.mram.capacity()
    }

    /// Reads a `u32` host symbol.
    ///
    /// # Errors
    ///
    /// Faults if the symbol is missing or not 4 bytes.
    pub fn host_u32(&self, name: &str) -> Result<u32, DpuFault> {
        let mut b = [0u8; 4];
        self.dpu
            .read_symbol(name, &mut b)
            .map_err(|e| DpuFault::new(e.to_string()))?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a `u64` host symbol.
    ///
    /// # Errors
    ///
    /// Faults if the symbol is missing or not 8 bytes.
    pub fn host_u64(&self, name: &str) -> Result<u64, DpuFault> {
        let mut b = [0u8; 8];
        self.dpu
            .read_symbol(name, &mut b)
            .map_err(|e| DpuFault::new(e.to_string()))?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a `u32` host symbol.
    ///
    /// # Errors
    ///
    /// Faults if the symbol is missing or not 4 bytes.
    pub fn set_host_u32(&mut self, name: &str, v: u32) -> Result<(), DpuFault> {
        self.dpu
            .write_symbol(name, &v.to_le_bytes())
            .map_err(|e| DpuFault::new(e.to_string()))
    }

    /// Writes a `u64` host symbol.
    ///
    /// # Errors
    ///
    /// Faults if the symbol is missing or not 8 bytes.
    pub fn set_host_u64(&mut self, name: &str, v: u64) -> Result<(), DpuFault> {
        self.dpu
            .write_symbol(name, &v.to_le_bytes())
            .map_err(|e| DpuFault::new(e.to_string()))
    }

    /// Runs one barrier-delimited parallel phase: `f` executes once per
    /// tasklet (ids `0..nr_tasklets`), and the phase's cycles are charged
    /// according to the pipeline law documented at module level.
    ///
    /// # Errors
    ///
    /// Propagates the first tasklet fault.
    pub fn parallel<F>(&mut self, mut f: F) -> Result<(), DpuFault>
    where
        F: FnMut(&mut TaskletCtx<'_>) -> Result<(), DpuFault>,
    {
        let n = self.nr_tasklets;
        let mut sum_instr: u64 = 0;
        let mut max_instr: u64 = 0;
        let mut sum_dma: u64 = 0;
        for id in 0..n {
            let mut tc = TaskletCtx {
                dpu: &mut *self.dpu,
                id,
                nr_tasklets: n,
                instrs: 0,
                dma_cycles: 0,
            };
            f(&mut tc)?;
            sum_instr += tc.instrs;
            max_instr = max_instr.max(tc.instrs);
            sum_dma += tc.dma_cycles;
        }
        let compute = sum_instr.max(PIPELINE_DEPTH.saturating_mul(max_instr));
        self.cycles = self.cycles.saturating_add(compute.max(sum_dma));
        self.phases += 1;
        self.instructions += sum_instr;
        Ok(())
    }

    /// Runs a phase on tasklet 0 only (the common
    /// `if (me() == 0) { ... } barrier_wait(...)` idiom).
    ///
    /// # Errors
    ///
    /// Propagates a tasklet fault.
    pub fn single<F>(&mut self, mut f: F) -> Result<(), DpuFault>
    where
        F: FnMut(&mut TaskletCtx<'_>) -> Result<(), DpuFault>,
    {
        let mut tc = TaskletCtx {
            dpu: &mut *self.dpu,
            id: 0,
            nr_tasklets: self.nr_tasklets,
            instrs: 0,
            dma_cycles: 0,
        };
        f(&mut tc)?;
        let compute = tc.instrs.saturating_mul(PIPELINE_DEPTH);
        self.cycles = self.cycles.saturating_add(compute.max(tc.dma_cycles));
        self.phases += 1;
        self.instructions += tc.instrs;
        Ok(())
    }
}

/// Per-tasklet view of the DPU inside a parallel phase.
#[derive(Debug)]
pub struct TaskletCtx<'a> {
    dpu: &'a mut Dpu,
    id: usize,
    nr_tasklets: usize,
    instrs: u64,
    dma_cycles: u64,
}

impl<'a> TaskletCtx<'a> {
    /// This tasklet's id (`me()` in the UPMEM runtime).
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of tasklets in the launch.
    #[must_use]
    pub fn nr_tasklets(&self) -> usize {
        self.nr_tasklets
    }

    /// MRAM capacity of this DPU.
    #[must_use]
    pub fn mram_size(&self) -> u64 {
        self.dpu.mram.capacity()
    }

    /// Charges `n` pipeline instructions to this tasklet. Kernels call this
    /// for their compute loops (the MRAM helpers charge automatically).
    pub fn charge(&mut self, n: u64) {
        self.instrs = self.instrs.saturating_add(n);
    }

    fn charge_dma(&mut self, bytes: usize) {
        // A fixed cost per <=2 KiB transfer plus a per-8-byte cost.
        let chunks = bytes.div_ceil(DMA_MAX).max(1) as u64;
        self.dma_cycles = self.dma_cycles.saturating_add(
            chunks * DMA_FIXED_CYCLES + (bytes as u64).div_ceil(8) * DMA_CYCLES_PER_8_BYTES,
        );
        // Issuing a DMA also costs a handful of pipeline instructions.
        self.charge(4 * chunks);
    }

    /// DMA from MRAM into a WRAM buffer (`mram_read`).
    ///
    /// # Errors
    ///
    /// Faults on an out-of-bounds MRAM access.
    pub fn mram_read(&mut self, addr: u64, dst: &mut [u8]) -> Result<(), DpuFault> {
        self.charge_dma(dst.len());
        self.dpu
            .mram
            .read(addr, dst)
            .map_err(|e| DpuFault::in_tasklet(self.id, e.to_string()))
    }

    /// DMA from a WRAM buffer into MRAM (`mram_write`).
    ///
    /// # Errors
    ///
    /// Faults on an out-of-bounds MRAM access.
    pub fn mram_write(&mut self, addr: u64, src: &[u8]) -> Result<(), DpuFault> {
        self.charge_dma(src.len());
        self.dpu
            .mram
            .write(addr, src)
            .map_err(|e| DpuFault::in_tasklet(self.id, e.to_string()))
    }

    /// DMA from MRAM that the tasklet consumes where it lies: `f` sees the
    /// `len` bytes at `addr` and its result is returned. Charged exactly
    /// like [`mram_read`](Self::mram_read) of `len` bytes; use that when
    /// the kernel needs a WRAM copy it can modify.
    ///
    /// # Errors
    ///
    /// Faults on an out-of-bounds MRAM access.
    pub fn mram_read_with<R>(
        &mut self,
        addr: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, DpuFault> {
        self.charge_dma(len);
        let bytes = self
            .dpu
            .mram
            .view(addr, len)
            .map_err(|e| DpuFault::in_tasklet(self.id, e.to_string()))?;
        Ok(f(&bytes))
    }

    /// Reads little-endian `u32`s from MRAM, page piece by page piece with
    /// no staging copy. Charged exactly like [`mram_read`](Self::mram_read)
    /// of the same bytes.
    ///
    /// # Errors
    ///
    /// Faults on an out-of-bounds MRAM access.
    pub fn mram_read_u32s(&mut self, addr: u64, dst: &mut [u32]) -> Result<(), DpuFault> {
        self.charge_dma(dst.len() * 4);
        self.dpu
            .mram
            .read_pieces(addr, dst.len() * 4, |at, piece| {
                let words = piece_words(at, piece.len());
                for (k, &b) in piece[..words.start].iter().enumerate() {
                    set_le_byte(dst, at + k, b);
                }
                let whole = &mut dst[(at + words.start) / 4..(at + words.end) / 4];
                for (w, b) in whole.iter_mut().zip(piece[words.clone()].chunks_exact(4)) {
                    *w = u32::from_le_bytes(b.try_into().expect("4-byte chunk"));
                }
                for (k, &b) in piece[words.end..].iter().enumerate() {
                    set_le_byte(dst, at + words.end + k, b);
                }
            })
            .map_err(|e| DpuFault::in_tasklet(self.id, e.to_string()))
    }

    /// Writes little-endian `u32`s to MRAM, page piece by page piece with
    /// no staging copy. Charged exactly like [`mram_write`](Self::mram_write)
    /// of the same bytes.
    ///
    /// # Errors
    ///
    /// Faults on an out-of-bounds MRAM access.
    pub fn mram_write_u32s(&mut self, addr: u64, src: &[u32]) -> Result<(), DpuFault> {
        self.charge_dma(src.len() * 4);
        self.dpu
            .mram
            .write_pieces(addr, src.len() * 4, |at, piece| {
                let words = piece_words(at, piece.len());
                for (k, b) in piece[..words.start].iter_mut().enumerate() {
                    *b = le_byte(src, at + k);
                }
                let whole = &src[(at + words.start) / 4..(at + words.end) / 4];
                for (b, w) in piece[words.clone()].chunks_exact_mut(4).zip(whole) {
                    b.copy_from_slice(&w.to_le_bytes());
                }
                for (k, b) in piece[words.end..].iter_mut().enumerate() {
                    *b = le_byte(src, at + words.end + k);
                }
            })
            .map_err(|e| DpuFault::in_tasklet(self.id, e.to_string()))
    }

    /// Accounts a WRAM allocation of `bytes` (`mem_alloc`). The payload
    /// itself lives in an ordinary `Vec` owned by the kernel.
    ///
    /// # Errors
    ///
    /// Faults if WRAM is exhausted.
    pub fn wram_alloc(&mut self, bytes: usize) -> Result<(), DpuFault> {
        self.charge(2);
        self.dpu
            .wram
            .alloc(bytes)
            .map_err(|e| DpuFault::in_tasklet(self.id, e.to_string()))
    }

    /// Reads a `u32` host symbol.
    ///
    /// # Errors
    ///
    /// Faults if the symbol is missing or not 4 bytes.
    pub fn host_u32(&mut self, name: &str) -> Result<u32, DpuFault> {
        self.charge(1);
        let mut b = [0u8; 4];
        self.dpu
            .read_symbol(name, &mut b)
            .map_err(|e| DpuFault::in_tasklet(self.id, e.to_string()))?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a `u64` host symbol.
    ///
    /// # Errors
    ///
    /// Faults if the symbol is missing or not 8 bytes.
    pub fn host_u64(&mut self, name: &str) -> Result<u64, DpuFault> {
        self.charge(1);
        let mut b = [0u8; 8];
        self.dpu
            .read_symbol(name, &mut b)
            .map_err(|e| DpuFault::in_tasklet(self.id, e.to_string()))?;
        Ok(u64::from_le_bytes(b))
    }

    /// Atomically adds to a `u32` host symbol (mutex-protected shared
    /// variable in the UPMEM runtime).
    ///
    /// # Errors
    ///
    /// Faults if the symbol is missing or not 4 bytes.
    pub fn add_host_u32(&mut self, name: &str, v: u32) -> Result<(), DpuFault> {
        let cur = self.host_u32(name)?;
        self.charge(3); // lock, add, unlock
        self.dpu
            .write_symbol(name, &cur.wrapping_add(v).to_le_bytes())
            .map_err(|e| DpuFault::in_tasklet(self.id, e.to_string()))
    }

    /// Writes a `u32` host symbol (last writer wins, like a plain store).
    ///
    /// # Errors
    ///
    /// Faults if the symbol is missing or not 4 bytes.
    pub fn set_host_u32(&mut self, name: &str, v: u32) -> Result<(), DpuFault> {
        self.charge(1);
        self.dpu
            .write_symbol(name, &v.to_le_bytes())
            .map_err(|e| DpuFault::in_tasklet(self.id, e.to_string()))
    }

    /// Writes a `u64` host symbol.
    ///
    /// # Errors
    ///
    /// Faults if the symbol is missing or not 8 bytes.
    pub fn set_host_u64(&mut self, name: &str, v: u64) -> Result<(), DpuFault> {
        self.charge(1);
        self.dpu
            .write_symbol(name, &v.to_le_bytes())
            .map_err(|e| DpuFault::in_tasklet(self.id, e.to_string()))
    }
}

/// The whole words inside a page piece of a `u32` transfer: `at` is the
/// piece's byte offset in the transfer, and the result is the byte range
/// of the piece holding whole words. A word a page boundary splits lies
/// partly before and partly after it, and moves byte by byte.
fn piece_words(at: usize, len: usize) -> Range<usize> {
    let start = ((4 - at % 4) % 4).min(len);
    start..start + (len - start) / 4 * 4
}

/// Byte `at` of the little-endian image of `words`.
fn le_byte(words: &[u32], at: usize) -> u8 {
    words[at / 4].to_le_bytes()[at % 4]
}

/// Sets byte `at` of the little-endian image of `words`.
fn set_le_byte(words: &mut [u32], at: usize, b: u8) {
    let mut bytes = words[at / 4].to_le_bytes();
    bytes[at % 4] = b;
    words[at / 4] = u32::from_le_bytes(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{DpuKernel, KernelImage, SymbolDef};

    struct CountZeroes;
    impl DpuKernel for CountZeroes {
        fn image(&self) -> KernelImage {
            KernelImage::new("count_zeroes", 2048)
                .with_symbol(SymbolDef::u32("zero_count"))
                .with_symbol(SymbolDef::u32("partition_size"))
        }
        fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
            let n = ctx.host_u32("partition_size")? as usize;
            let tasklets = ctx.nr_tasklets();
            ctx.parallel(|t| {
                let per = n / tasklets;
                let base = MRAM_HEAP_BASE + (t.id() * per * 4) as u64;
                t.wram_alloc(per * 4)?;
                let mut buf = vec![0u32; per];
                t.mram_read_u32s(base, &mut buf)?;
                let zeroes = buf.iter().filter(|v| **v == 0).count() as u32;
                t.charge(3 * per as u64);
                t.add_host_u32("zero_count", zeroes)?;
                Ok(())
            })
        }
    }

    fn dpu() -> Dpu {
        Dpu::new(&PimConfig::small())
    }

    #[test]
    fn launch_requires_loaded_program() {
        let mut d = dpu();
        let err = d.launch(&CountZeroes, 8).unwrap_err();
        assert!(matches!(err, SimError::NoProgramLoaded));
    }

    #[test]
    fn tasklet_count_validated() {
        let mut d = dpu();
        d.load(CountZeroes.image()).unwrap();
        assert!(matches!(d.launch(&CountZeroes, 0), Err(SimError::InvalidTasklets(0))));
        assert!(matches!(d.launch(&CountZeroes, 25), Err(SimError::InvalidTasklets(25))));
    }

    #[test]
    fn count_zeroes_end_to_end() {
        let mut d = dpu();
        d.load(CountZeroes.image()).unwrap();
        // 64 words: every 4th word zero -> 16 zeroes.
        let words: Vec<u32> = (0..64u32).map(|i| if i % 4 == 0 { 0 } else { i }).collect();
        let mut raw = Vec::new();
        for w in &words {
            raw.extend_from_slice(&w.to_le_bytes());
        }
        d.mram_mut().write(MRAM_HEAP_BASE, &raw).unwrap();
        d.write_symbol("partition_size", &64u32.to_le_bytes()).unwrap();
        let report = d.launch(&CountZeroes, 16).unwrap();
        assert!(report.cycles > 0);
        assert_eq!(report.phases, 1);
        let mut out = [0u8; 4];
        d.read_symbol("zero_count", &mut out).unwrap();
        assert_eq!(u32::from_le_bytes(out), 16);
        assert!(matches!(d.state(), DpuState::Done));
    }

    #[test]
    fn relaunch_resets_accumulator_symbols_only_on_load() {
        let mut d = dpu();
        d.load(CountZeroes.image()).unwrap();
        d.write_symbol("partition_size", &16u32.to_le_bytes()).unwrap();
        d.launch(&CountZeroes, 4).unwrap();
        let mut out = [0u8; 4];
        d.read_symbol("zero_count", &mut out).unwrap();
        let first = u32::from_le_bytes(out);
        // Launching again accumulates (host did not clear the symbol) —
        // matching real hardware where __host variables persist.
        d.launch(&CountZeroes, 4).unwrap();
        d.read_symbol("zero_count", &mut out).unwrap();
        assert_eq!(u32::from_le_bytes(out), first * 2);
        // Re-loading the image clears symbols.
        d.load(CountZeroes.image()).unwrap();
        d.read_symbol("zero_count", &mut out).unwrap();
        assert_eq!(u32::from_le_bytes(out), 0);
    }

    struct Faulty;
    impl DpuKernel for Faulty {
        fn image(&self) -> KernelImage {
            KernelImage::new("faulty", 64)
        }
        fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
            ctx.parallel(|t| {
                if t.id() == 2 {
                    Err(DpuFault::in_tasklet(t.id(), "synthetic fault"))
                } else {
                    Ok(())
                }
            })
        }
    }

    #[test]
    fn fault_surfaces_and_sets_state() {
        let mut d = dpu();
        d.load(Faulty.image()).unwrap();
        let err = d.launch(&Faulty, 4).unwrap_err();
        assert!(matches!(err, SimError::Fault(_)));
        assert!(matches!(d.state(), DpuState::Fault(_)));
    }

    struct OobRead;
    impl DpuKernel for OobRead {
        fn image(&self) -> KernelImage {
            KernelImage::new("oob", 64)
        }
        fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
            let size = ctx.mram_size();
            ctx.parallel(|t| {
                let mut b = [0u8; 16];
                t.mram_read(size - 8, &mut b)?;
                Ok(())
            })
        }
    }

    #[test]
    fn out_of_bounds_mram_access_faults() {
        let mut d = dpu();
        d.load(OobRead.image()).unwrap();
        assert!(matches!(d.launch(&OobRead, 1), Err(SimError::Fault(_))));
    }

    struct WramHog;
    impl DpuKernel for WramHog {
        fn image(&self) -> KernelImage {
            KernelImage::new("wram_hog", 64)
        }
        fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
            ctx.parallel(|t| t.wram_alloc(40 << 10))
        }
    }

    #[test]
    fn wram_exhaustion_faults_second_tasklet() {
        let mut d = dpu();
        d.load(WramHog.image()).unwrap();
        // 2 tasklets x 40 KiB > 64 KiB
        assert!(matches!(d.launch(&WramHog, 2), Err(SimError::Fault(_))));
        // 1 tasklet fits.
        d.load(WramHog.image()).unwrap();
        assert!(d.launch(&WramHog, 1).is_ok());
    }

    struct TenInstr;
    impl DpuKernel for TenInstr {
        fn image(&self) -> KernelImage {
            KernelImage::new("ten", 64)
        }
        fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
            ctx.parallel(|t| {
                t.charge(100);
                Ok(())
            })
        }
    }

    #[test]
    fn pipeline_law_below_and_above_11_tasklets() {
        // With < 11 tasklets, cycles = 11 * per-tasklet instructions
        // (pipeline underfilled); with >= 11, cycles = total instructions.
        for (tasklets, expect) in [(1usize, 1100u64), (4, 1100), (11, 1100), (16, 1600)] {
            let mut d = dpu();
            d.load(TenInstr.image()).unwrap();
            let r = d.launch(&TenInstr, tasklets).unwrap();
            assert_eq!(r.cycles, expect, "tasklets={tasklets}");
        }
    }

    #[test]
    fn iram_overflow_rejected() {
        let mut d = dpu();
        let img = KernelImage::new("big", 25 << 10);
        assert!(matches!(d.load(img), Err(SimError::IramOverflow { .. })));
    }

    #[test]
    fn symbol_size_mismatch_rejected() {
        let mut d = dpu();
        d.load(CountZeroes.image()).unwrap();
        assert!(matches!(
            d.write_symbol("zero_count", &[0u8; 8]),
            Err(SimError::SymbolSizeMismatch { .. })
        ));
        let mut small = [0u8; 2];
        assert!(d.read_symbol("zero_count", &mut small).is_err());
        assert!(matches!(d.write_symbol("nope", &[0; 4]), Err(SimError::UnknownSymbol(_))));
    }

    #[test]
    fn reset_content_clears_mram_and_symbols() {
        let mut d = dpu();
        d.load(CountZeroes.image()).unwrap();
        d.mram_mut().write(0, &[9; 32]).unwrap();
        d.write_symbol("partition_size", &7u32.to_le_bytes()).unwrap();
        d.reset_content();
        let mut buf = [1u8; 32];
        d.mram().read(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 32]);
        let mut s = [9u8; 4];
        d.read_symbol("partition_size", &mut s).unwrap();
        assert_eq!(u32::from_le_bytes(s), 0);
    }

    mod dma_equivalence {
        use std::sync::Mutex;

        use proptest::prelude::*;

        use super::*;

        const CAP: u64 = 64 << 10;

        /// The helper under test.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Dma {
            ReadWith,
            ReadU32s,
            WriteU32s,
        }

        /// One DMA of `len` bytes at `addr`, either through the in-place
        /// helper or through a WRAM copy moved by `mram_read` /
        /// `mram_write` (the copy path). `seen` keeps what the kernel read.
        struct Probe {
            op: Dma,
            in_place: bool,
            addr: u64,
            len: usize,
            seen: Mutex<Vec<u8>>,
        }

        impl DpuKernel for Probe {
            fn image(&self) -> KernelImage {
                KernelImage::new("dma_probe", 64)
            }

            fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
                let (addr, len) = (self.addr, self.len);
                let words: Vec<u32> =
                    (0..len as u32 / 4).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
                let encode = |w: &[u32]| w.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<_>>();
                let mut seen = Vec::new();
                ctx.single(|t| {
                    match (self.op, self.in_place) {
                        (Dma::ReadWith, true) => {
                            seen = t.mram_read_with(addr, len, <[u8]>::to_vec)?;
                        }
                        (Dma::ReadWith, false) => {
                            seen = vec![0; len];
                            t.mram_read(addr, &mut seen)?;
                        }
                        (Dma::ReadU32s, true) => {
                            let mut w = vec![0u32; len / 4];
                            t.mram_read_u32s(addr, &mut w)?;
                            seen = encode(&w);
                        }
                        (Dma::ReadU32s, false) => {
                            seen = vec![0; len / 4 * 4];
                            t.mram_read(addr, &mut seen)?;
                        }
                        (Dma::WriteU32s, true) => t.mram_write_u32s(addr, &words)?,
                        (Dma::WriteU32s, false) => t.mram_write(addr, &encode(&words))?,
                    }
                    Ok(())
                })?;
                *self.seen.lock().unwrap() = seen;
                Ok(())
            }
        }

        /// What one probe shows: its launch outcome (`cycles` and
        /// `instructions`, or the fault text), the bytes it read, and the
        /// bank's resident image afterwards.
        type Seen = (Result<(u64, u64), String>, Vec<u8>, Vec<u8>);

        fn observe(op: Dma, in_place: bool, high_water: usize, addr: u64, len: usize) -> Seen {
            let mut d = Dpu::new(&PimConfig { mram_size: CAP, ..PimConfig::small() });
            let image: Vec<u8> = (0..high_water).map(|i| (i * 7 + 3) as u8).collect();
            d.mram_mut().write(0, &image).unwrap();
            let probe = Probe { op, in_place, addr, len, seen: Mutex::new(Vec::new()) };
            d.load(probe.image()).unwrap();
            let outcome =
                d.launch(&probe, 1).map(|r| (r.cycles, r.instructions)).map_err(|e| e.to_string());
            let bank = d.mram().view(0, d.mram().resident_bytes()).unwrap().into_owned();
            (outcome, probe.seen.into_inner().unwrap(), bank)
        }

        proptest! {
            /// Reading in place and encoding straight into the bank match
            /// the copy path on every byte, every charged cycle and every
            /// fault, including ranges that straddle the high-water mark
            /// and ranges that leave the bank.
            #[test]
            fn in_place_helpers_match_the_copy_path(
                high_water in 0usize..CAP as usize + 1,
                near in any::<bool>(),
                shift in 0u64..8192,
                len in 0usize..6000,
            ) {
                // Half the ranges start just below the high-water mark, the
                // rest anywhere up to 8 KiB past the end of the bank.
                let addr = if near {
                    (high_water as u64).saturating_sub(shift % 4096)
                } else {
                    shift * ((CAP + (8 << 10)) / 8192)
                };
                for op in [Dma::ReadWith, Dma::ReadU32s, Dma::WriteU32s] {
                    let copied = observe(op, false, high_water, addr, len);
                    prop_assert_eq!((op, observe(op, true, high_water, addr, len)), (op, copied));
                }
            }
        }
    }
}
