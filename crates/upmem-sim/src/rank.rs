//! A rank: the unit vPIM allocates to virtual machines.
//!
//! A rank bundles 64 DPUs (8 chips × 8), a control interface, and the
//! DDR-visible memory window through which hosts move data. Rank-level
//! transfers are the operations vPIM virtualizes (`write-to-rank`,
//! `read-from-rank`, CI ops), each moving at most 4 GB (§3.1).

use std::sync::Arc;

use parking_lot::Mutex;
use simkit::{FaultPlane, InjectCell};

use crate::ci::{CiCommand, CiCounters, CiStatus};
use crate::dpu::{Dpu, DpuState, LaunchReport};
use crate::error::{DpuFault, SimError};
use crate::geometry::{PimConfig, MAX_RANK_XFER};
use crate::interleave;
use crate::kernel::{KernelImage, KernelRegistry};

/// Fault point for MRAM DMA ([`Rank::write_dpu`], [`Rank::read_dpu`] and
/// friends), keyed by the target DPU index so concurrent per-DPU workers
/// observe a deterministic schedule regardless of interleaving.
pub const MRAM_DMA_POINT: &str = "sim.mram.dma";

/// Fault point for control-interface operations (symbol transfers and
/// status polls). Counter-based: fires on the nth CI op this rank sees.
pub const CI_OP_POINT: &str = "sim.ci.op";

/// Fault point for program launches: firing makes the launch report a
/// [`DpuFault`] before any DPU boots, modeling a boot-time CI fault.
pub const LAUNCH_FAULT_POINT: &str = "sim.launch.fault";

/// A captured rank state: one [`crate::dpu::DpuSnapshot`] per DPU.
#[derive(Debug, Clone)]
pub struct RankSnapshot {
    dpus: Vec<crate::dpu::DpuSnapshot>,
}

impl RankSnapshot {
    /// Total resident MRAM bytes captured across the rank.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.dpus.iter().map(crate::dpu::DpuSnapshot::mram_bytes).sum()
    }

    /// Number of per-DPU snapshots (a restore target must match).
    #[must_use]
    pub fn dpu_count(&self) -> usize {
        self.dpus.len()
    }

    /// Bytes that differ from `base`, summed per DPU — the dirty set a
    /// pre-copy migration re-sends after its warm round. DPUs present in
    /// only one snapshot (geometry mismatch) count their full residency.
    #[must_use]
    pub fn diff_bytes(&self, base: &RankSnapshot) -> u64 {
        let common = self.dpus.len().min(base.dpus.len());
        let mut dirty: u64 = self.dpus[..common]
            .iter()
            .zip(&base.dpus[..common])
            .map(|(cur, old)| cur.diff_bytes(old))
            .sum();
        dirty += self.dpus[common..].iter().map(|d| d.mram_bytes() as u64).sum::<u64>();
        dirty += base.dpus[common..].iter().map(|d| d.mram_bytes() as u64).sum::<u64>();
        dirty
    }
}

/// One UPMEM rank.
///
/// # Lock sharding
///
/// DPUs are individually locked so backend worker threads can operate on
/// different DPUs of the same rank concurrently (vPIM's DPU operation
/// pool, §4.2). There is deliberately **no rank-wide lock**: the
/// interleave transform runs *outside* the DPU mutex, so a DPU's critical
/// section is only the MRAM memcpy itself.
/// Concurrent operations on the *same* DPU serialize on its mutex;
/// operations on distinct DPUs — even in the same chip — proceed in
/// parallel. CI counters are atomics and need no lock.
#[derive(Debug)]
pub struct Rank {
    id: usize,
    dpus: Vec<Mutex<Dpu>>,
    ci: CiCounters,
    config: PimConfig,
    inject: InjectCell,
}

impl Rank {
    /// Creates rank `id` with the geometry from `config`.
    #[must_use]
    pub fn new(id: usize, config: &PimConfig) -> Self {
        let n = config.dpus_in_rank(id);
        Rank {
            id,
            dpus: (0..n).map(|_| Mutex::new(Dpu::new(config))).collect(),
            ci: CiCounters::new(),
            config: config.clone(),
            inject: InjectCell::new(),
        }
    }

    /// Installs the fault-injection plane consulted by MRAM DMA
    /// ([`MRAM_DMA_POINT`]), CI ops ([`CI_OP_POINT`]) and launches
    /// ([`LAUNCH_FAULT_POINT`]).
    pub fn install_fault_plane(&self, plane: Arc<FaultPlane>) {
        self.inject.install(plane);
    }

    fn injected_dma(&self, dpu: usize) -> Result<(), SimError> {
        if self.inject.hit_keyed(MRAM_DMA_POINT, dpu as u64) {
            Err(SimError::Injected { point: MRAM_DMA_POINT })
        } else {
            Ok(())
        }
    }

    fn injected_ci(&self) -> Result<(), SimError> {
        if self.inject.hit(CI_OP_POINT) {
            Err(SimError::Injected { point: CI_OP_POINT })
        } else {
            Ok(())
        }
    }

    /// This rank's index in the machine.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of functional DPUs.
    #[must_use]
    pub fn dpu_count(&self) -> usize {
        self.dpus.len()
    }

    /// MRAM capacity per DPU.
    #[must_use]
    pub fn mram_size(&self) -> u64 {
        self.config.mram_size
    }

    /// Whether transfers really execute the interleave transform (see
    /// [`PimConfig::verify_interleave`]).
    #[must_use]
    pub fn verify_interleave(&self) -> bool {
        self.config.verify_interleave
    }

    /// DPU clock frequency in MHz.
    #[must_use]
    pub fn freq_mhz(&self) -> u64 {
        self.config.freq_mhz
    }

    /// Control-interface counters.
    #[must_use]
    pub fn ci(&self) -> &CiCounters {
        &self.ci
    }

    fn check_dpu(&self, dpu: usize) -> Result<(), SimError> {
        if dpu < self.dpus.len() {
            Ok(())
        } else {
            Err(SimError::InvalidDpu(dpu))
        }
    }

    fn check_len(len: u64) -> Result<(), SimError> {
        if len > MAX_RANK_XFER {
            Err(SimError::XferTooLarge(len))
        } else {
            Ok(())
        }
    }

    /// Writes host bytes into one DPU's MRAM at `offset` — the data half of
    /// a `write-to-rank` on the native path. When the config enables
    /// interleave verification the buffer really goes through the
    /// interleave/deinterleave pair the host driver and DDR bus would apply.
    ///
    /// # Errors
    ///
    /// Invalid DPU index, transfer larger than 4 GB, or an out-of-bounds
    /// MRAM range.
    pub fn write_dpu(&self, dpu: usize, offset: u64, data: &[u8]) -> Result<(), SimError> {
        if !self.config.verify_interleave {
            return self.write_mram(dpu, offset, data);
        }
        // Borrowed input, so the pair runs on one staging copy.
        let mut staged = data.to_vec();
        interleave::interleave_inplace(&mut staged);
        interleave::deinterleave_inplace(&mut staged);
        self.write_mram(dpu, offset, &staged)
    }

    /// Reads one DPU's MRAM into host bytes — the data half of a
    /// `read-from-rank` on the native path. Allocation-free: the verify
    /// transform runs in place on `dst` after the MRAM copy.
    ///
    /// # Errors
    ///
    /// Invalid DPU index, transfer larger than 4 GB, or an out-of-bounds
    /// MRAM range.
    pub fn read_dpu(&self, dpu: usize, offset: u64, dst: &mut [u8]) -> Result<(), SimError> {
        self.read_mram(dpu, offset, dst)?;
        if self.config.verify_interleave {
            // Transform outside the DPU lock: the critical section is only
            // the MRAM copy itself.
            interleave::interleave_inplace(dst);
            interleave::deinterleave_inplace(dst);
        }
        Ok(())
    }

    /// The DMA half of [`write_dpu`](Self::write_dpu) with no interleave
    /// pair: for a caller that runs the pair on its own data path (the vPIM
    /// backend runs its configured `DataPath`'s pair), so each byte is
    /// interleaved once. Consults [`MRAM_DMA_POINT`] like `write_dpu`.
    ///
    /// # Errors
    ///
    /// Invalid DPU index, transfer larger than 4 GB, or an out-of-bounds
    /// MRAM range.
    pub fn write_mram(&self, dpu: usize, offset: u64, data: &[u8]) -> Result<(), SimError> {
        self.check_dpu(dpu)?;
        Self::check_len(data.len() as u64)?;
        self.injected_dma(dpu)?;
        self.dpus[dpu].lock().mram_mut().write(offset, data)
    }

    /// The DMA half of [`read_dpu`](Self::read_dpu) with no interleave
    /// pair (see [`write_mram`](Self::write_mram)).
    ///
    /// # Errors
    ///
    /// Invalid DPU index, transfer larger than 4 GB, or an out-of-bounds
    /// MRAM range.
    pub fn read_mram(&self, dpu: usize, offset: u64, dst: &mut [u8]) -> Result<(), SimError> {
        self.check_dpu(dpu)?;
        Self::check_len(dst.len() as u64)?;
        self.injected_dma(dpu)?;
        self.dpus[dpu].lock().mram().read(offset, dst)
    }

    /// Makes MRAM page `index` of DPU `dst` the same page as DPU `src`'s,
    /// without copying its bytes: `dst` then reads exactly as if
    /// [`write_mram`](Self::write_mram) had copied that page over, and the
    /// first of the two to write the page gets a private copy. Consults
    /// [`MRAM_DMA_POINT`] for `dst` once, as that one-page copy would. The
    /// two DPU locks are taken one after the other, never together.
    ///
    /// # Errors
    ///
    /// Invalid DPU index, or a page past the end of the bank.
    pub fn share_mram_page(&self, src: usize, dst: usize, index: usize) -> Result<(), SimError> {
        self.check_dpu(src)?;
        self.check_dpu(dst)?;
        self.injected_dma(dst)?;
        let page = self.dpus[src].lock().mram().page(index);
        self.dpus[dst].lock().mram_mut().install_page(index, page)
    }

    /// Loads a program image onto the given DPUs (all functional DPUs if
    /// `dpus` is `None`), like `dpu_load` broadcasting an ELF to the rank.
    ///
    /// # Errors
    ///
    /// Invalid DPU index or an image exceeding IRAM capacity.
    pub fn load_program(&self, dpus: Option<&[usize]>, image: &KernelImage) -> Result<(), SimError> {
        let ids: Vec<usize> = match dpus {
            Some(ids) => ids.to_vec(),
            None => (0..self.dpus.len()).collect(),
        };
        for &d in &ids {
            self.check_dpu(d)?;
        }
        for &d in &ids {
            self.dpus[d].lock().load(image.clone())?;
        }
        Ok(())
    }

    /// Writes a host symbol on one DPU.
    ///
    /// # Errors
    ///
    /// Invalid DPU index, unknown symbol, or size mismatch.
    pub fn write_symbol(&self, dpu: usize, name: &str, bytes: &[u8]) -> Result<(), SimError> {
        self.check_dpu(dpu)?;
        self.injected_ci()?;
        self.ci.record(CiCommand::Poll); // symbol transfers ride the CI
        self.dpus[dpu].lock().write_symbol(name, bytes)
    }

    /// Reads a host symbol from one DPU.
    ///
    /// # Errors
    ///
    /// Invalid DPU index, unknown symbol, or size mismatch.
    pub fn read_symbol(&self, dpu: usize, name: &str, bytes: &mut [u8]) -> Result<(), SimError> {
        self.check_dpu(dpu)?;
        self.injected_ci()?;
        self.ci.record(CiCommand::Poll);
        self.dpus[dpu].lock().read_symbol(name, bytes)
    }

    /// Boots the loaded program on the given DPUs with `nr_tasklets`
    /// tasklets, running each to completion, and returns per-DPU launch
    /// reports. Execution is synchronous; callers model launch latency from
    /// the reported cycle counts.
    ///
    /// # Errors
    ///
    /// Any per-DPU launch error (missing program, bad tasklet count, fault).
    /// On fault the DPU is left in [`DpuState::Fault`] for CI inspection.
    pub fn launch(
        &self,
        dpus: Option<&[usize]>,
        nr_tasklets: usize,
        registry: &KernelRegistry,
    ) -> Result<Vec<(usize, LaunchReport)>, SimError> {
        let ids: Vec<usize> = match dpus {
            Some(ids) => ids.to_vec(),
            None => (0..self.dpus.len()).collect(),
        };
        for &d in &ids {
            self.check_dpu(d)?;
        }
        if self.inject.hit(LAUNCH_FAULT_POINT) {
            return Err(SimError::Fault(DpuFault::new(
                "injected launch fault (sim.launch.fault)",
            )));
        }
        let mut reports = Vec::with_capacity(ids.len());
        for &d in &ids {
            self.ci.record(CiCommand::Boot {
                nr_tasklets: nr_tasklets.min(u8::MAX as usize) as u8,
            });
            let mut dpu = self.dpus[d].lock();
            let name = dpu
                .loaded_image()
                .ok_or(SimError::NoProgramLoaded)?
                .name
                .clone();
            let kernel = registry.get(&name)?;
            let report = dpu.launch(kernel.as_ref(), nr_tasklets)?;
            reports.push((d, report));
        }
        Ok(reports)
    }

    /// Reads one DPU's run status through the CI.
    ///
    /// # Errors
    ///
    /// Invalid DPU index.
    pub fn poll_status(&self, dpu: usize) -> Result<CiStatus, SimError> {
        self.check_dpu(dpu)?;
        self.injected_ci()?;
        self.ci.record(CiCommand::Poll);
        Ok(match self.dpus[dpu].lock().state() {
            DpuState::Idle => CiStatus::Idle,
            DpuState::Running => CiStatus::Running,
            DpuState::Done => CiStatus::Done,
            DpuState::Fault(_) => CiStatus::Fault,
        })
    }

    /// Records `n` extra CI poll operations (the SDK's polling loop during
    /// a synchronous launch).
    pub fn record_polls(&self, n: u64) {
        self.ci.record_polls(n);
    }

    /// Captures the whole rank's persistent state (checkpoint half of the
    /// paper's future-work pause/resume consolidation, §7).
    #[must_use]
    pub fn snapshot(&self) -> RankSnapshot {
        RankSnapshot {
            dpus: self.dpus.iter().map(|d| d.lock().snapshot()).collect(),
        }
    }

    /// [`snapshot`](Self::snapshot), refusing to capture a non-quiescent
    /// rank — the safe-point hook used by checkpointing schedulers.
    ///
    /// # Errors
    ///
    /// [`SimError::NotQuiescent`] if any DPU is in the Running state.
    pub fn snapshot_quiescent(&self) -> Result<RankSnapshot, SimError> {
        let running = self
            .dpus
            .iter()
            .filter(|d| matches!(d.lock().state(), DpuState::Running))
            .count();
        if running > 0 {
            return Err(SimError::NotQuiescent { running });
        }
        Ok(self.snapshot())
    }

    /// Restores a rank snapshot taken on a rank of the same geometry.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidDpu`] on a DPU-count mismatch; MRAM bound errors
    /// if the snapshot came from a larger bank.
    pub fn restore(&self, snap: &RankSnapshot) -> Result<(), SimError> {
        if snap.dpus.len() != self.dpus.len() {
            return Err(SimError::InvalidDpu(snap.dpus.len()));
        }
        for (dpu, ds) in self.dpus.iter().zip(&snap.dpus) {
            dpu.lock().restore(ds)?;
        }
        Ok(())
    }

    /// Erases all rank content (MRAM, WRAM accounting, symbols) — the
    /// manager's reset when a rank transitions NANA → NAAV (§3.5).
    pub fn reset_content(&self) {
        for d in &self.dpus {
            d.lock().reset_content();
        }
    }

    /// Physically resident MRAM bytes across the rank (diagnostics).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.dpus.iter().map(|d| d.lock().mram().resident_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpu::DpuContext;
    use crate::error::DpuFault;
    use crate::kernel::{DpuKernel, SymbolDef};
    use crate::mram::MRAM_PAGE;
    use std::sync::Arc;

    fn rank() -> Rank {
        Rank::new(0, &PimConfig::small())
    }

    #[test]
    fn write_read_roundtrip_through_interleave() {
        let r = rank();
        let data: Vec<u8> = (0..=255).collect();
        r.write_dpu(3, 128, &data).unwrap();
        let mut back = vec![0u8; 256];
        r.read_dpu(3, 128, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn a_shared_page_reads_like_a_copy_and_diverges_on_write() {
        let r = rank();
        let page: Vec<u8> = (0..MRAM_PAGE).map(|i| i as u8).collect();
        r.write_mram(0, MRAM_PAGE as u64, &page).unwrap();
        r.share_mram_page(0, 5, 1).unwrap();
        assert_eq!(r.resident_bytes(), 4 * MRAM_PAGE);
        let mut back = vec![0u8; MRAM_PAGE];
        r.read_mram(5, MRAM_PAGE as u64, &mut back).unwrap();
        assert_eq!(back, page);
        // A write to either side stays on that side.
        r.write_mram(5, MRAM_PAGE as u64, &[0xEE; 16]).unwrap();
        r.read_mram(0, MRAM_PAGE as u64, &mut back).unwrap();
        assert_eq!(back, page);
        let cap = r.mram_size() as usize / MRAM_PAGE;
        assert!(matches!(r.share_mram_page(0, 5, cap), Err(SimError::MramOutOfBounds { .. })));
        assert!(matches!(r.share_mram_page(0, 99, 1), Err(SimError::InvalidDpu(99))));
    }

    #[test]
    fn dpu_index_validated() {
        let r = rank();
        assert!(matches!(r.write_dpu(8, 0, &[0]), Err(SimError::InvalidDpu(8))));
        let mut b = [0u8];
        assert!(matches!(r.read_dpu(99, 0, &mut b), Err(SimError::InvalidDpu(99))));
    }

    struct AddOne;
    impl DpuKernel for AddOne {
        fn image(&self) -> KernelImage {
            KernelImage::new("add_one", 512).with_symbol(SymbolDef::u32("n"))
        }
        fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
            let n = ctx.host_u32("n")? as usize;
            let tasklets = ctx.nr_tasklets();
            ctx.parallel(|t| {
                let per = n.div_ceil(tasklets);
                let lo = t.id() * per;
                let hi = ((t.id() + 1) * per).min(n);
                if lo >= hi {
                    return Ok(());
                }
                let mut buf = vec![0u32; hi - lo];
                t.mram_read_u32s((lo * 4) as u64, &mut buf)?;
                for v in &mut buf {
                    *v = v.wrapping_add(1);
                }
                t.charge(2 * (hi - lo) as u64);
                t.mram_write_u32s((lo * 4) as u64, &buf)?;
                Ok(())
            })
        }
    }

    #[test]
    fn launch_across_dpus_transforms_data() {
        let r = rank();
        let registry = KernelRegistry::new();
        registry.register(Arc::new(AddOne));
        r.load_program(None, &AddOne.image()).unwrap();

        let n = 64usize;
        for d in 0..r.dpu_count() {
            let words: Vec<u32> = (0..n as u32).map(|i| i + d as u32).collect();
            let mut raw = Vec::new();
            for w in &words {
                raw.extend_from_slice(&w.to_le_bytes());
            }
            r.write_dpu(d, 0, &raw).unwrap();
            r.write_symbol(d, "n", &(n as u32).to_le_bytes()).unwrap();
        }

        let reports = r.launch(None, 12, &registry).unwrap();
        assert_eq!(reports.len(), r.dpu_count());
        assert!(reports.iter().all(|(_, rep)| rep.cycles > 0));

        for d in 0..r.dpu_count() {
            let mut raw = vec![0u8; n * 4];
            r.read_dpu(d, 0, &mut raw).unwrap();
            let first = u32::from_le_bytes(raw[0..4].try_into().unwrap());
            assert_eq!(first, d as u32 + 1);
        }
        assert_eq!(r.poll_status(0).unwrap(), CiStatus::Done);
    }

    #[test]
    fn ci_ops_counted() {
        let r = rank();
        let before = r.ci().total();
        let _ = r.poll_status(0);
        let _ = r.poll_status(0);
        r.record_polls(10);
        assert_eq!(r.ci().total(), before + 12);
    }

    #[test]
    fn launch_without_program_fails() {
        let r = rank();
        let registry = KernelRegistry::new();
        assert!(matches!(
            r.launch(Some(&[0]), 8, &registry),
            Err(SimError::NoProgramLoaded)
        ));
    }

    #[test]
    fn reset_content_erases_every_dpu() {
        let r = rank();
        for d in 0..r.dpu_count() {
            r.write_dpu(d, 0, &[0xFF; 64]).unwrap();
        }
        assert!(r.resident_bytes() > 0);
        r.reset_content();
        assert_eq!(r.resident_bytes(), 0);
        let mut buf = [1u8; 64];
        r.read_dpu(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn distinct_dpus_accept_concurrent_operations() {
        // Two threads each hold one DPU's lock and rendezvous on a barrier
        // while holding it — this deadlocks unless locking is per-DPU.
        use std::sync::Barrier;
        let r = Arc::new(rank());
        let barrier = Arc::new(Barrier::new(2));
        let threads: Vec<_> = (0..2usize)
            .map(|d| {
                let r = Arc::clone(&r);
                let b = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut dpu = r.dpus[d].lock();
                    b.wait();
                    dpu.mram_mut().write(0, &[d as u8; 32]).unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for d in 0..2usize {
            let mut buf = [0u8; 32];
            r.read_dpu(d, 0, &mut buf).unwrap();
            assert_eq!(buf, [d as u8; 32]);
        }
    }

    #[test]
    fn concurrent_writers_to_distinct_dpus_keep_data_intact() {
        let r = Arc::new(rank());
        let threads: Vec<_> = (0..r.dpu_count())
            .map(|d| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for round in 0..16u8 {
                        let data = vec![d as u8 ^ round; 512];
                        r.write_dpu(d, u64::from(round) * 512, &data).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for d in 0..r.dpu_count() {
            for round in 0..16u8 {
                let mut back = vec![0u8; 512];
                r.read_dpu(d, u64::from(round) * 512, &mut back).unwrap();
                assert_eq!(back, vec![d as u8 ^ round; 512], "dpu {d} round {round}");
            }
        }
    }

    #[test]
    fn injected_faults_are_typed_and_recoverable() {
        use simkit::{FaultPlan, FaultPlane};
        let r = rank();
        let plane = Arc::new(FaultPlane::new(3));
        r.install_fault_plane(Arc::clone(&plane));

        // MRAM DMA: keyed by DPU and pure in the key — under Nth(3) the
        // key-2 DPU faults (deterministically, retries included) while its
        // neighbours stay clean.
        plane.arm(MRAM_DMA_POINT, FaultPlan::Nth(3));
        assert!(matches!(
            r.write_dpu(2, 0, &[1u8; 16]),
            Err(SimError::Injected { point: MRAM_DMA_POINT })
        ));
        r.write_dpu(3, 0, &[2u8; 16]).unwrap();
        assert!(r.write_dpu(2, 0, &[1u8; 16]).is_err());
        // Disarming restores passthrough; no state was torn.
        plane.disarm(MRAM_DMA_POINT);
        r.write_dpu(2, 0, &[1u8; 16]).unwrap();
        let mut back = [0u8; 16];
        r.read_dpu(2, 0, &mut back).unwrap();
        assert_eq!(back, [1u8; 16]);

        // CI ops: counter-based; the op is not counted when it faults.
        plane.arm(CI_OP_POINT, FaultPlan::Nth(1));
        let before = r.ci().total();
        assert!(matches!(
            r.poll_status(0),
            Err(SimError::Injected { point: CI_OP_POINT })
        ));
        assert_eq!(r.ci().total(), before);
        assert!(r.poll_status(0).is_ok());
        plane.disarm(CI_OP_POINT);

        // Launch: fires as a typed DPU fault before any DPU boots.
        plane.arm(LAUNCH_FAULT_POINT, FaultPlan::Nth(1));
        let registry = KernelRegistry::new();
        registry.register(Arc::new(AddOne));
        r.load_program(None, &AddOne.image()).unwrap();
        for d in 0..r.dpu_count() {
            r.write_symbol(d, "n", &0u32.to_le_bytes()).unwrap();
        }
        assert!(matches!(r.launch(None, 8, &registry), Err(SimError::Fault(_))));
        // The rank stays usable: the retry launches cleanly.
        r.launch(None, 8, &registry).unwrap();
    }

    #[test]
    fn oversized_transfer_rejected() {
        // Use a config whose MRAM is big enough logically but the transfer
        // limit triggers first: fake a >4GB length via empty slice is not
        // possible, so check the guard directly through read path length.
        let r = rank();
        // 4GB+1 cannot be allocated; the guard is still exercised by
        // checking the helper on the boundary value.
        assert!(Rank::check_len(MAX_RANK_XFER).is_ok());
        assert!(matches!(
            Rank::check_len(MAX_RANK_XFER + 1),
            Err(SimError::XferTooLarge(_))
        ));
        drop(r);
    }
}
