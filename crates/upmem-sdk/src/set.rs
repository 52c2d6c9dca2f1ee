//! The DPU set: the SDK's central object (`struct dpu_set_t`).

use std::sync::Arc;

use simkit::{
    AppSegment, CostModel, DriverSegment, Timeline, VirtualNanos,
};
use upmem_driver::UpmemDriver;
use upmem_sim::ci::CiStatus;
use vpim::frontend::Frontend;
use vpim::OpReport;

use crate::channel::RankChannel;
use crate::error::SdkError;
use crate::xfer::XferBuf;

/// A set of allocated DPUs spanning one or more ranks.
///
/// Mirrors the UPMEM SDK workflow: allocate, load a program, distribute
/// input (`push_to_heap` = parallel `dpu_push_xfer`, `copy_to_heap` =
/// serial `dpu_copy_to`), launch, retrieve results, drop (free).
///
/// The set owns a [`Timeline`] charged by every operation; applications
/// bracket their phases with [`set_segment`](DpuSet::set_segment) to get
/// the paper's CPU-DPU / DPU / Inter-DPU / DPU-CPU breakdown.
#[derive(Debug)]
pub struct DpuSet {
    channels: Vec<RankChannel>,
    /// DPUs used within each channel.
    per_channel: Vec<Vec<u32>>,
    /// Global DPU index → (channel, dpu-in-rank).
    members: Vec<(usize, u32)>,
    cm: CostModel,
    timeline: Timeline,
    segment: AppSegment,
    /// Whether multi-rank operations overlap (native threads / vPIM's
    /// parallel handling) or serialize (vPIM-Seq).
    parallel_ranks: bool,
    /// Per-rank completion offsets of the most recent multi-rank operation
    /// (Fig. 16).
    last_per_rank: Vec<(usize, VirtualNanos)>,
}

impl DpuSet {
    /// Allocates `nr_dpus` DPUs natively (performance mode, the paper's
    /// baseline). Ranks are claimed through the driver; native rank
    /// operations overlap across ranks (the SDK uses per-rank threads).
    ///
    /// # Errors
    ///
    /// [`SdkError::NotEnoughDpus`] when the machine cannot satisfy the
    /// request; driver claim conflicts.
    pub fn alloc_native(
        driver: &Arc<UpmemDriver>,
        nr_dpus: usize,
        cm: CostModel,
    ) -> Result<DpuSet, SdkError> {
        let mut channels = Vec::new();
        let mut remaining = nr_dpus;
        for rank in 0..driver.rank_count() {
            if remaining == 0 {
                break;
            }
            match driver.open_perf(rank, "sdk-native") {
                Ok(p) => {
                    let take = remaining.min(p.dpu_count());
                    remaining -= take;
                    channels.push((RankChannel::Native(p), take));
                }
                Err(upmem_driver::DriverError::RankInUse { .. }) => continue,
                Err(e) => return Err(e.into()),
            }
        }
        if remaining > 0 {
            return Err(SdkError::NotEnoughDpus {
                requested: nr_dpus,
                available: nr_dpus - remaining,
            });
        }
        Ok(Self::assemble(channels, cm, true))
    }

    /// Allocates `nr_dpus` DPUs inside a VM, one vUPMEM frontend per rank.
    /// How a multi-rank operation's per-rank times compose — overlapped, or
    /// back to back as in `vPIM-Seq` — is the model's `parallel_handling`
    /// flag, read here and nowhere else. It never depends on how the host
    /// ran the requests.
    ///
    /// On an oversubscribed host (`sched.oversubscription`) the physical
    /// rank behind a device may be lent to another tenant between this
    /// call and later operations. That is transparent here: each
    /// operation relinks through the scheduler at its next safe point and
    /// the rank's contents are restored bit-identically from the parked
    /// checkpoint, so SDK code is written exactly as on a dedicated host —
    /// operations may just block while the tenant waits in the admission
    /// queue.
    ///
    /// # Errors
    ///
    /// [`SdkError::NotEnoughDpus`] when the VM's devices cannot cover the
    /// request.
    pub fn alloc_vm(
        frontends: &[Arc<Frontend>],
        nr_dpus: usize,
        cm: CostModel,
    ) -> Result<DpuSet, SdkError> {
        let mut channels = Vec::new();
        let mut remaining = nr_dpus;
        let mut parallel = true;
        for f in frontends {
            if remaining == 0 {
                break;
            }
            parallel = f.config().parallel_handling;
            let take = remaining.min(f.nr_dpus() as usize);
            if take == 0 {
                continue;
            }
            remaining -= take;
            channels.push((RankChannel::Virt(f.clone()), take));
        }
        if remaining > 0 {
            return Err(SdkError::NotEnoughDpus {
                requested: nr_dpus,
                available: nr_dpus - remaining,
            });
        }
        Ok(Self::assemble(channels, cm, parallel))
    }

    fn assemble(
        channels: Vec<(RankChannel, usize)>,
        cm: CostModel,
        parallel_ranks: bool,
    ) -> DpuSet {
        let mut per_channel = Vec::with_capacity(channels.len());
        let mut members = Vec::new();
        for (ci, (_, take)) in channels.iter().enumerate() {
            let dpus: Vec<u32> = (0..*take as u32).collect();
            for d in &dpus {
                members.push((ci, *d));
            }
            per_channel.push(dpus);
        }
        DpuSet {
            channels: channels.into_iter().map(|(c, _)| c).collect(),
            per_channel,
            members,
            cm,
            timeline: Timeline::new(),
            segment: AppSegment::CpuToDpu,
            parallel_ranks,
            last_per_rank: Vec::new(),
        }
    }

    /// Number of DPUs in the set.
    #[must_use]
    pub fn nr_dpus(&self) -> usize {
        self.members.len()
    }

    /// Number of ranks the set spans.
    #[must_use]
    pub fn nr_ranks(&self) -> usize {
        self.channels.len()
    }

    /// MRAM bytes per DPU.
    #[must_use]
    pub fn mram_size(&self) -> u64 {
        self.channels.first().map_or(0, RankChannel::mram_size)
    }

    /// The accumulated timeline.
    #[must_use]
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Takes the timeline, leaving an empty one (per-experiment resets).
    pub fn take_timeline(&mut self) -> Timeline {
        std::mem::take(&mut self.timeline)
    }

    /// Sets the application segment subsequent operations charge into.
    pub fn set_segment(&mut self, segment: AppSegment) {
        self.segment = segment;
    }

    /// Per-rank completion offsets of the most recent multi-rank operation
    /// (Fig. 16's per-rank series).
    #[must_use]
    pub fn last_per_rank(&self) -> &[(usize, VirtualNanos)] {
        &self.last_per_rank
    }

    /// Composes per-channel reports into one: when ranks run in parallel
    /// (native threads / vPIM's parallel handling), the request *handling*
    /// overlaps but the DDR transfers still share one memory controller, so
    /// the composed duration is `max(maxᵢ dᵢ, Σᵢ ddrᵢ)`; sequential
    /// handling is plain back-to-back — Fig. 15/16.
    fn compose(&mut self, reports: Vec<OpReport>) -> OpReport {
        let mut merged = OpReport::default();
        let mut offsets = Vec::with_capacity(reports.len());
        let mut acc = VirtualNanos::ZERO;
        let mut max = VirtualNanos::ZERO;
        let mut ddr_acc = VirtualNanos::ZERO;
        for (i, r) in reports.iter().enumerate() {
            acc += r.duration();
            max = max.max(r.duration());
            ddr_acc += r.ddr();
            // Parallel: rank i completes once its own work is done and the
            // bus has served every transfer queued so far.
            let offset = if self.parallel_ranks { r.duration().max(ddr_acc) } else { acc };
            offsets.push((i, offset));
            merged.add_messages(r.messages());
            merged.add_rank_ops(r.rank_ops());
            for (step, d) in r.steps() {
                merged.step_only(step, d);
            }
            merged.set_launch_cycles(merged.launch_cycles().max(r.launch_cycles()));
        }
        merged.set_ddr(ddr_acc);
        merged.set_duration(if self.parallel_ranks { max.max(ddr_acc) } else { acc });
        if reports.len() > 1 {
            self.last_per_rank = offsets.clone();
        }
        merged.set_per_rank(offsets);
        merged
    }

    fn charge(&mut self, seg: DriverSegment, report: &OpReport) {
        self.timeline.charge_app(self.segment, report.duration());
        self.timeline.charge_driver(seg, report.duration());
        for (step, d) in report.steps() {
            self.timeline.charge_write_step(step, d);
        }
        self.timeline.add_messages(report.messages());
        self.timeline.add_rank_ops(report.rank_ops());
    }

    fn member(&self, dpu: usize) -> Result<(usize, u32), SdkError> {
        self.members.get(dpu).copied().ok_or(SdkError::BadDpuIndex(dpu))
    }

    /// Loads a registered program on every DPU of the set (`dpu_load`).
    ///
    /// # Errors
    ///
    /// Unknown kernel name or IRAM overflow.
    pub fn load(&mut self, program: &str) -> Result<(), SdkError> {
        let mut reports = Vec::with_capacity(self.channels.len());
        for (c, dpus) in self.channels.iter().zip(&self.per_channel) {
            reports.push(c.load(program, dpus, &self.cm)?);
        }
        let merged = self.compose(reports);
        self.charge(DriverSegment::Ci, &merged);
        Ok(())
    }

    /// One matrix transfer per rank, shared by both push directions.
    /// `xfer(channel, cost model, the channel's DPUs, global index of its
    /// first DPU)` runs one rank's transfer to completion. Rank *k* is
    /// finished before rank *k + 1* starts, so a VM push holds one rank's
    /// guest pages at a time; §4.2's overlap of the ranks is
    /// [`compose`](Self::compose)'s, in virtual time. The first failing
    /// rank ends the push, as a serial loop would: the ranks before it hold
    /// the new bytes, the ranks after it were never sent, and nothing is
    /// charged. Returns the read outputs in DPU order (none for a write).
    fn push_xfer(
        &mut self,
        seg: DriverSegment,
        xfer: impl Fn(
            &RankChannel,
            &CostModel,
            &[u32],
            usize,
        ) -> Result<(Vec<Vec<u8>>, OpReport), SdkError>,
    ) -> Result<Vec<Vec<u8>>, SdkError> {
        let mut reports = Vec::with_capacity(self.channels.len());
        let mut outputs = Vec::new();
        let mut first = 0usize;
        for (c, dpus) in self.channels.iter().zip(&self.per_channel) {
            let (mut outs, r) = xfer(c, &self.cm, dpus, first)?;
            first += dpus.len();
            outputs.append(&mut outs);
            reports.push(r);
        }
        let merged = self.compose(reports);
        self.charge(seg, &merged);
        Ok(outputs)
    }

    /// Parallel transfer of per-DPU buffers into the MRAM heap at `offset`
    /// (`dpu_push_xfer(DPU_XFER_TO_DPU)`). `bufs[i]` goes to DPU `i`;
    /// `bufs.len()` must equal the set size.
    ///
    /// # Errors
    ///
    /// Buffer-count mismatch or hardware/transport failures.
    pub fn push_to_heap(&mut self, offset: u64, bufs: &[Vec<u8>]) -> Result<(), SdkError> {
        self.check_count(bufs.len())?;
        self.push_xfer(DriverSegment::WriteRank, |c, cm, dpus, first| {
            let entries: Vec<(u32, u64, &[u8])> =
                dpus.iter().zip(&bufs[first..]).map(|(d, b)| (*d, offset, b.as_slice())).collect();
            Ok((Vec::new(), c.write_matrix(&entries, cm)?))
        })?;
        Ok(())
    }

    fn check_count(&self, got: usize) -> Result<(), SdkError> {
        if got != self.nr_dpus() {
            return Err(SdkError::BufferCountMismatch { expected: self.nr_dpus(), got });
        }
        Ok(())
    }

    /// A `len`-byte transfer buffer for
    /// [`push_bufs_to_heap`](Self::push_bufs_to_heap), reading as zeros.
    /// On a VM set it is allocated from the guest's RAM, so the push names
    /// its pages instead of copying it; when the guest cannot hold it (the
    /// only way the allocation fails), and on a native set, it is host
    /// memory.
    ///
    /// Guest buffers stay out of the guest's page pool until dropped, so a
    /// push that still has host buffers to stage may find no room for
    /// them. For one buffer per DPU, [`alloc_xfer_bufs`](Self::alloc_xfer_bufs)
    /// rules that out, and for a broadcast
    /// [`alloc_broadcast_buf`](Self::alloc_broadcast_buf).
    #[must_use]
    pub fn alloc_xfer_buf(&self, len: usize) -> XferBuf {
        match self.channels.first() {
            Some(RankChannel::Virt(f)) => {
                f.alloc_buf(len).map_or_else(|_| XferBuf::host(len), XferBuf::guest)
            }
            _ => XferBuf::host(len),
        }
    }

    /// One `len`-byte transfer buffer per DPU of the set, all of one kind:
    /// in guest RAM when the guest can hold every one of them and still
    /// has room for the widest rank's request and serialized matrix (all
    /// a [`push_bufs_to_heap`](Self::push_bufs_to_heap) of them allocates),
    /// otherwise all in host memory, which the push stages rank by rank as
    /// it stages `Vec`s.
    #[must_use]
    pub fn alloc_xfer_bufs(&self, len: usize) -> Vec<XferBuf> {
        self.alloc_pinnable(self.nr_dpus(), len)
    }

    /// A `len`-byte buffer for [`broadcast_to_heap`](Self::broadcast_to_heap),
    /// reading as zeros: in guest RAM when the guest can hold it and still
    /// has room for the widest rank's request and the serialized matrix
    /// that names it once per DPU, otherwise host memory.
    #[must_use]
    pub fn alloc_broadcast_buf(&self, len: usize) -> XferBuf {
        self.alloc_pinnable(1, len).pop().expect("one buffer")
    }

    /// `count` buffers of `len` bytes, all in guest RAM if a pinned write
    /// naming them on the widest rank still fits beside them, otherwise
    /// all in host memory.
    fn alloc_pinnable(&self, count: usize, len: usize) -> Vec<XferBuf> {
        if let Some(RankChannel::Virt(f)) = self.channels.first() {
            let widest = self.per_channel.iter().map(Vec::len).max().unwrap_or(0);
            let guest: Result<Vec<_>, _> = (0..count).map(|_| f.alloc_buf(len)).collect();
            // The room is judged with every buffer held; a refused set
            // returns its pages as it drops.
            if let Ok(bufs) = guest {
                if f.has_room_to_pin(widest, len) {
                    return bufs.into_iter().map(XferBuf::guest).collect();
                }
            }
        }
        (0..count).map(|_| XferBuf::host(len)).collect()
    }

    /// [`push_to_heap`](Self::push_to_heap) from transfer buffers: `bufs[i]`
    /// goes to DPU `i`. Guest-resident buffers reach the rank without a
    /// copy; the bytes and every figure are those of the same push from
    /// `Vec`s.
    ///
    /// # Errors
    ///
    /// Buffer-count mismatch or hardware/transport failures.
    pub fn push_bufs_to_heap(&mut self, offset: u64, bufs: &[XferBuf]) -> Result<(), SdkError> {
        self.check_count(bufs.len())?;
        self.push_xfer(DriverSegment::WriteRank, |c, cm, dpus, first| {
            let entries: Vec<(u32, u64, &XferBuf)> =
                dpus.iter().zip(&bufs[first..]).map(|(d, b)| (*d, offset, b)).collect();
            Ok((Vec::new(), c.write_bufs(&entries, cm)?))
        })?;
        Ok(())
    }

    /// Sends `buf` to the MRAM heap of every DPU at `offset`
    /// (`dpu_broadcast_to`). On a VM set whose buffer lives in guest RAM
    /// every matrix entry names that one buffer's pages; otherwise every
    /// DPU is written from the one buffer's bytes. The bytes and every
    /// figure are those of [`push_to_heap`](Self::push_to_heap) of one
    /// equal `Vec` per DPU.
    ///
    /// # Errors
    ///
    /// Hardware/transport failures.
    pub fn broadcast_to_heap(&mut self, offset: u64, buf: &XferBuf) -> Result<(), SdkError> {
        self.push_xfer(DriverSegment::WriteRank, |c, cm, dpus, _| {
            let entries: Vec<(u32, u64, &XferBuf)> =
                dpus.iter().map(|d| (*d, offset, buf)).collect();
            Ok((Vec::new(), c.write_bufs(&entries, cm)?))
        })?;
        Ok(())
    }

    /// Parallel retrieval of `len` bytes from the MRAM heap at `offset` on
    /// every DPU (`dpu_push_xfer(DPU_XFER_FROM_DPU)`).
    ///
    /// # Errors
    ///
    /// Hardware/transport failures.
    pub fn push_from_heap(&mut self, offset: u64, len: usize) -> Result<Vec<Vec<u8>>, SdkError> {
        self.push_xfer(DriverSegment::ReadRank, |c, cm, dpus, _| {
            let reqs: Vec<(u32, u64, u64)> =
                dpus.iter().map(|d| (*d, offset, len as u64)).collect();
            c.read_matrix(&reqs, cm)
        })
    }

    /// Serial write to one DPU's heap (`dpu_copy_to`): the slow path PrIM
    /// uses in SEL/UNI/SpMV/BFS, and the op vPIM's batching absorbs.
    ///
    /// # Errors
    ///
    /// Bad DPU index or hardware/transport failures.
    pub fn copy_to_heap(&mut self, dpu: usize, offset: u64, data: &[u8]) -> Result<(), SdkError> {
        let (ci, d) = self.member(dpu)?;
        let r = self.channels[ci].write_serial(d, offset, data, &self.cm)?;
        self.charge(DriverSegment::WriteRank, &r);
        Ok(())
    }

    /// Serial read from one DPU's heap (`dpu_copy_from`): the op vPIM's
    /// prefetch cache accelerates.
    ///
    /// # Errors
    ///
    /// Bad DPU index or hardware/transport failures.
    pub fn copy_from_heap(
        &mut self,
        dpu: usize,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, SdkError> {
        let (ci, d) = self.member(dpu)?;
        let (data, r) = self.channels[ci].read_serial(d, offset, len as u64, &self.cm)?;
        self.charge(DriverSegment::ReadRank, &r);
        Ok(data)
    }

    /// Writes a `u32` host symbol on one DPU.
    ///
    /// # Errors
    ///
    /// Unknown symbol or bad DPU index.
    pub fn set_symbol_u32(&mut self, dpu: usize, name: &str, v: u32) -> Result<(), SdkError> {
        let (ci, d) = self.member(dpu)?;
        let r = self.channels[ci].write_symbol(d, name, &v.to_le_bytes(), &self.cm)?;
        self.charge(DriverSegment::Ci, &r);
        Ok(())
    }

    /// Reads a `u32` host symbol from one DPU.
    ///
    /// # Errors
    ///
    /// Unknown symbol or bad DPU index.
    pub fn symbol_u32(&mut self, dpu: usize, name: &str) -> Result<u32, SdkError> {
        let (ci, d) = self.member(dpu)?;
        let (bytes, r) = self.channels[ci].read_symbol(d, name, 4, &self.cm)?;
        self.charge(DriverSegment::Ci, &r);
        Ok(u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")))
    }

    /// Writes a `u64` host symbol on one DPU.
    ///
    /// # Errors
    ///
    /// Unknown symbol or bad DPU index.
    pub fn set_symbol_u64(&mut self, dpu: usize, name: &str, v: u64) -> Result<(), SdkError> {
        let (ci, d) = self.member(dpu)?;
        let r = self.channels[ci].write_symbol(d, name, &v.to_le_bytes(), &self.cm)?;
        self.charge(DriverSegment::Ci, &r);
        Ok(())
    }

    /// Reads a `u64` host symbol from one DPU.
    ///
    /// # Errors
    ///
    /// Unknown symbol or bad DPU index.
    pub fn symbol_u64(&mut self, dpu: usize, name: &str) -> Result<u64, SdkError> {
        let (ci, d) = self.member(dpu)?;
        let (bytes, r) = self.channels[ci].read_symbol(d, name, 8, &self.cm)?;
        self.charge(DriverSegment::Ci, &r);
        Ok(u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")))
    }

    /// Pushes per-DPU `u32` argument values in one parallel operation
    /// (`values[i]` goes to DPU `i`) — PrIM's `dpu_push_xfer` on an
    /// argument symbol, costing one transition per rank under vPIM.
    ///
    /// # Errors
    ///
    /// Count mismatch or unknown symbol.
    pub fn scatter_symbol_u32(&mut self, name: &str, values: &[u32]) -> Result<(), SdkError> {
        self.check_count(values.len())?;
        let mut reports = Vec::with_capacity(self.channels.len());
        let mut cursor = 0usize;
        for (ci, dpus) in self.per_channel.iter().enumerate() {
            let entries: Vec<(u32, u32)> = dpus
                .iter()
                .enumerate()
                .map(|(k, d)| (*d, values[cursor + k]))
                .collect();
            cursor += dpus.len();
            reports.push(self.channels[ci].scatter_symbol(name, &entries, &self.cm)?);
        }
        let merged = self.compose(reports);
        self.charge(DriverSegment::Ci, &merged);
        Ok(())
    }

    /// Broadcasts a `u32` symbol to every DPU in the set.
    ///
    /// # Errors
    ///
    /// Unknown symbol.
    pub fn broadcast_symbol_u32(&mut self, name: &str, v: u32) -> Result<(), SdkError> {
        let values = vec![v; self.nr_dpus()];
        self.scatter_symbol_u32(name, &values)
    }

    /// Synchronous launch (`dpu_launch(DPU_SYNCHRONOUS)`): boots every DPU,
    /// waits for completion (modeled by the slowest DPU's cycles), and
    /// charges the SDK's status-polling loop.
    ///
    /// # Errors
    ///
    /// DPU faults surface with the faulting program's message.
    pub fn launch(&mut self, nr_tasklets: usize) -> Result<(), SdkError> {
        let all: Vec<usize> = (0..self.nr_dpus()).collect();
        self.launch_on(&all, nr_tasklets)
    }

    /// Synchronous launch restricted to a subset of the set's DPUs (PrIM's
    /// wavefront workloads boot only the active diagonal).
    ///
    /// # Errors
    ///
    /// Bad DPU index, or DPU faults with the faulting program's message.
    pub fn launch_on(&mut self, dpus: &[usize], nr_tasklets: usize) -> Result<(), SdkError> {
        let mut per_channel: Vec<Vec<u32>> = vec![Vec::new(); self.channels.len()];
        for &d in dpus {
            let (ci, local) = self.member(d)?;
            per_channel[ci].push(local);
        }
        let mut boot_reports = Vec::with_capacity(self.channels.len());
        let mut max_cycles = 0u64;
        let mut first_active: Option<(usize, u32)> = None;
        for (ci, (c, dpus)) in self.channels.iter().zip(&per_channel).enumerate() {
            if dpus.is_empty() {
                continue;
            }
            first_active.get_or_insert((ci, dpus[0]));
            let (cycles, r) = c.launch(dpus, nr_tasklets as u32, &self.cm)?;
            max_cycles = max_cycles.max(cycles);
            boot_reports.push(r);
        }
        let Some((poll_ci, poll_dpu)) = first_active else {
            return Ok(()); // nothing to launch
        };
        let mut merged = self.compose(boot_reports);
        let exec = self.cm.dpu_cycles(max_cycles);

        // One real status poll confirms completion…
        let (status, poll_r) = self.channels[poll_ci].poll(poll_dpu, &self.cm)?;
        debug_assert!(matches!(status, CiStatus::Done));
        merged.absorb(&poll_r);
        // …the rest of the polling loop is charged analytically.
        let (extra_polls, poll_cost) = self.channels[poll_ci].sync_poll_cost(exec, &self.cm);
        merged.add_messages(extra_polls);
        merged.add_duration(poll_cost);

        // Driver-centric: only the CI traffic counts (Fig. 12 excludes SDK
        // wait time); application-centric: the whole synchronous launch.
        self.timeline.charge_driver(DriverSegment::Ci, merged.duration());
        self.timeline.charge_app(self.segment, merged.duration() + exec);
        for (step, d) in merged.steps() {
            self.timeline.charge_write_step(step, d);
        }
        self.timeline.add_messages(merged.messages());
        self.timeline.add_rank_ops(merged.rank_ops());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use upmem_sim::dpu::MRAM_HEAP_BASE;
    use upmem_sim::error::DpuFault;
    use upmem_sim::kernel::{DpuKernel, KernelImage, SymbolDef};
    use upmem_sim::{DpuContext, PimConfig, PimMachine};
    use vpim::{StartOpts, TenantSpec, VpimConfig, VpimSystem};

    /// The paper's Fig. 2 kernel: count zeroes in a partition.
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
                let per = n.div_ceil(tasklets);
                let lo = (t.id() * per).min(n);
                let hi = ((t.id() + 1) * per).min(n);
                if lo >= hi {
                    return Ok(());
                }
                t.wram_alloc((hi - lo) * 4)?;
                let mut buf = vec![0u32; hi - lo];
                t.mram_read_u32s(MRAM_HEAP_BASE + (lo * 4) as u64, &mut buf)?;
                let zeroes = buf.iter().filter(|v| **v == 0).count() as u32;
                t.charge(3 * (hi - lo) as u64);
                t.add_host_u32("zero_count", zeroes)?;
                Ok(())
            })
        }
    }

    fn machine() -> PimMachine {
        let m = PimMachine::new(PimConfig::small());
        m.register_kernel(Arc::new(CountZeroes));
        m
    }

    fn count_zero_program(set: &mut DpuSet, words_per_dpu: usize) -> u32 {
        // Mirrors the paper's Fig. 2 host program end to end.
        set.load("count_zeroes").unwrap();
        set.set_segment(AppSegment::CpuToDpu);
        let n = set.nr_dpus();
        let bufs: Vec<Vec<u8>> = (0..n)
            .map(|d| {
                let mut raw = Vec::new();
                for i in 0..words_per_dpu {
                    let v = if (i + d) % 4 == 0 { 0u32 } else { (i + d) as u32 };
                    raw.extend_from_slice(&v.to_le_bytes());
                }
                raw
            })
            .collect();
        for d in 0..n {
            set.set_symbol_u32(d, "partition_size", words_per_dpu as u32).unwrap();
            set.set_symbol_u32(d, "zero_count", 0).unwrap();
        }
        set.push_to_heap(0, &bufs).unwrap();
        set.set_segment(AppSegment::Dpu);
        set.launch(12).unwrap();
        set.set_segment(AppSegment::DpuToCpu);
        let mut total = 0u32;
        for d in 0..n {
            total += set.symbol_u32(d, "zero_count").unwrap();
        }
        total
    }

    fn expected_zeroes(n_dpus: usize, words: usize) -> u32 {
        let mut total = 0;
        for d in 0..n_dpus {
            for i in 0..words {
                let v = if (i + d) % 4 == 0 { 0u32 } else { (i + d) as u32 };
                if v == 0 {
                    total += 1;
                }
            }
        }
        total
    }

    #[test]
    fn native_count_zeroes_end_to_end() {
        let driver = Arc::new(upmem_driver::UpmemDriver::new(machine()));
        let mut set = DpuSet::alloc_native(&driver, 12, CostModel::default()).unwrap();
        assert_eq!(set.nr_dpus(), 12);
        assert_eq!(set.nr_ranks(), 2);
        let zeroes = count_zero_program(&mut set, 256);
        assert_eq!(zeroes, expected_zeroes(12, 256));
        let tl = set.timeline();
        assert!(tl.app(AppSegment::Dpu) > VirtualNanos::ZERO);
        assert!(tl.app(AppSegment::CpuToDpu) > VirtualNanos::ZERO);
        // Native execution never crosses a VM boundary.
        assert_eq!(tl.messages(), 0);
    }

    #[test]
    fn virtualized_count_zeroes_matches_native_results() {
        let driver = Arc::new(upmem_driver::UpmemDriver::new(machine()));
        let sys = VpimSystem::start(driver, VpimConfig::full(), StartOpts::default());
        let vm = sys.launch(TenantSpec::new("vm-0").devices(2)).unwrap();
        let mut set =
            DpuSet::alloc_vm(vm.frontends(), 12, CostModel::default()).unwrap();
        let zeroes = count_zero_program(&mut set, 256);
        assert_eq!(zeroes, expected_zeroes(12, 256));
        // The virtualized run pays guest↔VMM messages.
        assert!(set.timeline().messages() > 0);
        sys.shutdown();
    }

    #[test]
    fn virtualization_overhead_is_positive_but_bounded() {
        let driver = Arc::new(upmem_driver::UpmemDriver::new(machine()));
        let mut native = DpuSet::alloc_native(&driver, 8, CostModel::default()).unwrap();
        let _ = count_zero_program(&mut native, 2048);
        let native_total = native.timeline().app_total();
        drop(native);

        let sys = VpimSystem::start(driver, VpimConfig::full(), StartOpts::default());
        let vm = sys.launch(TenantSpec::new("vm-0")).unwrap();
        let mut virt = DpuSet::alloc_vm(vm.frontends(), 8, CostModel::default()).unwrap();
        let _ = count_zero_program(&mut virt, 2048);
        let virt_total = virt.timeline().app_total();

        let overhead = virt_total.ratio(native_total);
        assert!(overhead > 1.0, "virtualization cannot be free: {overhead}");
        assert!(overhead < 60.0, "overhead out of the paper's regime: {overhead}");
        sys.shutdown();
    }

    #[test]
    fn serial_copy_roundtrip_and_prefetch_hits() {
        let driver = Arc::new(upmem_driver::UpmemDriver::new(machine()));
        let sys = VpimSystem::start(driver, VpimConfig::full(), StartOpts::default());
        let vm = sys.launch(TenantSpec::new("vm-0")).unwrap();
        let mut set = DpuSet::alloc_vm(vm.frontends(), 4, CostModel::default()).unwrap();
        set.copy_to_heap(2, 64, &[9u8; 512]).unwrap();
        // Many small reads over the same region: first misses, rest hit.
        for i in 0..16 {
            let got = set.copy_from_heap(2, 64 + i * 16, 16).unwrap();
            assert_eq!(got, vec![9u8; 16]);
        }
        let (hits, misses) = vm.frontend(0).prefetch_stats();
        assert!(hits >= 15, "expected cache hits, got {hits} hits / {misses} misses");
        sys.shutdown();
    }

    #[test]
    fn alloc_errors() {
        let driver = Arc::new(upmem_driver::UpmemDriver::new(machine()));
        assert!(matches!(
            DpuSet::alloc_native(&driver, 1000, CostModel::default()),
            Err(SdkError::NotEnoughDpus { .. })
        ));
        let mut set = DpuSet::alloc_native(&driver, 4, CostModel::default()).unwrap();
        assert!(matches!(
            set.copy_to_heap(99, 0, &[0]),
            Err(SdkError::BadDpuIndex(99))
        ));
        assert!(matches!(
            set.push_to_heap(0, &[vec![0u8; 4]]),
            Err(SdkError::BufferCountMismatch { .. })
        ));
    }

    #[test]
    fn dropping_a_native_set_releases_its_ranks() {
        let driver = Arc::new(upmem_driver::UpmemDriver::new(machine()));
        {
            let _set = DpuSet::alloc_native(&driver, 16, CostModel::default()).unwrap();
            assert!(DpuSet::alloc_native(&driver, 1, CostModel::default()).is_err());
        }
        assert!(DpuSet::alloc_native(&driver, 16, CostModel::default()).is_ok());
    }

    #[test]
    fn multi_rank_per_rank_offsets_follow_the_overlap_model() {
        let driver = Arc::new(upmem_driver::UpmemDriver::new(machine()));
        // Sequential variant (vPIM-Seq): completion offsets accumulate.
        let sys = VpimSystem::start(driver.clone(), vpim::VpimConfig::variant_config(vpim::Variant::VpimSeq), StartOpts::default());
        let vm = sys.launch(TenantSpec::new("vm-0").devices(2)).unwrap();
        let mut set = DpuSet::alloc_vm(vm.frontends(), 16, CostModel::default()).unwrap();
        let bufs: Vec<Vec<u8>> = (0..16).map(|_| vec![7u8; 8192]).collect();
        set.push_to_heap(0, &bufs).unwrap();
        let offsets = set.last_per_rank().to_vec();
        assert_eq!(offsets.len(), 2);
        assert!(offsets[1].1 > offsets[0].1, "sequential offsets accumulate");
        sys.shutdown();
    }
}
