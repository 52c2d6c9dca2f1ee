//! The vUPMEM frontend driver (§3.1, §4.1): the guest-kernel half of vPIM.
//!
//! The frontend exposes the virtual UPMEM device to guest userspace (safe
//! mode: applications reach the device through this driver, never
//! directly), builds and serializes transfer matrices, and implements the
//! two anti-small-transfer optimizations: the [`PrefetchCache`] for reads
//! and the [`BatchBuffer`] for writes. Every operation returns an
//! [`OpReport`] carrying its virtual-time cost, message count and Fig. 13
//! step breakdown.
//!
//! A request is finished when its kick has been handled. The device runs
//! its chains one at a time in avail-ring order, so a handled kick means
//! this request's status page is written, whichever guest thread's kick
//! ran it; several threads can share one frontend with no completion
//! bookkeeping of their own. A transfer runs one chunk at a time, so its
//! chunks reach the rank in order and it holds one chunk's guest pages.

pub mod adapt;
mod batch;
pub mod policy;
mod prefetch;

pub use adapt::AdaptState;
pub use batch::{BatchBuffer, PendingWrites};
pub use prefetch::PrefetchCache;

use std::sync::Arc;

use parking_lot::Mutex;
use pim_virtio::memory::PAGE_SIZE;
use pim_virtio::mmio::{reg, status as mmio_status};
use pim_virtio::queue::{DriverQueue, QueueLayout};
use pim_virtio::{Gpa, GuestMemory, VirtioError};
use pim_vmm::{EventManager, VirtioDevice};
use simkit::{
    BytePool, CostModel, Counter, Gauge, MetricsRegistry, RetryMetrics, RetryPolicy,
    TimeoutClass, VirtualNanos, WriteStep,
};
use upmem_sim::ci::CiStatus;

use crate::config::VpimConfig;
use crate::device::VupmemDevice;
use crate::error::VpimError;
use crate::guestbuf::GuestBuf;
use crate::matrix::{PageLease, TransferMatrix, MAX_DPUS};
use crate::report::OpReport;
use crate::spec::{self, PimDeviceConfig, Request, Response};

/// Writes at or below this size are candidates for batching (one page —
/// the paper batches "small-size data transfer" of a few hundred bytes).
pub const SMALL_WRITE_MAX: u64 = 4096;

/// Guest pages every request takes besides its matrix: the request-info
/// page and the status page.
const REQUEST_PAGES: usize = 2;

#[derive(Debug)]
struct FrontState {
    nr_dpus: u32,
    mram_size: u64,
    prefetch: PrefetchCache,
    batch: BatchBuffer,
    /// The feedback controller (DESIGN.md §16); `None` unless
    /// `VpimConfig.adapt.enabled`, in which case every policy below runs
    /// exactly as the paper's static configuration.
    adapt: Option<AdaptState>,
}

/// Registry-owned cells this frontend records into. The prefetch/batch
/// cells are shared with the (re-creatable) cache structures so counts
/// survive [`Frontend::initialize`]; the queue-depth gauge tracks in-flight
/// `transferq` chains for this device.
#[derive(Debug, Clone)]
struct FrontMetrics {
    prefetch_hits: Counter,
    prefetch_misses: Counter,
    prefetch_inval_scoped: Counter,
    prefetch_inval_global: Counter,
    batch_appends: Counter,
    batch_merges: Counter,
    batch_flushes: Counter,
    queue_depth: Gauge,
    /// Present only when `VpimConfig.adapt.enabled`: the adaptive metric
    /// names must not appear in the registry of a statically configured VM
    /// (the default registry dump is part of the compatibility surface).
    adapt: Option<adapt::AdaptMetrics>,
}

impl FrontMetrics {
    fn from_registry(registry: &MetricsRegistry, device_idx: usize, adapt_on: bool) -> Self {
        FrontMetrics {
            prefetch_hits: registry.counter("frontend.prefetch.hits"),
            prefetch_misses: registry.counter("frontend.prefetch.misses"),
            prefetch_inval_scoped: registry.counter("frontend.prefetch.invalidations.scoped"),
            prefetch_inval_global: registry.counter("frontend.prefetch.invalidations.global"),
            batch_appends: registry.counter("frontend.batch.appends"),
            batch_merges: registry.counter("frontend.batch.merges"),
            batch_flushes: registry.counter("frontend.batch.flushes"),
            queue_depth: registry.gauge(&format!("virtio.queue.depth.rank{device_idx}")),
            adapt: adapt_on.then(|| adapt::AdaptMetrics::from_registry(registry, device_idx)),
        }
    }

    fn prefetch_cache(&self, nr_dpus: usize, pages_per_dpu: usize) -> PrefetchCache {
        PrefetchCache::new(nr_dpus, pages_per_dpu)
            .with_counters(self.prefetch_hits.clone(), self.prefetch_misses.clone())
            .with_invalidation_counters(
                self.prefetch_inval_scoped.clone(),
                self.prefetch_inval_global.clone(),
            )
    }

    fn batch_buffer(&self, nr_dpus: usize, pages_per_dpu: usize) -> BatchBuffer {
        BatchBuffer::new(nr_dpus, pages_per_dpu).with_counters(
            self.batch_appends.clone(),
            self.batch_merges.clone(),
            self.batch_flushes.clone(),
        )
    }
}

/// One `transferq` chain added to the queue: its request and status
/// pages, freed once [`Frontend::complete`] has read the response.
#[derive(Debug)]
struct PendingOp {
    pages: Vec<Gpa>,
    status_page: Gpa,
}

/// The payload of one matrix transfer, in either direction. A write's
/// bytes are either the application's own memory, copied into fresh guest
/// pages when its matrix is built (staged), or guest buffers the
/// application filled, whose pages the matrix names in place (pinned).
/// Everything but building the matrix is the same for both.
#[derive(Debug, Clone, Copy)]
enum Xfer<'a> {
    /// Staged `write-to-rank`: `(dpu, mram offset, data)`.
    Write(&'a [(u32, u64, &'a [u8])]),
    /// Pinned `write-to-rank`: `(dpu, mram offset, buffer)`.
    Pinned(&'a [(u32, u64, &'a GuestBuf)]),
    /// `read-from-rank`: `(dpu, mram offset, len)`.
    Read(&'a [(u32, u64, u64)]),
}

impl<'a> Xfer<'a> {
    /// Splits the transfer into matrices of at most [`MAX_DPUS`] entries.
    fn chunks(self) -> Vec<Xfer<'a>> {
        match self {
            Xfer::Write(w) => w.chunks(MAX_DPUS).map(Xfer::Write).collect(),
            Xfer::Pinned(p) => p.chunks(MAX_DPUS).map(Xfer::Pinned).collect(),
            Xfer::Read(r) => r.chunks(MAX_DPUS).map(Xfer::Read).collect(),
        }
    }

    /// The `(dpu, mram offset, len)` of every write entry (none for a
    /// read).
    fn writes(self) -> impl Iterator<Item = (u32, u64, u64)> + 'a {
        let (staged, pinned) = match self {
            Xfer::Write(w) => (w, &[][..]),
            Xfer::Pinned(p) => (&[][..], p),
            Xfer::Read(_) => (&[][..], &[][..]),
        };
        let staged = staged.iter().map(|(d, o, b)| (*d, *o, b.len() as u64));
        staged.chain(pinned.iter().map(|(d, o, b)| (*d, *o, b.len() as u64)))
    }
}

/// Options for [`Frontend::probe`]: everything the guest driver needs
/// beyond the device itself. The required parts (device index, event
/// manager, guest memory) are constructor arguments; cost model,
/// configuration, metrics registry, and serializer scratch pool default to
/// fresh instances unless shared ones are supplied — the system wiring
/// hands every frontend the host's registry and pool.
#[derive(Debug, Clone)]
pub struct ProbeOpts {
    device_idx: usize,
    em: EventManager,
    mem: GuestMemory,
    cm: CostModel,
    vcfg: VpimConfig,
    registry: MetricsRegistry,
    scratch: Option<BytePool>,
}

impl ProbeOpts {
    /// Options for device `device_idx` of a VM with event manager `em` and
    /// guest memory `mem`, with the default cost model, the full
    /// optimization configuration, and a private metrics registry.
    #[must_use]
    pub fn new(device_idx: usize, em: EventManager, mem: GuestMemory) -> Self {
        ProbeOpts {
            device_idx,
            em,
            mem,
            cm: CostModel::default(),
            vcfg: VpimConfig::full(),
            registry: MetricsRegistry::new(),
            scratch: None,
        }
    }

    /// Uses `cm` as the cost model.
    #[must_use]
    pub fn cost_model(mut self, cm: CostModel) -> Self {
        self.cm = cm;
        self
    }

    /// Uses `vcfg` as the optimization configuration.
    #[must_use]
    pub fn config(mut self, vcfg: VpimConfig) -> Self {
        self.vcfg = vcfg;
        self
    }

    /// Publishes prefetch/batch/queue-depth metrics into `registry`
    /// (`frontend.prefetch.*`, `frontend.batch.*`,
    /// `virtio.queue.depth.rank{device_idx}`).
    #[must_use]
    pub fn registry(mut self, registry: &MetricsRegistry) -> Self {
        self.registry = registry.clone();
        self
    }

    /// Shares an existing serializer scratch [`BytePool`] instead of
    /// creating one from the registry.
    #[must_use]
    pub fn scratch(mut self, pool: BytePool) -> Self {
        self.scratch = Some(pool);
        self
    }
}

/// Lock-order indices for the frontend's two mutexes, both at
/// [`simkit::LockLevel::Frontend`] (the top of the cross-layer hierarchy —
/// see `simkit::lockorder`). Neither is held across a kick, so the device
/// layer below is always entered from a clean frontend:
///
/// * `STATE` (0) — batching/prefetch state; a leaf in practice: never held
///   across the transport path or another frontend lock.
/// * `QUEUE` (1) — the driver-side virtqueue: adding a chain, draining
///   the used ring.
mod front_lock {
    pub const STATE: usize = 0;
    pub const QUEUE: usize = 1;
}

/// The guest-side driver for one vUPMEM device.
#[derive(Debug)]
pub struct Frontend {
    device: Arc<VupmemDevice>,
    device_idx: usize,
    em: EventManager,
    mem: GuestMemory,
    queue: Mutex<DriverQueue>,
    cm: CostModel,
    vcfg: VpimConfig,
    metrics: FrontMetrics,
    /// Shared `retry.*` instruments; bumped by the transport-level
    /// [`RetryPolicy`] in [`complete`](Self::complete).
    retry: RetryMetrics,
    /// Scratch-buffer pool for matrix serialization (shared with the
    /// backend data path in the system wiring).
    scratch: BytePool,
    state: Mutex<FrontState>,
}

impl Frontend {
    /// Probes the device during guest boot: performs the virtio status
    /// handshake and configures `transferq` and `controlq` in guest memory.
    /// Call **before** `Vm::boot` (the device reads the queue layout when
    /// it activates); call [`initialize`](Self::initialize) after boot.
    ///
    /// # Errors
    ///
    /// Guest memory exhaustion or MMIO errors.
    pub fn probe(device: Arc<VupmemDevice>, opts: ProbeOpts) -> Result<Frontend, VpimError> {
        let ProbeOpts { device_idx, em, mem, cm, vcfg, registry, scratch } = opts;
        let scratch =
            scratch.unwrap_or_else(|| BytePool::with_registry(&registry, "datapath.pool"));
        let m = device.mmio();
        m.write(reg::STATUS, mmio_status::ACKNOWLEDGE)?;
        m.write(reg::STATUS, mmio_status::ACKNOWLEDGE | mmio_status::DRIVER)?;
        m.write(reg::DRIVER_FEATURES, 0)?;

        let layout = QueueLayout::alloc(&mem, spec::TRANSFERQ_SIZE)?;
        let set = |sel: u32, l: &QueueLayout| -> Result<(), VpimError> {
            m.write(reg::QUEUE_SEL, sel)?;
            m.write(reg::QUEUE_NUM, u32::from(l.size))?;
            m.write(reg::QUEUE_DESC_LOW, (l.desc.0 & 0xffff_ffff) as u32)?;
            m.write(reg::QUEUE_DESC_HIGH, (l.desc.0 >> 32) as u32)?;
            m.write(reg::QUEUE_DRIVER_LOW, (l.avail.0 & 0xffff_ffff) as u32)?;
            m.write(reg::QUEUE_DRIVER_HIGH, (l.avail.0 >> 32) as u32)?;
            m.write(reg::QUEUE_DEVICE_LOW, (l.used.0 & 0xffff_ffff) as u32)?;
            m.write(reg::QUEUE_DEVICE_HIGH, (l.used.0 >> 32) as u32)?;
            m.write(reg::QUEUE_READY, 1)?;
            Ok(())
        };
        set(spec::TRANSFERQ, &layout)?;
        let ctrl = QueueLayout::alloc(&mem, spec::CONTROLQ_SIZE)?;
        set(spec::CONTROLQ, &ctrl)?;
        m.write(
            reg::STATUS,
            mmio_status::ACKNOWLEDGE
                | mmio_status::DRIVER
                | mmio_status::FEATURES_OK
                | mmio_status::DRIVER_OK,
        )?;

        let metrics = FrontMetrics::from_registry(&registry, device_idx, vcfg.adapt.enabled);
        let retry = RetryMetrics::from_registry(&registry);
        Ok(Frontend {
            device,
            device_idx,
            em,
            queue: Mutex::new(DriverQueue::new(mem.clone(), layout)),
            mem,
            cm,
            vcfg,
            state: Mutex::new(FrontState {
                nr_dpus: 0,
                mram_size: 0,
                prefetch: metrics.prefetch_cache(0, 0),
                batch: metrics.batch_buffer(0, 0),
                adapt: None,
            }),
            metrics,
            retry,
            scratch,
        })
    }

    /// Completes initialization after boot: requests the device
    /// configuration (frequency, DPU count — §3.2) and sizes the prefetch
    /// cache and batch buffer.
    ///
    /// # Errors
    ///
    /// Transport failures or a backend that cannot link a rank.
    pub fn initialize(&self) -> Result<OpReport, VpimError> {
        let (resp, report) = self.roundtrip(&Request::Configure, &[])?;
        let mut padded = resp.payload.clone();
        padded.resize(PimDeviceConfig::ENCODED_LEN, 0);
        let cfg = PimDeviceConfig::decode(&padded)?;
        let mut st = self.state.lock();
        st.nr_dpus = cfg.nr_dpus;
        st.mram_size = cfg.mram_size;
        st.prefetch = self
            .metrics
            .prefetch_cache(cfg.nr_dpus as usize, self.vcfg.prefetch_pages_per_dpu);
        if self.vcfg.adapt.enabled {
            // Allocate the buffer at the controller's ceiling; the static
            // capacity becomes the starting flush threshold.
            let alloc_pages =
                (policy::MAX_BATCH_PAGES as usize).max(self.vcfg.batch_pages_per_dpu);
            st.batch = self.metrics.batch_buffer(cfg.nr_dpus as usize, alloc_pages);
            let adapt = AdaptState::new(
                self.vcfg.prefetch_pages_per_dpu as u32,
                self.vcfg.batch_pages_per_dpu as u32,
                cfg.nr_dpus as usize,
                self.metrics.adapt.clone().expect("adapt metrics registered when adapt.enabled"),
            );
            st.batch.set_flush_threshold(adapt.batch_threshold_bytes());
            st.adapt = Some(adapt);
        } else {
            st.batch =
                self.metrics.batch_buffer(cfg.nr_dpus as usize, self.vcfg.batch_pages_per_dpu);
        }
        Ok(report)
    }

    /// Advances the adaptive controller's virtual clock by a completed
    /// op's duration — the "operation boundary" sample point of DESIGN.md
    /// §16. A no-op (one branch, no lock) when the controller is off.
    fn adapt_tick(&self, report: &OpReport) {
        if self.vcfg.adapt.enabled {
            if let Some(a) = self.state.lock().adapt.as_mut() {
                a.tick(report.duration());
            }
        }
    }

    /// Number of DPUs behind this device (0 before `initialize`).
    #[must_use]
    pub fn nr_dpus(&self) -> u32 {
        self.state.lock().nr_dpus
    }

    /// MRAM bytes per DPU.
    #[must_use]
    pub fn mram_size(&self) -> u64 {
        self.state.lock().mram_size
    }

    /// The device this frontend drives.
    #[must_use]
    pub fn device(&self) -> &Arc<VupmemDevice> {
        &self.device
    }

    /// The optimization configuration this frontend runs with.
    #[must_use]
    pub fn config(&self) -> &VpimConfig {
        &self.vcfg
    }

    /// The cost model in effect.
    #[must_use]
    pub fn cost_model(&self) -> &CostModel {
        &self.cm
    }

    /// Prefetch cache counters `(hits, misses)`.
    #[must_use]
    pub fn prefetch_stats(&self) -> (u64, u64) {
        self.state.lock().prefetch.stats()
    }

    /// Batch buffer counters `(appends, flushes)`.
    #[must_use]
    pub fn batch_stats(&self) -> (u64, u64) {
        self.state.lock().batch.stats()
    }

    /// Batch-buffer merges: appends whose target pages were all already
    /// dirty in the current batch window.
    #[must_use]
    pub fn batch_merges(&self) -> u64 {
        self.metrics.batch_merges.get()
    }

    /// The adaptive controller's current prefetch window in pages
    /// (`None` when `VpimConfig.adapt` is off).
    #[must_use]
    pub fn adapt_window_pages(&self) -> Option<u32> {
        self.state.lock().adapt.as_ref().map(AdaptState::window_pages)
    }

    // ------------------------------------------------------------ transport

    fn response_error(resp: &Response) -> VpimError {
        match resp.status {
            crate::backend::STATUS_FAULT => VpimError::Sim(upmem_sim::SimError::Fault(
                upmem_sim::DpuFault::new(resp.error.clone()),
            )),
            crate::backend::STATUS_NOT_LINKED => VpimError::NotLinked,
            crate::backend::STATUS_BAD => VpimError::BadRequest(resp.error.clone()),
            _ => match simkit::ErrorKind::from_code(resp.kind) {
                Some(kind) => VpimError::Remote { kind, message: resp.error.clone() },
                None => VpimError::Vmm(resp.error.clone()),
            },
        }
    }

    /// Adds one request chain to `transferq`;
    /// [`complete`](Self::complete) kicks the device and reads the
    /// response.
    fn submit(&self, req: &Request, extra: &[(Gpa, u32, bool)]) -> Result<PendingOp, VpimError> {
        let pages = self.mem.alloc_pages(REQUEST_PAGES)?;
        let (req_page, status_page) = (pages[0], pages[1]);
        let enc = req.encode();
        if let Err(e) = self.mem.write(req_page, &enc) {
            // Nothing was chained yet: give the pages back so a transient
            // (injected EIO) failure leaves the allocator balanced.
            let _ = self.mem.free_pages_back(&pages);
            return Err(e.into());
        }

        let mut bufs: Vec<(Gpa, u32, bool)> = Vec::with_capacity(extra.len() + 2);
        bufs.push((req_page, enc.len() as u32, false));
        bufs.extend_from_slice(extra);
        bufs.push((status_page, 4096, true));
        let added = {
            let _order = simkit::ordered(simkit::LockLevel::Frontend, front_lock::QUEUE);
            self.queue.lock().add_chain(&bufs)
        };
        if let Err(e) = added {
            // Give the pages back: a full queue is waited out and the
            // chain submitted again.
            self.mem.free_pages_back(&pages)?;
            return Err(e.into());
        }
        self.metrics.queue_depth.add(1);
        Ok(PendingOp { pages, status_page })
    }

    /// The guest kick: an MMIO write that traps to the VMM, which runs the
    /// device's handler on this thread.
    fn kick(&self) -> Result<(), VpimError> {
        self.device.mmio().write(reg::QUEUE_NOTIFY, spec::TRANSFERQ)?;
        Ok(self.em.kick(self.device_idx, spec::TRANSFERQ)?)
    }

    /// Kicks the device for a submitted op, decodes its response, and
    /// frees its pages. The device handles its chains one at a time in
    /// avail-ring order, so once this op's kick has been handled its
    /// status page is written, whichever thread's kick ran the chain;
    /// [`drain_used`](Self::drain_used) then only recycles descriptors.
    ///
    /// Transient failures are retried under the
    /// [`TimeoutClass::VirtioRoundTrip`] policy (bounded attempts,
    /// virtual-time exponential backoff with deterministic jitter seeded
    /// from `VpimConfig.inject.seed`): a dropped kick never dispatched the
    /// chain — it is still pending in the avail ring — so the guest
    /// re-notifies and re-kicks; an injected EIO on the status page simply
    /// re-reads it. All backoff is virtual time charged to the op's report;
    /// no thread sleeps for it.
    fn complete(&self, op: PendingOp) -> Result<(Response, OpReport), VpimError> {
        // One budget for both loops: a kick retry leaves less for the
        // status read.
        let mut budget = RetryPolicy::for_class(&self.cm, TimeoutClass::VirtioRoundTrip)
            .budget(self.vcfg.inject.seed, Some(&self.retry));

        let mut kicked = self.kick();
        while let Err(e) = &kicked {
            if !budget.retry(e.is_transient()) {
                // Giving up on an undispatched chain abandons its queue
                // slot and pages: the device may still process the chain
                // if a later op kicks, so they must not be recycled.
                break;
            }
            kicked = self.kick();
        }
        kicked?;
        self.drain_used()?;
        self.metrics.queue_depth.sub(1);

        // Decoded where it lies, inside the borrow of the status page.
        let decoded = loop {
            match self.mem.with_slice(op.status_page, 4096, Response::decode) {
                Ok(decoded) => break decoded,
                Err(e) => {
                    let e = VpimError::from(e);
                    if !budget.retry(e.is_transient()) {
                        // The kick was handled, so the device is done
                        // with the pages: reclaim them even though the
                        // status read failed.
                        let _ = self.mem.free_pages_back(&op.pages);
                        return Err(e);
                    }
                }
            }
        };
        // The pages go back before a decode error can propagate.
        self.mem.free_pages_back(&op.pages)?;
        let resp = decoded?;

        let mut report = OpReport::default();
        report.add_messages(1);
        report.step(WriteStep::Interrupt, self.cm.virtio_round_trip());
        report.add_duration(budget.backoff());
        if resp.is_ok() {
            Ok((resp, report))
        } else {
            Err(Self::response_error(&resp))
        }
    }

    /// Acknowledges the interrupt and recycles the descriptors of every
    /// chain in the used ring. Any thread may drain any entry: a chain
    /// reaches the used ring only after its status page is written.
    fn drain_used(&self) -> Result<(), VpimError> {
        self.device.mmio().write(reg::INTERRUPT_ACK, 1)?;
        let _order = simkit::ordered(simkit::LockLevel::Frontend, front_lock::QUEUE);
        let mut q = self.queue.lock();
        while q.poll_used()?.is_some() {}
        Ok(())
    }

    /// Waits out a queue whose descriptors other threads' chains hold: a
    /// kick that adds no chain returns once the device has run every chain
    /// added before it, and the drain then frees their descriptors.
    fn reclaim(&self) -> Result<(), VpimError> {
        self.kick()?;
        self.drain_used()
    }

    /// One full request/response exchange over `transferq`.
    fn roundtrip(
        &self,
        req: &Request,
        extra: &[(Gpa, u32, bool)],
    ) -> Result<(Response, OpReport), VpimError> {
        let op = self.submit(req, extra)?;
        self.complete(op)
    }

    // ------------------------------------------------------------ rank ops
    //
    // One pipeline carries every matrix transfer (§4.1): `transfer` splits
    // it into chunks of at most 64 entries and runs each to completion
    // before it builds the next, so a transfer holds one chunk's guest
    // pages at a time. Batching and the prefetch cache sit in front of it
    // in `write_rank` and `read_rank`. How the transfers of several ranks
    // overlap (§4.2) is the SDK's virtual-time composition; on the host
    // they run one after another.

    /// `write-to-rank`: writes per-DPU buffers into MRAM. When batching is
    /// enabled, an op made only of small writes is absorbed by the batch
    /// buffer, and any other op flushes the batch first.
    ///
    /// # Errors
    ///
    /// Transport or hardware failures.
    pub fn write_rank(&self, entries: &[(u32, u64, &[u8])]) -> Result<OpReport, VpimError> {
        if self.vcfg.request_batching
            && entries.iter().all(|(_, _, d)| d.len() as u64 <= SMALL_WRITE_MAX)
        {
            let mut report = OpReport::default();
            self.batch_writes(entries, &mut report)?;
            self.adapt_tick(&report);
            return Ok(report);
        }
        Ok(self.unbatched(Xfer::Write(entries))?.1)
    }

    /// [`write_rank`](Self::write_rank) from guest buffers: the matrix
    /// names the buffers' own pages instead of copies. Report, bytes and
    /// every counter are those of the same write from `&[u8]`. An op made
    /// only of small writes is batched exactly like the same bytes from
    /// `&[u8]`: the batch buffer copies them either way.
    ///
    /// # Errors
    ///
    /// As [`write_rank`](Self::write_rank); [`VpimError::BadRequest`] for a
    /// buffer of another guest.
    pub fn write_rank_pinned(
        &self,
        entries: &[(u32, u64, &GuestBuf)],
    ) -> Result<OpReport, VpimError> {
        if self.vcfg.request_batching
            && entries.iter().all(|(_, _, b)| b.len() as u64 <= SMALL_WRITE_MAX)
        {
            let bytes: Vec<Vec<u8>> = entries.iter().map(|(_, _, b)| b.to_vec()).collect();
            let staged: Vec<(u32, u64, &[u8])> =
                entries.iter().zip(&bytes).map(|((d, o, _), b)| (*d, *o, b.as_slice())).collect();
            return self.write_rank(&staged);
        }
        Ok(self.unbatched(Xfer::Pinned(entries))?.1)
    }

    /// Allocates a `len`-byte transfer buffer in this guest's RAM, for
    /// [`write_rank_pinned`](Self::write_rank_pinned).
    ///
    /// # Errors
    ///
    /// `OutOfPages` when the guest cannot hold it.
    pub fn alloc_buf(&self, len: usize) -> Result<GuestBuf, VpimError> {
        GuestBuf::alloc(&self.mem, len)
    }

    /// Whether the guest, as it is now, has room for the request and
    /// serialized matrix of a pinned write of `entries` buffers of `len`
    /// bytes each (at most one matrix's worth) — everything that write
    /// allocates besides the buffers themselves.
    #[must_use]
    pub fn has_room_to_pin(&self, entries: usize, len: usize) -> bool {
        let pages = (len as u64).div_ceil(PAGE_SIZE) as usize;
        let meta =
            TransferMatrix::serialized_len(std::iter::repeat_n(pages, entries.min(MAX_DPUS)));
        let meta_pages = (meta as u64).div_ceil(PAGE_SIZE) as usize;
        self.mem.free_pages() >= meta_pages + REQUEST_PAGES
    }

    /// `read-from-rank`: reads `(dpu, offset, len)` ranges. The batch is
    /// flushed first; a single cacheable request is then served through
    /// the prefetch cache, anything else from the rank. Returns one buffer
    /// per request, in request order, plus the cost report.
    ///
    /// # Errors
    ///
    /// Transport or hardware failures.
    pub fn read_rank(
        &self,
        reqs: &[(u32, u64, u64)],
    ) -> Result<(Vec<Vec<u8>>, OpReport), VpimError> {
        let mut report = self.flush_batch()?;
        // The cache serves the "host processes DPU data block by block in a
        // loop" pattern (§4.1): small reads targeting one DPU at a time.
        // Large parallel matrix reads bypass it.
        let outputs = match *reqs {
            [(dpu, offset, len)]
                if self.vcfg.prefetch_cache && self.state.lock().prefetch.cacheable(len) =>
            {
                vec![self.read_cached(dpu, offset, len, &mut report)?]
            }
            _ => {
                let (outputs, r) = self.transfer(Xfer::Read(reqs))?;
                report.absorb(&r);
                outputs
            }
        };
        self.adapt_tick(&report);
        Ok((outputs, report))
    }

    /// One whole op that bypasses the batch and the cache: the batch is
    /// flushed, `x` transferred, and the adaptive clock ticked once.
    fn unbatched(&self, x: Xfer<'_>) -> Result<(Vec<Vec<u8>>, OpReport), VpimError> {
        let mut report = self.flush_batch()?;
        let (outputs, r) = self.transfer(x)?;
        report.absorb(&r);
        self.adapt_tick(&report);
        Ok((outputs, report))
    }

    /// Sends buffered writes to the backend (also triggered automatically
    /// by any non-write request — §4.1).
    ///
    /// # Errors
    ///
    /// Transport or hardware failures.
    pub fn flush_batch(&self) -> Result<OpReport, VpimError> {
        // The state lock is dropped before the transport descent below —
        // the ordered token documents (and in debug builds checks) that
        // `STATE` stays a leaf relative to the lower layers.
        let drained = {
            let _order = simkit::ordered(simkit::LockLevel::Frontend, front_lock::STATE);
            let mut st = self.state.lock();
            if st.batch.is_empty() {
                // Reads, launches and barriers flush first, so most calls
                // find nothing buffered.
                return Ok(OpReport::default());
            }
            st.batch.drain()
        };
        let mut report = OpReport::default();
        for chunk in drained.views().chunks(MAX_DPUS) {
            report.absorb(&self.transfer(Xfer::Write(chunk))?.1);
        }
        Ok(report)
    }

    /// Durability barrier for persistent-heap commits ([`crate::pheap`]):
    /// drains the write-combining batch so every buffered write reaches
    /// the rank, then invalidates the prefetch cache so subsequent reads
    /// observe rank MRAM rather than stale prefetched pages. A no-op
    /// (zero-cost report) when nothing is buffered and the cache is cold.
    ///
    /// # Errors
    ///
    /// Transport or hardware failures from the flush.
    pub fn persist_barrier(&self) -> Result<OpReport, VpimError> {
        let report = self.flush_batch()?;
        {
            let _order = simkit::ordered(simkit::LockLevel::Frontend, front_lock::STATE);
            let mut st = self.state.lock();
            st.prefetch.invalidate();
            if let Some(a) = st.adapt.as_mut() {
                a.on_barrier();
            }
        }
        Ok(report)
    }

    /// The batching stage (§4.1): appends small writes to the batch buffer,
    /// flushing first when the buffer (or the adaptive controller) asks.
    fn batch_writes(
        &self,
        entries: &[(u32, u64, &[u8])],
        report: &mut OpReport,
    ) -> Result<(), VpimError> {
        let need_flush = {
            let mut st = self.state.lock();
            // One gap observation per op: the controller may ask for an
            // early flush (idle tenant) and retune the threshold the
            // overflow check below uses.
            let mut early = false;
            if st.adapt.is_some() {
                let pending = !st.batch.is_empty();
                let a = st.adapt.as_mut().expect("checked above");
                early = a.observe_append_gap(pending);
                let thr = a.batch_threshold_bytes();
                st.batch.set_flush_threshold(thr);
            }
            early
                || entries
                    .iter()
                    .any(|(dpu, _, d)| st.batch.would_overflow(*dpu, d.len() as u64))
        };
        if need_flush {
            report.absorb(&self.flush_batch()?);
        }
        for &(dpu, off, d) in entries {
            let mut appended = self.try_batch(dpu, off, d);
            if !appended {
                // Same-DPU entries overran the buffer mid-loop: flush and
                // retry once.
                report.absorb(&self.flush_batch()?);
                appended = self.try_batch(dpu, off, d);
            }
            if appended {
                report.add_duration(self.cm.batch_append(d.len() as u64));
            } else {
                report.absorb(&self.transfer(Xfer::Write(&[(dpu, off, d)]))?.1);
            }
        }
        Ok(())
    }

    fn try_batch(&self, dpu: u32, off: u64, d: &[u8]) -> bool {
        let mut st = self.state.lock();
        let appended = st.batch.append(dpu, off, d);
        if appended {
            if let Some(a) = st.adapt.as_mut() {
                a.note_write(dpu, off, d.len() as u64);
            }
        }
        appended
    }

    /// The prefetch stage (§4.1): serves one small read from the cache,
    /// fetching and installing a segment on a miss.
    fn read_cached(
        &self,
        dpu: u32,
        offset: u64,
        len: u64,
        report: &mut OpReport,
    ) -> Result<Vec<u8>, VpimError> {
        // Try the cache, serving straight into the output buffer (the hit
        // path allocates exactly the escaping result, nothing else).
        let mut out = Vec::with_capacity(len as usize);
        {
            let mut st = self.state.lock();
            if st.prefetch.lookup_into(dpu as usize, offset, len, &mut out) {
                if let Some(a) = st.adapt.as_mut() {
                    a.on_hit(dpu, len);
                }
                report.add_duration(self.cm.prefetch_hit(len));
                return Ok(out);
            }
        }
        // Miss: fetch a segment starting at the request address and
        // repopulate (§4.1 step 3). The static policy fetches the cache
        // capacity; the adaptive controller sizes the fetch from the window
        // it has learned — or exact-length with no install when the miss is
        // a write-then-read-back (DESIGN.md §16).
        let (seg_len, install) = {
            let mut st = self.state.lock();
            let cap = st.prefetch.capacity_bytes();
            let max = st.mram_size.saturating_sub(offset);
            let static_len = cap.min(max).max(len);
            let span = st.prefetch.segment_span(dpu as usize);
            match st.adapt.as_mut() {
                Some(a) => {
                    let plan = a.on_miss(dpu, offset, len, span);
                    let seg_len =
                        if plan.install { plan.fetch_bytes.min(max).max(len) } else { len };
                    a.note_fetch_delta(static_len, seg_len);
                    (seg_len, plan.install)
                }
                None => (static_len, true),
            }
        };
        let (mut seg, r) = self.transfer(Xfer::Read(&[(dpu, offset, seg_len)]))?;
        report.absorb(&r);
        let data = seg.pop().expect("one segment");
        if !install {
            // Suppressed prefetch: the exact-length direct read *is* the
            // answer; nothing is cached.
            return Ok(data);
        }
        let mut st = self.state.lock();
        st.prefetch.install(dpu as usize, offset, data);
        assert!(
            st.prefetch.lookup_into(dpu as usize, offset, len, &mut out),
            "freshly installed segment must serve the miss"
        );
        if let Some(a) = st.adapt.as_mut() {
            a.note_install(dpu, seg_len, len);
        }
        drop(st);
        report.add_duration(self.cm.prefetch_hit(len));
        Ok(out)
    }

    /// A transfer run to completion, bypassing batching and the cache and
    /// leaving the adaptive clock alone (the op it is part of ticks once).
    /// Its chunks run one after another; a failed chunk ends it, and the
    /// chunks after it are never sent.
    fn transfer(&self, x: Xfer<'_>) -> Result<(Vec<Vec<u8>>, OpReport), VpimError> {
        if !matches!(x, Xfer::Read(_)) {
            // A write can only stale the segments of the DPUs it touches;
            // launch/release keep the global invalidation path.
            let mut st = self.state.lock();
            st.prefetch.invalidate_dpus(x.writes().map(|(d, _, _)| d as usize));
            if let Some(a) = st.adapt.as_mut() {
                for (d, off, len) in x.writes() {
                    a.note_write(d, off, len);
                }
            }
        }
        let mut outputs = Vec::new();
        let mut report = OpReport::default();
        for chunk in x.chunks() {
            self.transfer_chunk(chunk, &mut outputs, &mut report)?;
        }
        Ok((outputs, report))
    }

    /// Builds one chunk's matrix, the one step where staged and pinned
    /// writes differ, serializes and submits it, and waits for the device.
    /// Folds the chunk's cost into `report`, whose virtual-time values come
    /// from the matrix and the response, and appends a read's per-entry
    /// outputs. The chunk's guest pages go back when it returns.
    fn transfer_chunk(
        &self,
        x: Xfer<'_>,
        outputs: &mut Vec<Vec<u8>>,
        report: &mut OpReport,
    ) -> Result<(), VpimError> {
        let (matrix, _staged, req) = match x {
            Xfer::Write(entries) => {
                let (m, lease) = TransferMatrix::from_user_buffers(&self.mem, entries)?;
                (m, Some(lease), Request::WriteRank { nr_dpus: entries.len() as u32 })
            }
            Xfer::Pinned(entries) => {
                let m = TransferMatrix::from_guest_bufs(&self.mem, entries)?;
                (m, None, Request::WriteRank { nr_dpus: entries.len() as u32 })
            }
            Xfer::Read(reqs) => {
                let (m, lease) = TransferMatrix::alloc_read_buffers(&self.mem, reqs)?;
                (m, Some(lease), Request::ReadRank { nr_dpus: reqs.len() as u32 })
            }
        };
        let pages = matrix.total_pages();
        report.step(WriteStep::PageMgmt, self.cm.page_mgmt(pages));
        let (bufs, _meta_lease) = matrix.serialize_pooled(&self.mem, &self.scratch)?;
        report.step(WriteStep::Serialize, self.cm.serialize_matrix(pages));
        let op = loop {
            match self.submit(&req, &bufs) {
                // Other threads' chains hold every descriptor.
                Err(VpimError::Virtio(VirtioError::QueueFull)) => self.reclaim()?,
                op => break op?,
            }
        };
        let (resp, rt) = self.complete(op)?;
        report.absorb(&rt);
        report.step(
            WriteStep::Deserialize,
            VirtualNanos::from_nanos(resp.deser_ns + resp.translate_ns),
        );
        report.step(WriteStep::TransferData, VirtualNanos::from_nanos(resp.transfer_ns));
        report.add_ddr(VirtualNanos::from_nanos(resp.ddr_ns));
        report.add_rank_ops(1);
        if matches!(x, Xfer::Read(_)) {
            for entry in &matrix.entries {
                outputs.push(TransferMatrix::gather(&self.mem, entry)?);
                report.add_duration(self.cm.memcpy(entry.len));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------- CI ops

    /// Loads a program image by name (CI operation).
    ///
    /// # Errors
    ///
    /// Unknown kernel, IRAM overflow, or transport failures.
    pub fn load_program(&self, name: &str, dpus: &[u32]) -> Result<OpReport, VpimError> {
        let mut report = self.flush_batch()?;
        let (_, rt) = self.roundtrip(
            &Request::LoadProgram { name: name.to_string(), dpus: dpus.to_vec() },
            &[],
        )?;
        report.absorb(&rt);
        self.adapt_tick(&report);
        Ok(report)
    }

    /// Boots the loaded program and returns the slowest DPU's cycle count
    /// in the report. Invalidates the prefetch cache (§4.1).
    ///
    /// # Errors
    ///
    /// DPU faults surface as [`VpimError::Sim`].
    pub fn launch(&self, dpus: &[u32], nr_tasklets: u32) -> Result<OpReport, VpimError> {
        let mut report = self.flush_batch()?;
        {
            let mut st = self.state.lock();
            st.prefetch.invalidate();
            if let Some(a) = st.adapt.as_mut() {
                a.on_barrier();
            }
        }
        let (resp, rt) =
            self.roundtrip(&Request::Launch { dpus: dpus.to_vec(), nr_tasklets }, &[])?;
        report.absorb(&rt);
        report.set_launch_cycles(resp.launch_cycles);
        self.adapt_tick(&report);
        Ok(report)
    }

    /// Polls one DPU's status (CI operation).
    ///
    /// # Errors
    ///
    /// Transport failures or an invalid DPU.
    pub fn poll_status(&self, dpu: u32) -> Result<(CiStatus, OpReport), VpimError> {
        let (resp, report) = self.roundtrip(&Request::PollStatus { dpu }, &[])?;
        self.adapt_tick(&report);
        let code = resp.payload.first().copied().unwrap_or(0);
        let status = match code {
            1 => CiStatus::Running,
            2 => CiStatus::Done,
            3 => CiStatus::Fault,
            _ => CiStatus::Idle,
        };
        Ok((status, report))
    }

    /// Writes a host symbol on one DPU.
    ///
    /// # Errors
    ///
    /// Unknown symbol, size mismatch, or transport failures.
    pub fn write_symbol(
        &self,
        dpu: u32,
        name: &str,
        bytes: &[u8],
    ) -> Result<OpReport, VpimError> {
        if bytes.len() > 4096 {
            return Err(VpimError::BadRequest(format!(
                "symbol payload of {} bytes exceeds one page",
                bytes.len()
            )));
        }
        let mut report = self.flush_batch()?;
        let mut lease = PageLease::new(&self.mem);
        let page = lease.grow(1)?[0];
        self.mem.write(page, bytes)?;
        let (_, rt) = self.roundtrip(
            &Request::WriteSymbol { dpu, name: name.to_string(), len: bytes.len() as u32 },
            &[(page, bytes.len() as u32, false)],
        )?;
        lease.release();
        report.absorb(&rt);
        self.adapt_tick(&report);
        Ok(report)
    }

    /// Writes one `u32` symbol on many DPUs with a single request (the
    /// SDK's parallel argument push — one transition per rank instead of
    /// one per DPU).
    ///
    /// # Errors
    ///
    /// Unknown symbol or transport failures.
    pub fn scatter_symbol(
        &self,
        name: &str,
        entries: &[(u32, u32)],
    ) -> Result<OpReport, VpimError> {
        let mut report = self.flush_batch()?;
        for chunk in entries.chunks(MAX_DPUS) {
            let (_, rt) = self.roundtrip(
                &Request::ScatterSymbol { name: name.to_string(), entries: chunk.to_vec() },
                &[],
            )?;
            report.absorb(&rt);
        }
        self.adapt_tick(&report);
        Ok(report)
    }

    /// Reads a host symbol from one DPU.
    ///
    /// # Errors
    ///
    /// Unknown symbol, size mismatch, a `len` the one-page status buffer
    /// cannot carry, or transport failures.
    pub fn read_symbol(
        &self,
        dpu: u32,
        name: &str,
        len: usize,
    ) -> Result<(Vec<u8>, OpReport), VpimError> {
        if len > 4096 - Response::FIXED_LEN {
            return Err(VpimError::BadRequest(format!(
                "symbol read of {len} bytes exceeds one status page"
            )));
        }
        let mut report = self.flush_batch()?;
        let (resp, rt) = self.roundtrip(
            &Request::ReadSymbol { dpu, name: name.to_string(), len: len as u32 },
            &[],
        )?;
        report.absorb(&rt);
        self.adapt_tick(&report);
        Ok((resp.payload, report))
    }

    /// Detaches the device from its physical rank; the manager's observer
    /// will reset and recycle it.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn release_rank(&self) -> Result<OpReport, VpimError> {
        let mut report = self.flush_batch()?;
        {
            let mut st = self.state.lock();
            st.prefetch.invalidate();
            if let Some(a) = st.adapt.as_mut() {
                a.on_barrier();
            }
        }
        let (_, rt) = self.roundtrip(&Request::ReleaseRank, &[])?;
        report.absorb(&rt);
        self.adapt_tick(&report);
        Ok(report)
    }

    /// Charges the analytic cost of the SDK's status-poll loop during a
    /// synchronous launch of `exec_time`: each poll is a CI read through
    /// the device (a full guest↔VMM round trip). One real poll was already
    /// issued by the caller; this accounts for the remaining `n-1`.
    #[must_use]
    pub fn sync_poll_cost(&self, exec_time: VirtualNanos) -> (u64, VirtualNanos) {
        let polls = self.cm.launch_polls(exec_time);
        let extra = polls.saturating_sub(1);
        (extra, self.cm.virtio_round_trip().saturating_mul(extra))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use upmem_driver::UpmemDriver;
    use upmem_sim::kernel::SymbolDef;
    use upmem_sim::{DpuContext, DpuFault, DpuKernel, KernelImage, PimConfig, PimMachine};

    use crate::config::VpimConfig;
    use crate::error::VpimError;
    use crate::report::OpReport;
    use crate::system::{StartOpts, TenantSpec, VpimSystem};

    /// A kernel that only carries one `u32` host symbol.
    struct OneSymbol;

    impl DpuKernel for OneSymbol {
        fn image(&self) -> KernelImage {
            KernelImage::new("one_symbol", 512).with_symbol(SymbolDef::u32("n"))
        }
        fn run(&self, _ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
            Ok(())
        }
    }

    #[test]
    fn read_symbol_refuses_a_len_the_status_page_cannot_carry() {
        let machine = PimMachine::new(PimConfig::small());
        machine.register_kernel(Arc::new(OneSymbol));
        let driver = Arc::new(UpmemDriver::new(machine));
        let sys = VpimSystem::start(driver, VpimConfig::full(), StartOpts::default());
        let vm = sys.launch(TenantSpec::new("vm-0")).unwrap();
        let fe = vm.frontend(0);
        fe.load_program("one_symbol", &[0]).unwrap();
        fe.write_symbol(0, "n", &7u32.to_le_bytes()).unwrap();

        let vmexits = || sys.registry().snapshot().count("vmm.vmexits");
        let before = vmexits();
        for len in [(1usize << 32) + 4, 4097] {
            let got = fe.read_symbol(0, "n", len);
            assert!(matches!(got, Err(VpimError::BadRequest(_))), "len {len}: {got:?}");
        }
        assert_eq!(vmexits(), before, "a refused read never kicks");
        let (bytes, _) = fe.read_symbol(0, "n", 4).unwrap();
        assert_eq!(bytes, 7u32.to_le_bytes());
        sys.shutdown();
    }

    #[test]
    fn an_empty_flush_submits_nothing_and_counts_nothing() {
        let driver = Arc::new(UpmemDriver::new(PimMachine::new(PimConfig::small())));
        let sys = VpimSystem::start(driver, VpimConfig::full(), StartOpts::default());
        let vm = sys.launch(TenantSpec::new("vm-0")).unwrap();
        let fe = vm.frontend(0);
        // One small write is buffered and flushed for real first, so the
        // counters below exist and the batch has been drained once.
        fe.write_rank(&[(0, 0, &[7u8; 64][..])]).unwrap();
        assert_ne!(fe.flush_batch().unwrap(), OpReport::default());

        let watched = || {
            let snap = sys.registry().snapshot();
            let batch: Vec<_> = snap
                .with_prefix("frontend.batch")
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect();
            (batch, snap.count("vmm.vmexits"), snap.count("backend.writes"))
        };
        let before = watched();
        assert!(!before.0.is_empty(), "the batch counters are registered");
        for _ in 0..3 {
            assert_eq!(fe.flush_batch().unwrap(), OpReport::default());
        }
        assert_eq!(watched(), before, "no chain, no kick, no batch counter");
        sys.shutdown();
    }
}
