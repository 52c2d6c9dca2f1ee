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
//! Every guest page a request names belongs to one chain value, which
//! gives them back when it drops: once the status page is decoded, or, for
//! a request whose kick was given up, once the used ring hands it back.

pub mod adapt;
mod batch;
pub mod policy;
mod prefetch;

pub use adapt::AdaptState;
pub use batch::{BatchBuffer, PendingWrites};
pub use prefetch::PrefetchCache;

use std::sync::Arc;

use pim_virtio::memory::PAGE_SIZE;
use pim_virtio::mmio::{reg, status as mmio_status};
use pim_virtio::queue::{DriverQueue, QueueLayout};
use pim_virtio::{Gpa, GuestMemory, VirtioError};
use pim_vmm::{EventManager, VirtioDevice};
use simkit::sync::Mutex;
use simkit::{
    BytePool, CostModel, Counter, Gauge, LockLevel, MetricsRegistry, RetryMetrics, RetryPolicy,
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

/// Every guest page one `transferq` chain names: its request and status
/// pages and, for a transfer, its serialized matrix and its staged data,
/// read buffers or pinned buffers. The device may reach them whenever it
/// runs the chain, so this drops only once the device is done with it.
#[derive(Debug, Default)]
struct Chain {
    leases: Vec<PageLease>,
    bufs: Vec<GuestBuf>,
}

impl Chain {
    /// Allocates `n` guest pages the chain owns from now on.
    fn lease(&mut self, mem: &GuestMemory, n: usize) -> Result<&[Gpa], VpimError> {
        self.leases.push(PageLease::alloc(mem, n)?);
        Ok(self.leases.last().expect("just pushed").pages())
    }
}

/// The driver side of `transferq`, with the chains parked on it.
#[derive(Debug)]
struct Ring {
    queue: DriverQueue,
    /// Chains whose kick was given up, by head: they run at the next kick.
    parked: Vec<(u16, Chain)>,
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
    fn chunks(self) -> impl Iterator<Item = Xfer<'a>> {
        let (w, p, r) = match self {
            Xfer::Write(w) => (w, &[][..], &[][..]),
            Xfer::Pinned(p) => (&[][..], p, &[][..]),
            Xfer::Read(r) => (&[][..], &[][..], r),
        };
        let w = w.chunks(MAX_DPUS).map(Xfer::Write);
        w.chain(p.chunks(MAX_DPUS).map(Xfer::Pinned)).chain(r.chunks(MAX_DPUS).map(Xfer::Read))
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
/// [`LockLevel::Frontend`] (below the fleet's levels, above the device's —
/// see `simkit::lockorder`). Neither is held across a kick, so the device
/// layer below is always entered from a clean frontend:
///
/// * `STATE` (0) — batching/prefetch state; a leaf in practice: never held
///   across the transport path or another frontend lock.
/// * `QUEUE` (1) — the driver-side virtqueue and its parked chains:
///   adding a chain, parking one, draining the used ring.
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
    ring: Mutex<Ring>,
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
            ring: Mutex::new(LockLevel::Frontend, front_lock::QUEUE, Ring {
                queue: DriverQueue::new(mem.clone(), layout),
                parked: Vec::new(),
            }),
            mem,
            cm,
            vcfg,
            state: Mutex::new(LockLevel::Frontend, front_lock::STATE, FrontState {
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
        let mut report = OpReport::default();
        let resp = self.control(&Request::Configure, &mut report)?;
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

    /// Adds `req`'s chain, naming `extra`, to `transferq` and returns its
    /// head and status page, which joins `chain` with the request page. A
    /// queue other threads' chains fill is waited out.
    fn submit(
        &self,
        req: &Request,
        extra: &[(Gpa, u32, bool)],
        chain: &mut Chain,
    ) -> Result<(u16, Gpa), VpimError> {
        let pages = chain.lease(&self.mem, REQUEST_PAGES)?;
        let (req_page, status_page) = (pages[0], pages[1]);
        let enc = req.encode();
        self.mem.write(req_page, &enc)?;

        let mut bufs: Vec<(Gpa, u32, bool)> = Vec::with_capacity(extra.len() + 2);
        bufs.push((req_page, enc.len() as u32, false));
        bufs.extend_from_slice(extra);
        bufs.push((status_page, 4096, true));
        let head = loop {
            let added = self.ring.lock().queue.add_chain(&bufs);
            match added {
                // A kick that adds no chain returns once the device has run
                // every chain added before it, and the drain frees them.
                Err(VirtioError::QueueFull) => {
                    self.kick()?;
                    self.drain_used()?;
                }
                added => break added?,
            }
        };
        self.metrics.queue_depth.add(1);
        Ok((head, status_page))
    }

    /// The guest kick: an MMIO write that traps to the VMM, which runs the
    /// device's handler on this thread.
    fn kick(&self) -> Result<(), VpimError> {
        self.device.mmio().write(reg::QUEUE_NOTIFY, spec::TRANSFERQ)?;
        Ok(self.em.kick(self.device_idx, spec::TRANSFERQ)?)
    }

    /// Kicks the device for the submitted chain `head`, decodes its
    /// response and folds the round trip's cost into `report`. The device
    /// handles its chains one at a time in avail-ring order, so once this
    /// chain's kick has been handled its status page is written, whichever
    /// thread's kick ran the chain; [`drain_used`](Self::drain_used) then
    /// only recycles descriptors. The caller drops `chain` afterwards.
    ///
    /// Transient failures are retried under the
    /// [`TimeoutClass::VirtioRoundTrip`] policy (bounded attempts,
    /// virtual-time exponential backoff with deterministic jitter seeded
    /// from `VpimConfig.inject.seed`): a dropped kick never dispatched the
    /// chain — it is still pending in the avail ring — so the guest
    /// re-notifies and re-kicks; an injected EIO on the status page simply
    /// re-reads it. All backoff is virtual time charged to the op's report;
    /// no thread sleeps for it.
    ///
    /// When every kick retry fails, the op fails but its chain stays in
    /// the avail ring and runs at the device's next kick, before any later
    /// op's: a given-up write may still land, on its own DPUs from its own
    /// pages. Those pages are [`park`](Self::park)ed until then, so no
    /// later op is given a page the device may still reach.
    fn complete(
        &self,
        head: u16,
        status_page: Gpa,
        chain: &mut Chain,
        report: &mut OpReport,
    ) -> Result<Response, VpimError> {
        // One budget for both loops: a kick retry leaves less for the
        // status read.
        let mut budget = RetryPolicy::for_class(&self.cm, TimeoutClass::VirtioRoundTrip)
            .budget(self.vcfg.inject.seed, Some(&self.retry));

        let mut kicked = self.kick();
        while let Err(e) = &kicked {
            if !budget.retry(e.is_transient()) {
                self.park(head, chain);
                break;
            }
            kicked = self.kick();
        }
        kicked?;
        self.metrics.queue_depth.sub(1);
        self.drain_used()?;

        // Decoded where it lies, inside the borrow of the status page.
        let resp = loop {
            match self.mem.with_slice(status_page, 4096, Response::decode) {
                Ok(decoded) => break decoded?,
                Err(e) => {
                    let e = VpimError::from(e);
                    if !budget.retry(e.is_transient()) {
                        return Err(e);
                    }
                }
            }
        };

        report.add_messages(1);
        report.step(WriteStep::Interrupt, self.cm.virtio_round_trip());
        report.add_duration(budget.backoff());
        if resp.is_ok() {
            Ok(resp)
        } else {
            Err(Self::response_error(&resp))
        }
    }

    /// Keeps a given-up chain until [`drain_used`](Self::drain_used) sees
    /// its head, unless another thread's kick has already run and drained
    /// it.
    fn park(&self, head: u16, chain: &mut Chain) {
        let mut ring = self.ring.lock();
        if ring.queue.in_flight(head) {
            ring.parked.push((head, std::mem::take(chain)));
        } else {
            self.metrics.queue_depth.sub(1);
        }
    }

    /// Acknowledges the interrupt and recycles the descriptors of every
    /// chain in the used ring, and the pages of the parked ones. Any thread
    /// may drain any entry: a chain reaches the used ring only after its
    /// status page is written.
    fn drain_used(&self) -> Result<(), VpimError> {
        self.device.mmio().write(reg::INTERRUPT_ACK, 1)?;
        let mut ring = self.ring.lock();
        while let Some((head, _)) = ring.queue.poll_used()? {
            if let Some(i) = ring.parked.iter().position(|(h, _)| *h == head) {
                ring.parked.swap_remove(i);
                self.metrics.queue_depth.sub(1);
            }
        }
        Ok(())
    }

    /// One full request/response exchange over `transferq`; `chain` owns
    /// every page the request names.
    fn roundtrip(
        &self,
        req: &Request,
        extra: &[(Gpa, u32, bool)],
        chain: &mut Chain,
        report: &mut OpReport,
    ) -> Result<Response, VpimError> {
        let (head, status_page) = self.submit(req, extra, chain)?;
        self.complete(head, status_page, chain, report)
    }

    /// A round trip for a request that names no page but its own.
    fn control(&self, req: &Request, report: &mut OpReport) -> Result<Response, VpimError> {
        self.roundtrip(req, &[], &mut Chain::default(), report)
    }

    /// Every op's one path: `prelude` (nothing, the batch flush or a
    /// [`persist_barrier`](Self::persist_barrier)), then `body`, which runs
    /// the op's requests into its report, then one tick of the adaptive
    /// clock, DESIGN.md §16's "operation boundary" (one branch when off).
    fn op<T>(
        &self,
        prelude: fn(&Self) -> Result<OpReport, VpimError>,
        body: impl FnOnce(&mut OpReport) -> Result<T, VpimError>,
    ) -> Result<(T, OpReport), VpimError> {
        let mut report = prelude(self)?;
        let out = body(&mut report)?;
        if self.vcfg.adapt.enabled {
            if let Some(a) = self.state.lock().adapt.as_mut() {
                a.tick(report.duration());
            }
        }
        Ok((out, report))
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
            return Ok(self.op(|_| Ok(OpReport::default()), |r| self.batch_writes(entries, r))?.1);
        }
        Ok(self.op(Self::flush_batch, |r| self.transfer(Xfer::Write(entries), r))?.1)
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
        Ok(self.op(Self::flush_batch, |r| self.transfer(Xfer::Pinned(entries), r))?.1)
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
    /// flushed first; a single request is then read as
    /// [`read_one`](Self::read_one) reads it, anything else from the rank.
    /// Returns one buffer per request, in request order, plus the cost
    /// report.
    ///
    /// # Errors
    ///
    /// Transport or hardware failures.
    pub fn read_rank(
        &self,
        reqs: &[(u32, u64, u64)],
    ) -> Result<(Vec<Vec<u8>>, OpReport), VpimError> {
        if let [(dpu, offset, len)] = *reqs {
            let (data, report) = self.read_one(dpu, offset, len)?;
            return Ok((vec![data], report));
        }
        self.op(Self::flush_batch, |report| self.transfer(Xfer::Read(reqs), report))
    }

    /// [`read_rank`](Self::read_rank) of the one range `(dpu, offset,
    /// len)`, returning its bytes alone. The batch is flushed first; a
    /// cacheable read is then served through the prefetch cache, whose hit
    /// allocates nothing but the returned buffer.
    ///
    /// # Errors
    ///
    /// Transport or hardware failures.
    pub fn read_one(
        &self,
        dpu: u32,
        offset: u64,
        len: u64,
    ) -> Result<(Vec<u8>, OpReport), VpimError> {
        self.op(Self::flush_batch, |report| {
            // The cache serves the "host processes DPU data block by block
            // in a loop" pattern (§4.1): small reads targeting one DPU at a
            // time. Large reads bypass it.
            if self.vcfg.prefetch_cache && self.state.lock().prefetch.cacheable(len) {
                self.read_cached(dpu, offset, len, report)
            } else {
                self.read_uncached(dpu, offset, len, report)
            }
        })
    }

    /// One range read from the rank, bypassing the cache.
    fn read_uncached(
        &self,
        dpu: u32,
        offset: u64,
        len: u64,
        report: &mut OpReport,
    ) -> Result<Vec<u8>, VpimError> {
        let mut out = self.transfer(Xfer::Read(&[(dpu, offset, len)]), report)?;
        Ok(out.pop().expect("one range requested"))
    }

    /// Sends buffered writes to the backend (also triggered automatically
    /// by any non-write request — §4.1).
    ///
    /// # Errors
    ///
    /// Transport or hardware failures.
    pub fn flush_batch(&self) -> Result<OpReport, VpimError> {
        // The state lock is dropped before the transport descent below.
        let drained = {
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
            self.transfer(Xfer::Write(chunk), &mut report)?;
        }
        self.state.lock().batch.recycle(drained);
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
        let mut st = self.state.lock();
        st.prefetch.invalidate();
        if let Some(a) = st.adapt.as_mut() {
            a.on_barrier();
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
                self.transfer(Xfer::Write(&[(dpu, off, d)]), report)?;
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
        let data = self.read_uncached(dpu, offset, seg_len, report)?;
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
    /// leaving the adaptive clock alone (the op it is part of ticks once);
    /// its cost is folded into `report`. Its chunks run one after another;
    /// a failed chunk ends it, and the chunks after it are never sent.
    fn transfer(&self, x: Xfer<'_>, report: &mut OpReport) -> Result<Vec<Vec<u8>>, VpimError> {
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
        for chunk in x.chunks() {
            self.transfer_chunk(chunk, &mut outputs, report)?;
        }
        Ok(outputs)
    }

    /// Builds one chunk's matrix, the one step where staged and pinned
    /// writes differ, serializes and submits it, and waits for the device.
    /// Folds the chunk's cost into `report`, whose virtual-time values come
    /// from the matrix and the response, and appends a read's per-entry
    /// outputs. The chunk's [`Chain`] owns its guest pages (and clones of
    /// its pinned buffers), which go back when it drops.
    fn transfer_chunk(
        &self,
        x: Xfer<'_>,
        outputs: &mut Vec<Vec<u8>>,
        report: &mut OpReport,
    ) -> Result<(), VpimError> {
        let mut chain = Chain::default();
        let (matrix, req) = match x {
            Xfer::Write(entries) => {
                let (m, lease) = TransferMatrix::from_user_buffers(&self.mem, entries)?;
                chain.leases.push(lease);
                (m, Request::WriteRank { nr_dpus: entries.len() as u32 })
            }
            Xfer::Pinned(entries) => {
                let m = TransferMatrix::from_guest_bufs(&self.mem, entries)?;
                chain.bufs = entries.iter().map(|&(_, _, b)| b.clone()).collect();
                (m, Request::WriteRank { nr_dpus: entries.len() as u32 })
            }
            Xfer::Read(reqs) => {
                let (m, lease) = TransferMatrix::alloc_read_buffers(&self.mem, reqs)?;
                chain.leases.push(lease);
                (m, Request::ReadRank { nr_dpus: reqs.len() as u32 })
            }
        };
        let pages = matrix.total_pages();
        report.step(WriteStep::PageMgmt, self.cm.page_mgmt(pages));
        let (bufs, meta) = matrix.serialize_pooled(&self.mem, &self.scratch)?;
        chain.leases.push(meta);
        report.step(WriteStep::Serialize, self.cm.serialize_matrix(pages));
        let resp = self.roundtrip(&req, &bufs, &mut chain, report)?;
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
        let req = Request::LoadProgram { name: name.to_string(), dpus: dpus.to_vec() };
        Ok(self.op(Self::flush_batch, |r| self.control(&req, r))?.1)
    }

    /// Boots the loaded program and returns the slowest DPU's cycle count
    /// in the report. Invalidates the prefetch cache (§4.1).
    ///
    /// # Errors
    ///
    /// DPU faults surface as [`VpimError::Sim`].
    pub fn launch(&self, dpus: &[u32], nr_tasklets: u32) -> Result<OpReport, VpimError> {
        let req = Request::Launch { dpus: dpus.to_vec(), nr_tasklets };
        let (resp, mut report) = self.op(Self::persist_barrier, |r| self.control(&req, r))?;
        report.set_launch_cycles(resp.launch_cycles);
        Ok(report)
    }

    /// Polls one DPU's status (CI operation). Unlike every other control
    /// op, a poll leaves the write batch buffered.
    ///
    /// # Errors
    ///
    /// Transport failures or an invalid DPU.
    pub fn poll_status(&self, dpu: u32) -> Result<(CiStatus, OpReport), VpimError> {
        let req = Request::PollStatus { dpu };
        let (resp, report) = self.op(|_| Ok(OpReport::default()), |r| self.control(&req, r))?;
        let status = match resp.payload.first().copied().unwrap_or(0) {
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
        let req = Request::WriteSymbol { dpu, name: name.to_string(), len: bytes.len() as u32 };
        let (_, report) = self.op(Self::flush_batch, |r| {
            let mut chain = Chain::default();
            let page = chain.lease(&self.mem, 1)?[0];
            self.mem.write(page, bytes)?;
            self.roundtrip(&req, &[(page, bytes.len() as u32, false)], &mut chain, r)
        })?;
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
        let (_, report) = self.op(Self::flush_batch, |r| {
            entries.chunks(MAX_DPUS).try_for_each(|chunk| {
                let req =
                    Request::ScatterSymbol { name: name.to_string(), entries: chunk.to_vec() };
                self.control(&req, r).map(drop)
            })
        })?;
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
        let req = Request::ReadSymbol { dpu, name: name.to_string(), len: len as u32 };
        let (resp, report) = self.op(Self::flush_batch, |r| self.control(&req, r))?;
        Ok((resp.payload, report))
    }

    /// Detaches the device from its physical rank. Nobody tells the
    /// manager: the next rank request's sysfs sweep resets and recycles
    /// it.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn release_rank(&self) -> Result<OpReport, VpimError> {
        Ok(self.op(Self::persist_barrier, |r| self.control(&Request::ReleaseRank, r))?.1)
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

    use super::Chain;
    use crate::config::VpimConfig;
    use crate::error::VpimError;
    use crate::report::OpReport;
    use crate::spec::Request;
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

    #[test]
    fn a_given_up_chain_another_kick_already_ran_is_not_parked() {
        let driver = Arc::new(UpmemDriver::new(PimMachine::new(PimConfig::small())));
        let sys = VpimSystem::start(driver, VpimConfig::full(), StartOpts::default());
        let vm = sys.launch(TenantSpec::new("vm-0")).unwrap();
        let fe = vm.frontend(0);
        let free = fe.mem.free_pages();
        let mut chain = Chain::default();
        let (head, _) = fe.submit(&Request::PollStatus { dpu: 0 }, &[], &mut chain).unwrap();
        // Another guest thread's kick runs the chain and drains its head
        // before this thread gives its own kick up.
        fe.kick().unwrap();
        fe.drain_used().unwrap();
        fe.park(head, &mut chain);
        assert!(fe.ring.lock().parked.is_empty(), "a drained chain is not parked");
        assert_eq!(chain.leases.len(), 1, "its pages stay with the caller");
        drop(chain);
        assert_eq!(fe.mem.free_pages(), free);
        assert_eq!(sys.registry().snapshot().level("virtio.queue.depth.rank0"), 0);
        sys.shutdown();
    }
}
