//! The vPIM backend (§3.1, §4.2): the device model inside Firecracker.
//!
//! The backend decodes requests popped from `transferq`, translates the
//! transfer matrix's guest page addresses to host addresses with a thread
//! pool, performs the operation on the physical rank in performance mode
//! (mmap), and returns the payload plus its own timing breakdown. The
//! paper's testbed spreads DPU operations over 8 threads (one per chip);
//! that width is modelled by `CostModel::backend_threads`. The host's own
//! data pool has one worker per CPU the process may run on.

pub mod datapath;
pub mod partition;

use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use pim_virtio::queue::DescChain;
use pim_virtio::{Gpa, GuestMemory, SegCache};
use simkit::compose::pool_schedule;
use simkit::cost::DataPath;
use simkit::{
    BytePool, CostModel, Counter, FaultPlane, HasErrorKind, InjectCell, MetricsRegistry,
    VirtualNanos, WorkerPool,
};
use upmem_driver::{PerfMapping, UpmemDriver};
use upmem_sim::Rank;

use crate::config::VpimConfig;
use crate::error::VpimError;
use crate::manager::ManagerClient;
use crate::matrix::{DpuXfer, TransferMatrix};
use crate::sched::{RankSlot, Scheduler};
use crate::spec::{PimDeviceConfig, Request, Response};

/// The per-entry transfer unit [`run_entries`](Backend::run_entries)
/// executes: [`datapath::write_entry`] or [`datapath::read_entry`]. The
/// trailing `(Option<&FaultPlane>, u64)` pair is the fault plane (if
/// installed) and the entry's index in its request — the deterministic key
/// the chunk fault points are evaluated over.
type EntryOp = fn(
    &GuestMemory,
    &Rank,
    &DpuXfer,
    bool,
    DataPath,
    &BytePool,
    &mut SegCache,
    Option<&FaultPlane>,
    u64,
) -> Result<u64, VpimError>;

/// The host's data pool: one worker per CPU this process may run on.
/// `available_parallelism` reads the affinity mask, so a host pinned to
/// one CPU runs every matrix on the handler's thread and an N-CPU host
/// fans a matrix out at most N ways. Nothing in the cost model sizes it.
pub(crate) fn host_data_pool() -> Arc<WorkerPool> {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Arc::new(WorkerPool::new(cpus))
}

/// Response status: success.
pub const STATUS_OK: u32 = 0;
/// Response status: hardware/driver error (message in `error`).
pub const STATUS_HW: u32 = 1;
/// Response status: a DPU program faulted.
pub const STATUS_FAULT: u32 = 2;
/// Response status: no physical rank could be linked.
pub const STATUS_NOT_LINKED: u32 = 3;
/// Response status: malformed request.
pub const STATUS_BAD: u32 = 4;

/// Request counters (telemetry for tests and figures). The cells are
/// registry-owned ([`MetricsRegistry::counter`]), so every backend sharing a
/// registry aggregates into `backend.writes` / `backend.reads` /
/// `backend.ci`.
#[derive(Debug)]
pub struct BackendCounters {
    /// `write-to-rank` requests processed.
    pub writes: Counter,
    /// `read-from-rank` requests processed.
    pub reads: Counter,
    /// CI-class requests processed (load, launch, poll, symbols).
    pub ci: Counter,
    /// Payload bytes moved through the zero-copy data path
    /// (`datapath.bytes.zero_copy`): guest RAM → pooled scratch or borrowed
    /// view → MRAM and back, with no fresh per-entry heap allocation.
    pub zero_copy: Counter,
}

impl BackendCounters {
    fn from_registry(registry: &MetricsRegistry) -> Self {
        BackendCounters {
            writes: registry.counter("backend.writes"),
            reads: registry.counter("backend.reads"),
            ci: registry.counter("backend.ci"),
            zero_copy: registry.counter("datapath.bytes.zero_copy"),
        }
    }
}

/// The per-device backend.
#[derive(Debug)]
pub struct Backend {
    driver: Arc<UpmemDriver>,
    sched: Scheduler,
    vcfg: VpimConfig,
    cm: CostModel,
    owner: String,
    /// The scheduler's preemption unit: holding this lock is holding the
    /// safe-point token (see [`crate::sched`]).
    perf: RankSlot,
    counters: BackendCounters,
    pool: Arc<WorkerPool>,
    /// Scratch-buffer pool for the zero-copy data path (shared with the
    /// frontend serializer in the system wiring).
    scratch: BytePool,
    /// Late-bound fault plane for the chunk fault points.
    inject: InjectCell,
}

impl Backend {
    /// Creates a standalone backend for one vUPMEM device owned by `owner`
    /// (the VM tag; used for manager requests and driver claims), with a
    /// private registry, data pool (one worker per host CPU), scheduler and
    /// scratch pool. A host shares all four across its backends: see
    /// [`Self::with_parts`].
    #[must_use]
    pub fn new(
        driver: Arc<UpmemDriver>,
        manager: ManagerClient,
        vcfg: VpimConfig,
        cm: CostModel,
        owner: String,
    ) -> Self {
        let registry = MetricsRegistry::new();
        let pool = host_data_pool();
        let sched = Scheduler::new(driver.clone(), manager, vcfg.sched, cm.clone(), &registry);
        let scratch = BytePool::with_registry(&registry, "datapath.pool");
        Self::with_parts(driver, sched, vcfg, cm, owner, &registry, pool, scratch)
    }

    /// A backend on a host's shared parts. Every backend on a host must
    /// share one [`Scheduler`] (admission and preemption decisions must see
    /// all tenants); the system wiring also shares the registry (request
    /// counters aggregate as `backend.writes` / `backend.reads` /
    /// `backend.ci`), the one data pool for all DPU operations, and the
    /// scratch [`BytePool`], so a buffer released by the frontend
    /// serializer is reusable by any backend worker. The pool's width
    /// changes wall-clock overlap only, never a reported number.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn with_parts(
        driver: Arc<UpmemDriver>,
        sched: Scheduler,
        vcfg: VpimConfig,
        cm: CostModel,
        owner: String,
        registry: &MetricsRegistry,
        pool: Arc<WorkerPool>,
        scratch: BytePool,
    ) -> Self {
        Backend {
            driver,
            sched,
            vcfg,
            cm,
            owner,
            perf: Arc::new(Mutex::new(None)),
            counters: BackendCounters::from_registry(registry),
            pool,
            scratch,
            inject: InjectCell::new(),
        }
    }

    /// Installs the fault-injection plane consulted by the per-DPU chunk
    /// fault points ([`datapath::CHUNK_TORN_WRITE_POINT`],
    /// [`datapath::CHUNK_STALL_POINT`]).
    pub fn install_fault_plane(&self, plane: Arc<FaultPlane>) {
        self.inject.install(plane);
    }

    /// Request counters.
    #[must_use]
    pub fn counters(&self) -> &BackendCounters {
        &self.counters
    }

    /// The rank currently linked, if any.
    #[must_use]
    pub fn linked_rank(&self) -> Option<usize> {
        let _order = simkit::ordered(simkit::LockLevel::RankSlot, 0);
        self.perf.lock().as_ref().map(PerfMapping::rank_id)
    }

    /// The scheduler this backend acquires ranks through.
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// Links a physical rank through the scheduler if not already linked
    /// (§3.3: allocation happens at device instantiation or first DPU
    /// allocation). Under oversubscription a preempted backend relinks
    /// transparently here: its parked checkpoint is restored before the
    /// guard is returned, so the operation that triggered the relink sees
    /// the rank exactly as the preemption left it.
    ///
    /// # Errors
    ///
    /// Manager exhaustion (dedicated mode), admission timeout
    /// (oversubscribed mode) or a driver claim conflict.
    pub fn ensure_linked(&self) -> Result<MutexGuard<'_, Option<PerfMapping>>, VpimError> {
        // Rank slots sit at `LockLevel::RankSlot`, below the scheduler and
        // manager locks `acquire` takes while we hold the slot — the
        // canonical descending chain of the lock hierarchy. The token only
        // brackets acquisition (the guard legitimately outlives it and is
        // released by the caller).
        let _order = simkit::ordered(simkit::LockLevel::RankSlot, 0);
        let mut guard = self.perf.lock();
        if guard.is_none() {
            let grant = self.sched.acquire(&self.owner, &self.perf)?;
            *guard = Some(grant.mapping);
        }
        Ok(guard)
    }

    /// Unlinks the physical rank (drops the perf mapping; sysfs flips and
    /// the manager's observer takes over) and tells the scheduler the
    /// lease ended voluntarily.
    pub fn unlink(&self) {
        {
            let _order = simkit::ordered(simkit::LockLevel::RankSlot, 0);
            *self.perf.lock() = None;
        }
        self.sched.notify_release(&self.owner);
    }

    /// Processes one popped `transferq` chain and returns the response to
    /// write into the chain's status buffer. Never panics the VMM: every
    /// failure becomes an error response.
    #[must_use]
    pub fn process(&self, mem: &GuestMemory, chain: &DescChain) -> Response {
        let resp = match self.try_process(mem, chain) {
            Ok(resp) => resp,
            Err(e) => Response::err(classify(&e), e.kind(), e.to_string()),
        };
        if self.vcfg.sched.oversubscription && resp.status == STATUS_OK {
            // Charge the operation's modeled duration against this
            // tenant's lease. Virtual-time-derived, so lanes, inline
            // dispatch and any pool width grow the accounts identically.
            let vt = VirtualNanos::from_nanos(
                resp.deser_ns
                    .saturating_add(resp.translate_ns)
                    .saturating_add(resp.transfer_ns),
            ) + self.cm.dpu_cycles(resp.launch_cycles);
            self.sched.charge(&self.owner, vt);
        }
        resp
    }

    fn try_process(&self, mem: &GuestMemory, chain: &DescChain) -> Result<Response, VpimError> {
        if chain.descriptors.len() < 2 {
            return Err(VpimError::BadRequest("chain needs request + status".into()));
        }
        let req_desc = &chain.descriptors[0];
        // Decoded where it lies: the descriptor length is the guest's.
        let request = mem.with_slice(req_desc.addr, u64::from(req_desc.len), Request::decode)??;

        // Middle descriptors (between request and status) carry payloads.
        let middle: Vec<(Gpa, u32)> = chain.descriptors[1..chain.descriptors.len() - 1]
            .iter()
            .map(|d| (d.addr, d.len))
            .collect();

        match request {
            Request::Configure => self.handle_configure(),
            Request::WriteRank { nr_dpus } => self.handle_write(mem, &middle, nr_dpus, chain),
            Request::ReadRank { nr_dpus } => self.handle_read(mem, &middle, nr_dpus, chain),
            Request::LoadProgram { name, dpus } => self.handle_load(&name, &dpus),
            Request::Launch { dpus, nr_tasklets } => self.handle_launch(&dpus, nr_tasklets),
            Request::PollStatus { dpu } => self.handle_poll(dpu),
            Request::WriteSymbol { dpu, name, len } => {
                self.handle_write_symbol(mem, &middle, dpu, &name, len)
            }
            Request::ReadSymbol { dpu, name, len } => {
                let status = chain.descriptors.last().expect("length checked above");
                self.handle_read_symbol(dpu, &name, len, status.len)
            }
            Request::ScatterSymbol { name, entries } => self.handle_scatter(&name, &entries),
            Request::ReleaseRank => {
                self.unlink();
                Ok(Response::default())
            }
        }
    }

    fn handle_configure(&self) -> Result<Response, VpimError> {
        let guard = self.ensure_linked()?;
        let perf = guard.as_ref().expect("linked above");
        let cfg = PimDeviceConfig {
            clock_division: 2,
            mram_size: perf.rank().mram_size(),
            nr_cis: upmem_sim::geometry::CHIPS_PER_RANK as u32,
            nr_dpus: perf.dpu_count() as u32,
            freq_mhz: perf.rank().freq_mhz() as u32,
            power_mgmt: 1,
        };
        Ok(Response { payload: cfg.encode(), ..Response::default() })
    }

    /// DDR window time for a rank data operation: bounded by the shared
    /// bus (parallel bandwidth over the total), by the most-loaded single
    /// DPU's stream (serial bandwidth), and paying the per-region command
    /// overhead for every discontiguous entry.
    fn rank_ddr_time(
        &self,
        total_bytes: u64,
        per_dpu_bytes: &std::collections::HashMap<u32, u64>,
        entries: u64,
    ) -> VirtualNanos {
        let max_dpu = per_dpu_bytes.values().copied().max().unwrap_or(0);
        let bus = self.cm.rank_transfer_parallel(total_bytes);
        let stream = self.cm.rank_transfer_serial(max_dpu);
        bus.max(stream)
            + VirtualNanos::from_nanos(self.cm.rank_op_fixed_ns)
                .saturating_mul(entries.saturating_sub(1))
    }

    /// The deserialization + translation costs common to rank data ops.
    fn matrix_costs(&self, ndesc: u64, matrix: &TransferMatrix) -> (VirtualNanos, VirtualNanos) {
        let deser = self.cm.descriptor_walk(ndesc)
            + self.cm.deserialize_matrix(matrix.total_pages());
        let translate = self.cm.gpa_translate(matrix.total_pages());
        (deser, translate)
    }

    /// Virtual-time report for a rank data op, derived from the matrix
    /// alone (in entry order) so the numbers are bit-identical no matter
    /// how execution interleaves on the worker pool.
    fn data_op_response(&self, matrix: &TransferMatrix, ndesc: u64) -> Response {
        let mut per_entry = Vec::with_capacity(matrix.entries.len());
        let mut total_bytes = 0u64;
        let mut per_dpu_bytes = std::collections::HashMap::new();
        for entry in &matrix.entries {
            per_entry.push(self.cm.memcpy(entry.len));
            total_bytes += entry.len;
            *per_dpu_bytes.entry(entry.dpu).or_insert(0u64) += entry.len;
        }
        let (deser, translate) = self.matrix_costs(ndesc, matrix);
        // Per-DPU copies spread over the modelled `backend_threads`-wide
        // pool (§4.2's 8, one per chip), whatever the host runs; the byte
        // (de)interleaving runs on the handler's data path (the function
        // the paper rewrote in C), serially. The DDR time is bounded both
        // by the shared bus (parallel bandwidth over all bytes) and by the
        // slowest single DPU's stream (serial bandwidth) — so a one-DPU
        // matrix behaves like native serial mode, and batching merges
        // messages without reducing total data-writing time (§4.1).
        let prep = pool_schedule(per_entry, self.cm.backend_threads);
        let ddr = self.rank_ddr_time(total_bytes, &per_dpu_bytes, matrix.entries.len() as u64);
        let transfer =
            prep + datapath::interleave_cost(&self.cm, total_bytes, self.vcfg.data_path) + ddr;
        Response {
            deser_ns: deser.as_nanos(),
            translate_ns: translate.as_nanos(),
            transfer_ns: transfer.as_nanos(),
            ddr_ns: ddr.as_nanos(),
            ..Response::default()
        }
    }

    /// Executes a data op's per-entry work on the data pool, chunked along
    /// DPU boundaries (at most one chunk per pool worker) so no two
    /// workers touch the same MRAM bank; a one-chunk matrix runs on the
    /// handler's thread. Each worker draws scratch buffers from the shared
    /// [`BytePool`] and elides bounds re-checks with a chunk-local
    /// [`SegCache`]. On full success the bytes moved are published as
    /// `datapath.bytes.zero_copy`. On failure the error of the **lowest
    /// entry index** is returned — the same error a sequential in-order
    /// walk would report — so error responses do not depend on the pool's
    /// width. Which other entries' transfers already landed is unspecified,
    /// as on real hardware.
    fn run_entries(
        &self,
        mem: &GuestMemory,
        rank: &Arc<Rank>,
        matrix: &TransferMatrix,
        verify: bool,
        op: EntryOp,
    ) -> Result<(), VpimError> {
        let path = self.vcfg.data_path;
        let plane = self.inject.plane();
        let chunks = partition::partition_by_dpu(&matrix.entries, self.pool.workers());
        if chunks.len() <= 1 {
            let mut cache = SegCache::new();
            let mut moved = 0u64;
            for (i, entry) in matrix.entries.iter().enumerate() {
                moved += op(
                    mem,
                    rank,
                    entry,
                    verify,
                    path,
                    &self.scratch,
                    &mut cache,
                    plane.as_deref(),
                    i as u64,
                )?;
            }
            self.counters.zero_copy.add(moved);
            return Ok(());
        }
        let jobs: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let mem = mem.clone();
                let rank = Arc::clone(rank);
                let scratch = self.scratch.clone();
                let plane = plane.clone();
                let entries: Vec<(usize, DpuXfer)> = chunk
                    .entry_indices
                    .iter()
                    .map(|&i| (i, matrix.entries[i].clone()))
                    .collect();
                move || -> Result<u64, (usize, VpimError)> {
                    let mut cache = SegCache::new();
                    let mut moved = 0u64;
                    for (i, entry) in &entries {
                        moved += op(
                            &mem,
                            &rank,
                            entry,
                            verify,
                            path,
                            &scratch,
                            &mut cache,
                            plane.as_deref(),
                            *i as u64,
                        )
                        .map_err(|e| (*i, e))?;
                    }
                    Ok(moved)
                }
            })
            .collect();
        let outcomes = self.pool.run_all(jobs);
        let mut moved = 0u64;
        let mut first_failure: Option<(usize, VpimError)> = None;
        for outcome in outcomes {
            match outcome {
                Ok(bytes) => moved += bytes,
                Err((i, e)) => {
                    if first_failure.as_ref().is_none_or(|(fi, _)| i < *fi) {
                        first_failure = Some((i, e));
                    }
                }
            }
        }
        match first_failure {
            Some((_, e)) => Err(e),
            None => {
                // Published only on full success, so the total is the same
                // deterministic quantity the inline walk reports.
                self.counters.zero_copy.add(moved);
                Ok(())
            }
        }
    }

    fn handle_write(
        &self,
        mem: &GuestMemory,
        middle: &[(Gpa, u32)],
        nr_dpus: u32,
        chain: &DescChain,
    ) -> Result<Response, VpimError> {
        self.counters.writes.inc();
        let matrix = TransferMatrix::deserialize(mem, middle)?;
        if matrix.entries.len() != nr_dpus as usize {
            return Err(VpimError::BadRequest(format!(
                "request says {nr_dpus} dpus, matrix has {}",
                matrix.entries.len()
            )));
        }
        let guard = self.ensure_linked()?;
        let perf = guard.as_ref().expect("linked above");
        let verify = perf.rank().verify_interleave();
        self.run_entries(mem, perf.rank(), &matrix, verify, datapath::write_entry)?;
        Ok(self.data_op_response(&matrix, chain.descriptors.len() as u64))
    }

    fn handle_read(
        &self,
        mem: &GuestMemory,
        middle: &[(Gpa, u32)],
        nr_dpus: u32,
        chain: &DescChain,
    ) -> Result<Response, VpimError> {
        self.counters.reads.inc();
        let matrix = TransferMatrix::deserialize(mem, middle)?;
        if matrix.entries.len() != nr_dpus as usize {
            return Err(VpimError::BadRequest(format!(
                "request says {nr_dpus} dpus, matrix has {}",
                matrix.entries.len()
            )));
        }
        let guard = self.ensure_linked()?;
        let perf = guard.as_ref().expect("linked above");
        let verify = perf.rank().verify_interleave();
        self.run_entries(mem, perf.rank(), &matrix, verify, datapath::read_entry)?;
        Ok(self.data_op_response(&matrix, chain.descriptors.len() as u64))
    }

    fn dpu_list(dpus: &[u32]) -> Option<Vec<usize>> {
        if dpus.is_empty() {
            None
        } else {
            Some(dpus.iter().map(|d| *d as usize).collect())
        }
    }

    fn handle_load(&self, name: &str, dpus: &[u32]) -> Result<Response, VpimError> {
        self.counters.ci.inc();
        let guard = self.ensure_linked()?;
        let perf = guard.as_ref().expect("linked above");
        let image = self.driver.machine().registry().get(name)?.image();
        let list = Self::dpu_list(dpus);
        perf.load_program(list.as_deref(), &image)?;
        Ok(Response {
            transfer_ns: self.cm.ci_op().as_nanos() * perf.dpu_count() as u64,
            ..Response::default()
        })
    }

    fn handle_launch(&self, dpus: &[u32], nr_tasklets: u32) -> Result<Response, VpimError> {
        self.counters.ci.inc();
        let guard = self.ensure_linked()?;
        let perf = guard.as_ref().expect("linked above");
        let list = Self::dpu_list(dpus);
        let reports = perf.launch(list.as_deref(), nr_tasklets as usize)?;
        let max_cycles = reports.iter().map(|(_, r)| r.cycles).max().unwrap_or(0);
        Ok(Response { launch_cycles: max_cycles, ..Response::default() })
    }

    fn handle_poll(&self, dpu: u32) -> Result<Response, VpimError> {
        self.counters.ci.inc();
        let guard = self.ensure_linked()?;
        let perf = guard.as_ref().expect("linked above");
        let status = perf.poll_status(dpu as usize)?;
        let code: u8 = match status {
            upmem_sim::ci::CiStatus::Idle => 0,
            upmem_sim::ci::CiStatus::Running => 1,
            upmem_sim::ci::CiStatus::Done => 2,
            upmem_sim::ci::CiStatus::Fault => 3,
        };
        Ok(Response { payload: vec![code], ..Response::default() })
    }

    fn handle_write_symbol(
        &self,
        mem: &GuestMemory,
        middle: &[(Gpa, u32)],
        dpu: u32,
        name: &str,
        len: u32,
    ) -> Result<Response, VpimError> {
        self.counters.ci.inc();
        let (gpa, blen) = *middle
            .first()
            .ok_or_else(|| VpimError::BadRequest("write-symbol without payload".into()))?;
        if blen < len {
            return Err(VpimError::BadRequest("symbol payload shorter than declared".into()));
        }
        // Copied out: guest RAM must not stay borrowed while `ensure_linked`
        // may block on admission.
        let bytes = mem.with_slice(gpa, u64::from(len), <[u8]>::to_vec)?;
        let guard = self.ensure_linked()?;
        let perf = guard.as_ref().expect("linked above");
        perf.write_symbol(dpu as usize, name, &bytes)?;
        Ok(Response::default())
    }

    fn handle_scatter(&self, name: &str, entries: &[(u32, u32)]) -> Result<Response, VpimError> {
        self.counters.ci.inc();
        let guard = self.ensure_linked()?;
        let perf = guard.as_ref().expect("linked above");
        for (dpu, value) in entries {
            perf.write_symbol(*dpu as usize, name, &value.to_le_bytes())?;
        }
        Ok(Response {
            transfer_ns: self.cm.ci_op().saturating_mul(entries.len() as u64).as_nanos(),
            ..Response::default()
        })
    }

    /// `reply_len` is the status descriptor's length: `len` comes straight
    /// from the guest, so it is bounded by what the reply can carry before
    /// anything is allocated for it.
    fn handle_read_symbol(
        &self,
        dpu: u32,
        name: &str,
        len: u32,
        reply_len: u32,
    ) -> Result<Response, VpimError> {
        self.counters.ci.inc();
        if len as usize > (reply_len as usize).saturating_sub(Response::FIXED_LEN) {
            return Err(VpimError::BadRequest(format!(
                "read-symbol of {len} bytes does not fit the {reply_len}-byte status buffer"
            )));
        }
        let guard = self.ensure_linked()?;
        let perf = guard.as_ref().expect("linked above");
        let mut bytes = vec![0u8; len as usize];
        perf.read_symbol(dpu as usize, name, &mut bytes)?;
        Ok(Response { payload: bytes, ..Response::default() })
    }
}

fn classify(e: &VpimError) -> u32 {
    match e {
        VpimError::Sim(upmem_sim::SimError::Fault(_))
        | VpimError::Driver(upmem_driver::DriverError::Sim(upmem_sim::SimError::Fault(_))) => {
            STATUS_FAULT
        }
        VpimError::NoRankAvailable | VpimError::NotLinked | VpimError::ManagerDown => {
            STATUS_NOT_LINKED
        }
        VpimError::BadRequest(_) | VpimError::ProtocolViolation(_) => STATUS_BAD,
        _ => STATUS_HW,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{Manager, ManagerConfig};
    use pim_virtio::queue::{DeviceQueue, DriverQueue, QueueLayout};
    use upmem_sim::{PimConfig, PimMachine};

    struct Rig {
        mem: GuestMemory,
        driver_q: DriverQueue,
        device_q: DeviceQueue,
        backend: Backend,
        _mgr: Manager,
    }

    fn rig() -> Rig {
        let driver = Arc::new(UpmemDriver::new(PimMachine::new(PimConfig::small())));
        let mgr = Manager::start(driver.clone(), CostModel::default(), ManagerConfig::default());
        let backend = Backend::new(
            driver,
            mgr.client(),
            VpimConfig::full(),
            CostModel::default(),
            "vm-test".to_string(),
        );
        rig_around(backend, mgr)
    }

    fn rig_around(backend: Backend, mgr: Manager) -> Rig {
        let mem = GuestMemory::new(8 << 20);
        let layout = QueueLayout::alloc(&mem, 512).unwrap();
        Rig {
            driver_q: DriverQueue::new(mem.clone(), layout.clone()),
            device_q: DeviceQueue::new(mem.clone(), layout),
            mem,
            backend,
            _mgr: mgr,
        }
    }

    /// Sends a request + optional payload bufs through the queue pair and
    /// returns the backend's response.
    fn send(rig: &mut Rig, req: &Request, extra: &[(Gpa, u32, bool)]) -> Response {
        let req_page = rig.mem.alloc_pages(1).unwrap()[0];
        let enc = req.encode();
        rig.mem.write(req_page, &enc).unwrap();
        let status_page = rig.mem.alloc_pages(1).unwrap()[0];
        let mut bufs = vec![(req_page, enc.len() as u32, false)];
        bufs.extend_from_slice(extra);
        bufs.push((status_page, 4096, true));
        rig.driver_q.add_chain(&bufs).unwrap();
        let chain = rig.device_q.pop().unwrap().unwrap();
        let resp = rig.backend.process(&rig.mem, &chain);
        let enc = resp.encode();
        rig.mem.write(status_page, &enc).unwrap();
        rig.device_q.push_used(chain.head, enc.len() as u32).unwrap();
        let decoded = rig.mem.with_slice(status_page, 4096, Response::decode).unwrap().unwrap();
        rig.mem.free_pages_back(&[req_page, status_page]).unwrap();
        assert_eq!(decoded, resp);
        resp
    }

    /// A rig whose backend runs on a `workers`-wide data pool, with its
    /// own registry and a fault plane installed (nothing armed).
    struct WidthRig {
        rig: Rig,
        driver: Arc<UpmemDriver>,
        registry: MetricsRegistry,
        plane: Arc<FaultPlane>,
    }

    fn width_rig(workers: usize) -> WidthRig {
        let driver = Arc::new(UpmemDriver::new(PimMachine::new(PimConfig::small())));
        let mgr = Manager::start(driver.clone(), CostModel::default(), ManagerConfig::default());
        let (vcfg, cm) = (VpimConfig::full(), CostModel::default());
        let registry = MetricsRegistry::new();
        let sched = Scheduler::new(driver.clone(), mgr.client(), vcfg.sched, cm.clone(), &registry);
        let backend = Backend::with_parts(
            driver.clone(),
            sched,
            vcfg,
            cm,
            "vm-test".to_string(),
            &registry,
            Arc::new(WorkerPool::new(workers)),
            BytePool::with_registry(&registry, "datapath.pool"),
        );
        let plane = Arc::new(FaultPlane::new(11));
        backend.install_fault_plane(plane.clone());
        WidthRig { rig: rig_around(backend, mgr), driver, registry, plane }
    }

    /// Ten entries over all eight DPUs of a rank, DPUs 0 and 1 with two
    /// each, of ten different lengths: `(dpu, mram_offset, bytes)`.
    fn width_entries() -> Vec<(u32, u64, Vec<u8>)> {
        (0..10u32)
            .map(|i| {
                let len = 1000 + 1500 * i as usize;
                let bytes = (0..len).map(|b| (b as u32).wrapping_mul(7).wrapping_add(i * 31) as u8);
                (i % 8, u64::from(i / 8) * (32 << 10), bytes.collect())
            })
            .collect()
    }

    fn send_write(r: &mut Rig, entries: &[(u32, u64, Vec<u8>)]) -> Response {
        let refs: Vec<(u32, u64, &[u8])> =
            entries.iter().map(|(d, o, v)| (*d, *o, v.as_slice())).collect();
        let (matrix, dl) = TransferMatrix::from_user_buffers(&r.mem, &refs).unwrap();
        let (bufs, ml) = matrix.serialize_pooled(&r.mem, &BytePool::new()).unwrap();
        let resp = send(r, &Request::WriteRank { nr_dpus: refs.len() as u32 }, &bufs);
        ml.release();
        dl.release();
        resp
    }

    fn send_read(r: &mut Rig, reqs: &[(u32, u64, u64)]) -> (Response, Vec<Vec<u8>>) {
        let (matrix, rl) = TransferMatrix::alloc_read_buffers(&r.mem, reqs).unwrap();
        let (bufs, ml) = matrix.serialize_pooled(&r.mem, &BytePool::new()).unwrap();
        let resp = send(r, &Request::ReadRank { nr_dpus: reqs.len() as u32 }, &bufs);
        let got =
            matrix.entries.iter().map(|e| TransferMatrix::gather(&r.mem, e).unwrap()).collect();
        ml.release();
        rl.release();
        (resp, got)
    }

    /// Everything one pool width observes: the write and read responses,
    /// the bytes read back, every DPU's first 64 KiB of MRAM, the
    /// `datapath.bytes.zero_copy` total, and the responses to failing
    /// writes.
    type WidthRun = (Vec<Response>, Vec<Vec<u8>>, Vec<Vec<u8>>, u64, Vec<Response>);

    fn width_run(workers: usize) -> WidthRun {
        let mut w = width_rig(workers);
        let entries = width_entries();
        let write = send_write(&mut w.rig, &entries);
        let reqs: Vec<(u32, u64, u64)> =
            entries.iter().map(|(d, o, v)| (*d, *o, v.len() as u64)).collect();
        let (read, got) = send_read(&mut w.rig, &reqs);
        assert!(write.is_ok() && read.is_ok(), "{} / {}", write.error, read.error);
        let datas: Vec<Vec<u8>> = entries.iter().map(|e| e.2.clone()).collect();
        assert_eq!(got, datas, "{workers} workers");

        let rank = w.driver.machine().rank(w.rig.backend.linked_rank().unwrap()).unwrap();
        let mram: Vec<Vec<u8>> = (0..8)
            .map(|d| {
                let mut buf = vec![0u8; 64 << 10];
                rank.read_dpu(d, 0, &mut buf).unwrap();
                buf
            })
            .collect();
        let zero_copy = w.registry.snapshot().count("datapath.bytes.zero_copy");

        // Failing writes: only the error is compared. Which other entries
        // landed depends on how the pool cut the matrix, as on hardware.
        let mut errors = Vec::new();
        for k in [1, 4, 10] {
            w.plane.arm(datapath::CHUNK_TORN_WRITE_POINT, simkit::FaultPlan::Nth(k));
            errors.push(send_write(&mut w.rig, &entries));
            w.plane.disarm(datapath::CHUNK_TORN_WRITE_POINT);
        }
        // Two failing entries in one matrix: an out-of-bounds offset and a
        // torn write, each the lower index once. The lowest index wins.
        for (oob, torn) in [(2, 6), (7, 1)] {
            let mut bad = width_entries();
            bad[oob].1 = 1 << 30;
            w.plane.arm(datapath::CHUNK_TORN_WRITE_POINT, simkit::FaultPlan::Nth(torn + 1));
            errors.push(send_write(&mut w.rig, &bad));
            w.plane.disarm(datapath::CHUNK_TORN_WRITE_POINT);
        }
        (vec![write, read], got, mram, zero_copy, errors)
    }

    /// The data pool's width is a host mechanism: a one-worker pool (every
    /// matrix on the handler's thread) and a four-worker pool give equal
    /// responses, MRAM, zero-copy totals and errors.
    #[test]
    fn data_pool_width_changes_no_response_byte_or_error() {
        let narrow = width_run(1);
        let wide = width_run(4);
        assert_eq!(narrow.0, wide.0, "responses");
        assert_eq!(narrow.1, wide.1, "bytes read back");
        assert_eq!(narrow.2, wide.2, "MRAM contents");
        assert_eq!(narrow.3, wide.3, "datapath.bytes.zero_copy");
        let total: usize = width_entries().iter().map(|e| e.2.len()).sum();
        assert_eq!(narrow.3, 2 * total as u64, "a write and a read of every byte");
        assert_eq!(narrow.4, wide.4, "errors of failing writes");
        let statuses: Vec<u32> = narrow.4.iter().map(|r| r.status).collect();
        assert_eq!(statuses, [STATUS_HW, STATUS_HW, STATUS_HW, STATUS_HW, STATUS_HW]);
        assert!(narrow.4[..3].iter().all(|r| r.error.contains("injected")), "{:?}", narrow.4);
        assert!(narrow.4[3].error.contains("out of bounds"), "{}", narrow.4[3].error);
        assert!(narrow.4[4].error.contains("injected"), "{}", narrow.4[4].error);
    }

    #[test]
    fn configure_links_a_rank_and_reports_geometry() {
        let mut r = rig();
        let resp = send(&mut r, &Request::Configure, &[]);
        assert!(resp.is_ok());
        let cfg = PimDeviceConfig::decode(&{
            let mut p = resp.payload.clone();
            p.resize(PimDeviceConfig::ENCODED_LEN, 0);
            p
        })
        .unwrap();
        assert_eq!(cfg.nr_dpus, 8);
        assert_eq!(cfg.freq_mhz, 350);
        assert!(r.backend.linked_rank().is_some());
    }

    #[test]
    fn write_then_read_roundtrip_through_the_wire() {
        let mut r = rig();
        let data = vec![0x5Au8; 6000];
        let (matrix, dl) =
            TransferMatrix::from_user_buffers(&r.mem, &[(2, 128, &data)]).unwrap();
        let (bufs, ml) = matrix.serialize_pooled(&r.mem, &BytePool::new()).unwrap();
        let resp = send(&mut r, &Request::WriteRank { nr_dpus: 1 }, &bufs);
        assert!(resp.is_ok(), "{}", resp.error);
        assert!(resp.transfer_ns > 0);
        assert!(resp.deser_ns > 0);
        ml.release();
        dl.release();

        // Read it back through a ReadRank request.
        let (rmatrix, rl) = TransferMatrix::alloc_read_buffers(&r.mem, &[(2, 128, 6000)]).unwrap();
        let (rbufs, rml) = rmatrix.serialize_pooled(&r.mem, &BytePool::new()).unwrap();
        let resp = send(&mut r, &Request::ReadRank { nr_dpus: 1 }, &rbufs);
        assert!(resp.is_ok(), "{}", resp.error);
        let got = TransferMatrix::gather(&r.mem, &rmatrix.entries[0]).unwrap();
        assert_eq!(got, data);
        rml.release();
        rl.release();

        assert_eq!(r.backend.counters().writes.get(), 1);
        assert_eq!(r.backend.counters().reads.get(), 1);
    }

    #[test]
    fn dpu_count_mismatch_is_rejected() {
        let mut r = rig();
        let data = vec![1u8; 64];
        let (matrix, dl) = TransferMatrix::from_user_buffers(&r.mem, &[(0, 0, &data)]).unwrap();
        let (bufs, ml) = matrix.serialize_pooled(&r.mem, &BytePool::new()).unwrap();
        let resp = send(&mut r, &Request::WriteRank { nr_dpus: 2 }, &bufs);
        assert_eq!(resp.status, STATUS_BAD);
        ml.release();
        dl.release();
    }

    #[test]
    fn hardware_errors_become_error_responses() {
        let mut r = rig();
        // MRAM offset beyond the 1 MB test bank.
        let data = vec![1u8; 64];
        let (matrix, dl) =
            TransferMatrix::from_user_buffers(&r.mem, &[(0, 1 << 30, &data)]).unwrap();
        let (bufs, ml) = matrix.serialize_pooled(&r.mem, &BytePool::new()).unwrap();
        let resp = send(&mut r, &Request::WriteRank { nr_dpus: 1 }, &bufs);
        assert_eq!(resp.status, STATUS_HW);
        assert!(resp.error.contains("out of bounds"));
        ml.release();
        dl.release();
    }

    #[test]
    fn release_unlinks() {
        let mut r = rig();
        send(&mut r, &Request::Configure, &[]);
        assert!(r.backend.linked_rank().is_some());
        let resp = send(&mut r, &Request::ReleaseRank, &[]);
        assert!(resp.is_ok());
        assert!(r.backend.linked_rank().is_none());
    }

    #[test]
    fn malformed_chain_is_an_error_response() {
        let mut r = rig();
        let page = r.mem.alloc_pages(1).unwrap()[0];
        r.mem.write(page, &Request::Configure.encode()).unwrap();
        r.driver_q.add_chain(&[(page, 16, false)]).unwrap();
        let chain = r.device_q.pop().unwrap().unwrap();
        let resp = r.backend.process(&r.mem, &chain);
        assert_eq!(resp.status, STATUS_BAD);
    }

    #[test]
    fn oversized_read_symbol_is_rejected_before_allocating() {
        let mut r = rig();
        let req = Request::ReadSymbol { dpu: 0, name: "sym".to_string(), len: u32::MAX };
        let resp = send(&mut r, &req, &[]);
        assert_eq!(resp.status, STATUS_BAD);
        assert!(send(&mut r, &Request::Configure, &[]).is_ok(), "rank still usable");
    }

    #[test]
    fn hostile_page_count_is_rejected_before_allocating() {
        let mut r = rig();
        let page = r.mem.alloc_pages(1).unwrap()[0];
        for nb_pages in [crate::matrix::MAX_PAGES_PER_DPU as u64 + 1, 1 << 40, 1 << 61, u64::MAX] {
            // [nr_dpus = 1][dpu 0, offset 0, len 0, nb_pages][page list…]
            let words = [1, 0, 0, 0, nb_pages];
            let raw: Vec<u8> = words.iter().flat_map(|w: &u64| w.to_le_bytes()).collect();
            r.mem.write(page, &raw).unwrap();
            let bufs = [(page, 8, false), (page.add(8), 32, false), (page.add(40), 4056, false)];
            for req in [Request::WriteRank { nr_dpus: 1 }, Request::ReadRank { nr_dpus: 1 }] {
                assert_eq!(send(&mut r, &req, &bufs).status, STATUS_BAD, "nb_pages {nb_pages}");
            }
            assert!(send(&mut r, &Request::Configure, &[]).is_ok(), "backend still serving");
        }
    }
}
