//! The vPIM backend (§3.1, §4.2): the device model inside Firecracker.
//!
//! The backend decodes requests popped from `transferq`, translates the
//! transfer matrix's guest page addresses to host addresses with a thread
//! pool, performs the operation on the physical rank in performance mode
//! (mmap), and returns the payload plus its own timing breakdown. The
//! paper's testbed spreads DPU operations over 8 threads (one per chip);
//! that width is modelled by `CostModel::backend_threads`. The host's own
//! data pool has one worker per CPU the process may run on and takes only
//! matrices large enough to pay for the hand-off (`FANOUT_MIN_BYTES`).

pub mod datapath;
pub mod partition;

use std::sync::Arc;

use pim_virtio::queue::DescChain;
use pim_virtio::{Gpa, GuestMemory};
use simkit::compose::pool_schedule;
use simkit::sync::MutexGuard;
use simkit::{
    CostModel, Counter, FaultPlane, HasErrorKind, InjectCell, MetricsRegistry, VirtualNanos,
    WorkerPool,
};
use upmem_driver::{PerfMapping, UpmemDriver};
use upmem_sim::mram::MRAM_PAGE;
use upmem_sim::Rank;

use crate::config::VpimConfig;
use crate::error::VpimError;
use crate::manager::ManagerClient;
use crate::matrix::{DpuXfer, TransferMatrix};
use crate::sched::{empty_slot, RankSlot, Scheduler};
use crate::spec::{PimDeviceConfig, Request, Response};

/// The per-entry transfer unit [`run_entries`](Backend::run_entries)
/// executes: [`datapath::entry_to_mram`] or [`datapath::entry_from_mram`].
/// The trailing `(Option<&FaultPlane>, u64)` pair is the fault plane (if
/// installed) and the entry's index in its request — the deterministic key
/// the chunk fault points are evaluated over.
type EntryOp =
    fn(&GuestMemory, &Rank, &DpuXfer, Option<&FaultPlane>, u64) -> Result<u64, VpimError>;

/// The host's data pool: one worker per CPU this process may run on.
/// `available_parallelism` reads the affinity mask, so a host pinned to
/// one CPU runs every matrix on the handler's thread and an N-CPU host
/// fans a matrix out at most N ways, and only as far as
/// [`FANOUT_MIN_BYTES`] allows. Nothing in the cost model sizes it.
pub(crate) fn host_data_pool() -> Arc<WorkerPool> {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Arc::new(WorkerPool::new(cpus))
}

/// The fewest bytes a data-pool chunk carries: a matrix is cut into at
/// most `total bytes / FANOUT_MIN_BYTES` chunks, so one under twice this
/// size runs on the handler's thread. A hand-off costs a pool round trip,
/// which must buy back more copying than it adds. Measured on a 2-vCPU
/// x86-64 box: the round trip costs ≈ 33 µs per request in
/// `session_churn`, where both CPUs already run sessions (a 4 × 4 KiB
/// backend write takes 41.0 µs fanned out, 7.7 µs inline), and ≈ 13 µs
/// on an idle box. One thread copies guest pages to MRAM at 13–27 GB/s,
/// so 33 µs is ≈ 400–850 KiB of copying; 256 KiB keeps `session_churn`'s
/// 16 KiB matrices inline and lets `bulk_write`'s 30 MiB ones fan out.
const FANOUT_MIN_BYTES: u64 = 256 << 10;

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
    /// (`datapath.bytes.zero_copy`): borrowed guest page views → MRAM and
    /// back, with no staging buffer and no per-entry heap allocation.
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
    /// Late-bound fault plane for the chunk fault points.
    inject: InjectCell,
}

impl Backend {
    /// Creates a standalone backend for one vUPMEM device owned by `owner`
    /// (the VM tag; used for manager requests and driver claims), with a
    /// private registry, data pool (one worker per host CPU) and scheduler.
    /// A host shares all three across its backends: see
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
        Self::with_parts(driver, sched, vcfg, cm, owner, &registry, pool)
    }

    /// A backend on a host's shared parts. Every backend on a host must
    /// share one [`Scheduler`] (admission and preemption decisions must see
    /// all tenants); the system wiring also shares the registry (request
    /// counters aggregate as `backend.writes` / `backend.reads` /
    /// `backend.ci`) and the one data pool for all DPU operations. The
    /// pool's width changes wall-clock overlap only, never a reported
    /// number.
    #[must_use]
    pub fn with_parts(
        driver: Arc<UpmemDriver>,
        sched: Scheduler,
        vcfg: VpimConfig,
        cm: CostModel,
        owner: String,
        registry: &MetricsRegistry,
        pool: Arc<WorkerPool>,
    ) -> Self {
        Backend {
            driver,
            sched,
            vcfg,
            cm,
            owner,
            perf: empty_slot(),
            counters: BackendCounters::from_registry(registry),
            pool,
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
        // canonical descending chain of the lock hierarchy. The guard,
        // returned to the caller, keeps the slot's place until it drops.
        let mut guard = self.perf.lock();
        if guard.is_none() {
            let grant = self.sched.acquire(&self.owner, &self.perf)?;
            *guard = Some(grant.mapping);
        }
        Ok(guard)
    }

    /// Unlinks the physical rank (drops the perf mapping; sysfs flips, and
    /// the next rank request's sweep resets the rank) and tells the
    /// scheduler the lease ended voluntarily.
    pub fn unlink(&self) {
        *self.perf.lock() = None;
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
            // tenant's lease. Virtual-time-derived, so any guest thread
            // and any pool width grow the accounts identically.
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
    fn rank_ddr_time(&self, total_bytes: u64, max_dpu: u64, entries: u64) -> VirtualNanos {
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
        let total_bytes = matrix.total_bytes();
        let (deser, translate) = self.matrix_costs(ndesc, matrix);
        // Per-DPU copies spread over the modelled `backend_threads`-wide
        // pool (§4.2's 8, one per chip), whatever the host runs; the byte
        // (de)interleaving runs on the handler's data path (the function
        // the paper rewrote in C), serially. The DDR time is bounded both
        // by the shared bus (parallel bandwidth over all bytes) and by the
        // slowest single DPU's stream (serial bandwidth) — so a one-DPU
        // matrix behaves like native serial mode, and batching merges
        // messages without reducing total data-writing time (§4.1).
        let per_entry = matrix.entries.iter().map(|e| self.cm.memcpy(e.len));
        let prep = pool_schedule(per_entry, self.cm.backend_threads);
        let ddr = self.rank_ddr_time(
            total_bytes,
            max_dpu_bytes(&matrix.entries),
            matrix.entries.len() as u64,
        );
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

    /// Executes a data op's per-entry work, on the handler's thread unless
    /// the matrix is large enough to pay for the data pool's hand-off: it
    /// is cut along DPU boundaries into at most
    /// `min(pool workers, total bytes / FANOUT_MIN_BYTES)` chunks, so no
    /// two workers touch the same MRAM bank and every chunk carries at
    /// least [`FANOUT_MIN_BYTES`]. A width of one, or a matrix whose DPUs
    /// make one chunk, runs inline. So does a broadcast with a `source`
    /// ([`broadcast_source`]): entry 0 copies its bytes, then every other
    /// entry takes entry 0's MRAM pages, so nothing is left to fan out.
    /// On full success the bytes moved are published as
    /// `datapath.bytes.zero_copy`. On failure the error of the
    /// **lowest entry index** is returned — the same error a sequential
    /// in-order walk would report — so error responses do not depend on
    /// the pool's width. Which other entries' transfers already landed is
    /// unspecified, as on real hardware.
    fn run_entries(
        &self,
        mem: &GuestMemory,
        rank: &Arc<Rank>,
        matrix: &TransferMatrix,
        source: Option<u32>,
        op: EntryOp,
    ) -> Result<(), VpimError> {
        let plane = self.inject.plane();
        let chunks_worth = usize::try_from(matrix.total_bytes() / FANOUT_MIN_BYTES);
        let width = match source {
            None => self.pool.workers().min(chunks_worth.unwrap_or(usize::MAX)),
            Some(_) => 1,
        };
        let chunks = if width > 1 {
            partition::partition_by_dpu(&matrix.entries, width)
        } else {
            Vec::new()
        };
        if chunks.len() <= 1 {
            let mut moved = 0u64;
            let plane = plane.as_deref();
            for (i, entry) in matrix.entries.iter().enumerate() {
                moved += match source {
                    Some(source) if i > 0 => {
                        datapath::share_entry(mem, rank, entry, source, plane, i as u64)
                    }
                    _ => op(mem, rank, entry, plane, i as u64),
                }?;
            }
            self.counters.zero_copy.add(moved);
            return Ok(());
        }
        let jobs: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let mem = mem.clone();
                let rank = Arc::clone(rank);
                let plane = plane.clone();
                let entries: Vec<(usize, DpuXfer)> = chunk
                    .entry_indices
                    .iter()
                    .map(|&i| (i, matrix.entries[i].clone()))
                    .collect();
                move || -> Result<u64, (usize, VpimError)> {
                    let mut moved = 0u64;
                    for (i, entry) in &entries {
                        moved += op(&mem, &rank, entry, plane.as_deref(), *i as u64)
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
        let source = broadcast_source(&matrix.entries);
        self.run_entries(mem, perf.rank(), &matrix, source, datapath::entry_to_mram)?;
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
        self.run_entries(mem, perf.rank(), &matrix, None, datapath::entry_from_mram)?;
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

/// The DPU of entry 0 when a write is a broadcast as
/// `broadcast_to_heap` builds it: two or more entries, each with entry 0's
/// guest pages, length and page-aligned MRAM offset. Every other entry can
/// then take that DPU's MRAM pages instead of copying the guest pages
/// again ([`datapath::share_entry`]). Two entries may name one DPU: each
/// writes the same bytes to the same place, so the later one rewrites what
/// is already there, shared or copied. `None` for any other matrix, which
/// keeps the copy path.
fn broadcast_source(entries: &[DpuXfer]) -> Option<u32> {
    let (first, rest) = entries.split_first()?;
    let repeats = |e: &DpuXfer| {
        e.len == first.len && e.mram_offset == first.mram_offset && e.pages == first.pages
    };
    let aligned = first.mram_offset.is_multiple_of(MRAM_PAGE as u64);
    (!rest.is_empty() && aligned && rest.iter().all(repeats)).then_some(first.dpu)
}

/// The most bytes any one DPU receives from `entries` (summed per DPU id,
/// whatever their order).
fn max_dpu_bytes(entries: &[DpuXfer]) -> u64 {
    let mut by_dpu: Vec<(u32, u64)> = entries.iter().map(|e| (e.dpu, e.len)).collect();
    by_dpu.sort_unstable_by_key(|&(dpu, _)| dpu);
    by_dpu
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| run.iter().map(|&(_, len)| len).sum())
        .max()
        .unwrap_or(0)
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
    use proptest::prelude::*;
    use simkit::BytePool;
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
        );
        let plane = Arc::new(FaultPlane::new(11));
        backend.install_fault_plane(plane.clone());
        WidthRig { rig: rig_around(backend, mgr), driver, registry, plane }
    }

    /// Ten entries over all eight DPUs of a rank, DPUs 0 and 1 with two
    /// each, of ten different lengths: `(dpu, mram_offset, bytes)`. About
    /// 1.3 MB in all, so a four-worker pool cuts the matrix four ways.
    fn width_entries() -> Vec<(u32, u64, Vec<u8>)> {
        (0..10u32)
            .map(|i| {
                let len = 90_000 + 10_001 * i as usize;
                let bytes = (0..len).map(|b| (b as u32).wrapping_mul(7).wrapping_add(i * 31) as u8);
                (i % 8, u64::from(i / 8) * (256 << 10), bytes.collect())
            })
            .collect()
    }

    /// The MRAM window [`width_entries`] writes on every DPU.
    const WIDTH_WINDOW: usize = 512 << 10;

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
    /// the bytes read back, every DPU's [`WIDTH_WINDOW`] of MRAM, the
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
                let mut buf = vec![0u8; WIDTH_WINDOW];
                rank.read_mram(d, 0, &mut buf).unwrap();
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

    /// Bytes per DPU of the broadcast in [`broadcast_run`]: five whole
    /// pages and a partial one. Eight of them make one inline chunk.
    const BCAST_LEN: usize = 5 * 4096 + 1000;
    /// Seventeen whole pages and a partial one: eight of them make
    /// [`FANOUT_MIN_BYTES`] twice over, so a copy fans out on a wide pool.
    const BCAST_WIDE_LEN: usize = 17 * 4096 + 1000;
    const BCAST_AT: u64 = 4096;
    const ALL_DPUS: [u32; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

    /// What one broadcast run observes: the response, every DPU's MRAM
    /// window, the armed points' stats and the whole registry.
    type BroadcastRun = (Response, Vec<Vec<u8>>, Vec<Option<simkit::PointStats>>, String);

    /// Two writes of `len` bytes of one image, one entry per DPU of `dpus`,
    /// to an eight-DPU rank served by a `workers`-wide data pool:
    /// a clean one, then one under `faults`. `shared` names one guest
    /// buffer in every entry (a broadcast); otherwise each entry has its
    /// own copy of the image.
    fn broadcast_run(
        shared: bool,
        workers: usize,
        len: usize,
        dpus: &[u32],
        faults: &[(&'static str, simkit::FaultPlan)],
    ) -> BroadcastRun {
        let mut w = width_rig(workers);
        w.rig.mem.install_fault_plane(w.plane.clone());
        w.driver.machine().install_fault_plane(&w.plane);
        let write = |w: &mut WidthRig, seed: u8| {
            let image: Vec<u8> = (0..len).map(|i| (i as u8 ^ seed).wrapping_mul(13)).collect();
            let npages = len.div_ceil(4096);
            let copies = if shared { 1 } else { dpus.len() };
            let bufs: Vec<Vec<Gpa>> =
                (0..copies).map(|_| w.rig.mem.alloc_pages(npages).unwrap()).collect();
            for pages in &bufs {
                w.rig.mem.write_pages(pages, &image).unwrap();
            }
            let entries = dpus
                .iter()
                .enumerate()
                .map(|(i, &dpu)| DpuXfer {
                    dpu,
                    mram_offset: BCAST_AT,
                    len: len as u64,
                    pages: bufs[i % copies].clone().into(),
                })
                .collect();
            let matrix = TransferMatrix { entries };
            let (descs, lease) = matrix.serialize_pooled(&w.rig.mem, &BytePool::new()).unwrap();
            let nr_dpus = dpus.len() as u32;
            let resp = send(&mut w.rig, &Request::WriteRank { nr_dpus }, &descs);
            lease.release();
            w.rig.mem.free_pages_back(&bufs.concat()).unwrap();
            resp
        };
        assert!(write(&mut w, 1).is_ok());
        for (point, plan) in faults {
            w.plane.arm(point, *plan);
        }
        let resp = write(&mut w, 2);
        let stats = faults.iter().map(|(point, _)| w.plane.point_stats(point)).collect();
        for (point, _) in faults {
            w.plane.disarm(point);
        }
        let rank = w.driver.machine().rank(w.rig.backend.linked_rank().unwrap()).unwrap();
        let mram = (0..8)
            .map(|d| {
                let mut buf = vec![0u8; BCAST_AT as usize + len + 4096];
                rank.read_mram(d, 0, &mut buf).unwrap();
                buf
            })
            .collect();
        (resp, mram, stats, format!("{:?}", w.registry.snapshot()))
    }

    /// A broadcast whose entries share one guest buffer takes the source
    /// DPU's MRAM pages instead of copying. On the handler's thread (a
    /// one-worker pool, where the copy path runs inline too), with the
    /// torn-write, stall, MRAM DMA and guest EIO points armed, alone and
    /// together, the response (the lowest-index error), every DPU's MRAM,
    /// the points' stats and the registry equal those of the same write
    /// from one copy of the image per entry; also when the broadcast names
    /// two DPUs twice.
    #[test]
    fn a_shared_broadcast_matches_inline_copies() {
        use simkit::FaultPlan::{EveryK, Nth, Probability};
        use upmem_sim::MRAM_DMA_POINT;
        let torn = datapath::CHUNK_TORN_WRITE_POINT;
        let (stall, eio) = (datapath::CHUNK_STALL_POINT, pim_virtio::MEM_EIO_POINT);
        let schedules: Vec<Vec<(&'static str, simkit::FaultPlan)>> = vec![
            vec![],
            vec![(torn, Nth(1))],
            vec![(torn, Nth(3))],
            vec![(stall, EveryK(3))],
            vec![(MRAM_DMA_POINT, Nth(4))],
            vec![(eio, Nth(2))],
            vec![(eio, Nth(9))],
            vec![(eio, Nth(20))],
            vec![(eio, Nth(29))],
            vec![(eio, EveryK(40))],
            vec![(torn, Nth(6)), (stall, EveryK(2)), (MRAM_DMA_POINT, Nth(8)), (eio, Nth(33))],
            vec![
                (torn, Probability { permille: 100 }),
                (stall, Probability { permille: 200 }),
                (MRAM_DMA_POINT, Probability { permille: 100 }),
                (eio, Probability { permille: 20 }),
            ],
        ];
        let mut failed = 0;
        let (once, twice) = (ALL_DPUS.as_slice(), [0, 1, 2, 3, 4, 5, 6, 7, 3, 0]);
        for faults in &schedules {
            for dpus in [once, &twice] {
                let copied = broadcast_run(false, 1, BCAST_LEN, dpus, faults);
                let shared = broadcast_run(true, 1, BCAST_LEN, dpus, faults);
                assert_eq!(shared.0, copied.0, "response under {faults:?} to {dpus:?}");
                assert!(shared.1 == copied.1, "MRAM under {faults:?} to {dpus:?}");
                assert_eq!(shared.2, copied.2, "point stats under {faults:?} to {dpus:?}");
                assert_eq!(shared.3, copied.3, "registry under {faults:?} to {dpus:?}");
                failed += usize::from(!shared.0.is_ok());
            }
        }
        assert!(failed >= 16, "most schedules fail the write: {failed}");
    }

    /// Only a write whose entries all name entry 0's guest pages shares
    /// MRAM: entries of equal length and offset over pages of their own
    /// keep the copy path, and every DPU reads back its own bytes.
    #[test]
    fn equal_entries_over_their_own_pages_are_copied() {
        let mut w = width_rig(1);
        let npages = BCAST_LEN.div_ceil(4096);
        let image = |d: u32| -> Vec<u8> {
            (0..BCAST_LEN).map(|i| (i as u8) ^ (d as u8 + 1)).collect()
        };
        let entries: Vec<DpuXfer> = ALL_DPUS
            .iter()
            .map(|&dpu| {
                let pages = w.rig.mem.alloc_pages(npages).unwrap();
                w.rig.mem.write_pages(&pages, &image(dpu)).unwrap();
                DpuXfer { dpu, mram_offset: BCAST_AT, len: BCAST_LEN as u64, pages: pages.into() }
            })
            .collect();
        assert_eq!(broadcast_source(&entries), None);
        let mut repeated = entries.clone();
        for e in &mut repeated[1..] {
            e.pages.clone_from(&entries[0].pages);
        }
        assert_eq!(broadcast_source(&repeated), Some(0));
        let matrix = TransferMatrix { entries };
        let (descs, lease) = matrix.serialize_pooled(&w.rig.mem, &BytePool::new()).unwrap();
        assert!(send(&mut w.rig, &Request::WriteRank { nr_dpus: 8 }, &descs).is_ok());
        lease.release();
        let rank = w.driver.machine().rank(w.rig.backend.linked_rank().unwrap()).unwrap();
        for d in ALL_DPUS {
            let mut got = vec![0u8; BCAST_LEN];
            rank.read_mram(d as usize, BCAST_AT, &mut got).unwrap();
            assert!(got == image(d), "DPU {d} reads its own bytes");
        }
    }

    /// On a four-worker pool the copies fan out and the shared broadcast
    /// runs inline; what is specified still matches: a successful write
    /// (with the stall point armed) gives the same response and MRAM both
    /// ways. After a failure, which entries landed is unspecified on
    /// either path, so only the error's status and kind are compared.
    #[test]
    fn a_wide_pool_sees_the_same_shared_broadcast() {
        use simkit::FaultPlan::{EveryK, Nth};
        let stall = datapath::CHUNK_STALL_POINT;
        for faults in [vec![], vec![(stall, EveryK(2))]] {
            let copied = broadcast_run(false, 4, BCAST_WIDE_LEN, &ALL_DPUS, &faults);
            let shared = broadcast_run(true, 4, BCAST_WIDE_LEN, &ALL_DPUS, &faults);
            assert!(copied.0.is_ok(), "{:?}", copied.0);
            assert_eq!(shared.0, copied.0, "response under {faults:?}");
            assert!(shared.1 == copied.1, "MRAM under {faults:?}");
        }
        let faults = [(datapath::CHUNK_TORN_WRITE_POINT, Nth(1))];
        let copied = broadcast_run(false, 4, BCAST_WIDE_LEN, &ALL_DPUS, &faults);
        let shared = broadcast_run(true, 4, BCAST_WIDE_LEN, &ALL_DPUS, &faults);
        assert!(!copied.0.is_ok(), "the first entry consulted tears");
        assert_eq!((shared.0.status, shared.0.kind), (copied.0.status, copied.0.kind));
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

    /// The threads a test [`EntryOp`] ran on: id and name, one per entry.
    type ThreadLog = std::sync::Mutex<Vec<(std::thread::ThreadId, Option<String>)>>;

    fn log_thread(log: &ThreadLog) {
        let me = std::thread::current();
        log.lock().unwrap().push((me.id(), me.name().map(str::to_owned)));
    }

    /// Writes `entries` through `run_entries` with `op` on a
    /// `workers`-wide pool.
    fn run_write_with(workers: usize, entries: &[(u32, u64, Vec<u8>)], op: EntryOp) {
        let w = width_rig(workers);
        let refs: Vec<(u32, u64, &[u8])> =
            entries.iter().map(|(d, o, v)| (*d, *o, v.as_slice())).collect();
        let (matrix, dl) = TransferMatrix::from_user_buffers(&w.rig.mem, &refs).unwrap();
        let guard = w.rig.backend.ensure_linked().unwrap();
        let rank = guard.as_ref().expect("linked above").rank();
        w.rig.backend.run_entries(&w.rig.mem, rank, &matrix, None, op).unwrap();
        drop(guard);
        dl.release();
    }

    /// The width oracle's matrix really is cut: on a four-worker pool every
    /// entry runs on a pool thread, which `run_entries` only does for a
    /// matrix of two chunks or more (how many workers pick the chunks up
    /// is the scheduler's business).
    #[test]
    fn width_matrix_fans_out_over_pool_threads() {
        static LOG: ThreadLog = ThreadLog::new(Vec::new());
        let op: EntryOp = |mem, rank, entry, plane, key| {
            log_thread(&LOG);
            datapath::entry_to_mram(mem, rank, entry, plane, key)
        };
        let entries = width_entries();
        run_write_with(4, &entries, op);
        let log = LOG.lock().unwrap();
        assert_eq!(log.len(), entries.len());
        let me = std::thread::current().id();
        assert!(
            log.iter().all(|(id, name)| *id != me
                && name.as_deref().is_some_and(|n| n.starts_with("simkit-pool-"))),
            "{log:?}"
        );
    }

    /// A matrix under two chunks' worth of bytes runs every entry on the
    /// handler's thread, even with four pool workers idle.
    #[test]
    fn small_matrix_runs_on_the_handler_thread() {
        static LOG: ThreadLog = ThreadLog::new(Vec::new());
        let op: EntryOp = |mem, rank, entry, plane, key| {
            log_thread(&LOG);
            datapath::entry_to_mram(mem, rank, entry, plane, key)
        };
        let per_dpu = (2 * FANOUT_MIN_BYTES as usize - 1) / 8;
        let entries: Vec<(u32, u64, Vec<u8>)> =
            (0..8u32).map(|d| (d, 0, vec![d as u8; per_dpu])).collect();
        run_write_with(4, &entries, op);
        let log = LOG.lock().unwrap();
        assert_eq!(log.len(), entries.len());
        let me = std::thread::current().id();
        assert!(log.iter().all(|(id, _)| *id == me), "{log:?}");
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

    /// `data_op_response` as it was specified before it summed per-DPU
    /// bytes by sorting: the same formulas over a `HashMap` of DPU totals.
    fn reference_response(b: &Backend, matrix: &TransferMatrix, ndesc: u64) -> Response {
        let cm = &b.cm;
        let mut per_dpu = std::collections::HashMap::new();
        for e in &matrix.entries {
            *per_dpu.entry(e.dpu).or_insert(0u64) += e.len;
        }
        let total: u64 = matrix.entries.iter().map(|e| e.len).sum();
        let max_dpu = per_dpu.values().copied().max().unwrap_or(0);
        let ddr = cm.rank_transfer_parallel(total).max(cm.rank_transfer_serial(max_dpu))
            + VirtualNanos::from_nanos(cm.rank_op_fixed_ns)
                .saturating_mul((matrix.entries.len() as u64).saturating_sub(1));
        let prep =
            pool_schedule(matrix.entries.iter().map(|e| cm.memcpy(e.len)), cm.backend_threads);
        let transfer = prep + datapath::interleave_cost(cm, total, b.vcfg.data_path) + ddr;
        let pages = matrix.total_pages();
        Response {
            deser_ns: (cm.descriptor_walk(ndesc) + cm.deserialize_matrix(pages)).as_nanos(),
            translate_ns: cm.gpa_translate(pages).as_nanos(),
            transfer_ns: transfer.as_nanos(),
            ddr_ns: ddr.as_nanos(),
            ..Response::default()
        }
    }

    proptest! {
        /// Over matrices whose DPU ids repeat, arrive unsorted or lie far
        /// apart, every field of `data_op_response` equals the `HashMap`
        /// reference.
        #[test]
        fn data_op_response_matches_the_hash_map_reference(
            entries in proptest::collection::vec(
                // DPU id: dense (mod 4), in-rank (mod 64) or anywhere.
                (0u8..3, any::<u32>(), 0u64..(1 << 20), 0usize..4),
                0..64,
            ),
            ndesc in 0u64..200,
        ) {
            let r = rig();
            let matrix = TransferMatrix {
                entries: entries
                    .iter()
                    .map(|&(spread, id, len, pages)| DpuXfer {
                        dpu: [id % 4, id % 64, id][usize::from(spread)],
                        mram_offset: 0,
                        len,
                        pages: vec![Gpa(0); pages].into(),
                    })
                    .collect(),
            };
            prop_assert_eq!(
                r.backend.data_op_response(&matrix, ndesc),
                reference_response(&r.backend, &matrix, ndesc)
            );
        }
    }
}
