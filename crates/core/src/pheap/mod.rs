//! `vpim::pheap` — a persistent guest heap over rank MRAM.
//!
//! vPIM virtualizes rank MRAM, but every workload so far treats it as
//! scratch. This module turns it into **durable** memory, porting the
//! vNV-Heap idea (an ownership-based virtually non-volatile heap) to a
//! guest-side library over the vPIM SDK:
//!
//! - Objects live at fixed MRAM home locations handed out by a
//!   bump-then-free-list allocator (module `alloc`).
//! - A bounded guest-RAM **resident window** (module `object`) holds working
//!   copies: at most `resident_budget` bytes at once, dirty bytes never
//!   evicted (home locations hold only committed data), clean copies
//!   evicted LRU. [`Pheap::pin`]/[`Pheap::unpin`] give vNV-Heap-style
//!   ownership: pinned objects cannot be evicted or freed.
//! - [`Pheap::persist`] is the explicit durability point: dirty objects
//!   and the root table are appended to a reserved write-ahead-log
//!   region (intent + data, then a checksummed commit record written
//!   after a [`Frontend::persist_barrier`]), then applied to their home
//!   locations (module `wal`). A write that would push the dirty total past
//!   the budget triggers the same persist automatically.
//! - [`Pheap::recover`] rebuilds a heap from MRAM alone (module `recover`):
//!   a committed-but-unapplied transaction is replayed (idempotently);
//!   torn tails — a tear mid-append ([`PHEAP_WAL_TORN_POINT`]) or a
//!   dropped commit record ([`PHEAP_PERSIST_DROP_POINT`]) — are
//!   discarded, landing exactly on the last committed persist point.
//!
//! Both fault sites consult the system [`FaultPlane`] **keyed by the
//! transaction sequence number**, so fault schedules are pure in
//! `(seed, site, seq)` and replay bit-identically across dispatch
//! modes. `pheap.*` telemetry is registered lazily — constructing the
//! first heap registers it; an unused system publishes none.

mod alloc;
mod object;
pub(crate) mod recover;
pub(crate) mod wal;

use std::collections::BTreeMap;
use std::sync::Arc;

use simkit::telemetry::{Counter, Gauge, MetricsRegistry};
use simkit::FaultPlane;

use crate::error::VpimError;
use crate::frontend::Frontend;
use crate::system::VpimSystem;

use alloc::PAllocator;
use object::{ObjectMeta, ResidentSet};
pub use recover::RecoverReport;
use wal::{encode_root, encode_txn, Geometry, Superblock, WalRecord, ROOT_RECORD_ID};

/// Fault point: a WAL append tears partway ([`crate::config::FaultSite::PheapWalTorn`]).
pub const PHEAP_WAL_TORN_POINT: &str = "pheap.wal.torn";
/// Fault point: the commit record is dropped before MRAM
/// ([`crate::config::FaultSite::PheapPersistDrop`]).
pub const PHEAP_PERSIST_DROP_POINT: &str = "pheap.persist.drop";

/// Placement and policy for one heap instance.
///
/// The MRAM footprint is `[base, base + 80 + wal + root + data)` on one
/// DPU; region sizes must be multiples of 8. `resident_budget` bounds
/// the guest-RAM window (and therefore the largest single object).
#[derive(Debug, Clone)]
pub struct PheapOptions {
    dpu: u32,
    base: u64,
    wal_size: u64,
    root_size: u64,
    data_size: u64,
    resident_budget: u64,
    plane: Option<Arc<FaultPlane>>,
    registry: Option<MetricsRegistry>,
}

impl Default for PheapOptions {
    fn default() -> Self {
        PheapOptions {
            dpu: 0,
            base: 1 << 20,
            wal_size: 64 << 10,
            root_size: 32 << 10,
            data_size: 256 << 10,
            resident_budget: 64 << 10,
            plane: None,
            registry: None,
        }
    }
}

impl PheapOptions {
    /// The defaults: DPU 0, 1 MiB base, 64 KiB WAL, 32 KiB root table,
    /// 256 KiB data region, 64 KiB resident budget, no fault plane.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The DPU whose MRAM bank holds the heap.
    #[must_use]
    pub fn dpu(mut self, dpu: u32) -> Self {
        self.dpu = dpu;
        self
    }

    /// Absolute MRAM offset of the heap's superblock.
    #[must_use]
    pub fn base(mut self, base: u64) -> Self {
        self.base = base;
        self
    }

    /// WAL region size in bytes (bounds one transaction: all dirty
    /// objects plus the root table plus framing).
    #[must_use]
    pub fn wal_size(mut self, bytes: u64) -> Self {
        self.wal_size = bytes;
        self
    }

    /// Root-table region size in bytes (bounds the object count).
    #[must_use]
    pub fn root_size(mut self, bytes: u64) -> Self {
        self.root_size = bytes;
        self
    }

    /// Data region size in bytes (total object capacity).
    #[must_use]
    pub fn data_size(mut self, bytes: u64) -> Self {
        self.data_size = bytes;
        self
    }

    /// Resident-window budget in bytes.
    #[must_use]
    pub fn resident_budget(mut self, bytes: u64) -> Self {
        self.resident_budget = bytes;
        self
    }

    /// Wires the heap into `sys`'s fault plane and metrics registry —
    /// the usual way to construct options for a launched VM.
    #[must_use]
    pub fn attach(mut self, sys: &VpimSystem) -> Self {
        self.plane = sys.fault_plane().cloned();
        self.registry = Some(sys.registry().clone());
        self
    }

    /// An explicit fault plane (tests that build their own).
    #[must_use]
    pub fn fault_plane(mut self, plane: Arc<FaultPlane>) -> Self {
        self.plane = Some(plane);
        self
    }

    /// An explicit metrics registry for the `pheap.*` instruments.
    #[must_use]
    pub fn registry(mut self, registry: &MetricsRegistry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    pub(crate) fn resident_budget_bytes(&self) -> u64 {
        self.resident_budget
    }

    pub(crate) fn dpu_index(&self) -> u32 {
        self.dpu
    }

    pub(crate) fn base_off(&self) -> u64 {
        self.base
    }

    pub(crate) fn take_plane(&self) -> Option<Arc<FaultPlane>> {
        self.plane.clone()
    }

    pub(crate) fn make_metrics(&self) -> PheapMetrics {
        let private;
        let reg = match &self.registry {
            Some(r) => r,
            None => {
                private = MetricsRegistry::new();
                &private
            }
        };
        PheapMetrics::from_registry(reg)
    }
}

/// The `pheap.*` instruments (registered at heap construction only).
#[derive(Debug, Clone)]
pub(crate) struct PheapMetrics {
    allocs: Counter,
    frees: Counter,
    writes: Counter,
    reads: Counter,
    persists: Counter,
    persists_auto: Counter,
    persist_failures: Counter,
    wal_bytes: Counter,
    pub(crate) recoveries: Counter,
    pub(crate) recover_replayed: Counter,
    pub(crate) recover_discarded: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    evictions: Counter,
    resident_bytes: Gauge,
    dirty_bytes: Gauge,
    objects: Gauge,
}

impl PheapMetrics {
    fn from_registry(r: &MetricsRegistry) -> Self {
        PheapMetrics {
            allocs: r.counter("pheap.allocs"),
            frees: r.counter("pheap.frees"),
            writes: r.counter("pheap.writes"),
            reads: r.counter("pheap.reads"),
            persists: r.counter("pheap.persists"),
            persists_auto: r.counter("pheap.persists.auto"),
            persist_failures: r.counter("pheap.persist.failures"),
            wal_bytes: r.counter("pheap.wal.bytes"),
            recoveries: r.counter("pheap.recoveries"),
            recover_replayed: r.counter("pheap.recover.replayed"),
            recover_discarded: r.counter("pheap.recover.discarded"),
            cache_hits: r.counter("pheap.cache.hits"),
            cache_misses: r.counter("pheap.cache.misses"),
            evictions: r.counter("pheap.cache.evictions"),
            resident_bytes: r.gauge("pheap.resident.bytes"),
            dirty_bytes: r.gauge("pheap.dirty.bytes"),
            objects: r.gauge("pheap.objects"),
        }
    }
}

/// What one [`Pheap::persist`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistReport {
    /// The transaction sequence number (unchanged on a no-op).
    pub seq: u64,
    /// Records written (dirty objects + 1 root table; 0 on a no-op).
    pub records: u64,
    /// WAL bytes written, framing included.
    pub wal_bytes: u64,
    /// True when nothing was dirty and no metadata changed.
    pub noop: bool,
}

/// A persistent heap bound to one launched VM's device frontend. See
/// the [module docs](self) for the durability model.
#[derive(Debug)]
pub struct Pheap {
    front: Arc<Frontend>,
    dpu: u32,
    geom: Geometry,
    alloc: PAllocator,
    objects: BTreeMap<u64, ObjectMeta>,
    resident: ResidentSet,
    next_id: u64,
    next_seq: u64,
    applied_seq: u64,
    /// Allocator/directory changed since the last persist (alloc/free
    /// without a dirty object still needs a transaction).
    meta_dirty: bool,
    plane: Option<Arc<FaultPlane>>,
    metrics: PheapMetrics,
    /// Virtual-time cost of MRAM traffic issued since the last drain.
    cost: simkit::VirtualNanos,
}

impl Pheap {
    /// Formats a fresh, empty heap at `opts.base` and persists its
    /// superblock and root table.
    ///
    /// # Errors
    ///
    /// [`VpimError::BadRequest`] on bad geometry (unaligned or
    /// oversized regions, DPU out of range); transport failures.
    pub fn format(front: Arc<Frontend>, opts: PheapOptions) -> Result<Pheap, VpimError> {
        let geom =
            Geometry::from_base(opts.base, opts.wal_size, opts.root_size, opts.data_size);
        if !opts.base.is_multiple_of(8)
            || !opts.wal_size.is_multiple_of(8)
            || !opts.root_size.is_multiple_of(8)
            || !opts.data_size.is_multiple_of(8)
            || opts.wal_size < 256
            || opts.root_size < 64
            || opts.data_size == 0
        {
            return Err(bad("pheap: regions must be 8-byte multiples (wal >= 256)"));
        }
        if opts.resident_budget == 0 {
            return Err(bad("pheap: resident budget must be positive"));
        }
        if opts.dpu >= front.nr_dpus() {
            return Err(bad(format!("pheap: dpu {} out of range", opts.dpu)));
        }
        if geom.end() > front.mram_size() {
            return Err(bad(format!(
                "pheap: heap end {} beyond MRAM size {}",
                geom.end(),
                front.mram_size()
            )));
        }
        let metrics = opts.make_metrics();
        let mut heap = Pheap {
            front,
            dpu: opts.dpu,
            geom,
            alloc: PAllocator::new(geom.data_off, geom.data_size),
            objects: BTreeMap::new(),
            resident: ResidentSet::new(opts.resident_budget),
            next_id: 1,
            next_seq: 1,
            applied_seq: 0,
            meta_dirty: false,
            plane: opts.take_plane(),
            metrics,
            cost: simkit::VirtualNanos::ZERO,
        };
        // Erase any stale WAL header from a previous instance, lay down
        // the empty root table, then the superblock.
        heap.mram_write(geom.wal_off, &[0u8; wal::TXN_HEADER_LEN as usize])?;
        heap.mram_write(geom.root_off, &encode_root(1, &heap.alloc, &heap.objects))?;
        heap.mram_write(
            geom.sb_off,
            &Superblock { geom, applied_seq: 0 }.encode(),
        )?;
        heap.barrier()?;
        heap.update_gauges();
        Ok(heap)
    }

    /// Rebuilds a heap from MRAM alone: replays a committed-but-unapplied
    /// WAL transaction, discards torn tails, and reloads the directory
    /// and allocator from the root table. Idempotent — recovering twice
    /// is identical to recovering once.
    ///
    /// # Errors
    ///
    /// [`VpimError::ProtocolViolation`] when no valid heap exists at
    /// `opts.base`; transport failures.
    pub fn recover(
        front: Arc<Frontend>,
        opts: PheapOptions,
    ) -> Result<(Pheap, RecoverReport), VpimError> {
        recover::run(front, opts)
    }

    /// Allocates a zero-filled object of `len` bytes, returning its id.
    /// The object is born dirty (it exists only in the resident window
    /// until the next persist).
    ///
    /// # Errors
    ///
    /// [`VpimError::BadRequest`] on zero/oversized length, an exhausted
    /// data region, or a resident window filled by pinned objects.
    pub fn alloc(&mut self, len: u64) -> Result<u64, VpimError> {
        if len == 0 {
            return Err(bad("pheap: zero-length object"));
        }
        if len > self.resident.budget() {
            return Err(bad(format!(
                "pheap: object of {len} bytes exceeds the {}-byte resident budget",
                self.resident.budget()
            )));
        }
        if self.resident.dirty_bytes() + len > self.resident.budget() {
            self.persist_internal(true)?;
        }
        self.make_room(len)?;
        let off = self
            .alloc
            .alloc(len)
            .ok_or_else(|| bad(format!("pheap: data region exhausted allocating {len} bytes")))?;
        let id = self.next_id;
        self.next_id += 1;
        self.objects.insert(id, ObjectMeta { off, len });
        self.resident.insert(id, vec![0; len as usize], true);
        self.meta_dirty = true;
        self.metrics.allocs.inc();
        self.update_gauges();
        Ok(id)
    }

    /// Frees an object. Uncommitted: the home location is reusable at
    /// once, but the free itself only becomes durable at the next
    /// persist — a crash before it resurrects the object.
    ///
    /// # Errors
    ///
    /// [`VpimError::BadRequest`] on an unknown id or a pinned object.
    pub fn free(&mut self, id: u64) -> Result<(), VpimError> {
        let meta = *self.objects.get(&id).ok_or_else(|| bad_id(id))?;
        if self.resident.pins(id) > 0 {
            return Err(bad(format!("pheap: object {id} is pinned")));
        }
        self.objects.remove(&id);
        self.resident.remove(id);
        self.alloc.free(meta.off, meta.len);
        self.meta_dirty = true;
        self.metrics.frees.inc();
        self.update_gauges();
        Ok(())
    }

    /// Writes `data` at byte `off` inside object `id` (guest-RAM only;
    /// durable at the next persist). Triggers an automatic persist
    /// first when marking the object dirty would exceed the budget.
    ///
    /// # Errors
    ///
    /// [`VpimError::BadRequest`] on unknown id / out-of-range span;
    /// persist errors (including injected faults) from the auto path.
    pub fn write(&mut self, id: u64, off: u64, data: &[u8]) -> Result<(), VpimError> {
        let meta = *self.objects.get(&id).ok_or_else(|| bad_id(id))?;
        if off + data.len() as u64 > meta.len {
            return Err(bad(format!(
                "pheap: write of {} bytes at {off} overruns object {id} ({} bytes)",
                data.len(),
                meta.len
            )));
        }
        self.metrics.writes.inc();
        if !self.resident.is_dirty(id) {
            if self.resident.dirty_bytes() + meta.len > self.resident.budget() {
                self.persist_internal(true)?;
            }
            self.ensure_resident(id, meta)?;
            self.resident.mark_dirty(id);
        }
        let buf = self.resident.data_mut(id).expect("resident after ensure");
        buf[off as usize..off as usize + data.len()].copy_from_slice(data);
        self.update_gauges();
        Ok(())
    }

    /// Reads `len` bytes at `off` from object `id`: dirty resident bytes
    /// when present (read-your-writes), MRAM home otherwise, caching the
    /// object when the window has room.
    ///
    /// # Errors
    ///
    /// [`VpimError::BadRequest`] on unknown id / out-of-range span;
    /// transport failures.
    pub fn read(&mut self, id: u64, off: u64, len: u64) -> Result<Vec<u8>, VpimError> {
        let meta = *self.objects.get(&id).ok_or_else(|| bad_id(id))?;
        if off + len > meta.len {
            return Err(bad(format!(
                "pheap: read of {len} bytes at {off} overruns object {id} ({} bytes)",
                meta.len
            )));
        }
        self.metrics.reads.inc();
        if let Some(bytes) = self.resident.touch(id) {
            self.metrics.cache_hits.inc();
            return Ok(bytes[off as usize..(off + len) as usize].to_vec());
        }
        self.metrics.cache_misses.inc();
        if self.try_make_room(meta.len) {
            let data = self.mram_read(meta.off, meta.len)?;
            let out = data[off as usize..(off + len) as usize].to_vec();
            self.resident.insert(id, data, false);
            self.update_gauges();
            return Ok(out);
        }
        // Window full of pins/dirty: serve directly, uncached.
        self.mram_read(meta.off + off, len)
    }

    /// Pins an object into the resident window (vNV-Heap ownership): it
    /// cannot be evicted or freed until every pin is dropped.
    ///
    /// # Errors
    ///
    /// [`VpimError::BadRequest`] on unknown id or a window too full of
    /// pinned/dirty objects to load it.
    pub fn pin(&mut self, id: u64) -> Result<(), VpimError> {
        let meta = *self.objects.get(&id).ok_or_else(|| bad_id(id))?;
        self.ensure_resident(id, meta)?;
        self.resident.pin(id);
        self.update_gauges();
        Ok(())
    }

    /// Drops one pin.
    ///
    /// # Errors
    ///
    /// [`VpimError::BadRequest`] when the object is not pinned.
    pub fn unpin(&mut self, id: u64) -> Result<(), VpimError> {
        if self.resident.pins(id) == 0 {
            return Err(bad(format!("pheap: object {id} is not pinned")));
        }
        self.resident.unpin(id);
        Ok(())
    }

    /// The explicit durability point: appends every dirty object plus
    /// the root table to the WAL, commits (checksummed commit record
    /// behind a durability barrier), applies the records to their home
    /// locations, and bumps the superblock. A no-op when nothing
    /// changed since the last persist.
    ///
    /// # Errors
    ///
    /// [`VpimError::Injected`] when [`PHEAP_WAL_TORN_POINT`] or
    /// [`PHEAP_PERSIST_DROP_POINT`] fires — the transaction is **not**
    /// committed, working state is untouched, and retrying persists
    /// under the next sequence number. [`VpimError::BadRequest`] when
    /// the transaction overflows the WAL region; transport failures.
    pub fn persist(&mut self) -> Result<PersistReport, VpimError> {
        self.persist_internal(false)
    }

    fn persist_internal(&mut self, auto_persist: bool) -> Result<PersistReport, VpimError> {
        let dirty = self.resident.dirty_ids();
        if dirty.is_empty() && !self.meta_dirty {
            return Ok(PersistReport {
                seq: self.applied_seq,
                records: 0,
                wal_bytes: 0,
                noop: true,
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;

        let mut records = Vec::with_capacity(dirty.len() + 1);
        for &id in &dirty {
            let meta = self.objects[&id];
            let payload = self.resident.touch(id).expect("dirty objects are resident").to_vec();
            records.push(WalRecord { id, home_off: meta.off, payload });
        }
        let root = encode_root(self.next_id, &self.alloc, &self.objects);
        if root.len() as u64 > self.geom.root_size {
            return Err(bad(format!(
                "pheap: root table of {} bytes overflows the {}-byte root region",
                root.len(),
                self.geom.root_size
            )));
        }
        records.push(WalRecord {
            id: ROOT_RECORD_ID,
            home_off: self.geom.root_off,
            payload: root,
        });
        let (body, commit) = encode_txn(seq, &records);
        let total = (body.len() + commit.len()) as u64;
        if total > self.geom.wal_size {
            return Err(bad(format!(
                "pheap: transaction of {total} bytes overflows the {}-byte WAL",
                self.geom.wal_size
            )));
        }

        // Intent + data pages. A torn append writes a strict prefix of
        // the body (cut derived from seq, so every host mechanism tears
        // identically) and fails before the commit record can exist.
        if self.site_fires(PHEAP_WAL_TORN_POINT, seq - 1) {
            let cut = 8 + (splitmix(seq) % (body.len() as u64 - 8)) as usize;
            self.mram_write(self.geom.wal_off, &body[..cut])?;
            self.barrier()?;
            self.metrics.persist_failures.inc();
            return Err(VpimError::Injected { point: PHEAP_WAL_TORN_POINT });
        }
        self.mram_write(self.geom.wal_off, &body)?;
        self.barrier()?;

        // Commit record — the durability point. A dropped commit leaves
        // a fully-written body that recovery must still discard.
        if self.site_fires(PHEAP_PERSIST_DROP_POINT, seq - 1) {
            self.metrics.persist_failures.inc();
            return Err(VpimError::Injected { point: PHEAP_PERSIST_DROP_POINT });
        }
        self.mram_write(self.geom.wal_off + body.len() as u64, &commit)?;
        self.barrier()?;

        // Apply to home locations, then advance the superblock. A crash
        // anywhere in here is repaired by recovery replaying the
        // committed transaction (idempotent copies).
        for r in &records {
            self.mram_write(r.home_off, &r.payload)?;
        }
        self.mram_write(
            self.geom.sb_off,
            &Superblock { geom: self.geom, applied_seq: seq }.encode(),
        )?;
        self.barrier()?;

        self.applied_seq = seq;
        self.resident.clean_all();
        self.meta_dirty = false;
        self.metrics.persists.inc();
        if auto_persist {
            self.metrics.persists_auto.inc();
        }
        self.metrics.wal_bytes.add(total);
        self.update_gauges();
        Ok(PersistReport { seq, records: records.len() as u64, wal_bytes: total, noop: false })
    }

    /// Virtual-time cost of all MRAM traffic (writes, reads, barriers)
    /// this heap issued since construction or the last drain. Lets load
    /// harness ops and benches charge heap work to a session's service
    /// time.
    pub fn drain_cost(&mut self) -> simkit::VirtualNanos {
        std::mem::replace(&mut self.cost, simkit::VirtualNanos::ZERO)
    }

    /// Live object ids, ascending.
    #[must_use]
    pub fn ids(&self) -> Vec<u64> {
        self.objects.keys().copied().collect()
    }

    /// An object's length, or `None` for an unknown id.
    #[must_use]
    pub fn len_of(&self, id: u64) -> Option<u64> {
        self.objects.get(&id).map(|m| m.len)
    }

    /// Live object count.
    #[must_use]
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Sequence number of the last applied (committed) transaction.
    #[must_use]
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Bytes currently in the resident window.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.resident.bytes()
    }

    /// Dirty (uncommitted) bytes in the resident window.
    #[must_use]
    pub fn dirty_bytes(&self) -> u64 {
        self.resident.dirty_bytes()
    }

    /// The configured resident budget.
    #[must_use]
    pub fn resident_budget(&self) -> u64 {
        self.resident.budget()
    }

    /// Bytes still allocatable in the data region.
    #[must_use]
    pub fn free_bytes(&self) -> u64 {
        self.alloc.free_bytes()
    }

    /// The frontend this heap writes through.
    #[must_use]
    pub fn frontend(&self) -> &Arc<Frontend> {
        &self.front
    }

    /// Checks every internal invariant — allocator span disjointness
    /// and byte conservation, resident-window accounting and budget,
    /// resident/directory agreement. The proof suites call this after
    /// every operation; a violation is a heap bug, described in the
    /// returned string.
    ///
    /// # Errors
    ///
    /// The first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let spans: Vec<(u64, u64)> = self.objects.values().map(|m| (m.off, m.len)).collect();
        self.alloc.check(&spans)?;
        self.resident.check()?;
        for id in self.resident_ids() {
            let Some(meta) = self.objects.get(&id) else {
                return Err(format!("resident {id} not in directory"));
            };
            if meta.off < self.geom.data_off || meta.off + meta.len > self.geom.end() {
                return Err(format!("object {id} outside the data region"));
            }
        }
        Ok(())
    }

    fn resident_ids(&self) -> Vec<u64> {
        self.objects.keys().copied().filter(|&id| self.resident.contains(id)).collect()
    }

    /// Loads `id` into the resident window (no-op when present).
    fn ensure_resident(&mut self, id: u64, meta: ObjectMeta) -> Result<(), VpimError> {
        if self.resident.contains(id) {
            self.metrics.cache_hits.inc();
            return Ok(());
        }
        self.metrics.cache_misses.inc();
        self.make_room(meta.len)?;
        let data = self.mram_read(meta.off, meta.len)?;
        self.resident.insert(id, data, false);
        Ok(())
    }

    fn make_room(&mut self, need: u64) -> Result<(), VpimError> {
        if !self.try_make_room(need) {
            return Err(bad(format!(
                "pheap: resident window cannot fit {need} bytes (pinned/dirty objects fill \
                 the {}-byte budget)",
                self.resident.budget()
            )));
        }
        Ok(())
    }

    fn try_make_room(&mut self, need: u64) -> bool {
        match self.resident.make_room(need) {
            Some(evicted) => {
                self.metrics.evictions.add(evicted.len() as u64);
                true
            }
            None => false,
        }
    }

    fn site_fires(&self, point: &'static str, key: u64) -> bool {
        self.plane.as_ref().is_some_and(|p| p.hit_keyed(point, key))
    }

    fn mram_write(&mut self, off: u64, data: &[u8]) -> Result<(), VpimError> {
        if data.is_empty() {
            return Ok(());
        }
        let report = self.front.write_rank(&[(self.dpu, off, data)])?;
        self.cost += report.duration();
        Ok(())
    }

    fn mram_read(&mut self, off: u64, len: u64) -> Result<Vec<u8>, VpimError> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let (mut bufs, report) = self.front.read_rank(&[(self.dpu, off, len)])?;
        self.cost += report.duration();
        Ok(bufs.remove(0))
    }

    fn barrier(&mut self) -> Result<(), VpimError> {
        let report = self.front.persist_barrier()?;
        self.cost += report.duration();
        Ok(())
    }

    fn update_gauges(&self) {
        self.metrics.resident_bytes.set(self.resident.bytes() as i64);
        self.metrics.dirty_bytes.set(self.resident.dirty_bytes() as i64);
        self.metrics.objects.set(self.objects.len() as i64);
    }

    /// Internal constructor for [`recover`](Self::recover).
    pub(crate) fn from_recovered(
        front: Arc<Frontend>,
        opts: &PheapOptions,
        geom: Geometry,
        alloc: PAllocator,
        objects: BTreeMap<u64, ObjectMeta>,
        next_id: u64,
        applied_seq: u64,
    ) -> Pheap {
        let heap = Pheap {
            front,
            dpu: opts.dpu_index(),
            geom,
            alloc,
            objects,
            resident: ResidentSet::new(opts.resident_budget_bytes()),
            next_id,
            next_seq: applied_seq + 1,
            applied_seq,
            meta_dirty: false,
            plane: opts.take_plane(),
            metrics: opts.make_metrics(),
            cost: simkit::VirtualNanos::ZERO,
        };
        heap.update_gauges();
        heap
    }
}

fn bad(msg: impl Into<String>) -> VpimError {
    VpimError::BadRequest(msg.into())
}

fn bad_id(id: u64) -> VpimError {
    bad(format!("pheap: unknown object {id}"))
}

/// splitmix64 — derives the torn-append cut point from the sequence
/// number so tears are deterministic in `(seq)` alone.
fn splitmix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
