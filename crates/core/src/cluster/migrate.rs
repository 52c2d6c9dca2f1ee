//! Live migration: move a tenant's ranks between fleet hosts,
//! bit-identically, with rollback on any failure.
//!
//! # The state machine
//!
//! **Stop-and-copy** (the default):
//!
//! 1. *Pin* — take the tenant's entry lock. Every tenant op routes
//!    through [`Fleet::with_vm`], which needs the same lock, so from here
//!    the tenant is frozen: nothing can mutate its ranks until cutover.
//! 2. *Flush* — drain every frontend's write batch so all guest-visible
//!    state is in MRAM (the prefetch cache is read-only soft state; the
//!    destination frontend simply starts cold).
//! 3. *Snapshot* — per device, take the rank-slot lock
//!    ([`Backend::ensure_linked`], the same safe point scheduler
//!    preemption uses) and capture [`Rank::snapshot_quiescent`], charging
//!    the cost model's snapshot rate.
//! 4. *Ship* — each snapshot crosses the [`Link`] (serialized,
//!    fault-injectable, virtual-time cost) and parks in the fleet's
//!    budgeted in-flight store.
//! 5. *Restore* — launch a fresh VM for the tenant on the destination,
//!    then [`Rank::restore`] each parked snapshot onto its linked rank.
//! 6. *Cutover* — swap the entry's VM handle, release the source VM's
//!    ranks, expedite the source manager's sweep, and atomically re-home
//!    the tenant in the placement table.
//!
//! **Pre-copy** adds a warm round before step 1: snapshot the running
//! ranks (brief slot holds, no freeze), ship the *full* bytes while the
//! tenant keeps executing, then run stop-and-copy shipping only the
//! **dirty** bytes ([`RankSnapshot::diff_bytes`]) — the classic trade:
//! more total bytes on the wire, less downtime on the wire.
//!
//! # Rollback rules
//!
//! Every failure before step 6 leaves the tenant running on the source,
//! untouched: the source VM is never modified (snapshots are reads), the
//! destination reservation is returned, any destination VM is released,
//! and parked in-flight snapshots are evicted. There is no partial
//! cutover state — the placement table re-homes only after the new VM
//! handle is installed, both under the entry lock.
//!
//! # Determinism
//!
//! Every cost is integer virtual time derived from byte counts (link
//! serialization, snapshot/restore rates), and snapshots are bit-exact —
//! so a [`MigrationReport`] and the migrated tenant's subsequent op
//! results are identical across Sequential/Parallel dispatch, thread
//! counts, and seeds that don't fire faults.
//!
//! [`Backend::ensure_linked`]: crate::backend::Backend::ensure_linked
//! [`Rank::snapshot_quiescent`]: upmem_sim::Rank::snapshot_quiescent
//! [`Rank::restore`]: upmem_sim::Rank::restore
//! [`RankSnapshot::diff_bytes`]: upmem_sim::rank::RankSnapshot::diff_bytes
//! [`Link`]: super::Link

use simkit::lockorder::{ordered, LockLevel};
use simkit::VirtualNanos;
use upmem_sim::rank::RankSnapshot;

use super::{Fleet, TenantState};
use crate::error::VpimError;

/// The fault point the migration engine consults after pinning the
/// tenant (`cluster.migrate.stall`; armed via
/// [`FaultSite::MigrateStall`](crate::config::FaultSite::MigrateStall)).
/// A firing stalls the engine in *wall-clock* time only — like the
/// scheduler's checkpoint stall, it charges no virtual time and must not
/// perturb the migrated bits.
pub const MIGRATE_STALL_POINT: &str = "cluster.migrate.stall";

/// Which copy scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigrateMode {
    /// One round: freeze, copy everything, resume on the destination.
    #[default]
    StopAndCopy,
    /// Two rounds: ship a warm full copy while the tenant runs, then
    /// freeze and re-send only the dirty bytes.
    PreCopy,
}

/// Options for [`Fleet::migrate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MigrateOpts {
    /// The copy scheme.
    pub mode: MigrateMode,
}

impl MigrateOpts {
    /// Stop-and-copy.
    #[must_use]
    pub fn new() -> Self {
        MigrateOpts::default()
    }

    /// Selects `mode`.
    #[must_use]
    pub fn mode(mut self, mode: MigrateMode) -> Self {
        self.mode = mode;
        self
    }
}

/// What a completed migration measured. All times are virtual and pure
/// in the shipped byte counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationReport {
    /// The migrated tenant.
    pub tenant: String,
    /// Source host.
    pub from: usize,
    /// Destination host.
    pub to: usize,
    /// The scheme that ran.
    pub mode: MigrateMode,
    /// Ranks moved (one per device).
    pub ranks_moved: usize,
    /// Bytes shipped by the warm pre-copy round (0 for stop-and-copy).
    pub precopy_bytes: u64,
    /// Dirty bytes re-sent in the final round (0 for stop-and-copy).
    pub dirty_bytes: u64,
    /// Total bytes that crossed the link, all rounds.
    pub bytes_shipped: u64,
    /// Copy rounds (1 for stop-and-copy, 2 for pre-copy).
    pub rounds: u32,
    /// Virtual time the tenant was frozen (final snapshot + final ship +
    /// destination boot + restore).
    pub downtime: VirtualNanos,
    /// Total virtual migration time (warm round included).
    pub total: VirtualNanos,
}

fn inflight_key(tenant: &str, device: usize) -> String {
    format!("{tenant}/dev{device}")
}

impl Fleet {
    /// Live-migrates `tenant` to host `to`. On success the tenant is
    /// running on `to` with bit-identical rank state and the placement
    /// table re-homed; on failure it is still running on its source host,
    /// untouched (see the module docs for the rollback rules).
    ///
    /// # Errors
    ///
    /// [`VpimError::BadRequest`] for an unknown/released tenant, an
    /// out-of-range destination, or a self-migration;
    /// [`VpimError::NoRankAvailable`] when the destination lacks
    /// capacity; [`VpimError::Injected`] when an armed
    /// `cluster.link.drop` severs a transfer; plus any launch or restore
    /// failure from the destination host. Every aborted attempt
    /// increments `migrate.aborted`.
    pub fn migrate(
        &self,
        tenant: &str,
        to: usize,
        opts: MigrateOpts,
    ) -> Result<MigrationReport, VpimError> {
        if to >= self.hosts().len() {
            return Err(VpimError::BadRequest(format!("no host {to} in the fleet")));
        }
        let entry = self.entry(tenant)?;
        self.metrics.attempts.inc();

        let mut rounds = 0u32;
        let mut precopy_bytes = 0u64;
        let mut warm_vt = VirtualNanos::ZERO;
        let mut base: Option<Vec<RankSnapshot>> = None;

        if opts.mode == MigrateMode::PreCopy {
            // Warm round: capture the running ranks under brief slot
            // holds, then ship with the tenant live (dirtying freely).
            let snaps = {
                let _ord = ordered(LockLevel::Fleet, 1);
                let state = entry.state.lock();
                let Some(state) = state.as_ref() else {
                    self.metrics.aborted.inc();
                    return Err(VpimError::BadRequest(format!("tenant {tenant} released")));
                };
                if state.host == to {
                    self.metrics.aborted.inc();
                    return Err(VpimError::BadRequest(format!(
                        "tenant {tenant} already on host {to}"
                    )));
                }
                let mut snaps = Vec::with_capacity(state.vm.devices().len());
                for dev in state.vm.devices() {
                    let guard = dev.backend().ensure_linked()?;
                    let mapping = guard.as_ref().ok_or(VpimError::NotLinked)?;
                    let snap = mapping.rank().snapshot();
                    warm_vt += self.cm.rank_snapshot(snap.resident_bytes() as u64);
                    snaps.push(snap);
                }
                snaps
            };
            rounds += 1;
            for snap in &snaps {
                let bytes = snap.resident_bytes() as u64;
                match self.link().ship(bytes) {
                    Ok(cost) => {
                        warm_vt += cost;
                        precopy_bytes += bytes;
                    }
                    Err(e) => {
                        self.metrics.aborted.inc();
                        return Err(e);
                    }
                }
            }
            base = Some(snaps);
        }

        // Final (stop-and-copy) round: entry locked for the duration — the
        // tenant is frozen because every op path needs this same lock.
        let _ord = ordered(LockLevel::Fleet, 1);
        let mut slot = entry.state.lock();
        let Some(state) = slot.as_mut() else {
            self.metrics.aborted.inc();
            return Err(VpimError::BadRequest(format!("tenant {tenant} released")));
        };
        let from = state.host;
        if from == to {
            self.metrics.aborted.inc();
            return Err(VpimError::BadRequest(format!("tenant {tenant} already on host {to}")));
        }
        let need = state.spec.n_devices();

        // Reserve the destination before touching the source, so capacity
        // is pessimistic during the move and a failed move never
        // overcommits.
        {
            let _p = ordered(LockLevel::Placement, 0);
            if let Err(e) = self.placement.lock().reserve(to, need) {
                self.metrics.aborted.inc();
                return Err(e);
            }
        }

        match self.stop_and_copy(tenant, state, to, need, base.as_deref()) {
            Ok((bytes_final, dirty_bytes, downtime)) => {
                rounds += 1;
                {
                    let _p = ordered(LockLevel::Placement, 0);
                    self.placement.lock().rehome(tenant, from, to, need);
                }
                let total = warm_vt + downtime;
                self.metrics.completed.inc();
                self.metrics.bytes.add(precopy_bytes + bytes_final);
                self.metrics.dirty_bytes.add(dirty_bytes);
                self.metrics.downtime.record(downtime);
                self.metrics.vt.add(total);
                Ok(MigrationReport {
                    tenant: tenant.to_string(),
                    from,
                    to,
                    mode: opts.mode,
                    ranks_moved: need,
                    precopy_bytes,
                    dirty_bytes,
                    bytes_shipped: precopy_bytes + bytes_final,
                    rounds,
                    downtime,
                    total,
                })
            }
            Err(e) => {
                {
                    let _p = ordered(LockLevel::Placement, 0);
                    self.placement.lock().unreserve(to, need);
                }
                self.metrics.aborted.inc();
                Err(e)
            }
        }
    }

    /// The frozen half of a migration. On entry the tenant's entry lock
    /// is held and the destination capacity is reserved. Returns
    /// `(bytes shipped this round, dirty bytes, downtime)`; on error the
    /// source VM is untouched and every transient artifact (in-flight
    /// snapshots, destination VM) has been cleaned up.
    fn stop_and_copy(
        &self,
        tenant: &str,
        state: &mut TenantState,
        to: usize,
        need: usize,
        base: Option<&[RankSnapshot]>,
    ) -> Result<(u64, u64, VirtualNanos), VpimError> {
        let evict_inflight = |n: usize| {
            for j in 0..n {
                let _ = self.inflight.evict(&inflight_key(tenant, j));
            }
        };

        if self.inject.hit(MIGRATE_STALL_POINT) {
            // Wall-clock stall only: the entry lock stays held, no virtual
            // time is charged — the migrated bits must be unaffected.
            std::thread::sleep(std::time::Duration::from_millis(2));
        }

        // Flush guest-side soft state: the write batch must land in MRAM
        // before the snapshot.
        for frontend in state.vm.frontends() {
            frontend.flush_batch()?;
        }

        // Snapshot each rank at its slot safe point (brief holds — the
        // entry lock is what keeps the tenant frozen between them).
        let mut downtime = VirtualNanos::ZERO;
        let mut snaps = Vec::with_capacity(need);
        for dev in state.vm.devices() {
            let guard = dev.backend().ensure_linked()?;
            let mapping = guard.as_ref().ok_or(VpimError::NotLinked)?;
            let snap = mapping.rank().snapshot_quiescent().map_err(VpimError::from)?;
            downtime += self.cm.rank_snapshot(snap.resident_bytes() as u64);
            snaps.push(snap);
        }

        // Ship (full or dirty bytes) and park in flight.
        let mut bytes_shipped = 0u64;
        let mut dirty_bytes = 0u64;
        for (i, snap) in snaps.iter().enumerate() {
            let bytes = match base {
                Some(warm) => {
                    let dirty = snap.diff_bytes(warm.get(i).unwrap_or(snap));
                    dirty_bytes += dirty;
                    dirty
                }
                None => snap.resident_bytes() as u64,
            };
            downtime += self.link().ship(bytes)?;
            bytes_shipped += bytes;
        }
        for (i, snap) in snaps.into_iter().enumerate() {
            if let Err(e) = self.inflight.park(&inflight_key(tenant, i), snap) {
                evict_inflight(i);
                return Err(VpimError::BadRequest(format!("migration in-flight budget: {e}")));
            }
        }

        // Destination VM + restore. The tenant stays frozen (entry lock);
        // this whole window is downtime.
        let dst = match self.hosts()[to].system().launch_with_retry(&state.spec) {
            Ok(vm) => vm,
            Err(e) => {
                evict_inflight(need);
                return Err(e);
            }
        };
        downtime += dst.boot_report().total();
        for (i, dev) in dst.devices().iter().enumerate() {
            let restored: Result<(), VpimError> = (|| {
                let guard = dev.backend().ensure_linked()?;
                let mapping = guard.as_ref().ok_or(VpimError::NotLinked)?;
                let snap = self
                    .inflight
                    .take(&inflight_key(tenant, i))
                    .ok_or_else(|| VpimError::BadRequest("in-flight snapshot vanished".into()))?;
                downtime += self.cm.rank_restore(snap.resident_bytes() as u64);
                mapping.rank().restore(&snap).map_err(VpimError::from)
            })();
            if let Err(e) = restored {
                evict_inflight(need);
                let _ = dst.release_all();
                drop(dst);
                self.hosts()[to].system().sync_ranks();
                return Err(e);
            }
        }

        // Cutover: swap the handle, then tear the source down.
        let old = std::mem::replace(&mut state.vm, dst);
        let _ = old.release_all();
        drop(old);
        self.hosts()[state.host].system().sync_ranks();
        state.host = to;
        Ok((bytes_shipped, dirty_bytes, downtime))
    }
}
