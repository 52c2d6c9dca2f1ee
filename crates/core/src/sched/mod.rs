//! Rank scheduling and consolidation: time-sharing physical ranks among
//! more tenant VMs than the machine has ranks.
//!
//! The manager (§3.5) is an allocator — when every rank is `ALLO` it can
//! only retry and abandon. This module adds the missing policy layer on
//! top of it. A [`Scheduler`] sits between every backend's `ensure_linked`
//! and [`ManagerClient::alloc`]:
//!
//! * **Dedicated mode** (`sched.oversubscription = false`, the default):
//!   [`Scheduler::acquire`] is a thin pass-through to the manager, so the
//!   exhaustion semantics of the paper are unchanged — the Nth+1 tenant's
//!   request is abandoned with [`VpimError::NoRankAvailable`].
//! * **Oversubscribed mode**: acquire enqueues the tenant in a
//!   [`AdmissionQueue`] (FIFO or weighted-fair) and blocks. The queue head
//!   probes the manager (a call into its rank table on this thread); when
//!   the machine is exhausted it *preempts* a running tenant: wait for the victim's **safe point** (its per-device
//!   rank slot unlocked, i.e. no in-flight operation, and every DPU idle),
//!   checkpoint the rank with [`Rank::snapshot_quiescent`], park the
//!   checkpoint in a budgeted [`SnapshotStore`], flip the rank's table
//!   entry to `CKPT` and drop the victim's claim so the manager's observer
//!   recycles the rank (reset → `NAAV`). When a preempted tenant is next
//!   granted a rank, its parked checkpoint is restored bit-identically
//!   before the grant returns.
//!
//! All accounting is in **virtual time** — the backend charges each
//! completed operation's modeled duration via [`Scheduler::charge`], so a
//! Sequential and a Parallel dispatch of the same workload observe
//! identical vruntime growth and (policy inputs being equal) identical
//! schedules, preserving the virtual-clock determinism rule.
//!
//! [`Rank::snapshot_quiescent`]: upmem_sim::Rank::snapshot_quiescent

pub mod queue;
pub mod store;

pub use queue::{AdmissionQueue, SchedPolicy, ShardedAdmissionQueue, Waiter};
pub use store::{SnapshotStore, StoreError};

use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};
use simkit::{
    ordered, CostModel, Counter, FaultPlane, Gauge, InjectCell, LockLevel, LockToken,
    MetricsRegistry, RetryMetrics, RetryPolicy, TimeoutClass, VirtualNanos,
};
use upmem_driver::{PerfMapping, UpmemDriver};

use crate::config::SchedSection;
use crate::error::VpimError;
use crate::manager::ManagerClient;

/// Fault point for the scheduler's checkpoint path: firing stalls the
/// preempter ~2 ms of wall-clock time at the safe point (slot locked,
/// snapshot not yet taken). The checkpoint itself — and therefore the
/// restored state and all `sched.*` telemetry — is unaffected: the stall
/// models a slow host thread, not a torn checkpoint.
pub const CKPT_STALL_POINT: &str = "sched.ckpt.stall";

/// A backend's rank slot: the mutex-guarded perf mapping the scheduler
/// time-shares. Holding the lock *is* holding the safe-point token — the
/// scheduler only checkpoints a tenant whose slot it has locked, so an
/// in-flight operation (which keeps the lock for its whole duration)
/// can never be torn.
pub type RankSlot = Arc<Mutex<Option<PerfMapping>>>;

/// An empty [`RankSlot`] — for embedders (and tests) wiring a scheduler
/// to raw slots without a full backend.
#[must_use]
pub fn empty_slot() -> RankSlot {
    Arc::new(Mutex::new(None))
}

/// How often a blocked waiter re-examines the queue between notifications.
const WAIT_TICK: Duration = Duration::from_millis(10);

/// The outcome of a successful [`Scheduler::acquire`].
#[derive(Debug)]
pub struct RankGrant {
    /// The granted physical rank.
    pub rank: usize,
    /// The manager handed back a `NANA` rank to its previous owner
    /// without a reset.
    pub reused: bool,
    /// A parked checkpoint was restored onto the rank before the grant
    /// returned (the tenant resumes exactly where preemption stopped it).
    pub restored: bool,
    /// Modeled wait cost of this grant in virtual time: the manager
    /// round-trip, plus snapshot + reset time for every preemption this
    /// waiter performed, plus restore time when `restored`.
    pub wait_vt: VirtualNanos,
    /// The claimed performance-mode mapping; the caller installs it into
    /// its slot (which it must already hold locked).
    pub mapping: PerfMapping,
}

/// Point-in-time scheduler statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Rank grants handed out (dedicated and oversubscribed).
    pub grants: u64,
    /// Preemptions performed (checkpoint + rank recycle).
    pub preemptions: u64,
    /// Checkpoint restores performed on re-grant.
    pub restores: u64,
    /// Tenants currently waiting in the admission queue.
    pub queued: usize,
    /// Tenants currently holding a rank lease.
    pub running: usize,
    /// Bytes of checkpoints currently parked.
    pub parked_bytes: u64,
    /// Total virtual time charged across all tenants.
    pub vclock_ns: u64,
}

#[derive(Debug)]
struct Lease {
    /// Weak so a dropped backend never pins a lease alive.
    slot: Weak<Mutex<Option<PerfMapping>>>,
    rank: usize,
    /// Grant order; preemption targets the oldest un-expired lease.
    grant_seq: u64,
    /// Virtual nanoseconds charged against this lease.
    used_vt: u64,
    /// A preemption of this lease is in flight (victim is off-limits to
    /// other preempters until it resolves).
    preempting: bool,
}

#[derive(Debug)]
struct Account {
    weight: u64,
    /// Weighted virtual runtime in nanoseconds (`Σ charged / weight`).
    vruntime: u64,
}

impl Default for Account {
    fn default() -> Self {
        Account { weight: 1, vruntime: 0 }
    }
}

/// Everything the scheduler mutates, under its one lock
/// ([`LockLevel::SchedState`]). `charge` — issued once per completed
/// operation — and every queue operation take this lock and nothing else.
#[derive(Debug)]
struct State {
    queue: AdmissionQueue,
    /// Next arrival ticket, so tickets are the global arrival order.
    next_ticket: u64,
    running: HashMap<String, Lease>,
    accounts: HashMap<String, Account>,
    /// Next grant-order sequence number.
    next_grant: u64,
    /// Total charged virtual nanoseconds (the scheduler's virtual clock).
    vclock: u64,
}

#[derive(Debug)]
struct SchedMetrics {
    grants: Counter,
    preemptions: Counter,
    restores: Counter,
    queue_depth: Gauge,
}

impl SchedMetrics {
    fn from_registry(registry: &MetricsRegistry) -> Self {
        SchedMetrics {
            grants: registry.counter("sched.grants"),
            preemptions: registry.counter("sched.preemptions"),
            restores: registry.counter("sched.restores"),
            queue_depth: registry.gauge("sched.queue.depth"),
        }
    }
}

struct Inner {
    driver: Arc<UpmemDriver>,
    manager: ManagerClient,
    cfg: SchedSection,
    cm: CostModel,
    state: Mutex<State>,
    /// Signalled after each change a waiter may be blocked on (a waiter
    /// leaving the queue, a lease ending, a charge while tenants wait).
    /// Waiters block on it holding `state`, so a change made under that
    /// lock cannot fall between a waiter's check and its wait.
    changed: Condvar,
    store: SnapshotStore,
    metrics: SchedMetrics,
    retry: RetryMetrics,
    registry: MetricsRegistry,
    inject: InjectCell,
}

/// The admission-controlled rank scheduler (one per [`VpimSystem`]).
///
/// Cloning shares the scheduler — every backend of every VM on a host
/// must hold clones of the *same* scheduler, or double-grants become
/// possible.
///
/// [`VpimSystem`]: crate::system::VpimSystem
#[derive(Clone)]
pub struct Scheduler {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("oversubscription", &self.inner.cfg.oversubscription)
            .field("policy", &self.inner.cfg.policy)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Scheduler {
    /// A scheduler driving `manager` under the policy in `cfg`, publishing
    /// `sched.*` metrics into `registry`.
    #[must_use]
    pub fn new(
        driver: Arc<UpmemDriver>,
        manager: ManagerClient,
        cfg: SchedSection,
        cm: CostModel,
        registry: &MetricsRegistry,
    ) -> Self {
        Scheduler {
            inner: Arc::new(Inner {
                driver,
                manager,
                cm,
                state: Mutex::new(State {
                    queue: AdmissionQueue::new(cfg.policy),
                    next_ticket: 0,
                    running: HashMap::new(),
                    accounts: HashMap::new(),
                    next_grant: 0,
                    vclock: 0,
                }),
                changed: Condvar::new(),
                store: SnapshotStore::with_registry(
                    cfg.park_budget_mib.saturating_mul(1 << 20),
                    registry,
                    "snapshot.bytes",
                ),
                metrics: SchedMetrics::from_registry(registry),
                retry: RetryMetrics::from_registry(registry),
                registry: registry.clone(),
                inject: InjectCell::new(),
                cfg,
            }),
        }
    }

    /// Locks the scheduler state (ordered at [`LockLevel::SchedState`]).
    fn lock_state(&self) -> (LockToken, MutexGuard<'_, State>) {
        let token = ordered(LockLevel::SchedState, 0);
        (token, self.inner.state.lock())
    }

    /// Installs the fault-injection plane consulted by the checkpoint path
    /// ([`CKPT_STALL_POINT`]); its seed also drives the allocation retry
    /// policy's deterministic jitter. Clones share the cell.
    pub fn install_fault_plane(&self, plane: Arc<FaultPlane>) {
        self.inner.inject.install(plane);
    }

    /// The seed retry jitter is derived from: the installed plane's seed,
    /// or 0 when injection is off (jitter is then still deterministic).
    fn retry_seed(&self) -> u64 {
        self.inner.inject.plane().map_or(0, |p| p.seed())
    }

    /// The scheduling configuration this scheduler runs under.
    #[must_use]
    pub fn config(&self) -> &SchedSection {
        &self.inner.cfg
    }

    /// The checkpoint parking store.
    #[must_use]
    pub fn store(&self) -> &SnapshotStore {
        &self.inner.store
    }

    /// Tenants currently waiting for a rank.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.lock_state().1.queue.len()
    }

    /// Point-in-time statistics.
    #[must_use]
    pub fn stats(&self) -> SchedStats {
        let (_t, st) = self.lock_state();
        SchedStats {
            grants: self.inner.metrics.grants.get(),
            preemptions: self.inner.metrics.preemptions.get(),
            restores: self.inner.metrics.restores.get(),
            queued: st.queue.len(),
            running: st.running.len(),
            parked_bytes: self.inner.store.used_bytes(),
            vclock_ns: st.vclock,
        }
    }

    /// Sets `tenant`'s weighted-fair share weight (clamped to ≥ 1; the
    /// default is 1). Twice the weight means vruntime grows half as fast,
    /// i.e. twice the rank time under contention.
    pub fn set_weight(&self, tenant: &str, weight: u64) {
        let (_t, mut st) = self.lock_state();
        st.accounts.entry(tenant.to_string()).or_default().weight = weight.max(1);
    }

    /// Acquires a rank for `tenant`, whose (empty) slot the caller must
    /// currently hold locked. The returned mapping must be installed into
    /// that slot before the lock is released — the lock held across
    /// acquire-and-install is what makes grant registration atomic with
    /// respect to preempters.
    ///
    /// # Errors
    ///
    /// Dedicated mode propagates manager errors unchanged (notably
    /// [`VpimError::NoRankAvailable`] on exhaustion). Oversubscribed mode
    /// converts exhaustion into queueing and returns
    /// [`VpimError::AdmissionTimeout`] only when `admission_timeout_ms`
    /// elapses without a grant.
    pub fn acquire(&self, tenant: &str, slot: &RankSlot) -> Result<RankGrant, VpimError> {
        if self.inner.cfg.oversubscription {
            self.acquire_oversubscribed(tenant, slot)
        } else {
            self.acquire_dedicated(tenant, slot)
        }
    }

    fn acquire_dedicated(&self, tenant: &str, slot: &RankSlot) -> Result<RankGrant, VpimError> {
        let inner = &*self.inner;
        // Transient (injected) manager failures are retried under the
        // allocation timeout class; backoff is charged to the grant's
        // virtual wait so both dispatch modes report identical timelines.
        let (outcome, backoff_vt) = RetryPolicy::for_class(&inner.cm, TimeoutClass::ManagerAlloc)
            .run(self.retry_seed(), Some(&inner.retry), VpimError::is_transient, |_| {
                inner.manager.alloc(tenant)
            });
        self.finish_grant(tenant, None, &outcome?, backoff_vt, slot)
    }

    fn acquire_oversubscribed(
        &self,
        tenant: &str,
        slot: &RankSlot,
    ) -> Result<RankGrant, VpimError> {
        let inner = &*self.inner;
        let deadline = Instant::now() + Duration::from_millis(inner.cfg.admission_timeout_ms);
        let mut wait_vt = VirtualNanos::ZERO;
        let mut held = self.lock_state();
        let ticket = {
            let st = &mut *held.1;
            let vruntime = st.accounts.entry(tenant.to_string()).or_default().vruntime;
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.queue.push(tenant, ticket, vruntime);
            ticket
        };
        inner.metrics.queue_depth.add(1);
        // Injected manager faults keep the ticket and re-probe after a
        // bounded, deterministic backoff charged to the grant's virtual
        // wait.
        let mut transient = RetryPolicy::for_class(&inner.cm, TimeoutClass::ManagerAlloc)
            .budget(self.retry_seed(), Some(&inner.retry));
        loop {
            // Only the policy's head probes the manager, so grants leave
            // in policy order.
            if held.1.queue.head().map(|w| w.ticket) == Some(ticket) {
                // The probe and a preemption run unlocked: preemption takes
                // a victim's RankSlot, which sits below SchedState.
                drop(held);
                // `true`: a rank is being recycled, re-probe without waiting.
                let reprobe = match inner.manager.alloc(tenant) {
                    Ok(outcome) => {
                        let wait_vt = wait_vt + transient.backoff();
                        return self.finish_grant(tenant, Some(ticket), &outcome, wait_vt, slot);
                    }
                    Err(VpimError::NoRankAvailable) => self.try_preempt(tenant, &mut wait_vt),
                    Err(e) if transient.retry(e.is_transient()) => false,
                    Err(e) => {
                        self.dequeue(ticket);
                        return Err(e);
                    }
                };
                held = self.lock_state();
                if reprobe {
                    continue;
                }
            }
            if Instant::now() >= deadline {
                drop(held);
                self.dequeue(ticket);
                return Err(VpimError::AdmissionTimeout(tenant.to_string()));
            }
            // Who is head changes only under the lock held here, so a
            // non-head waiter cannot sleep through becoming head. The
            // head's probe also depends on state outside this lock (the
            // manager's table, which the observer recycles unannounced),
            // hence the bounded tick.
            let _ = inner.changed.wait_for(&mut held.1, WAIT_TICK);
        }
    }

    /// The tail of every grant: claim the rank, restore the tenant's parked
    /// checkpoint if it has one, register the lease and record the wait.
    /// `ticket` is the tenant's admission-queue entry (`None` in dedicated
    /// mode, which never queues); it leaves the queue whether or not the
    /// grant succeeds. `wait_vt` is what the wait cost before the manager
    /// answered.
    fn finish_grant(
        &self,
        tenant: &str,
        ticket: Option<u64>,
        outcome: &crate::manager::AllocOutcome,
        mut wait_vt: VirtualNanos,
        slot: &RankSlot,
    ) -> Result<RankGrant, VpimError> {
        let inner = &*self.inner;
        let claim = || -> Result<(PerfMapping, Option<VirtualNanos>), VpimError> {
            let mapping = inner.driver.open_perf(outcome.rank, tenant)?;
            let Some(snap) = inner.store.take(tenant) else {
                return Ok((mapping, None));
            };
            let bytes = snap.resident_bytes() as u64;
            if let Err(e) = mapping.rank().restore(&snap) {
                // The parked copy is the tenant's only state: put it back
                // (same-tenant park cannot exceed the budget) and fail the
                // grant rather than resume from a torn rank.
                let _ = inner.store.park(tenant, snap);
                return Err(e.into());
            }
            Ok((mapping, Some(inner.cm.rank_restore(bytes))))
        };
        let (mapping, restore_vt) = match claim() {
            Ok(claimed) => claimed,
            Err(e) => {
                if let Some(ticket) = ticket {
                    self.dequeue(ticket);
                }
                return Err(e);
            }
        };
        wait_vt += inner.cm.manager_alloc() + restore_vt.unwrap_or(VirtualNanos::ZERO);
        {
            let (_t, mut st) = self.lock_state();
            if ticket.is_some_and(|t| st.queue.remove(t)) {
                inner.metrics.queue_depth.sub(1);
            }
            Self::register_grant(&mut st, tenant, outcome.rank, slot);
        }
        inner.metrics.grants.inc();
        if restore_vt.is_some() {
            inner.metrics.restores.inc();
        }
        inner.registry.histogram(&format!("sched.wait.{tenant}")).record(wait_vt);
        inner.changed.notify_all();
        Ok(RankGrant {
            rank: outcome.rank,
            reused: outcome.reused,
            restored: restore_vt.is_some(),
            wait_vt,
            mapping,
        })
    }

    fn register_grant(st: &mut State, tenant: &str, rank: usize, slot: &RankSlot) {
        let grant_seq = st.next_grant;
        st.next_grant += 1;
        st.running.insert(
            tenant.to_string(),
            Lease { slot: Arc::downgrade(slot), rank, grant_seq, used_vt: 0, preempting: false },
        );
    }

    fn dequeue(&self, ticket: u64) {
        let inner = &*self.inner;
        if self.lock_state().1.queue.remove(ticket) {
            inner.metrics.queue_depth.sub(1);
        }
        inner.changed.notify_all();
    }

    /// Picks a victim and checkpoints it. `true` means a rank was (or
    /// is being) freed and the caller should re-probe the manager;
    /// `false` means nothing was preemptable and the caller should
    /// block until the next change.
    ///
    /// Victim order: leases that exhausted their quantum first, then the
    /// oldest grant — so an idle long-holder is eventually preempted even
    /// if it never spends its quantum, which is what makes the admission
    /// queue deadlock-free.
    fn try_preempt(&self, me: &str, wait_vt: &mut VirtualNanos) -> bool {
        let inner = &*self.inner;
        let quantum_ns = inner.cfg.quantum_ms.saturating_mul(1_000_000);
        let picked = self
            .lock_state()
            .1
            .running
            .iter_mut()
            .filter(|(t, l)| t.as_str() != me && !l.preempting)
            .min_by_key(|(_, l)| (u64::from(l.used_vt < quantum_ns), l.grant_seq))
            .map(|(t, lease)| {
                lease.preempting = true;
                (t.clone(), lease.slot.clone(), lease.rank)
            });
        let Some((victim, weak_slot, rank)) = picked else {
            return false;
        };
        let Some(slot) = weak_slot.upgrade() else {
            // The victim's backend is gone; its claim dropped with it.
            self.reap(&victim);
            return true;
        };
        // Safe point: taking the slot lock waits out any in-flight
        // operation (operations hold the lock for their full duration).
        // The state lock was dropped above — RankSlot sits below SchedState
        // in the hierarchy.
        let _slot_order = ordered(LockLevel::RankSlot, 0);
        let mut guard = slot.lock();
        if inner.inject.hit(CKPT_STALL_POINT) {
            // Wall-clock stall only: the slot stays locked (no operation can
            // sneak in), the snapshot below is still quiescent, and no
            // virtual time is charged — parked state restores bit-identically.
            std::thread::sleep(Duration::from_millis(2));
        }
        let Some(mapping) = guard.as_ref() else {
            // The victim released on its own while we were picking it.
            drop(guard);
            self.reap(&victim);
            return true;
        };
        let snap = match mapping.rank().snapshot_quiescent() {
            Ok(s) => s,
            Err(_) => {
                // DPUs still running — not a safe point; back off and let
                // the victim finish.
                drop(guard);
                self.clear_preempting(&victim);
                return false;
            }
        };
        let bytes = snap.resident_bytes() as u64;
        if inner.store.park(&victim, snap).is_err() {
            // Park budget exhausted: refusing the preemption is the only
            // safe move (parked state is the victim's sole copy).
            drop(guard);
            self.clear_preempting(&victim);
            return false;
        }
        // ALLO → CKPT in the rank table, then drop the victim's claim so
        // the observer sees the release and recycles the rank.
        let _ = inner.manager.mark_ckpt(rank);
        *guard = None;
        drop(guard);
        self.lock_state().1.running.remove(&victim);
        inner.metrics.preemptions.inc();
        *wait_vt = *wait_vt
            + inner.cm.rank_snapshot(bytes)
            + inner.cm.rank_reset(inner.driver.machine().config().rank_mapped_bytes());
        // Expedite observe + reset instead of waiting for the 50 ms
        // observer sweep.
        inner.manager.sync();
        inner.changed.notify_all();
        true
    }

    fn reap(&self, tenant: &str) {
        self.lock_state().1.running.remove(tenant);
        self.inner.manager.sync();
        self.inner.changed.notify_all();
    }

    fn clear_preempting(&self, tenant: &str) {
        if let Some(l) = self.lock_state().1.running.get_mut(tenant) {
            l.preempting = false;
        }
    }

    /// Charges `vt` of virtual time against `tenant`'s lease and account.
    /// The backend calls this once per successfully completed operation
    /// with the operation's modeled duration, so scheduling accounts are
    /// identical under Sequential and Parallel dispatch.
    pub fn charge(&self, tenant: &str, vt: VirtualNanos) {
        let ns = vt.as_nanos();
        let waiters = {
            let (_t, mut st) = self.lock_state();
            let acct = st.accounts.entry(tenant.to_string()).or_default();
            acct.vruntime = acct.vruntime.saturating_add(ns / acct.weight.max(1));
            if let Some(l) = st.running.get_mut(tenant) {
                l.used_vt = l.used_vt.saturating_add(ns);
            }
            st.vclock = st.vclock.saturating_add(ns);
            !st.queue.is_empty()
        };
        if waiters {
            self.inner.changed.notify_all();
        }
    }

    /// Tells the scheduler `tenant` released its rank voluntarily (device
    /// unlink / VM shutdown): the lease dies, any parked checkpoint is
    /// discarded, and waiters are woken.
    pub fn notify_release(&self, tenant: &str) {
        let inner = &*self.inner;
        self.lock_state().1.running.remove(tenant);
        inner.store.evict(tenant);
        if inner.cfg.oversubscription {
            // Expedite rank recycling for the waiters we are about to wake.
            inner.manager.sync();
        }
        inner.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{Manager, ManagerConfig};
    use upmem_sim::{PimConfig, PimMachine};

    fn snappy() -> ManagerConfig {
        ManagerConfig {
            retry_timeout: Duration::from_millis(5),
            max_attempts: 1,
        }
    }

    fn host(ranks: usize) -> (Arc<UpmemDriver>, Manager) {
        let cfg = PimConfig {
            ranks,
            functional_dpus: vec![8; ranks],
            mram_size: 1 << 20,
            ..PimConfig::small()
        };
        let driver = Arc::new(UpmemDriver::new(PimMachine::new(cfg)));
        let mgr = Manager::start(driver.clone(), CostModel::default(), snappy());
        (driver, mgr)
    }

    fn sched(driver: &Arc<UpmemDriver>, mgr: &Manager, section: SchedSection) -> Scheduler {
        Scheduler::new(
            driver.clone(),
            mgr.client(),
            section,
            CostModel::default(),
            &MetricsRegistry::new(),
        )
    }

    fn oversub() -> SchedSection {
        SchedSection { oversubscription: true, quantum_ms: 0, ..SchedSection::default() }
    }

    #[test]
    fn dedicated_mode_passes_exhaustion_through() {
        let (driver, mgr) = host(1);
        let s = sched(&driver, &mgr, SchedSection::default());
        let slot_a: RankSlot = Arc::new(Mutex::new(None));
        let slot_b: RankSlot = Arc::new(Mutex::new(None));
        let grant = {
            let mut g = slot_a.lock();
            let grant = s.acquire("vm-a", &slot_a).unwrap();
            *g = Some(grant.mapping);
            grant.rank
        };
        assert_eq!(grant, 0);
        let mut g = slot_b.lock();
        assert!(matches!(s.acquire("vm-b", &slot_b), Err(VpimError::NoRankAvailable)));
        drop(g.take());
        mgr.shutdown();
    }

    #[test]
    fn oversubscription_preempts_checkpoints_and_restores() {
        let (driver, mgr) = host(1);
        let s = sched(&driver, &mgr, oversub());
        let slot_a: RankSlot = Arc::new(Mutex::new(None));
        let slot_b: RankSlot = Arc::new(Mutex::new(None));
        // vm-a takes the only rank and dirties it.
        {
            let mut g = slot_a.lock();
            let grant = s.acquire("vm-a", &slot_a).unwrap();
            grant.mapping.rank().write_dpu(0, 0, &[0xC4; 32]).unwrap();
            *g = Some(grant.mapping);
        }
        // vm-b must preempt vm-a to get in.
        {
            let mut g = slot_b.lock();
            let grant = s.acquire("vm-b", &slot_b).unwrap();
            assert_eq!(grant.rank, 0);
            assert!(!grant.restored);
            // The rank was reset: vm-a's bytes must not leak to vm-b.
            let mut buf = [1u8; 32];
            grant.mapping.rank().read_dpu(0, 0, &mut buf).unwrap();
            assert_eq!(buf, [0u8; 32]);
            *g = Some(grant.mapping);
        }
        assert!(slot_a.lock().is_none(), "vm-a's slot was emptied by preemption");
        assert!(s.store().contains("vm-a"));
        // vm-a comes back: vm-b gets preempted, vm-a's checkpoint restores.
        {
            let mut g = slot_a.lock();
            let grant = s.acquire("vm-a", &slot_a).unwrap();
            assert!(grant.restored);
            let mut buf = [0u8; 32];
            grant.mapping.rank().read_dpu(0, 0, &mut buf).unwrap();
            assert_eq!(buf, [0xC4; 32], "restore must be bit-identical");
            *g = Some(grant.mapping);
        }
        let stats = s.stats();
        assert!(stats.preemptions >= 2);
        assert_eq!(stats.restores, 1);
        assert_eq!(stats.grants, 3);
        slot_a.lock().take();
        s.notify_release("vm-a");
        mgr.shutdown();
    }

    #[test]
    fn admission_times_out_when_nothing_is_preemptable() {
        let (driver, mgr) = host(1);
        let s = sched(
            &driver,
            &mgr,
            SchedSection { admission_timeout_ms: 50, ..oversub() },
        );
        let slot_a: RankSlot = Arc::new(Mutex::new(None));
        {
            let mut g = slot_a.lock();
            let grant = s.acquire("vm-a", &slot_a).unwrap();
            *g = Some(grant.mapping);
        }
        // Make vm-a unpreemptable (as if another preempter already owned
        // it): vm-b can then neither allocate nor preempt, and must time
        // out cleanly.
        s.lock_state().1.running.get_mut("vm-a").unwrap().preempting = true;
        let slot_b: RankSlot = Arc::new(Mutex::new(None));
        let _g = slot_b.lock();
        assert!(matches!(
            s.acquire("vm-b", &slot_b),
            Err(VpimError::AdmissionTimeout(t)) if t == "vm-b"
        ));
        assert_eq!(s.queue_depth(), 0, "timed-out waiter left the queue");
        mgr.shutdown();
    }

    #[test]
    fn weighted_fair_serves_least_served_tenant_first() {
        let (driver, mgr) = host(2);
        let s = sched(
            &driver,
            &mgr,
            SchedSection { policy: SchedPolicy::WeightedFair, ..oversub() },
        );
        s.charge("greedy", VirtualNanos::from_nanos(1_000_000));
        // Both can be served immediately (2 ranks); the point is just that
        // charge() feeds the vruntime the queue orders by.
        let slot: RankSlot = Arc::new(Mutex::new(None));
        {
            let mut g = slot.lock();
            let grant = s.acquire("greedy", &slot).unwrap();
            *g = Some(grant.mapping);
        }
        assert!(s.lock_state().1.accounts["greedy"].vruntime >= 1_000_000);
        mgr.shutdown();
    }
}
