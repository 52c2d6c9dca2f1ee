//! The rank table and its state machine (Fig. 5).
//!
//! One mutex guards the whole table (a host has 8 ranks, §3.5) and one
//! condvar, paired with that mutex, carries every wakeup: allocation
//! retries and [`TableState::wait_for_state`] park on it holding the table
//! lock, so a transition made under the lock can never slip between a
//! waiter's check and its wait. The lock is `LockLevel::ManagerTable`;
//! the only lock taken inside it is the sysfs board's, for the claim
//! counter an allocation records.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};
use simkit::lockorder::{ordered, LockLevel, LockToken};
use simkit::{CostModel, Counter, VirtualNanos};
use upmem_driver::{RankStatus, UpmemDriver};

use crate::error::VpimError;

/// Public view of a rank's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankState {
    /// Not allocated, available (ready for any requester).
    Naav,
    /// Allocated (to a VM's backend or a native host application).
    Allo,
    /// Allocated, checkpoint in flight: the scheduler snapshotted the
    /// owner's rank at a safe point and is about to drop the claim. The
    /// release that follows recycles the rank for the next tenant
    /// (CKPT → NANA → reset → NAAV).
    Ckpt,
    /// Not allocated, not available: released, awaiting content reset.
    Nana,
}

/// Outcome of a successful allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocOutcome {
    /// The granted rank.
    pub rank: usize,
    /// True when a NANA rank was handed back to its previous owner without
    /// a reset (§3.5's CPU-cycle-saving path).
    pub reused: bool,
}

/// Aggregate manager statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ManagerStats {
    /// Successful allocations served.
    pub allocations: u64,
    /// Allocations that reused a NANA rank without reset.
    pub reuses: u64,
    /// Content resets performed.
    pub resets: u64,
    /// Abandoned allocation requests.
    pub abandoned: u64,
    /// Total virtual time spent in resets.
    pub reset_virtual: VirtualNanos,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum State {
    Naav,
    Allo { owner: String },
    Ckpt { owner: String },
    Nana,
}

impl State {
    fn public(&self) -> RankState {
        match self {
            State::Naav => RankState::Naav,
            State::Allo { .. } => RankState::Allo,
            State::Ckpt { .. } => RankState::Ckpt,
            State::Nana => RankState::Nana,
        }
    }
}

#[derive(Debug)]
struct Entry {
    state: State,
    last_owner: Option<String>,
    /// The sysfs claim counter at allocation time. A Free sysfs entry only
    /// means "released" once the counter moved past this value — guarding
    /// the alloc-decision → device-open window and catching claim/release
    /// cycles that happen entirely between two observer sweeps.
    claims_at_alloc: u64,
    /// A [`TableState::reset_rank`] call currently owns this rank.
    resetting: bool,
}

#[derive(Debug)]
struct Table {
    entries: Vec<Entry>,
    /// Where the NAAV round-robin scan starts.
    rr_cursor: usize,
}

#[derive(Debug, Default)]
struct Stats {
    allocations: AtomicU64,
    reuses: AtomicU64,
    resets: AtomicU64,
    abandoned: AtomicU64,
    reset_virtual_ns: AtomicU64,
}

/// Shared manager state: the rank table plus its statistics. Public so
/// the property and stress suites can drive the table directly.
#[derive(Debug)]
pub struct TableState {
    driver: Arc<UpmemDriver>,
    cm: CostModel,
    table: Mutex<Table>,
    /// Paired with `table`; notified after every transition.
    changed: Condvar,
    stats: Stats,
    /// NAAV↔ALLO↔NANA edges walked (Fig. 5), one tick per rank per edge.
    transitions: Counter,
}

impl TableState {
    /// A table over `driver`'s ranks, all `NAAV`.
    #[must_use]
    pub fn new(driver: Arc<UpmemDriver>, cm: CostModel) -> Self {
        let n = driver.rank_count();
        TableState {
            driver,
            cm,
            table: Mutex::new(Table {
                entries: (0..n)
                    .map(|_| Entry {
                        state: State::Naav,
                        last_owner: None,
                        claims_at_alloc: 0,
                        resetting: false,
                    })
                    .collect(),
                rr_cursor: 0,
            }),
            changed: Condvar::new(),
            stats: Stats::default(),
            transitions: Counter::new(),
        }
    }

    /// Replaces the transition cell with a registry-owned counter (e.g.
    /// `manager.rank_state.transitions`).
    #[must_use]
    pub fn with_transition_counter(mut self, transitions: Counter) -> Self {
        self.transitions = transitions;
        self
    }

    /// Locks the table, with lock-order tracking.
    fn lock(&self) -> (LockToken, MutexGuard<'_, Table>) {
        (ordered(LockLevel::ManagerTable, 0), self.table.lock())
    }

    /// State-machine edges walked so far.
    pub fn transitions(&self) -> u64 {
        self.transitions.get()
    }

    /// The modeled duration of one allocation round trip.
    #[must_use]
    pub fn alloc_cost(&self) -> VirtualNanos {
        self.cm.manager_alloc()
    }

    /// One rank's state (`None` past the last rank).
    #[must_use]
    pub fn state_of(&self, rank: usize) -> Option<RankState> {
        self.lock().1.entries.get(rank).map(|e| e.state.public())
    }

    /// The allocation strategy of §3.5, run on the requester's thread.
    ///
    /// # Errors
    ///
    /// [`VpimError::NoRankAvailable`] once `max_attempts` scans (with a
    /// `retry_timeout` wait between them) found nothing claimable.
    pub fn alloc(
        &self,
        owner: &str,
        retry_timeout: Duration,
        max_attempts: usize,
    ) -> Result<AllocOutcome, VpimError> {
        let (_ord, mut t) = self.lock();
        for _attempt in 0..max_attempts.max(1) {
            let n = t.entries.len();
            // 1. A NANA rank previously used by this owner: no reset needed.
            let reuse = t.entries.iter().position(|e| {
                e.state == State::Nana && !e.resetting && e.last_owner.as_deref() == Some(owner)
            });
            // 2. A NAAV rank by round-robin from the cursor.
            let fresh = || {
                (0..n)
                    .map(|k| (t.rr_cursor + k) % n)
                    .find(|&i| t.entries[i].state == State::Naav && !t.entries[i].resetting)
            };
            if let Some(rank) = reuse.or_else(fresh) {
                let reused = reuse.is_some();
                if reused {
                    self.stats.reuses.fetch_add(1, Ordering::Relaxed);
                } else {
                    t.rr_cursor = (rank + 1) % n;
                }
                let e = &mut t.entries[rank];
                e.state = State::Allo { owner: owner.to_string() };
                e.claims_at_alloc = self.driver.sysfs().claim_count(rank);
                e.last_owner = Some(owner.to_string());
                self.transitions.inc(); // NANA/NAAV -> ALLO
                self.stats.allocations.fetch_add(1, Ordering::Relaxed);
                drop(t);
                self.changed.notify_all();
                return Ok(AllocOutcome { rank, reused });
            }
            // 3. Wait: either for a NANA reset to complete or for any
            //    release, then retry.
            let _ = self.changed.wait_for(&mut t, retry_timeout);
        }
        self.stats.abandoned.fetch_add(1, Ordering::Relaxed);
        Err(VpimError::NoRankAvailable)
    }

    /// Reconciles the table with a sysfs snapshot (status + claim counter
    /// per rank); returns ranks that were just released and need a
    /// content reset.
    pub fn sync_with_sysfs(&self, snapshot: &[(RankStatus, u64)]) -> Vec<usize> {
        let mut to_reset = Vec::new();
        let mut changed_any = false;
        let (_ord, mut t) = self.lock();
        for (rank, ((status, claims), e)) in snapshot.iter().zip(&mut t.entries).enumerate() {
            match (status, &e.state) {
                (RankStatus::InUse { owner }, State::Naav) => {
                    // A native host application claimed the rank directly
                    // through the driver (R3: coexistence without app
                    // changes). Manager reset claims never hit this arm
                    // because resets only run on NANA ranks.
                    e.state = State::Allo { owner: owner.clone() };
                    e.last_owner = Some(owner.clone());
                    e.claims_at_alloc = claims.saturating_sub(1);
                    self.transitions.inc(); // NAAV -> ALLO (external claim)
                    changed_any = true;
                }
                (RankStatus::Free, State::Allo { .. } | State::Ckpt { .. })
                    if *claims > e.claims_at_alloc =>
                {
                    e.state = State::Nana;
                    self.transitions.inc(); // ALLO/CKPT -> NANA (release observed)
                    to_reset.push(rank);
                    changed_any = true;
                }
                _ => {}
            }
        }
        drop(t);
        if changed_any {
            self.changed.notify_all();
        }
        to_reset
    }

    /// Flips an `ALLO` rank to `CKPT` (the scheduler checkpointed its
    /// owner at a safe point and will drop the claim next); returns
    /// whether the transition happened.
    pub fn mark_ckpt(&self, rank: usize) -> bool {
        let (_ord, mut t) = self.lock();
        let Some(e) = t.entries.get_mut(rank) else { return false };
        let State::Allo { owner } = &e.state else { return false };
        e.state = State::Ckpt { owner: owner.clone() };
        self.transitions.inc(); // ALLO -> CKPT (preemption)
        drop(t);
        self.changed.notify_all();
        true
    }

    /// One synchronous observe-and-reset sweep: reconcile the table with
    /// a sysfs snapshot and reset every just-released rank inline. The
    /// one recycle path: the observer thread runs it on every sysfs
    /// change, and the scheduler calls it to expedite recycling after a
    /// preemption instead of waiting out the observer's 50 ms poll.
    pub fn sync_now(&self) {
        let snapshot = self.driver.sysfs().snapshot();
        for rank in self.sync_with_sysfs(&snapshot) {
            self.reset_rank(rank);
        }
    }

    /// Blocks until `rank` is in state `want` (or already is), up to
    /// `timeout`; returns whether the state was reached. Every table
    /// transition wakes the waiter.
    #[must_use]
    pub fn wait_for_state(&self, rank: usize, want: RankState, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let (_ord, mut t) = self.lock();
        loop {
            match t.entries.get(rank) {
                None => return false,
                Some(e) if e.state.public() == want => return true,
                Some(_) => {}
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            let _ = self.changed.wait_for(&mut t, left);
        }
    }

    /// Clears `rank`'s `resetting` mark once its erase attempt is over;
    /// `erased` promotes a rank that is still NANA to NAAV.
    fn finish_reset(&self, rank: usize, erased: bool) {
        let (_ord, mut t) = self.lock();
        let e = &mut t.entries[rank];
        e.resetting = false;
        if erased && e.state == State::Nana {
            e.state = State::Naav;
            self.transitions.inc(); // NANA -> NAAV (reset done)
        }
        drop(t);
        self.changed.notify_all();
    }

    /// Erases a NANA rank's content and promotes it to NAAV. Skips ranks
    /// that were re-allocated meanwhile, or that another sweep is already
    /// erasing.
    pub fn reset_rank(&self, rank: usize) {
        {
            let (_ord, mut t) = self.lock();
            let Some(e) = t.entries.get_mut(rank) else { return };
            if e.state != State::Nana || e.resetting {
                return; // re-allocated to its previous owner, or being erased
            }
            e.resetting = true;
        }
        // Claim the rank so natives/backends cannot grab it mid-erase (no
        // table lock is held across the erase).
        match self.driver.open_perf(rank, "manager-reset") {
            Ok(handle) => {
                if let Ok(r) = self.driver.machine().rank(rank) {
                    r.reset_content();
                }
                drop(handle);
                let reset_ns = self
                    .cm
                    .rank_reset(self.driver.machine().config().rank_mapped_bytes());
                self.stats.resets.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .reset_virtual_ns
                    .fetch_add(reset_ns.as_nanos(), Ordering::Relaxed);
                self.finish_reset(rank, true);
            }
            // Someone (a native app) grabbed the rank between release and
            // reset; give up — the observer will re-detect the next
            // release and re-queue the reset.
            Err(_) => self.finish_reset(rank, false),
        }
    }

    /// Directly returns an `ALLO`/`CKPT` rank to `NAAV`, bypassing the
    /// sysfs release → observe → reset pipeline. A churn hook for the
    /// benchmark and the stress suite — alloc/free cycles without device
    /// round-trips; production recycling always goes through the
    /// observer. Returns whether the rank changed state.
    pub fn recycle(&self, rank: usize) -> bool {
        let (_ord, mut t) = self.lock();
        let Some(e) = t.entries.get_mut(rank) else { return false };
        if !matches!(e.state, State::Allo { .. } | State::Ckpt { .. }) {
            return false;
        }
        e.state = State::Naav;
        self.transitions.inc(); // ALLO/CKPT -> NAAV (direct recycle)
        drop(t);
        self.changed.notify_all();
        true
    }

    /// Current state of every rank.
    #[must_use]
    pub fn states(&self) -> Vec<RankState> {
        self.lock().1.entries.iter().map(|e| e.state.public()).collect()
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> ManagerStats {
        ManagerStats {
            allocations: self.stats.allocations.load(Ordering::Relaxed),
            reuses: self.stats.reuses.load(Ordering::Relaxed),
            resets: self.stats.resets.load(Ordering::Relaxed),
            abandoned: self.stats.abandoned.load(Ordering::Relaxed),
            reset_virtual: VirtualNanos::from_nanos(
                self.stats.reset_virtual_ns.load(Ordering::Relaxed),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upmem_sim::{PimConfig, PimMachine};

    fn state() -> TableState {
        let driver = Arc::new(UpmemDriver::new(PimMachine::new(PimConfig::small())));
        TableState::new(driver, CostModel::default())
    }

    fn quick() -> Duration {
        Duration::from_millis(2)
    }

    fn in_use(owner: &str, claims: u64) -> (RankStatus, u64) {
        (RankStatus::InUse { owner: owner.into() }, claims)
    }

    fn free(claims: u64) -> (RankStatus, u64) {
        (RankStatus::Free, claims)
    }

    #[test]
    fn round_robin_rotates() {
        let s = state();
        let a = s.alloc("x", quick(), 1).unwrap();
        let b = s.alloc("y", quick(), 1).unwrap();
        assert_eq!(a.rank, 0);
        assert_eq!(b.rank, 1);
        assert!(s.alloc("z", quick(), 1).is_err());
        assert_eq!(s.stats().abandoned, 1);
    }

    #[test]
    fn release_cycle_via_sysfs_snapshots() {
        let s = state();
        let a = s.alloc("vm", quick(), 1).unwrap();
        // Backend claims the rank (claim counter moves to 1).
        let to_reset = s.sync_with_sysfs(&[in_use("vm", 1), free(0)]);
        assert!(to_reset.is_empty());
        // Release: the observer reports it for reset.
        let to_reset = s.sync_with_sysfs(&[free(1), free(0)]);
        assert_eq!(to_reset, vec![a.rank]);
        assert_eq!(s.states()[a.rank], RankState::Nana);
        // The sweep's reset half runs.
        s.reset_rank(a.rank);
        assert_eq!(s.states()[a.rank], RankState::Naav);
        assert_eq!(s.stats().resets, 1);
        assert!(s.stats().reset_virtual > VirtualNanos::ZERO);
    }

    #[test]
    fn missed_claim_release_cycle_is_still_detected() {
        // The VM claimed AND released entirely between two observer
        // sweeps: the status is Free in both, but the claim counter moved.
        let s = state();
        let a = s.alloc("vm", quick(), 1).unwrap();
        let to_reset = s.sync_with_sysfs(&[free(1), free(0)]);
        assert_eq!(to_reset, vec![a.rank]);
        assert_eq!(s.states()[a.rank], RankState::Nana);
    }

    #[test]
    fn unseen_free_is_not_a_release() {
        // Between the manager's decision and the backend's device open,
        // sysfs still says Free with an unmoved claim counter — that must
        // not be treated as a release.
        let s = state();
        let a = s.alloc("vm", quick(), 1).unwrap();
        let to_reset = s.sync_with_sysfs(&[free(0), free(0)]);
        assert!(to_reset.is_empty());
        assert_eq!(s.states()[a.rank], RankState::Allo);
    }

    #[test]
    fn nana_reuse_skips_reset() {
        let s = state();
        let a = s.alloc("vm", quick(), 1).unwrap();
        s.sync_with_sysfs(&[in_use("vm", 1), free(0)]);
        s.sync_with_sysfs(&[free(1), free(0)]);
        assert_eq!(s.states()[a.rank], RankState::Nana);
        let again = s.alloc("vm", quick(), 1).unwrap();
        assert_eq!(again.rank, a.rank);
        assert!(again.reused);
        assert_eq!(s.stats().reuses, 1);
        // A reset arriving late must be skipped (rank is ALLO again).
        s.reset_rank(a.rank);
        assert_eq!(s.stats().resets, 0);
        assert_eq!(s.states()[a.rank], RankState::Allo);
    }

    #[test]
    fn nana_not_given_to_other_owner_while_dirty() {
        let s = state();
        let a = s.alloc("vm-a", quick(), 1).unwrap();
        let _b = s.alloc("vm-b", quick(), 1).unwrap();
        s.sync_with_sysfs(&[in_use("vm-a", 1), in_use("vm-b", 1)]);
        s.sync_with_sysfs(&[free(1), in_use("vm-b", 1)]);
        assert_eq!(s.states()[a.rank], RankState::Nana);
        // vm-c cannot take the dirty rank; with a tiny timeout the request
        // is abandoned rather than leaking vm-a's data.
        assert!(s.alloc("vm-c", quick(), 2).is_err());
    }

    #[test]
    fn external_claim_marks_allo() {
        let s = state();
        s.sync_with_sysfs(&[in_use("native:idx", 1), free(0)]);
        assert_eq!(s.states()[0], RankState::Allo);
        // Allocation skips it.
        let a = s.alloc("vm", quick(), 1).unwrap();
        assert_eq!(a.rank, 1);
        // And its eventual release is detected.
        let to_reset = s.sync_with_sysfs(&[free(1), free(0)]);
        assert_eq!(to_reset, vec![0]);
    }

    #[test]
    fn state_of_follows_every_transition() {
        let s = state();
        assert_eq!(s.state_of(0), Some(RankState::Naav));
        let a = s.alloc("vm", quick(), 1).unwrap();
        assert_eq!(s.state_of(a.rank), Some(RankState::Allo));
        assert!(s.mark_ckpt(a.rank));
        assert_eq!(s.state_of(a.rank), Some(RankState::Ckpt));
        assert_eq!(s.state_of(999), None);
    }

    #[test]
    fn wait_for_state_wakes_on_the_transition_and_times_out_without_one() {
        let s = state();
        let a = s.alloc("vm", quick(), 1).unwrap();
        assert!(!s.wait_for_state(a.rank, RankState::Ckpt, quick()));
        assert!(!s.wait_for_state(999, RankState::Naav, quick()));
        std::thread::scope(|scope| {
            let waiter =
                scope.spawn(|| s.wait_for_state(a.rank, RankState::Ckpt, Duration::from_secs(30)));
            assert!(s.mark_ckpt(a.rank));
            assert!(waiter.join().unwrap());
        });
    }
}
