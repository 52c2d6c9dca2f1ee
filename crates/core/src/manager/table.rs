//! The rank table and its state machine (Fig. 5): the whole manager.
//!
//! Every rank decision reads sysfs first, on the requester's thread: an
//! allocation runs one observe-and-reset sweep ([`TableState::sync_now`])
//! before it scans, and nothing sweeps behind it. One mutex guards the
//! whole table (a host has 8 ranks, §3.5); the condvar paired with it
//! carries one wakeup, the end of a reset, which a sweep that found
//! another sweep's reset in flight waits for. A dedicated-mode request
//! that still finds nothing waits on the sysfs board instead, where every
//! claim and release shows. The lock is `LockLevel::ManagerTable`; the
//! only lock taken inside it is the sysfs board's, for the claim counter
//! an allocation records.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use simkit::sync::{Condvar, Mutex};
use simkit::{CostModel, Counter, LockLevel, VirtualNanos};
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
    /// The sysfs claim counter at allocation, at an observed release or
    /// at a finished reset. A snapshot entry only counts once the counter
    /// moved past it — guarding the alloc-decision → device-open window,
    /// catching claim/release cycles between sweeps, ignoring pre-reset
    /// snapshots.
    claims_seen: u64,
    /// A reset (a sweep's or [`TableState::reset_rank`]'s) owns this rank.
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
    /// Paired with `table`; notified when a reset ends.
    reset_done: Condvar,
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
            table: Mutex::new(LockLevel::ManagerTable, 0, Table {
                entries: (0..n)
                    .map(|_| Entry {
                        state: State::Naav,
                        last_owner: None,
                        claims_seen: 0,
                        resetting: false,
                    })
                    .collect(),
                rr_cursor: 0,
            }),
            reset_done: Condvar::new(),
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
        self.table.lock().entries.get(rank).map(|e| e.state.public())
    }

    /// The allocation strategy of §3.5, run on the requester's thread:
    /// sweep sysfs, then scan. A request that finds nothing waits for the
    /// next sysfs change and sweeps again, at most `retry_timeout ×
    /// max_attempts` of wall time in all.
    ///
    /// # Errors
    ///
    /// [`VpimError::NoRankAvailable`] once the budget ran out with nothing
    /// claimable.
    pub fn alloc(
        &self,
        owner: &str,
        retry_timeout: Duration,
        max_attempts: usize,
    ) -> Result<AllocOutcome, VpimError> {
        let attempts = max_attempts.max(1).try_into().unwrap_or(u32::MAX);
        let deadline = Instant::now() + retry_timeout.saturating_mul(attempts);
        let sysfs = self.driver.sysfs();
        loop {
            // Read before the sweep: a claim or release the sweep missed
            // has moved the generation past it, so the wait below returns.
            let seen = sysfs.generation();
            self.sync_now();
            if let Some(got) = self.grant(owner) {
                return Ok(got);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let _ = sysfs.wait_for_change(seen, left);
        }
        self.stats.abandoned.fetch_add(1, Ordering::Relaxed);
        Err(VpimError::NoRankAvailable)
    }

    /// One scan of the table for `owner`: a NANA rank it used last (no
    /// reset needed), else a NAAV rank by round-robin from the cursor.
    fn grant(&self, owner: &str) -> Option<AllocOutcome> {
        let mut t = self.table.lock();
        let n = t.entries.len();
        let reuse = t.entries.iter().position(|e| {
            e.state == State::Nana && !e.resetting && e.last_owner.as_deref() == Some(owner)
        });
        let fresh = || {
            (0..n)
                .map(|k| (t.rr_cursor + k) % n)
                .find(|&i| t.entries[i].state == State::Naav && !t.entries[i].resetting)
        };
        let rank = reuse.or_else(fresh)?;
        let reused = reuse.is_some();
        if reused {
            self.stats.reuses.fetch_add(1, Ordering::Relaxed);
        } else {
            t.rr_cursor = (rank + 1) % n;
        }
        let e = &mut t.entries[rank];
        e.state = State::Allo { owner: owner.to_string() };
        e.claims_seen = self.driver.sysfs().claim_count(rank);
        e.last_owner = Some(owner.to_string());
        self.transitions.inc(); // NANA/NAAV -> ALLO
        self.stats.allocations.fetch_add(1, Ordering::Relaxed);
        Some(AllocOutcome { rank, reused })
    }

    /// Reconciles the table with a sysfs snapshot (status + claim counter
    /// per rank); returns ranks that were just released and need a
    /// content reset.
    pub fn sync_with_sysfs(&self, snapshot: &[(RankStatus, u64)]) -> Vec<usize> {
        self.observe(snapshot, false)
    }

    /// [`Self::sync_with_sysfs`]; `claim_resets` (a sweep) marks released
    /// ranks `resetting`, and also takes back a NANA rank no reset owns:
    /// one whose erase lost the rank to a native claim. Its claim counter
    /// then moved past the release, so sysfs shows it claimed (the
    /// claimer's ALLO) or claimed and released (queued for reset again).
    fn observe(&self, snapshot: &[(RankStatus, u64)], claim_resets: bool) -> Vec<usize> {
        let mut to_reset = Vec::new();
        let mut t = self.table.lock();
        for (rank, ((status, claims), e)) in snapshot.iter().zip(&mut t.entries).enumerate() {
            // Only a claim the table has not seen yet moves a rank. A
            // snapshot read before the rank's last reset (its previous
            // owner's claim, or the reset's own) is no later than
            // `claims_seen`.
            if *claims <= e.claims_seen {
                continue;
            }
            let orphan = claim_resets && e.state == State::Nana && !e.resetting;
            match (status, &e.state) {
                (RankStatus::InUse { owner }, _) if e.state == State::Naav || orphan => {
                    // A native host application claimed the rank directly
                    // through the driver (R3: coexistence without app
                    // changes).
                    e.state = State::Allo { owner: owner.clone() };
                    e.last_owner = Some(owner.clone());
                    e.claims_seen = claims - 1;
                    self.transitions.inc(); // NAAV/NANA -> ALLO (external claim)
                }
                (RankStatus::Free, State::Allo { .. } | State::Ckpt { .. }) => {
                    e.state = State::Nana;
                    e.claims_seen = *claims;
                    e.resetting = claim_resets;
                    self.transitions.inc(); // ALLO/CKPT -> NANA (release observed)
                    to_reset.push(rank);
                }
                (RankStatus::Free, State::Nana) if orphan => {
                    e.claims_seen = *claims;
                    e.resetting = true;
                    to_reset.push(rank);
                }
                _ => {}
            }
        }
        to_reset
    }

    /// Flips an `ALLO` rank to `CKPT` (the scheduler checkpointed its
    /// owner at a safe point and will drop the claim next); returns
    /// whether the transition happened.
    pub fn mark_ckpt(&self, rank: usize) -> bool {
        let mut t = self.table.lock();
        let Some(e) = t.entries.get_mut(rank) else { return false };
        let State::Allo { owner } = &e.state else { return false };
        e.state = State::Ckpt { owner: owner.clone() };
        self.transitions.inc(); // ALLO -> CKPT (preemption)
        true
    }

    /// One synchronous observe-and-reset sweep: reconcile the table with
    /// a sysfs snapshot, reset every just-released rank inline, then wait
    /// out resets other sweeps have in flight. The one recycle path:
    /// [`Self::alloc`] runs it before every scan, and nothing runs it
    /// behind the callers' backs, so the table moves only when asked.
    pub fn sync_now(&self) {
        let snapshot = self.driver.sysfs().snapshot();
        for rank in self.observe(&snapshot, true) {
            self.erase(rank);
        }
        let mut t = self.table.lock();
        while t.entries.iter().any(|e| e.resetting) {
            t = self.reset_done.wait(t);
        }
    }

    /// Clears `rank`'s `resetting` mark once its erase attempt is over
    /// and wakes the sweeps waiting it out; `erased` (the reset claim's
    /// counter) promotes a rank that is still NANA to NAAV.
    fn finish_reset(&self, rank: usize, erased: Option<u64>) {
        let mut t = self.table.lock();
        let e = &mut t.entries[rank];
        e.resetting = false;
        if let (Some(claims), State::Nana) = (erased, &e.state) {
            e.state = State::Naav;
            e.claims_seen = claims;
            self.transitions.inc(); // NANA -> NAAV (reset done)
        }
        drop(t);
        self.reset_done.notify_all();
    }

    /// Erases a NANA rank's content and promotes it to NAAV. Skips ranks
    /// that were re-allocated meanwhile, or that another sweep is already
    /// erasing.
    pub fn reset_rank(&self, rank: usize) {
        {
            let mut t = self.table.lock();
            let Some(e) = t.entries.get_mut(rank) else { return };
            if e.state != State::Nana || e.resetting {
                return; // re-allocated to its previous owner, or being erased
            }
            e.resetting = true;
        }
        self.erase(rank);
    }

    /// Erases a NANA rank the caller marked `resetting`, then promotes it.
    fn erase(&self, rank: usize) {
        // Claim the rank so natives/backends cannot grab it mid-erase (no
        // table lock is held across the erase).
        match self.driver.open_perf(rank, "manager-reset") {
            Ok(handle) => {
                // While the claim is held, the counter is this claim's.
                let claims = self.driver.sysfs().claim_count(rank);
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
                self.finish_reset(rank, Some(claims));
            }
            // Someone (a native app) grabbed the rank between release and
            // reset. The rank stays NANA with no reset owning it; the
            // next sweep sees the claim moved past the release and makes
            // it the claimer's ALLO, or, once released, erases it.
            Err(_) => self.finish_reset(rank, None),
        }
    }

    /// Directly returns an `ALLO`/`CKPT` rank to `NAAV`, bypassing the
    /// sysfs release → sweep → reset pipeline. A churn hook for the
    /// benchmark and the stress suite — alloc/free cycles without device
    /// round-trips; production recycling always goes through a sweep.
    /// Nothing shows in sysfs, so a request waiting for a change sees the
    /// rank only at the end of its budget. Returns whether the rank
    /// changed state.
    pub fn recycle(&self, rank: usize) -> bool {
        let mut t = self.table.lock();
        let Some(e) = t.entries.get_mut(rank) else { return false };
        if !matches!(e.state, State::Allo { .. } | State::Ckpt { .. }) {
            return false;
        }
        e.state = State::Naav;
        self.transitions.inc(); // ALLO/CKPT -> NAAV (direct recycle)
        true
    }

    /// Current state of every rank.
    #[must_use]
    pub fn states(&self) -> Vec<RankState> {
        self.table.lock().entries.iter().map(|e| e.state.public()).collect()
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
        // Release: the sweep reports it for reset.
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
        // The VM claimed AND released entirely between two
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
    fn snapshot_read_before_a_reset_is_not_an_external_claim() {
        let s = state();
        let a = s.alloc("vm", quick(), 1).unwrap();
        let handle = s.driver.open_perf(a.rank, "vm").unwrap();
        let stale = s.driver.sysfs().snapshot();
        drop(handle);
        // Release observed, rank reset: ALLO -> NANA -> NAAV.
        s.sync_now();
        assert_eq!(s.states(), vec![RankState::Naav; 2]);
        assert_eq!(s.transitions(), 3);
        // A sweep that read sysfs before that reset lands late: its InUse
        // entry is the previous owner's claim, not a native one.
        assert!(s.sync_with_sysfs(&stale).is_empty());
        assert_eq!(s.states(), vec![RankState::Naav; 2]);
        assert_eq!(s.transitions(), 3);
        // A claim made after the reset still counts.
        let _native = s.driver.open_perf(a.rank, "native:app").unwrap();
        s.sync_now();
        assert_eq!(s.state_of(a.rank), Some(RankState::Allo));
    }

    #[test]
    fn a_miss_recycles_a_released_rank_itself() {
        // The request's own sweep sees the release, resets the rank and
        // grants it.
        let s = state();
        let a = s.alloc("a", quick(), 1).unwrap();
        let b = s.alloc("b", quick(), 1).unwrap();
        drop(s.driver.open_perf(a.rank, "a").unwrap());
        let _held = s.driver.open_perf(b.rank, "b").unwrap();
        let c = s.alloc("c", Duration::ZERO, 1).unwrap();
        assert_eq!((c.rank, c.reused), (a.rank, false));
        assert_eq!(s.stats().resets, 1);
        assert!(s.alloc("d", Duration::ZERO, 1).is_err());
        assert_eq!(s.stats().abandoned, 1);
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
    fn a_reset_that_loses_its_rank_to_a_native_claim_is_retried() {
        let s = state();
        let a = s.alloc("vm", quick(), 1).unwrap();
        drop(s.driver.open_perf(a.rank, "vm").unwrap());
        // The release reaches the table through a snapshot; the caller's
        // reset comes later, after a native app claimed the dirty rank.
        assert_eq!(s.sync_with_sysfs(&s.driver.sysfs().snapshot()), vec![a.rank]);
        let native = s.driver.open_perf(a.rank, "native:app").unwrap();
        native.write_mram(0, 0, b"native secret").unwrap();
        s.reset_rank(a.rank);
        assert_eq!((s.state_of(a.rank), s.stats().resets), (Some(RankState::Nana), 0));
        drop(native);
        // The next sweep sees the claim and release and erases the rank.
        s.sync_now();
        assert_eq!(s.state_of(a.rank), Some(RankState::Naav));
        assert_eq!(s.stats().resets, 1);
        let mut buf = [1u8; 13];
        s.driver.machine().rank(a.rank).unwrap().read_mram(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [0; 13]);
        // So the old owner gets a reset rank, not the native app's bytes.
        assert!(!s.alloc("vm", quick(), 1).unwrap().reused);
        assert_eq!(s.transitions(), 4);
    }

    #[test]
    fn a_native_claim_on_an_unreset_rank_makes_it_the_natives() {
        let s = state();
        let a = s.alloc("vm", quick(), 1).unwrap();
        drop(s.driver.open_perf(a.rank, "vm").unwrap());
        s.sync_with_sysfs(&s.driver.sysfs().snapshot());
        let native = s.driver.open_perf(a.rank, "native:app").unwrap();
        s.reset_rank(a.rank);
        // Held by the native app: its ALLO, so neither owner gets it.
        s.sync_now();
        assert_eq!(s.state_of(a.rank), Some(RankState::Allo));
        assert_ne!(s.alloc("vm", quick(), 1).unwrap().rank, a.rank);
        // Its release is recycled like any other.
        drop(native);
        s.sync_now();
        assert_eq!(s.state_of(a.rank), Some(RankState::Naav));
        assert_eq!(s.stats().resets, 1);
    }
}
