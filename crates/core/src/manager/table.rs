//! The rank table and its state machine (Fig. 5), sharded by rank group.
//!
//! PR 7 (ROADMAP item 3) split the previously single-mutex table into
//! [`RANK_SHARDS`] contiguous, independently-locked rank groups with a
//! **lock-free published-state fast path**:
//!
//! * every rank's `(state, resetting)` pair is mirrored into a per-rank
//!   atomic cell the moment it changes (inside the owning shard's
//!   critical section), so state lookups ([`TableState::state_of`]) and
//!   scan pre-filters never take a lock;
//! * a global seqlock epoch brackets each publish, so
//!   [`TableState::states`] can assemble a *consistent* cross-shard
//!   snapshot from the atomic cells and only falls back to locking all
//!   shards (in ascending order, per `simkit::lockorder`) under
//!   pathological churn;
//! * writes — allocation claims, sysfs reconciliation, checkpoint marks,
//!   resets — lock only the owning shard, so churn on different rank
//!   groups never contends;
//! * the allocation scan walks rank indices in exactly the pre-sharding
//!   order (NANA-reuse by lowest index, then NAAV round-robin from a
//!   global cursor), filtering on the published cells and confirming
//!   under the owning shard's lock, so sequential behavior is identical
//!   to the retained single-lock oracle
//!   ([`crate::manager::reference::ReferenceTable`]) — the property
//!   `tests/control_plane_equivalence.rs` proves over generated op
//!   interleavings.
//!
//! Waiters (allocation retries, [`TableState::wait_for_state`]) park on a
//! dedicated notify mutex + condvar pair (never held while touching
//! entries); every completed transition bumps the epoch and wakes them.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};
use simkit::lockorder::{ordered, LockLevel};
use simkit::{CostModel, Counter, VirtualNanos};
use upmem_driver::{RankStatus, UpmemDriver};

use crate::error::VpimError;

/// Number of contiguous rank groups the table is split into (clamped to
/// the rank count, so a small machine gets one rank per group).
pub const RANK_SHARDS: usize = 8;

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

/// Encoding of the published per-rank cell: low 2 bits are the state
/// discriminant, bit 2 is the `resetting` flag.
const PUB_STATE_MASK: u8 = 0b011;
const PUB_RESETTING: u8 = 0b100;

fn encode(state: RankState, resetting: bool) -> u8 {
    let s = match state {
        RankState::Naav => 0,
        RankState::Allo => 1,
        RankState::Ckpt => 2,
        RankState::Nana => 3,
    };
    s | if resetting { PUB_RESETTING } else { 0 }
}

fn decode_state(cell: u8) -> RankState {
    match cell & PUB_STATE_MASK {
        0 => RankState::Naav,
        1 => RankState::Allo,
        2 => RankState::Ckpt,
        _ => RankState::Nana,
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

/// One contiguous rank group; entry `i` describes rank `base + i`.
#[derive(Debug)]
struct Shard {
    entries: Vec<Entry>,
}

#[derive(Debug, Default)]
struct Stats {
    allocations: AtomicU64,
    reuses: AtomicU64,
    resets: AtomicU64,
    abandoned: AtomicU64,
    reset_virtual_ns: AtomicU64,
}

/// Shared manager state: the sharded rank table plus its statistics.
/// Public so the differential suites and the `control_plane` bench can
/// drive the table directly against the single-lock oracle.
#[derive(Debug)]
pub struct TableState {
    driver: Arc<UpmemDriver>,
    cm: CostModel,
    /// Contiguous rank groups, each behind its own mutex
    /// (`LockLevel::ManagerTable`, ordered by shard index).
    shards: Vec<Mutex<Shard>>,
    /// Ranks per shard (the last shard may be short).
    span: usize,
    ranks: usize,
    /// Lock-free mirror of each rank's `(state, resetting)` pair,
    /// republished inside the owning shard's critical section.
    published: Vec<AtomicU8>,
    /// Seqlock epoch bracketing every publish: odd while a publish is in
    /// flight, even and advanced once it lands.
    epoch: AtomicU64,
    /// Global round-robin cursor for the NAAV scan (atomic so concurrent
    /// allocs keep rotating; under sequential ops it advances exactly as
    /// the single-lock cursor did).
    rr_cursor: AtomicUsize,
    /// Pairing mutex for `changed` — held only around waits and wakeups.
    notify: Mutex<()>,
    changed: Condvar,
    stats: Stats,
    /// NAAV↔ALLO↔NANA edges walked (Fig. 5), one tick per rank per edge.
    transitions: Counter,
}

impl TableState {
    /// A table over `driver`'s ranks split into [`RANK_SHARDS`] groups
    /// (fewer when the machine has fewer ranks).
    #[must_use]
    pub fn new(driver: Arc<UpmemDriver>, cm: CostModel) -> Self {
        let n = driver.rank_count();
        let span = n.div_ceil(RANK_SHARDS).max(1);
        let shards = n.div_ceil(span).max(1);
        TableState {
            driver,
            cm,
            shards: (0..shards)
                .map(|g| {
                    let len = span.min(n.saturating_sub(g * span));
                    Mutex::new(Shard {
                        entries: (0..len)
                            .map(|_| Entry {
                                state: State::Naav,
                                last_owner: None,
                                claims_at_alloc: 0,
                                resetting: false,
                            })
                            .collect(),
                    })
                })
                .collect(),
            span,
            ranks: n,
            published: (0..n).map(|_| AtomicU8::new(encode(RankState::Naav, false))).collect(),
            epoch: AtomicU64::new(0),
            rr_cursor: AtomicUsize::new(0),
            notify: Mutex::new(()),
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

    /// Number of rank groups the table is split into.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `rank` (caller guarantees `rank < ranks`).
    fn shard_of(&self, rank: usize) -> usize {
        rank / self.span
    }

    /// Locks the shard owning `rank`, with lock-order tracking.
    fn lock_shard(&self, group: usize) -> (simkit::LockToken, MutexGuard<'_, Shard>) {
        let tok = ordered(LockLevel::ManagerTable, group);
        (tok, self.shards[group].lock())
    }

    /// Republishes `rank`'s cell from its entry. Must be called inside
    /// the owning shard's critical section; brackets the store with
    /// seqlock epoch bumps so concurrent snapshot readers retry.
    fn publish(&self, rank: usize, e: &Entry) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.published[rank].store(encode(e.state.public(), e.resetting), Ordering::Release);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Wakes blocked waiters (alloc retries, `wait_for_state`). Briefly
    /// takes the notify mutex so a waiter between its check and its wait
    /// cannot miss the wakeup.
    fn wake(&self) {
        let _ord = ordered(LockLevel::Notify, 0);
        drop(self.notify.lock());
        self.changed.notify_all();
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

    /// Lock-free state lookup — the published-cell fast path.
    #[must_use]
    pub fn state_of(&self, rank: usize) -> Option<RankState> {
        self.published.get(rank).map(|c| decode_state(c.load(Ordering::Acquire)))
    }

    /// Tries to claim rank `rank` (which the published pre-filter said is
    /// a NANA rank last owned by `owner`) under its shard lock. Returns
    /// whether the claim stuck.
    fn try_claim_nana(&self, rank: usize, owner: &str) -> bool {
        let g = self.shard_of(rank);
        let (_tok, mut shard) = self.lock_shard(g);
        let e = &mut shard.entries[rank - g * self.span];
        if e.state != State::Nana || e.resetting || e.last_owner.as_deref() != Some(owner) {
            return false;
        }
        e.state = State::Allo { owner: owner.to_string() };
        e.claims_at_alloc = self.driver.sysfs().claim_count(rank);
        e.last_owner = Some(owner.to_string());
        self.transitions.inc(); // NANA -> ALLO
        self.stats.allocations.fetch_add(1, Ordering::Relaxed);
        self.stats.reuses.fetch_add(1, Ordering::Relaxed);
        let e = &shard.entries[rank - g * self.span];
        self.publish(rank, e);
        true
    }

    /// Tries to claim a published-NAAV rank under its shard lock.
    fn try_claim_naav(&self, rank: usize, owner: &str) -> bool {
        let g = self.shard_of(rank);
        let (_tok, mut shard) = self.lock_shard(g);
        let e = &mut shard.entries[rank - g * self.span];
        if e.state != State::Naav || e.resetting {
            return false;
        }
        self.rr_cursor.store((rank + 1) % self.ranks.max(1), Ordering::Relaxed);
        e.state = State::Allo { owner: owner.to_string() };
        e.claims_at_alloc = self.driver.sysfs().claim_count(rank);
        e.last_owner = Some(owner.to_string());
        self.transitions.inc(); // NAAV -> ALLO
        self.stats.allocations.fetch_add(1, Ordering::Relaxed);
        let e = &shard.entries[rank - g * self.span];
        self.publish(rank, e);
        true
    }

    /// The allocation strategy of §3.5, run on the requester's thread.
    /// Scan order is identical to the single-lock oracle: NANA-reuse by
    /// lowest rank index, then NAAV round-robin from the global cursor —
    /// the published cells only pre-filter which shards are worth locking.
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
        for _attempt in 0..max_attempts.max(1) {
            let epoch_before = self.epoch.load(Ordering::Acquire);
            // 1. A NANA rank previously used by this owner: no reset needed.
            for rank in 0..self.ranks {
                let cell = self.published[rank].load(Ordering::Acquire);
                if cell == encode(RankState::Nana, false) && self.try_claim_nana(rank, owner) {
                    self.wake();
                    return Ok(AllocOutcome { rank, reused: true });
                }
            }
            // 2. A NAAV rank by round-robin from the global cursor.
            let cursor = self.rr_cursor.load(Ordering::Relaxed);
            for k in 0..self.ranks {
                let rank = (cursor + k) % self.ranks.max(1);
                let cell = self.published[rank].load(Ordering::Acquire);
                if decode_state(cell) == RankState::Naav
                    && cell & PUB_RESETTING == 0
                    && self.try_claim_naav(rank, owner)
                {
                    self.wake();
                    return Ok(AllocOutcome { rank, reused: false });
                }
            }
            // 3. Wait: either for a NANA reset to complete or for any
            //    release, then retry. If the table already moved during
            //    the scan, retry immediately.
            let _ord = ordered(LockLevel::Notify, 0);
            let mut guard = self.notify.lock();
            if self.epoch.load(Ordering::Acquire) == epoch_before {
                let _ = self.changed.wait_for(&mut guard, retry_timeout);
            }
        }
        self.stats.abandoned.fetch_add(1, Ordering::Relaxed);
        Err(VpimError::NoRankAvailable)
    }

    /// Reconciles one rank group with its slice of a sysfs sweep.
    /// `base` is the first rank the slice describes; the slice must not
    /// cross a group boundary. Returns ranks that were just released and
    /// need a content reset.
    fn sync_group(&self, base: usize, slice: &[(RankStatus, u64)]) -> Vec<usize> {
        let mut to_reset = Vec::new();
        if base >= self.ranks || slice.is_empty() {
            return to_reset;
        }
        let g = self.shard_of(base);
        let mut changed_any = false;
        {
            let (_tok, mut shard) = self.lock_shard(g);
            for (off, (status, claims)) in slice.iter().enumerate() {
                let rank = base + off;
                let Some(e) = shard.entries.get_mut(rank - g * self.span) else { continue };
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
                        let e = &shard.entries[rank - g * self.span];
                        self.publish(rank, e);
                        changed_any = true;
                    }
                    (RankStatus::Free, State::Allo { .. } | State::Ckpt { .. })
                        if *claims > e.claims_at_alloc =>
                    {
                        e.state = State::Nana;
                        self.transitions.inc(); // ALLO/CKPT -> NANA (release observed)
                        to_reset.push(rank);
                        let e = &shard.entries[rank - g * self.span];
                        self.publish(rank, e);
                        changed_any = true;
                    }
                    _ => {}
                }
            }
        }
        if changed_any {
            self.wake();
        }
        to_reset
    }

    /// Reconciles the whole table with a full sysfs snapshot (status +
    /// claim counter per rank), group by group; returns ranks that were
    /// just released and need a content reset.
    pub fn sync_with_sysfs(&self, snapshot: &[(RankStatus, u64)]) -> Vec<usize> {
        self.sync_group_sweep(0, snapshot)
    }

    /// Flips an `ALLO` rank to `CKPT` (the scheduler checkpointed its
    /// owner at a safe point and will drop the claim next); returns
    /// whether the transition happened.
    pub fn mark_ckpt(&self, rank: usize) -> bool {
        if rank >= self.ranks {
            return false;
        }
        let g = self.shard_of(rank);
        {
            let (_tok, mut shard) = self.lock_shard(g);
            let e = &mut shard.entries[rank - g * self.span];
            let State::Allo { owner } = &e.state else { return false };
            e.state = State::Ckpt { owner: owner.clone() };
            self.transitions.inc(); // ALLO -> CKPT (preemption)
            let e = &shard.entries[rank - g * self.span];
            self.publish(rank, e);
        }
        self.wake();
        true
    }

    /// One synchronous observe-and-reset sweep: reconcile the table with
    /// sysfs group by group and reset every just-released rank inline.
    /// The one recycle path: the observer thread runs it on every sysfs
    /// change, and the scheduler calls it to expedite recycling after a
    /// preemption instead of waiting out the observer's 50 ms poll. Each
    /// board rank group is snapshotted and reconciled independently, so a
    /// sweep never holds more than one board shard and one table shard at
    /// a time.
    pub fn sync_now(&self) {
        let board = self.driver.sysfs();
        for group in 0..board.shard_count() {
            let Some((base, entries)) = board.snapshot_group(group) else { continue };
            for rank in self.sync_group_sweep(base, &entries) {
                self.reset_rank(rank);
            }
        }
    }

    /// [`Self::sync_with_sysfs`] for a slice starting at `base` — the
    /// sweep's per-group unit (the board's group span need not
    /// match the table's; the slice is re-chunked on table boundaries).
    /// Returns ranks that were just released and need a content reset.
    fn sync_group_sweep(&self, base: usize, slice: &[(RankStatus, u64)]) -> Vec<usize> {
        let mut to_reset = Vec::new();
        let limit = (base + slice.len()).min(self.ranks);
        let mut at = base;
        while at < limit {
            let end = (at + self.span - at % self.span).min(limit);
            to_reset.extend(self.sync_group(at, &slice[at - base..end - base]));
            at = end;
        }
        to_reset
    }

    /// Blocks until `rank` is in state `want` (or already is), up to
    /// `timeout`; returns whether the state was reached. The check is a
    /// lock-free published-cell read; every table transition wakes the
    /// waiter.
    #[must_use]
    pub fn wait_for_state(&self, rank: usize, want: RankState, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match self.state_of(rank) {
                Some(s) if s == want => return true,
                None => return false,
                _ => {}
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let _ord = ordered(LockLevel::Notify, 0);
            let mut guard = self.notify.lock();
            // Re-check under the notify mutex: a transition between the
            // check above and this lock would otherwise be missed.
            match self.state_of(rank) {
                Some(s) if s == want => return true,
                None => return false,
                _ => {}
            }
            let _ = self.changed.wait_for(&mut guard, deadline - now);
        }
    }

    /// Erases a NANA rank's content and promotes it to NAAV. Skips ranks
    /// that were re-allocated meanwhile, or that another sweep is already
    /// erasing.
    pub fn reset_rank(&self, rank: usize) {
        if rank >= self.ranks {
            return;
        }
        let g = self.shard_of(rank);
        let slot = rank - g * self.span;
        {
            let (_tok, mut shard) = self.lock_shard(g);
            let e = &mut shard.entries[slot];
            if e.state != State::Nana || e.resetting {
                return; // re-allocated to its previous owner, or being erased
            }
            e.resetting = true;
            let e = &shard.entries[slot];
            self.publish(rank, e);
        }
        // Claim the rank so natives/backends cannot grab it mid-erase
        // (board lock sits above the table shard in the hierarchy, and no
        // table lock is held here anyway).
        let claim = self.driver.open_perf(rank, "manager-reset");
        match claim {
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
                let (_tok, mut shard) = self.lock_shard(g);
                let e = &mut shard.entries[slot];
                e.resetting = false;
                if e.state == State::Nana {
                    e.state = State::Naav;
                    self.transitions.inc(); // NANA -> NAAV (reset done)
                }
                let e = &shard.entries[slot];
                self.publish(rank, e);
            }
            Err(_) => {
                // Someone (a native app) grabbed the rank between release
                // and reset; give up — the observer will re-detect the next
                // release and re-queue the reset.
                let (_tok, mut shard) = self.lock_shard(g);
                let e = &mut shard.entries[slot];
                e.resetting = false;
                let e = &shard.entries[slot];
                self.publish(rank, e);
            }
        }
        self.wake();
    }

    /// Directly returns an `ALLO`/`CKPT` rank to `NAAV`, bypassing the
    /// sysfs release → observe → reset pipeline. A churn hook for the
    /// `control_plane` bench and the shard stress suite — alloc/free
    /// cycles without device round-trips; production recycling always
    /// goes through the observer. Returns whether the rank changed state.
    pub fn recycle(&self, rank: usize) -> bool {
        if rank >= self.ranks {
            return false;
        }
        let g = self.shard_of(rank);
        let changed = {
            let (_tok, mut shard) = self.lock_shard(g);
            let e = &mut shard.entries[rank - g * self.span];
            match e.state {
                State::Allo { .. } | State::Ckpt { .. } => {
                    e.state = State::Naav;
                    self.transitions.inc(); // ALLO/CKPT -> NAAV (direct recycle)
                    let e = &shard.entries[rank - g * self.span];
                    self.publish(rank, e);
                    true
                }
                _ => false,
            }
        };
        if changed {
            self.wake();
        }
        changed
    }

    /// A consistent snapshot of every rank's state, read lock-free from
    /// the published cells under the seqlock epoch; falls back to locking
    /// every shard (ascending) if publishes keep racing the scan.
    #[must_use]
    pub fn states(&self) -> Vec<RankState> {
        for _ in 0..8 {
            let e1 = self.epoch.load(Ordering::Acquire);
            if e1 % 2 != 0 {
                std::hint::spin_loop();
                continue;
            }
            let snap: Vec<RankState> = self
                .published
                .iter()
                .map(|c| decode_state(c.load(Ordering::Acquire)))
                .collect();
            if self.epoch.load(Ordering::Acquire) == e1 {
                return snap;
            }
        }
        // Locked fallback: ascending shard order per the lock hierarchy.
        let mut out = Vec::with_capacity(self.ranks);
        let guards: Vec<_> = (0..self.shards.len()).map(|g| self.lock_shard(g)).collect();
        for (_, shard) in &guards {
            out.extend(shard.entries.iter().map(|e| e.state.public()));
        }
        out
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
    fn state_of_is_lock_free_and_current() {
        let s = state();
        assert_eq!(s.state_of(0), Some(RankState::Naav));
        let a = s.alloc("vm", quick(), 1).unwrap();
        assert_eq!(s.state_of(a.rank), Some(RankState::Allo));
        assert!(s.mark_ckpt(a.rank));
        assert_eq!(s.state_of(a.rank), Some(RankState::Ckpt));
        assert_eq!(s.state_of(999), None);
    }

    #[test]
    fn shard_count_clamps_to_rank_count() {
        // A 2-rank driver cannot fill RANK_SHARDS groups: one rank each.
        let s = state();
        assert_eq!(s.shard_count(), 2);
        assert!(s.shard_count() < RANK_SHARDS);
        assert_eq!(s.alloc("x", quick(), 1).unwrap().rank, 0);
        assert_eq!(s.alloc("y", quick(), 1).unwrap().rank, 1);
    }
}
