//! The sysfs rank-status board.
//!
//! The real driver exposes one status file per rank under sysfs; the vPIM
//! manager's observer thread watches those files to learn about rank
//! releases without any cooperation from the releasing application (§3.5).
//! We model the directory as a [`StatusBoard`]: claims and releases update
//! entries and wake blocked watchers through a condition variable.
//!
//! # Sharding
//!
//! Entries are split into [`BOARD_SHARDS`] contiguous rank groups, each
//! behind its own mutex, so claims and releases on different groups never
//! contend and the manager's sweep can scan groups independently
//! ([`StatusBoard::snapshot_group`]). The change generation is a single
//! atomic bumped inside the owning shard's critical section; watchers
//! park on a dedicated notify mutex (never held while touching entries),
//! which sits at the leaf of the system lock hierarchy
//! (`simkit::lockorder`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use simkit::lockorder::{ordered, LockLevel};

use crate::error::DriverError;

/// Number of contiguous rank groups the board's entries are split into.
pub const BOARD_SHARDS: usize = 8;

/// Status of one rank as published in sysfs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankStatus {
    /// No handle holds the rank.
    Free,
    /// A handle holds the rank on behalf of `owner`.
    InUse {
        /// Owner tag recorded at claim time (VM id or native app name).
        owner: String,
    },
}

/// One contiguous group of entries; index `i` here is rank `base + i`.
#[derive(Debug)]
struct ShardState {
    entries: Vec<RankStatus>,
    /// Per-rank claim counters: watchers use these to detect claim/release
    /// cycles that happened entirely between two observations.
    claims: Vec<u64>,
}

/// The sysfs directory: one status entry per rank, sharded by rank group.
#[derive(Debug)]
pub struct StatusBoard {
    shards: Vec<Mutex<ShardState>>,
    /// Ranks per shard (the last shard may be short).
    span: usize,
    ranks: usize,
    /// Monotonic change counter so watchers can detect updates they
    /// missed. Bumped inside the owning shard's critical section.
    generation: AtomicU64,
    /// Pairing mutex for `changed` — held only around waits and wakeups,
    /// never while touching entries.
    notify: Mutex<()>,
    changed: Condvar,
}

impl StatusBoard {
    /// Creates a board with `ranks` free entries.
    #[must_use]
    pub fn new(ranks: usize) -> Self {
        let span = ranks.div_ceil(BOARD_SHARDS).max(1);
        let shard_count = ranks.div_ceil(span);
        StatusBoard {
            shards: (0..shard_count)
                .map(|g| {
                    let len = span.min(ranks - g * span);
                    Mutex::new(ShardState {
                        entries: vec![RankStatus::Free; len],
                        claims: vec![0; len],
                    })
                })
                .collect(),
            span,
            ranks,
            generation: AtomicU64::new(0),
            notify: Mutex::new(()),
            changed: Condvar::new(),
        }
    }

    /// The shard owning `rank` (caller guarantees `rank < ranks`).
    fn shard_of(&self, rank: usize) -> usize {
        rank / self.span
    }

    /// Number of entries.
    #[must_use]
    pub fn rank_count(&self) -> usize {
        self.ranks
    }

    /// Number of rank groups (shards) the board is split into.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Bumps the change generation (inside the owning shard's critical
    /// section) — callers must follow up with [`Self::wake_watchers`]
    /// after dropping the shard lock.
    fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Wakes blocked watchers. Briefly takes the notify mutex so a
    /// watcher between its generation check and its wait cannot miss the
    /// wakeup.
    fn wake_watchers(&self) {
        let _ord = ordered(LockLevel::Notify, 0);
        drop(self.notify.lock());
        self.changed.notify_all();
    }

    /// Reads one rank's status file.
    #[must_use]
    pub fn status(&self, rank: usize) -> Option<RankStatus> {
        if rank >= self.ranks {
            return None;
        }
        let g = self.shard_of(rank);
        let _ord = ordered(LockLevel::SysfsBoard, g);
        Some(self.shards[g].lock().entries[rank - g * self.span].clone())
    }

    /// Snapshot of every entry (one `ls`+`cat` sweep of the directory).
    /// Scans shard by shard — entries within a group are mutually
    /// consistent; cross-group consistency is what the claim counters
    /// exist to repair.
    #[must_use]
    pub fn snapshot(&self) -> Vec<RankStatus> {
        let mut out = Vec::with_capacity(self.ranks);
        for (g, shard) in self.shards.iter().enumerate() {
            let _ord = ordered(LockLevel::SysfsBoard, g);
            out.extend(shard.lock().entries.iter().cloned());
        }
        out
    }

    /// Snapshot of one rank group: `(base_rank, entries)` where slot `i`
    /// describes rank `base_rank + i`. `None` when `group` is out of
    /// range. This is the sharded sweep's unit of work — one group's
    /// mutex, nothing else.
    #[must_use]
    pub fn snapshot_group(&self, group: usize) -> Option<(usize, Vec<(RankStatus, u64)>)> {
        let shard = self.shards.get(group)?;
        let _ord = ordered(LockLevel::SysfsBoard, group);
        let st = shard.lock();
        Some((
            group * self.span,
            st.entries.iter().cloned().zip(st.claims.iter().copied()).collect(),
        ))
    }

    /// Total claims ever made on `rank`.
    #[must_use]
    pub fn claim_count(&self, rank: usize) -> u64 {
        if rank >= self.ranks {
            return 0;
        }
        let g = self.shard_of(rank);
        let _ord = ordered(LockLevel::SysfsBoard, g);
        self.shards[g].lock().claims[rank - g * self.span]
    }

    /// Current change generation. Increases on every claim or release.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Blocks until the generation exceeds `seen` or `timeout` elapses.
    /// Returns the new generation (equal to `seen` on timeout with no
    /// change). This is the observer thread's inotify-style wait.
    #[must_use]
    pub fn wait_for_change(&self, seen: u64, timeout: Duration) -> u64 {
        let _ord = ordered(LockLevel::Notify, 0);
        let mut guard = self.notify.lock();
        if self.generation() <= seen {
            let _ = self.changed.wait_for(&mut guard, timeout);
        }
        drop(guard);
        self.generation()
    }

    /// Claims `rank` for `owner`. Returns an RAII guard whose drop releases
    /// the claim (closing the device file).
    ///
    /// # Errors
    ///
    /// [`DriverError::RankInUse`] if the rank is already claimed;
    /// [`DriverError::Sim`] (invalid rank) if the index is out of range.
    pub fn claim(self: &Arc<Self>, rank: usize, owner: &str) -> Result<RankClaim, DriverError> {
        if rank >= self.ranks {
            return Err(DriverError::Sim(upmem_sim::SimError::InvalidRank(rank)));
        }
        let g = self.shard_of(rank);
        let slot = rank - g * self.span;
        {
            let _ord = ordered(LockLevel::SysfsBoard, g);
            let mut st = self.shards[g].lock();
            match &st.entries[slot] {
                RankStatus::InUse { owner: cur } => {
                    return Err(DriverError::RankInUse { rank, owner: cur.clone() });
                }
                RankStatus::Free => {
                    st.entries[slot] = RankStatus::InUse { owner: owner.to_string() };
                    st.claims[slot] += 1;
                    self.bump_generation();
                }
            }
        }
        self.wake_watchers();
        Ok(RankClaim { board: Arc::clone(self), rank })
    }

    fn release(&self, rank: usize) {
        if rank >= self.ranks {
            return;
        }
        let g = self.shard_of(rank);
        {
            let _ord = ordered(LockLevel::SysfsBoard, g);
            let mut st = self.shards[g].lock();
            st.entries[rank - g * self.span] = RankStatus::Free;
            self.bump_generation();
        }
        self.wake_watchers();
    }
}

/// RAII claim over one rank; releasing happens on drop (file close).
#[derive(Debug)]
pub struct RankClaim {
    board: Arc<StatusBoard>,
    rank: usize,
}

impl RankClaim {
    /// The claimed rank index.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }
}

impl Drop for RankClaim {
    fn drop(&mut self) {
        self.board.release(self.rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn claim_release_cycle() {
        let board = Arc::new(StatusBoard::new(2));
        let g0 = board.generation();
        let c = board.claim(1, "vm").unwrap();
        assert_eq!(c.rank(), 1);
        assert!(board.generation() > g0);
        assert!(matches!(board.status(1), Some(RankStatus::InUse { .. })));
        drop(c);
        assert_eq!(board.status(1), Some(RankStatus::Free));
    }

    #[test]
    fn double_claim_rejected() {
        let board = Arc::new(StatusBoard::new(1));
        let _c = board.claim(0, "a").unwrap();
        assert!(matches!(board.claim(0, "b"), Err(DriverError::RankInUse { .. })));
    }

    #[test]
    fn out_of_range_claim_rejected() {
        let board = Arc::new(StatusBoard::new(1));
        assert!(board.claim(5, "a").is_err());
        assert_eq!(board.status(5), None);
    }

    #[test]
    fn watcher_wakes_on_release() {
        let board = Arc::new(StatusBoard::new(1));
        let claim = board.claim(0, "vm").unwrap();
        let seen = board.generation();
        let watcher = {
            let board = Arc::clone(&board);
            thread::spawn(move || board.wait_for_change(seen, Duration::from_secs(5)))
        };
        thread::sleep(Duration::from_millis(20));
        drop(claim);
        let newgen = watcher.join().unwrap();
        assert!(newgen > seen);
        assert_eq!(board.status(0), Some(RankStatus::Free));
    }

    #[test]
    fn wait_times_out_without_changes() {
        let board = Arc::new(StatusBoard::new(1));
        let seen = board.generation();
        let g = board.wait_for_change(seen, Duration::from_millis(10));
        assert_eq!(g, seen);
    }

    #[test]
    fn snapshot_matches_entries() {
        let board = Arc::new(StatusBoard::new(3));
        let _c = board.claim(2, "x").unwrap();
        let snap = board.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0], RankStatus::Free);
        assert!(matches!(&snap[2], RankStatus::InUse { owner } if owner == "x"));
    }

    #[test]
    fn group_snapshots_tile_the_full_sweep() {
        // 19 ranks over 8 shards: span 3, last shard short — group
        // snapshots must tile exactly onto the flat snapshot.
        let board = Arc::new(StatusBoard::new(19));
        let _a = board.claim(0, "a").unwrap();
        let _b = board.claim(7, "b").unwrap();
        let _c = board.claim(18, "c").unwrap();
        let flat: Vec<(RankStatus, u64)> = board
            .snapshot()
            .into_iter()
            .enumerate()
            .map(|(rank, status)| (status, board.claim_count(rank)))
            .collect();
        let mut tiled: Vec<(RankStatus, u64)> = Vec::new();
        for g in 0..board.shard_count() {
            let (base, entries) = board.snapshot_group(g).unwrap();
            assert_eq!(base, tiled.len());
            tiled.extend(entries);
        }
        assert_eq!(tiled, flat);
        assert_eq!(board.snapshot_group(board.shard_count()), None);
        assert!(board.shard_count() <= BOARD_SHARDS);
    }

    #[test]
    fn concurrent_claims_on_distinct_groups_succeed_exactly_once() {
        let board = Arc::new(StatusBoard::new(16));
        let mut handles = Vec::new();
        for rank in 0..16 {
            let board = Arc::clone(&board);
            handles.push(thread::spawn(move || {
                board.claim(rank, &format!("t{rank}")).map(|c| c.rank())
            }));
        }
        let mut got: Vec<usize> =
            handles.into_iter().map(|h| h.join().unwrap().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        // 16 claims + 16 drop-releases, each bumping the generation once.
        assert_eq!(board.generation(), 32);
        assert!(board.snapshot().iter().all(|s| *s == RankStatus::Free));
    }
}
