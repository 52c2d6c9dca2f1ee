//! The sysfs rank-status board.
//!
//! The real driver exposes one status file per rank under sysfs; the vPIM
//! manager's observer thread watches those files to learn about rank
//! releases without any cooperation from the releasing application (§3.5).
//! We model the directory as a [`StatusBoard`]: one mutex over the entries,
//! their claim counters and the change generation, and one condition
//! variable paired with it that claims and releases use to wake blocked
//! watchers. The mutex is `LockLevel::SysfsBoard`, the innermost lock of
//! the system hierarchy (`simkit::lockorder`).

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};
use simkit::lockorder::{ordered, LockLevel, LockToken};

use crate::error::DriverError;

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

#[derive(Debug)]
struct BoardState {
    entries: Vec<RankStatus>,
    /// Per-rank claim counters: watchers use these to detect claim/release
    /// cycles that happened entirely between two observations.
    claims: Vec<u64>,
    /// Monotonic change counter so watchers can detect updates they
    /// missed.
    generation: u64,
}

/// The sysfs directory: one status entry per rank.
#[derive(Debug)]
pub struct StatusBoard {
    state: Mutex<BoardState>,
    /// Paired with `state`; notified on every claim and release.
    changed: Condvar,
}

impl StatusBoard {
    /// Creates a board with `ranks` free entries.
    #[must_use]
    pub fn new(ranks: usize) -> Self {
        StatusBoard {
            state: Mutex::new(BoardState {
                entries: vec![RankStatus::Free; ranks],
                claims: vec![0; ranks],
                generation: 0,
            }),
            changed: Condvar::new(),
        }
    }

    /// Locks the board, with lock-order tracking.
    fn lock(&self) -> (LockToken, MutexGuard<'_, BoardState>) {
        (ordered(LockLevel::SysfsBoard, 0), self.state.lock())
    }

    /// Reads one rank's status file.
    #[must_use]
    pub fn status(&self, rank: usize) -> Option<RankStatus> {
        self.lock().1.entries.get(rank).cloned()
    }

    /// Snapshot of every entry with its claim counter (one `ls`+`cat`
    /// sweep of the directory).
    #[must_use]
    pub fn snapshot(&self) -> Vec<(RankStatus, u64)> {
        let (_ord, st) = self.lock();
        st.entries.iter().cloned().zip(st.claims.iter().copied()).collect()
    }

    /// Total claims ever made on `rank`.
    #[must_use]
    pub fn claim_count(&self, rank: usize) -> u64 {
        self.lock().1.claims.get(rank).copied().unwrap_or(0)
    }

    /// Current change generation. Increases on every claim or release.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.lock().1.generation
    }

    /// Blocks until the generation exceeds `seen` or `timeout` elapses.
    /// Returns the new generation (equal to `seen` on timeout with no
    /// change). This is the observer thread's inotify-style wait.
    #[must_use]
    pub fn wait_for_change(&self, seen: u64, timeout: Duration) -> u64 {
        let (_ord, mut st) = self.lock();
        if st.generation <= seen {
            let _ = self.changed.wait_for(&mut st, timeout);
        }
        st.generation
    }

    /// Claims `rank` for `owner`. Returns an RAII guard whose drop releases
    /// the claim (closing the device file).
    ///
    /// # Errors
    ///
    /// [`DriverError::RankInUse`] if the rank is already claimed;
    /// [`DriverError::Sim`] (invalid rank) if the index is out of range.
    pub fn claim(self: &Arc<Self>, rank: usize, owner: &str) -> Result<RankClaim, DriverError> {
        let (_ord, mut st) = self.lock();
        match st.entries.get(rank) {
            None => return Err(DriverError::Sim(upmem_sim::SimError::InvalidRank(rank))),
            Some(RankStatus::InUse { owner: cur }) => {
                return Err(DriverError::RankInUse { rank, owner: cur.clone() });
            }
            Some(RankStatus::Free) => {}
        }
        st.entries[rank] = RankStatus::InUse { owner: owner.to_string() };
        st.claims[rank] += 1;
        st.generation += 1;
        drop(st);
        self.changed.notify_all();
        Ok(RankClaim { board: Arc::clone(self), rank })
    }

    fn release(&self, rank: usize) {
        let (_ord, mut st) = self.lock();
        st.entries[rank] = RankStatus::Free;
        st.generation += 1;
        drop(st);
        self.changed.notify_all();
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
    fn snapshot_pairs_entries_with_claim_counters() {
        let board = Arc::new(StatusBoard::new(3));
        drop(board.claim(0, "gone").unwrap());
        let _c = board.claim(2, "x").unwrap();
        let snap = board.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0], (RankStatus::Free, 1));
        assert_eq!(snap[1], (RankStatus::Free, 0));
        assert!(matches!(&snap[2], (RankStatus::InUse { owner }, 1) if owner == "x"));
    }

    #[test]
    fn concurrent_claims_on_distinct_ranks_succeed_exactly_once() {
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
        assert!(board.snapshot().iter().all(|(s, claims)| *s == RankStatus::Free && *claims == 1));
    }
}
