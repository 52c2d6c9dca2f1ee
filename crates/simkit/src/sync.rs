//! The workspace's one lock type: `std::sync` locks that know their place
//! in the [`lockorder`](crate::lockorder) hierarchy.
//!
//! Every [`Mutex`] and [`RwLock`] is built with its [`LockLevel`] and
//! index, so the order decision lives on the lock and not at each call
//! site. In debug builds [`Mutex::lock`], [`RwLock::read`] and
//! [`RwLock::write`] check the acquisition against the calling thread's
//! held locks *before* blocking (an inversion panics instead of
//! deadlocking), and the guard keeps the entry until it drops. In release
//! builds the types are `std::sync` with poison recovery: a panicked
//! holder simply releases the lock, and no thread-local is touched.
//!
//! ```
//! use simkit::sync::{Condvar, Mutex};
//! use simkit::LockLevel;
//!
//! let state = Mutex::new(LockLevel::SchedState, 0, 0u32);
//! let changed = Condvar::new();
//! let mut g = state.lock();
//! *g += 1;
//! // A wait hands the guard back, still registered at its level.
//! g = changed.wait_for(g, std::time::Duration::from_millis(1));
//! assert_eq!(*g, 1);
//! ```

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{PoisonError, TryLockError};
use std::time::Duration;

use crate::lockorder::{LockLevel, Hold, Place};

/// A mutual-exclusion lock at a fixed place in the lock hierarchy.
pub struct Mutex<T: ?Sized> {
    place: Place,
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`]; releases the lock (and its
/// place on the hold stack) on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
    _order: Hold,
}

impl<T> Mutex<T> {
    /// A mutex at `level`, ordered by `index` among locks of that level.
    pub const fn new(level: LockLevel, index: usize, value: T) -> Self {
        Mutex {
            place: Place::new(level, index),
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available. Panics in
    /// debug builds if the calling thread holds a lock this one may not
    /// nest in.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let order = self.place.enter();
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner, _order: order }
    }

    /// Acquires the mutex if it is free. A failed attempt registers
    /// nothing; a successful one is checked as [`lock`](Self::lock) is.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard { inner, _order: self.place.enter() })
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Straight to the inner lock: printing takes no place in the order.
        match self.inner.try_lock() {
            Ok(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            Err(_) => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A reader-writer lock at a fixed place in the lock hierarchy. Reads
/// and writes are checked alike.
pub struct RwLock<T: ?Sized> {
    place: Place,
    inner: std::sync::RwLock<T>,
}

/// RAII guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    _order: Hold,
}

/// RAII guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    _order: Hold,
}

impl<T> RwLock<T> {
    /// A reader-writer lock at `level`, ordered by `index` among locks of
    /// that level.
    pub const fn new(level: LockLevel, index: usize, value: T) -> Self {
        RwLock {
            place: Place::new(level, index),
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock (checked as [`Mutex::lock`] is).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let order = self.place.enter();
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        RwLockReadGuard { inner, _order: order }
    }

    /// Acquires an exclusive write lock (checked as [`Mutex::lock`] is).
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let order = self.place.enter();
        let inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        RwLockWriteGuard { inner, _order: order }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RwLock { .. }")
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable paired with [`Mutex`] guards. A wait takes the
/// guard and hands it back, std-style; while the thread sleeps the guard
/// keeps its place on the hold stack, so the reacquired lock is checked
/// where it was taken.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar { inner: std::sync::Condvar::new() }
    }

    /// Blocks until notified (spurious wakeups included: recheck the
    /// condition).
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let MutexGuard { inner, _order } = guard;
        let inner = self.inner.wait(inner).unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner, _order }
    }

    /// Blocks until notified or `timeout` elapses; the caller rechecks
    /// its condition and its own deadline.
    pub fn wait_for<'a, T>(&self, guard: MutexGuard<'a, T>, timeout: Duration) -> MutexGuard<'a, T> {
        let MutexGuard { inner, _order } = guard;
        let (inner, _) =
            self.inner.wait_timeout(inner, timeout).unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner, _order }
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockorder::LockLevel::*;

    fn mutex(level: LockLevel, index: usize) -> Mutex<()> {
        Mutex::new(level, index, ())
    }

    /// This thread's hold stack (always empty in release builds).
    fn held() -> Vec<(LockLevel, usize)> {
        #[cfg(debug_assertions)]
        return crate::lockorder::held();
        #[cfg(not(debug_assertions))]
        Vec::new()
    }

    #[test]
    fn ascending_acquisition_is_legal() {
        let (fe, dev, sched, board) =
            (mutex(Frontend, 0), mutex(DeviceQueue, 0), mutex(SchedState, 2), mutex(SysfsBoard, 0));
        let a = fe.lock();
        let b = dev.lock();
        let c = sched.lock();
        drop(a);
        drop(b);
        drop(c);
        // Fresh sequence after release.
        let _x = board.lock();
    }

    #[test]
    fn same_level_ascending_index_is_legal() {
        let slots: Vec<_> = (0..4).map(|i| RwLock::new(RankSlot, i, ())).collect();
        let _g: Vec<_> = slots.iter().map(RwLock::write).collect();
        let again = RwLock::new(RankSlot, 3, ());
        let _r = again.read();
    }

    #[test]
    fn out_of_order_drop_keeps_the_stack_sane() {
        let (slot, sched, fe) = (mutex(RankSlot, 0), mutex(SchedState, 0), mutex(Frontend, 0));
        let a = slot.lock();
        let b = sched.lock();
        drop(a); // dropped before b — must not confuse tracking
        drop(b);
        assert!(held().is_empty());
        let _c = fe.lock();
    }

    #[test]
    fn fleet_chain_is_legal() {
        // Launch path: tenant map → entry → placement → frontend.
        let (map, entry) = (mutex(Fleet, 0), mutex(Fleet, 1));
        let (place, fe) = (mutex(Placement, 0), mutex(Frontend, 0));
        let m = map.lock();
        let _entry = entry.lock();
        drop(m);
        drop(place.lock());
        let _fe = fe.lock();
    }

    #[test]
    fn migration_chain_is_legal() {
        // Stop-and-copy: entry → quiesced source slots → link → dest slot.
        let entry = mutex(Fleet, 1);
        let src = [mutex(RankSlot, 0), mutex(RankSlot, 0)];
        let (link, dst, sched) = (mutex(Link, 0), mutex(RankSlot, 0), mutex(SchedState, 1));
        let _entry = entry.lock();
        let _src: Vec<_> = src.iter().map(Mutex::lock).collect();
        drop(link.lock());
        let _dst = dst.lock();
        let _sched = sched.lock();
    }

    #[test]
    fn a_condvar_wait_hands_back_a_guard_that_still_checks() {
        let (state, board) = (mutex(SchedState, 0), mutex(SysfsBoard, 0));
        let changed = Condvar::new();
        let g = changed.wait_for(state.lock(), Duration::from_millis(1));
        if cfg!(debug_assertions) {
            assert_eq!(held(), [(SchedState, 0)], "the woken guard keeps its place");
        }
        // Still a legal parent of the levels below it.
        drop(board.lock());
        drop(g);
        assert!(held().is_empty(), "dropping the woken guard releases its place");
    }

    #[test]
    fn a_failed_try_lock_leaves_the_hold_stack_unchanged() {
        let (table, board) = (mutex(ManagerTable, 0), mutex(SysfsBoard, 0));
        let _t = table.lock();
        let before = held();
        std::thread::scope(|s| {
            // Another thread holds the board, so this thread's attempt fails.
            let (locked_tx, locked_rx) = std::sync::mpsc::channel();
            let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
            let board = &board;
            s.spawn(move || {
                let _b = board.lock();
                locked_tx.send(()).unwrap();
                done_rx.recv().unwrap();
            });
            locked_rx.recv().unwrap();
            assert!(board.try_lock().is_none());
            assert_eq!(held(), before);
            done_tx.send(()).unwrap();
        });
        // A successful attempt is registered like a lock.
        let b = board.try_lock().expect("the board is free");
        if cfg!(debug_assertions) {
            assert_eq!(held(), [(ManagerTable, 0), (SysfsBoard, 0)]);
        }
        drop(b);
        assert_eq!(held(), before);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn descending_level_panics_in_debug() {
        let (board, table) = (mutex(SysfsBoard, 0), mutex(ManagerTable, 0));
        let _board = board.lock();
        let _table = table.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn taking_fleet_inside_frontend_panics_in_debug() {
        let fe = mutex(Frontend, 0);
        let fleet = RwLock::new(Fleet, 0, ());
        let _fe = fe.lock();
        let _fleet = fleet.read();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn same_level_descending_index_panics_in_debug() {
        let (three, one) = (mutex(RankSlot, 3), mutex(RankSlot, 1));
        let _three = three.lock();
        let _one = one.lock();
    }
}
