//! The system-wide lock hierarchy, enforced in debug builds.
//!
//! One request crosses many locks: the frontend, device-queue and
//! rank-slot mutexes on the data path, then the scheduler's state mutex,
//! the manager's rank table and the sysfs board on the control path. A
//! silent deadlock between any two of them would be the worst kind of
//! regression — rare, timing-dependent, invisible to the property
//! suites. This module pins the **one legal acquisition
//! order** and, under `cfg(debug_assertions)`, panics the moment any
//! thread acquires out of order, so every debug test run doubles as a
//! lock-order audit.
//!
//! # The hierarchy
//!
//! Locks may only be acquired in **ascending level order** on one thread
//! (holding a higher level while taking a lower one panics in debug):
//!
//! | level | [`LockLevel`]  | guards                                              |
//! |------:|----------------|-----------------------------------------------------|
//! | 1     | `Fleet`        | cluster tenant map + per-tenant entry state         |
//! | 2     | `Placement`    | fleet placement/admission table                     |
//! | 3     | `Frontend`     | frontend batch/prefetch/session state               |
//! | 4     | `DeviceQueue`  | device notify lock, virtio queue, guest-memory cell |
//! | 5     | `RankSlot`     | a backend's rank mapping slot (sched safe point)    |
//! | 6     | `Link`         | inter-host network link serialization               |
//! | 7     | `SchedState`   | scheduler state (queue, leases, accounts)           |
//! | 8     | `ManagerTable` | manager rank table                                  |
//! | 9     | `SysfsBoard`   | sysfs status board (always leaf)                    |
//!
//! This mirrors the real call chains: the fleet plane pins a tenant's
//! entry before reserving placement capacity (1→2) and before driving
//! that tenant's frontends (1→3), a frontend op holds its own lock
//! while kicking the device (3→4), a device's notify handler holds its
//! notify lock while entering a backend rank slot (4→5), live migration
//! ships snapshots over the link while the source ranks are quiesced under
//! their slot locks (5→6), a backend charges the scheduler from inside
//! its slot (5→7), and the manager probes the sysfs claim counters while
//! holding the rank table (8→9). Every condvar wait (scheduler admission,
//! rank-table allocation retries, board watchers) parks on the mutex its
//! wait condition lives under; there are no separate pairing mutexes.
//!
//! `Link` sits *inside* `RankSlot` rather than alongside the other
//! cluster locks because transfer time is charged while the shipped
//! ranks are frozen — that hold window *is* the migration downtime.
//!
//! **Same-level rule:** several locks of one level (the fleet's tenant
//! map and its entries, a migration's source rank slots) are ordered by
//! index; acquiring the same level again is legal only with a
//! non-decreasing index.
//!
//! # Usage
//!
//! Acquire the token *immediately before* the lock and keep it alive for
//! the critical section:
//!
//! ```
//! use simkit::lockorder::{ordered, LockLevel};
//! let _ord = ordered(LockLevel::ManagerTable, 0);
//! // ... the rank table's mutex is locked here ...
//! // token drop ends the tracked hold
//! ```
//!
//! In release builds `ordered` compiles to a unit token and costs nothing.

/// A level in the system-wide lock hierarchy (ascending acquisition
/// order; see the module docs for the full table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LockLevel {
    /// Cluster tenant map (index 0) and per-tenant entry state (index 1).
    Fleet = 1,
    /// Fleet placement/admission table.
    Placement = 2,
    /// Frontend batch/prefetch/session state.
    Frontend = 3,
    /// A device's notify lock, virtio device queue and guest-memory cell.
    DeviceQueue = 4,
    /// A backend's rank mapping slot (the sched safe point).
    RankSlot = 5,
    /// Inter-host link serialization (taken with source slots quiesced).
    Link = 6,
    /// The scheduler's state mutex (queue, leases and accounts).
    SchedState = 7,
    /// The manager's rank table.
    ManagerTable = 8,
    /// The sysfs status board — always the innermost lock.
    SysfsBoard = 9,
}

#[cfg(debug_assertions)]
mod imp {
    use super::LockLevel;
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<(LockLevel, usize)>> = const { RefCell::new(Vec::new()) };
    }

    /// Debug-build token: registered on the per-thread hold stack while
    /// alive.
    #[derive(Debug)]
    pub struct LockToken {
        level: LockLevel,
        index: usize,
    }

    pub fn ordered(level: LockLevel, index: usize) -> LockToken {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(&(top_level, top_index)) = held.last() {
                let ok = level > top_level || (level == top_level && index >= top_index);
                assert!(
                    ok,
                    "lock-order violation: acquiring {level:?}[{index}] while holding \
                     {top_level:?}[{top_index}] (full stack: {held:?}) — see \
                     simkit::lockorder for the legal hierarchy"
                );
            }
            held.push((level, index));
        });
        LockToken { level, index }
    }

    impl Drop for LockToken {
        fn drop(&mut self) {
            HELD.with(|h| {
                let mut held = h.borrow_mut();
                // Drops are usually LIFO, but guards may legally outlive
                // one another in either order — remove the matching entry
                // closest to the top.
                if let Some(pos) =
                    held.iter().rposition(|&(l, i)| l == self.level && i == self.index)
                {
                    held.remove(pos);
                }
            });
        }
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    use super::LockLevel;

    /// Release-build token: a zero-sized no-op.
    #[derive(Debug)]
    pub struct LockToken;

    #[inline(always)]
    pub fn ordered(_level: LockLevel, _index: usize) -> LockToken {
        LockToken
    }
}

pub use imp::LockToken;

/// Registers an intent to acquire lock `index` of `level` and
/// returns a token that must live for the duration of the hold. Panics in
/// debug builds when the acquisition violates the hierarchy; free in
/// release builds.
#[must_use]
pub fn ordered(level: LockLevel, index: usize) -> LockToken {
    imp::ordered(level, index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_acquisition_is_legal() {
        let a = ordered(LockLevel::Frontend, 0);
        let b = ordered(LockLevel::DeviceQueue, 0);
        let c = ordered(LockLevel::SchedState, 2);
        drop(a);
        drop(b);
        drop(c);
        // Fresh sequence after release.
        let _x = ordered(LockLevel::SysfsBoard, 0);
    }

    #[test]
    fn same_level_ascending_index_is_legal() {
        let _g: Vec<_> = (0..4).map(|i| ordered(LockLevel::RankSlot, i)).collect();
    }

    #[test]
    fn out_of_order_drop_keeps_the_stack_sane() {
        let a = ordered(LockLevel::RankSlot, 0);
        let b = ordered(LockLevel::SchedState, 0);
        drop(a); // dropped before b — must not confuse tracking
        drop(b);
        let _c = ordered(LockLevel::Frontend, 0);
    }

    #[test]
    fn fleet_chain_is_legal() {
        // Launch path: tenant map → entry → placement → frontend.
        let map = ordered(LockLevel::Fleet, 0);
        let _entry = ordered(LockLevel::Fleet, 1);
        drop(map);
        let place = ordered(LockLevel::Placement, 0);
        drop(place);
        let _fe = ordered(LockLevel::Frontend, 0);
    }

    #[test]
    fn migration_chain_is_legal() {
        // Stop-and-copy: entry → quiesced source slots → link → dest slot.
        let _entry = ordered(LockLevel::Fleet, 1);
        let _src: Vec<_> = (0..2).map(|_| ordered(LockLevel::RankSlot, 0)).collect();
        {
            let _link = ordered(LockLevel::Link, 0);
        }
        let _dst = ordered(LockLevel::RankSlot, 0);
        let _sched = ordered(LockLevel::SchedState, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn descending_level_panics_in_debug() {
        let _board = ordered(LockLevel::SysfsBoard, 0);
        let _table = ordered(LockLevel::ManagerTable, 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn taking_fleet_inside_frontend_panics_in_debug() {
        let _fe = ordered(LockLevel::Frontend, 0);
        let _fleet = ordered(LockLevel::Fleet, 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn same_level_descending_index_panics_in_debug() {
        let _three = ordered(LockLevel::RankSlot, 3);
        let _one = ordered(LockLevel::RankSlot, 1);
    }
}
