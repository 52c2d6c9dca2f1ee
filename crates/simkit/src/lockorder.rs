//! The system-wide lock hierarchy, enforced in debug builds.
//!
//! One request crosses many locks: the frontend, device-queue and
//! rank-slot mutexes on the data path, then the scheduler's state mutex,
//! the manager's rank table and the sysfs board on the control path, and
//! the guest-RAM, per-DPU and fault-plane locks under all of them. A
//! silent deadlock between any two of them would be the worst kind of
//! regression — rare, timing-dependent, invisible to the property
//! suites. This module pins the **one legal acquisition order**. Every
//! [`crate::sync`] lock is built with its level and index, and under
//! `cfg(debug_assertions)` its `lock`/`read`/`write` panics the moment a
//! thread acquires out of order, so every debug test run is a lock-order
//! audit of every acquisition.
//!
//! # The hierarchy
//!
//! Locks may only be acquired in **ascending level order** on one thread
//! (holding a higher level while taking a lower one panics in debug):
//!
//! | level | [`LockLevel`]   | guards                                              |
//! |------:|-----------------|-----------------------------------------------------|
//! | 1     | `Fleet`         | cluster tenant map + per-tenant entry state         |
//! | 2     | `Placement`     | fleet placement/admission table                     |
//! | 3     | `Frontend`      | frontend batch/prefetch/session state, driver queue |
//! | 4     | `DeviceQueue`   | device notify lock, virtio queue, guest-memory cell |
//! | 5     | `RankSlot`      | a backend's rank mapping slot (sched safe point)    |
//! | 6     | `Link`          | inter-host network link serialization               |
//! | 7     | `SchedState`    | scheduler state (queue, leases, accounts)           |
//! | 8     | `ManagerTable`  | manager rank table                                  |
//! | 9     | `SysfsBoard`    | sysfs status board                                  |
//! | 10    | `Snapshots`     | parked rank checkpoints (`SnapshotStore`)           |
//! | 11    | `GuestRam`      | a guest's RAM bytes and dirty bits                  |
//! | 12    | `Dpu`           | one simulated DPU (index: its position in the rank) |
//! | 13    | `Kernels`       | the DPU kernel registry                             |
//! | 14    | `FaultCell`     | an `InjectCell`'s installed plane                   |
//! | 15    | `FaultPoints`   | a `FaultPlane`'s armed points                       |
//! | 16    | `GuestPages`    | a guest's page allocator                            |
//! | 17    | `Mmio`          | a virtio-mmio register block                        |
//! | 18    | `FreeRam`       | the process-wide recycled guest-RAM list            |
//! | 19    | `BytePool`      | a scratch-buffer pool's free lists                  |
//! | 20    | `Metrics`       | a metrics registry's name → instrument map          |
//!
//! Levels 1–9 mirror the real call chains: the fleet plane pins a
//! tenant's entry before reserving placement capacity (1→2) and before
//! driving that tenant's frontends (1→3), a frontend op holds its own
//! lock while kicking the device (3→4), a device's notify handler holds
//! its notify lock while entering a backend rank slot (4→5), live
//! migration ships snapshots over the link while the source ranks are
//! quiesced under their slot locks (5→6), a backend charges the
//! scheduler from inside its slot (5→7), and the manager probes the sysfs
//! claim counters while holding the rank table (8→9). Every condvar wait
//! (scheduler admission, rank-table allocation retries, board watchers)
//! parks on the mutex its wait condition lives under; there are no
//! separate pairing mutexes.
//!
//! `Link` sits *inside* `RankSlot` rather than alongside the other
//! cluster locks because transfer time is charged while the shipped
//! ranks are frozen — that hold window *is* the migration downtime.
//!
//! Levels 10–20 sit under all of the above and nest only as listed. A
//! preemption parks a checkpoint under the victim's slot (5→10), and the
//! scheduler's stats sum the parked bytes under its state (7→10). A
//! transfer walks guest RAM
//! and copies each page into a DPU's MRAM under that one borrow (11→12);
//! a launch looks its kernel up with the DPU held (12→13); every walked
//! page consults the memory's fault cell, which reads its plane's points
//! (11→14→15). The allocator, mmio, recycled-RAM, pool and metrics locks
//! hold nothing while held.
//!
//! **Same-level rule:** several locks of one level (the fleet's tenant
//! map and its entries, a migration's source rank slots, a rank's DPUs)
//! are ordered by index; acquiring the same level again is legal only
//! with a non-decreasing index.
//!
//! # Usage
//!
//! The level is part of the lock, so there is nothing to place at an
//! acquisition site:
//!
//! ```
//! use simkit::sync::Mutex;
//! use simkit::LockLevel;
//!
//! let table = Mutex::new(LockLevel::ManagerTable, 0, Vec::<u32>::new());
//! table.lock().push(1); // checked against this thread's held locks
//! ```
//!
//! In release builds the check compiles out and no thread-local is
//! touched.

/// A level in the system-wide lock hierarchy (ascending acquisition
/// order; see the module docs for the full table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LockLevel {
    /// Cluster tenant map (index 0) and per-tenant entry state (index 1).
    Fleet = 1,
    /// Fleet placement/admission table.
    Placement = 2,
    /// Frontend batch/prefetch/session state and its driver queue.
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
    /// The sysfs status board — the innermost control-plane lock.
    SysfsBoard = 9,
    /// Parked rank checkpoints (a `SnapshotStore`).
    Snapshots = 10,
    /// A guest's RAM: bytes and dirty bits.
    GuestRam = 11,
    /// One simulated DPU; the index is its position in the rank.
    Dpu = 12,
    /// The DPU kernel registry.
    Kernels = 13,
    /// An `InjectCell`'s installed fault plane.
    FaultCell = 14,
    /// A `FaultPlane`'s armed points.
    FaultPoints = 15,
    /// A guest's page allocator.
    GuestPages = 16,
    /// A virtio-mmio register block.
    Mmio = 17,
    /// The process-wide list of recycled guest RAM.
    FreeRam = 18,
    /// A scratch-buffer pool's free lists.
    BytePool = 19,
    /// A metrics registry's name → instrument map.
    Metrics = 20,
}

/// A lock's place in the hierarchy: its level and index in debug builds,
/// nothing in release builds. Only [`crate::sync`]'s locks hold one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Place {
    #[cfg(debug_assertions)]
    level: LockLevel,
    #[cfg(debug_assertions)]
    index: usize,
}

impl Place {
    pub(crate) const fn new(level: LockLevel, index: usize) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = (level, index);
        Place {
            #[cfg(debug_assertions)]
            level,
            #[cfg(debug_assertions)]
            index,
        }
    }

    /// Registers an acquisition at this place and returns a hold that
    /// lives as long as the hold. Panics in debug builds when the
    /// acquisition violates the hierarchy; free in release builds. Locks
    /// call it before they block.
    #[inline(always)]
    pub(crate) fn enter(self) -> Hold {
        #[cfg(debug_assertions)]
        return imp::enter(self.level, self.index);
        #[cfg(not(debug_assertions))]
        Hold
    }
}

#[cfg(debug_assertions)]
mod imp {
    use super::LockLevel;
    use std::cell::RefCell;

    thread_local! {
        // Sized once per thread, so a deeper hold stack than the first
        // one never reallocates on a measured path.
        static HELD: RefCell<Vec<(LockLevel, usize)>> = RefCell::new(Vec::with_capacity(32));
    }

    /// Debug-build hold: registered on the per-thread hold stack while
    /// alive.
    #[derive(Debug)]
    pub struct Hold {
        level: LockLevel,
        index: usize,
    }

    pub fn enter(level: LockLevel, index: usize) -> Hold {
        // `try_with`: a lock taken from another thread-local's destructor
        // runs unchecked rather than panicking on a destroyed stack.
        let _ = HELD.try_with(|h| {
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
        Hold { level, index }
    }

    impl Drop for Hold {
        fn drop(&mut self) {
            let _ = HELD.try_with(|h| {
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

    /// This thread's hold stack, bottom first.
    #[cfg(test)]
    pub fn held() -> Vec<(LockLevel, usize)> {
        HELD.with(|h| h.borrow().clone())
    }
}

/// Release-build hold: a zero-sized no-op.
#[cfg(not(debug_assertions))]
#[derive(Debug)]
pub(crate) struct Hold;

#[cfg(all(test, debug_assertions))]
pub(crate) use imp::held;
#[cfg(debug_assertions)]
pub(crate) use imp::Hold;
