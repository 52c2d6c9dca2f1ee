//! The lock-order hold stack allocates once per thread: after a warm-up,
//! nested acquisitions through `simkit::sync` make no heap allocation, so
//! the per-op allocation budgets pinned elsewhere hold in debug builds
//! too. Counted by a global allocator on the calling thread only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simkit::sync::{Condvar, Mutex, RwLock};
use simkit::LockLevel;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn the_hold_stack_does_not_allocate_after_a_warm_up() {
    let slot = Mutex::new(LockLevel::RankSlot, 0, ());
    let ram = RwLock::new(LockLevel::GuestRam, 0, ());
    let dpus: Vec<_> = (0..16).map(|i| Mutex::new(LockLevel::Dpu, i, ())).collect();
    let changed = Condvar::new();
    let mut guards = Vec::with_capacity(dpus.len());
    // Warm-up: the thread's first acquisition sizes its hold stack.
    drop(slot.lock());
    let before = ALLOCS.with(Cell::get);
    {
        // Deeper than the warm-up: a slot, guest RAM and a rank's DPUs.
        let s = changed.wait_for(slot.lock(), std::time::Duration::ZERO);
        let r = ram.read();
        guards.extend(dpus.iter().map(Mutex::lock));
        guards.clear();
        drop((r, s));
        drop(ram.write());
    }
    assert_eq!(ALLOCS.with(Cell::get) - before, 0, "nested acquisitions allocated");
}
