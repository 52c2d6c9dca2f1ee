//! Heap-allocation budgets of the small-request path, counted by a global
//! allocator on the calling thread. Every host layer of a request (SDK,
//! frontend, virtqueue, backend, rank) runs on the thread that kicks it,
//! so a thread-local count covers the whole op and ignores the other
//! harness threads. Each budget is taken on a warm VM: one op of the same
//! kind has run first, so lazily sized state (the prefetch segment, the
//! debug lock-order checker's held-lock stack) already has its capacity.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use microbench::checksum::Checksum;
use simkit::CostModel;
use upmem_driver::UpmemDriver;
use upmem_sdk::DpuSet;
use upmem_sim::{PimConfig, PimMachine};
use vpim::{StartOpts, TenantSpec, VpimConfig, VpimSystem, VpimVm};

struct Counting;

thread_local! {
    // `const`: reading the counter never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the thread's own teardown may still allocate.
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

/// Heap allocations (`alloc`, `alloc_zeroed` and `realloc`) `f` makes on
/// this thread, with its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// A one-device VM over a 64-DPU rank.
fn vm(vcfg: VpimConfig) -> (VpimSystem, VpimVm) {
    let machine = PimMachine::new(PimConfig {
        ranks: 1,
        functional_dpus: vec![64],
        ..PimConfig::small()
    });
    Checksum::register(&machine);
    let sys = VpimSystem::start(Arc::new(UpmemDriver::new(machine)), vcfg, StartOpts::default());
    let vm = sys.launch(TenantSpec::new("alloc").mem_mib(64)).unwrap();
    (sys, vm)
}

/// A batched 16-byte `copy_to_heap` (NW's boundary write) allocates
/// nothing: the batch buffer copies the bytes into the arena an earlier
/// batch window grew.
#[test]
fn a_batched_small_write_allocates_nothing() {
    let (sys, vm) = vm(VpimConfig::full());
    let mut set = DpuSet::alloc_vm(vm.frontends(), 64, CostModel::default()).unwrap();
    let data = [7u8; 16];
    set.copy_to_heap(3, 0, &data).unwrap();
    set.copy_to_heap(3, 16, &data).unwrap();
    vm.frontend(0).flush_batch().unwrap();
    let (n, out) = allocations(|| set.copy_to_heap(3, 16, &data));
    out.unwrap();
    assert_eq!(n, 0, "a batched 16-byte write allocated {n} times");
    drop(set);
    drop(vm);
    sys.shutdown();
}

/// A `copy_from_heap` the prefetch cache serves allocates exactly the
/// buffer it returns.
#[test]
fn a_prefetch_hit_allocates_only_its_result() {
    let (sys, vm) = vm(VpimConfig::full());
    let fe = vm.frontend(0).clone();
    let mut set = DpuSet::alloc_vm(vm.frontends(), 64, CostModel::default()).unwrap();
    let data: Vec<u8> = (0..=255).collect();
    set.push_to_heap(0, &vec![data.clone(); 64]).unwrap();
    // The miss fetches the segment; the next read is a hit.
    assert_eq!(set.copy_from_heap(5, 0, 16).unwrap(), data[..16]);
    let (hits, _) = fe.prefetch_stats();
    let (n, got) = allocations(|| set.copy_from_heap(5, 16, 16));
    assert_eq!(got.unwrap(), data[16..32]);
    assert_eq!(fe.prefetch_stats().0, hits + 1, "the read must be a prefetch hit");
    assert_eq!(n, 1, "a prefetch hit allocated {n} times");
    drop(set);
    drop(vm);
    sys.shutdown();
}

/// A transfer matrix's page lists cost a constant per matrix, not one
/// allocation per entry: a 64-entry one-page-per-entry `write_rank`
/// allocates at most a few times more than a 1-entry one.
#[test]
fn a_matrix_allocates_per_matrix_not_per_entry() {
    // Batching off, so the one-page writes reach the rank as they are.
    let (sys, vm) = vm(VpimConfig::builder().batching(false).build());
    let fe = vm.frontend(0).clone();
    let page = vec![9u8; 4096];
    let wide: Vec<(u32, u64, &[u8])> = (0..64).map(|d| (d, 0, page.as_slice())).collect();
    let one = &wide[..1];
    fe.write_rank(&wide).unwrap();
    fe.write_rank(one).unwrap();
    let (n_one, out) = allocations(|| fe.write_rank(one));
    out.unwrap();
    let (n_wide, out) = allocations(|| fe.write_rank(&wide));
    out.unwrap();
    assert!(
        n_wide <= n_one + 4,
        "64 entries allocated {n_wide} times, 1 entry {n_one} times"
    );
    drop(vm);
    sys.shutdown();
}

/// Reloading the kernel 64 DPUs already hold costs a constant per
/// request, not per DPU: each DPU zeroes its symbols in place.
#[test]
fn reloading_a_held_kernel_allocates_per_request_not_per_dpu() {
    let (sys, vm) = vm(VpimConfig::full());
    let mut set = DpuSet::alloc_vm(vm.frontends(), 64, CostModel::default()).unwrap();
    set.load(Checksum::KERNEL).unwrap();
    let (n, out) = allocations(|| set.load(Checksum::KERNEL));
    out.unwrap();
    assert!(n <= 32, "a warm 64-DPU set.load allocated {n} times");
    drop(set);
    drop(vm);
    sys.shutdown();
}
