//! Frontend optimization behaviour observed through the public stack:
//! batching flush triggers, prefetch validity rules, and the §4.1 memory
//! bound.

use std::sync::Arc;

use simkit::CostModel;
use upmem_driver::UpmemDriver;
use upmem_sdk::DpuSet;
use upmem_sim::{PimConfig, PimMachine};
use vpim::{StartOpts, TenantSpec, VpimConfig, VpimSystem};

fn stack() -> (VpimSystem, vpim::VpimVm) {
    let machine = PimMachine::new(PimConfig::small());
    microbench::Checksum::register(&machine);
    let driver = Arc::new(UpmemDriver::new(machine));
    let sys = VpimSystem::start(driver, VpimConfig::full(), StartOpts::default());
    let vm = sys.launch(TenantSpec::new("fb")).unwrap();
    (sys, vm)
}

#[test]
fn small_writes_are_absorbed_until_a_nonwrite_request() {
    let (sys, vm) = stack();
    let fe = vm.frontend(0).clone();
    let mut set = DpuSet::alloc_vm(vm.frontends(), 4, CostModel::default()).unwrap();
    let (_, flushes_before) = fe.batch_stats();
    let writes_before = vm.devices()[0]
        .backend()
        .counters()
        .writes
        .get();

    for i in 0..32u64 {
        set.copy_to_heap(0, i * 128, &[1u8; 128]).unwrap();
    }
    // Nothing reached the backend yet.
    let writes_mid = vm.devices()[0]
        .backend()
        .counters()
        .writes
        .get();
    assert_eq!(writes_mid, writes_before, "small writes must be buffered");

    // A read flushes the batch (§4.1: flush on any non-write request).
    let back = set.copy_from_heap(0, 0, 128).unwrap();
    assert_eq!(back, vec![1u8; 128]);
    let (appends, flushes) = fe.batch_stats();
    assert!(appends >= 32);
    assert!(flushes > flushes_before);
    drop(set);
    drop(vm);
    sys.shutdown();
}

#[test]
fn big_writes_bypass_the_batch_buffer() {
    let (sys, vm) = stack();
    let fe = vm.frontend(0).clone();
    let mut set = DpuSet::alloc_vm(vm.frontends(), 4, CostModel::default()).unwrap();
    let (appends_before, _) = fe.batch_stats();
    set.copy_to_heap(0, 0, &vec![2u8; 64 << 10]).unwrap();
    let (appends_after, _) = fe.batch_stats();
    assert_eq!(appends_after, appends_before, "a 64 KiB write must go direct");
    // And it is immediately visible.
    assert_eq!(set.copy_from_heap(0, 100, 8).unwrap(), vec![2u8; 8]);
    drop(set);
    drop(vm);
    sys.shutdown();
}

#[test]
fn prefetch_cache_is_invalidated_by_writes_and_launches() {
    let (sys, vm) = stack();
    let fe = vm.frontend(0).clone();
    let mut set = DpuSet::alloc_vm(vm.frontends(), 4, CostModel::default()).unwrap();
    set.load(microbench::Checksum::KERNEL).unwrap();
    set.broadcast_symbol_u32("nbytes", 4096).unwrap();
    set.copy_to_heap(0, 4096, &vec![3u8; 4096]).unwrap();

    // Populate the cache.
    let _ = set.copy_from_heap(0, 4096, 64).unwrap();
    let (h1, _) = fe.prefetch_stats();
    let _ = set.copy_from_heap(0, 4160, 64).unwrap();
    let (h2, _) = fe.prefetch_stats();
    assert!(h2 > h1, "second read of the segment must hit");

    // A write invalidates: the next read must miss (correctness: it must
    // also see the new data).
    set.copy_to_heap(0, 4096, &[9u8; 64]).unwrap();
    let back = set.copy_from_heap(0, 4096, 64).unwrap();
    assert_eq!(back, vec![9u8; 64]);

    // A launch invalidates too: the kernel's output must be observed.
    let _ = set.copy_from_heap(0, 0, 4).unwrap(); // repopulate result page
    set.launch(4).unwrap();
    let result = set.copy_from_heap(0, 0, 4).unwrap();
    let checksum = u32::from_le_bytes(result[..4].try_into().unwrap());
    // 64 bytes of 9 + 4032 bytes of 3 = expected sum of the current MRAM.
    assert_eq!(checksum, 64 * 9 + (4096 - 64) * 3);
    drop(set);
    drop(vm);
    sys.shutdown();
}

#[test]
fn frontend_reports_costs_for_every_operation() {
    let (sys, vm) = stack();
    let mut set = DpuSet::alloc_vm(vm.frontends(), 4, CostModel::default()).unwrap();
    let t0 = set.timeline().app_total();
    set.copy_to_heap(0, 0, &[1u8; 256]).unwrap();
    let t1 = set.timeline().app_total();
    assert!(t1 > t0, "even a batched write must cost virtual time");
    let _ = set.copy_from_heap(0, 0, 256).unwrap();
    let t2 = set.timeline().app_total();
    assert!(t2 > t1);
    drop(set);
    drop(vm);
    sys.shutdown();
}

#[test]
fn every_operation_returns_its_guest_pages() {
    let (sys, vm) = stack();
    let fe = vm.frontend(0).clone();
    fe.load_program(microbench::Checksum::KERNEL, &[]).unwrap();
    let mem = vm.vm().memory();
    let before = mem.free_pages();

    let big = vec![7u8; 3 * 4096 + 5];
    fe.write_rank(&[(0, 0, &big), (1, 4096, &big)]).unwrap();
    fe.write_rank(&[(0, 64, &[1u8; 128])]).unwrap(); // batched, flushed by the read
    let (cached, _) = fe.read_rank(&[(0, 0, 256)]).unwrap();
    assert_eq!(cached[0], [&[7u8; 64][..], &[1u8; 128], &[7u8; 64]].concat());
    let (uncached, _) = fe.read_rank(&[(0, 0, big.len() as u64), (1, 4096, 100)]).unwrap();
    assert_eq!(uncached[0][256..], big[256..]);
    assert_eq!(uncached[1], big[..100]);
    fe.write_symbol(0, "nbytes", &4096u32.to_le_bytes()).unwrap();
    fe.poll_status(0).unwrap();
    // Backend errors: an unknown symbol, and a transfer past the MRAM bank.
    assert!(fe.write_symbol(0, "no_such_symbol", &[0u8; 4]).is_err());
    assert!(fe.write_rank(&[(0, 1 << 40, &big)]).is_err());
    assert!(fe.read_rank(&[(0, 1 << 40, big.len() as u64)]).is_err());

    assert_eq!(mem.free_pages(), before);
    drop(vm);
    sys.shutdown();
}
