//! The paper's future-work extension (§7): pause/resume via rank-granular
//! checkpoint-restore, enabling dynamic workload consolidation without
//! hardware changes. A tenant's rank is checkpointed mid-computation, the
//! rank is reset and lent to another tenant, then the snapshot is restored
//! and the original program continues and produces correct results.

use std::sync::Arc;

use simkit::CostModel;
use upmem_driver::UpmemDriver;
use upmem_sdk::DpuSet;
use upmem_sim::{PimConfig, PimMachine};

fn host() -> Arc<UpmemDriver> {
    let machine = PimMachine::new(PimConfig::small());
    prim::register_all(&machine);
    microbench::Checksum::register(&machine);
    Arc::new(UpmemDriver::new(machine))
}

#[test]
fn checkpoint_restore_roundtrips_rank_state() {
    let driver = host();
    let rank = driver.machine().rank(0).unwrap();
    rank.write_mram(0, 64, b"persist me").unwrap();
    rank.write_mram(3, 0, &[7u8; 1024]).unwrap();
    let snap = rank.snapshot();
    assert!(snap.resident_bytes() >= 1024 + 74);

    rank.reset_content();
    let mut buf = [1u8; 10];
    rank.read_mram(0, 64, &mut buf).unwrap();
    assert_eq!(buf, [0u8; 10], "reset must erase");

    rank.restore(&snap).unwrap();
    rank.read_mram(0, 64, &mut buf).unwrap();
    assert_eq!(&buf, b"persist me");
    let mut big = [0u8; 1024];
    rank.read_mram(3, 0, &mut big).unwrap();
    assert_eq!(big, [7u8; 1024]);
}

#[test]
fn snapshot_preserves_loaded_program_and_symbols() {
    let driver = host();
    let rank = driver.machine().rank(0).unwrap();
    let image = driver
        .machine()
        .registry()
        .get(microbench::Checksum::KERNEL)
        .unwrap()
        .image();
    rank.load_program(None, &image).unwrap();
    rank.write_symbol(2, "nbytes", &1234u32.to_le_bytes()).unwrap();
    let snap = rank.snapshot();
    rank.reset_content();

    rank.restore(&snap).unwrap();
    let mut b = [0u8; 4];
    rank.read_symbol(2, "nbytes", &mut b).unwrap();
    assert_eq!(u32::from_le_bytes(b), 1234);
    // The program is still loaded: a launch works without re-loading.
    rank.write_symbol(0, "nbytes", &64u32.to_le_bytes()).unwrap();
    assert!(rank
        .launch(Some(&[0]), 4, driver.machine().registry())
        .is_ok());
}

#[test]
fn consolidation_scenario_tenant_resumes_after_eviction() {
    // Tenant A loads data and runs half its work; the operator checkpoints
    // A's rank, lends the (reset) rank to tenant B, then restores A, whose
    // remaining work completes with correct results.
    let driver = host();
    let scale = prim::ScaleParams::of(2048);
    let red = prim::by_name("RED").unwrap();

    // Tenant A computes the full expected result first (for comparison).
    let expected = {
        let mut set = DpuSet::alloc_native(&driver, 8, CostModel::default()).unwrap();
        red.run(&mut set, &scale, 99).unwrap().checksum
    };

    // Tenant A again, but this time evicted mid-way: after input upload.
    let rank = driver.machine().rank(0).unwrap();
    let snap = {
        let mut set = DpuSet::alloc_native(&driver, 8, CostModel::default()).unwrap();
        set.load("red_kernel").unwrap();
        set.copy_to_heap(0, 0, &[42u8; 4096]).unwrap();
        // Checkpoint while the set is still alive (mid-lifetime).
        rank.snapshot()
        // set drops: rank is released.
    };

    // Tenant B borrows the hardware.
    {
        rank.reset_content();
        let mut set = DpuSet::alloc_native(&driver, 8, CostModel::default()).unwrap();
        let b = red.run(&mut set, &scale, 123).unwrap();
        assert!(b.verified);
    }

    // Tenant A is restored: its uploaded data is back.
    rank.restore(&snap).unwrap();
    {
        let set_holder = driver.open_perf(0, "tenant-a-resumed").unwrap();
        let mut buf = [0u8; 16];
        set_holder.read_mram(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [42u8; 16], "tenant A's data survived eviction");
    }

    // And a full fresh run still matches the expected checksum (the
    // machine is uncorrupted by the checkpoint machinery).
    let again = {
        let mut set = DpuSet::alloc_native(&driver, 8, CostModel::default()).unwrap();
        red.run(&mut set, &scale, 99).unwrap().checksum
    };
    assert_eq!(again, expected);
}

#[test]
fn restore_rejects_geometry_mismatch() {
    let driver = host();
    let small = driver.machine().rank(0).unwrap();
    let snap = small.snapshot();

    let other_machine = PimMachine::new(PimConfig {
        functional_dpus: vec![4, 4],
        ..PimConfig::small()
    });
    let other = other_machine.rank(0).unwrap();
    assert!(other.restore(&snap).is_err(), "4-DPU rank cannot take an 8-DPU snapshot");
}

// -------------------------------------------------- persistent-heap WAL

/// Regression for `vpim::pheap` over checkpoint/restore: a rank holding a
/// *mid-WAL uncommitted tail* (a persist torn by `pheap.wal.torn`) must
/// round-trip through snapshot→restore bit-exactly, and recovery must
/// truncate that tail identically whether it runs before or after the
/// restore. The discard path is read-only, so the post-recovery MRAM
/// image is also bit-identical to the crashed one.
#[test]
fn pheap_uncommitted_wal_tail_roundtrips_and_truncates_identically() {
    use simkit::{ErrorKind, FaultPlan, HasErrorKind};
    use vpim::{
        Pheap, PheapOptions, StartOpts, TenantSpec, VpimConfig, VpimSystem,
        PHEAP_WAL_TORN_POINT,
    };

    let vcfg = VpimConfig::builder()
        .batching(false)
        .prefetch(false)
        .inject_seed(11)
        .build();
    let sys = VpimSystem::start(host(), vcfg, StartOpts::default());
    let vm = sys.launch(TenantSpec::new("pheap-ckpt")).unwrap();
    let plane = sys.fault_plane().unwrap().clone();
    let opts = || {
        PheapOptions::new()
            .base(64 << 10)
            .wal_size(16 << 10)
            .root_size(8 << 10)
            .data_size(64 << 10)
            .resident_budget(8 << 10)
            .attach(&sys)
    };

    let mut heap = Pheap::format(vm.frontend(0).clone(), opts()).unwrap();
    let a = heap.alloc(600).unwrap();
    heap.write(a, 0, &[0xA5; 600]).unwrap();
    heap.persist().unwrap(); // committed point

    // Tear the next persist mid-WAL: the rank now holds a torn tail.
    // (Persist faults are keyed by sequence number: seq 2 carries key 1,
    // which is what `Nth(2)` fires on.)
    plane.arm(PHEAP_WAL_TORN_POINT, FaultPlan::Nth(2));
    heap.write(a, 0, &[0x3C; 600]).unwrap();
    let err = heap.persist().unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Injected, "{err}");
    plane.disarm_all();
    drop(heap);

    let rid = vm.devices()[0].backend().linked_rank().unwrap();
    let rank = sys.driver().machine().rank(rid).unwrap();
    let crashed = rank.snapshot();

    // Recovery before the restore: discards the tail, reads the committed
    // payload, and — because discarding writes nothing — leaves the MRAM
    // image untouched.
    let (mut rec, pre_report) = Pheap::recover(vm.frontend(0).clone(), opts()).unwrap();
    assert!(pre_report.discarded_tail && !pre_report.replayed, "{pre_report:?}");
    assert_eq!(pre_report.applied_seq, 1);
    let pre_read = rec.read(a, 0, 600).unwrap();
    assert_eq!(pre_read, vec![0xA5; 600], "torn write leaked");
    drop(rec);
    let post_pre = rank.snapshot();
    assert_eq!(post_pre.diff_bytes(&crashed), 0, "discard recovery must be read-only");

    // Restore the crashed image: bit-exact, torn tail included.
    rank.restore(&crashed).unwrap();
    assert_eq!(rank.snapshot().diff_bytes(&crashed), 0, "restore must be bit-exact");

    // Recovery after the restore truncates identically.
    let (mut rec2, post_report) = Pheap::recover(vm.frontend(0).clone(), opts()).unwrap();
    assert_eq!(post_report, pre_report);
    assert_eq!(rec2.read(a, 0, 600).unwrap(), pre_read);
    assert_eq!(rank.snapshot().diff_bytes(&post_pre), 0, "recoveries must agree bit-exactly");

    // The recovered heap is fully usable: the lost update can be redone.
    rec2.write(a, 0, &[0x3C; 600]).unwrap();
    rec2.persist().unwrap();
    assert_eq!(rec2.read(a, 0, 600).unwrap(), vec![0x3C; 600]);
    drop(rec2);
    drop(vm);
    sys.shutdown();
}
