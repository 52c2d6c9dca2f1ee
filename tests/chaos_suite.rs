//! Cross-layer chaos suite: seeded fault sweeps over every fault point in
//! the stack.
//!
//! For every fault point the suite proves the ISSUE-5 contract:
//! (a) an induced fault either surfaces as a typed `ErrorKind` or is
//!     recovered transparently — never a panic, hang, or corrupted state;
//! (b) the system stays usable afterwards, and a follow-up clean run
//!     produces bit-identical payloads;
//! (c) `inject.*` / `retry.*` telemetry totals are exact and identical
//!     in a one-device and in a two-device VM: injection
//!     decisions are derived from seeded hashes and virtual time, never
//!     wall clock.
//!
//! The sweep seed comes from `CHAOS_SEED` (see `make tier1`'s
//! fixed-seed matrix), so a failing seed reproduces with
//! `CHAOS_SEED=<n> cargo test --test chaos_suite`.

use std::sync::Arc;

use simkit::{ErrorKind, FaultPlan, FaultPlane, HasErrorKind};
use upmem_driver::UpmemDriver;
use upmem_sim::error::DpuFault;
use upmem_sim::kernel::{DpuKernel, KernelImage};
use upmem_sim::{DpuContext, PimConfig, PimMachine};
use vpim::{
    FaultSite, Pheap, PheapOptions, StartOpts, TenantSpec, VpimConfig, VpimSystem, VpimVm,
    PHEAP_PERSIST_DROP_POINT, PHEAP_WAL_TORN_POINT,
};

/// A kernel that always succeeds — DPU faults in this suite come from the
/// fault plane, not from kernel logic.
struct OkKernel;

impl DpuKernel for OkKernel {
    fn image(&self) -> KernelImage {
        KernelImage::new("chaos_ok", 1 << 10)
    }
    fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
        ctx.parallel(|t| {
            t.charge(10);
            Ok(())
        })
    }
}

/// Three ranks: a two-device VM plus the fresh VM a crash scenario
/// relaunches while the first one's ranks are still being recycled.
fn host() -> Arc<UpmemDriver> {
    let machine =
        PimMachine::new(PimConfig { ranks: 3, functional_dpus: vec![8; 3], ..PimConfig::small() });
    machine.register_kernel(Arc::new(OkKernel));
    Arc::new(UpmemDriver::new(machine))
}

/// The sweep seed: `CHAOS_SEED` when the gate's matrix sets it, a fixed
/// default otherwise. Everything downstream (probability plans, retry
/// jitter) is a pure function of this value.
fn sweep_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC4A0_5EED)
}

/// A system with injection enabled (seeded, nothing armed yet) and one
/// `devices`-device VM booted; scenarios drive its device 0. Scenarios arm
/// their point *after* launch so boot-time traffic (Configure round trips)
/// does not consume hits.
fn chaos_system(devices: usize, seed: u64) -> (VpimSystem, VpimVm, Arc<FaultPlane>) {
    let vcfg = VpimConfig::builder().batching(false).prefetch(false).inject_seed(seed).build();
    let sys = VpimSystem::start(host(), vcfg, StartOpts::default());
    let vm = sys.launch(TenantSpec::new("chaos").devices(devices)).unwrap();
    let plane = sys.fault_plane().expect("inject enabled").clone();
    (sys, vm, plane)
}

fn payload(dpu: u32, len: usize, salt: u64) -> Vec<u8> {
    (0..len)
        .map(|i| {
            let x = (u64::from(dpu) << 32) ^ (i as u64) ^ salt.wrapping_mul(0x9e37_79b9);
            (x.wrapping_mul(2_654_435_761) >> 16) as u8
        })
        .collect()
}

// ---------------------------------------------------------------- vmm layer

/// A dropped guest kick is retried by the frontend's `RetryPolicy`
/// (re-notify + re-kick) and recovers transparently with exact telemetry.
#[test]
fn dropped_kick_is_retried_transparently() {
    let seed = sweep_seed();
    let mut per_mode = Vec::new();
    for devices in [1, 2] {
        let (sys, vm, plane) = chaos_system(devices, seed);
        plane.arm(FaultSite::KickDrop.name(), FaultPlan::Nth(1));
        let fe = vm.frontend(0);
        let data = payload(0, 8192, seed);
        // The very next kick is dropped; the write must still land.
        fe.write_rank(&[(0, 0, &data)]).unwrap();
        let (out, _) = fe.read_rank(&[(0, 0, data.len() as u64)]).unwrap();
        assert_eq!(out[0], data, "devices={devices}");

        let stats = plane.point_stats(FaultSite::KickDrop.name()).unwrap();
        assert_eq!(stats.fired, 1, "devices={devices}: {stats:?}");
        let snap = sys.registry().snapshot();
        assert_eq!(snap.count("inject.fired"), 1);
        assert_eq!(snap.count("retry.attempts"), 1, "one re-kick");
        assert_eq!(snap.count("retry.giveups"), 0);
        assert_eq!(snap.level("virtio.queue.depth.rank0"), 0);
        per_mode.push((out, stats.fired, snap.count("retry.attempts")));
        drop(vm);
        sys.shutdown();
    }
    assert_eq!(per_mode[0], per_mode[1], "one- and two-device VMs must agree bit-for-bit");
}

/// Bytes of the given-up write in the two tests below: two data pages.
const GIVEN_UP_LEN: usize = 8192;

/// Writes `GIVEN_UP_LEN` bytes of 0xAA to DPU 0 with every kick dropped,
/// so the frontend gives the kick up. The bytes come from the slice
/// (staged) or from a guest buffer (pinned) that is dropped as soon as the
/// write returns; the chain's pages must outlive it.
fn give_up_a_write(vm: &VpimVm, plane: &FaultPlane, pinned: bool) {
    let fe = vm.frontend(0);
    let data = [0xAAu8; GIVEN_UP_LEN];
    plane.arm(FaultSite::KickDrop.name(), FaultPlan::EveryK(1));
    let given_up = if pinned {
        let buf = fe.alloc_buf(GIVEN_UP_LEN).unwrap();
        buf.write(0, &data).unwrap();
        fe.write_rank_pinned(&[(0, 0, &buf)])
    } else {
        fe.write_rank(&[(0, 0, &data[..])])
    };
    plane.disarm(FaultSite::KickDrop.name());
    let err = given_up.unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Injected, "{err}");
}

/// Whether every byte of `got` is `byte` (a short message otherwise).
fn all_bytes(got: &[u8], byte: u8) -> Result<(), String> {
    match got.iter().position(|&b| b != byte) {
        None if got.len() == GIVEN_UP_LEN => Ok(()),
        None => Err(format!("{} bytes", got.len())),
        Some(i) => Err(format!("byte {i} is {:#x}", got[i])),
    }
}

/// A given-up kick leaves its chain in the avail ring, and the device
/// runs it at the next kick, before that op's own chain. The given-up
/// write therefore lands late, on its own DPU and from its own pages: the
/// next op, a read of DPU 1, sees DPU 1's bytes, and DPU 0 then holds the
/// given-up write's bytes.
#[test]
fn a_given_up_write_lands_late_and_only_on_its_own_dpu() {
    let seed = sweep_seed();
    for devices in [1, 2] {
        for pinned in [false, true] {
            let ctx = format!("devices={devices} pinned={pinned}");
            let (sys, vm, plane) = chaos_system(devices, seed);
            let fe = vm.frontend(0);
            let (old, other) = ([0x11u8; GIVEN_UP_LEN], [0xBBu8; GIVEN_UP_LEN]);
            fe.write_rank(&[(0, 0, &old[..]), (1, 0, &other[..])]).unwrap();

            give_up_a_write(&vm, &plane, pinned);
            let (out, _) = fe.read_rank(&[(1, 0, GIVEN_UP_LEN as u64)]).unwrap();
            all_bytes(&out[0], 0xBB).unwrap_or_else(|e| panic!("{ctx}: DPU 1 read {e}"));
            let (out, _) = fe.read_rank(&[(0, 0, GIVEN_UP_LEN as u64)]).unwrap();
            all_bytes(&out[0], 0xAA).unwrap_or_else(|e| panic!("{ctx}: DPU 0 read {e}"));
            drop(vm);
            sys.shutdown();
        }
    }
}

/// A given-up chain keeps every page it names until the device has run
/// it: its request and status pages, its one matrix page and its two data
/// pages (for a pinned write, the dropped buffer's). Once the next op has
/// run it, guest memory and the queue depth are back where they were
/// before the failed write, and the give-up was counted once.
#[test]
fn a_given_up_chain_gives_its_pages_back_once_it_has_run() {
    let seed = sweep_seed();
    for devices in [1, 2] {
        for pinned in [false, true] {
            let ctx = format!("devices={devices} pinned={pinned}");
            let (sys, vm, plane) = chaos_system(devices, seed);
            let fe = vm.frontend(0);
            let mem = vm.vm().memory();
            let depth = || sys.registry().snapshot().level("virtio.queue.depth.rank0");
            let giveups = || sys.registry().snapshot().count("retry.giveups");
            let before = (mem.free_pages(), depth(), giveups());

            give_up_a_write(&vm, &plane, pinned);
            let held = (mem.free_pages(), depth(), giveups());
            assert_eq!(held, (before.0 - 5, before.1 + 1, before.2 + 1), "{ctx}: parked");

            fe.read_rank(&[(1, 0, GIVEN_UP_LEN as u64)]).unwrap();
            let after = (mem.free_pages(), depth(), giveups());
            assert_eq!(after, (before.0, before.1, before.2 + 1), "{ctx}: after it ran");
            drop(vm);
            sys.shutdown();
        }
    }
}

// --------------------------------------------------------- virtio memory

/// Injected guest-memory EIO either surfaces typed (`ErrorKind::Injected`)
/// or is absorbed by the status-page retry; firing totals match the plan
/// oracle exactly, and a post-disarm run is bit-identical to a clean one.
#[test]
fn transient_mem_eio_is_typed_and_the_system_stays_usable() {
    let seed = sweep_seed();
    let plan = FaultPlan::EveryK(7);
    let mut per_mode = Vec::new();
    for devices in [1, 2] {
        let (sys, vm, plane) = chaos_system(devices, seed);
        plane.arm(FaultSite::MemEio.name(), plan);
        let fe = vm.frontend(0);
        let mut typed_errors = 0u64;
        // Single-DPU ops only: one entry is one in-order page walk at any
        // data-pool width, so the access (= hit) sequence is fixed.
        for i in 0..6u64 {
            let data = payload(0, 2048, seed ^ i);
            match fe.write_rank(&[(0, i * 4096, &data)]) {
                Ok(_) => {}
                Err(e) => {
                    assert_eq!(e.kind(), ErrorKind::Injected, "untyped error: {e}");
                    typed_errors += 1;
                }
            }
            match fe.read_rank(&[(0, i * 4096, 2048)]) {
                Ok(_) => {}
                Err(e) => {
                    assert_eq!(e.kind(), ErrorKind::Injected, "untyped error: {e}");
                    typed_errors += 1;
                }
            }
        }
        let stats = plane.point_stats(FaultSite::MemEio.name()).unwrap();
        // Serial-counter point: the plan oracle predicts fired from hits.
        assert_eq!(
            stats.fired,
            plan.count_fires(seed, FaultSite::MemEio.name(), stats.hits),
            "devices={devices}: {stats:?}"
        );
        assert!(stats.fired > 0, "EveryK(7) over {} hits must fire", stats.hits);

        // (b) usable afterwards, bit-identical clean run.
        plane.disarm(FaultSite::MemEio.name());
        let data = payload(0, 4096, !seed);
        fe.write_rank(&[(0, 0, &data)]).unwrap();
        let (out, _) = fe.read_rank(&[(0, 0, data.len() as u64)]).unwrap();
        assert_eq!(out[0], data);
        let snap = sys.registry().snapshot();
        assert_eq!(snap.level("virtio.queue.depth.rank0"), 0);
        assert_eq!(snap.level("datapath.pool.outstanding"), 0);
        per_mode.push((out, stats.hits, stats.fired, typed_errors));
        drop(vm);
        sys.shutdown();
    }
    assert_eq!(per_mode[0], per_mode[1], "one- and two-device VMs must agree");
}

/// Ring entries, matrix records and the guest's buffer fill are read and
/// written under one borrow of guest RAM per chain or matrix, and consult
/// no fault point. With `virtio.mem.eio` and `backend.chunk.torn_write`
/// armed, a 64-entry write and a 64-entry read hit them exactly as a
/// per-page reference walk predicts — `virtio.mem.eio` once for the
/// request decode, once per data page (backend walk, then a read's
/// guest-side gather) and once for the status read; the torn point once
/// per written entry — and a fired point fails the entry that walk names.
#[test]
fn one_borrow_paths_keep_the_per_page_fault_schedule() {
    const ENTRIES: usize = 64;
    const LEN: usize = 64;
    let (eio, torn) = (FaultSite::MemEio.name(), FaultSite::ChunkTornWrite.name());
    let seed = sweep_seed();
    for devices in [1, 2] {
        let (sys, vm, plane) = chaos_system(devices, seed);
        let fe = vm.frontend(0);
        // One page per entry; the host's 8 DPUs take eight entries each.
        let at = |i: usize| ((i % 8) as u32, (i / 8) as u64 * 4096);
        let reads: Vec<(u32, u64, u64)> =
            (0..ENTRIES).map(|i| (at(i).0, at(i).1, LEN as u64)).collect();
        let fill = |salt: u64| -> Vec<Vec<u8>> {
            (0..ENTRIES).map(|i| payload(i as u32, LEN, seed ^ salt)).collect()
        };
        let write = |datas: &[Vec<u8>]| {
            let writes: Vec<(u32, u64, &[u8])> =
                datas.iter().enumerate().map(|(i, d)| (at(i).0, at(i).1, d.as_slice())).collect();
            fe.write_rank(&writes)
        };
        let hits = |point: &str| plane.point_stats(point).expect("armed").hits;
        let arm = |eio_nth: u64, torn_nth: u64| {
            plane.arm(eio, FaultPlan::Nth(eio_nth));
            plane.arm(torn, FaultPlan::Nth(torn_nth));
        };
        let read_back = || {
            plane.disarm(eio);
            plane.disarm(torn);
            fe.read_rank(&reads).unwrap().0
        };
        const NEVER: u64 = 1 << 20;

        // Armed, nothing firing: the reference counts exactly.
        let mut mram = fill(1);
        arm(NEVER, NEVER);
        write(&mram).unwrap();
        assert_eq!(hits(eio), 1 + ENTRIES as u64 + 1, "devices={devices}: write");
        assert_eq!(hits(torn), ENTRIES as u64, "devices={devices}: write");
        arm(NEVER, NEVER);
        assert_eq!(fe.read_rank(&reads).unwrap().0, mram);
        assert_eq!(hits(eio), 1 + 2 * ENTRIES as u64 + 1, "devices={devices}: read");
        assert_eq!(hits(torn), 0, "devices={devices}: read");

        // `virtio.mem.eio` fires on entry 37's page: the walk stops there,
        // so entries before it landed and the rest did not.
        let failing = 37;
        let next = fill(2);
        arm(1 + failing as u64 + 1, NEVER);
        let err = write(&next).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Injected, "{err}");
        assert_eq!(hits(eio), 1 + failing as u64 + 1 + 1, "devices={devices}");
        assert_eq!(hits(torn), failing as u64 + 1, "devices={devices}");
        mram[..failing].clone_from_slice(&next[..failing]);
        assert_eq!(read_back(), mram, "devices={devices}: entries before {failing} only");

        // The torn point fires on entry 21: its first half lands too.
        let failing = 21;
        let next = fill(3);
        arm(NEVER, failing as u64 + 1);
        let err = write(&next).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Injected, "{err}");
        assert_eq!(hits(eio), 1 + failing as u64 + 1 + 1, "devices={devices}");
        assert_eq!(hits(torn), failing as u64 + 1, "devices={devices}");
        mram[..failing].clone_from_slice(&next[..failing]);
        mram[failing][..LEN / 2].copy_from_slice(&next[failing][..LEN / 2]);
        assert_eq!(read_back(), mram, "devices={devices}: entry {failing} torn");

        let snap = sys.registry().snapshot();
        assert_eq!(snap.level("virtio.queue.depth.rank0"), 0);
        drop(vm);
        sys.shutdown();
    }
}

// --------------------------------------------------------- backend chunks

/// A torn per-DPU chunk write surfaces typed, lands exactly its prefix on
/// the DPU whose key fired, balances the scratch pool, and a clean rewrite
/// fully heals the torn range.
#[test]
fn torn_chunk_write_is_typed_and_heals_on_rewrite() {
    let seed = sweep_seed();
    let plan = FaultPlan::Nth(2); // fires for entry key 1 of each request
    let mut per_mode = Vec::new();
    for devices in [1, 2] {
        let (sys, vm, plane) = chaos_system(devices, seed);
        plane.arm(FaultSite::ChunkTornWrite.name(), plan);
        let fe = vm.frontend(0);
        let datas: Vec<Vec<u8>> = (0..4).map(|d| payload(d, 8192, seed)).collect();
        let writes: Vec<(u32, u64, &[u8])> =
            datas.iter().enumerate().map(|(d, v)| (d as u32, 0, v.as_slice())).collect();
        let err = fe.write_rank(&writes).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Injected, "{err}");

        let stats = plane.point_stats(FaultSite::ChunkTornWrite.name()).unwrap();
        // Keyed point: entries are consulted with their own index and
        // exactly the plan's key (1) fires. Entries 0 and 1 are always
        // consulted; whether 2 and 3 are depends on how many chunks the
        // host's data pool cut the matrix into (a chunk stops at its first
        // error), as does which of them landed.
        assert!((2..=4).contains(&stats.hits), "devices={devices}: {stats:?}");
        assert_eq!(stats.fired, 1, "devices={devices}: {stats:?}");

        // Entry 1 (DPU 1) tore: its first (8192 / 2) & !7 = 4096 bytes
        // landed, the rest of the fresh bank still reads zero.
        let (torn, _) = fe.read_rank(&[(1, 0, 8192)]).unwrap();
        assert_eq!(&torn[0][..4096], &datas[1][..4096], "devices={devices}: torn prefix");
        assert!(torn[0][4096..].iter().all(|b| *b == 0), "devices={devices}: torn tail");

        // Same keys re-fire on retry by design: recovery is disarm (or a
        // plan that expires), then rewrite.
        plane.disarm(FaultSite::ChunkTornWrite.name());
        fe.write_rank(&writes).unwrap();
        let reads: Vec<(u32, u64, u64)> = (0..4).map(|d| (d, 0, 8192)).collect();
        let (outs, _) = fe.read_rank(&reads).unwrap();
        for (d, out) in outs.iter().enumerate() {
            assert_eq!(out, &datas[d], "dpu {d}: torn range must be healed");
        }
        let snap = sys.registry().snapshot();
        assert_eq!(snap.level("datapath.pool.outstanding"), 0, "pool drop-balance");
        assert_eq!(snap.level("virtio.queue.depth.rank0"), 0);
        per_mode.push((outs, stats.hits, stats.fired));
        drop(vm);
        sys.shutdown();
    }
    assert_eq!(per_mode[0], per_mode[1]);
}

/// A stalled chunk worker is invisible in virtual time: payloads *and*
/// the op's virtual-time report are bit-identical to an unstalled run.
#[test]
fn stalled_chunk_worker_does_not_perturb_virtual_time() {
    let seed = sweep_seed();
    // Reference: no faults armed.
    let (ref_sys, ref_vm, _plane) = chaos_system(1, seed);
    let fe = ref_vm.frontend(0);
    let datas: Vec<Vec<u8>> = (0..4).map(|d| payload(d, 8192, seed)).collect();
    let writes: Vec<(u32, u64, &[u8])> =
        datas.iter().enumerate().map(|(d, v)| (d as u32, 0, v.as_slice())).collect();
    let ref_report = fe.write_rank(&writes).unwrap();
    let reads: Vec<(u32, u64, u64)> = (0..4).map(|d| (d, 0, 8192)).collect();
    let (ref_outs, _) = fe.read_rank(&reads).unwrap();
    drop(ref_vm);
    ref_sys.shutdown();

    // Stalled: every chunk worker sleeps ~2 ms of wall time.
    let (sys, vm, plane) = chaos_system(1, seed);
    plane.arm(FaultSite::ChunkStall.name(), FaultPlan::EveryK(1));
    let fe = vm.frontend(0);
    let report = fe.write_rank(&writes).unwrap();
    let (outs, _) = fe.read_rank(&reads).unwrap();
    assert_eq!(outs, ref_outs, "payloads diverged");
    assert_eq!(
        report.duration(),
        ref_report.duration(),
        "wall stalls must not leak into virtual time"
    );
    let stats = plane.point_stats(FaultSite::ChunkStall.name()).unwrap();
    assert_eq!(stats.fired, stats.hits, "EveryK(1) fires on every hit");
    assert_eq!(stats.hits, 8, "4 write entries + 4 read entries");
    drop(vm);
    sys.shutdown();
}

// ------------------------------------------------------------- sim layer

/// Injected CI-word failures surface typed through the whole transport and
/// pass once the plan expires.
#[test]
fn injected_ci_op_fault_is_typed_and_passes_after_the_plan() {
    let seed = sweep_seed();
    let (sys, vm, plane) = chaos_system(1, seed);
    plane.arm(FaultSite::CiOp.name(), FaultPlan::Nth(1));
    let fe = vm.frontend(0);
    let err = fe.poll_status(0).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Injected, "{err}");
    // Nth(1) has fired; the very next CI op is clean.
    let (_status, _) = fe.poll_status(0).unwrap();
    let stats = plane.point_stats(FaultSite::CiOp.name()).unwrap();
    assert_eq!((stats.hits, stats.fired), (2, 1));
    drop(vm);
    sys.shutdown();
}

/// Injected MRAM DMA failures are keyed by DPU: the plan's DPU fails
/// deterministically (retries with the same key re-fire), other DPUs are
/// untouched, and disarming fully restores the failed DPU.
#[test]
fn injected_mram_dma_fault_is_per_dpu_deterministic() {
    let seed = sweep_seed();
    let (sys, vm, plane) = chaos_system(1, seed);
    plane.arm(FaultSite::MramDma.name(), FaultPlan::Nth(1)); // key 0 = dpu 0
    let fe = vm.frontend(0);
    let data = payload(0, 4096, seed);
    // DPU 0 fails, typed…
    let err = fe.write_rank(&[(0, 0, &data)]).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Injected, "{err}");
    // …and fails again on retry: keyed decisions are pure in the key.
    let err = fe.write_rank(&[(0, 0, &data)]).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Injected, "{err}");
    // Other DPUs are untouched.
    let other = payload(2, 4096, seed);
    fe.write_rank(&[(2, 0, &other)]).unwrap();
    let (out, _) = fe.read_rank(&[(2, 0, other.len() as u64)]).unwrap();
    assert_eq!(out[0], other);
    // Disarm: DPU 0 heals completely.
    plane.disarm(FaultSite::MramDma.name());
    fe.write_rank(&[(0, 0, &data)]).unwrap();
    let (out, _) = fe.read_rank(&[(0, 0, data.len() as u64)]).unwrap();
    assert_eq!(out[0], data);
    drop(vm);
    sys.shutdown();
}

/// An injected launch fault surfaces as a DPU fault (the paper's §3.4
/// fault path), names its fault point, and the next launch succeeds.
#[test]
fn injected_launch_fault_surfaces_as_a_dpu_fault() {
    let seed = sweep_seed();
    let (sys, vm, plane) = chaos_system(1, seed);
    let fe = vm.frontend(0);
    let dpus: Vec<u32> = (0..4).collect();
    fe.load_program("chaos_ok", &dpus).unwrap();
    plane.arm(FaultSite::LaunchFault.name(), FaultPlan::Nth(1));
    let err = fe.launch(&dpus, 4).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Fault, "{err}");
    assert!(err.to_string().contains("sim.launch.fault"), "{err}");
    // Nth(1) expired: the relaunch is clean.
    fe.launch(&dpus, 4).unwrap();
    let stats = plane.point_stats(FaultSite::LaunchFault.name()).unwrap();
    assert_eq!((stats.hits, stats.fired), (2, 1));
    drop(vm);
    sys.shutdown();
}

// ----------------------------------------------------------- manager layer

/// A transient manager RPC failure during rank allocation is absorbed by
/// the scheduler's retry policy: the VM still links, with exact `retry.*`
/// accounting and the backoff charged to virtual wait time.
#[test]
fn transient_manager_rpc_is_retried_during_linking() {
    let seed = sweep_seed();
    let mut per_mode = Vec::new();
    for devices in [1, 2] {
        let vcfg = VpimConfig::builder()
            .batching(false)
            .prefetch(false)
            .inject_seed(seed)
            .inject_fault(FaultSite::ManagerRpc, FaultPlan::Nth(1))
            .build();
        let sys = VpimSystem::start(host(), vcfg, StartOpts::default());
        // The very first alloc RPC fails injected; the retry links anyway,
        // and a second device links without a retry.
        let vm = sys.launch(TenantSpec::new("chaos").devices(devices)).unwrap();
        let fe = vm.frontend(0);
        let data = payload(0, 4096, seed);
        fe.write_rank(&[(0, 0, &data)]).unwrap();
        let (out, _) = fe.read_rank(&[(0, 0, data.len() as u64)]).unwrap();
        assert_eq!(out[0], data);

        let plane = sys.fault_plane().unwrap();
        let stats = plane.point_stats(FaultSite::ManagerRpc.name()).unwrap();
        assert_eq!(stats.fired, 1, "devices={devices}: {stats:?}");
        let snap = sys.registry().snapshot();
        assert_eq!(snap.count("retry.attempts"), 1);
        assert_eq!(snap.count("retry.giveups"), 0);
        assert!(
            snap.count("retry.backoff_vt") > 0 || snap.get("retry.backoff_vt").is_some(),
            "backoff was charged: {snap:?}"
        );
        per_mode.push((out, stats.fired, snap.count("retry.attempts")));
        drop(vm);
        sys.shutdown();
    }
    assert_eq!(per_mode[0], per_mode[1]);
}

/// Exhausting the retry budget on a persistent manager fault gives up with
/// a typed error and exact giveup accounting — graceful degradation, not a
/// hang.
#[test]
fn persistent_manager_fault_gives_up_typed() {
    let seed = sweep_seed();
    let vcfg = VpimConfig::builder()
        .batching(false)
        .prefetch(false)
        .inject_seed(seed)
        .inject_fault(FaultSite::ManagerRpc, FaultPlan::EveryK(1))
        .build();
    let sys = VpimSystem::start(host(), vcfg, StartOpts::default());
    let err = sys.launch(TenantSpec::new("chaos")).unwrap_err();
    // The injected kind survives the virtio crossing (Remote) or surfaces
    // directly, depending on where linking failed.
    assert_eq!(err.kind(), ErrorKind::Injected, "{err}");
    let snap = sys.registry().snapshot();
    assert_eq!(snap.count("retry.giveups"), 1, "{snap:?}");
    assert_eq!(snap.count("retry.attempts"), 3, "4 attempts = 3 retries");
    sys.shutdown();
}

// ------------------------------------------------------------ storm sweep

/// Probability storm: every storm-safe fault point armed at once with a
/// seeded per-mille plan. Every failure must be typed; firing totals must
/// match the seeded oracle exactly; and after `disarm_all` the system runs
/// clean with bit-identical payloads.
#[test]
fn seeded_probability_storm_only_ever_fails_typed() {
    let seed = sweep_seed();
    let plan = FaultPlan::Probability { permille: 20 };
    // Serial-counter points, whose firing totals the oracle predicts from
    // the hit count alone (keyed points repeat caller keys across requests
    // and are covered by their dedicated scenarios above).
    let points = [
        FaultSite::KickDrop,
        FaultSite::MemEio,
        FaultSite::CiOp,
        FaultSite::ManagerRpc,
    ];
    let (sys, vm, plane) = chaos_system(1, seed);
    for p in points {
        plane.arm(p.name(), plan);
    }
    let fe = vm.frontend(0);
    let mut failures = 0u64;
    for i in 0..12u64 {
        let data = payload(0, 2048, seed ^ i);
        match fe.write_rank(&[(0, (i % 4) * 4096, &data)]) {
            Ok(_) => {}
            Err(e) => {
                assert_eq!(e.kind(), ErrorKind::Injected, "untyped storm error: {e}");
                failures += 1;
            }
        }
        match fe.read_rank(&[(0, (i % 4) * 4096, 2048)]) {
            Ok(_) => {}
            Err(e) => {
                assert_eq!(e.kind(), ErrorKind::Injected, "untyped storm error: {e}");
                failures += 1;
            }
        }
    }
    for p in points {
        let stats = plane.point_stats(p.name()).unwrap();
        assert_eq!(
            stats.fired,
            plan.count_fires(seed, p.name(), stats.hits),
            "point {}: {stats:?}",
            p.name()
        );
        assert_eq!(stats.hits, stats.fired + stats.suppressed, "{stats:?}");
    }
    // (b) after the storm: disarm everything, clean bit-identical run.
    plane.disarm_all();
    let data = payload(0, 8192, !seed);
    fe.write_rank(&[(0, 0, &data)]).unwrap();
    let (out, _) = fe.read_rank(&[(0, 0, data.len() as u64)]).unwrap();
    assert_eq!(out[0], data, "after {failures} storm failures");
    let snap = sys.registry().snapshot();
    assert_eq!(snap.level("virtio.queue.depth.rank0"), 0);
    assert_eq!(snap.level("datapath.pool.outstanding"), 0);
    drop(vm);
    sys.shutdown();
}

/// Injection disabled (the default) is a zero-overhead passthrough: no
/// plane exists, no `inject.*` metrics appear, and behavior is identical
/// to a plain run.
#[test]
fn disabled_injection_is_pure_passthrough() {
    let sys = VpimSystem::start(host(), VpimConfig::full(), StartOpts::default());
    assert!(sys.fault_plane().is_none());
    let vm = sys.launch(TenantSpec::new("plain")).unwrap();
    let fe = vm.frontend(0);
    let data = payload(0, 4096, 7);
    fe.write_rank(&[(0, 0, &data)]).unwrap();
    let (out, _) = fe.read_rank(&[(0, 0, data.len() as u64)]).unwrap();
    assert_eq!(out[0], data);
    let snap = sys.registry().snapshot();
    assert_eq!(snap.count("inject.fired"), 0);
    assert_eq!(snap.count("retry.attempts"), 0);
    drop(vm);
    sys.shutdown();
}

// ------------------------------------------------------- persistent heap

/// Pheap geometry that fits `PimConfig::small()`'s 1 MiB banks.
fn pheap_opts(sys: &VpimSystem) -> PheapOptions {
    PheapOptions::new()
        .base(64 << 10)
        .wal_size(16 << 10)
        .root_size(8 << 10)
        .data_size(64 << 10)
        .resident_budget(8 << 10)
        .attach(sys)
}

/// A torn WAL append surfaces typed, the `inject.*` totals are exact
/// (persist attempts are keyed by sequence number, so `Nth(2)` spares
/// the first persist and tears the second), and recovery discards the
/// torn tail — the committed payload survives bit-identically with one
/// device or two.
#[test]
fn torn_pheap_wal_append_is_typed_and_recovery_discards_the_tail() {
    let seed = sweep_seed();
    let plan = FaultPlan::Nth(2);
    let mut per_mode = Vec::new();
    for devices in [1, 2] {
        let (sys, vm, plane) = chaos_system(devices, seed);
        let mut heap = Pheap::format(vm.frontend(0).clone(), pheap_opts(&sys)).unwrap();
        plane.arm(PHEAP_WAL_TORN_POINT, plan);

        let a = heap.alloc(512).unwrap();
        heap.write(a, 0, &payload(0, 512, seed)).unwrap();
        heap.persist().unwrap(); // seq 1 → key 0: spared by Nth(2)
        heap.write(a, 0, &payload(0, 512, !seed)).unwrap();
        let err = heap.persist().unwrap_err(); // seq 2 → key 1: torn
        assert_eq!(err.kind(), ErrorKind::Injected, "untyped error: {err}");

        let stats = plane.point_stats(PHEAP_WAL_TORN_POINT).unwrap();
        assert_eq!((stats.hits, stats.fired), (2, 1), "devices={devices}");
        assert_eq!(stats.fired, plan.count_fires(seed, PHEAP_WAL_TORN_POINT, stats.hits));
        let snap = sys.registry().snapshot();
        assert_eq!(snap.count("inject.fired"), 1);
        assert_eq!(snap.count("pheap.persist.failures"), 1);

        // Crash here: recovery must discard the torn tail and come back
        // at the first persist, with zero leakage of the second write.
        plane.disarm_all();
        drop(heap);
        let (mut rec, report) =
            Pheap::recover(vm.frontend(0).clone(), pheap_opts(&sys)).unwrap();
        assert!(report.discarded_tail, "{report:?}");
        assert!(!report.replayed, "{report:?}");
        assert_eq!(report.applied_seq, 1);
        let got = rec.read(a, 0, 512).unwrap();
        assert_eq!(got, payload(0, 512, seed), "uncommitted write leaked");
        per_mode.push((got, stats.hits, stats.fired));
        drop(rec);
        drop(vm);
        sys.shutdown();
    }
    assert_eq!(per_mode[0], per_mode[1], "one- and two-device VMs must agree bit-for-bit");
}

/// A dropped commit record leaves a *fully written* transaction body that
/// recovery must still discard: durability begins at the commit record,
/// not at the append.
#[test]
fn dropped_pheap_commit_discards_a_fully_written_body() {
    let seed = sweep_seed();
    let plan = FaultPlan::Nth(2);
    let mut per_mode = Vec::new();
    for devices in [1, 2] {
        let (sys, vm, plane) = chaos_system(devices, seed);
        let mut heap = Pheap::format(vm.frontend(0).clone(), pheap_opts(&sys)).unwrap();
        plane.arm(PHEAP_PERSIST_DROP_POINT, plan);

        let a = heap.alloc(768).unwrap();
        heap.write(a, 0, &payload(1, 768, seed)).unwrap();
        heap.persist().unwrap(); // seq 1 → key 0: spared
        let b = heap.alloc(64).unwrap(); // born after the commit point
        heap.write(a, 256, &payload(2, 256, seed)).unwrap();
        heap.write(b, 0, &payload(3, 64, seed)).unwrap();
        let err = heap.persist().unwrap_err(); // seq 2 → key 1: commit dropped
        assert_eq!(err.kind(), ErrorKind::Injected, "untyped error: {err}");

        let stats = plane.point_stats(PHEAP_PERSIST_DROP_POINT).unwrap();
        assert_eq!((stats.hits, stats.fired), (2, 1), "devices={devices}");
        assert_eq!(
            stats.fired,
            plan.count_fires(seed, PHEAP_PERSIST_DROP_POINT, stats.hits)
        );
        assert_eq!(sys.registry().snapshot().count("inject.fired"), 1);

        plane.disarm_all();
        drop(heap);
        let (mut rec, report) =
            Pheap::recover(vm.frontend(0).clone(), pheap_opts(&sys)).unwrap();
        assert!(report.discarded_tail && !report.replayed, "{report:?}");
        assert_eq!(report.applied_seq, 1);
        // Object `a` is exactly at persist #1; `b` was allocated after
        // that commit point, so recovery must not know it at all.
        assert_eq!(rec.read(a, 0, 768).unwrap(), payload(1, 768, seed));
        assert!(rec.read(b, 0, 64).is_err(), "uncommitted alloc leaked");
        per_mode.push((rec.ids(), stats.hits, stats.fired));
        drop(rec);
        drop(vm);
        sys.shutdown();
    }
    assert_eq!(per_mode[0], per_mode[1], "one- and two-device VMs must agree bit-for-bit");
}

/// The 8-seed crash matrix (derived from `CHAOS_SEED` like the gate's
/// fixed-seed sweep): each seed picks a fault site and schedule, runs a
/// deterministic write/persist stream until the injected crash, kills
/// the VM via rank snapshot, restores into a fresh VM, and recovers.
/// The recovered heap must equal the committed prefix bit-for-bit, with
/// exact injection totals, identically with one device and with two.
#[test]
fn pheap_crash_matrix_recovers_committed_state_across_seeds() {
    let base = sweep_seed();
    for k in 0..8u64 {
        let seed = base ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let site = if seed & 1 == 0 { PHEAP_WAL_TORN_POINT } else { PHEAP_PERSIST_DROP_POINT };
        let plan = FaultPlan::Nth(1 + seed % 4);
        let mut per_mode = Vec::new();
        for devices in [1, 2] {
            let (sys, vm, plane) = chaos_system(devices, seed);
            let mut heap = Pheap::format(vm.frontend(0).clone(), pheap_opts(&sys)).unwrap();
            let a = heap.alloc(512).unwrap();
            let b = heap.alloc(512).unwrap();
            plane.arm(site, plan);

            // Committed-prefix oracle: updated only when persist returns Ok.
            let mut committed: Option<u64> = None; // last committed round
            let mut crashed_at = None;
            let mut persists = 0u64;
            for round in 0..6u64 {
                heap.write(a, 0, &payload(0, 512, seed ^ round)).unwrap();
                heap.write(b, 0, &payload(1, 512, !seed ^ round)).unwrap();
                match heap.persist() {
                    Ok(_) => {
                        committed = Some(round);
                        persists += 1;
                    }
                    Err(e) => {
                        assert_eq!(e.kind(), ErrorKind::Injected, "untyped error: {e}");
                        crashed_at = Some(round);
                        break;
                    }
                }
            }
            let crashed_at = crashed_at.expect("Nth(1..=4) fires within 6 persists");
            let stats = plane.point_stats(site).unwrap();
            assert_eq!((stats.hits, stats.fired), (persists + 1, 1), "seed {seed:#x}");
            assert_eq!(stats.fired, plan.count_fires(seed, site, stats.hits));

            // Kill-at-site: snapshot before the manager can reset the rank.
            let expected_seq = heap.applied_seq();
            let rid = vm.devices()[0].backend().linked_rank().unwrap();
            let snap = sys.driver().machine().rank(rid).unwrap().snapshot();
            drop(heap);
            drop(vm);
            plane.disarm_all();

            let vm2 = sys.launch(TenantSpec::new("chaos")).unwrap();
            let rid2 = vm2.devices()[0].backend().linked_rank().unwrap();
            sys.driver().machine().rank(rid2).unwrap().restore(&snap).unwrap();
            let (mut rec, report) =
                Pheap::recover(vm2.frontend(0).clone(), pheap_opts(&sys)).unwrap();
            assert_eq!(report.applied_seq, expected_seq, "seed {seed:#x}");
            assert!(report.discarded_tail, "seed {seed:#x}: {report:?}");
            rec.check_invariants().unwrap();
            let got = match committed {
                Some(r) => {
                    let ga = rec.read(a, 0, 512).unwrap();
                    let gb = rec.read(b, 0, 512).unwrap();
                    assert_eq!(ga, payload(0, 512, seed ^ r), "seed {seed:#x}");
                    assert_eq!(gb, payload(1, 512, !seed ^ r), "seed {seed:#x}");
                    Some((ga, gb))
                }
                // Crash on the very first persist: the allocs were never
                // committed, so recovery must not know the objects at all.
                None => {
                    assert_eq!(rec.object_count(), 0, "seed {seed:#x}: allocs leaked");
                    None
                }
            };
            per_mode.push((got, crashed_at, stats.hits, stats.fired, report));
            drop(rec);
            drop(vm2);
            sys.shutdown();
        }
        assert_eq!(per_mode[0], per_mode[1], "seed {seed:#x}: modes diverged");
    }
}
