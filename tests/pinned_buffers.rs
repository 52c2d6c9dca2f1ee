//! Pinned transfer buffers: a push from buffers the application filled in
//! guest RAM (`XferBuf` / `GuestBuf`) differs from the same push from
//! `Vec`s only in how the frontend builds its matrix.
//!
//! * *The model cannot see the buffer kind.* Whole timelines, every
//!   registry metric and the MRAM bytes are identical, on the bulk path,
//!   the batch path, with a batch pending and across two channels.
//! * *Lifetime.* A transfer in flight keeps the pages of a buffer the
//!   application dropped; every page comes back once it finishes, also
//!   when a fault tears the write, and the typed error is the `Vec`
//!   path's.
//! * *Fallback.* A buffer the guest cannot hold is host memory, pushed
//!   through the staging path and its backpressure, with no setting to
//!   choose it.
//! * *Broadcast.* One buffer sent to every DPU looks to the model exactly
//!   like one equal `Vec` per DPU, natively and in a VM, from guest or
//!   host memory, and a broadcast in flight keeps the pages of the one
//!   buffer the application dropped.

use std::sync::Arc;

use microbench::checksum::Checksum;
use simkit::{CostModel, FaultPlan, MetricValue, Timeline};
use upmem_driver::UpmemDriver;
use upmem_sdk::DpuSet;
use upmem_sim::{PimConfig, PimMachine};
use vpim::{
    FaultSite, GuestBuf, StartOpts, TenantSpec, VpimConfig, VpimError, VpimSystem, VpimVm,
};

fn host(ranks: usize, dpus_per_rank: usize, mram_size: u64) -> Arc<UpmemDriver> {
    let machine = PimMachine::new(PimConfig {
        ranks,
        functional_dpus: vec![dpus_per_rank; ranks],
        mram_size,
        ..PimConfig::small()
    });
    Checksum::register(&machine);
    Arc::new(UpmemDriver::new(machine))
}

fn pattern(seed: u32, len: usize) -> Vec<u8> {
    (0..len).map(|i| (seed.wrapping_mul(48271).wrapping_add(i as u32) >> 5) as u8).collect()
}

/// Where a script's push takes its bytes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Vecs,
    XferBufs,
}

/// Pushes `datas[i]` to DPU `i` at `offset`, from `source`. Transfer
/// buffers come from `alloc_xfer_bufs` when every length is the same and
/// from `alloc_xfer_buf` otherwise; on a roomy guest both are guest RAM.
fn push(set: &mut DpuSet, source: Source, offset: u64, datas: &[Vec<u8>]) {
    match source {
        Source::Vecs => set.push_to_heap(offset, datas).unwrap(),
        Source::XferBufs => {
            let uniform = datas.windows(2).all(|w| w[0].len() == w[1].len());
            let mut bufs = if uniform {
                set.alloc_xfer_bufs(datas[0].len())
            } else {
                datas.iter().map(|d| set.alloc_xfer_buf(d.len())).collect()
            };
            for (buf, data) in bufs.iter_mut().zip(datas) {
                assert!(buf.is_guest(), "a roomy guest holds the buffer");
                buf.write(0, data).unwrap();
            }
            set.push_bufs_to_heap(offset, &bufs).unwrap();
        }
    }
}

/// What a script shows the model: the set's whole timeline, every
/// registry metric but the host's scratch-pool counters (whose hits depend
/// on thread timing), and the bytes it reads back.
type Seen = (Timeline, Vec<(String, MetricValue)>, Vec<Vec<u8>>);

/// Runs `script` on a fresh host with one `devices`-device VM and a set
/// over every DPU, and returns what it showed the model.
fn observe(
    ranks: usize,
    dpus_per_rank: usize,
    devices: usize,
    script: impl Fn(&mut DpuSet, &VpimVm) -> Vec<Vec<u8>>,
) -> Seen {
    let sys = VpimSystem::start(
        host(ranks, dpus_per_rank, 1 << 20),
        VpimConfig::full(),
        StartOpts::default(),
    );
    let vm = sys.launch(TenantSpec::new("pin").devices(devices)).unwrap();
    let mut set =
        DpuSet::alloc_vm(vm.frontends(), devices * dpus_per_rank, CostModel::default()).unwrap();
    let back = script(&mut set, &vm);
    let timeline = set.take_timeline();
    drop(set);
    let snap = sys.registry().snapshot();
    let metrics = snap
        .iter()
        .filter(|(name, _)| !name.starts_with("datapath.pool."))
        .map(|(name, v)| (name.to_string(), v.clone()))
        .collect();
    drop(vm);
    sys.shutdown();
    (timeline, metrics, back)
}

/// Runs `script` once per source and checks the model saw the same thing.
fn assert_blind(
    what: &str,
    (ranks, dpus_per_rank, devices): (usize, usize, usize),
    script: impl Fn(&mut DpuSet, Source) -> Vec<Vec<u8>>,
) {
    let vecs = observe(ranks, dpus_per_rank, devices, |set, _| script(set, Source::Vecs));
    let bufs = observe(ranks, dpus_per_rank, devices, |set, _| script(set, Source::XferBufs));
    assert_eq!(vecs.0, bufs.0, "{what}: whole timeline");
    assert_eq!(vecs.1, bufs.1, "{what}: registry");
    assert_eq!(vecs.2, bufs.2, "{what}: MRAM bytes read back");
    assert!(vecs.0.rank_ops() > 0, "{what}: the script moved data");
}

#[test]
fn bulk_push_of_60_x_512_kib_looks_the_same_from_either_source() {
    let datas: Vec<Vec<u8>> = (0..60).map(|d| pattern(d, 512 << 10)).collect();
    assert_blind("60 x 512 KiB", (1, 60, 1), |set, source| {
        push(set, source, 0, &datas);
        let back = set.push_from_heap(0, 512 << 10).unwrap();
        assert_eq!(back, datas);
        back
    });
}

#[test]
fn batched_push_of_64_x_16_b_looks_the_same_from_either_source() {
    let datas: Vec<Vec<u8>> = (0..64).map(|d| pattern(d, 16)).collect();
    assert_blind("64 x 16 B", (1, 64, 1), |set, source| {
        push(set, source, 256, &datas);
        // Reading flushes the batch the push was absorbed into.
        let back = set.push_from_heap(256, 16).unwrap();
        assert_eq!(back, datas);
        back
    });
}

#[test]
fn a_push_with_a_batch_pending_looks_the_same_from_either_source() {
    let small: Vec<Vec<u8>> = (0..8).map(|d| pattern(d + 100, 40)).collect();
    // Mixed lengths, none small: `alloc_xfer_buf` one buffer at a time.
    let large: Vec<Vec<u8>> = (0..8).map(|d| pattern(d, 6000 + 700 * d as usize)).collect();
    assert_blind("batch pending", (1, 8, 1), |set, source| {
        set.copy_to_heap(3, 0, &[7; 100]).unwrap();
        // A small pinned push joins the pending batch...
        push(set, source, 128, &small);
        set.copy_to_heap(5, 64, &[9; 32]).unwrap();
        // ...and a large one flushes it first.
        push(set, source, 4096, &large);
        let mut back = set.push_from_heap(0, 256).unwrap();
        for (d, data) in large.iter().enumerate() {
            let got = set.copy_from_heap(d, 4096, data.len()).unwrap();
            assert_eq!(&got, data);
            back.push(got);
        }
        back
    });
}

#[test]
fn a_two_channel_push_looks_the_same_from_either_source() {
    let datas: Vec<Vec<u8>> = (0..16).map(|d| pattern(d, 20_000)).collect();
    assert_blind("two channels", (2, 8, 2), |set, source| {
        push(set, source, 0, &datas);
        let back = set.push_from_heap(0, 20_000).unwrap();
        assert_eq!(back, datas);
        back
    });
}

#[test]
fn checksum_agrees_natively_and_in_a_vm_on_guest_buffers() {
    let driver = host(1, 60, 1 << 20);
    let native = {
        let mut set = DpuSet::alloc_native(&driver, 60, CostModel::default()).unwrap();
        Checksum::run(&mut set, 64 << 10, 11).unwrap()
    };
    let sys = VpimSystem::start(driver, VpimConfig::full(), StartOpts::default());
    let vm = sys.launch(TenantSpec::new("ck")).unwrap();
    let mut set = DpuSet::alloc_vm(vm.frontends(), 60, CostModel::default()).unwrap();
    assert!(set.alloc_broadcast_buf(64 << 10).is_guest());
    let before = vm.vm().memory().free_pages();
    let virt = Checksum::run(&mut set, 64 << 10, 11).unwrap();
    assert!(native.verified && virt.verified);
    assert_eq!(virt.value, native.value);
    assert_eq!(vm.vm().memory().free_pages(), before, "the run's buffers are returned");
    drop(set);
    drop(vm);
    sys.shutdown();
}

// ------------------------------------------------------------ broadcast

/// How a script sends one payload to every DPU of its set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fanout {
    /// `push_to_heap` of one equal `Vec` per DPU.
    Vecs,
    /// `broadcast_to_heap` of a buffer from `alloc_broadcast_buf`.
    Broadcast,
    /// `broadcast_to_heap` of a host-memory buffer: a native set's, which
    /// a VM set stages as it stages `Vec`s.
    HostBroadcast,
}

/// Sends `data` to every DPU of `set` at `offset`, as `how` says.
fn fan_out(set: &mut DpuSet, how: Fanout, offset: u64, data: &[u8]) {
    let mut buf = match how {
        Fanout::Vecs => {
            return set.push_to_heap(offset, &vec![data.to_vec(); set.nr_dpus()]).unwrap();
        }
        Fanout::Broadcast => set.alloc_broadcast_buf(data.len()),
        Fanout::HostBroadcast => {
            let native = DpuSet::alloc_native(&host(1, 1, 1 << 20), 1, CostModel::default());
            native.unwrap().alloc_broadcast_buf(data.len())
        }
    };
    buf.write(0, data).unwrap();
    set.broadcast_to_heap(offset, &buf).unwrap();
}

/// A script that sends `bulk` to every DPU at 0 and `small` (batch path)
/// at `bulk.len()`, and reads both back.
fn fan_out_and_read(set: &mut DpuSet, how: Fanout, bulk: &[u8], small: &[u8]) -> Vec<Vec<u8>> {
    fan_out(set, how, 0, bulk);
    fan_out(set, how, bulk.len() as u64, small);
    let mut back = set.push_from_heap(0, bulk.len()).unwrap();
    back.extend(set.push_from_heap(bulk.len() as u64, small.len()).unwrap());
    let n = set.nr_dpus();
    assert_eq!(back[..n], vec![bulk.to_vec(); n][..], "{how:?}: bulk bytes");
    assert_eq!(back[n..], vec![small.to_vec(); n][..], "{how:?}: small bytes");
    back
}

#[test]
fn a_broadcast_in_a_vm_looks_like_a_push_of_equal_vecs() {
    let (bulk, small) = (pattern(3, 64 << 10), pattern(4, 16));
    for layout @ (ranks, dpus_per_rank, devices) in [(1, 60, 1), (2, 8, 2)] {
        let run = |how: Fanout| {
            observe(ranks, dpus_per_rank, devices, |set, vm| {
                assert!(set.alloc_broadcast_buf(bulk.len()).is_guest(), "a roomy guest holds it");
                let before = vm.vm().memory().free_pages();
                let back = fan_out_and_read(set, how, &bulk, &small);
                assert_eq!(vm.vm().memory().free_pages(), before, "{layout:?} {how:?}: pages");
                back
            })
        };
        let vecs = run(Fanout::Vecs);
        assert!(vecs.0.rank_ops() > 0, "{layout:?}: the script moved data");
        for how in [Fanout::Broadcast, Fanout::HostBroadcast] {
            let seen = run(how);
            assert_eq!(seen.0, vecs.0, "{layout:?} {how:?}: whole timeline");
            assert_eq!(seen.1, vecs.1, "{layout:?} {how:?}: registry");
            assert_eq!(seen.2, vecs.2, "{layout:?} {how:?}: MRAM bytes read back");
        }
    }
}

#[test]
fn a_native_broadcast_looks_like_a_push_of_equal_vecs() {
    let (bulk, small) = (pattern(5, 64 << 10), pattern(6, 16));
    let run = |how: Fanout| {
        let driver = host(2, 8, 1 << 20);
        let mut set = DpuSet::alloc_native(&driver, 16, CostModel::default()).unwrap();
        assert!(!set.alloc_broadcast_buf(bulk.len()).is_guest(), "a native set's buffer");
        let back = fan_out_and_read(&mut set, how, &bulk, &small);
        (set.take_timeline(), back)
    };
    assert_eq!(run(Fanout::Broadcast), run(Fanout::Vecs));
}

#[test]
fn a_broadcast_in_flight_outlives_its_dropped_buffer() {
    let sys =
        VpimSystem::start(host(2, LANE_DPUS, 1 << 20), VpimConfig::full(), StartOpts::default());
    let vm = sys.launch(TenantSpec::new("bcast").devices(2)).unwrap();
    let mem = vm.vm().memory();
    let before = mem.free_pages();
    let reads: Vec<(u32, u64, u64)> =
        (0..LANE_DPUS as u32).map(|d| (d, 0, LANE_BYTES as u64)).collect();
    for round in 0..4 {
        let data = pattern(round, LANE_BYTES);
        let buf = vm.frontend(0).alloc_buf(LANE_BYTES).unwrap();
        buf.write(0, &data).unwrap();
        let entries: Vec<(u32, u64, &GuestBuf)> =
            (0..LANE_DPUS as u32).map(|d| (d, 0, &buf)).collect();
        // Both channels name the one buffer, each on its device's lane...
        let begun: Vec<_> = vm
            .frontends()
            .iter()
            .map(|fe| (fe, fe.begin_write_rank_pinned(&entries).unwrap()))
            .collect();
        // ...and the application's handle drops with both in flight.
        drop(entries);
        drop(buf);
        for (fe, op) in begun {
            fe.finish_rank(op).unwrap();
        }
        assert_eq!(mem.free_pages(), before, "round {round}: every guest page came back");
        for fe in vm.frontends() {
            assert_eq!(fe.read_rank(&reads).unwrap().0, vec![data.clone(); LANE_DPUS]);
        }
    }
    drop(vm);
    sys.shutdown();
}

// ------------------------------------------------------------- lifetime

const LANE_DPUS: usize = 8;
const LANE_BYTES: usize = 20_000;

/// Each channel's write result, and every channel's per-DPU MRAM bytes.
type LaneWrites = (Vec<Result<(), VpimError>>, Vec<Vec<Vec<u8>>>);

/// Writes `datas[c]` to channel `c`'s DPUs of a two-device VM (each
/// device's handler runs on its own lane), from `source`, dropping the
/// buffers as soon as each write has begun. `concurrent` begins every
/// channel before finishing any; otherwise each channel finishes before
/// the next begins, which keeps an armed fault schedule deterministic.
/// Returns each channel's result and the bytes then in MRAM, after
/// checking that every guest page came back.
fn write_and_drop(
    sys: &VpimSystem,
    vm: &VpimVm,
    source: Source,
    concurrent: bool,
    datas: &[Vec<Vec<u8>>],
) -> LaneWrites {
    let mem = vm.vm().memory();
    let before = mem.free_pages();
    let mut results = Vec::new();
    let mut pending = Vec::new();
    for (fe, data) in vm.frontends().iter().zip(datas) {
        let begun = match source {
            Source::Vecs => {
                let entries: Vec<(u32, u64, &[u8])> =
                    data.iter().enumerate().map(|(d, v)| (d as u32, 0, v.as_slice())).collect();
                fe.begin_write_rank(&entries)
            }
            Source::XferBufs => {
                let bufs: Vec<GuestBuf> = data
                    .iter()
                    .map(|v| {
                        let b = fe.alloc_buf(v.len()).unwrap();
                        b.write(0, v).unwrap();
                        b
                    })
                    .collect();
                let entries: Vec<(u32, u64, &GuestBuf)> =
                    bufs.iter().enumerate().map(|(d, b)| (d as u32, 0, b)).collect();
                // The application's handles drop here, with the write in
                // flight on the device's lane.
                fe.begin_write_rank_pinned(&entries)
            }
        };
        pending.push((fe, begun));
        if !concurrent {
            results.extend(
                pending.drain(..).map(|(fe, op)| op.and_then(|op| fe.finish_rank(op)).map(drop)),
            );
        }
    }
    results
        .extend(pending.drain(..).map(|(fe, op)| op.and_then(|op| fe.finish_rank(op)).map(drop)));
    assert_eq!(mem.free_pages(), before, "{source:?}: every guest page came back");

    if let Some(plane) = sys.fault_plane() {
        plane.disarm(FaultSite::ChunkTornWrite.name());
        plane.disarm(FaultSite::MemEio.name());
    }
    let reads: Vec<(u32, u64, u64)> =
        (0..LANE_DPUS as u32).map(|d| (d, 0, LANE_BYTES as u64)).collect();
    let mram = vm.frontends().iter().map(|fe| fe.read_rank(&reads).unwrap().0).collect();
    assert_eq!(mem.free_pages(), before);
    (results, mram)
}

fn lane_payloads(salt: u32) -> Vec<Vec<Vec<u8>>> {
    (0..2)
        .map(|c| (0..LANE_DPUS as u32).map(|d| pattern(salt + 16 * c + d, LANE_BYTES)).collect())
        .collect()
}

#[test]
fn an_in_flight_write_outlives_its_dropped_buffers() {
    let sys =
        VpimSystem::start(host(2, LANE_DPUS, 1 << 20), VpimConfig::full(), StartOpts::default());
    let vm = sys.launch(TenantSpec::new("life").devices(2)).unwrap();
    for round in 0..4 {
        let datas = lane_payloads(round);
        let (results, mram) = write_and_drop(&sys, &vm, Source::XferBufs, true, &datas);
        assert!(results.iter().all(Result::is_ok), "round {round}: {results:?}");
        assert_eq!(mram, datas, "round {round}: the bytes landed");
    }
    drop(vm);
    sys.shutdown();
}

#[test]
fn a_faulted_pinned_write_leaks_no_page_and_fails_like_a_vec_write() {
    // Entry 5 of each request tears; separately, the 9th data-path access
    // (request decode, then one per data page) raises EIO.
    let plans =
        [(FaultSite::ChunkTornWrite, FaultPlan::Nth(6)), (FaultSite::MemEio, FaultPlan::Nth(9))];
    for (site, plan) in plans {
        let run = |source: Source| {
            let vcfg = VpimConfig::builder().inject_seed(0x51DE).build();
            let sys = VpimSystem::start(host(2, LANE_DPUS, 1 << 20), vcfg, StartOpts::default());
            let vm = sys.launch(TenantSpec::new("fault").devices(2)).unwrap();
            sys.fault_plane().expect("inject enabled").arm(site.name(), plan);
            let out = write_and_drop(&sys, &vm, source, false, &lane_payloads(7));
            drop(vm);
            sys.shutdown();
            out
        };
        let (vec_results, vec_mram) = run(Source::Vecs);
        let (pin_results, pin_mram) = run(Source::XferBufs);
        assert!(vec_results.iter().any(Result::is_err), "{site:?} fired: {vec_results:?}");
        assert_eq!(pin_results, vec_results, "{site:?}: typed errors");
        assert_eq!(pin_mram, vec_mram, "{site:?}: what landed");
    }
}

// ------------------------------------------------------------- fallback

#[test]
fn buffers_the_guest_cannot_hold_are_host_memory_staged_with_backpressure() {
    const RANKS: usize = 4;
    const QUARTER: usize = 8 << 20;
    let datas: Vec<Vec<u8>> = (0..RANKS as u32).map(|d| pattern(d, QUARTER)).collect();
    let run = |mem_mib: u64| {
        let sys = VpimSystem::start(
            host(RANKS, 1, QUARTER as u64),
            VpimConfig::full(),
            StartOpts::default(),
        );
        let vm = sys.launch(TenantSpec::new("small").devices(RANKS).mem_mib(mem_mib)).unwrap();
        let mut set = DpuSet::alloc_vm(vm.frontends(), RANKS, CostModel::default()).unwrap();
        let mem = vm.vm().memory();
        let before = mem.free_pages();
        let whole = set.alloc_xfer_buf(32 << 20);
        assert_eq!(whole.is_guest(), mem_mib > 32, "{mem_mib} MiB guest");
        drop(whole);
        let mut bufs = set.alloc_xfer_bufs(QUARTER);
        assert!(bufs.iter().all(|b| b.is_guest() == (mem_mib > 32)), "{mem_mib} MiB guest");
        for (buf, data) in bufs.iter_mut().zip(&datas) {
            buf.write(0, data).unwrap();
        }
        // A 16 MiB guest holds one rank's 8 MiB staged matrix, not two:
        // every rank after the first waits for the one before it.
        set.push_bufs_to_heap(0, &bufs).unwrap();
        drop(bufs);
        assert_eq!(set.push_from_heap(0, QUARTER).unwrap(), datas, "{mem_mib} MiB guest");
        assert_eq!(mem.free_pages(), before, "{mem_mib} MiB guest");
        let timeline = set.take_timeline();
        drop(set);
        drop(vm);
        sys.shutdown();
        timeline
    };
    assert_eq!(run(16), run(512), "host and guest buffers give the same figures");
}

#[test]
fn a_buffer_of_another_guest_is_refused_before_anything_moves() {
    let sys = VpimSystem::start(host(2, 8, 1 << 20), VpimConfig::full(), StartOpts::default());
    let a = sys.launch(TenantSpec::new("a").mem_mib(16)).unwrap();
    let b = sys.launch(TenantSpec::new("b").mem_mib(16)).unwrap();
    let theirs = a.frontend(0).alloc_buf(LANE_BYTES).unwrap();
    theirs.write(0, &pattern(1, LANE_BYTES)).unwrap();
    let vmexits = || sys.registry().snapshot().count("vmm.vmexits");
    let (exits, free) = (vmexits(), b.vm().memory().free_pages());
    let err = b.frontend(0).write_rank_pinned(&[(0, 0, &theirs)]).unwrap_err();
    assert!(matches!(err, VpimError::BadRequest(_)), "{err}");
    assert_eq!(vmexits(), exits, "a refused write never kicks");
    assert_eq!(b.vm().memory().free_pages(), free);
    drop((a, b));
    sys.shutdown();
}
