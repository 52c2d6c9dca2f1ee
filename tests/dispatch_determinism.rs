//! Two-clock determinism: real OS-thread parallelism must never leak into
//! virtual time. Two kinds of comparison run here.
//!
//! * *Model fixed, host perturbed.* The same checksum application on
//!   device 0 of a one-device VM and of a two-device VM produces
//!   bit-identical payloads, whole timelines, per-rank offsets and
//!   registry totals. A guest with room for only one rank's (or one
//!   chunk's) transfer at a time changes nothing at all.
//! * *Model perturbed.* `parallel_handling` picks how a multi-rank op's
//!   per-rank times compose (Fig. 15/16: back-to-back vs overlapped). Each
//!   composition repeats bit-identically, and the two agree on everything
//!   but the composed durations.

use std::sync::Arc;

use microbench::checksum::{self, Checksum};
use pim_virtio::VirtioError;
use simkit::CostModel;
use upmem_driver::UpmemDriver;
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::{PimConfig, PimMachine};
use vpim::{OpReport, StartOpts, TenantSpec, VpimConfig, VpimError, VpimSystem};

const RANKS: usize = 4;
const DPUS_PER_RANK: usize = 8;

fn host() -> Arc<UpmemDriver> {
    let machine = PimMachine::new(PimConfig {
        ranks: RANKS,
        functional_dpus: vec![DPUS_PER_RANK; RANKS],
        mram_size: 1 << 20,
        ..PimConfig::small()
    });
    Checksum::register(&machine);
    Arc::new(UpmemDriver::new(machine))
}

fn config(parallel: bool) -> VpimConfig {
    VpimConfig::builder().batching(false).prefetch(false).parallel(parallel).build()
}

fn pattern(seed: u32, len: usize) -> Vec<u8> {
    (0..len).map(|i| (seed.wrapping_mul(48271).wrapping_add(i as u32) >> 7) as u8).collect()
}

/// What one run of the checksum application over device 0's DPUs
/// observes: verification, checksum value, the data region read back, the
/// whole timeline, the Fig. 16 per-rank offsets, and what the run added to
/// `backend.{writes,reads,ci}`, `datapath.bytes.zero_copy` and
/// `vmm.vmexits`.
type Device0Run = (bool, u32, Vec<Vec<u8>>, simkit::Timeline, Vec<(usize, u64)>, Vec<u64>);

/// The registry totals [`Device0Run`] compares.
const TOTALS: [&str; 5] =
    ["backend.writes", "backend.reads", "backend.ci", "datapath.bytes.zero_copy", "vmm.vmexits"];

/// Runs the checksum application on a `devices`-device VM, with the set
/// allocated over device 0's DPUs only so the model is the same whatever
/// `devices` is. Totals are counted from after launch: booting a second
/// device costs its own Configure round trip.
fn run_on_device0(devices: usize) -> Device0Run {
    let sys = VpimSystem::start(host(), VpimConfig::full(), StartOpts::default());
    let vm = sys.launch(TenantSpec::new("det").devices(devices)).unwrap();
    let totals = || -> Vec<u64> {
        let snap = sys.registry().snapshot();
        TOTALS.iter().map(|name| snap.count(name)).collect()
    };
    let before = totals();
    let mut set = DpuSet::alloc_vm(vm.frontends(), DPUS_PER_RANK, CostModel::default()).unwrap();
    assert_eq!(set.nr_ranks(), 1, "the set spans device 0 only");
    let run = Checksum::run(&mut set, 16_384, 7).unwrap();
    let data = set.push_from_heap(checksum::DATA_OFFSET, 16_384).unwrap();
    let per_rank: Vec<(usize, u64)> =
        set.last_per_rank().iter().map(|(i, d)| (*i, d.as_nanos())).collect();
    let timeline = set.take_timeline();
    drop(set);
    let moved: Vec<u64> = totals().iter().zip(&before).map(|(a, b)| a - b).collect();
    drop(vm);
    sys.shutdown();
    (run.verified, run.value, data, timeline, per_rank, moved)
}

#[test]
fn one_and_two_device_vms_agree_on_whole_reports_and_totals() {
    let one = run_on_device0(1);
    let two = run_on_device0(2);
    assert!(one.0, "checksum must verify");
    assert_eq!(one.1, two.1, "checksum value");
    assert_eq!(one.2, two.2, "payloads read back");
    assert_eq!(one.3, two.3, "whole timeline");
    assert_eq!(one.4, two.4, "per-rank completion offsets (Fig. 16)");
    assert_eq!(one.5, two.5, "registry totals {TOTALS:?}");
    assert!(one.5.iter().all(|&n| n > 0), "the run moved every total: {:?}", one.5);
}

/// The full checksum application over every rank through the SDK; returns
/// figure-relevant numbers: verification result, checksum value, app/driver
/// timeline, and the Fig. 16 per-rank completion offsets.
fn run_checksum(parallel: bool) -> (bool, u32, simkit::Timeline, Vec<(usize, u64)>) {
    let sys = VpimSystem::start(host(), config(parallel), StartOpts::default());
    let vm = sys.launch(TenantSpec::new("det").devices(RANKS)).unwrap();
    let mut set =
        DpuSet::alloc_vm(vm.frontends(), RANKS * DPUS_PER_RANK, CostModel::default())
            .unwrap();
    let run = Checksum::run(&mut set, 16_384, 7).unwrap();
    let per_rank: Vec<(usize, u64)> =
        set.last_per_rank().iter().map(|(i, d)| (*i, d.as_nanos())).collect();
    let timeline = set.take_timeline();
    drop(set);
    drop(vm);
    sys.shutdown();
    (run.verified, run.value, timeline, per_rank)
}

#[test]
fn parallel_runs_are_bit_identical_across_repeats() {
    let a = run_checksum(true);
    let b = run_checksum(true);
    assert!(a.0, "checksum must verify");
    assert_eq!(a.1, b.1, "checksum value");
    assert_eq!(a.2, b.2, "timeline must not depend on thread interleaving");
    assert_eq!(a.3, b.3, "per-rank completion offsets (Fig. 16)");
}

#[test]
fn sequential_runs_are_bit_identical_across_repeats() {
    let a = run_checksum(false);
    let b = run_checksum(false);
    assert!(a.0, "checksum must verify");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
}

#[test]
fn modes_agree_on_everything_but_the_overlap_model() {
    // Results and counters match across the two composition models; only
    // the composed durations differ (sequential back-to-back vs parallel
    // max/DDR-bound — Fig. 15/16), and they differ deterministically.
    let seq = run_checksum(false);
    let par = run_checksum(true);
    assert_eq!(seq.1, par.1, "checksum value is mode-independent");
    assert_eq!(
        seq.2.messages(),
        par.2.messages(),
        "guest<->VMM message count is mode-independent"
    );
    assert_eq!(seq.2.rank_ops(), par.2.rank_ops());
    assert_eq!(seq.3.len(), par.3.len(), "same number of per-rank series");
    // Sequential completion offsets accumulate, so the last rank finishes
    // no earlier than under the overlapped parallel model.
    let last_seq = seq.3.last().unwrap().1;
    let last_par = par.3.last().unwrap().1;
    assert!(last_seq >= last_par, "seq {last_seq} vs par {last_par}");
}

// ------------------------------------------------------------ one at a time
//
// A push runs one rank at a time, and a rank's transfer one chunk at a
// time. A guest with room for exactly one of them carries the whole
// transfer with the same bytes and the same virtual-time figures as a
// roomy guest, every page and queue slot comes back, and a multi-rank push
// dirties one rank's guest pages, not one per rank.

/// Guest pages every request takes besides its matrix: the request-info
/// page and the status page.
const REQUEST_PAGES: usize = 2;
/// Guest pages of one serialized matrix in the transfers below: 8 bytes
/// plus 32 per entry plus 8 per data page is under 4 KiB for both the
/// 8-entry, 20-page-per-entry rank and the 64-entry, 3-page-per-entry
/// chunk.
const META_PAGES: usize = 1;

/// A booted VM plus what must be unchanged once an op has finished.
struct Guest {
    sys: VpimSystem,
    vm: vpim::VpimVm,
    before: (usize, Vec<i64>),
}

/// Free guest pages and the per-device `transferq` depth gauges.
fn resources(sys: &VpimSystem, vm: &vpim::VpimVm) -> (usize, Vec<i64>) {
    let depths = (0..vm.frontends().len())
        .map(|i| sys.registry().gauge(&format!("virtio.queue.depth.rank{i}")).get())
        .collect();
    (vm.vm().memory().free_pages(), depths)
}

impl Guest {
    /// `room = Some(n)`: the smallest guest the VMM boots, with all but
    /// `n` of its pages in use elsewhere. `None`: the default 512 MiB.
    fn boot(parallel: bool, devices: usize, room: Option<usize>) -> Guest {
        let sys = VpimSystem::start(host(), config(parallel), StartOpts::default());
        let mem_mib = if room.is_some() { 16 } else { 512 };
        let vm = sys.launch(TenantSpec::new("room").devices(devices).mem_mib(mem_mib)).unwrap();
        if let Some(n) = room {
            let mem = vm.vm().memory();
            mem.alloc_pages(mem.free_pages() - n).unwrap();
        }
        let before = resources(&sys, &vm);
        Guest { sys, vm, before }
    }

    fn assert_reclaimed_and_shutdown(self) {
        assert_eq!(
            resources(&self.sys, &self.vm),
            self.before,
            "guest pages / queue slots not reclaimed"
        );
        drop(self.vm);
        self.sys.shutdown();
    }
}

/// A 4-rank push of 20 pages per DPU: 160 bounce pages per rank.
const PUSH_RANKS: usize = 4;
const PUSH_BYTES_PER_DPU: usize = 80_000;
const PUSH_RANK_PAGES: usize = DPUS_PER_RANK * 20;
/// Everything one rank's transfer allocates in the guest.
const PUSH_ROOM: usize = PUSH_RANK_PAGES + META_PAGES + REQUEST_PAGES;

/// The bytes read back, the timeline, and both ops' per-rank completion
/// offsets.
type PushRun = (Vec<Vec<u8>>, simkit::Timeline, Vec<Vec<(usize, u64)>>);

fn push_bufs() -> Vec<Vec<u8>> {
    (0..PUSH_RANKS * DPUS_PER_RANK).map(|i| pattern(i as u32, PUSH_BYTES_PER_DPU)).collect()
}

/// `push_to_heap` then `push_from_heap` over four ranks, on a guest with
/// `room` free pages (`None`: roomy). Neither op dirties more guest pages
/// than one rank's transfer allocates.
fn run_push(parallel: bool, room: Option<usize>) -> PushRun {
    let guest = Guest::boot(parallel, PUSH_RANKS, room);
    let mem = guest.vm.vm().memory();
    let mut set = DpuSet::alloc_vm(
        guest.vm.frontends(),
        PUSH_RANKS * DPUS_PER_RANK,
        CostModel::default(),
    )
    .unwrap();
    let bufs = push_bufs();
    let offsets = |set: &DpuSet| -> Vec<(usize, u64)> {
        set.last_per_rank().iter().map(|(i, d)| (*i, d.as_nanos())).collect()
    };
    let dirty_before = mem.dirty_pages();
    set.push_to_heap(4096, &bufs).unwrap();
    let mut per_rank = vec![offsets(&set)];
    let back = set.push_from_heap(4096, PUSH_BYTES_PER_DPU).unwrap();
    per_rank.push(offsets(&set));
    let dirtied = mem.dirty_pages() - dirty_before;
    assert!(
        dirtied <= PUSH_ROOM,
        "parallel {parallel} room {room:?}: {dirtied} guest pages dirtied, one rank is {PUSH_ROOM}"
    );
    assert_eq!(back, bufs, "parallel {parallel} room {room:?}");
    let timeline = set.take_timeline();
    drop(set);
    guest.assert_reclaimed_and_shutdown();
    (back, timeline, per_rank)
}

#[test]
fn a_guest_with_room_for_one_rank_carries_a_four_rank_push() {
    let mut by_model = Vec::new();
    for parallel in [false, true] {
        let tight = run_push(parallel, Some(PUSH_ROOM));
        let roomy = run_push(parallel, None);
        assert_eq!(tight.1, roomy.1, "timeline (parallel {parallel})");
        assert_eq!(tight.2, roomy.2, "per-rank offsets (parallel {parallel})");
        by_model.push(tight);
    }
    // Across models only the composed durations differ (see above).
    let (seq, par) = (&by_model[0], &by_model[1]);
    assert_eq!(seq.0, par.0);
    assert_eq!(seq.1.messages(), par.1.messages());
    assert_eq!(seq.1.rank_ops(), par.1.rank_ops());

    // One page fewer and the first rank cannot be staged: the room above
    // is exact, and a failed push hands back what it took.
    let guest = Guest::boot(true, PUSH_RANKS, Some(PUSH_ROOM - 1));
    let mut set =
        DpuSet::alloc_vm(guest.vm.frontends(), PUSH_RANKS * DPUS_PER_RANK, CostModel::default())
            .unwrap();
    let err = set.push_to_heap(4096, &push_bufs()).unwrap_err();
    assert!(
        matches!(err, SdkError::Vpim(VpimError::Virtio(VirtioError::OutOfPages { .. }))),
        "{err}"
    );
    drop(set);
    guest.assert_reclaimed_and_shutdown();
}

/// 17 three-page entries on each of 8 DPUs: three chunks (64 + 64 + 8) of
/// which a full one takes 192 bounce pages.
const MC_ENTRIES_PER_DPU: usize = 17;
const MC_ENTRY_BYTES: usize = 12_000;
const MC_ENTRY_STRIDE: u64 = 3 * 4096;
const MC_CHUNK_ROOM: usize = 64 * 3 + META_PAGES + REQUEST_PAGES;

/// One three-chunk write and read on device 0 of a `devices`-device VM
/// with `room` free guest pages (`None`: roomy). Returns both reports and
/// the bytes read.
fn run_multi_chunk(devices: usize, room: Option<usize>) -> (Vec<OpReport>, Vec<Vec<u8>>) {
    let guest = Guest::boot(true, devices, room);
    let fe = guest.vm.frontend(0);
    let datas: Vec<Vec<u8>> =
        (0..DPUS_PER_RANK * MC_ENTRIES_PER_DPU).map(|i| pattern(i as u32, MC_ENTRY_BYTES)).collect();
    let place = |i: usize| -> (u32, u64) {
        ((i % DPUS_PER_RANK) as u32, 4096 + (i / DPUS_PER_RANK) as u64 * MC_ENTRY_STRIDE)
    };
    let entries: Vec<(u32, u64, &[u8])> = datas
        .iter()
        .enumerate()
        .map(|(i, d)| (place(i).0, place(i).1, d.as_slice()))
        .collect();
    let reqs: Vec<(u32, u64, u64)> =
        (0..datas.len()).map(|i| (place(i).0, place(i).1, MC_ENTRY_BYTES as u64)).collect();

    let write = fe.write_rank(&entries).unwrap();
    let (out, read) = fe.read_rank(&reqs).unwrap();
    assert_eq!(out, datas, "devices {devices} room {room:?}");
    assert_eq!(write.rank_ops(), 3, "three chunks");
    guest.assert_reclaimed_and_shutdown();
    (vec![write, read], out)
}

#[test]
fn a_guest_with_room_for_one_chunk_carries_a_three_chunk_transfer() {
    let reference = run_multi_chunk(1, None);
    for devices in [1, 2] {
        assert_eq!(run_multi_chunk(devices, Some(MC_CHUNK_ROOM)), reference, "devices {devices}");
    }
}

#[test]
fn data_offset_matches_checksum_kernel_layout() {
    // Guard the constant used above: the kernel reads from DATA_OFFSET.
    assert_eq!(checksum::DATA_OFFSET, 4096);
}
