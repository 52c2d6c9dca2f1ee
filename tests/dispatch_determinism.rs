//! Two-clock determinism: real OS-thread parallelism must never leak into
//! virtual time. Two kinds of comparison run here.
//!
//! * *Model fixed, mechanism perturbed.* The same checksum application on
//!   device 0 of a one-device VM (its handler runs on the kicking thread)
//!   and of a two-device VM (its handler runs on device 0's lane) produces
//!   bit-identical payloads, whole timelines, per-rank offsets and
//!   registry totals. A guest too small for an op's bounce pages changes
//!   nothing but the overlap, under either dispatch.
//! * *Model perturbed.* `parallel_handling` picks how a multi-rank op's
//!   per-rank times compose (Fig. 15/16: back-to-back vs overlapped). Each
//!   composition repeats bit-identically, and the two agree on everything
//!   but the composed durations.

use std::sync::Arc;

use microbench::checksum::{self, Checksum};
use simkit::CostModel;
use upmem_driver::UpmemDriver;
use upmem_sdk::DpuSet;
use upmem_sim::{PimConfig, PimMachine};
use vpim::{OpReport, StartOpts, TenantSpec, VpimConfig, VpimSystem};

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
fn inline_and_lane_dispatch_agree_on_whole_reports_and_totals() {
    let inline = run_on_device0(1);
    let lanes = run_on_device0(2);
    assert!(inline.0, "checksum must verify");
    assert_eq!(inline.1, lanes.1, "checksum value");
    assert_eq!(inline.2, lanes.2, "payloads read back");
    assert_eq!(inline.3, lanes.3, "whole timeline");
    assert_eq!(inline.4, lanes.4, "per-rank completion offsets (Fig. 16)");
    assert_eq!(inline.5, lanes.5, "registry totals {TOTALS:?}");
    assert!(inline.5.iter().all(|&n| n > 0), "the run moved every total: {:?}", inline.5);
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

// ------------------------------------------------------------ backpressure
//
// A guest too small for an op's bounce pages must change nothing but the
// overlap: same bytes, same virtual-time figures as a roomy guest, and
// every page and queue slot back where it was.

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
    /// `tight_for = Some(n)`: the smallest guest the VMM boots, with all
    /// but 1.5 n of its pages in use elsewhere — room for the bounce pages
    /// of one n-page transfer, not two. `None`: the default 512 MiB.
    fn boot(parallel: bool, devices: usize, tight_for: Option<usize>) -> Guest {
        let sys = VpimSystem::start(host(), config(parallel), StartOpts::default());
        let mem_mib = if tight_for.is_some() { 16 } else { 512 };
        let vm = sys.launch(TenantSpec::new("bp").devices(devices).mem_mib(mem_mib)).unwrap();
        if let Some(n) = tight_for {
            let mem = vm.vm().memory();
            mem.alloc_pages(mem.free_pages() - n * 3 / 2).unwrap();
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

/// A 2-rank push of 20 pages per DPU: 160 bounce pages per rank.
const PUSH_RANKS: usize = 2;
const PUSH_BYTES_PER_DPU: usize = 80_000;
const PUSH_RANK_PAGES: usize = DPUS_PER_RANK * 20;

/// The bytes read back, the timeline, and both ops' per-rank completion
/// offsets.
type PushRun = (Vec<Vec<u8>>, simkit::Timeline, Vec<Vec<(usize, u64)>>);

/// `push_to_heap` then `push_from_heap` over two ranks.
fn run_push(parallel: bool, tight: bool) -> PushRun {
    let guest = Guest::boot(parallel, PUSH_RANKS, tight.then_some(PUSH_RANK_PAGES));
    let mut set = DpuSet::alloc_vm(
        guest.vm.frontends(),
        PUSH_RANKS * DPUS_PER_RANK,
        CostModel::default(),
    )
    .unwrap();
    let bufs: Vec<Vec<u8>> =
        (0..PUSH_RANKS * DPUS_PER_RANK).map(|i| pattern(i as u32, PUSH_BYTES_PER_DPU)).collect();
    let offsets = |set: &DpuSet| -> Vec<(usize, u64)> {
        set.last_per_rank().iter().map(|(i, d)| (*i, d.as_nanos())).collect()
    };
    set.push_to_heap(4096, &bufs).unwrap();
    let mut per_rank = vec![offsets(&set)];
    let back = set.push_from_heap(4096, PUSH_BYTES_PER_DPU).unwrap();
    per_rank.push(offsets(&set));
    assert_eq!(back, bufs, "parallel {parallel} tight {tight}");
    let timeline = set.take_timeline();
    drop(set);
    guest.assert_reclaimed_and_shutdown();
    (back, timeline, per_rank)
}

#[test]
fn set_level_backpressure_changes_no_byte_and_no_figure() {
    let mut by_model = Vec::new();
    for parallel in [false, true] {
        let tight = run_push(parallel, true);
        let roomy = run_push(parallel, false);
        assert_eq!(tight.1, roomy.1, "timeline (parallel {parallel})");
        assert_eq!(tight.2, roomy.2, "per-rank offsets (parallel {parallel})");
        by_model.push(tight);
    }
    // Across models only the composed durations differ (see above).
    let (seq, par) = (&by_model[0], &by_model[1]);
    assert_eq!(seq.0, par.0);
    assert_eq!(seq.1.messages(), par.1.messages());
    assert_eq!(seq.1.rank_ops(), par.1.rank_ops());
}

/// 17 three-page entries on each of 8 DPUs: three chunks (64 + 64 + 8) of
/// which a full one takes 192 bounce pages.
const MC_ENTRIES_PER_DPU: usize = 17;
const MC_ENTRY_BYTES: usize = 12_000;
const MC_ENTRY_STRIDE: u64 = 3 * 4096;
const MC_CHUNK_PAGES: usize = 64 * 3;

/// One multi-chunk write and read on device 0 of a `devices`-device VM,
/// synchronous (one chunk in flight) and split-phase (as many as fit,
/// oldest absorbed first on backpressure). Returns the four reports and
/// the bytes read.
fn run_multi_chunk(devices: usize, tight: bool) -> (Vec<OpReport>, Vec<Vec<u8>>) {
    let guest = Guest::boot(true, devices, tight.then_some(MC_CHUNK_PAGES));
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

    let mut reports = vec![fe.write_rank(&entries).unwrap()];
    let (sync_out, r) = fe.read_rank(&reqs).unwrap();
    reports.push(r);
    let (none, r) = fe.finish_rank(fe.begin_write_rank(&entries).unwrap()).unwrap();
    assert!(none.is_empty(), "a write gathers nothing");
    reports.push(r);
    let (split_out, r) = fe.finish_rank(fe.begin_read_rank(&reqs).unwrap()).unwrap();
    reports.push(r);

    assert_eq!(sync_out, datas, "devices {devices} tight {tight}");
    assert_eq!(split_out, datas, "request order survives early absorption");
    assert_eq!(reports[0], reports[2], "in-flight depth leaked into the write report");
    assert_eq!(reports[1], reports[3], "in-flight depth leaked into the read report");
    assert_eq!(reports[0].rank_ops(), 3, "three chunks");
    guest.assert_reclaimed_and_shutdown();
    (reports, split_out)
}

#[test]
fn frontend_level_backpressure_changes_no_byte_and_no_figure() {
    // Inline (one device) and on device 0's lane (two devices).
    let reference = run_multi_chunk(1, false);
    for devices in [1, 2] {
        assert_eq!(run_multi_chunk(devices, true), reference, "devices {devices}");
    }
}

#[test]
fn data_offset_matches_checksum_kernel_layout() {
    // Guard the constant used above: the kernel reads from DATA_OFFSET.
    assert_eq!(checksum::DATA_OFFSET, 4096);
}
