//! The seven Table 2 variants: functional equivalence (every optimization
//! is semantics-preserving) and the performance orderings the paper
//! establishes.

use std::sync::Arc;

use simkit::{CostModel, VirtualNanos};
use upmem_driver::UpmemDriver;
use upmem_sdk::DpuSet;
use upmem_sim::{PimConfig, PimMachine};
use vpim::{Variant, StartOpts, TenantSpec, VpimConfig, VpimSystem};

fn host() -> Arc<UpmemDriver> {
    let machine = PimMachine::new(PimConfig {
        ranks: 8,
        functional_dpus: vec![16; 8],
        mram_size: 2 << 20,
        ..PimConfig::small()
    });
    microbench::Checksum::register(&machine);
    prim::register_all(&machine);
    Arc::new(UpmemDriver::new(machine))
}

fn checksum_under(
    driver: &Arc<UpmemDriver>,
    variant: Variant,
    dpus: usize,
) -> (u32, VirtualNanos, u64) {
    let sys = VpimSystem::start(driver.clone(), VpimConfig::variant_config(variant), StartOpts::default());
    let vm = sys.launch(TenantSpec::new("vt").devices(dpus.div_ceil(16))).unwrap();
    let mut set = DpuSet::alloc_vm(vm.frontends(), dpus, CostModel::default()).unwrap();
    let run = microbench::Checksum::run(&mut set, 256 << 10, 21).unwrap();
    assert!(run.verified, "{variant}: verification failed");
    let tl = set.take_timeline();
    drop(set);
    drop(vm);
    sys.shutdown();
    (run.value, tl.app_total(), tl.messages())
}

#[test]
fn all_variants_compute_identical_results() {
    let driver = host();
    let native_value = {
        let mut set = DpuSet::alloc_native(&driver, 16, CostModel::default()).unwrap();
        let run = microbench::Checksum::run(&mut set, 256 << 10, 21).unwrap();
        assert!(run.verified);
        run.value
    };
    for v in Variant::ALL {
        let (value, _, _) = checksum_under(&driver, v, 16);
        assert_eq!(value, native_value, "{v} changed the result");
    }
}

#[test]
fn c_path_is_never_slower_than_rust_path() {
    let driver = host();
    let (_, rust_t, _) = checksum_under(&driver, Variant::VpimRust, 16);
    let (_, c_t, _) = checksum_under(&driver, Variant::VpimC, 16);
    assert!(c_t < rust_t, "C path {c_t} should beat rust path {rust_t}");
}

#[test]
fn batching_cuts_messages_on_small_write_workloads() {
    // NW is the paper's batching showcase: Fig. 14 reports two orders of
    // magnitude fewer context switches with batching on.
    let driver = host();
    let nw = prim::by_name("NW").unwrap();
    let scale = prim::ScaleParams::of(4096);
    let mut messages = std::collections::HashMap::new();
    for v in [Variant::VpimC, Variant::VpimB] {
        let sys = VpimSystem::start(driver.clone(), VpimConfig::variant_config(v), StartOpts::default());
        let vm = sys.launch(TenantSpec::new("vt")).unwrap();
        let mut set = DpuSet::alloc_vm(vm.frontends(), 16, CostModel::default()).unwrap();
        let run = nw.run(&mut set, &scale, 5).unwrap();
        assert!(run.verified);
        messages.insert(v, set.timeline().messages());
        drop(set);
        drop(vm);
        sys.shutdown();
    }
    let unbatched = messages[&Variant::VpimC];
    let batched = messages[&Variant::VpimB];
    assert!(
        batched * 2 < unbatched,
        "batching should cut messages substantially: {batched} vs {unbatched}"
    );
}

#[test]
fn prefetch_cuts_messages_on_small_read_workloads() {
    let driver = host();
    let mut messages = std::collections::HashMap::new();
    for v in [Variant::VpimC, Variant::VpimP] {
        let sys = VpimSystem::start(driver.clone(), VpimConfig::variant_config(v), StartOpts::default());
        let vm = sys.launch(TenantSpec::new("vt")).unwrap();
        let mut set = DpuSet::alloc_vm(vm.frontends(), 4, CostModel::default()).unwrap();
        set.copy_to_heap(0, 0, &vec![7u8; 32 << 10]).unwrap();
        let before = set.timeline().messages();
        for i in 0..200u64 {
            let _ = set.copy_from_heap(0, (i % 500) * 64, 64).unwrap();
        }
        messages.insert(v, set.timeline().messages() - before);
        drop(set);
        drop(vm);
        sys.shutdown();
    }
    let uncached = messages[&Variant::VpimC];
    let cached = messages[&Variant::VpimP];
    assert!(
        cached * 10 < uncached,
        "prefetch should cut read messages by an order of magnitude: {cached} vs {uncached}"
    );
}

#[test]
fn parallel_handling_helps_multi_rank_only() {
    let driver = host();
    // Single rank: no benefit expected (identical durations).
    let (_, seq1, _) = checksum_under(&driver, Variant::VpimSeq, 16);
    let (_, par1, _) = checksum_under(&driver, Variant::Vpim, 16);
    assert_eq!(seq1, par1, "single-rank parallel handling should be neutral");
    // Four ranks: parallel handling must win.
    let (_, seq4, _) = checksum_under(&driver, Variant::VpimSeq, 64);
    let (_, par4, _) = checksum_under(&driver, Variant::Vpim, 64);
    assert!(par4 < seq4, "multi-rank: {par4} should beat {seq4}");
}

#[test]
fn full_vpim_beats_unoptimized_on_the_nw_worst_case() {
    // Fig. 14's headline: the optimization stack yields a large speedup on
    // NW (10.8x on the testbed).
    let driver = host();
    let nw = prim::by_name("NW").unwrap();
    let scale = prim::ScaleParams::of(4096);
    let mut totals = std::collections::HashMap::new();
    for v in [Variant::VpimC, Variant::VpimPB] {
        let sys = VpimSystem::start(driver.clone(), VpimConfig::variant_config(v), StartOpts::default());
        let vm = sys.launch(TenantSpec::new("vt")).unwrap();
        let mut set = DpuSet::alloc_vm(vm.frontends(), 16, CostModel::default()).unwrap();
        let run = nw.run(&mut set, &scale, 5).unwrap();
        assert!(run.verified);
        totals.insert(v, set.timeline().app_total());
        drop(set);
        drop(vm);
        sys.shutdown();
    }
    let unopt = totals[&Variant::VpimC];
    let opt = totals[&Variant::VpimPB];
    let speedup = unopt.ratio(opt);
    // Batching merges messages but — faithfully to §4.1 — does not reduce
    // the data-writing time itself, so at this tiny test scale the win is
    // bounded by the transition count it removes.
    assert!(speedup > 1.4, "PB should speed NW up substantially, got {speedup:.2}x");
}
