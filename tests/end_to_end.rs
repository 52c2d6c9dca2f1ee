//! End-to-end integration: PrIM applications through the whole stack
//! (SDK → frontend → virtqueue → backend → simulated hardware) on the
//! paper's machine geometry, compared against native execution.

use std::sync::Arc;

use simkit::{AppSegment, CostModel};
use upmem_driver::UpmemDriver;
use upmem_sdk::DpuSet;
use upmem_sim::{PimConfig, PimMachine};
use vpim::{StartOpts, TenantSpec, VpimConfig, VpimSystem};

fn testbed() -> Arc<UpmemDriver> {
    let machine = PimMachine::new(PimConfig {
        ranks: 8,
        functional_dpus: vec![60; 8],
        mram_size: 4 << 20,
        ..PimConfig::paper_testbed()
    });
    prim::register_all(&machine);
    microbench::Checksum::register(&machine);
    Arc::new(UpmemDriver::new(machine))
}

#[test]
fn prim_apps_run_unmodified_on_60_dpus_under_vpim() {
    // R3 transparency at the paper's single-rank configuration: same code,
    // both transports, identical results — for a representative app from
    // every behaviour class §5.2 discusses.
    let driver = testbed();
    let scale = prim::ScaleParams::of(60 * 256);
    for name in ["VA", "SEL", "RED", "SCAN-RSS", "HST-S"] {
        let app = prim::by_name(name).expect("catalog");
        let native = {
            let mut set = DpuSet::alloc_native(&driver, 60, CostModel::default()).unwrap();
            app.run(&mut set, &scale, 9).unwrap()
        };
        let sys = VpimSystem::start(driver.clone(), VpimConfig::full(), StartOpts::default());
        let vm = sys.launch(TenantSpec::new("e2e")).unwrap();
        let mut set = DpuSet::alloc_vm(vm.frontends(), 60, CostModel::default()).unwrap();
        let virt = app.run(&mut set, &scale, 9).unwrap();
        assert!(native.verified && virt.verified, "{name} verification");
        assert_eq!(native.checksum, virt.checksum, "{name} transports disagree");
        drop(set);
        drop(vm);
        sys.shutdown();
    }
}

#[test]
fn strong_scaling_moves_time_from_dpu_to_transfer() {
    // Fig. 8's scaling mechanism: with 8× the DPUs, per-DPU compute falls;
    // for parallel-transfer apps total time falls too.
    let driver = testbed();
    let app = prim::by_name("VA").expect("catalog");
    let scale = prim::ScaleParams::of(1 << 16);
    let mut dpu_time = Vec::new();
    for dpus in [60usize, 480] {
        let mut set = DpuSet::alloc_native(&driver, dpus, CostModel::default()).unwrap();
        let run = app.run(&mut set, &scale, 4).unwrap();
        assert!(run.verified);
        dpu_time.push(set.timeline().app(AppSegment::Dpu));
    }
    assert!(
        dpu_time[1] < dpu_time[0],
        "DPU segment should shrink with more DPUs: {dpu_time:?}"
    );
}

#[test]
fn serial_transfer_apps_slow_down_with_more_dpus() {
    // §5.2's second observation: SEL's serial DPU-CPU step grows with the
    // DPU count, so its retrieval segment gets *worse* at 480 DPUs.
    let driver = testbed();
    let app = prim::by_name("SEL").expect("catalog");
    let scale = prim::ScaleParams::of(1 << 15);
    let mut retrieval = Vec::new();
    for dpus in [60usize, 480] {
        let mut set = DpuSet::alloc_native(&driver, dpus, CostModel::default()).unwrap();
        let run = app.run(&mut set, &scale, 4).unwrap();
        assert!(run.verified);
        retrieval.push(set.timeline().app(AppSegment::DpuToCpu));
    }
    assert!(
        retrieval[1] > retrieval[0],
        "serial retrieval should grow with DPUs: {retrieval:?}"
    );
}

#[test]
fn vpim_overhead_within_paper_regime_for_parallel_apps() {
    // §5.2: most apps sit between 1.01x and ~2.9x — for datasets that
    // fill the rank (small datasets are fixed-cost dominated, which is
    // exactly the paper's small-transfer story and tested elsewhere).
    let driver = testbed();
    let scale = prim::ScaleParams::of(1 << 22);
    for name in ["VA", "GEMV", "RED"] {
        let app = prim::by_name(name).expect("catalog");
        let native_t = {
            let mut set = DpuSet::alloc_native(&driver, 60, CostModel::default()).unwrap();
            app.run(&mut set, &scale, 3).unwrap();
            set.timeline().app_total()
        };
        let sys = VpimSystem::start(driver.clone(), VpimConfig::full(), StartOpts::default());
        let vm = sys.launch(TenantSpec::new("e2e")).unwrap();
        let mut set = DpuSet::alloc_vm(vm.frontends(), 60, CostModel::default()).unwrap();
        app.run(&mut set, &scale, 3).unwrap();
        let virt_t = set.timeline().app_total();
        let overhead = virt_t.ratio(native_t);
        assert!(overhead >= 1.0, "{name}: {overhead:.2}");
        assert!(overhead < 3.0, "{name}: overhead {overhead:.2} out of regime");
        drop(set);
        drop(vm);
        sys.shutdown();
    }
}

#[test]
fn checksum_microbenchmark_op_mix_matches_paper() {
    // §5.3.1: one write-to-rank, one read-from-rank per DPU, thousands of
    // CI operations.
    let driver = testbed();
    let sys = VpimSystem::start(driver, VpimConfig::full(), StartOpts::default());
    let vm = sys.launch(TenantSpec::new("ck")).unwrap();
    let mut set = DpuSet::alloc_vm(vm.frontends(), 60, CostModel::default()).unwrap();
    let run = microbench::Checksum::run(&mut set, 1 << 20, 11).unwrap();
    assert!(run.verified);
    let tl = set.timeline();
    // 1 parallel write + 60 reads (prefetch-served after the first miss
    // per DPU, but each DPU's first read still reaches the rank).
    assert!(tl.rank_ops() >= 61, "rank ops {}", tl.rank_ops());
    // CI polls dominate the message count.
    assert!(tl.messages() > 100, "messages {}", tl.messages());
    drop(set);
    drop(vm);
    sys.shutdown();
}
