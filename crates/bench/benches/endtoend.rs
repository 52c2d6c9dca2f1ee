//! Criterion: end-to-end wall time of whole operations through the stack,
//! plus ablations of the two frontend optimizations (the real-time
//! counterpart of Fig. 14's virtual-time ladder).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simkit::CostModel;
use upmem_driver::UpmemDriver;
use upmem_sdk::DpuSet;
use upmem_sim::{PimConfig, PimMachine};
use vpim::{Variant, StartOpts, TenantSpec, VpimConfig, VpimSystem};

fn host() -> Arc<UpmemDriver> {
    let machine = PimMachine::new(PimConfig {
        ranks: 2,
        functional_dpus: vec![8, 8],
        mram_size: 4 << 20,
        ..PimConfig::small()
    });
    microbench::Checksum::register(&machine);
    Arc::new(UpmemDriver::new(machine))
}

fn bench_checksum_transports(c: &mut Criterion) {
    let mut group = c.benchmark_group("checksum_64KiB_8dpus");
    group.sample_size(20);
    // Native.
    {
        let driver = host();
        group.bench_function("native", |b| {
            b.iter(|| {
                let mut set = DpuSet::alloc_native(&driver, 8, CostModel::default()).unwrap();
                let run = microbench::Checksum::run(&mut set, 64 << 10, 7).unwrap();
                assert!(run.verified);
            });
        });
    }
    // Full vPIM (VM reused across iterations; the op is what we measure).
    {
        let driver = host();
        let sys = VpimSystem::start(driver, VpimConfig::full(), StartOpts::default());
        let vm = sys.launch(TenantSpec::new("bench")).unwrap();
        group.bench_function("vpim", |b| {
            b.iter(|| {
                let mut set =
                    DpuSet::alloc_vm(vm.frontends(), 8, CostModel::default()).unwrap();
                let run = microbench::Checksum::run(&mut set, 64 << 10, 7).unwrap();
                assert!(run.verified);
            });
        });
        drop(vm);
        sys.shutdown();
    }
    group.finish();
}

fn bench_small_write_ablation(c: &mut Criterion) {
    // 128 small writes: with batching they collapse into a few messages,
    // without it each one crosses the virtqueue (more real work too).
    let mut group = c.benchmark_group("small_writes_x128");
    group.sample_size(20);
    for (label, variant) in [("batching", Variant::VpimB), ("no_batching", Variant::VpimC)] {
        let driver = host();
        let sys = VpimSystem::start(driver, VpimConfig::variant_config(variant), StartOpts::default());
        let vm = sys.launch(TenantSpec::new("bench")).unwrap();
        let mut set = DpuSet::alloc_vm(vm.frontends(), 8, CostModel::default()).unwrap();
        let payload = vec![0x5Au8; 160];
        group.bench_with_input(BenchmarkId::new(label, 128), &payload, |b, payload| {
            b.iter(|| {
                for i in 0..128u64 {
                    set.copy_to_heap((i % 8) as usize, 4096 + (i / 8) * 256, payload)
                        .unwrap();
                }
            });
        });
        // The telemetry registry is the source of truth for what the
        // variant actually did — merges collapse messages when batching is
        // on, and stay at zero when it is off.
        let snap = sys.registry().snapshot();
        eprintln!(
            "small_writes_x128/{label}: {} appends, {} merges, {} vmexits",
            snap.count("frontend.batch.appends"),
            snap.count("frontend.batch.merges"),
            snap.count("vmm.vmexits"),
        );
        drop(set);
        drop(vm);
        sys.shutdown();
    }
    group.finish();
}

fn bench_small_read_ablation(c: &mut Criterion) {
    // 128 small reads over a contiguous region: the prefetch cache serves
    // most from the guest side.
    let mut group = c.benchmark_group("small_reads_x128");
    group.sample_size(20);
    for (label, variant) in [("prefetch", Variant::VpimP), ("no_prefetch", Variant::VpimC)] {
        let driver = host();
        let sys = VpimSystem::start(driver, VpimConfig::variant_config(variant), StartOpts::default());
        let vm = sys.launch(TenantSpec::new("bench")).unwrap();
        let mut set = DpuSet::alloc_vm(vm.frontends(), 8, CostModel::default()).unwrap();
        set.copy_to_heap(0, 0, &vec![9u8; 64 << 10]).unwrap();
        group.bench_function(BenchmarkId::new(label, 128), |b| {
            b.iter(|| {
                for i in 0..128u64 {
                    let v = set.copy_from_heap(0, (i % 256) * 64, 64).unwrap();
                    assert_eq!(v.len(), 64);
                }
            });
        });
        let snap = sys.registry().snapshot();
        eprintln!(
            "small_reads_x128/{label}: {} prefetch hits, {} misses, {} IRQs",
            snap.count("frontend.prefetch.hits"),
            snap.count("frontend.prefetch.misses"),
            snap.count("virtio.irq.injections"),
        );
        drop(set);
        drop(vm);
        sys.shutdown();
    }
    group.finish();
}

fn bench_dpu_launch(c: &mut Criterion) {
    // Kernel execution engine throughput (the simulator itself).
    let driver = host();
    let mut set = DpuSet::alloc_native(&driver, 8, CostModel::default()).unwrap();
    set.load(microbench::Checksum::KERNEL).unwrap();
    let bufs: Vec<Vec<u8>> = (0..8).map(|_| vec![1u8; 32 << 10]).collect();
    set.push_to_heap(4096, &bufs).unwrap();
    for d in 0..8 {
        set.set_symbol_u32(d, "nbytes", 32 << 10).unwrap();
    }
    let mut group = c.benchmark_group("dpu_engine");
    group.sample_size(20);
    group.bench_function("launch_8dpus_32KiB", |b| {
        b.iter(|| set.launch(16).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_checksum_transports,
    bench_small_write_ablation,
    bench_small_read_ablation,
    bench_dpu_launch
);
criterion_main!(benches);
