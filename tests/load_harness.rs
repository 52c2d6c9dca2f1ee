//! Load-harness integration (ISSUE 6): seed-sweep determinism across
//! phase-A execution modes, exact closed-loop
//! totals, a chaos variant (fault plane armed, throughput degrades but
//! the report stays deterministic), and the 1k-session smoke behind
//! `ci/load-gate.sh`.
//!
//! The invariant under test everywhere: **same seed ⇒ bit-identical
//! [`LoadReport`]**, including the serialized `to_json()` form the gate
//! diffs across `RUST_TEST_THREADS` settings.

use std::sync::Arc;

use simkit::FaultPlan;
use upmem_driver::UpmemDriver;
use upmem_sim::PimMachine;
use vpim::load::{
    Arrival, Execution, LoadHarness, LoadReport, LoadSpec, OpOutcome, TenantMix, TenantOp,
    TenantProfile,
};
use vpim::{FaultSite, StartOpts, TenantSpec, VpimConfig, VpimSystem};
use vpim_system::loadmix;

fn host_with(vcfg: VpimConfig, ranks: usize) -> Arc<VpimSystem> {
    let machine = PimMachine::new(loadmix::load_host_config(ranks));
    loadmix::register_workloads(&machine);
    Arc::new(VpimSystem::start(Arc::new(UpmemDriver::new(machine)), vcfg, StartOpts::default()))
}

fn host(ranks: usize) -> Arc<VpimSystem> {
    host_with(VpimConfig::full(), ranks)
}

/// A one-profile mix with a fixed two-op script, for exact-total
/// assertions (every served session contributes exactly two ops).
fn two_op_mix() -> TenantMix {
    TenantMix::new().profile(
        TenantProfile::new("fixed", TenantSpec::new("fixed").mem_mib(16))
            .op(TenantOp::new(
                "write",
                Arc::new(|vm, seed| {
                    let data = vec![(seed & 0xff) as u8; 1024];
                    let r = vm.frontend(0).write_rank(&[(0, 0, &data)])?;
                    Ok(OpOutcome::new(r.duration(), seed))
                }),
            ))
            .op(TenantOp::new(
                "read",
                Arc::new(|vm, seed| {
                    let (data, r) = vm.frontend(0).read_rank(&[(0, 0, 512)])?;
                    let sum = data.iter().flatten().map(|&b| u64::from(b)).sum::<u64>();
                    Ok(OpOutcome::new(r.duration(), sum.wrapping_add(seed)))
                }),
            ))
            .think_mean_ns(800),
    )
}

#[test]
fn seed_sweep_is_bit_identical_across_execution_modes() {
    for seed in [1u64, 42, 0xF00D] {
        let spec = LoadSpec::new(seed, 10).arrival(Arrival::Poisson { mean_gap_ns: 3_000 });
        let seq =
            LoadHarness::run(&host(2), &spec.execution(Execution::Sequential), &loadmix::smoke_mix(4));
        let pooled_host = host(2);
        let pooled =
            LoadHarness::run(&pooled_host, &spec.execution(Execution::Pooled), &loadmix::smoke_mix(4));
        assert_eq!(seq, pooled, "seed {seed}: phase-A execution mode leaked into the report");
        assert_eq!(seq.to_json(), pooled.to_json());
        // A second round on the same host runs its sessions on the guest
        // RAM the first round's sessions released.
        let recycled =
            LoadHarness::run(&pooled_host, &spec.execution(Execution::Pooled), &loadmix::smoke_mix(4));
        assert_eq!(seq, recycled, "seed {seed}: a rerun on recycled guest RAM differs");
        assert_eq!(seq.seed, seed);
        assert_eq!(seq.completed, 10);
    }
}

#[test]
fn different_seeds_differ() {
    let mix = loadmix::smoke_mix(4);
    let a = LoadHarness::run(
        &host(2),
        &LoadSpec::new(1, 6).arrival(Arrival::Poisson { mean_gap_ns: 2_000 }),
        &mix,
    );
    let b = LoadHarness::run(
        &host(2),
        &LoadSpec::new(2, 6).arrival(Arrival::Poisson { mean_gap_ns: 2_000 }),
        &mix,
    );
    assert_ne!(a, b, "the report must be seed-sensitive");
}

#[test]
fn closed_loop_totals_are_exact() {
    let sys = host(2);
    let n = 9usize;
    let spec = LoadSpec::new(5, n).arrival(Arrival::Uniform { gap_ns: 1_000 });
    let report = LoadHarness::run(&sys, &spec, &two_op_mix());

    // Every session is served; the single profile scripts exactly 2 ops.
    assert_eq!(report.sessions, n as u64);
    assert_eq!(report.completed, n as u64);
    assert_eq!(report.giveups, 0);
    assert_eq!(report.launch_failures, 0);
    assert_eq!(report.ops_run, 2 * n as u64);
    assert_eq!(report.op_failures, 0);
    assert_eq!(report.per_op.len(), 2);
    let op_count: u64 =
        report.per_op.iter().map(|o| o.latency.count + o.failures).sum();
    assert_eq!(op_count, report.ops_run);
    assert_eq!(report.session_latency.count, n as u64);
    assert!(report.session_latency.p999 >= report.session_latency.p99);
    assert!(report.session_latency.p99 >= report.session_latency.p50);

    // Host-registry mirror agrees with the report.
    let snap = sys.registry().snapshot();
    assert_eq!(snap.count("load.sessions.offered"), n as u64);
    assert_eq!(snap.count("load.sessions.completed"), n as u64);
    assert_eq!(snap.count("load.ops.run"), 2 * n as u64);
    assert_eq!(snap.count("load.ops.failed"), 0);
}

#[test]
fn patience_sheds_load_deterministically() {
    // One server, back-to-back arrivals, tiny patience: the queue must
    // shed — and identically so under both execution modes.
    let spec = LoadSpec::new(3, 8)
        .arrival(Arrival::Uniform { gap_ns: 10 })
        .servers(1)
        .patience(simkit::VirtualNanos::from_nanos(5_000));
    let a = LoadHarness::run(&host(2), &spec.execution(Execution::Sequential), &two_op_mix());
    let b = LoadHarness::run(&host(2), &spec.execution(Execution::Pooled), &two_op_mix());
    assert_eq!(a, b);
    assert!(a.giveups > 0, "patience never triggered: {a:?}");
    assert_eq!(a.completed + a.giveups, 8);
    assert!(a.peak_queue_depth > 0);
}

#[test]
fn chaos_variant_degrades_but_stays_deterministic() {
    // Arm the torn-chunk-write site probabilistically. Its hits are keyed
    // (pure in the request's chunk key, not a serial counter), so the
    // injection decisions — and hence the report — cannot depend on
    // thread interleaving.
    let chaos_host = || {
        let sys = host_with(VpimConfig::builder().inject_seed(0xBAD_5EED).build(), 2);
        sys.fault_plane()
            .expect("inject enabled")
            .arm(FaultSite::ChunkTornWrite.name(), FaultPlan::EveryK(1));
        sys
    };
    let spec = LoadSpec::new(21, 8).arrival(Arrival::OnOff {
        mean_gap_ns: 500,
        burst: 4,
        off_gap_ns: 20_000,
    });
    let a = LoadHarness::run(&chaos_host(), &spec.execution(Execution::Sequential), &two_op_mix());
    let b = LoadHarness::run(&chaos_host(), &spec.execution(Execution::Pooled), &two_op_mix());
    assert_eq!(a, b, "chaos run depends on phase-A execution mode");
    assert_eq!(a.sessions, 8);
    assert!(a.op_failures > 0, "armed fault plane never bit: {a:?}");

    // And throughput degraded relative to a clean host on the same spec.
    let clean = LoadHarness::run(&host(2), &spec.execution(Execution::Pooled), &two_op_mix());
    assert_ne!(a, clean, "armed fault plane left no trace in the report");
    assert_eq!(clean.op_failures, 0);
}

/// The 1k-session smoke behind `ci/load-gate.sh`: ≥ 1000 sessions live
/// concurrently in virtual time, and the canonical JSON is written to
/// `$LOAD_REPORT_OUT` so the gate can diff it across
/// `RUST_TEST_THREADS=1` and `=8`.
#[test]
#[ignore = "release-mode smoke; run via ci/load-gate.sh"]
fn thousand_concurrent_sessions_smoke() {
    let spec = LoadSpec::new(0x10AD, 1_000)
        .arrival(Arrival::OnOff { mean_gap_ns: 50, burst: 100, off_gap_ns: 2_000 })
        .servers(32)
        .workers(8);
    let par = LoadHarness::run(
        &host(4),
        &spec.execution(Execution::Pooled),
        &loadmix::smoke_mix(4),
    );
    assert_eq!(par.sessions, 1_000);
    assert_eq!(par.completed + par.giveups + par.launch_failures, 1_000);
    assert!(
        par.peak_concurrent >= 1_000,
        "expected >= 1000 concurrent sessions in virtual time, got {}",
        par.peak_concurrent
    );
    assert!(par.op_failures == 0, "clean run must verify: {par:?}");

    let json = par.to_json();
    if let Ok(path) = std::env::var("LOAD_REPORT_OUT") {
        std::fs::write(&path, &json).expect("write LOAD_REPORT_OUT");
    }
    // Exercise the parse direction the gate relies on: the JSON is stable
    // line-noise-free ASCII.
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"peak_concurrent\""));
    let _: LoadReport = par; // keep the type in the public API
}

#[test]
fn persistent_kv_mix_is_deterministic_with_faults_armed() {
    use vpim::{PheapOptions, PHEAP_WAL_TORN_POINT};

    // One persistent-KV tenant (multi-transaction pheap episodes) next to
    // a plain write tenant. With `pheap.wal.torn` armed `Nth(4)`, every
    // episode's fourth (last non-noop) persist tears (persist faults are
    // keyed purely by transaction sequence, identical in every mode)
    // while the plain tenant sails through — the report must contain both
    // failures and successes, bit-identically across phase-A execution
    // modes.
    let plain = || {
        TenantProfile::new("plain", TenantSpec::new("plain").mem_mib(16)).op(TenantOp::new(
            "write",
            Arc::new(|vm, seed| {
                let data = vec![(seed & 0xff) as u8; 2048];
                let r = vm.frontend(0).write_rank(&[(0, 4096, &data)])?;
                Ok(OpOutcome::new(r.duration(), seed.rotate_left(7)))
            }),
        ))
    };
    let spec = LoadSpec::new(33, 10).arrival(Arrival::Poisson { mean_gap_ns: 4_000 });

    let run_armed = |exec: Execution| {
        let sys = host_with(VpimConfig::builder().inject_seed(0x9EA9_5EED).build(), 2);
        sys.fault_plane().expect("inject enabled").arm(PHEAP_WAL_TORN_POINT, FaultPlan::Nth(4));
        let mix = TenantMix::new()
            .profile(loadmix::pheap_kv_profile(PheapOptions::new().attach(&sys)))
            .profile(plain());
        LoadHarness::run(&sys, &spec.execution(exec), &mix)
    };
    let a = run_armed(Execution::Sequential);
    let b = run_armed(Execution::Pooled);
    assert_eq!(a, b, "armed KV run depends on phase-A execution mode");
    assert_eq!(a.sessions, 10);
    assert!(a.op_failures > 0, "torn persists never surfaced: {a:?}");

    // Clean variant: same mix without the fault plane — every episode
    // recovers and verifies, still bit-identically across modes.
    let run_clean = |exec: Execution| {
        let sys = host(2);
        let mix = TenantMix::new()
            .profile(loadmix::pheap_kv_profile(PheapOptions::new().attach(&sys)))
            .profile(plain());
        LoadHarness::run(&sys, &spec.execution(exec), &mix)
    };
    let x = run_clean(Execution::Pooled);
    let y = run_clean(Execution::Sequential);
    assert_eq!(x, y, "clean KV run depends on phase-A execution mode");
    assert_eq!(x.op_failures, 0, "clean KV episodes must verify: {x:?}");
    assert!(x.checksum != 0);
    assert_ne!(a, x, "armed run left no trace in the report");
}
