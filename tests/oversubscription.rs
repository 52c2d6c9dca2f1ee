//! Oversubscription end-to-end: more tenant VMs than physical ranks,
//! time-shared by the `vpim::sched` scheduler through checkpoint/restore
//! preemption.
//!
//! The load-bearing assertion is *bit-identity*: every tenant's final
//! MRAM contents after an oversubscribed run (8 VMs on 4 ranks, constant
//! preemption churn) must equal the same tenant's contents after a
//! dedicated run (one rank per device, scheduler in pass-through mode),
//! under both dispatch modes: sequential (one-device tenants, each handler
//! on the kicking thread) and parallel (two-device tenants, each device's
//! handler on its own lane).

use std::sync::Arc;
use std::time::{Duration, Instant};

use simkit::FaultPlan;
use upmem_driver::UpmemDriver;
use upmem_sim::{PimConfig, PimMachine};
use vpim::{FaultSite, StartOpts, TenantSpec, VpimConfig, VpimSystem};

const ROUNDS: usize = 4;
const DPUS: [u32; 2] = [0, 3];
const CHUNK: u64 = 2048;

fn host(ranks: usize) -> Arc<UpmemDriver> {
    let machine = PimMachine::new(PimConfig {
        ranks,
        functional_dpus: vec![8; ranks],
        mram_size: 1 << 20,
        ..PimConfig::small()
    });
    Arc::new(UpmemDriver::new(machine))
}

/// The bytes tenant `vm` writes for `dpu` in `round` — unique per
/// (tenant, dpu, round) so any cross-tenant leak or torn restore shows.
fn pattern(vm: usize, dpu: u32, round: usize) -> Vec<u8> {
    let seed = (vm * 97 + dpu as usize * 13 + round * 5) as u32;
    (0..CHUNK as usize)
        .map(|i| (seed.wrapping_mul(2654435761).wrapping_add(i as u32) >> 8) as u8)
        .collect()
}

/// Runs `vms` tenants of `devices` devices each over `ranks` ranks: each
/// round every tenant appends a fresh chunk per DPU of its device 0 and
/// re-reads *all* chunks it has written so far (so restored checkpoints
/// are verified every round, not just at the end). Returns each tenant's
/// final full read-back.
fn run_tenants(vcfg: VpimConfig, ranks: usize, vms: usize, devices: usize) -> Vec<Vec<Vec<u8>>> {
    let sys = VpimSystem::start(host(ranks), vcfg, StartOpts::default());
    let tenants: Vec<_> = (0..vms)
        .map(|v| sys.launch(TenantSpec::new(format!("vm-{v}")).devices(devices)).unwrap())
        .collect();
    // Interleave rounds across tenants: with vms > ranks every operation
    // of an unlinked tenant preempts someone else's rank.
    for round in 0..ROUNDS {
        for (v, vm) in tenants.iter().enumerate() {
            let fe = vm.frontend(0);
            let datas: Vec<Vec<u8>> = DPUS.iter().map(|&d| pattern(v, d, round)).collect();
            let writes: Vec<(u32, u64, &[u8])> = DPUS
                .iter()
                .zip(&datas)
                .map(|(&d, data)| (d, round as u64 * CHUNK, data.as_slice()))
                .collect();
            fe.write_rank(&writes).unwrap();
            // Everything this tenant ever wrote must still be there,
            // even though its rank was likely lent out in between.
            let reads: Vec<(u32, u64, u64)> = DPUS
                .iter()
                .flat_map(|&d| (0..=round).map(move |r| (d, r as u64 * CHUNK, CHUNK)))
                .collect();
            let (outs, _) = fe.read_rank(&reads).unwrap();
            for (k, &d) in DPUS.iter().enumerate() {
                for r in 0..=round {
                    assert_eq!(
                        outs[k * (round + 1) + r],
                        pattern(v, d, r),
                        "vm-{v} dpu {d}: round-{r} chunk corrupted during round {round}"
                    );
                }
            }
        }
    }
    let finals = tenants
        .iter()
        .map(|vm| {
            let fe = vm.frontend(0);
            let reads: Vec<(u32, u64, u64)> =
                DPUS.iter().map(|&d| (d, 0, ROUNDS as u64 * CHUNK)).collect();
            let (outs, _) = fe.read_rank(&reads).unwrap();
            outs
        })
        .collect();
    let stats = sys.scheduler().stats();
    if vms * devices > ranks {
        assert!(
            stats.preemptions > 0,
            "oversubscribed run must have preempted: {stats:?}"
        );
        assert!(
            stats.restores > 0,
            "preempted tenants must have been restored: {stats:?}"
        );
    } else {
        assert_eq!(stats.preemptions, 0, "dedicated run must not preempt: {stats:?}");
    }
    assert_eq!(sys.scheduler().queue_depth(), 0, "no tenant left queued");
    drop(tenants);
    sys.shutdown();
    finals
}

fn oversub_matches_dedicated(devices: usize) {
    let base = VpimConfig::builder().batching(false).prefetch(false);
    let dedicated = run_tenants(base.clone().build(), 8 * devices, 8, devices);
    let oversub = run_tenants(
        base.oversubscription(true).sched_quantum_ms(0).build(),
        4,
        8,
        devices,
    );
    assert_eq!(
        dedicated, oversub,
        "per-tenant payloads must be bit-identical with and without rank time-sharing"
    );
}

#[test]
fn eight_vms_on_four_ranks_sequential_dispatch() {
    oversub_matches_dedicated(1);
}

#[test]
fn eight_vms_on_four_ranks_parallel_dispatch() {
    oversub_matches_dedicated(2);
}

#[test]
fn weighted_fair_oversubscription_completes() {
    let vcfg = VpimConfig::builder()
        .batching(false)
        .prefetch(false)
        .oversubscription(true)
        .sched_policy(vpim::SchedPolicy::WeightedFair)
        .sched_quantum_ms(0)
        .build();
    let finals = run_tenants(vcfg, 2, 4, 1);
    for (v, outs) in finals.iter().enumerate() {
        for (k, &d) in DPUS.iter().enumerate() {
            for r in 0..ROUNDS {
                let lo = r * CHUNK as usize;
                assert_eq!(
                    &outs[k][lo..lo + CHUNK as usize],
                    pattern(v, d, r).as_slice(),
                    "vm-{v} dpu {d} round {r}"
                );
            }
        }
    }
}

#[test]
fn scheduler_telemetry_is_published() {
    let vcfg = VpimConfig::builder()
        .batching(false)
        .prefetch(false)
        .oversubscription(true)
        .sched_quantum_ms(0)
        .build();
    let sys = VpimSystem::start(host(1), vcfg, StartOpts::default());
    let a = sys.launch(TenantSpec::new("vm-a")).unwrap();
    let b = sys.launch(TenantSpec::new("vm-b")).unwrap();
    // Bounce the rank between the tenants a few times.
    for round in 0..3u8 {
        a.frontend(0).write_rank(&[(0, 0, &[round; 64])]).unwrap();
        b.frontend(0).write_rank(&[(0, 0, &[round ^ 0xFF; 64])]).unwrap();
    }
    let snap = sys.registry().snapshot();
    assert!(snap.count("sched.grants") >= 2, "{snap:?}");
    assert!(snap.count("sched.preemptions") >= 1, "{snap:?}");
    assert!(snap.count("sched.restores") >= 1, "{snap:?}");
    assert_eq!(snap.level("sched.queue.depth"), 0, "{snap:?}");
    // Per-tenant wait-latency histograms exist and saw every grant.
    let waits: u64 = ["vm-a/vupmem0", "vm-b/vupmem0"]
        .iter()
        .map(|t| match snap.get(&format!("sched.wait.{t}")) {
            Some(simkit::MetricValue::Histogram { count, total, .. }) => {
                assert!(*total > simkit::VirtualNanos::ZERO);
                *count
            }
            other => panic!("missing wait histogram for {t}: {other:?}"),
        })
        .sum();
    assert_eq!(waits, snap.count("sched.grants"), "every grant records a wait sample");
    drop((a, b));
    sys.shutdown();
}

/// A wall-clock stall injected at the checkpoint safe point must change
/// *nothing* observable: tenants park and restore bit-identically, the
/// preemption schedule is unchanged, and the exact `sched.preemptions` /
/// `sched.restores` totals match the un-stalled run (virtual time never
/// sees the stall).
#[test]
fn checkpoint_stall_injection_preserves_bit_identical_time_sharing() {
    let run = |stall: bool| {
        let mut builder = VpimConfig::builder()
            .batching(false)
            .prefetch(false)
            .oversubscription(true)
            .sched_quantum_ms(0)
            .inject_seed(0x5CED);
        if stall {
            builder = builder.inject_fault(FaultSite::CkptStall, FaultPlan::EveryK(1));
        }
        let sys = VpimSystem::start(host(1), builder.build(), StartOpts::default());
        let a = sys.launch(TenantSpec::new("vm-a")).unwrap();
        let b = sys.launch(TenantSpec::new("vm-b")).unwrap();
        for round in 0..3usize {
            for (v, vm) in [(0usize, &a), (1usize, &b)] {
                let fe = vm.frontend(0);
                let data = pattern(v, 0, round);
                fe.write_rank(&[(0, round as u64 * CHUNK, &data)]).unwrap();
                // Every chunk written so far survived the park/restore.
                let reads: Vec<(u32, u64, u64)> =
                    (0..=round).map(|r| (0, r as u64 * CHUNK, CHUNK)).collect();
                let (outs, _) = fe.read_rank(&reads).unwrap();
                assert_eq!(outs.len(), round + 1);
                for (r, out) in outs.iter().enumerate() {
                    assert_eq!(*out, pattern(v, 0, r), "vm-{v} round {r} (stall={stall})");
                }
            }
        }
        let stats = sys.scheduler().stats();
        let snap = sys.registry().snapshot();
        assert_eq!(snap.count("sched.preemptions"), stats.preemptions, "{snap:?}");
        assert_eq!(snap.count("sched.restores"), stats.restores, "{snap:?}");
        if stall {
            let plane = sys.fault_plane().expect("inject enabled");
            let st = plane.point_stats(vpim::CKPT_STALL_POINT).unwrap();
            assert_eq!(st.hits, stats.preemptions, "one stall probe per checkpoint");
            assert_eq!(st.fired, st.hits, "EveryK(1) stalls every checkpoint");
        }
        let finals: Vec<Vec<u8>> = [&a, &b]
            .iter()
            .map(|vm| {
                let (mut outs, _) = vm.frontend(0).read_rank(&[(0, 0, 3 * CHUNK)]).unwrap();
                outs.remove(0)
            })
            .collect();
        drop((a, b));
        sys.shutdown();
        (finals, stats.preemptions, stats.restores)
    };

    let (clean, p0, r0) = run(false);
    let (stalled, p1, r1) = run(true);
    assert_eq!(clean, stalled, "stalled checkpoints must restore bit-identically");
    assert_eq!((p0, r0), (p1, r1), "stall must not change the preemption schedule");
    assert_eq!((p1, r1), (7, 6), "exact preemption/restore totals");
}

#[test]
fn voluntary_release_evicts_parked_checkpoint_and_unblocks_waiters() {
    let vcfg = VpimConfig::builder()
        .batching(false)
        .prefetch(false)
        .oversubscription(true)
        .sched_quantum_ms(0)
        .build();
    let sys = VpimSystem::start(host(1), vcfg, StartOpts::default());
    let a = sys.launch(TenantSpec::new("vm-a")).unwrap();
    let b = sys.launch(TenantSpec::new("vm-b")).unwrap();
    a.frontend(0).write_rank(&[(0, 0, &[0xAA; 128])]).unwrap();
    // vm-b's write preempts vm-a: vm-a's state is parked.
    b.frontend(0).write_rank(&[(0, 0, &[0xBB; 128])]).unwrap();
    assert!(sys.scheduler().store().contains("vm-a/vupmem0"));
    // vm-a shuts down without ever coming back: its checkpoint is dropped.
    a.release_all().unwrap();
    assert!(
        !sys.scheduler().store().contains("vm-a/vupmem0"),
        "release must evict the parked checkpoint"
    );
    assert_eq!(sys.scheduler().store().used_bytes(), 0);
    // vm-b still works (and still owns the rank or can reacquire it).
    let (outs, _) = b.frontend(0).read_rank(&[(0, 0, 128)]).unwrap();
    assert_eq!(outs[0], vec![0xBB; 128]);
    drop((a, b));
    sys.shutdown();
}

/// An oversubscribed preemption never sits in the manager's wait: under
/// the production manager tuning (a 1 s dedicated-mode budget) the queue
/// head's probe answers at once, so the one preemption vm-b's launch needs
/// happens without delay.
#[test]
fn preemption_does_not_wait_out_the_manager_budget() {
    let vcfg = VpimConfig::builder()
        .batching(false)
        .prefetch(false)
        .oversubscription(true)
        .sched_quantum_ms(0)
        .build();
    let sys = VpimSystem::start(host(1), vcfg, StartOpts::default());
    let a = sys.launch(TenantSpec::new("vm-a").mem_mib(16)).unwrap();
    a.frontend(0).write_rank(&[(0, 0, &[0xA5; 64])]).unwrap();
    let t = Instant::now();
    let b = sys.launch(TenantSpec::new("vm-b").mem_mib(16)).unwrap();
    let took = t.elapsed();
    assert_eq!(sys.scheduler().stats().preemptions, 1);
    assert!(took < Duration::from_millis(500), "vm-b's launch took {took:?}");
    drop((a, b));
    sys.shutdown();
}
