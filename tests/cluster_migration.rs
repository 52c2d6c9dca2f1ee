//! The fleet plane's contract (ISSUE 8): placement invariants, live
//! migration bit-identity inline and on a lane, rollback on injected
//! mid-migration faults, and exact `cluster.*` / `migrate.*` telemetry.
//!
//! The chaos sweep seed set is fixed (eight seeds, in-loop) so a failure
//! names its seed and reproduces without environment setup.

use std::collections::HashMap;

use proptest::prelude::*;
use simkit::{ErrorKind, FaultPlan, HasErrorKind, VirtualNanos};
use vpim::cluster::{Fleet, FleetSpec};
use vpim::{FaultSite, TenantSpec, VpimConfig, VpimError};

fn payload(dpu: u32, len: usize, salt: u64) -> Vec<u8> {
    (0..len)
        .map(|i| {
            let x = (u64::from(dpu) << 32) ^ (i as u64) ^ salt.wrapping_mul(0x9e37_79b9);
            (x.wrapping_mul(2_654_435_761) >> 16) as u8
        })
        .collect()
}

/// A lean per-host config: no soft-state caches.
fn lean_vcfg() -> VpimConfig {
    VpimConfig::builder().batching(false).prefetch(false).build()
}

/// Writes a distinct payload to every DPU of the tenant's device 0.
fn write_state(fleet: &Fleet, tenant: &str, len: usize, salt: u64) -> Vec<Vec<u8>> {
    let datas: Vec<Vec<u8>> = (0..4).map(|d| payload(d, len, salt)).collect();
    fleet
        .with_vm(tenant, |vm| {
            let writes: Vec<(u32, u64, &[u8])> =
                datas.iter().enumerate().map(|(d, v)| (d as u32, 0, v.as_slice())).collect();
            vm.frontend(0).write_rank(&writes).map(|_| ())
        })
        .unwrap();
    datas
}

/// Reads back what [`write_state`] wrote, with the op's virtual cost.
fn read_state(fleet: &Fleet, tenant: &str, len: usize) -> (Vec<Vec<u8>>, VirtualNanos) {
    fleet
        .with_vm(tenant, |vm| {
            let reads: Vec<(u32, u64, u64)> = (0..4).map(|d| (d, 0, len as u64)).collect();
            let (outs, report) = vm.frontend(0).read_rank(&reads)?;
            Ok((outs, report.duration()))
        })
        .unwrap()
}

// ------------------------------------------------------------ bit identity

/// The tentpole contract: a migrated tenant's rank state and op costs are
/// bit-identical to a never-migrated control, whether device 0's handler
/// runs inline (a one-device tenant) or on its lane (a two-device tenant),
/// and the state and costs agree across the two.
#[test]
fn migration_is_bit_identical_across_dispatch_modes() {
    let seed = 0x5EED_0001u64;
    let mut per_mode = Vec::new();
    for devices in [1, 2] {
        let spec = || FleetSpec::new(2).config(lean_vcfg());
        let migrated = Fleet::start(spec());
        let control = Fleet::start(spec());
        for fleet in [&migrated, &control] {
            assert_eq!(fleet.launch(TenantSpec::new("t").devices(devices)).unwrap(), 0);
            write_state(fleet, "t", 8192, seed);
        }

        let report = migrated.migrate("t", 1).unwrap();
        assert_eq!((report.from, report.to), (0, 1));
        assert_eq!(report.ranks_moved, devices, "{report:?}");
        assert_eq!(migrated.host_of("t"), Some(1));
        assert!(report.bytes_shipped >= 4 * 8192, "{report:?}");
        assert!(report.downtime > VirtualNanos::ZERO);

        // Same bytes, same read cost, on both fleets — then again after a
        // post-migration write (the moved rank is fully writable).
        let (m_out, m_cost) = read_state(&migrated, "t", 8192);
        let (c_out, c_cost) = read_state(&control, "t", 8192);
        assert_eq!(m_out, c_out, "devices={devices}: migrated state diverged");
        assert_eq!(m_cost, c_cost, "devices={devices}: op cost diverged");
        let m2 = write_state(&migrated, "t", 2048, !seed);
        let c2 = write_state(&control, "t", 2048, !seed);
        assert_eq!(m2, c2);
        let (m_out2, _) = read_state(&migrated, "t", 2048);
        let (c_out2, _) = read_state(&control, "t", 2048);
        assert_eq!(m_out2, c_out2);

        // Exact fleet telemetry.
        let snap = migrated.registry().snapshot();
        assert_eq!(snap.count("cluster.link.bytes"), report.bytes_shipped);
        assert_eq!(snap.count("cluster.link.transfers"), report.ranks_moved as u64);
        assert_eq!(snap.count("migrate.attempts"), 1);
        assert_eq!(snap.count("migrate.completed"), 1);
        assert_eq!(snap.count("migrate.aborted"), 0);
        assert_eq!(snap.count("migrate.bytes"), report.bytes_shipped);
        assert_eq!(snap.level("migrate.inflight.bytes"), 0, "no snapshot left in flight");
        assert_eq!(migrated.registry().histogram("migrate.downtime").count(), 1);

        per_mode.push((m_out, m_cost, m_out2));
        migrated.shutdown();
        control.shutdown();
    }
    assert_eq!(per_mode[0], per_mode[1], "dispatch modes must agree bit-for-bit");
}

/// Stop-and-copy's cost is the sum of its parts: every source rank's
/// resident bytes cross the link once, and the downtime is the snapshot,
/// the wire, the destination boot and the restore, each charged at the
/// host cost model's (or the link's) rate. A two-device tenant makes each
/// sum run over more than one rank; device 1 holds no state.
#[test]
fn stop_and_copy_cost_is_snapshot_ship_boot_restore() {
    let fleet = Fleet::start(FleetSpec::new(2).config(lean_vcfg()));
    assert_eq!(fleet.launch(TenantSpec::new("t").devices(2)).unwrap(), 0);
    write_state(&fleet, "t", 8192, 0x5EED_0003);
    let resident: Vec<u64> = fleet
        .with_vm("t", |vm| {
            vm.devices()
                .iter()
                .map(|dev| {
                    let guard = dev.backend().ensure_linked()?;
                    let mapping = guard.as_ref().ok_or(VpimError::NotLinked)?;
                    Ok(mapping.rank().resident_bytes() as u64)
                })
                .collect()
        })
        .unwrap();
    assert_eq!(resident.len(), 2);
    assert!(resident[0] >= 4 * 8192, "{resident:?}");

    let report = fleet.migrate("t", 1).unwrap();
    let cm = fleet.host(0).system().cost_model();
    let boot = fleet.with_vm("t", |vm| Ok(vm.boot_report().total())).unwrap();
    let mut downtime = boot;
    for &b in &resident {
        downtime += cm.rank_snapshot(b) + fleet.link().transfer_cost(b) + cm.rank_restore(b);
    }
    assert_eq!(report.bytes_shipped, resident.iter().sum::<u64>(), "{report:?}");
    assert_eq!(report.downtime, downtime, "{report:?}");
    fleet.shutdown();
}

// ---------------------------------------------------------------- rollback

/// A severed link aborts the migration and rolls everything back: the
/// tenant keeps running on the source with intact state, the destination
/// reservation is returned, nothing is left in flight — and the retry
/// (schedule exhausted) completes normally.
#[test]
fn link_drop_aborts_and_rolls_back_then_retry_succeeds() {
    let vcfg = VpimConfig::builder()
        .batching(false)
        .prefetch(false)
        .inject_seed(0xD20)
        .inject_fault(FaultSite::LinkDrop, FaultPlan::Nth(1))
        .build();
    let fleet = Fleet::start(FleetSpec::new(2).config(vcfg));
    fleet.launch(TenantSpec::new("t")).unwrap();
    let datas = write_state(&fleet, "t", 4096, 0xD20);

    let err = fleet.migrate("t", 1).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Injected, "{err}");
    assert_eq!(fleet.host_of("t"), Some(0), "tenant must stay homed on the source");
    assert_eq!(fleet.live_ranks(1), 0, "destination reservation must be returned");
    let snap = fleet.registry().snapshot();
    assert_eq!(snap.count("migrate.aborted"), 1);
    assert_eq!(snap.count("migrate.completed"), 0);
    assert_eq!(snap.count("cluster.link.drops"), 1);
    assert_eq!(snap.level("migrate.inflight.bytes"), 0, "no torn in-flight state");
    let (out, _) = read_state(&fleet, "t", 4096);
    assert_eq!(out, datas, "source state untouched by the aborted attempt");

    // Nth(1) is exhausted: the retry goes through.
    let report = fleet.migrate("t", 1).unwrap();
    assert_eq!(report.to, 1);
    assert_eq!(fleet.host_of("t"), Some(1));
    assert_eq!(fleet.live_ranks(0), 0);
    let (out, _) = read_state(&fleet, "t", 4096);
    assert_eq!(out, datas);
    let snap = fleet.registry().snapshot();
    assert_eq!(snap.count("migrate.attempts"), 2);
    assert_eq!(snap.count("migrate.completed"), 1);
    fleet.shutdown();
}

/// An injected migration stall is wall-clock only: the migration still
/// completes, and its report is bit-identical to an unstalled fleet's.
#[test]
fn migrate_stall_never_perturbs_virtual_time() {
    let clean = Fleet::start(FleetSpec::new(2).config(lean_vcfg()));
    let stalled_vcfg = VpimConfig::builder()
        .batching(false)
        .prefetch(false)
        .inject_seed(0x5_7A11)
        .inject_fault(FaultSite::MigrateStall, FaultPlan::EveryK(1))
        .build();
    let stalled = Fleet::start(FleetSpec::new(2).config(stalled_vcfg));
    for fleet in [&clean, &stalled] {
        fleet.launch(TenantSpec::new("t")).unwrap();
        write_state(fleet, "t", 4096, 0x5_7A11);
    }
    let clean_report = clean.migrate("t", 1).unwrap();
    let stalled_report = stalled.migrate("t", 1).unwrap();
    assert_eq!(stalled_report, clean_report, "wall stalls must not leak into virtual time");
    let stats = stalled
        .fault_plane()
        .expect("inject enabled")
        .point_stats(FaultSite::MigrateStall.name())
        .unwrap();
    assert_eq!((stats.hits, stats.fired), (1, 1), "{stats:?}");
    clean.shutdown();
    stalled.shutdown();
}

/// Exceeding the in-flight snapshot budget aborts the migration cleanly:
/// partial parks are evicted, the destination is rolled back, and the
/// tenant keeps its source home and state.
#[test]
fn inflight_budget_violation_aborts_cleanly() {
    let fleet = Fleet::start(FleetSpec::new(2).config(lean_vcfg()).inflight_budget_mib(1));
    fleet.launch(TenantSpec::new("t")).unwrap();
    // 4 × 320 KiB of resident state > the 1 MiB in-flight budget.
    let datas = write_state(&fleet, "t", 320 << 10, 0xB1D);

    let err = fleet.migrate("t", 1).unwrap_err();
    assert!(matches!(&err, VpimError::BadRequest(m) if m.contains("budget")), "{err}");
    assert_eq!(fleet.host_of("t"), Some(0));
    assert_eq!(fleet.live_ranks(1), 0);
    let snap = fleet.registry().snapshot();
    assert_eq!(snap.count("migrate.aborted"), 1);
    assert_eq!(snap.level("migrate.inflight.bytes"), 0, "partial parks must be evicted");
    let (out, _) = read_state(&fleet, "t", 320 << 10);
    assert_eq!(out, datas);
    fleet.shutdown();
}

// -------------------------------------------------------------- chaos sweep

/// Eight-seed chaos sweep: `cluster.link.drop` and `cluster.migrate.stall`
/// armed probabilistically, migrations attempted under fire. Every failure
/// is typed, every abort rolls back completely (home, capacity, in-flight
/// store, rank state), accounting always balances, and once the plane is
/// disarmed the migration completes with state bit-identical to a fleet
/// that never saw a fault.
#[test]
fn eight_seed_chaos_sweep_aborts_always_roll_back() {
    let seeds =
        [0xC4A0_0001u64, 0xC4A0_0002, 0xC4A0_0003, 0xC4A0_0004, 0xC4A0_0005, 0xC4A0_0006,
         0xC4A0_0007, 0xC4A0_0008];
    for seed in seeds {
        let vcfg = VpimConfig::builder()
            .batching(false)
            .prefetch(false)
            .inject_seed(seed)
            .inject_fault(FaultSite::LinkDrop, FaultPlan::Probability { permille: 400 })
            .inject_fault(FaultSite::MigrateStall, FaultPlan::Probability { permille: 400 })
            .build();
        let fleet = Fleet::start(FleetSpec::new(2).config(vcfg));
        let baseline = Fleet::start(FleetSpec::new(2).config(lean_vcfg()));
        for f in [&fleet, &baseline] {
            f.launch(TenantSpec::new("t")).unwrap();
            write_state(f, "t", 4096, seed);
        }

        let mut migrated = false;
        for _attempt in 0..6 {
            match fleet.migrate("t", 1) {
                Ok(report) => {
                    assert_eq!(report.to, 1, "seed={seed:#x}");
                    migrated = true;
                    break;
                }
                Err(e) => {
                    assert_eq!(e.kind(), ErrorKind::Injected, "seed={seed:#x}: {e}");
                    // Full rollback after every abort.
                    assert_eq!(fleet.host_of("t"), Some(0), "seed={seed:#x}");
                    assert_eq!(fleet.live_ranks(1), 0, "seed={seed:#x}");
                    let snap = fleet.registry().snapshot();
                    assert_eq!(snap.level("migrate.inflight.bytes"), 0, "seed={seed:#x}");
                }
            }
        }
        if !migrated {
            // Persistent bad luck: disarm and prove the plane was the only
            // obstacle.
            fleet.fault_plane().unwrap().disarm(FaultSite::LinkDrop.name());
            let report = fleet.migrate("t", 1).unwrap();
            assert_eq!(report.to, 1, "seed={seed:#x}");
        }
        assert_eq!(fleet.host_of("t"), Some(1), "seed={seed:#x}");

        // Accounting always balances, faulted or not.
        let snap = fleet.registry().snapshot();
        assert_eq!(
            snap.count("migrate.attempts"),
            snap.count("migrate.completed") + snap.count("migrate.aborted"),
            "seed={seed:#x}"
        );
        assert_eq!(snap.count("migrate.completed"), 1, "seed={seed:#x}");
        assert_eq!(snap.level("migrate.inflight.bytes"), 0, "seed={seed:#x}");

        // The surviving state matches a fleet that never saw a fault.
        baseline.migrate("t", 1).unwrap();
        let (chaos_out, chaos_cost) = read_state(&fleet, "t", 4096);
        let (base_out, base_cost) = read_state(&baseline, "t", 4096);
        assert_eq!(chaos_out, base_out, "seed={seed:#x}: chaos left torn state");
        assert_eq!(chaos_cost, base_cost, "seed={seed:#x}");
        fleet.shutdown();
        baseline.shutdown();
    }
}

// --------------------------------------------------------------- placement

proptest! {
    /// Any sequence of launch/release/migrate keeps the placement
    /// invariants: a tenant is homed on at most one host, committed ranks
    /// never exceed capacity, and the fleet's accounting exactly matches
    /// an independent model (so migration conserves live ranks).
    ///
    /// Each generated op is `(kind, tenant, host)`: kind 0 launches
    /// `t<tenant>`, kind 1 releases it, kind 2 migrates it to `host`.
    #[test]
    fn placement_invariants_hold_under_churn(
        ops in proptest::collection::vec((0u8..3, 0u8..4, 0u8..3), 1..8),
    ) {
        let fleet = Fleet::start(FleetSpec::new(3).config(lean_vcfg()));
        // tenant -> (home, committed ranks) — the oracle.
        let mut model: HashMap<String, (usize, usize)> = HashMap::new();
        for (kind, t, h) in ops {
            let tag = format!("t{t}");
            match kind {
                0 => match fleet.launch(TenantSpec::new(&tag)) {
                    Ok(h) => {
                        prop_assert!(!model.contains_key(&tag));
                        model.insert(tag, (h, 1));
                    }
                    Err(VpimError::BadRequest(_)) => {
                        prop_assert!(model.contains_key(&tag));
                    }
                    Err(VpimError::NoRankAvailable) => {
                        // Refused only when genuinely full everywhere.
                        for h in 0..3 {
                            prop_assert!(fleet.live_ranks(h) + 1 > fleet.capacity(h));
                        }
                    }
                    Err(e) => prop_assert!(false, "unexpected launch error: {e}"),
                },
                1 => match fleet.release(&tag) {
                    Ok(()) => {
                        prop_assert!(model.remove(&tag).is_some());
                    }
                    Err(VpimError::BadRequest(_)) => {
                        prop_assert!(!model.contains_key(&tag));
                    }
                    Err(e) => prop_assert!(false, "unexpected release error: {e}"),
                },
                _ => {
                    let to = usize::from(h);
                    match fleet.migrate(&tag, to) {
                        Ok(report) => {
                            let entry = model.get_mut(&tag);
                            prop_assert!(entry.is_some());
                            let entry = entry.unwrap();
                            prop_assert_eq!(report.from, entry.0);
                            entry.0 = to;
                        }
                        Err(VpimError::BadRequest(_)) => {
                            // Unknown tenant or self-migration.
                            let home = model.get(&tag).map(|&(h, _)| h);
                            prop_assert!(home.is_none() || home == Some(to));
                        }
                        Err(VpimError::NoRankAvailable) => {
                            let (_, need) = model[&tag];
                            prop_assert!(fleet.live_ranks(to) + need > fleet.capacity(to));
                        }
                        Err(e) => prop_assert!(false, "unexpected migrate error: {e}"),
                    }
                }
            }

            // Invariants after every step.
            let placements = fleet.placements();
            let mut seen = HashMap::new();
            for (tenant, host) in &placements {
                prop_assert!(
                    seen.insert(tenant.clone(), *host).is_none(),
                    "tenant {tenant} homed twice"
                );
            }
            let mut model_homes: Vec<(String, usize)> =
                model.iter().map(|(t, &(h, _))| (t.clone(), h)).collect();
            model_homes.sort();
            prop_assert_eq!(placements, model_homes);
            let mut total = 0usize;
            for h in 0..3 {
                let live = fleet.live_ranks(h);
                prop_assert!(live <= fleet.capacity(h), "host {h} overcommitted");
                total += live;
            }
            let model_total: usize = model.values().map(|&(_, n)| n).sum();
            prop_assert_eq!(total, model_total);
        }
        fleet.shutdown();
    }
}
