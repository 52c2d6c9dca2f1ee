//! Multi-tenancy integration: isolation (R2), rank lifecycle, coexistence
//! with native applications, and concurrent manager load.

use std::sync::Arc;
use std::time::Duration;

use simkit::CostModel;
use upmem_driver::UpmemDriver;
use upmem_sdk::DpuSet;
use upmem_sim::{PimConfig, PimMachine};
use vpim::manager::RankState;
use vpim::{StartOpts, TenantSpec, VpimConfig, VpimError, VpimSystem};

fn host(ranks: usize) -> Arc<UpmemDriver> {
    let machine = PimMachine::new(PimConfig {
        ranks,
        functional_dpus: vec![8; ranks],
        mram_size: 1 << 20,
        ..PimConfig::small()
    });
    Arc::new(UpmemDriver::new(machine))
}

fn wait_for_naav(sys: &VpimSystem, rank: usize) {
    // Nothing sweeps behind the test: one sweep resets the released rank.
    sys.sync_ranks();
    assert_eq!(sys.manager().rank_states()[rank], RankState::Naav, "rank {rank} not recycled");
}

#[test]
fn vms_never_share_a_rank_and_writes_stay_private() {
    let driver = host(2);
    let sys = VpimSystem::start(driver.clone(), VpimConfig::full(), StartOpts::default());
    let vm_a = sys.launch(TenantSpec::new("a")).unwrap();
    let vm_b = sys.launch(TenantSpec::new("b")).unwrap();
    let rank_a = vm_a.devices()[0].backend().linked_rank().unwrap();
    let rank_b = vm_b.devices()[0].backend().linked_rank().unwrap();
    assert_ne!(rank_a, rank_b);

    let mut set_a = DpuSet::alloc_vm(vm_a.frontends(), 4, CostModel::default()).unwrap();
    let mut set_b = DpuSet::alloc_vm(vm_b.frontends(), 4, CostModel::default()).unwrap();
    set_a.copy_to_heap(0, 0, b"tenant-a").unwrap();
    set_b.copy_to_heap(0, 0, b"tenant-b").unwrap();
    assert_eq!(set_a.copy_from_heap(0, 0, 8).unwrap(), b"tenant-a");
    assert_eq!(set_b.copy_from_heap(0, 0, 8).unwrap(), b"tenant-b");
    drop((set_a, set_b, vm_a, vm_b));
    sys.shutdown();
}

#[test]
fn released_rank_is_erased_before_reuse_by_other_tenant() {
    let driver = host(1);
    let sys = VpimSystem::start(driver.clone(), VpimConfig::full(), StartOpts::default());
    let rank = {
        let vm = sys.launch(TenantSpec::new("first")).unwrap();
        let mut set = DpuSet::alloc_vm(vm.frontends(), 4, CostModel::default()).unwrap();
        set.copy_to_heap(0, 0, b"residual secret").unwrap();
        let rank = vm.devices()[0].backend().linked_rank().unwrap();
        vm.release_all().unwrap();
        rank
    };
    wait_for_naav(&sys, rank);
    assert_eq!(sys.manager().stats().resets, 1);

    let vm = sys.launch(TenantSpec::new("second")).unwrap();
    let mut set = DpuSet::alloc_vm(vm.frontends(), 4, CostModel::default()).unwrap();
    assert_eq!(set.copy_from_heap(0, 0, 15).unwrap(), vec![0u8; 15]);
    drop(set);
    drop(vm);
    sys.shutdown();
}

#[test]
fn rank_exhaustion_is_reported_then_recovers() {
    let driver = host(1);
    let sys = VpimSystem::start(driver, VpimConfig::full(), StartOpts::new().cost_model(CostModel::default()).manager(vpim::manager::ManagerConfig {
            retry_timeout: Duration::from_millis(10),
            max_attempts: 2,
        }));
    let vm = sys.launch(TenantSpec::new("holder")).unwrap();
    match sys.launch(TenantSpec::new("hopeful")) {
        Err(VpimError::NotLinked | VpimError::NoRankAvailable) => {}
        other => panic!("expected exhaustion, got {other:?}"),
    }
    let rank = vm.devices()[0].backend().linked_rank().unwrap();
    vm.release_all().unwrap();
    drop(vm);
    wait_for_naav(&sys, rank);
    assert!(sys.launch(TenantSpec::new("hopeful-2")).is_ok());
    sys.shutdown();
}

/// A rank released a moment ago goes to the next launch: the manager
/// here never waits, so the request's own sweep recycles the rank — with
/// one device and with two.
#[test]
fn a_released_rank_goes_to_the_next_launch_without_the_observer() {
    for devices in [1usize, 2] {
        let never_waits = vpim::manager::ManagerConfig {
            retry_timeout: Duration::ZERO,
            max_attempts: 1,
        };
        let sys = VpimSystem::start(
            host(devices),
            VpimConfig::full(),
            StartOpts::new().manager(never_waits),
        );
        let a = sys.launch(TenantSpec::new("a").devices(devices).mem_mib(16)).unwrap();
        let resets = sys.manager().stats().resets;
        a.release_all().unwrap();
        drop(a);
        let b = sys.launch(TenantSpec::new("b").devices(devices).mem_mib(16)).unwrap();
        assert_eq!(sys.manager().stats().resets, resets + devices as u64, "{devices} device(s)");
        drop(b);
        sys.shutdown();
    }
}

#[test]
fn native_applications_coexist_with_vms() {
    let driver = host(3);
    // Native app takes a rank before the manager even starts.
    let native = driver.open_perf(1, "native:ml-training").unwrap();
    native.write_mram(0, 0, &[42; 16]).unwrap();

    // Nobody tells the manager: each launch's own sweep sees the claim.
    let sys = VpimSystem::start(driver.clone(), VpimConfig::full(), StartOpts::default());
    let vm_a = sys.launch(TenantSpec::new("a")).unwrap();
    let vm_b = sys.launch(TenantSpec::new("b")).unwrap();
    for vm in [&vm_a, &vm_b] {
        assert_ne!(vm.devices()[0].backend().linked_rank(), Some(1));
    }
    // The native app's data is untouched throughout.
    let mut buf = [0u8; 16];
    native.read_mram(0, 0, &mut buf).unwrap();
    assert_eq!(buf, [42; 16]);
    drop((vm_a, vm_b, native));
    sys.shutdown();
}

#[test]
fn concurrent_allocation_requests_get_distinct_ranks() {
    // Hammer the manager's 8-thread pool from 6 threads at once.
    let driver = host(6);
    let sys = VpimSystem::start(driver, VpimConfig::full(), StartOpts::default());
    let client = sys.manager().client();
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let c = client.clone();
            std::thread::spawn(move || c.alloc(&format!("vm-{i}")).map(|o| o.rank))
        })
        .collect();
    let mut ranks: Vec<usize> = handles
        .into_iter()
        .map(|h| h.join().unwrap().expect("allocation"))
        .collect();
    ranks.sort_unstable();
    ranks.dedup();
    assert_eq!(ranks.len(), 6, "duplicate rank handed out");
    sys.shutdown();
}

#[test]
fn nana_reuse_keeps_content_for_the_same_tenant() {
    // §3.5's optimization hands a dirty rank back to its previous owner
    // without a reset, but only a rank still NANA when the request scans.
    // The request sweeps first, and every sweep erases the release it
    // observes, so the same tenant re-booking at once gets a reset rank.
    // (NANA reuse itself: `table::tests::nana_reuse_skips_reset`.)
    let driver = host(1);
    let sys = VpimSystem::start(driver.clone(), VpimConfig::full(), StartOpts::default());
    {
        let vm = sys.launch(TenantSpec::new("tenant")).unwrap();
        let mut set = DpuSet::alloc_vm(vm.frontends(), 2, CostModel::default()).unwrap();
        set.copy_to_heap(0, 0, b"mine").unwrap();
        vm.release_all().unwrap();
    }
    let outcome = sys.manager().client().alloc("tenant/vupmem0").unwrap();
    assert!(!outcome.reused);
    assert_eq!(sys.manager().stats().resets, 1);
    let rank = driver.machine().rank(outcome.rank).unwrap();
    let mut buf = [1u8; 4];
    rank.read_mram(0, 0, &mut buf).unwrap();
    assert_eq!(buf, [0; 4], "a reset rank reads zeroes");
    sys.shutdown();
}
