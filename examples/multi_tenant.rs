//! Multi-tenancy (§3.5): two VMs and a native host application share four
//! ranks through the manager. Shows rank states transiting
//! NAAV → ALLO → NANA → NAAV, content erasure on release, and coexistence
//! with native applications that never talk to the manager.
//!
//! ```text
//! cargo run --example multi_tenant
//! ```

use std::sync::Arc;
use std::time::Duration;

use simkit::CostModel;
use upmem_driver::UpmemDriver;
use upmem_sdk::DpuSet;
use upmem_sim::{PimConfig, PimMachine};
use vpim::manager::RankState;
use vpim::prelude::*;

fn states(sys: &VpimSystem) -> String {
    sys.manager()
        .rank_states()
        .iter()
        .enumerate()
        .map(|(i, s)| format!("rank{i}={s:?}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() {
    let machine = PimMachine::new(PimConfig {
        ranks: 4,
        functional_dpus: vec![8; 4],
        mram_size: 1 << 20,
        ..PimConfig::small()
    });
    let driver = Arc::new(UpmemDriver::new(machine));

    // A native host application grabs rank 0 directly through the driver —
    // no manager involvement (requirement R3: coexistence).
    let native_app = driver.open_perf(0, "native:analytics").expect("native claim");
    native_app.write_dpu(0, 0, b"native tenant data").expect("native write");

    let sys = VpimSystem::start(driver.clone(), VpimConfig::full(), StartOpts::default());
    sys.sync_ranks(); // the sweep the observer runs: notices the native claim
    println!("after native app claim:   {}", states(&sys));

    // Two VMs book ranks through the manager.
    let vm_a = sys.launch(TenantSpec::new("tenant-a")).expect("vm a");
    let vm_b = sys.launch(TenantSpec::new("tenant-b").devices(2)).expect("vm b");
    println!("after tenant VMs booked:  {}", states(&sys));

    // Tenant A leaves secrets in its rank, then releases it.
    let mut set = DpuSet::alloc_vm(vm_a.frontends(), 8, CostModel::default()).expect("alloc");
    set.copy_to_heap(0, 0, b"tenant-a secret payload").expect("write");
    drop(set);
    let a_rank = vm_a.devices()[0].backend().linked_rank().expect("linked");
    vm_a.release_all().expect("release");
    drop(vm_a);

    // The manager's observer detects the release (no RPC from the VM!),
    // resets the content, and brings the rank back to NAAV.
    let recycled = sys.manager().wait_for_state(a_rank, RankState::Naav, Duration::from_secs(5));
    assert!(recycled, "rank was never recycled");
    println!("after tenant A released:  {}", states(&sys));

    // The next tenant cannot see tenant A's data.
    let vm_c = sys.launch(TenantSpec::new("tenant-c")).expect("vm c");
    let mut set = DpuSet::alloc_vm(vm_c.frontends(), 8, CostModel::default()).expect("alloc");
    let back = set.copy_from_heap(0, 0, 23).expect("read");
    assert_eq!(back, vec![0u8; 23], "rank content must be erased between tenants");
    println!("tenant C reads zeroes where tenant A's secret was: isolation holds");

    let stats = sys.manager().stats();
    println!(
        "manager: {} allocations ({} reused), {} resets ({} virtual), {} abandoned",
        stats.allocations, stats.reuses, stats.resets, stats.reset_virtual, stats.abandoned
    );

    drop(set);
    drop(vm_c);
    drop(vm_b);
    drop(native_app);
    sys.shutdown();
}
