//! MRAM isolation across tenants (paper R2, ROADMAP item 3(a)).
//!
//! A DPU bank is a table of copy-on-write pages: a broadcast lands once
//! and every DPU of the request holds the same pages, a checkpoint holds
//! page handles instead of a copy, and a rank reset drops the table. Each
//! of these moves handles where a copy used to move bytes, so each is a
//! way one tenant's bytes could reach another. Tenant A leaves an 8-byte
//! canary in MRAM through a broadcast whose sharers it then overwrites one
//! DPU at a time, a broadcast it keeps shared (its last page partial, so
//! copied), and a staged per-DPU push. A then leaves its rank by being
//! (i) released through NANA → reset → NAAV, or (ii) preempted and parked
//! in the scheduler's `SnapshotStore`. Tenant B, on the same rank, reads
//! every DPU's whole window A wrote (`push_from_heap`) and small pieces of
//! it through the prefetch cache (`copy_from_heap`) before it writes
//! anything: no copy of the canary may appear. In (iii), A comes back
//! after B wrote its own pattern: A's MRAM is bit-identical to what it
//! read before it was parked, with none of B's bytes.

use std::sync::Arc;

use simkit::CostModel;
use upmem_driver::UpmemDriver;
use upmem_sdk::DpuSet;
use upmem_sim::{PimConfig, PimMachine};
use vpim::{StartOpts, TenantSpec, VpimConfig, VpimSystem, VpimVm};

const DPUS: usize = 8;
/// Bytes per DPU of each canary transfer.
const LEN: usize = 64 << 10;
/// The kept broadcast's length: its last page is partial.
const KEPT: usize = LEN + 1000;
/// Every byte A writes lies below this offset.
const WINDOW: usize = 4 * LEN;
const CANARY: [u8; 8] = 0xA11C_E5CA_7A12_9D0F_u64.to_le_bytes();

fn canary(len: usize) -> Vec<u8> {
    CANARY.iter().copied().cycle().take(len).collect()
}

/// What A overwrites DPU `d`'s share of the first broadcast with: the
/// canary beside a word naming the DPU, so each DPU's bytes differ.
fn overwrite(d: usize, len: usize) -> Vec<u8> {
    let tag = (0xD0_0000 + d as u64).to_le_bytes();
    CANARY.iter().chain(&tag).copied().cycle().take(len).collect()
}

fn has_canary(bytes: &[u8]) -> bool {
    bytes.windows(CANARY.len()).any(|w| w == CANARY)
}

/// One rank of [`DPUS`] DPUs, so every tenant lands on the same one. The
/// data path is unstaged, as in the benchmark, so broadcasts share pages.
fn host(vcfg: VpimConfig) -> VpimSystem {
    let machine = PimMachine::new(PimConfig {
        ranks: 1,
        functional_dpus: vec![DPUS],
        mram_size: 1 << 20,
        verify_interleave: false,
        ..PimConfig::small()
    });
    VpimSystem::start(Arc::new(UpmemDriver::new(machine)), vcfg, StartOpts::default())
}

fn set_of(vm: &VpimVm) -> DpuSet {
    DpuSet::alloc_vm(vm.frontends(), DPUS, CostModel::default()).unwrap()
}

/// Broadcasts `data` from one guest buffer at `offset`, so every DPU's
/// entry names the same guest pages.
fn broadcast(set: &mut DpuSet, offset: u64, data: &[u8]) {
    let mut buf = set.alloc_broadcast_buf(data.len());
    assert!(buf.is_guest(), "the broadcast buffer is guest RAM");
    buf.write(0, data).unwrap();
    set.broadcast_to_heap(offset, &buf).unwrap();
}

/// Tenant A fills its window with the canary and returns every DPU's
/// whole window as it reads it back.
fn leave_canary(set: &mut DpuSet) -> Vec<Vec<u8>> {
    // A broadcast, then its sharers overwritten one DPU at a time: each
    // write lands on its own DPU only.
    broadcast(set, 0, &canary(LEN));
    for d in 0..DPUS {
        set.copy_to_heap(d, 0, &overwrite(d, LEN)).unwrap();
        for (k, back) in set.push_from_heap(0, LEN).unwrap().iter().enumerate() {
            let want = if k <= d { overwrite(k, LEN) } else { canary(LEN) };
            assert!(*back == want, "after overwriting DPU {d}, DPU {k} reads wrong bytes");
        }
    }
    // A broadcast that stays shared, its last page partial.
    broadcast(set, LEN as u64, &canary(KEPT));
    // A staged push of one private copy per DPU.
    set.push_to_heap(3 * LEN as u64, &vec![canary(LEN); DPUS]).unwrap();
    let image = set.push_from_heap(0, WINDOW).unwrap();
    for back in &image {
        assert!(has_canary(back));
    }
    image
}

/// Tenant B, before it writes anything, reads every DPU's whole window
/// and small pieces of it through the prefetch cache.
fn window_holds_no_canary(set: &mut DpuSet, what: &str) {
    for (d, back) in set.push_from_heap(0, WINDOW).unwrap().iter().enumerate() {
        assert_eq!(back.len(), WINDOW);
        assert!(!has_canary(back), "{what}: DPU {d}'s window holds A's canary");
    }
    for d in 0..DPUS {
        for offset in [0, LEN - 8, LEN + KEPT - 16, 3 * LEN + 40] {
            let back = set.copy_from_heap(d, offset as u64, 16).unwrap();
            assert!(!has_canary(&back), "{what}: DPU {d} at {offset} holds A's canary");
        }
    }
}

#[test]
fn a_released_rank_holds_none_of_its_last_tenants_mram() {
    let sys = host(VpimConfig::full());
    let a = sys.launch(TenantSpec::new("a")).unwrap();
    let mut set = set_of(&a);
    leave_canary(&mut set);
    drop(set);
    // NANA → reset → NAAV.
    a.release_all().unwrap();
    drop(a);
    let b = sys.launch(TenantSpec::new("b")).unwrap();
    window_holds_no_canary(&mut set_of(&b), "after release");
    drop(b);
    sys.shutdown();
}

#[test]
fn a_parked_tenant_leaks_nothing_and_comes_back_bit_identical() {
    let vcfg = VpimConfig::builder().oversubscription(true).sched_quantum_ms(0).build();
    let sys = host(vcfg);
    let a = sys.launch(TenantSpec::new("a")).unwrap();
    let mut set_a = set_of(&a);
    let before = leave_canary(&mut set_a);

    // B's first request preempts A: A's MRAM is parked, the rank reset.
    let b = sys.launch(TenantSpec::new("b")).unwrap();
    let mut set_b = set_of(&b);
    window_holds_no_canary(&mut set_b, "after A was parked");
    assert!(sys.scheduler().store().contains("a/vupmem0"), "A is parked");
    assert!(sys.scheduler().stats().preemptions >= 1);
    // B writes its own pattern everywhere A did, shared and private.
    broadcast(&mut set_b, 0, &[0xB0; 2 * LEN]);
    let theirs: Vec<Vec<u8>> = (0..DPUS).map(|d| vec![0xB1 + d as u8; 2 * LEN]).collect();
    set_b.push_to_heap(2 * LEN as u64, &theirs).unwrap();
    let b_image = set_b.push_from_heap(0, WINDOW).unwrap();

    // A's next request parks B and restores A.
    let after = set_a.push_from_heap(0, WINDOW).unwrap();
    assert!(after == before, "A's restored MRAM differs from what it had before parking");
    assert!(sys.scheduler().stats().restores >= 1);
    for back in &after {
        assert!(!back.windows(8).any(|w| w.iter().all(|b| b & 0xF0 == 0xB0)), "B's bytes in A");
    }
    // And B, restored in turn, still has exactly its own bytes.
    assert!(set_b.push_from_heap(0, WINDOW).unwrap() == b_image, "B's MRAM changed");
    for back in &b_image {
        assert!(!has_canary(back));
    }
    drop((set_a, set_b, a, b));
    sys.shutdown();
}
