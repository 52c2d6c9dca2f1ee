//! Guest RAM isolation across tenants (paper R2, ROADMAP item 3(a)).
//!
//! Guest memory is recycled: a guest launched after another one departs
//! may run on the departed guest's RAM, zeroed where it was written. On
//! one host, tenant A leaves an 8-byte canary through every way bytes
//! reach guest RAM: a staged push, a guest transfer-buffer fill and its
//! pinned push, a device scatter of canary MRAM, a prefetch fill, a symbol
//! page, and raw writes to pages A never allocated (the last page of RAM
//! and a partial page among them), through each of the three mutable
//! borrows of guest RAM. A is released and dropped, once with one device,
//! once with two, and once with a pinned write still running on another
//! guest thread when A's handle drops. Tenant B, of the same
//! size, then reads every byte of its RAM right after launch and again
//! after a workload: no copy of the canary may appear.
//!
//! The free list is process-wide, so when the harness runs tests in
//! parallel they are also tenants of each other's released RAM.

use std::sync::Arc;

use microbench::checksum::Checksum;
use pim_virtio::memory::PAGE_SIZE;
use pim_virtio::{Gpa, GuestMemory, VirtioError};
use simkit::CostModel;
use upmem_driver::UpmemDriver;
use upmem_sdk::DpuSet;
use upmem_sim::{PimConfig, PimMachine};
use vpim::{Frontend, StartOpts, TenantSpec, VpimConfig, VpimSystem, VpimVm};

const MEM_MIB: u64 = 16;
const DPUS: usize = 8;
/// Bytes per DPU of each canary transfer: a whole prefetch segment.
const LEN: usize = 64 << 10;
const CANARY: [u8; 8] = 0xA11C_E5CA_7A12_9D0F_u64.to_le_bytes();

fn canary(len: usize) -> Vec<u8> {
    CANARY.iter().copied().cycle().take(len).collect()
}

fn host() -> VpimSystem {
    let machine = PimMachine::new(PimConfig {
        ranks: 2,
        functional_dpus: vec![DPUS; 2],
        mram_size: 1 << 20,
        ..PimConfig::small()
    });
    Checksum::register(&machine);
    VpimSystem::start(Arc::new(UpmemDriver::new(machine)), VpimConfig::full(), StartOpts::default())
}

/// Every way tenant A's bytes reach its guest RAM, short of a raw write.
fn leave_canary_through_the_stack(vm: &VpimVm, devices: usize) {
    let mut set =
        DpuSet::alloc_vm(vm.frontends(), devices * DPUS, CostModel::default()).unwrap();
    set.load(Checksum::KERNEL).unwrap();
    let n = set.nr_dpus();
    // A staged push: the bytes are copied into fresh guest pages.
    set.push_to_heap(0, &vec![canary(LEN); n]).unwrap();
    // Guest transfer buffers, filled in place and pushed pinned.
    let mut bufs = set.alloc_xfer_bufs(LEN);
    for buf in &mut bufs {
        assert!(buf.is_guest(), "a 16 MiB guest holds the buffers");
        buf.write(0, &canary(LEN)).unwrap();
    }
    set.push_bufs_to_heap(LEN as u64, &bufs).unwrap();
    drop(bufs);
    // The device scatters canary MRAM into fresh guest pages.
    assert_eq!(set.push_from_heap(0, 2 * LEN).unwrap(), vec![canary(2 * LEN); n]);
    // Small reads: each miss fills a prefetch segment from canary MRAM.
    for d in 0..n {
        assert_eq!(set.copy_from_heap(d, 8, 16).unwrap(), canary(16));
    }
    drop(set);
    // A symbol payload is written to a guest page before the backend
    // refuses a page-sized value for a `u32` symbol.
    for fe in vm.frontends() {
        assert!(fe.write_symbol(0, "nbytes", &canary(PAGE_SIZE as usize)).is_err());
    }
}

/// Raw writes to pages the allocator never handed out, through each of
/// the three mutable borrows of guest RAM.
fn leave_canary_in_unallocated_pages(mem: &GuestMemory) {
    let page = PAGE_SIZE as usize;
    let top = mem.size();
    let at = |pages_from_top: u64| Gpa(top - pages_from_top * PAGE_SIZE);
    // `view_mut`: the last page of RAM, a partial page, a page list and an
    // offset into one.
    mem.write(at(1), &canary(page)).unwrap();
    mem.write(at(5).add(1000), &canary(1000)).unwrap();
    mem.write_pages(&[at(11), at(13)], &canary(page + 200)).unwrap();
    mem.view_mut(|v| v.write_pages_at(&[at(15), at(17)], 808, &canary(page))).unwrap();
    // `with_slice_mut`.
    mem.with_slice_mut(at(3), PAGE_SIZE, |s| s.copy_from_slice(&canary(page))).unwrap();
    // `walk_pages_mut`, over pages in descending order, the last partial.
    let data = canary(2 * page);
    mem.walk_pages_mut(&[at(7), at(9)], 6000, |offset, s| {
        let offset = offset as usize;
        s.copy_from_slice(&data[offset..offset + s.len()]);
        Ok::<(), VirtioError>(())
    })
    .unwrap();
}

/// The lowest guest address where the canary starts, if any.
fn canary_at(mem: &GuestMemory) -> Option<u64> {
    mem.view(|v| {
        let ram = v.bytes(Gpa(0), mem.size()).unwrap();
        ram.windows(CANARY.len()).position(|w| w == CANARY).map(|i| i as u64)
    })
}

/// Tenant A: launched, filled with the canary, released and dropped. With
/// `in_flight`, a pinned write of the canary runs on a guest thread of its
/// own, through A's last device, while A's handle drops; the thread owns
/// the buffer and the frontend, the frontends then release the ranks, and
/// the last of them takes A's memory along.
fn tenant_a(sys: &VpimSystem, devices: usize, in_flight: bool) {
    let vm = sys.launch(TenantSpec::new("a").devices(devices).mem_mib(MEM_MIB)).unwrap();
    leave_canary_through_the_stack(&vm, devices);
    leave_canary_in_unallocated_pages(vm.vm().memory());
    let frontends: Vec<Arc<Frontend>> = vm.frontends().to_vec();
    std::thread::scope(|s| {
        let writer = in_flight.then(|| {
            let fe = frontends.last().expect("a device").clone();
            let buf = fe.alloc_buf(LEN).unwrap();
            buf.write(0, &canary(LEN)).unwrap();
            s.spawn(move || {
                let entries: Vec<_> = (0..DPUS as u32).map(|d| (d, 2 * LEN as u64, &buf)).collect();
                fe.write_rank_pinned(&entries).unwrap();
            })
        });
        drop(vm);
        if let Some(writer) = writer {
            writer.join().unwrap();
        }
    });
    for fe in &frontends {
        fe.release_rank().unwrap();
    }
}

/// Tenant B: same size, same host, after A. Its RAM holds no canary right
/// after launch, nor after a workload that reads back the MRAM windows A
/// wrote and runs the checksum app.
fn tenant_b_sees_no_canary(sys: &VpimSystem, what: &str) {
    let vm = sys.launch(TenantSpec::new("b").mem_mib(MEM_MIB)).unwrap();
    let mem = vm.vm().memory();
    assert_eq!(canary_at(mem), None, "{what}: B's RAM right after launch");
    let mut set = DpuSet::alloc_vm(vm.frontends(), DPUS, CostModel::default()).unwrap();
    for back in set.push_from_heap(0, 3 * LEN).unwrap() {
        assert!(back.iter().all(|b| *b == 0), "{what}: a reset rank reads as zeros");
    }
    assert_eq!(set.copy_from_heap(0, 8, 16).unwrap(), vec![0; 16]);
    let run = Checksum::run(&mut set, LEN, 7).unwrap();
    assert!(run.verified, "{what}: B's checksum");
    drop(set);
    assert_eq!(canary_at(mem), None, "{what}: B's RAM after a workload");
    vm.release_all().unwrap();
}

#[test]
fn a_one_device_tenant_leaves_nothing_in_guest_ram() {
    let sys = host();
    tenant_a(&sys, 1, false);
    tenant_b_sees_no_canary(&sys, "one device");
    sys.shutdown();
}

#[test]
fn a_two_device_tenant_leaves_nothing_in_guest_ram() {
    let sys = host();
    tenant_a(&sys, 2, false);
    tenant_b_sees_no_canary(&sys, "two devices");
    sys.shutdown();
}

#[test]
fn a_tenant_with_a_write_in_flight_leaves_nothing_in_guest_ram() {
    for devices in [1, 2] {
        let sys = host();
        tenant_a(&sys, devices, true);
        tenant_b_sees_no_canary(&sys, &format!("{devices} device(s), write in flight"));
        sys.shutdown();
    }
}
