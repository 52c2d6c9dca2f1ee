//! Differential property suite for `vpim::pheap` (no faults).
//!
//! The heap over real rank MRAM is compared against a pure in-memory
//! `BTreeMap` oracle under arbitrary alloc/write/read/free/persist
//! streams; after every operation the heap's own invariants (allocator
//! span disjointness, free-list byte conservation, resident window
//! never over budget) are checked, and at the end the heap is dropped
//! and recovered — twice — to prove WAL-replay idempotence.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use upmem_driver::UpmemDriver;
use upmem_sim::{PimConfig, PimMachine};
use vpim::prelude::*;

fn host() -> Arc<UpmemDriver> {
    Arc::new(UpmemDriver::new(PimMachine::new(PimConfig::small())))
}

/// A host with one `devices`-device VM; the heap lives on device 0.
fn system(devices: usize) -> (VpimSystem, VpimVm) {
    let sys = VpimSystem::start(host(), VpimConfig::full(), StartOpts::default());
    let vm = sys.launch(TenantSpec::new("pheap").devices(devices)).unwrap();
    (sys, vm)
}

/// Geometry that fits `PimConfig::small()`'s 1 MiB banks, with a budget
/// small enough that op streams actually exercise eviction and the
/// automatic persist path.
fn opts(sys: &VpimSystem) -> PheapOptions {
    PheapOptions::new()
        .base(64 << 10)
        .wal_size(16 << 10)
        .root_size(8 << 10)
        .data_size(64 << 10)
        .resident_budget(4 << 10)
        .attach(sys)
}

fn pattern(id: u64, off: u64, salt: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| {
            let x = (id << 40) ^ ((off + i) << 8) ^ salt.wrapping_mul(0x9e37_79b9);
            (x.wrapping_mul(2_654_435_761) >> 13) as u8
        })
        .collect()
}

/// One decoded op of the stream. `sel` picks a live object, `off`/`len`
/// a span inside it (both wrapped to stay in range).
#[derive(Debug, Clone, Copy)]
enum Op {
    Alloc { len: u64 },
    Write { sel: u64, off: u64, len: u64 },
    Read { sel: u64, off: u64, len: u64 },
    Free { sel: u64 },
    PinCycle { sel: u64 },
    Persist,
}

fn decode(kind: u8, sel: u64, off: u64, len: u64) -> Op {
    match kind {
        0 => Op::Alloc { len: 1 + len * 13 % 1500 },
        1..=3 => Op::Write { sel, off, len },
        4 => Op::Read { sel, off, len },
        5 => Op::Free { sel },
        6 => Op::PinCycle { sel },
        _ => Op::Persist,
    }
}

/// Applies one op to heap + oracle, asserting agreement. Returns the
/// failure description for `prop_assert!`-style reporting.
fn apply(
    heap: &mut Pheap,
    model: &mut BTreeMap<u64, Vec<u8>>,
    op: Op,
    salt: u64,
) -> Result<(), String> {
    match op {
        Op::Alloc { len } => match heap.alloc(len) {
            Ok(id) => {
                model.insert(id, vec![0; len as usize]);
            }
            // Data-region exhaustion is legal under arbitrary streams;
            // the oracle simply skips the op.
            Err(VpimError::BadRequest(_)) => {}
            Err(e) => return Err(format!("alloc({len}) failed unexpectedly: {e}")),
        },
        Op::Write { sel, off, len } => {
            let Some(&id) = model.keys().nth(sel as usize % model.len().max(1)) else {
                return Ok(());
            };
            let obj_len = model[&id].len() as u64;
            let off = off % obj_len;
            let len = (len % (obj_len - off)).max(1);
            let data = pattern(id, off, salt, len as usize);
            heap.write(id, off, &data).map_err(|e| format!("write({id}) failed: {e}"))?;
            model.get_mut(&id).expect("modeled")[off as usize..(off + len) as usize]
                .copy_from_slice(&data);
        }
        Op::Read { sel, off, len } => {
            let Some(&id) = model.keys().nth(sel as usize % model.len().max(1)) else {
                return Ok(());
            };
            let obj_len = model[&id].len() as u64;
            let off = off % obj_len;
            let len = (len % (obj_len - off)).max(1);
            let got =
                heap.read(id, off, len).map_err(|e| format!("read({id}) failed: {e}"))?;
            let want = &model[&id][off as usize..(off + len) as usize];
            if got != want {
                return Err(format!("read({id}, {off}, {len}) diverged from the oracle"));
            }
        }
        Op::Free { sel } => {
            let Some(&id) = model.keys().nth(sel as usize % model.len().max(1)) else {
                return Ok(());
            };
            heap.free(id).map_err(|e| format!("free({id}) failed: {e}"))?;
            model.remove(&id);
        }
        Op::PinCycle { sel } => {
            let Some(&id) = model.keys().nth(sel as usize % model.len().max(1)) else {
                return Ok(());
            };
            match heap.pin(id) {
                Ok(()) => {
                    // A pinned object is resident and refuses to be freed.
                    if !matches!(heap.free(id), Err(VpimError::BadRequest(_))) {
                        return Err(format!("free({id}) succeeded while pinned"));
                    }
                    heap.unpin(id).map_err(|e| format!("unpin({id}): {e}"))?;
                }
                // The window can legally be too full of dirty bytes.
                Err(VpimError::BadRequest(_)) => {}
                Err(e) => return Err(format!("pin({id}) failed unexpectedly: {e}")),
            }
        }
        Op::Persist => {
            heap.persist().map_err(|e| format!("persist failed: {e}"))?;
        }
    }
    heap.check_invariants()?;
    if heap.resident_bytes() > heap.resident_budget() {
        return Err("resident budget exceeded".to_string());
    }
    Ok(())
}

/// Reads back every object in full (committed view after a recover).
fn dump(heap: &mut Pheap) -> BTreeMap<u64, Vec<u8>> {
    heap.ids()
        .into_iter()
        .map(|id| {
            let len = heap.len_of(id).unwrap();
            (id, heap.read(id, 0, len).unwrap())
        })
        .collect()
}

proptest! {
    /// The tentpole differential property: heap ≡ oracle under arbitrary
    /// op streams, invariants hold after every op, and after a final
    /// persist the heap survives recovery with bit-exact contents —
    /// recovering twice being identical to recovering once.
    #[test]
    fn pheap_matches_oracle_and_recovery_is_idempotent(
        ops in proptest::collection::vec((0u8..8, any::<u64>(), 0u64..2048, 1u64..256), 1..40),
        salt in any::<u64>(),
    ) {
        let (sys, vm) = system(1);
        let mut heap = Pheap::format(vm.frontend(0).clone(), opts(&sys)).unwrap();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for &(kind, sel, off, len) in &ops {
            let op = decode(kind, sel, off, len);
            let outcome = apply(&mut heap, &mut model, op, salt);
            prop_assert!(outcome.is_ok(), "op {op:?}: {outcome:?}");
        }
        heap.persist().unwrap();
        let persisted_seq = heap.applied_seq();
        drop(heap);

        // First recovery: bit-exact against the oracle.
        let (mut r1, rep1) = Pheap::recover(vm.frontend(0).clone(), opts(&sys)).unwrap();
        prop_assert_eq!(rep1.applied_seq, persisted_seq);
        prop_assert!(r1.check_invariants().is_ok());
        let d1 = dump(&mut r1);
        prop_assert_eq!(&d1, &model);
        drop(r1);

        // Second recovery: `recover(); recover()` ≡ `recover()`.
        let (mut r2, rep2) = Pheap::recover(vm.frontend(0).clone(), opts(&sys)).unwrap();
        prop_assert_eq!(rep2.applied_seq, persisted_seq);
        prop_assert!(!rep2.replayed, "nothing left to replay on the second recovery");
        prop_assert_eq!(dump(&mut r2), d1);
        drop(r2);
        drop(vm);
        sys.shutdown();
    }
}

/// A fixed rich stream runs bit-identically on device 0 of a one-device
/// and of a two-device VM: the heap's MRAM
/// traffic is all virtual-time scheduled, including the recovered image.
#[test]
fn one_and_two_device_vms_agree_on_heap_state() {
    let mut per_mode = Vec::new();
    for devices in [1, 2] {
        let (sys, vm) = system(devices);
        let mut heap = Pheap::format(vm.frontend(0).clone(), opts(&sys)).unwrap();
        let mut model = BTreeMap::new();
        for i in 0..60u64 {
            let op = decode((i % 8) as u8, i * 7, i * 129, 1 + i * 37 % 200);
            apply(&mut heap, &mut model, op, 0xD15).unwrap();
        }
        heap.persist().unwrap();
        drop(heap);
        let (mut rec, report) = Pheap::recover(vm.frontend(0).clone(), opts(&sys)).unwrap();
        per_mode.push((dump(&mut rec), report, model.clone()));
        drop(rec);
        drop(vm);
        sys.shutdown();
    }
    assert_eq!(per_mode[0], per_mode[1], "one- and two-device VMs must agree bit-for-bit");
    assert_eq!(per_mode[0].0, per_mode[0].2, "recovered image must equal the oracle");
}

/// The resident budget really bounds guest memory: a stream of writes
/// over many objects with a tiny budget forces automatic persists and
/// evictions without ever exceeding the window.
#[test]
fn tiny_budget_forces_auto_persists_within_bounds() {
    let (sys, vm) = system(1);
    let o = opts(&sys).resident_budget(1 << 10);
    let mut heap = Pheap::format(vm.frontend(0).clone(), o).unwrap();
    let ids: Vec<u64> = (0..8).map(|_| heap.alloc(256).unwrap()).collect();
    for round in 0..6u64 {
        for &id in &ids {
            let data = pattern(id, 0, round, 256);
            heap.write(id, 0, &data).unwrap();
            assert!(heap.dirty_bytes() <= 1 << 10);
            assert!(heap.resident_bytes() <= 1 << 10);
            heap.check_invariants().unwrap();
        }
    }
    // 8 × 256 B dirty per round can never fit a 1 KiB budget: the heap
    // must have persisted on its own.
    let snap = sys.registry().snapshot();
    assert!(snap.count("pheap.persists.auto") > 0, "{snap:?}");
    assert!(snap.count("pheap.cache.evictions") > 0, "{snap:?}");
    // And the data is still correct.
    for &id in &ids {
        assert_eq!(heap.read(id, 0, 256).unwrap(), pattern(id, 0, 5, 256));
    }
    drop(heap);
    drop(vm);
    sys.shutdown();
}
