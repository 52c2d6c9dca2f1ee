//! The tentpole crash-consistency proof for `vpim::pheap`.
//!
//! Arbitrary op streams run against a heap whose persist path is armed
//! with keyed fault sites (`pheap.wal.torn` / `pheap.persist.drop`).
//! When a fault fires, the run "crashes": the rank is snapshotted at
//! that instant, the VM is torn down, a fresh VM is launched, the
//! snapshot is restored into its rank, and `Pheap::recover` rebuilds
//! the heap. The recovered image must equal **exactly the committed
//! prefix** of the stream — bit-for-bit equal to a pure in-memory
//! oracle that applies only committed operations, with zero leakage of
//! uncommitted data — and the whole scenario must be bit-identical
//! whether the heap's device belongs to a one-device or a two-device VM.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use simkit::{ErrorKind, FaultPlan, FaultPlane, HasErrorKind};
use upmem_driver::UpmemDriver;
use upmem_sim::{PimConfig, PimMachine};
use vpim::prelude::*;
use vpim::{PHEAP_PERSIST_DROP_POINT, PHEAP_WAL_TORN_POINT};

/// Three ranks: a two-device VM plus the fresh VM a crash relaunches
/// while the first one's ranks are still being recycled.
fn host() -> Arc<UpmemDriver> {
    let pim = PimConfig { ranks: 3, functional_dpus: vec![8; 3], ..PimConfig::small() };
    Arc::new(UpmemDriver::new(PimMachine::new(pim)))
}

/// Injection-enabled system (seeded, nothing armed yet) with one
/// `devices`-device VM; the heap lives on device 0.
fn crash_system(devices: usize, seed: u64) -> (VpimSystem, VpimVm, Arc<FaultPlane>) {
    let vcfg = VpimConfig::builder().batching(false).prefetch(false).inject_seed(seed).build();
    let sys = VpimSystem::start(host(), vcfg, StartOpts::default());
    let vm = sys.launch(TenantSpec::new("pheap-crash").devices(devices)).unwrap();
    let plane = sys.fault_plane().expect("inject enabled").clone();
    (sys, vm, plane)
}

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

#[derive(Debug, Clone, Copy)]
enum Op {
    Alloc { len: u64 },
    Write { sel: u64, off: u64, len: u64 },
    Free { sel: u64 },
    Persist,
}

fn decode(kind: u8, sel: u64, off: u64, len: u64) -> Op {
    match kind {
        0 | 1 => Op::Alloc { len: 1 + len * 13 % 1200 },
        2..=5 => Op::Write { sel, off, len },
        6 => Op::Free { sel },
        _ => Op::Persist,
    }
}

/// The committed-prefix oracle. `working` mirrors every successful op;
/// `committed` is the frozen copy of `working` from the instant of the
/// last durable commit, detected observationally via `applied_seq` (an
/// automatic persist inside `alloc`/`write` commits the *pre-op* state,
/// which is exactly the clone taken before the op ran).
struct Oracle {
    committed: BTreeMap<u64, Vec<u8>>,
    working: BTreeMap<u64, Vec<u8>>,
    last_seq: u64,
}

impl Oracle {
    fn new(seq: u64) -> Self {
        Oracle { committed: BTreeMap::new(), working: BTreeMap::new(), last_seq: seq }
    }

    /// Applies one op to heap + oracle. `Ok(false)` = op done (possibly
    /// skipped as a legal no-op), `Ok(true)` = an injected fault fired:
    /// the stream crashes here.
    fn step(&mut self, heap: &mut Pheap, op: Op, salt: u64) -> Result<bool, String> {
        let pre = self.working.clone();
        let outcome: Result<(), VpimError> = match op {
            Op::Alloc { len } => match heap.alloc(len) {
                Ok(id) => {
                    self.working.insert(id, vec![0; len as usize]);
                    Ok(())
                }
                Err(VpimError::BadRequest(_)) => Ok(()), // heap full: skip
                Err(e) => Err(e),
            },
            Op::Write { sel, off, len } => {
                match pick(&self.working, sel) {
                    None => Ok(()),
                    Some(id) => {
                        let obj_len = self.working[&id].len() as u64;
                        let off = off % obj_len;
                        let len = (len % (obj_len - off)).max(1);
                        let data = pattern(id, off, salt, len as usize);
                        match heap.write(id, off, &data) {
                            Ok(()) => {
                                self.working.get_mut(&id).unwrap()
                                    [off as usize..(off + len) as usize]
                                    .copy_from_slice(&data);
                                Ok(())
                            }
                            Err(e) => Err(e),
                        }
                    }
                }
            }
            Op::Free { sel } => match pick(&self.working, sel) {
                None => Ok(()),
                Some(id) => match heap.free(id) {
                    Ok(()) => {
                        self.working.remove(&id);
                        Ok(())
                    }
                    Err(e) => Err(e),
                },
            },
            Op::Persist => heap.persist().map(|_| ()),
        };
        // A durable commit happened during this op (explicit persist, or
        // an auto-persist that ran *before* the op's own mutation).
        if heap.applied_seq() > self.last_seq {
            self.last_seq = heap.applied_seq();
            self.committed = pre;
        }
        match outcome {
            Ok(()) => {
                heap.check_invariants()?;
                Ok(false)
            }
            Err(e) if e.kind() == ErrorKind::Injected => Ok(true),
            Err(e) => Err(format!("op {op:?} failed untyped: {e}")),
        }
    }
}

fn pick(map: &BTreeMap<u64, Vec<u8>>, sel: u64) -> Option<u64> {
    if map.is_empty() {
        return None;
    }
    map.keys().nth(sel as usize % map.len()).copied()
}

fn dump(heap: &mut Pheap) -> BTreeMap<u64, Vec<u8>> {
    heap.ids()
        .into_iter()
        .map(|id| {
            let len = heap.len_of(id).unwrap();
            (id, heap.read(id, 0, len).unwrap())
        })
        .collect()
}

/// Everything one scenario produced, for the one- vs two-device
/// comparison.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    crashed_at: Option<usize>,
    fired: u64,
    expected_seq: u64,
    report: RecoverReport,
    recovered: BTreeMap<u64, Vec<u8>>,
    committed: BTreeMap<u64, Vec<u8>>,
}

/// Runs the stream until a fault fires (or it ends), kills the VM at
/// that exact instant via rank snapshot, restores into a fresh VM, and
/// recovers. Returns the full observable outcome.
fn run_scenario(
    devices: usize,
    seed: u64,
    ops: &[(u8, u64, u64, u64)],
    site: &'static str,
    nth: u64,
    salt: u64,
) -> Result<Outcome, String> {
    let (sys, vm, plane) = crash_system(devices, seed);
    let mut heap = Pheap::format(vm.frontend(0).clone(), opts(&sys)).unwrap();
    plane.arm(site, FaultPlan::Nth(nth));

    let mut oracle = Oracle::new(heap.applied_seq());
    let mut crashed_at = None;
    for (i, &(kind, sel, off, len)) in ops.iter().enumerate() {
        if oracle.step(&mut heap, decode(kind, sel, off, len), salt)? {
            crashed_at = Some(i);
            break;
        }
    }
    let fired = plane.point_stats(site).map_or(0, |s| s.fired);
    let expected_seq = heap.applied_seq();

    // Kill: snapshot the rank at this instant, before the manager's
    // release-time reset can wipe it.
    let rid = vm.devices()[0].backend().linked_rank().expect("vm linked");
    let snap = sys.driver().machine().rank(rid).unwrap().snapshot();
    drop(heap);
    drop(vm);
    plane.disarm_all();

    // Rebirth: fresh VM, restored MRAM image, recovery.
    let vm2 = sys.launch(TenantSpec::new("pheap-crash")).unwrap();
    let rid2 = vm2.devices()[0].backend().linked_rank().expect("vm2 linked");
    sys.driver().machine().rank(rid2).unwrap().restore(&snap).unwrap();
    let (mut rec, report) = Pheap::recover(vm2.frontend(0).clone(), opts(&sys))
        .map_err(|e| format!("recover failed: {e}"))?;
    rec.check_invariants()?;
    let recovered = dump(&mut rec);
    drop(rec);
    drop(vm2);
    sys.shutdown();

    Ok(Outcome {
        crashed_at,
        fired,
        expected_seq,
        report,
        recovered,
        committed: oracle.committed,
    })
}

fn check_outcome(o: &Outcome, site: &str) -> Result<(), String> {
    if o.report.applied_seq != o.expected_seq {
        return Err(format!(
            "recovered applied_seq {} != last committed {} ({site})",
            o.report.applied_seq, o.expected_seq
        ));
    }
    // Zero uncommitted leakage, bit-exact committed prefix.
    if o.recovered != o.committed {
        return Err(format!(
            "recovered image diverged from committed prefix: {} vs {} objects ({site})",
            o.recovered.len(),
            o.committed.len()
        ));
    }
    // Our two sites abort *before* the commit record exists, so a crash
    // always leaves an uncommitted WAL tail for recovery to discard,
    // and never a committed-unapplied transaction to replay.
    if o.crashed_at.is_some() {
        if o.fired == 0 {
            return Err("crashed without a fired fault".into());
        }
        if !o.report.discarded_tail {
            return Err(format!("crash at {site} left no discarded tail: {:?}", o.report));
        }
        if o.report.replayed {
            return Err(format!("unexpected replay after {site}: {:?}", o.report));
        }
    }
    Ok(())
}

proptest! {
    /// Crash → restore → recover == exactly the committed prefix, for
    /// arbitrary op streams × fault schedules × both VM shapes (one
    /// device and two) — and the two agree bit-for-bit on every
    /// observable.
    #[test]
    fn crash_recovery_yields_committed_prefix_in_both_modes(
        ops in proptest::collection::vec((0u8..8, any::<u64>(), 0u64..2048, 1u64..256), 4..32),
        torn in any::<bool>(),
        nth in 1u64..4,
        seed in 0u64..1024,
        salt in any::<u64>(),
    ) {
        let site = if torn { PHEAP_WAL_TORN_POINT } else { PHEAP_PERSIST_DROP_POINT };
        let seq = run_scenario(1, seed, &ops, site, nth, salt);
        prop_assert!(seq.is_ok(), "{:?}", seq.err());
        let seq = seq.unwrap();
        let checked = check_outcome(&seq, site);
        prop_assert!(checked.is_ok(), "{:?}", checked.err());

        let par = run_scenario(2, seed, &ops, site, nth, salt);
        prop_assert!(par.is_ok(), "{:?}", par.err());
        prop_assert_eq!(&seq, &par.unwrap());
    }
}

/// Clean kill: no fault ever fires; the snapshot is taken after a final
/// explicit persist, and recovery reproduces the full heap bit-exactly.
#[test]
fn clean_kill_recovers_everything_committed() {
    let (sys, vm, plane) = crash_system(1, 7);
    let mut heap = Pheap::format(vm.frontend(0).clone(), opts(&sys)).unwrap();
    let mut oracle = Oracle::new(heap.applied_seq());
    for i in 0..40u64 {
        let crashed = oracle
            .step(&mut heap, decode((i % 8) as u8, i * 3, i * 61, 1 + i * 29 % 300), 0xF0)
            .unwrap();
        assert!(!crashed, "nothing is armed");
    }
    heap.persist().unwrap();
    assert_eq!(heap.dirty_bytes(), 0);
    let expected = oracle.working.clone();
    let expected_seq = heap.applied_seq();

    let rid = vm.devices()[0].backend().linked_rank().unwrap();
    let snap = sys.driver().machine().rank(rid).unwrap().snapshot();
    drop(heap);
    drop(vm);
    plane.disarm_all();

    let vm2 = sys.launch(TenantSpec::new("pheap-crash")).unwrap();
    let rid2 = vm2.devices()[0].backend().linked_rank().unwrap();
    sys.driver().machine().rank(rid2).unwrap().restore(&snap).unwrap();
    let (mut rec, report) = Pheap::recover(vm2.frontend(0).clone(), opts(&sys)).unwrap();
    assert_eq!(report.applied_seq, expected_seq);
    assert!(!report.replayed);
    assert!(!report.discarded_tail);
    assert_eq!(dump(&mut rec), expected);
    drop(rec);
    drop(vm2);
    sys.shutdown();
}

/// The heap is pay-for-what-you-use: a system that never constructs a
/// `Pheap` registers no `pheap.*` metric and produces byte-identical
/// workload results whether or not the injection plane (which hosts the
/// pheap fault sites) is even enabled.
#[test]
fn unused_heap_leaves_no_trace() {
    let mut results = Vec::new();
    for inject in [false, true] {
        let vcfg = if inject {
            VpimConfig::builder().inject_seed(99).build()
        } else {
            VpimConfig::builder().build()
        };
        let sys = VpimSystem::start(host(), vcfg, StartOpts::default());
        let vm = sys.launch(TenantSpec::new("plain")).unwrap();
        let front = vm.frontend(0);
        let data = pattern(3, 0, 0xBEEF, 4096);
        front.write_rank(&[(3, 8192, data.as_slice())]).unwrap();
        let (bufs, _) = front.read_rank(&[(3, 8192, 4096)]).unwrap();
        results.push(bufs);

        let names = sys.registry().names();
        assert!(
            !names.iter().any(|n| n.starts_with("pheap.")),
            "pheap metrics registered without a Pheap: {names:?}"
        );

        // Constructing a heap is what turns the subsystem on.
        let heap = Pheap::format(vm.frontend(0).clone(), opts(&sys)).unwrap();
        assert!(sys.registry().names().iter().any(|n| n.starts_with("pheap.")));
        drop(heap);
        drop(vm);
        sys.shutdown();
    }
    assert_eq!(results[0], results[1], "fault-site plumbing must not perturb clean runs");
}
