//! Crash recovery: rebuild a [`Pheap`] from rank MRAM alone.
//!
//! Recovery is a pure function of the MRAM image and is idempotent:
//!
//! 1. Read and validate the superblock (geometry + `applied_seq`).
//! 2. Parse the WAL region. A committed transaction with
//!    `seq > applied_seq` is **replayed** — every record copied to its
//!    home location, superblock bumped — which is safe to repeat (the
//!    copies are idempotent). A torn transaction (torn append or
//!    dropped commit) is **discarded**: home locations were never
//!    touched for an uncommitted transaction, so the heap is already at
//!    the previous persist point. Anything older is stale and skipped.
//! 3. Rebuild the object directory and allocator from the root table,
//!    which the replay in step 2 may just have made current.
//!
//! The resident window starts empty — uncommitted guest-RAM state is
//! exactly what a crash destroys.

use std::sync::Arc;

use crate::error::VpimError;
use crate::frontend::Frontend;

use super::alloc::PAllocator;
use super::wal::{decode_root, parse_txn, Superblock, WalParse, SB_LEN};
use super::{Pheap, PheapOptions};

/// What [`Pheap::recover`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverReport {
    /// A committed-but-unapplied transaction was replayed.
    pub replayed: bool,
    /// A torn/uncommitted WAL tail was discarded.
    pub discarded_tail: bool,
    /// The last committed sequence number after recovery.
    pub applied_seq: u64,
    /// Live objects in the recovered heap.
    pub objects: usize,
}

pub(crate) fn run(
    front: Arc<Frontend>,
    opts: PheapOptions,
) -> Result<(Pheap, RecoverReport), VpimError> {
    let dpu = opts.dpu_index();
    // Recovery traffic is charged to the recovered heap's cost accumulator
    // so `drain_cost()` right after `recover()` yields the recovery time.
    let cost = std::cell::Cell::new(simkit::VirtualNanos::ZERO);
    let read = |off: u64, len: u64| -> Result<Vec<u8>, VpimError> {
        let (mut bufs, report) = front.read_rank(&[(dpu, off, len)])?;
        cost.set(cost.get() + report.duration());
        Ok(bufs.remove(0))
    };

    let sb_bytes = read(opts.base_off(), SB_LEN)?;
    let sb = Superblock::decode(&sb_bytes, opts.base_off()).ok_or_else(|| {
        VpimError::ProtocolViolation(format!(
            "pheap: no valid superblock at MRAM offset {} (dpu {dpu})",
            opts.base_off()
        ))
    })?;
    let geom = sb.geom;
    let mut applied_seq = sb.applied_seq;

    let wal = read(geom.wal_off, geom.wal_size)?;
    let mut replayed = false;
    let mut discarded_tail = false;
    match parse_txn(&wal) {
        WalParse::Committed { seq, records } if seq > applied_seq => {
            for r in &records {
                let report = front.write_rank(&[(dpu, r.home_off, r.payload.as_slice())])?;
                cost.set(cost.get() + report.duration());
            }
            let bumped = Superblock { geom, applied_seq: seq }.encode();
            let report = front.write_rank(&[(dpu, geom.sb_off, bumped.as_slice())])?;
            cost.set(cost.get() + report.duration());
            let report = front.persist_barrier()?;
            cost.set(cost.get() + report.duration());
            applied_seq = seq;
            replayed = true;
        }
        // Already applied (or pre-dating this heap generation): stale.
        WalParse::Committed { .. } | WalParse::Empty => {}
        WalParse::Torn { seq } => {
            // Discarded by doing nothing: home locations only ever hold
            // committed data. Report it only when the tail belongs to a
            // transaction newer than the persist point (a stale torn
            // header below `applied_seq` cannot occur in practice, but
            // the classification stays honest).
            discarded_tail = seq > applied_seq;
        }
    }

    let root_bytes = read(geom.root_off, geom.root_size)?;
    let rt = decode_root(&root_bytes).ok_or_else(|| {
        VpimError::ProtocolViolation("pheap: corrupt root table".to_string())
    })?;
    let alloc = PAllocator::from_parts(geom.data_off, geom.data_size, rt.bump, rt.free);

    let mut heap =
        Pheap::from_recovered(front, &opts, geom, alloc, rt.objects, rt.next_id, applied_seq);
    heap.metrics.recoveries.inc();
    if replayed {
        heap.metrics.recover_replayed.inc();
    }
    if discarded_tail {
        heap.metrics.recover_discarded.inc();
    }
    heap.cost = cost.get();
    let report = RecoverReport {
        replayed,
        discarded_tail,
        applied_seq,
        objects: heap.object_count(),
    };
    Ok((heap, report))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use upmem_driver::UpmemDriver;
    use upmem_sim::{PimConfig, PimMachine};

    use super::super::wal::{encode_txn, Superblock, WalRecord};
    use super::super::{Pheap, PheapOptions};
    use crate::config::VpimConfig;
    use crate::system::{StartOpts, TenantSpec, VpimSystem, VpimVm};

    fn sys_vm() -> (VpimSystem, VpimVm) {
        let driver = Arc::new(UpmemDriver::new(PimMachine::new(PimConfig::small())));
        let sys =
            VpimSystem::start(driver, VpimConfig::builder().build(), StartOpts::default());
        let vm = sys.launch(TenantSpec::new("replay")).unwrap();
        (sys, vm)
    }

    fn opts(sys: &VpimSystem) -> PheapOptions {
        PheapOptions::new()
            .base(64 << 10)
            .wal_size(16 << 10)
            .root_size(8 << 10)
            .data_size(64 << 10)
            .resident_budget(16 << 10)
            .attach(sys)
    }

    /// The state the fault sites cannot reach from outside: a committed
    /// transaction whose apply/bump never ran (crash right after the
    /// commit barrier). Recovery must replay it to the home location and
    /// advance the superblock; a second recovery must be a no-op.
    #[test]
    fn replays_committed_unapplied_txn_and_is_idempotent() {
        let (sys, vm) = sys_vm();
        let mut heap = Pheap::format(vm.frontend(0).clone(), opts(&sys)).unwrap();
        let id = heap.alloc(64).unwrap();
        heap.write(id, 0, &[0xAA; 64]).unwrap();
        heap.persist().unwrap();
        let geom = heap.geom;
        let home = heap.objects[&id].off;
        drop(heap);

        let (body, commit) =
            encode_txn(2, &[WalRecord { id, home_off: home, payload: vec![0xBB; 64] }]);
        let front = vm.frontend(0).clone();
        front.write_rank(&[(0, geom.wal_off, body.as_slice())]).unwrap();
        front
            .write_rank(&[(0, geom.wal_off + body.len() as u64, commit.as_slice())])
            .unwrap();
        front.persist_barrier().unwrap();

        let (mut rec, report) = Pheap::recover(front, opts(&sys)).unwrap();
        assert!(report.replayed);
        assert!(!report.discarded_tail);
        assert_eq!(report.applied_seq, 2);
        assert_eq!(rec.read(id, 0, 64).unwrap(), vec![0xBB; 64]);
        rec.check_invariants().unwrap();
        drop(rec);

        let (mut rec2, report2) = Pheap::recover(vm.frontend(0).clone(), opts(&sys)).unwrap();
        assert!(!report2.replayed);
        assert_eq!(report2.applied_seq, 2);
        assert_eq!(rec2.read(id, 0, 64).unwrap(), vec![0xBB; 64]);
        drop(rec2);
        drop(vm);
        sys.shutdown();
    }

    /// Apply completed but the superblock bump was lost: replay re-copies
    /// the (already current) payloads — idempotent — and the heap comes
    /// back at the committed point.
    #[test]
    fn replays_idempotently_when_only_the_bump_was_lost() {
        let (sys, vm) = sys_vm();
        let mut heap = Pheap::format(vm.frontend(0).clone(), opts(&sys)).unwrap();
        let id = heap.alloc(48).unwrap();
        heap.write(id, 0, &[0x5C; 48]).unwrap();
        heap.persist().unwrap();
        let geom = heap.geom;
        drop(heap);

        let front = vm.frontend(0).clone();
        let stale = Superblock { geom, applied_seq: 0 }.encode();
        front.write_rank(&[(0, geom.sb_off, stale.as_slice())]).unwrap();
        front.persist_barrier().unwrap();

        let (mut rec, report) = Pheap::recover(front, opts(&sys)).unwrap();
        assert!(report.replayed);
        assert_eq!(report.applied_seq, 1);
        assert_eq!(report.objects, 1);
        assert_eq!(rec.read(id, 0, 48).unwrap(), vec![0x5C; 48]);
        rec.check_invariants().unwrap();
        drop(rec);
        drop(vm);
        sys.shutdown();
    }
}
