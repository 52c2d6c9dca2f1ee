//! Property tests for the rank scheduler: no double-grant under churn,
//! bit-identical checkpoint/restore round trips, and FIFO admission order
//! regardless of queue churn — at the queue and through the scheduler.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;
use simkit::{CostModel, MetricsRegistry};
use upmem_driver::UpmemDriver;
use upmem_sim::{PimConfig, PimMachine, Rank};
use vpim::manager::{Manager, ManagerConfig};
use vpim::sched::{empty_slot, AdmissionQueue, RankSlot, SchedPolicy, Scheduler};
use vpim::SchedSection;

fn snappy() -> ManagerConfig {
    ManagerConfig {
        retry_timeout: Duration::from_millis(2),
        max_attempts: 1,
    }
}

fn host(ranks: usize) -> (Arc<UpmemDriver>, Manager) {
    let cfg = PimConfig {
        ranks,
        functional_dpus: vec![4; ranks],
        mram_size: 1 << 16,
        ..PimConfig::small()
    };
    let driver = Arc::new(UpmemDriver::new(PimMachine::new(cfg)));
    let mgr = Manager::start(driver.clone(), CostModel::default(), snappy());
    (driver, mgr)
}

fn oversubscribed(driver: &Arc<UpmemDriver>, mgr: &Manager) -> Scheduler {
    Scheduler::new(
        driver.clone(),
        mgr.client(),
        SchedSection { oversubscription: true, quantum_ms: 0, ..SchedSection::default() },
        CostModel::default(),
        &MetricsRegistry::new(),
    )
}

/// Queues `tickets`' tenants, in that order, behind a busy holder on a
/// one-rank FIFO scheduler and returns the order the grants left in.
fn grant_order(tickets: &[u64]) -> Vec<u64> {
    let (driver, mgr) = host(1);
    let sched = oversubscribed(&driver, &mgr);
    let holder = empty_slot();
    // A locked slot is an operation in flight: nobody can preempt the
    // holder until `busy` drops, so every tenant below has to queue.
    let mut busy = holder.lock();
    *busy = Some(sched.acquire("holder", &holder).unwrap().mapping);
    let order = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for (queued, &ticket) in tickets.iter().enumerate() {
            let (sched, order) = (&sched, &order);
            s.spawn(move || {
                let slot = empty_slot();
                let mut guard = slot.lock();
                let grant = sched.acquire(&format!("tenant-{ticket}"), &slot).unwrap();
                order.lock().unwrap().push(ticket);
                *guard = Some(grant.mapping);
            });
            // The next tenant arrives only once this one holds its place.
            while sched.queue_depth() <= queued {
                std::thread::yield_now();
            }
        }
        drop(busy);
    });
    holder.lock().take();
    mgr.shutdown();
    order.into_inner().unwrap()
}

proptest! {
    /// Any sequence of tenant touches on an oversubscribed host keeps two
    /// invariants: (a) no two live mappings ever point at the same rank
    /// (no double-grant), and (b) every re-granted tenant reads back
    /// exactly the bytes it wrote before it was preempted (checkpoint /
    /// restore identity).
    #[test]
    fn no_double_grant_and_restores_are_bit_identical(
        touches in proptest::collection::vec(0usize..4, 1..28),
    ) {
        let (driver, mgr) = host(2);
        let sched = oversubscribed(&driver, &mgr);
        let tenants = ["t0", "t1", "t2", "t3"];
        let slots: Vec<RankSlot> = (0..4).map(|_| empty_slot()).collect();
        let mut expected: HashMap<usize, Vec<u8>> = HashMap::new();
        for (step, &t) in touches.iter().enumerate() {
            let mut guard = slots[t].lock();
            if guard.is_none() {
                // (Re)acquire; a returning tenant must be restored.
                let grant = match sched.acquire(tenants[t], &slots[t]) {
                    Ok(g) => g,
                    Err(e) => return Err(TestCaseError::fail(format!("acquire: {e}"))),
                };
                // Restored exactly when the tenant was preempted with state.
                prop_assert_eq!(grant.restored, expected.contains_key(&t));
                if let Some(want) = expected.get(&t) {
                    let mut buf = vec![0u8; want.len()];
                    grant.mapping.rank().read_dpu(0, 0, &mut buf).unwrap();
                    prop_assert!(&buf == want, "tenant {}'s bytes torn by restore", t);
                }
                *guard = Some(grant.mapping);
            }
            // Touch: overwrite this tenant's pattern through its mapping.
            let data = vec![(t as u8) ^ (step as u8).wrapping_mul(31); 64];
            guard.as_ref().unwrap().rank().write_dpu(0, 0, &data).unwrap();
            expected.insert(t, data);
            drop(guard);
            // Invariant: live mappings occupy pairwise-distinct ranks.
            let live: Vec<usize> = slots
                .iter()
                .filter_map(|s| s.lock().as_ref().map(|m| m.rank_id()))
                .collect();
            let mut dedup = live.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert!(dedup.len() == live.len(), "double-granted rank: {:?}", live);
        }
        for s in &slots {
            s.lock().take();
        }
        mgr.shutdown();
    }

    /// snapshot → scribble → reset → restore reproduces the captured rank
    /// bit-for-bit, for arbitrary resident data.
    #[test]
    fn rank_snapshot_reset_restore_roundtrip(
        writes in proptest::collection::vec(
            (0usize..4, 0u64..1024, proptest::collection::vec(any::<u8>(), 1..128)),
            1..12,
        ),
    ) {
        let cfg = PimConfig {
            ranks: 1,
            functional_dpus: vec![4],
            mram_size: 1 << 16,
            ..PimConfig::small()
        };
        let rank = Rank::new(0, &cfg);
        for (dpu, off, data) in &writes {
            rank.write_dpu(*dpu, *off, data).unwrap();
        }
        let snap = rank.snapshot_quiescent().unwrap();
        let mut originals = Vec::new();
        for dpu in 0..4 {
            let mut buf = vec![0u8; 2048];
            rank.read_dpu(dpu, 0, &mut buf).unwrap();
            originals.push(buf);
        }
        // Scribble, then wipe.
        rank.write_dpu(0, 0, &[0xEE; 512]).unwrap();
        rank.reset_content();
        rank.restore(&snap).unwrap();
        for (dpu, want) in originals.iter().enumerate() {
            let mut buf = vec![0u8; 2048];
            rank.read_dpu(dpu, 0, &mut buf).unwrap();
            prop_assert!(&buf == want, "dpu {} differs after restore", dpu);
        }
    }

    /// Under arbitrary push/remove churn, a FIFO queue always serves the
    /// oldest surviving ticket — and when the survivors (topped up to more
    /// than 8 distinct tenants) then queue on one rank, the scheduler grants
    /// them in exactly that global ticket order.
    #[test]
    fn fifo_head_is_always_oldest_surviving_ticket(
        ops in proptest::collection::vec((any::<bool>(), 0u64..24), 1..48),
    ) {
        let mut q = AdmissionQueue::new(SchedPolicy::Fifo);
        let mut alive: Vec<u64> = Vec::new();
        let mut next = 0u64;
        for (push, pick) in ops {
            if push || alive.is_empty() {
                q.push(&format!("tenant-{next}"), next, pick);
                alive.push(next);
                next += 1;
            } else {
                let victim = alive[(pick as usize) % alive.len()];
                prop_assert!(q.remove(victim));
                alive.retain(|&x| x != victim);
            }
            prop_assert_eq!(q.len(), alive.len());
            match q.head() {
                Some(w) => prop_assert_eq!(Some(w.ticket), alive.iter().copied().min()),
                None => prop_assert!(alive.is_empty()),
            }
        }
        while alive.len() <= 8 {
            alive.push(next);
            next += 1;
        }
        prop_assert_eq!(grant_order(&alive), alive);
    }
}
