//! Multi-threaded churn over the control plane with *exact* end-state
//! accounting.
//!
//! Unlike the property suite (`rank_table_properties.rs`), which walks the
//! rank table's state machine sequentially, this suite hammers the table,
//! the scheduler and the metric cells from 8–64 real threads and then
//! checks closed-form invariants that no interleaving may break:
//!
//! * no rank is lost or double-granted across any interleaving,
//! * `sched.queue.depth` returns to exactly 0,
//! * transition/grant counters match arithmetic over the per-thread tallies,
//! * metric cells hold exact totals.
//!
//! `SHARD_SEED` (env) varies the per-thread operation mix; `make tier1`
//! sweeps it together with `RUST_TEST_THREADS` the way the chaos leg does.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use simkit::{CostModel, MetricsRegistry, MetricValue, VirtualNanos};
use upmem_driver::UpmemDriver;
use upmem_sim::{PimConfig, PimMachine};
use vpim::manager::table::TableState;
use vpim::manager::{Manager, ManagerConfig, RankState};
use vpim::sched::{empty_slot, Scheduler};
use vpim::SchedSection;

/// The interleaving seed: swept by `make tier1`, defaulting to a
/// fixed value so a bare `cargo test` stays reproducible.
fn shard_seed() -> u64 {
    std::env::var("SHARD_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x5eed)
}

/// xorshift64* — cheap deterministic per-thread op mixing.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

fn driver(ranks: usize) -> Arc<UpmemDriver> {
    let cfg = PimConfig {
        ranks,
        functional_dpus: vec![2; ranks],
        mram_size: 1 << 14,
        ..PimConfig::small()
    };
    Arc::new(UpmemDriver::new(PimMachine::new(cfg)))
}

/// `threads` workers churn alloc → (maybe ckpt) → recycle on one table. End state: every rank NAAV, nothing lost, nothing double-granted,
/// and the transition counter equals its closed form
/// `2·allocs + ckpts` (each alloc is one edge, each recycle one, each
/// checkpoint one).
fn table_churn(threads: usize, rounds: usize) {
    let table = Arc::new(TableState::new(driver(8), CostModel::default()));
    // Double-grant detector: a rank may be inside at most one holder.
    let held: Arc<Mutex<HashSet<usize>>> = Arc::new(Mutex::new(HashSet::new()));
    let allocs = Arc::new(AtomicU64::new(0));
    let fails = Arc::new(AtomicU64::new(0));
    let ckpts = Arc::new(AtomicU64::new(0));
    let seed = shard_seed();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let (table, held) = (table.clone(), held.clone());
            let (allocs, fails, ckpts) = (allocs.clone(), fails.clone(), ckpts.clone());
            std::thread::spawn(move || {
                let mut rng = seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let owner = format!("vm-{t}");
                for _ in 0..rounds {
                    match table.alloc(&owner, Duration::from_millis(1), 1) {
                        Ok(outcome) => {
                            assert!(
                                held.lock().unwrap().insert(outcome.rank),
                                "rank {} double-granted",
                                outcome.rank
                            );
                            assert!(!outcome.reused, "no NANA ranks exist in this churn");
                            allocs.fetch_add(1, Ordering::Relaxed);
                            if next_rand(&mut rng) & 1 == 1 {
                                assert!(table.mark_ckpt(outcome.rank));
                                ckpts.fetch_add(1, Ordering::Relaxed);
                            }
                            assert!(held.lock().unwrap().remove(&outcome.rank));
                            assert!(table.recycle(outcome.rank), "held rank must recycle");
                        }
                        Err(_) => {
                            fails.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    // No rank lost: all 8 come back NAAV.
    let states = table.states();
    assert_eq!(states.len(), 8);
    for (r, s) in states.iter().enumerate() {
        assert_eq!(*s, RankState::Naav, "rank {r} lost to state {s:?}");
        assert_eq!(table.state_of(r), Some(*s));
    }
    assert!(held.lock().unwrap().is_empty());
    let (a, f, c) =
        (allocs.load(Ordering::Relaxed), fails.load(Ordering::Relaxed), ckpts.load(Ordering::Relaxed));
    assert_eq!(a + f, (threads * rounds) as u64);
    let stats = table.stats();
    assert_eq!(stats.allocations, a);
    assert_eq!(stats.reuses, 0);
    assert_eq!(stats.resets, 0);
    assert_eq!(stats.abandoned, f);
    // Closed form: alloc (NAAV→ALLO) + optional ckpt (ALLO→CKPT) +
    // recycle (ALLO/CKPT→NAAV) per successful round.
    assert_eq!(table.transitions(), 2 * a + c);
}

#[test]
fn table_churn_8_threads_loses_no_ranks() {
    table_churn(8, 60);
}

#[test]
fn table_churn_64_threads_loses_no_ranks() {
    table_churn(64, 12);
}

/// 8 tenant threads time-share 2 ranks through the oversubscribed
/// scheduler (grants, preemptions, checkpoint park/restore, voluntary
/// releases racing). Afterwards the accounting must be *exact*: the
/// `sched.grants` counter equals the threads' own success tally, the
/// queue-depth gauge is back at 0, and no lease or parked state survives.
#[test]
fn oversubscribed_churn_settles_queue_depth_and_grants() {
    const TENANTS: usize = 8;
    const ROUNDS: usize = 5;
    let driver = driver(2);
    let mcfg = ManagerConfig {
        retry_timeout: Duration::from_millis(2),
        max_attempts: 1,
    };
    let registry = MetricsRegistry::new();
    let mgr = Manager::start(driver.clone(), CostModel::default(), mcfg);
    let cfg = SchedSection {
        oversubscription: true,
        quantum_ms: 1,
        admission_timeout_ms: 30_000,
        ..SchedSection::default()
    };
    let sched =
        Scheduler::new(driver.clone(), mgr.client(), cfg, CostModel::default(), &registry);
    let successes = Arc::new(AtomicU64::new(0));
    let timeouts = Arc::new(AtomicU64::new(0));
    let seed = shard_seed();
    let workers: Vec<_> = (0..TENANTS)
        .map(|t| {
            let sched = sched.clone();
            let (successes, timeouts) = (successes.clone(), timeouts.clone());
            std::thread::spawn(move || {
                let mut rng = seed ^ (t as u64).wrapping_mul(0x8cb9_2ba7_2f3d_8dd7);
                let tenant = format!("vm-{t}");
                let slot = empty_slot();
                for _ in 0..ROUNDS {
                    {
                        let mut guard = slot.lock();
                        match sched.acquire(&tenant, &slot) {
                            Ok(grant) => {
                                *guard = Some(grant.mapping);
                                successes.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                timeouts.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                        }
                    }
                    // Do a little accountable work, sometimes enough to
                    // burn the quantum and become the preferred victim.
                    sched.charge(&tenant, VirtualNanos::from_nanos(next_rand(&mut rng) % 3_000_000));
                    std::thread::yield_now();
                    // Voluntary release — unless a preempter already took
                    // the mapping out of the slot (then the lease is gone
                    // and our state is parked; the next acquire restores it).
                    let took = slot.lock().take();
                    if let Some(mapping) = took {
                        drop(mapping);
                        sched.notify_release(&tenant);
                    }
                }
                // Leave nothing behind: evict any still-parked checkpoint
                // and any lease from a final preempted-but-never-reacquired
                // round.
                if let Some(mapping) = slot.lock().take() {
                    drop(mapping);
                }
                sched.notify_release(&tenant);
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let (ok, bad) = (successes.load(Ordering::Relaxed), timeouts.load(Ordering::Relaxed));
    assert_eq!(ok + bad, (TENANTS * ROUNDS) as u64);
    assert!(ok > 0, "churn must make progress");
    // Exact end-state accounting.
    assert_eq!(sched.queue_depth(), 0, "admission queue must drain");
    let stats = sched.stats();
    assert_eq!(stats.grants, ok, "sched.grants must equal the threads' tally");
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.running, 0, "all leases released");
    assert_eq!(stats.parked_bytes, 0, "no checkpoint left parked");
    assert!(stats.restores <= stats.preemptions, "every restore had a preemption");
    let snap = registry.snapshot();
    assert_eq!(snap.get("sched.queue.depth"), Some(&MetricValue::Level(0)));
    assert_eq!(snap.count("sched.grants"), ok);
    mgr.shutdown();
}

/// Metric cells hold exact closed-form totals no matter which threads
/// performed the updates — including a gauge `set` to a level before the
/// threads move it both ways.
#[test]
fn metrics_hold_closed_form_totals() {
    const THREADS: usize = 16;
    const PER_THREAD: u64 = 10_000;
    const LEVEL: i64 = 41;
    let registry = MetricsRegistry::new();
    let counter = registry.counter("stress.count");
    let gauge = registry.gauge("stress.level");
    let time = registry.time("stress.time");
    let hist = registry.histogram("stress.hist");
    let preset = registry.gauge("stress.preset");
    preset.add(7);
    preset.set(LEVEL);
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let (c, g, t, h) = (counter.clone(), gauge.clone(), time.clone(), hist.clone());
            let p = preset.clone();
            std::thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    c.inc();
                    g.add(3);
                    g.sub(3);
                    p.add(2);
                    p.sub(1);
                    t.add(VirtualNanos::from_nanos(2));
                    h.record(VirtualNanos::from_nanos(1));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let n = THREADS as u64 * PER_THREAD;
    assert_eq!(counter.get(), n);
    assert_eq!(gauge.get(), 0, "balanced add/sub must return to zero across threads");
    assert_eq!(preset.get(), LEVEL + n as i64, "a set level is the base the deltas move");
    assert_eq!(time.get(), VirtualNanos::from_nanos(2 * n));
    assert_eq!(hist.count(), n);
    let snap = registry.snapshot();
    assert_eq!(snap.count("stress.count"), n);
    assert_eq!(snap.get("stress.level"), Some(&MetricValue::Level(0)));
    assert_eq!(
        snap.get("stress.time"),
        Some(&MetricValue::Time(VirtualNanos::from_nanos(2 * n)))
    );
}
