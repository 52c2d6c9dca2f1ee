//! Criterion: the sharded rank table against its single-lock baseline
//! under thread churn (ISSUE 7's tentpole acceptance bench), measured at
//! 8–64 threads.
//!
//! The churn is the manager's real mix: mostly state reads (the observer
//! sweep / stats-poll shape) plus alloc → recycle write bursts. The
//! baseline is [`ReferenceTable`] (the seed's one table-wide mutex,
//! retained verbatim); the contender is the sharded [`TableState`], whose
//! reads ride the seqlock publish path without taking any lock.
//!
//! Wall-clock results are printed per thread count and, when
//! `CONTROL_PLANE_BENCH_OUT` is set, published as a JSON document (the
//! shard gate copies it to `BENCH_control_plane.json` at the repo root).
//! The numbers are honest wall clock on whatever machine runs the gate —
//! on a single-CPU container the win comes from eliminating lock traffic,
//! not from parallelism, so the gate records the ratios rather than
//! hard-failing on them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use simkit::{CostModel, JsonObject};
use upmem_driver::UpmemDriver;
use upmem_sim::{PimConfig, PimMachine};
use vpim::manager::reference::ReferenceTable;
use vpim::manager::table::TableState;

const RANKS: usize = 8;
/// Reads per round: the control plane is read-dominated (observer sweeps,
/// stats polls, admission head probes), so the mix leans the same way.
const READS_PER_ROUND: usize = 16;
const ROUNDS: usize = 250;
const THREAD_COUNTS: [usize; 4] = [8, 16, 32, 64];

fn driver() -> Arc<UpmemDriver> {
    let machine = PimMachine::new(PimConfig {
        ranks: RANKS,
        functional_dpus: vec![2; RANKS],
        mram_size: 1 << 14,
        ..PimConfig::small()
    });
    Arc::new(UpmemDriver::new(machine))
}

/// Spawns `threads` workers running `work(thread_idx)` and returns the
/// wall time from first spawn to last join, minimized over 3 repetitions.
fn timed<F>(threads: usize, work: F) -> Duration
where
    F: Fn(usize) + Send + Sync + 'static,
{
    let work = Arc::new(work);
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let work = work.clone();
                std::thread::spawn(move || work(i))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        best = best.min(t0.elapsed());
    }
    best
}

fn table_round_single(table: &ReferenceTable, t: usize) {
    for i in 0..READS_PER_ROUND {
        let _ = table.state_of((t + i) % RANKS);
    }
    if let Ok(o) = table.alloc("bench", Duration::from_micros(50), 1) {
        table.recycle(o.rank);
    }
    let _ = table.states();
}

fn table_round_sharded(table: &TableState, t: usize) {
    for i in 0..READS_PER_ROUND {
        let _ = table.state_of((t + i) % RANKS);
    }
    if let Ok(o) = table.alloc("bench", Duration::from_micros(50), 1) {
        table.recycle(o.rank);
    }
    let _ = table.states();
}

fn table_single_run(threads: usize) -> Duration {
    let table = Arc::new(ReferenceTable::new(driver(), CostModel::default()));
    timed(threads, move |t| {
        for _ in 0..ROUNDS {
            table_round_single(&table, t);
        }
    })
}

fn table_sharded_run(threads: usize) -> Duration {
    let table = Arc::new(TableState::new(driver(), CostModel::default()));
    timed(threads, move |t| {
        for _ in 0..ROUNDS {
            table_round_sharded(&table, t);
        }
    })
}

struct Row {
    threads: usize,
    single: Duration,
    sharded: Duration,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.single.as_secs_f64() / self.sharded.as_secs_f64()
    }
}

fn sweep() -> Vec<Row> {
    THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let row = Row {
                threads,
                single: table_single_run(threads),
                sharded: table_sharded_run(threads),
            };
            println!(
                "control_plane/table/{threads}t: single-lock {:?}, sharded {:?} -> {:.2}x",
                row.single,
                row.sharded,
                row.speedup()
            );
            row
        })
        .collect()
}

fn json_leg(rows: &[Row]) -> JsonObject {
    rows.iter().fold(JsonObject::new(), |legs, r| {
        legs.obj(
            &r.threads.to_string(),
            JsonObject::new()
                .num("single_ns", r.single.as_nanos() as u64)
                .num("sharded_ns", r.sharded.as_nanos() as u64)
                .num("speedup_milli", (r.speedup() * 1000.0) as u64),
        )
    })
}

fn bench_control_plane(c: &mut Criterion) {
    // The criterion-visible pair at the acceptance thread count.
    let mut group = c.benchmark_group("control_plane_16t");
    group.bench_function("table_single_lock", |b| b.iter(|| table_single_run(16)));
    group.bench_function("table_sharded", |b| b.iter(|| table_sharded_run(16)));
    group.finish();

    // The full sweep the gate publishes.
    let table = sweep();
    for r in &table {
        assert!(
            r.speedup() > 0.5,
            "sharded rank table pathologically slower at {} threads: {:.2}x",
            r.threads,
            r.speedup()
        );
    }
    let json = JsonObject::new()
        .str("bench", "control_plane")
        .num("ranks", RANKS as u64)
        .num("rounds", ROUNDS as u64)
        .obj("table", json_leg(&table))
        .finish();
    println!("{json}");
    if let Ok(path) = std::env::var("CONTROL_PLANE_BENCH_OUT") {
        std::fs::write(&path, &json).expect("write CONTROL_PLANE_BENCH_OUT");
    }
}

criterion_group!(benches, bench_control_plane);
criterion_main!(benches);
