//! Criterion: the fleet consolidation curve (ISSUE 8's acceptance bench).
//!
//! For M ∈ {1, 2, 4} hosts the ladder offers an increasing session count
//! to `Fleet::load_run` and records the largest load the fleet sustains
//! within a p99 sojourn bound (no giveups, no launch failures). The bound
//! is self-calibrated: the p99 of a light (4-session) run on one host,
//! times four — so the curve is machine-independent virtual time, not
//! wall clock. Results are printed per fleet size and, when
//! `CLUSTER_BENCH_OUT` is set, published as a JSON document
//! (`ci/cluster-gate.sh` copies it to `BENCH_cluster.json`).
//!
//! The assertion encoded here is the paper's consolidation story: adding
//! hosts must never *shrink* the sessions the fleet sustains at the same
//! latency bound.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use simkit::JsonObject;
use vpim::cluster::{Fleet, FleetLoadReport, FleetSpec};
use vpim::load::{Arrival, LoadSpec, OpOutcome, TenantMix, TenantOp, TenantProfile};
use vpim::{TenantSpec, VpimConfig};

const SEED: u64 = 0xC1_0573;
const FLEET_SIZES: [usize; 3] = [1, 2, 4];
/// The session ladder each fleet size climbs.
const LADDER: [usize; 6] = [4, 8, 16, 24, 32, 48];

/// A two-op write/read mix that needs no registered kernels, so it runs
/// on the fleet's stock hosts.
fn mix() -> TenantMix {
    TenantMix::new().profile(
        TenantProfile::new("rw", TenantSpec::new("rw").mem_mib(16))
            .op(TenantOp::new(
                "write",
                Arc::new(|vm, seed| {
                    let data = vec![(seed & 0xff) as u8; 2048];
                    let r = vm.frontend(0).write_rank(&[(0, 0, &data)])?;
                    Ok(OpOutcome::new(r.duration(), seed))
                }),
            ))
            .op(TenantOp::new(
                "read",
                Arc::new(|vm, seed| {
                    let (data, r) = vm.frontend(0).read_rank(&[(0, 0, 1024)])?;
                    let sum = data.iter().flatten().map(|&b| u64::from(b)).sum::<u64>();
                    Ok(OpOutcome::new(r.duration(), sum.wrapping_add(seed)))
                }),
            ))
            .think_mean_ns(800),
    )
}

fn fleet(hosts: usize) -> Fleet {
    Fleet::start(
        FleetSpec::new(hosts)
            .config(VpimConfig::builder().batching(false).prefetch(false).build()),
    )
}

fn run(hosts: usize, sessions: usize) -> FleetLoadReport {
    let spec = LoadSpec::new(SEED, sessions).arrival(Arrival::Poisson { mean_gap_ns: 3_000 });
    let f = fleet(hosts);
    let report = f.load_run(&spec, &mix());
    f.shutdown();
    report
}

fn sustained(report: &FleetLoadReport, p99_bound_ns: u64) -> bool {
    report.giveups == 0
        && report.launch_failures == 0
        && report.completed == report.sessions
        && report.session_latency.p99.as_nanos() <= p99_bound_ns
}

struct Rung {
    hosts: usize,
    max_sessions: u64,
    consolidation_milli: u64,
    p99_ns: u64,
    makespan_ns: u64,
}

fn climb(hosts: usize, p99_bound_ns: u64) -> Rung {
    let mut best: Option<FleetLoadReport> = None;
    for &n in &LADDER {
        let report = run(hosts, n);
        if sustained(&report, p99_bound_ns) {
            best = Some(report);
        } else {
            break;
        }
    }
    let best = best.unwrap_or_else(|| {
        panic!("fleet of {hosts} sustains nothing — bound {p99_bound_ns} ns is broken")
    });
    Rung {
        hosts,
        max_sessions: best.sessions,
        consolidation_milli: best.consolidation_milli,
        p99_ns: best.session_latency.p99.as_nanos(),
        makespan_ns: best.makespan.as_nanos(),
    }
}

fn bench_cluster(c: &mut Criterion) {
    // The criterion-visible representative point.
    let mut group = c.benchmark_group("cluster_load");
    group.sample_size(10);
    group.bench_function("fleet2_16sessions", |b| b.iter(|| run(2, 16)));
    group.finish();

    // Self-calibrated p99 bound: 4× the light-load p99 on one host.
    let light = run(1, 4);
    let p99_bound_ns = light.session_latency.p99.as_nanos().max(1) * 4;
    println!(
        "cluster/bound: light p99 {} ns -> bound {} ns",
        light.session_latency.p99.as_nanos(),
        p99_bound_ns
    );

    let curve: Vec<Rung> = FLEET_SIZES.iter().map(|&m| climb(m, p99_bound_ns)).collect();
    for r in &curve {
        println!(
            "cluster/consolidation/{}h: max {} sessions (p99 {} ns, makespan {} ns, {} m-tenants/host)",
            r.hosts, r.max_sessions, r.p99_ns, r.makespan_ns, r.consolidation_milli
        );
    }
    // More hosts must never sustain *less* at the same bound.
    for pair in curve.windows(2) {
        assert!(
            pair[1].max_sessions >= pair[0].max_sessions,
            "consolidation regressed: {} hosts sustain {} sessions but {} hosts sustain {}",
            pair[0].hosts,
            pair[0].max_sessions,
            pair[1].hosts,
            pair[1].max_sessions
        );
    }

    let hosts = curve.iter().fold(JsonObject::new(), |hosts, r| {
        hosts.obj(
            &r.hosts.to_string(),
            JsonObject::new()
                .num("max_sessions", r.max_sessions)
                .num("consolidation_milli", r.consolidation_milli)
                .num("p99_ns", r.p99_ns)
                .num("makespan_ns", r.makespan_ns),
        )
    });
    let json = JsonObject::new()
        .str("bench", "cluster")
        .num("seed", SEED)
        .num("p99_bound_ns", p99_bound_ns)
        .obj("hosts", hosts)
        .finish();
    println!("{json}");
    if let Ok(path) = std::env::var("CLUSTER_BENCH_OUT") {
        std::fs::write(&path, &json).expect("write CLUSTER_BENCH_OUT");
    }
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
