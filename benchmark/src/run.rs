//! One run of one workload in this process: set-up (several times, median
//! reported), the timed section, the untimed simulated legs, and — with
//! tracing — traced cycles in turn with untraced ones, then the staged
//! replay.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vpim_system::simkit::{AppSegment, DriverSegment, MetricsSnapshot, Timeline, WriteStep};
use vpim_system::vpim::load::LoadReport;

use crate::catalog::{self, Level, Workload, METRICS};
use crate::host::{self, CpuTimes};
use crate::json::Json;
use crate::replay;
use crate::stats::{median, tail};
use crate::trace::{self, Tracer};
use crate::workloads::{Bench, IterVirt};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One iteration, one set-up: checks that every metric is produced.
    pub smoke: bool,
    /// Where `run.<workload>.<trace>.json` and `trace.<workload>.json` go.
    pub out_dir: Option<PathBuf>,
}

/// Values by metric name; a metric that does not apply is absent.
pub type Rows = BTreeMap<&'static str, f64>;

#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub smoke: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Timed iterations (= samples behind `iter_wall_p50_ms`).
    pub iterations: usize,
    pub header: Json,
    pub rows: Rows,
}

impl RunRecord {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// FNV-1a over every simulated row: a host-only change must leave it
    /// identical.
    pub fn virt_fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (name, value) in self.rows.iter().filter(|(n, _)| n.starts_with("virt")) {
            for b in name.bytes().chain(value.to_bits().to_le_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// The full record, as written to `run.<workload>.<trace>.json`.
    pub fn to_json(&self) -> Json {
        let metrics = METRICS.iter().filter_map(|m| {
            let value = *self.rows.get(m.name)?;
            Some((
                m.name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::str(m.unit)),
                    ("clock", Json::str(m.clock())),
                    (
                        "level",
                        Json::str(if m.level == Level::EndToEnd {
                            "end_to_end"
                        } else {
                            "layer"
                        }),
                    ),
                ]),
            ))
        });
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("smoke", Json::Bool(self.smoke)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("iterations", Json::Num(self.iterations as f64)),
            (
                "virt_fingerprint",
                Json::str(format!("{:016x}", self.virt_fingerprint())),
            ),
            ("header", self.header.clone()),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The line the driver reads: the gated metrics for an untraced run,
    /// the per-layer ones for a traced run. The contract wants every
    /// listed metric on every workload, so a layer row that does not apply
    /// to this workload reads 0 here (and is absent from the full record).
    pub fn driver_line(&self) -> Json {
        let metrics = METRICS
            .iter()
            .filter(|m| m.gate().is_some() != self.trace)
            .map(|m| {
                let value = self.rows.get(m.name).copied().unwrap_or(0.0);
                (
                    m.name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
                )
            });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Every metric by name with its value, unit and clock.
    pub fn print(&self) {
        println!(
            "== {} seed {} {} ({} iterations, {} attempted, {} failed)",
            self.workload.name(),
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            self.iterations,
            self.attempted,
            self.failed
        );
        for m in METRICS {
            if let Some(v) = self.rows.get(m.name) {
                let samples = match m.name {
                    "iter_wall_p50_ms" | "host.iter_wall_tail_ms" => {
                        format!("  n={}", self.iterations)
                    }
                    _ => String::new(),
                };
                println!(
                    "{:<40} {:>18.6} {:<9} [{}]{samples}",
                    m.name,
                    v,
                    m.unit,
                    m.clock()
                );
            }
        }
        println!(
            "{:<40} {:016x}",
            "virt_fingerprint",
            self.virt_fingerprint()
        );
    }
}

/// Wall times and counts of one timed section.
#[derive(Default)]
struct Section {
    walls_ms: Vec<f64>,
    elapsed: Duration,
    cpu: CpuTimes,
    attempted: u64,
    failed: u64,
}

impl Section {
    fn absorb(&mut self, other: Section) {
        self.walls_ms.extend(other.walls_ms);
        self.elapsed += other.elapsed;
        self.cpu = self.cpu.plus(other.cpu);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The simulated clock over the first `virt_iters` iterations.
#[derive(Default)]
struct VirtAcc {
    timeline: Timeline,
    loads: Vec<LoadReport>,
    /// Registry and DPU-boot counts before the first and after the last
    /// recorded iteration.
    before: Option<(MetricsSnapshot, u64)>,
    after: Option<(MetricsSnapshot, u64)>,
    iters: usize,
}

fn counters(bench: &Bench) -> (MetricsSnapshot, u64) {
    // One synchronous manager sweep, so rank recycling the observer thread
    // has not got to yet does not make the transition count depend on timing.
    bench.sys.sync_ranks();
    let boots = bench
        .driver
        .machine()
        .ranks()
        .iter()
        .map(|r| r.ci().boots())
        .sum();
    (bench.sys.registry().snapshot(), boots)
}

/// Iterates for `seconds`, ending only on a whole number of `cycle`s (the
/// rounds of `session_churn` differ in work by load seed, so a section
/// must hold the same mix of them on every run). The simulated clock is
/// recorded over the first cycle.
fn timed_section(
    bench: &mut Bench,
    seconds: f64,
    cycle: usize,
    first_iter: u32,
    mut virt: Option<&mut VirtAcc>,
) -> Section {
    let mut s = Section::default();
    if let Some(acc) = virt.as_mut() {
        acc.before = Some(counters(bench));
    }
    let cpu0 = CpuTimes::now();
    let t0 = Instant::now();
    let mut bookkeeping = Duration::ZERO;
    loop {
        let done = s.walls_ms.len();
        let whole = done >= cycle && done % cycle == 0;
        if whole && (t0.elapsed() - bookkeeping).as_secs_f64() >= seconds {
            break;
        }
        let it0 = Instant::now();
        let out = bench.iterate(first_iter + done as u32);
        s.walls_ms.push(it0.elapsed().as_secs_f64() * 1e3);
        s.attempted += out.attempted;
        s.failed += out.failed;
        if let Some(acc) = virt.as_mut() {
            if done < cycle {
                let b0 = Instant::now();
                match out.virt {
                    IterVirt::Timeline(t) => acc.timeline.merge(&t),
                    IterVirt::Load(r) => acc.loads.push(*r),
                }
                acc.iters += 1;
                if done + 1 == cycle {
                    acc.after = Some(counters(bench));
                }
                bookkeeping += b0.elapsed();
            }
        }
    }
    s.elapsed = t0.elapsed() - bookkeeping;
    s.cpu = CpuTimes::now().since(cpu0);
    s
}

fn ns(d: vpim_system::simkit::VirtualNanos) -> f64 {
    d.as_nanos() as f64
}

/// The model rows: simulated, exact, per iteration.
fn virt_rows(kind: Workload, acc: &VirtAcc, rows: &mut Rows) {
    let n = acc.iters.max(1) as f64;
    let (Some((s0, boots0)), Some((s1, boots1))) = (&acc.before, &acc.after) else {
        return;
    };
    let delta = |name: &str| (s1.count(name) - s0.count(name)) as f64;
    for (row, counter) in [
        ("virt.vmm.vmexits", "vmm.vmexits"),
        ("virt.virtio.irq_injections", "virtio.irq.injections"),
        ("virt.frontend.prefetch.hits", "frontend.prefetch.hits"),
        ("virt.frontend.prefetch.misses", "frontend.prefetch.misses"),
        ("virt.frontend.batch.appends", "frontend.batch.appends"),
        ("virt.frontend.batch.flushes", "frontend.batch.flushes"),
        ("virt.frontend.batch.merges", "frontend.batch.merges"),
        ("virt.backend.writes", "backend.writes"),
        ("virt.backend.reads", "backend.reads"),
        ("virt.backend.ci", "backend.ci"),
        ("virt.datapath.bytes_zero_copy", "datapath.bytes.zero_copy"),
        ("virt.sched.grants", "sched.grants"),
        ("virt.sched.preemptions", "sched.preemptions"),
        (
            "virt.manager.rank_transitions",
            "manager.rank_state.transitions",
        ),
        ("virt.retry.attempts", "retry.attempts"),
        ("virt.retry.giveups", "retry.giveups"),
    ] {
        rows.insert(row, delta(counter) / n);
    }
    rows.insert("virt.sim.dpu_boots", (boots1 - boots0) as f64 / n);
    let share = |hit: &str, miss: &str| {
        let (h, m) = (delta(hit), delta(miss));
        (h + m > 0.0).then(|| h / (h + m))
    };
    if let Some(s) = share("frontend.prefetch.hits", "frontend.prefetch.misses") {
        rows.insert("virt.frontend.prefetch.hit_share", s);
    }
    if let Some(s) = share("datapath.pool.hits", "datapath.pool.misses") {
        rows.insert("host.pool.hit_share", s);
    }

    if kind == Workload::SessionChurn {
        let mean = |f: fn(&LoadReport) -> f64| acc.loads.iter().map(f).sum::<f64>() / n;
        rows.insert("virt_ns", mean(|r| ns(r.makespan)));
        rows.insert("virt_p99_ns", mean(|r| ns(r.session_latency.p99)));
        rows.insert(
            "virt.load.session_p50_ns",
            mean(|r| ns(r.session_latency.p50)),
        );
        rows.insert("virt.load.sustained_mps", mean(|r| r.sustained_mps as f64));
        let peak = acc
            .loads
            .iter()
            .map(|r| r.peak_queue_depth)
            .max()
            .unwrap_or(0);
        rows.insert("virt.sched.queue_depth_peak", peak as f64);
        return;
    }
    let t = &acc.timeline;
    rows.insert("virt_ns", ns(t.app_total()) / n);
    for (row, step) in [
        ("virt.write.page_mgmt_ns", WriteStep::PageMgmt),
        ("virt.write.serialize_ns", WriteStep::Serialize),
        ("virt.write.interrupt_ns", WriteStep::Interrupt),
        ("virt.write.deserialize_ns", WriteStep::Deserialize),
        ("virt.write.transfer_data_ns", WriteStep::TransferData),
    ] {
        rows.insert(row, ns(t.write_step(step)) / n);
    }
    for (row, seg) in [
        ("virt.driver.ci_ns", DriverSegment::Ci),
        ("virt.driver.read_rank_ns", DriverSegment::ReadRank),
        ("virt.driver.write_rank_ns", DriverSegment::WriteRank),
    ] {
        rows.insert(row, ns(t.driver(seg)) / n);
    }
    for (row, seg) in [
        ("virt.app.cpu_dpu_ns", AppSegment::CpuToDpu),
        ("virt.app.dpu_ns", AppSegment::Dpu),
        ("virt.app.inter_dpu_ns", AppSegment::InterDpu),
        ("virt.app.dpu_cpu_ns", AppSegment::DpuToCpu),
    ] {
        rows.insert(row, ns(t.app(seg)) / n);
    }
}

/// Host metrics of one untraced section. The untraced run measures it on
/// one CPU and reports the end-to-end metrics; the traced run measures it
/// on every CPU and reports the same quantities as `host.unpinned.*` rows.
fn host_rows(s: &Section, traced: bool, rows: &mut Rows) {
    let iters = s.walls_ms.len() as f64;
    let elapsed_s = s.elapsed.as_secs_f64();
    let (wall, cpu) = if traced {
        (
            "host.unpinned.iter_wall_p50_ms",
            "host.unpinned.cpu_ms_per_iter",
        )
    } else {
        rows.insert("iter_per_s", iters / elapsed_s);
        ("iter_wall_p50_ms", "cpu_ms_per_iter")
    };
    rows.insert(wall, median(&s.walls_ms));
    rows.insert(cpu, s.cpu.total_s() * 1e3 / iters);
    rows.insert("fail_share", s.failed as f64 / s.attempted.max(1) as f64);
    if s.cpu.total_s() > 0.0 {
        rows.insert("host.cpu_sys_share", s.cpu.sys_s / s.cpu.total_s());
    }
    rows.insert("host.page_faults", s.cpu.minor_faults / iters);
    if let Some(&vmexits) = rows.get("virt.vmm.vmexits").filter(|v| **v > 0.0) {
        rows.insert("host.ns_per_vmexit", elapsed_s * 1e9 / (iters * vmexits));
    }
    if let Some(&bytes) = rows.get("virt.datapath.bytes_zero_copy") {
        rows.insert(
            "host.mib_per_s",
            bytes * iters / elapsed_s / f64::from(1 << 20),
        );
    }
    if let Some((pct, value)) = tail(&s.walls_ms) {
        rows.insert("host.iter_wall_tail_ms", value);
        rows.insert("host.iter_wall_tail_pct", pct);
    }
}

/// Host rows from the spans: every span called `host.*` fills the row of
/// that name with its median self time.
fn span_rows(kind: Workload, spans: &[trace::Span], rows: &mut Rows) {
    let by_name = trace::median_self_by_name(spans);
    for m in METRICS {
        if let Some((self_ns, _calls)) = by_name.get(m.name) {
            rows.insert(m.name, *self_ns);
        }
    }
    // Sessions per second is over `load.run`'s whole duration (its self
    // time excludes the op bodies recorded on the worker threads).
    let rounds: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "load.run")
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    if !rounds.is_empty() {
        rows.insert(
            "host.load.sessions_per_s",
            crate::workloads::CHURN_SESSIONS as f64 * 1e9 / median(&rounds),
        );
    }
    if let Some((launch_ns, _)) = by_name.get("bench.native_launch") {
        rows.insert(
            "host.sim.launch_ns",
            launch_ns / crate::workloads::DPUS_PER_RANK as f64,
        );
    }

    // How much of the in-place span the staged layers explain: fixed cost
    // per request, transfer layers per rank operation, kernel time per DPU
    // boot. The staged sum is serial; the backend runs entries on a worker
    // pool, so a share above 1 means overlap, below 1 lock wait, thread
    // hand-off and scheduling.
    let in_place = [
        "host.sdk.push_to_heap_ns",
        "host.sdk.push_from_heap_ns",
        "host.app.run_ns",
    ]
    .iter()
    .find_map(|n| rows.get(n).copied());
    if let Some(in_place) = in_place {
        let r = |name: &str| rows.get(name).copied().unwrap_or(0.0);
        let dpus = kind.shape().dpus as f64;
        let common = r("host.matrix.serialize_ns")
            + r("host.matrix.deserialize_ns")
            + r("host.backend.partition_ns");
        let per_write = common
            + r("host.matrix.from_user_buffers_ns")
            + dpus * r("host.backend.write_entry_ns");
        let per_read = common
            + dpus
                * (r("host.virtio.alloc_pages_ns")
                    + r("host.backend.read_entry_ns")
                    + r("host.matrix.gather_ns"));
        let staged = r("virt.vmm.vmexits") * r("host.frontend.poll_status_ns")
            + r("virt.backend.writes") * per_write
            + r("virt.backend.reads") * per_read
            + r("virt.sim.dpu_boots") * r("host.sim.launch_ns");
        rows.insert("trace.coverage_share", staged / in_place);
    }
}

/// `cpus` is the count before pinning.
fn header(
    opts: &RunOpts,
    kind: Workload,
    setup_reps: usize,
    cpus: usize,
    pinned_cpu: Option<usize>,
) -> Json {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    Json::obj([
        ("nproc", Json::Num(cpus as f64)),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        ("load_avg_1m_at_start", Json::Num(host::load_avg_1m())),
        (
            "malloc_mmap_threshold",
            Json::str(env("MALLOC_MMAP_THRESHOLD_")),
        ),
        (
            "malloc_trim_threshold",
            Json::str(env("MALLOC_TRIM_THRESHOLD_")),
        ),
        ("git_commit", Json::str(env("VPIM_BENCH_COMMIT"))),
        ("rustc", Json::str(env("VPIM_BENCH_RUSTC"))),
        ("seconds", Json::Num(opts.seconds)),
        ("setup_reps", Json::Num(setup_reps as f64)),
        ("virt_iterations", Json::Num(kind.cycle() as f64)),
        (
            "load_generator_threads",
            Json::Num(host::nproc().min(2) as f64),
        ),
    ])
}

pub fn run(opts: &RunOpts) -> Result<RunRecord, String> {
    let kind = opts.workload;
    let setup_reps = if opts.smoke { 1 } else { SETUP_REPS };
    let cpus = host::nproc();
    // Before the first thread of the stack starts, so that all inherit it.
    let pinned_cpu = if opts.trace || !kind.pinned() {
        None
    } else {
        host::pin_to_one_cpu()
    };
    let header = header(opts, kind, setup_reps, cpus, pinned_cpu);
    let tracer = Arc::new(Tracer::new());
    let mut rows = Rows::new();

    // ---- set-up ---------------------------------------------------------
    let mut setups = Vec::with_capacity(setup_reps);
    let mut bench = None;
    for _ in 0..setup_reps {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(Bench::setup(kind, opts.seed, tracer.clone())?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    rows.insert("setup_s", median(&setups));

    // ---- timed ----------------------------------------------------------
    let cycle = if opts.smoke { 1 } else { kind.cycle() };
    let mut acc = VirtAcc::default();
    let mut base = Section::default();
    if opts.trace {
        // Untraced and traced cycles take turns for half the time given (the
        // staged replay gets the other half), so that a drift of the machine
        // does not read as tracing overhead.
        let budget = if opts.smoke { 0.0 } else { opts.seconds / 2.0 };
        let mut traced = Section::default();
        let mut virt = Some(&mut acc);
        let t0 = Instant::now();
        loop {
            let next = 1 + (base.walls_ms.len() + traced.walls_ms.len()) as u32;
            base.absorb(timed_section(&mut bench, 0.0, cycle, next, virt.take()));
            tracer.enable(true);
            traced.absorb(timed_section(
                &mut bench,
                0.0,
                cycle,
                next + cycle as u32,
                None,
            ));
            tracer.enable(false);
            if t0.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
        rows.insert(
            "trace.overhead_share",
            median(&traced.walls_ms) / median(&base.walls_ms) - 1.0,
        );
        base.attempted += traced.attempted;
        base.failed += traced.failed;
    } else {
        let seconds = if opts.smoke { 0.0 } else { opts.seconds };
        base = timed_section(&mut bench, seconds, cycle, 1, Some(&mut acc));
    }
    virt_rows(kind, &acc, &mut rows);
    host_rows(&base, opts.trace, &mut rows);
    let (mut attempted, mut failed) = (base.attempted, base.failed);

    // ---- untimed legs -----------------------------------------------------
    attempted += 1;
    failed += u64::from(!bench.verify_final());
    let mut native_set = None;
    if let Some((native, set)) = bench.native_leg()? {
        let native_ns = ns(native.app_total());
        rows.insert("virt.native_ns", native_ns);
        rows.insert("virt_overhead_x", rows["virt_ns"] / native_ns);
        // Only the kernel workloads replay on the native set; the others
        // give its ranks back before the replay launches guests.
        native_set = kind.shape().kernel_tasklets.map(|_| set);
    }
    if opts.trace {
        tracer.enable(true);
        let budget = Duration::from_secs_f64(if opts.smoke { 0.0 } else { opts.seconds / 2.0 });
        replay::run(&bench, native_set.as_mut(), &tracer, budget)?;
        tracer.enable(false);
        let spans = tracer.spans();
        span_rows(kind, &spans, &mut rows);
        if let Some(dir) = &opts.out_dir {
            let path = dir.join(format!("trace.{}.json", kind.name()));
            std::fs::write(&path, trace::chrome_trace(&spans).encode())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    drop(native_set);
    if kind == Workload::MultirankPush {
        let seq = bench.sequential_leg()?;
        rows.insert(
            "virt.multirank.par_speedup_x",
            ns(seq.app_total()) / rows["virt_ns"],
        );
    } else {
        drop(bench);
    }
    rows.insert("peak_rss_mib", host::peak_rss_mib());

    // A metric that does not apply to the workload is omitted, never
    // zero-filled; one this kind of run should have produced and did not
    // is a bug here. (The tail needs twenty samples.)
    rows.retain(|name, _| catalog::metric(name).is_some_and(|m| m.applies_to(kind)));
    let missing: Vec<&str> = METRICS
        .iter()
        .filter(|m| m.expected_from(kind, opts.trace) && !rows.contains_key(m.name))
        .filter(|m| !m.name.starts_with("host.iter_wall_tail"))
        .map(|m| m.name)
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "{}: metrics not produced: {}",
            kind.name(),
            missing.join(", ")
        ));
    }

    let record = RunRecord {
        workload: kind,
        seed: opts.seed,
        trace: opts.trace,
        smoke: opts.smoke,
        attempted,
        failed,
        iterations: base.walls_ms.len(),
        header,
        rows,
    };
    if let Some(dir) = &opts.out_dir {
        let path = dir.join(format!("run.{}.{}.json", kind.name(), u8::from(opts.trace)));
        std::fs::write(&path, record.to_json().pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--smoke`: one iteration of every workload, traced and untraced.
    /// Seconds with `cargo test --release`, about a minute unoptimised.
    #[test]
    fn smoke_produces_every_metric_of_every_workload() {
        for kind in Workload::ALL {
            let smoke = |trace| {
                let opts = RunOpts {
                    workload: kind,
                    seed: catalog::DEFAULT_SEED,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                    out_dir: None,
                };
                run(&opts).unwrap_or_else(|e| panic!("{e}"))
            };
            let (untraced, traced) = (smoke(false), smoke(true));
            assert!(untraced.correct() && traced.correct(), "{}", kind.name());
            assert_eq!(
                untraced.virt_fingerprint(),
                traced.virt_fingerprint(),
                "{}",
                kind.name()
            );

            // The tail needs twenty samples; a smoke run has one.
            for m in METRICS
                .iter()
                .filter(|m| !m.name.starts_with("host.iter_wall_tail"))
            {
                for record in [&untraced, &traced] {
                    let value = record.rows.get(m.name);
                    let what = format!("{} on {} (traced: {})", m.name, kind.name(), record.trace);
                    assert!(
                        value.is_some() || !m.expected_from(kind, record.trace),
                        "{what}"
                    );
                    assert!(value.is_none() || m.applies_to(kind), "{what}");
                    assert!(value.is_none_or(|v| v.is_finite()), "{what}");
                }
            }

            let doc = traced.to_json();
            assert_eq!(Json::parse(&doc.pretty()).expect("own encoding"), doc);
            for (record, list) in [(&untraced, "end_to_end"), (&traced, "per_layer")] {
                let line = Json::parse(&record.driver_line().encode()).expect("own encoding");
                let printed: Vec<&str> = line
                    .get("metrics")
                    .unwrap()
                    .as_obj()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                let manifest = catalog::manifest();
                let listed: Vec<&str> = manifest
                    .get(list)
                    .unwrap()
                    .as_arr()
                    .iter()
                    .filter_map(|m| m.get("name")?.as_str())
                    .collect();
                assert_eq!(printed, listed, "{list} of {}", kind.name());
            }
        }
    }
}
