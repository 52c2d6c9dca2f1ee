//! The benchmark's vocabulary: the six workloads and every metric by name,
//! with its unit, its clock, its direction, its regression bound and the
//! workloads it applies to. `BENCHMARK.json` is generated from this table
//! (`vpim-benchmark manifest`) and a test keeps the two identical.
//!
//! Two clocks. A name starting with `virt` is *simulated* time or a count
//! from the cost model: it must repeat exactly for a given seed. Everything
//! else is *host* time (or memory) of the Rust we wrote.

use crate::json::Json;

/// How long one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// The seed `run.sh` uses when none is given. A second seed is held back
/// for later claims; see `benchmark/README.md`.
pub const DEFAULT_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChecksumApp,
    BulkWrite,
    BulkRead,
    NwSmallOps,
    MultirankPush,
    SessionChurn,
}

use Workload::{BulkRead, BulkWrite, ChecksumApp, MultirankPush, NwSmallOps, SessionChurn};

impl Workload {
    pub const ALL: [Workload; 6] = [
        ChecksumApp,
        BulkWrite,
        BulkRead,
        NwSmallOps,
        MultirankPush,
        SessionChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ChecksumApp => "checksum_app",
            BulkWrite => "bulk_write",
            BulkRead => "bulk_read",
            NwSmallOps => "nw_small_ops",
            MultirankPush => "multirank_push",
            SessionChurn => "session_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload was chosen (one line, at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            ChecksumApp => "paper's reference app (Fig. 12/13 point): one bulk write, a kernel launch, 60 tiny reads, so kernel execution, write path and prefetch path each hold a visible share",
            BulkWrite => "60 x 512 KiB push_to_heap: page/serialize, virtqueue, translate and rank write do all the work; few requests, no kernel; the workload a transfer-pipeline change must move",
            BulkRead => "same 60 x 512 KiB read back and verified: the same layers in the other direction (scatter into guest pages, prefetch bypass); a write-path gain that costs reads shows here",
            NwSmallOps => "PrIM NW, the paper's worst case (Fig. 14): hundreds of small requests per run, so per-request host cost dominates and bytes are negligible; the inverse of bulk_write",
            MultirankPush => "one 120 MiB push over 4 ranks (Fig. 15): event-manager pool, begin-all/finish-all and backpressure carry it; CPU vs wall separates less work from more overlap",
            SessionChurn => "250-session load rounds on 16 MiB guests: VM boot, admission, rank grant/recycle and telemetry registration dominate; the control-plane counterweight to the data path",
        }
    }

    fn bit(self) -> u8 {
        1 << (self as u8)
    }
}

const ALL: u8 = 0b11_1111;
const CHURN: u8 = 1 << (SessionChurn as u8);
/// The five data-path workloads.
const DATA: u8 = ALL & !CHURN;
/// Workloads that launch a single known kernel.
const APPS: u8 = (1 << (ChecksumApp as u8)) | (1 << (NwSmallOps as u8));
/// Workloads with cacheable (single-DPU, small) reads.
const SMALL_READS: u8 = APPS | CHURN;
const PUSHES: u8 = (1 << (BulkWrite as u8)) | (1 << (MultirankPush as u8));
const MULTIRANK: u8 = 1 << (MultirankPush as u8);
const BULK_READ: u8 = 1 << (BulkRead as u8);
/// Workloads whose requests all have the replayed shape, so the staged
/// layers can be summed against the in-place span.
const ONE_SHAPE: u8 = PUSHES | BULK_READ | (1 << (NwSmallOps as u8));

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How `compare` judges a change in a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Simulated rows and `fail_share`: any difference is a change.
    Exact,
    /// Host rows: the share of the base median by which the metric may
    /// worsen before it counts as a regression.
    Share(f64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    EndToEnd,
    Layer,
}

/// Which kind of run measures a metric. The untraced run measures pinned to
/// one CPU (see `host::pin_to_one_cpu`), the traced run on all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Both,
    Untraced,
    Traced,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    pub level: Level,
    pub source: Source,
    applies: u8,
}

impl MetricDef {
    pub fn applies_to(&self, w: Workload) -> bool {
        self.applies & w.bit() != 0
    }

    /// The bound under which the metric is in `BENCHMARK.json`'s
    /// `end_to_end` list; `None` puts it in `per_layer`. The driver wants
    /// every `end_to_end` metric on every workload, never zero, and rejects
    /// a time that reads the same on every run. So only the host metrics
    /// are listed there:
    /// `fail_share` (zero), `virt_overhead_x` and `virt_p99_ns` (not on
    /// every workload) and `virt_ns` (simulated, so it repeats exactly)
    /// are listed as layer rows and judged by `compare` instead.
    pub fn gate(&self) -> Option<f64> {
        match (self.level, self.bound) {
            (Level::EndToEnd, Bound::Share(bound)) => Some(bound),
            _ => None,
        }
    }

    /// Whether a run of `w`, traced or not, must produce this metric.
    pub fn expected_from(&self, w: Workload, traced: bool) -> bool {
        let measured = match self.source {
            Source::Both => true,
            Source::Untraced => !traced,
            Source::Traced => traced,
        };
        self.applies_to(w) && measured
    }

    const fn from(self, source: Source) -> MetricDef {
        MetricDef { source, ..self }
    }

    pub fn is_virtual(&self) -> bool {
        self.name.starts_with("virt")
    }

    pub fn clock(&self) -> &'static str {
        if self.is_virtual() {
            "virtual"
        } else {
            "host"
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
    applies: u8,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        level: Level::EndToEnd,
        source: Source::Both,
        applies,
    }
}

const fn virt(name: &'static str, unit: &'static str, better: Better, applies: u8) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Bound::Exact,
        level: Level::Layer,
        source: Source::Both,
        applies,
    }
}

/// A host row of the traced run; the derived rows, which every run can
/// compute, are marked `.from(Both)`.
const fn host(name: &'static str, unit: &'static str, better: Better, applies: u8) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Bound::Share(0.10),
        level: Level::Layer,
        source: Source::Traced,
        applies,
    }
}

use Better::{Higher, Lower};
use Source::{Both, Untraced};

/// Every metric the benchmark reports, in print order.
pub const METRICS: &[MetricDef] = &[
    // ---- end to end ---------------------------------------------------
    // The bounds are three times the widest quartile spread seen over ten
    // seeds on the 2-vCPU sandbox (README, "Noise hygiene"): raw memcpy
    // bandwidth alone moves by a tenth there from one second to the next.
    e2e("setup_s", "s", Lower, Bound::Share(0.25), ALL),
    e2e("iter_per_s", "1/s", Higher, Bound::Share(0.20), ALL).from(Untraced),
    e2e("iter_wall_p50_ms", "ms", Lower, Bound::Share(0.20), ALL).from(Untraced),
    e2e("cpu_ms_per_iter", "ms", Lower, Bound::Share(0.20), ALL).from(Untraced),
    e2e("peak_rss_mib", "MiB", Lower, Bound::Share(0.25), ALL),
    e2e("virt_ns", "virt_ns", Lower, Bound::Exact, ALL),
    e2e("virt_overhead_x", "x", Lower, Bound::Exact, DATA),
    e2e("virt_p99_ns", "virt_ns", Lower, Bound::Exact, CHURN),
    e2e("fail_share", "share", Lower, Bound::Exact, ALL),
    // ---- model rows: simulated, exact, per iteration --------------------
    virt("virt.vmm.vmexits", "count", Lower, ALL),
    virt("virt.virtio.irq_injections", "count", Lower, ALL),
    virt("virt.frontend.prefetch.hits", "count", Higher, ALL),
    virt("virt.frontend.prefetch.misses", "count", Lower, ALL),
    virt(
        "virt.frontend.prefetch.hit_share",
        "share",
        Higher,
        SMALL_READS,
    ),
    virt("virt.frontend.batch.appends", "count", Higher, ALL),
    virt("virt.frontend.batch.flushes", "count", Lower, ALL),
    virt("virt.frontend.batch.merges", "count", Higher, ALL),
    virt("virt.backend.writes", "count", Lower, ALL),
    virt("virt.backend.reads", "count", Lower, ALL),
    virt("virt.backend.ci", "count", Lower, ALL),
    virt("virt.datapath.bytes_zero_copy", "B", Higher, ALL),
    virt("virt.write.page_mgmt_ns", "virt_ns", Lower, DATA),
    virt("virt.write.serialize_ns", "virt_ns", Lower, DATA),
    virt("virt.write.interrupt_ns", "virt_ns", Lower, DATA),
    virt("virt.write.deserialize_ns", "virt_ns", Lower, DATA),
    virt("virt.write.transfer_data_ns", "virt_ns", Lower, DATA),
    virt("virt.driver.ci_ns", "virt_ns", Lower, DATA),
    virt("virt.driver.read_rank_ns", "virt_ns", Lower, DATA),
    virt("virt.driver.write_rank_ns", "virt_ns", Lower, DATA),
    virt("virt.app.cpu_dpu_ns", "virt_ns", Lower, DATA),
    virt("virt.app.dpu_ns", "virt_ns", Lower, DATA),
    virt("virt.app.inter_dpu_ns", "virt_ns", Lower, DATA),
    virt("virt.app.dpu_cpu_ns", "virt_ns", Lower, DATA),
    virt("virt.native_ns", "virt_ns", Lower, DATA),
    virt("virt.multirank.par_speedup_x", "x", Higher, MULTIRANK),
    virt("virt.sim.dpu_boots", "count", Lower, ALL),
    virt("virt.sched.grants", "count", Lower, ALL),
    virt("virt.sched.preemptions", "count", Lower, ALL),
    virt("virt.sched.queue_depth_peak", "count", Lower, CHURN),
    virt("virt.manager.rank_transitions", "count", Lower, ALL),
    virt("virt.retry.attempts", "count", Lower, ALL),
    virt("virt.retry.giveups", "count", Lower, ALL),
    virt("virt.load.sustained_mps", "m/virt_s", Higher, CHURN),
    virt("virt.load.session_p50_ns", "virt_ns", Lower, CHURN),
    // ---- host rows measured in place (median wall per call) -------------
    host("host.app.run_ns", "ns", Lower, SMALL_READS),
    host("host.sdk.alloc_vm_ns", "ns", Lower, APPS),
    host("host.sdk.push_to_heap_ns", "ns", Lower, PUSHES),
    host("host.sdk.push_from_heap_ns", "ns", Lower, BULK_READ),
    host("host.load.sessions_per_s", "1/s", Higher, CHURN),
    // ---- host rows from the staged replay (median self time per call) ---
    host("host.system.launch_ns", "ns", Lower, ALL),
    host("host.frontend.write_rank_ns", "ns", Lower, ALL),
    host("host.frontend.read_rank_ns", "ns", Lower, ALL),
    host("host.frontend.poll_status_ns", "ns", Lower, ALL),
    host("host.matrix.from_user_buffers_ns", "ns", Lower, ALL),
    host("host.matrix.serialize_ns", "ns", Lower, ALL),
    host("host.matrix.deserialize_ns", "ns", Lower, ALL),
    host("host.matrix.scatter_ns", "ns", Lower, ALL),
    host("host.matrix.gather_ns", "ns", Lower, ALL),
    host("host.virtio.alloc_pages_ns", "ns", Lower, ALL),
    host("host.virtio.alloc_contiguous_ns", "ns", Lower, ALL),
    host("host.virtio.queue_cycle_ns", "ns", Lower, ALL),
    host("host.spec.codec_ns", "ns", Lower, ALL),
    host("host.backend.partition_ns", "ns", Lower, ALL),
    host("host.backend.write_entry_ns", "ns", Lower, ALL),
    host("host.backend.read_entry_ns", "ns", Lower, ALL),
    host("host.sim.interleave_ns", "ns", Lower, ALL),
    host("host.sim.rank_write_ns", "ns", Lower, ALL),
    host("host.sim.rank_read_ns", "ns", Lower, ALL),
    host("host.sim.launch_ns", "ns", Lower, APPS),
    host("host.manager.alloc_release_ns", "ns", Lower, ALL),
    host("host.sched.queue_op_ns", "ns", Lower, ALL),
    host("host.pool.take_ns", "ns", Lower, ALL),
    // ---- derived ------------------------------------------------------
    host("host.ns_per_vmexit", "ns", Lower, ALL).from(Both),
    host("host.mib_per_s", "MiB/s", Higher, ALL).from(Both),
    host("host.cpu_sys_share", "share", Lower, ALL).from(Both),
    host("host.page_faults", "count", Lower, ALL).from(Both),
    // A count of the registry, but of a host-side cache: with several
    // sessions in flight it depends on thread timing, so it is no model row.
    host("host.pool.hit_share", "share", Higher, ALL).from(Both),
    host("host.iter_wall_tail_ms", "ms", Lower, ALL).from(Both),
    host("host.iter_wall_tail_pct", "%", Higher, ALL).from(Both),
    host("host.unpinned.iter_wall_p50_ms", "ms", Lower, DATA),
    host("host.unpinned.cpu_ms_per_iter", "ms", Lower, DATA),
    host("trace.coverage_share", "share", Higher, ONE_SHAPE),
    host("trace.overhead_share", "share", Lower, ALL),
];

pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let better = |b: Better| Json::str(if b == Lower { "lower" } else { "higher" });
    let row = |m: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", better(m.better)),
        ];
        if let Some(bound) = m.gate() {
            pairs.push(("bound", Json::Num(bound)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("sh"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                METRICS
                    .iter()
                    .filter(|m| m.gate().is_some())
                    .map(row)
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                METRICS
                    .iter()
                    .filter(|m| m.gate().is_none())
                    .map(row)
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for m in METRICS {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {:?}", m.name);
            assert!(m.unit.len() <= 16, "unit of {} too long", m.name);
            assert!(m.applies != 0, "{} applies to nothing", m.name);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        for bad in ["", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
    }

    #[test]
    fn virtual_rows_are_exact_and_gated_rows_apply_everywhere() {
        for m in METRICS {
            if m.is_virtual() {
                assert_eq!(m.bound, Bound::Exact, "{}", m.name);
            }
            if let Some(bound) = m.gate() {
                assert_eq!(m.applies, ALL, "{} is gated but not universal", m.name);
                assert!(bound > 0.0 && bound <= 0.25);
            }
        }
        assert!(METRICS.iter().filter(|m| m.gate().is_none()).count() <= 128);
    }

    #[test]
    fn committed_manifest_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `vpim-benchmark manifest > BENCHMARK.json`"
        );
    }
}
