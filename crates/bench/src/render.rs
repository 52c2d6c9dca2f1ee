//! Text rendering of experiment results (the figures as tables).

use simkit::stats::TextTable;
use simkit::{
    AppSegment, DriverSegment, JsonObject, MetricValue, MetricsSnapshot, Timeline, VirtualNanos,
    WriteStep,
};

use crate::experiments::{
    AdaptiveRow, Fig11, Fig14, Fig15, Fig8Row, ManagerReport, OverheadSummary, PheapRow,
};

fn ms(d: VirtualNanos) -> String {
    format!("{:.2}", d.as_millis_f64())
}

fn fx(f: f64) -> String {
    format!("{f:.2}x")
}

/// Renders Table 1 (the PrIM inventory).
#[must_use]
pub fn table1() -> String {
    let mut t = TextTable::new(vec!["Domain".into(), "Benchmark".into(), "Short name".into()]);
    for app in prim::catalog() {
        t.row(vec![app.domain().into(), app.long_name().into(), app.name().into()]);
    }
    format!("Table 1: PrIM applications\n{}", t.render())
}

/// Renders Table 2 (the optimization matrix).
#[must_use]
pub fn table2() -> String {
    let mut t = TextTable::new(vec![
        "Variant".into(),
        "C Code Enhancement".into(),
        "Prefetch Cache".into(),
        "Request Batching".into(),
        "Parallel Handling".into(),
    ]);
    for v in vpim::Variant::ALL {
        let cfg = vpim::VpimConfig::variant_config(v);
        let mark = |b: bool| if b { "yes" } else { "-" }.to_string();
        t.row(vec![
            v.label().into(),
            mark(cfg.data_path == simkit::cost::DataPath::Vectorized),
            mark(cfg.prefetch_cache),
            mark(cfg.request_batching),
            mark(cfg.parallel_handling),
        ]);
    }
    format!("Table 2: optimization strategies per vPIM version\n{}", t.render())
}

/// Renders Fig. 8 rows with the four application segments.
#[must_use]
pub fn fig8(rows: &[Fig8Row]) -> String {
    let mut t = TextTable::new(vec![
        "app".into(),
        "#DPUs".into(),
        "system".into(),
        "CPU-DPU(ms)".into(),
        "DPU(ms)".into(),
        "Inter-DPU(ms)".into(),
        "DPU-CPU(ms)".into(),
        "total(ms)".into(),
        "overhead".into(),
        "msgs".into(),
    ]);
    for r in rows {
        for (name, tl, ovh) in [
            ("native", &r.native, String::new()),
            ("vPIM", &r.vpim, fx(r.overhead())),
        ] {
            t.row(vec![
                r.app.into(),
                r.dpus.to_string(),
                name.into(),
                ms(tl.app(AppSegment::CpuToDpu)),
                ms(tl.app(AppSegment::Dpu)),
                ms(tl.app(AppSegment::InterDpu)),
                ms(tl.app(AppSegment::DpuToCpu)),
                ms(tl.app_total()),
                ovh.clone(),
                tl.messages().to_string(),
            ]);
        }
    }
    format!("Fig. 8: PrIM execution time, strong scaling (segments in ms)\n{}", t.render())
}

/// Renders a §5.2-style overhead summary line.
#[must_use]
pub fn summary_line(dpus: usize, s: &OverheadSummary) -> String {
    format!(
        "{dpus} DPUs: overhead {} .. {} (mean {}); {} apps < 1.15x, {} apps < 1.5x",
        fx(s.min),
        fx(s.max),
        fx(s.mean),
        s.below_1_15,
        s.below_1_5
    )
}

/// Renders the three Fig. 9 sensitivity sweeps.
#[must_use]
pub fn fig9(f: &crate::experiments::Fig9) -> String {
    let mut out = String::from("Fig. 9: checksum sensitivity analysis\n");
    let mut a = TextTable::new(vec!["#vCPUs".into(), "native(ms)".into(), "vPIM(ms)".into()]);
    for (v, n, p) in &f.vcpus {
        a.row(vec![v.to_string(), ms(*n), ms(*p)]);
    }
    out.push_str(&format!("(a) varying vCPUs (60 DPUs, 60 MB/DPU)\n{}", a.render()));
    let mut b = TextTable::new(vec![
        "#DPUs".into(),
        "native(ms)".into(),
        "vPIM(ms)".into(),
        "overhead".into(),
    ]);
    for (d, n, p) in &f.dpus {
        b.row(vec![d.to_string(), ms(*n), ms(*p), fx(p.ratio(*n))]);
    }
    out.push_str(&format!("(b) varying #DPUs (60 MB/DPU, 16 vCPUs)\n{}", b.render()));
    let mut c = TextTable::new(vec![
        "MB/DPU".into(),
        "native(ms)".into(),
        "vPIM(ms)".into(),
        "overhead".into(),
    ]);
    for (mb, n, p) in &f.size {
        c.row(vec![mb.to_string(), ms(*n), ms(*p), fx(p.ratio(*n))]);
    }
    out.push_str(&format!("(c) varying data size (60 DPUs, 16 vCPUs)\n{}", c.render()));
    out
}

/// Renders Fig. 10.
#[must_use]
pub fn fig10(rows: &[(usize, VirtualNanos, VirtualNanos)]) -> String {
    let mut t = TextTable::new(vec![
        "#DPUs".into(),
        "native(ms)".into(),
        "vPIM(ms)".into(),
        "overhead".into(),
    ]);
    for (d, n, p) in rows {
        t.row(vec![d.to_string(), ms(*n), ms(*p), fx(p.ratio(*n))]);
    }
    format!("Fig. 10: Index Search execution time\n{}", t.render())
}

/// Renders the two Fig. 11 sweeps.
#[must_use]
pub fn fig11(f: &Fig11) -> String {
    let mut out = String::from("Fig. 11: checksum, native vs vPIM-rust vs vPIM-C\n");
    let mut a = TextTable::new(vec![
        "#DPUs".into(),
        "native(ms)".into(),
        "vPIM-rust(ms)".into(),
        "vPIM-C(ms)".into(),
        "rust ovh".into(),
        "C ovh".into(),
    ]);
    for (d, n, r, c) in &f.by_dpus {
        a.row(vec![
            d.to_string(),
            ms(*n),
            ms(*r),
            ms(*c),
            fx(r.ratio(*n)),
            fx(c.ratio(*n)),
        ]);
    }
    out.push_str(&format!("(a) varying #DPUs (60 MB/DPU)\n{}", a.render()));
    let mut b = TextTable::new(vec![
        "MB/DPU".into(),
        "native(ms)".into(),
        "vPIM-rust(ms)".into(),
        "vPIM-C(ms)".into(),
        "rust ovh".into(),
        "C ovh".into(),
    ]);
    for (mb, n, r, c) in &f.by_size {
        b.row(vec![
            mb.to_string(),
            ms(*n),
            ms(*r),
            ms(*c),
            fx(r.ratio(*n)),
            fx(c.ratio(*n)),
        ]);
    }
    out.push_str(&format!("(b) varying data size (60 DPUs)\n{}", b.render()));
    out
}

/// Renders Fig. 12 (driver-centric breakdown) from telemetry snapshots,
/// reading the `driver.*` segment metrics by name.
#[must_use]
pub fn fig12(rows: &[(vpim::Variant, MetricsSnapshot)]) -> String {
    let mut t = TextTable::new(vec![
        "variant".into(),
        "CI(ms)".into(),
        "R-rank(ms)".into(),
        "W-rank(ms)".into(),
        "total(ms)".into(),
    ]);
    for (v, snap) in rows {
        let total = DriverSegment::ALL
            .iter()
            .map(|s| snap.time(s.metric_name()))
            .fold(VirtualNanos::ZERO, |a, d| a + d);
        t.row(vec![
            v.label().into(),
            ms(snap.time(DriverSegment::Ci.metric_name())),
            ms(snap.time(DriverSegment::ReadRank.metric_name())),
            ms(snap.time(DriverSegment::WriteRank.metric_name())),
            ms(total),
        ]);
    }
    format!(
        "Fig. 12: driver-centric breakdown (checksum, 60 DPUs, 8 MB)\n{}",
        t.render()
    )
}

/// Renders Fig. 13 (write-to-rank step breakdown) from telemetry
/// snapshots, reading the `write.*` step metrics by name.
#[must_use]
pub fn fig13(rows: &[(vpim::Variant, MetricsSnapshot)]) -> String {
    let mut t = TextTable::new(vec![
        "variant".into(),
        "Page(ms)".into(),
        "Ser(ms)".into(),
        "Int(ms)".into(),
        "Deser(ms)".into(),
        "T-data(ms)".into(),
        "T-data share".into(),
    ]);
    for (v, snap) in rows {
        let total = WriteStep::ALL
            .iter()
            .map(|s| snap.time(s.metric_name()))
            .fold(VirtualNanos::ZERO, |a, d| a + d);
        let tdata = snap.time(WriteStep::TransferData.metric_name());
        t.row(vec![
            v.label().into(),
            ms(snap.time(WriteStep::PageMgmt.metric_name())),
            ms(snap.time(WriteStep::Serialize.metric_name())),
            ms(snap.time(WriteStep::Interrupt.metric_name())),
            ms(snap.time(WriteStep::Deserialize.metric_name())),
            ms(tdata),
            format!("{:.1}%", 100.0 * tdata.ratio(total)),
        ]);
    }
    format!(
        "Fig. 13: write-to-rank step breakdown (checksum, 60 DPUs, 8 MB)\n{}",
        t.render()
    )
}

/// Renders a full registry snapshot as a sorted `name = value` listing
/// (the `figures metrics` dump).
#[must_use]
pub fn metrics_dump(snap: &MetricsSnapshot) -> String {
    let mut t = TextTable::new(vec!["metric".into(), "value".into()]);
    for (name, value) in snap.iter() {
        let rendered = match value {
            MetricValue::Count(n) => n.to_string(),
            MetricValue::Level(l) => l.to_string(),
            MetricValue::Time(d) => format!("{} ms", ms(*d)),
            MetricValue::Histogram { count, total, .. } => {
                format!("{count} events, {} ms total", ms(*total))
            }
        };
        t.row(vec![name.into(), rendered]);
    }
    format!(
        "Telemetry registry after one full-vPIM checksum (60 DPUs, 8 MB)\n{}",
        t.render()
    )
}

/// Renders Fig. 14 (the NW optimization ladder).
#[must_use]
pub fn fig14(f: &Fig14) -> String {
    let mut t = TextTable::new(vec![
        "variant".into(),
        "CPU-DPU(ms)".into(),
        "DPU(ms)".into(),
        "Inter-DPU(ms)".into(),
        "DPU-CPU(ms)".into(),
        "total(ms)".into(),
        "vs native".into(),
        "perf inc".into(),
        "msgs".into(),
    ]);
    let base = f
        .ladder
        .first()
        .map(|(_, tl)| tl.app_total())
        .unwrap_or(VirtualNanos::ZERO);
    let native_total = f.native.app_total();
    let mut row = |label: &str, tl: &Timeline, inc: Option<f64>| {
        t.row(vec![
            label.into(),
            ms(tl.app(AppSegment::CpuToDpu)),
            ms(tl.app(AppSegment::Dpu)),
            ms(tl.app(AppSegment::InterDpu)),
            ms(tl.app(AppSegment::DpuToCpu)),
            ms(tl.app_total()),
            fx(tl.app_total().ratio(native_total)),
            inc.map(fx).unwrap_or_default(),
            tl.messages().to_string(),
        ]);
    };
    row("native", &f.native, None);
    for (v, tl) in &f.ladder {
        row(v.label(), tl, Some(base.ratio(tl.app_total())));
    }
    format!(
        "Fig. 14: NW under the optimization ladder (perf inc relative to vPIM-C)\n{}",
        t.render()
    )
}

/// Renders Fig. 15 and Fig. 16.
#[must_use]
pub fn fig15(f: &Fig15) -> String {
    let mut t = TextTable::new(vec![
        "#Ranks".into(),
        "whole vPIM-Seq(ms)".into(),
        "whole vPIM(ms)".into(),
        "speedup".into(),
        "write vPIM-Seq(ms)".into(),
        "write vPIM(ms)".into(),
        "write speedup".into(),
    ]);
    for (ranks, sw, pw, swr, pwr) in &f.rows {
        t.row(vec![
            ranks.to_string(),
            ms(*sw),
            ms(*pw),
            fx(sw.ratio(*pw)),
            ms(*swr),
            ms(*pwr),
            fx(swr.ratio(*pwr)),
        ]);
    }
    let mut out = format!(
        "Fig. 15: parallel operation handling on multi-rank (checksum)\n{}",
        t.render()
    );
    let mut t16 = TextTable::new(vec![
        "Rank id".into(),
        "vPIM-Seq completion(ms)".into(),
        "vPIM completion(ms)".into(),
    ]);
    for ((r, seq), (_, par)) in f.per_rank_seq.iter().zip(&f.per_rank_par) {
        t16.row(vec![r.to_string(), ms(*seq), ms(*par)]);
    }
    out.push_str(&format!(
        "Fig. 16: per-rank virtio request completion for one write across 8 ranks\n{}",
        t16.render()
    ));
    out
}

/// Renders the boot-time experiment (§3.2).
#[must_use]
pub fn boot(rows: &[(usize, VirtualNanos)]) -> String {
    let mut t = TextTable::new(vec!["#vUPMEM devices".into(), "extra boot time(ms)".into()]);
    for (n, d) in rows {
        t.row(vec![n.to_string(), ms(*d)]);
    }
    format!("§3.2: boot-time contribution of vUPMEM devices (≤2 ms each)\n{}", t.render())
}

/// Renders the manager report (§4.2).
#[must_use]
pub fn manager(r: &ManagerReport) -> String {
    format!(
        "§4.2 manager overhead:\n  dpu_alloc round trip: {} (paper: ~36 ms)\n  rank reset: {} (paper: ~597 ms)\n  exercised: {} allocations, {} resets, {} reuses, {} abandoned\n  total reset virtual time: {}\n",
        r.alloc_latency,
        r.reset_time,
        r.stats.allocations,
        r.stats.resets,
        r.stats.reuses,
        r.stats.abandoned,
        r.stats.reset_virtual
    )
}

/// Renders the frontend memory-overhead number (§4.1).
#[must_use]
pub fn memovh() -> String {
    let cfg = vpim::VpimConfig::full();
    format!(
        "§4.1 frontend memory overhead: {:.2} MB per DPU (paper: 1.37 MB)\n  = 16384 page records x 64 B + {} prefetch pages x 4 KiB + {} batch pages x 4 KiB\n",
        cfg.frontend_memory_overhead_per_dpu() as f64 / 1e6,
        cfg.prefetch_pages_per_dpu,
        cfg.batch_pages_per_dpu
    )
}

/// Renders the three ablations of §4's design choices.
#[must_use]
pub fn ablations(
    threads: &[(usize, VirtualNanos)],
    prefetch: &[(usize, VirtualNanos, u64)],
    batch: &[(usize, VirtualNanos, u64)],
) -> String {
    let mut out = String::from("Ablations of §4 design choices\n");
    let mut t = TextTable::new(vec!["backend threads".into(), "W-rank(ms)".into()]);
    for (n, d) in threads {
        t.row(vec![n.to_string(), ms(*d)]);
    }
    out.push_str(&format!(
        "(a) backend DPU-operation pool (§4.2 settles on 8 = one per chip)\n{}",
        t.render()
    ));
    let mut t = TextTable::new(vec![
        "prefetch pages/DPU".into(),
        "R-rank(ms)".into(),
        "messages".into(),
    ]);
    for (n, d, m) in prefetch {
        t.row(vec![n.to_string(), ms(*d), m.to_string()]);
    }
    out.push_str(&format!(
        "(b) prefetch cache size on a block-by-block read loop (paper: 16)\n{}",
        t.render()
    ));
    let mut t = TextTable::new(vec![
        "batch pages/DPU".into(),
        "W-rank(ms)".into(),
        "messages".into(),
    ]);
    for (n, d, m) in batch {
        t.row(vec![n.to_string(), ms(*d), m.to_string()]);
    }
    out.push_str(&format!(
        "(c) batch buffer size on a tiled small-write loop (paper: 64)\n{}",
        t.render()
    ));
    out
}

/// Renders the static-vs-adaptive frontend ablation (DESIGN.md §16).
#[must_use]
pub fn adaptive(rows: &[AdaptiveRow]) -> String {
    let mut t = TextTable::new(vec![
        "workload".into(),
        "segment".into(),
        "static(ms)".into(),
        "adaptive(ms)".into(),
        "speedup".into(),
        "bar".into(),
    ]);
    for r in rows {
        t.row(vec![
            r.leg.into(),
            r.metric.into(),
            ms(r.static_t),
            ms(r.adaptive_t),
            fx(r.speedup()),
            if r.pathology { ">=2x".into() } else { "<=5% reg".into() },
        ]);
    }
    format!("Adaptive frontend controller vs static policies (DESIGN.md §16)\n{}", t.render())
}

/// The adaptive ablation as the machine-readable gate artifact
/// (`BENCH_adaptive.json`). Speedups are reported in milli-units to keep
/// the document float-free and byte-stable.
#[must_use]
pub fn adaptive_json(rows: &[AdaptiveRow]) -> String {
    let rows = rows.iter().map(|r| {
        JsonObject::new()
            .str("leg", r.leg)
            .str("segment", r.metric)
            .num("static_ns", r.static_t.as_nanos())
            .num("adaptive_ns", r.adaptive_t.as_nanos())
            .num("speedup_milli", (r.speedup() * 1000.0) as u64)
            .bool("pathology", r.pathology)
    });
    JsonObject::new().str("bench", "adaptive").arr("rows", rows).finish()
}

/// Renders the persistent-heap durability bench (DESIGN.md §17).
#[must_use]
pub fn pheap(rows: &[PheapRow]) -> String {
    let mut t = TextTable::new(vec![
        "workload".into(),
        "objects".into(),
        "value(B)".into(),
        "persists".into(),
        "persist(ms)".into(),
        "recover(ms)".into(),
        "MB/s".into(),
    ]);
    for r in rows {
        t.row(vec![
            r.leg.into(),
            r.objects.to_string(),
            r.value_bytes.to_string(),
            r.persists.to_string(),
            ms(r.persist_t),
            ms(r.recover_t),
            format!("{:.2}", r.mbps()),
        ]);
    }
    format!("Persistent-heap durability (crash + recovery, DESIGN.md §17)\n{}", t.render())
}

/// The pheap bench as the machine-readable gate artifact
/// (`BENCH_pheap.json`). Throughput is reported in milli-MB/s to keep
/// the document float-free and byte-stable.
#[must_use]
pub fn pheap_json(rows: &[PheapRow]) -> String {
    let rows = rows.iter().map(|r| {
        JsonObject::new()
            .str("leg", r.leg)
            .num("objects", r.objects)
            .num("value_bytes", r.value_bytes)
            .num("payload_bytes", r.payload_bytes())
            .num("persists", r.persists)
            .num("persist_ns", r.persist_t.as_nanos())
            .num("recover_ns", r.recover_t.as_nanos())
            .num("mbps_milli", (r.mbps() * 1000.0) as u64)
    });
    JsonObject::new().str("bench", "pheap").arr("rows", rows).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        let t1 = table1();
        assert!(t1.contains("Needleman-Wunsch"));
        assert!(t1.lines().count() > 16);
        let t2 = table2();
        assert!(t2.contains("vPIM-rust"));
        assert!(t2.contains("vPIM+PB"));
        let m = memovh();
        assert!(m.contains("1.37"));
    }
}
