//! One function per table/figure of the paper's evaluation.

use simkit::{stats, MetricsSnapshot, Timeline, VirtualNanos};
use upmem_sdk::DpuSet;
use vpim::Variant;

use crate::env::BenchEnv;
use microbench::{Checksum, IndexSearch, IndexSearchParams};
use prim::{PrimApp, ScaleParams};

/// The two strong-scaling DPU counts of Fig. 8.
pub const FIG8_DPUS: [usize; 2] = [60, 480];

/// One Fig. 8 cell: an application at a DPU count, on both transports.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Application short name.
    pub app: &'static str,
    /// DPU count (60 or 480).
    pub dpus: usize,
    /// Native timeline.
    pub native: Timeline,
    /// vPIM timeline.
    pub vpim: Timeline,
}

impl Fig8Row {
    /// vPIM-over-native overhead factor.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        stats::overhead(self.vpim.app_total(), self.native.app_total())
    }
}

fn run_prim_once(
    app: &dyn PrimApp,
    set: &mut DpuSet,
    elements: usize,
    seed: u64,
) -> Timeline {
    let run = app
        .run(set, &ScaleParams::of(elements), seed)
        .unwrap_or_else(|e| panic!("{} failed: {e}", app.name()));
    assert!(run.verified, "{} failed verification", app.name());
    set.take_timeline()
}

/// Fig. 8: every PrIM application, 60 vs 480 DPUs, native vs vPIM, with
/// the four application segments.
#[must_use]
pub fn fig8(env: &BenchEnv, apps: &[&str]) -> Vec<Fig8Row> {
    let mut rows = Vec::new();
    for app in prim::catalog() {
        if !apps.is_empty() && !apps.iter().any(|a| a.eq_ignore_ascii_case(app.name())) {
            continue;
        }
        // The quadratic / wavefront workloads get a smaller element budget
        // (their op counts scale superlinearly — NW's testbed run takes
        // ~20 minutes in the paper too).
        let elements = match app.name() {
            "NW" | "TRNS" => env.scale().prim_elements() / 16,
            "BFS" | "TS" => env.scale().prim_elements() / 8,
            _ => env.scale().prim_elements(),
        };
        for dpus in FIG8_DPUS {
            let native = {
                let mut set = env.native_set(dpus).expect("native alloc");
                run_prim_once(app.as_ref(), &mut set, elements, 42)
            };
            let vpim = {
                let (sys, vm) = env.vpim_vm(Variant::Vpim, dpus).expect("vpim vm");
                let mut set = env.vm_set(&vm, dpus).expect("vm alloc");
                let tl = run_prim_once(app.as_ref(), &mut set, elements, 42);
                drop(set);
                drop(vm);
                sys.shutdown();
                tl
            };
            rows.push(Fig8Row { app: app.name(), dpus, native, vpim });
        }
    }
    rows
}

/// §5.2's headline statistics over a set of Fig. 8 rows at one DPU count.
#[derive(Debug, Clone, Copy)]
pub struct OverheadSummary {
    /// Lowest overhead factor.
    pub min: f64,
    /// Highest overhead factor.
    pub max: f64,
    /// Arithmetic mean (the paper reports arithmetic averages).
    pub mean: f64,
    /// Applications below 1.15×.
    pub below_1_15: usize,
    /// Applications below 1.5×.
    pub below_1_5: usize,
}

/// Summarizes Fig. 8 rows for one DPU count.
#[must_use]
pub fn fig8_summary(rows: &[Fig8Row], dpus: usize) -> OverheadSummary {
    let factors: Vec<f64> = rows
        .iter()
        .filter(|r| r.dpus == dpus)
        .map(Fig8Row::overhead)
        .collect();
    OverheadSummary {
        min: factors.iter().copied().fold(f64::INFINITY, f64::min),
        max: factors.iter().copied().fold(0.0, f64::max),
        mean: stats::amean(&factors),
        below_1_15: factors.iter().filter(|f| **f < 1.15).count(),
        below_1_5: factors.iter().filter(|f| **f < 1.5).count(),
    }
}

fn checksum_native(env: &BenchEnv, dpus: usize, bytes: usize) -> Timeline {
    let mut set = env.native_set(dpus).expect("native alloc");
    let run = Checksum::run(&mut set, bytes, 42).expect("checksum");
    assert!(run.verified);
    set.take_timeline()
}

fn checksum_vpim(env: &BenchEnv, variant: Variant, dpus: usize, bytes: usize) -> Timeline {
    let (sys, vm) = env.vpim_vm(variant, dpus).expect("vpim vm");
    let mut set = env.vm_set(&vm, dpus).expect("vm alloc");
    let run = Checksum::run(&mut set, bytes, 42).expect("checksum");
    assert!(run.verified);
    let tl = set.take_timeline();
    drop(set);
    drop(vm);
    sys.shutdown();
    tl
}

/// Like [`checksum_vpim`], but the run's segment timeline is flushed into
/// the system's [`simkit::MetricsRegistry`] and the *whole* registry — the
/// timeline plus every layer's counters (prefetch, batching, vmexits, IRQs,
/// manager transitions) — comes back as one snapshot. Fig. 12/13 render
/// from this instead of scraping the `Timeline` struct.
fn checksum_vpim_metrics(
    env: &BenchEnv,
    variant: Variant,
    dpus: usize,
    bytes: usize,
) -> MetricsSnapshot {
    let (sys, vm) = env.vpim_vm(variant, dpus).expect("vpim vm");
    let mut set = env.vm_set(&vm, dpus).expect("vm alloc");
    let run = Checksum::run(&mut set, bytes, 42).expect("checksum");
    assert!(run.verified);
    set.take_timeline().flush_into(sys.registry(), "");
    let snap = sys.registry().snapshot();
    drop(set);
    drop(vm);
    sys.shutdown();
    snap
}

/// Fig. 9: checksum sensitivity to (a) vCPUs, (b) DPUs, (c) transfer size.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// (vcpus, native total, vPIM total) at 60 DPUs / 60 MB.
    pub vcpus: Vec<(usize, VirtualNanos, VirtualNanos)>,
    /// (dpus, native, vPIM) at 60 MB / 16 vCPUs.
    pub dpus: Vec<(usize, VirtualNanos, VirtualNanos)>,
    /// (MB label, native, vPIM) at 60 DPUs / 16 vCPUs.
    pub size: Vec<(usize, VirtualNanos, VirtualNanos)>,
}

/// Runs the Fig. 9 sweeps.
#[must_use]
pub fn fig9(env: &BenchEnv) -> Fig9 {
    let full_mb = 60;
    let base_bytes = env.scale().mb(full_mb);
    // (a) vCPUs: execution is vCPU-independent (the paper's point); the
    // sweep runs identical configurations — any variance would be a bug.
    let base_native = checksum_native(env, 60, base_bytes);
    let base_vpim = checksum_vpim(env, Variant::Vpim, 60, base_bytes);
    let vcpus = [2usize, 4, 8, 16]
        .into_iter()
        .map(|v| (v, base_native.app_total(), base_vpim.app_total()))
        .collect();

    let dpus = [1usize, 8, 16, 60]
        .into_iter()
        .map(|d| {
            let n = checksum_native(env, d, base_bytes);
            let v = checksum_vpim(env, Variant::Vpim, d, base_bytes);
            (d, n.app_total(), v.app_total())
        })
        .collect();

    let size = [8usize, 20, 40, 60]
        .into_iter()
        .map(|mb| {
            let bytes = env.scale().mb(mb);
            let n = checksum_native(env, 60, bytes);
            let v = checksum_vpim(env, Variant::Vpim, 60, bytes);
            (mb, n.app_total(), v.app_total())
        })
        .collect();

    Fig9 { vcpus, dpus, size }
}

/// The Index Search dataset for the current scale (shared by Fig. 10 and
/// the adaptive ablation's non-regression leg).
fn index_params(env: &BenchEnv) -> IndexSearchParams {
    match env.scale() {
        crate::Scale::Quick => IndexSearchParams {
            n_docs: 430,
            doc_len: 128,
            vocab: 1024,
            n_queries: 445,
            batch: 128,
        },
        crate::Scale::Paper => IndexSearchParams::paper(),
    }
}

/// Fig. 10: Index Search execution time vs DPU count.
#[must_use]
pub fn fig10(env: &BenchEnv) -> Vec<(usize, VirtualNanos, VirtualNanos)> {
    let params = index_params(env);
    [1usize, 8, 16, 60, 128]
        .into_iter()
        .map(|d| {
            let n = {
                let mut set = env.native_set(d).expect("native alloc");
                let run = IndexSearch::run(&mut set, &params, 42).expect("search");
                assert!(run.verified);
                set.take_timeline().app_total()
            };
            let v = {
                let (sys, vm) = env.vpim_vm(Variant::Vpim, d).expect("vpim vm");
                let mut set = env.vm_set(&vm, d).expect("vm alloc");
                let run = IndexSearch::run(&mut set, &params, 42).expect("search");
                assert!(run.verified);
                let t = set.take_timeline().app_total();
                drop(set);
                drop(vm);
                sys.shutdown();
                t
            };
            (d, n, v)
        })
        .collect()
}

/// Fig. 11: native vs vPIM-rust vs vPIM-C (checksum), varying DPUs and
/// transfer sizes.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// (dpus, native, vPIM-rust, vPIM-C) at 60 MB per DPU.
    pub by_dpus: Vec<(usize, VirtualNanos, VirtualNanos, VirtualNanos)>,
    /// (MB label, native, vPIM-rust, vPIM-C) at 60 DPUs.
    pub by_size: Vec<(usize, VirtualNanos, VirtualNanos, VirtualNanos)>,
}

/// Runs the Fig. 11 sweeps.
#[must_use]
pub fn fig11(env: &BenchEnv) -> Fig11 {
    let by_dpus = [1usize, 16, 60]
        .into_iter()
        .map(|d| {
            let bytes = env.scale().mb(60);
            (
                d,
                checksum_native(env, d, bytes).app_total(),
                checksum_vpim(env, Variant::VpimRust, d, bytes).app_total(),
                checksum_vpim(env, Variant::VpimC, d, bytes).app_total(),
            )
        })
        .collect();
    let by_size = [8usize, 40, 60]
        .into_iter()
        .map(|mb| {
            let bytes = env.scale().mb(mb);
            (
                mb,
                checksum_native(env, 60, bytes).app_total(),
                checksum_vpim(env, Variant::VpimRust, 60, bytes).app_total(),
                checksum_vpim(env, Variant::VpimC, 60, bytes).app_total(),
            )
        })
        .collect();
    Fig11 { by_dpus, by_size }
}

/// Fig. 12: driver-centric breakdown (CI / R-rank / W-rank) for vPIM-rust
/// vs full vPIM — checksum, 60 DPUs, 8 MB. Each row is a full telemetry
/// snapshot; the renderer reads the `driver.*` segment metrics.
#[must_use]
pub fn fig12(env: &BenchEnv) -> Vec<(Variant, MetricsSnapshot)> {
    let bytes = env.scale().mb(8);
    [Variant::VpimRust, Variant::Vpim]
        .into_iter()
        .map(|v| (v, checksum_vpim_metrics(env, v, 60, bytes)))
        .collect()
}

/// Fig. 13: write-to-rank step breakdown (Page/Ser/Int/Deser/T-data) for
/// the two data paths — checksum, 60 DPUs, 8 MB. Each row is a full
/// telemetry snapshot; the renderer reads the `write.*` step metrics.
#[must_use]
pub fn fig13(env: &BenchEnv) -> Vec<(Variant, MetricsSnapshot)> {
    let bytes = env.scale().mb(8);
    [Variant::VpimRust, Variant::VpimC]
        .into_iter()
        .map(|v| (v, checksum_vpim_metrics(env, v, 60, bytes)))
        .collect()
}

/// `figures metrics`: one full-vPIM checksum run, returned as the complete
/// telemetry registry snapshot (every metric of every layer by name).
#[must_use]
pub fn metrics_dump(env: &BenchEnv) -> MetricsSnapshot {
    checksum_vpim_metrics(env, Variant::Vpim, 60, env.scale().mb(8))
}

/// Fig. 14: NW under the optimization ladder (vPIM-C, +P, +B, +PB), plus
/// native for the 53× context.
#[derive(Debug, Clone)]
pub struct Fig14 {
    /// Native NW timeline.
    pub native: Timeline,
    /// (variant, timeline) for the four ladder steps.
    pub ladder: Vec<(Variant, Timeline)>,
}

/// Runs the Fig. 14 ladder (single-rank strong scaling, 60 DPUs).
#[must_use]
pub fn fig14(env: &BenchEnv) -> Fig14 {
    let elements = env.scale().prim_elements();
    let nw = prim::by_name("NW").expect("NW registered");
    let native = {
        let mut set = env.native_set(60).expect("native alloc");
        run_prim_once(nw.as_ref(), &mut set, elements, 42)
    };
    let ladder = [Variant::VpimC, Variant::VpimP, Variant::VpimB, Variant::VpimPB]
        .into_iter()
        .map(|v| {
            let (sys, vm) = env.vpim_vm(v, 60).expect("vpim vm");
            let mut set = env.vm_set(&vm, 60).expect("vm alloc");
            let tl = run_prim_once(nw.as_ref(), &mut set, elements, 42);
            drop(set);
            drop(vm);
            sys.shutdown();
            (v, tl)
        })
        .collect();
    Fig14 { native, ladder }
}

/// Fig. 15/16: parallel operation handling across ranks.
#[derive(Debug, Clone)]
pub struct Fig15 {
    /// Per rank count: (ranks, whole-app seq, whole-app par,
    /// write-op seq, write-op par).
    pub rows: Vec<(usize, VirtualNanos, VirtualNanos, VirtualNanos, VirtualNanos)>,
    /// Fig. 16: per-rank completion offsets of one 8-rank write,
    /// sequential vs parallel.
    pub per_rank_seq: Vec<(usize, VirtualNanos)>,
    /// Parallel counterpart.
    pub per_rank_par: Vec<(usize, VirtualNanos)>,
}

/// Runs the multi-rank experiments.
#[must_use]
pub fn fig15(env: &BenchEnv) -> Fig15 {
    let bytes = env.scale().mb(48);
    let mut rows = Vec::new();
    let mut per_rank_seq = Vec::new();
    let mut per_rank_par = Vec::new();
    for ranks in [2usize, 4, 8] {
        let dpus = ranks * 60;
        let mut seq_whole = VirtualNanos::ZERO;
        let mut par_whole = VirtualNanos::ZERO;
        let mut seq_write = VirtualNanos::ZERO;
        let mut par_write = VirtualNanos::ZERO;
        for (variant, whole, write) in [
            (Variant::VpimSeq, &mut seq_whole, &mut seq_write),
            (Variant::Vpim, &mut par_whole, &mut par_write),
        ] {
            let (sys, vm) = env.vpim_vm(variant, dpus).expect("vpim vm");
            let mut set = env.vm_set(&vm, dpus).expect("vm alloc");
            let run = Checksum::run(&mut set, bytes, 42).expect("checksum");
            assert!(run.verified);
            let tl = set.take_timeline();
            *whole = tl.app_total();
            *write = tl.driver(simkit::DriverSegment::WriteRank);
            if ranks == 8 {
                let offsets = set.last_per_rank().to_vec();
                if variant == Variant::VpimSeq {
                    per_rank_seq = offsets;
                } else {
                    per_rank_par = offsets;
                }
            }
            drop(set);
            drop(vm);
            sys.shutdown();
        }
        rows.push((ranks, seq_whole, par_whole, seq_write, par_write));
    }
    Fig15 { rows, per_rank_seq, per_rank_par }
}

/// §3.2: boot-time contribution of vUPMEM devices.
#[must_use]
pub fn boot_experiment(env: &BenchEnv) -> Vec<(usize, VirtualNanos)> {
    (0..=4usize)
        .map(|n| {
            if n == 0 {
                // A VM without vUPMEM devices boots at the base time.
                let mut vm = pim_vmm::Vm::new(pim_vmm::VmConfig::builder().vupmem_devices(0).build());
                let report = vm.boot(env.cost_model()).expect("boot");
                (0, report.vupmem_boot_time)
            } else {
                let (sys, vm) = env.vpim_vm(Variant::Vpim, n * 60).expect("vpim vm");
                let t = vm.boot_report().vupmem_boot_time;
                drop(vm);
                sys.shutdown();
                (n, t)
            }
        })
        .collect()
}

/// §4.2: manager overhead numbers (alloc latency, reset time, activity).
#[derive(Debug, Clone)]
pub struct ManagerReport {
    /// Modeled allocation round trip (§4.2: ~36 ms).
    pub alloc_latency: VirtualNanos,
    /// Modeled reset time for one rank (§4.2: ~597 ms).
    pub reset_time: VirtualNanos,
    /// Manager statistics after an allocate/release/recycle exercise.
    pub stats: vpim::manager::ManagerStats,
}

/// Exercises the manager and reports its § 4.2 numbers.
#[must_use]
pub fn manager_experiment(env: &BenchEnv) -> ManagerReport {
    let sys = vpim::VpimSystem::start(env.driver().clone(), vpim::VpimConfig::full(), vpim::StartOpts::default());
    let alloc_latency = sys.manager().alloc_cost();
    let reset_time = env
        .cost_model()
        .rank_reset(env.driver().machine().config().rank_mapped_bytes());
    // Exercise: launch, release, recycle. Nothing sweeps behind the
    // caller: this sweep resets both released ranks.
    let vm = sys.launch(vpim::TenantSpec::new("mgr-exercise").devices(2)).expect("vm");
    vm.release_all().expect("release");
    drop(vm);
    sys.sync_ranks();
    let stats = sys.manager().stats();
    assert_eq!(stats.resets, 2, "both released ranks recycled: {stats:?}");
    sys.shutdown();
    ManagerReport { alloc_latency, reset_time, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn fig8_single_app_has_sane_shape() {
        let env = BenchEnv::new(Scale::Quick);
        let rows = fig8(&env, &["VA"]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.overhead() >= 1.0, "{}@{}: {}", r.app, r.dpus, r.overhead());
            assert!(r.vpim.messages() > 0);
            assert_eq!(r.native.messages(), 0);
        }
    }

    #[test]
    fn fig9_size_sweep_shows_decreasing_overhead() {
        let env = BenchEnv::new(Scale::Quick);
        let bytes_small = env.scale().mb(8);
        let bytes_big = env.scale().mb(60);
        let small = stats::overhead(
            checksum_vpim(&env, Variant::Vpim, 16, bytes_small).app_total(),
            checksum_native(&env, 16, bytes_small).app_total(),
        );
        let big = stats::overhead(
            checksum_vpim(&env, Variant::Vpim, 16, bytes_big).app_total(),
            checksum_native(&env, 16, bytes_big).app_total(),
        );
        assert!(
            small > big,
            "overhead should fall with size: {small:.2}x @8MB vs {big:.2}x @60MB"
        );
    }

    #[test]
    fn fig11_rust_path_is_slower_than_c_path() {
        let env = BenchEnv::new(Scale::Quick);
        let bytes = env.scale().mb(40);
        let native = checksum_native(&env, 16, bytes).app_total();
        let rust = checksum_vpim(&env, Variant::VpimRust, 16, bytes).app_total();
        let c = checksum_vpim(&env, Variant::VpimC, 16, bytes).app_total();
        assert!(rust > c, "rust {rust} !> c {c}");
        assert!(c > native, "c {c} !> native {native}");
    }

    #[test]
    fn fig15_parallel_beats_sequential() {
        let env = BenchEnv::new(Scale::Quick);
        let f = fig15(&env);
        for (ranks, seq, par, seq_w, par_w) in &f.rows {
            assert!(par <= seq, "{ranks} ranks: whole {par} !<= {seq}");
            assert!(par_w <= seq_w, "{ranks} ranks: write {par_w} !<= {seq_w}");
        }
        // Fig. 16: sequential offsets accumulate; parallel are ~uniform.
        assert_eq!(f.per_rank_seq.len(), 8);
        assert!(f.per_rank_seq.last().unwrap().1 > f.per_rank_seq[0].1);
        let par_max = f.per_rank_par.iter().map(|(_, d)| *d).max().unwrap();
        let seq_max = f.per_rank_seq.iter().map(|(_, d)| *d).max().unwrap();
        assert!(par_max < seq_max);
    }

    /// `backend_threads` is a model parameter only: the sweep's virtual
    /// times are pinned to the values they had when the same number also
    /// sized an OS thread pool, whatever width the host's pool now runs.
    #[test]
    fn backend_threads_ablation_is_a_virtual_sweep() {
        let env = BenchEnv::new(Scale::Quick);
        let got: Vec<(usize, u64)> = ablation_backend_threads(&env)
            .into_iter()
            .map(|(threads, t)| (threads, t.as_nanos()))
            .collect();
        assert_eq!(
            got,
            [
                (1, 109_787_900),
                (2, 103_234_310),
                (4, 99_957_515),
                (8, 98_428_344),
                (16, 97_554_532),
                (32, 97_117_626),
            ]
        );
    }
}

/// Ablation: backend DPU-operation thread count (§4.2 — "We empirically
/// validate that using more than 8 threads does not provide additional
/// benefits"). Reports checksum write-to-rank time per modelled width. The
/// sweep is virtual only: the host's data pool is sized by its CPUs,
/// whatever `backend_threads` says.
#[must_use]
pub fn ablation_backend_threads(env: &BenchEnv) -> Vec<(usize, VirtualNanos)> {
    [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|threads| {
            let mut cm = env.cost_model().clone();
            cm.backend_threads = threads;
            let sys = vpim::VpimSystem::start(env.driver().clone(), vpim::VpimConfig::full(), vpim::StartOpts::new().cost_model(cm.clone()).manager(vpim::manager::ManagerConfig::default()));
            let vm = sys
                .launch(vpim::TenantSpec::new("abl").mem_mib(env.scale().guest_mem_mib()))
                .expect("vm");
            let mut set = upmem_sdk::DpuSet::alloc_vm(vm.frontends(), 60, cm).expect("alloc");
            let run = Checksum::run(&mut set, env.scale().mb(40), 42).expect("checksum");
            assert!(run.verified);
            let t = set.take_timeline().driver(simkit::DriverSegment::WriteRank);
            drop(set);
            drop(vm);
            sys.shutdown();
            (threads, t)
        })
        .collect()
}

/// Ablation: prefetch cache size (§4.1 fixes 16 pages/DPU). Reports the
/// RED-style small-read pattern's Inter-DPU-like cost per cache size.
#[must_use]
pub fn ablation_prefetch_pages(env: &BenchEnv) -> Vec<(usize, VirtualNanos, u64)> {
    [0usize, 4, 16, 64]
        .into_iter()
        .map(|pages| {
            let cfg = vpim::VpimConfig::builder().prefetch_pages(pages).build();
            let sys = vpim::VpimSystem::start(env.driver().clone(), cfg, vpim::StartOpts::new().cost_model(env.cost_model().clone()).manager(vpim::manager::ManagerConfig::default()));
            let vm = sys
                .launch(vpim::TenantSpec::new("abl").mem_mib(env.scale().guest_mem_mib()))
                .expect("vm");
            let mut set =
                upmem_sdk::DpuSet::alloc_vm(vm.frontends(), 16, env.cost_model().clone())
                    .expect("alloc");
            // A block-by-block read loop: 512 reads of 256 B over 128 KiB.
            set.copy_to_heap(0, 0, &vec![7u8; 128 << 10]).expect("seed data");
            let _ = set.take_timeline();
            for i in 0..512u64 {
                let _ = set.copy_from_heap(0, i * 256, 256).expect("read");
            }
            let tl = set.take_timeline();
            let t = tl.driver(simkit::DriverSegment::ReadRank);
            let msgs = tl.messages();
            drop(set);
            drop(vm);
            sys.shutdown();
            (pages, t, msgs)
        })
        .collect()
}

/// Ablation: batch buffer size (§4.1 fixes 64 pages/DPU). Reports the
/// TRNS-style small-write pattern's cost and message count per size.
#[must_use]
pub fn ablation_batch_pages(env: &BenchEnv) -> Vec<(usize, VirtualNanos, u64)> {
    [0usize, 16, 64, 256]
        .into_iter()
        .map(|pages| {
            let cfg = vpim::VpimConfig::builder().batch_pages(pages).build();
            let sys = vpim::VpimSystem::start(env.driver().clone(), cfg, vpim::StartOpts::new().cost_model(env.cost_model().clone()).manager(vpim::manager::ManagerConfig::default()));
            let vm = sys
                .launch(vpim::TenantSpec::new("abl").mem_mib(env.scale().guest_mem_mib()))
                .expect("vm");
            let mut set =
                upmem_sdk::DpuSet::alloc_vm(vm.frontends(), 16, env.cost_model().clone())
                    .expect("alloc");
            // A tiled-write loop: 1024 writes of 256 B round-robin over DPUs.
            for i in 0..1024u64 {
                set.copy_to_heap((i % 16) as usize, (i / 16) * 256, &[9u8; 256])
                    .expect("write");
            }
            // Flush what remains via a launch-less read.
            let _ = set.copy_from_heap(0, 0, 256).expect("flush");
            let tl = set.take_timeline();
            let t = tl.driver(simkit::DriverSegment::WriteRank);
            let msgs = tl.messages();
            drop(set);
            drop(vm);
            sys.shutdown();
            (pages, t, msgs)
        })
        .collect()
}

/// One leg of the static-vs-adaptive frontend ablation (DESIGN.md §16):
/// the same workload under `VpimConfig::full()` and with the adaptive
/// controller on, compared on the segment its pathology lives in.
#[derive(Debug, Clone)]
pub struct AdaptiveRow {
    /// Workload short name.
    pub leg: &'static str,
    /// Timeline segment compared (`total` = whole-app virtual time).
    pub metric: &'static str,
    /// Virtual time under the static policies.
    pub static_t: VirtualNanos,
    /// Virtual time with the adaptive controller enabled.
    pub adaptive_t: VirtualNanos,
    /// Whether this leg is a pathology the controller must kill (`true`)
    /// or a healthy workload it must not regress (`false`).
    pub pathology: bool,
}

impl AdaptiveRow {
    /// Static-over-adaptive speedup factor (>1 = the controller won).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.static_t.as_nanos() as f64 / self.adaptive_t.as_nanos().max(1) as f64
    }
}

/// Runs `work` on a fresh 60-DPU VM under the full config, with or
/// without the adaptive controller, and returns the run's timeline.
fn adaptive_leg(env: &BenchEnv, adaptive: bool, work: &dyn Fn(&mut DpuSet)) -> Timeline {
    let cfg = if adaptive {
        vpim::VpimConfig::builder().adaptive(true).build()
    } else {
        vpim::VpimConfig::full()
    };
    let sys = vpim::VpimSystem::start(
        env.driver().clone(),
        cfg,
        vpim::StartOpts::new()
            .cost_model(env.cost_model().clone())
            .manager(vpim::manager::ManagerConfig::default()),
    );
    let vm = sys
        .launch(vpim::TenantSpec::new("adapt-abl").mem_mib(env.scale().guest_mem_mib()))
        .expect("vm");
    let mut set =
        upmem_sdk::DpuSet::alloc_vm(vm.frontends(), 60, env.cost_model().clone()).expect("alloc");
    work(&mut set);
    let tl = set.take_timeline();
    drop(set);
    drop(vm);
    sys.shutdown();
    tl
}

/// Ablation: the adaptive frontend controller vs the static policies
/// (DESIGN.md §16). One pathology leg — RED's Inter-DPU partial gather,
/// one small read per DPU that the static 16-page window over-fetches
/// 64 KiB for (HST-S's DPU→CPU readout is the same 60 × 256 B shape and
/// measured the same numbers, so it has no row of its own) — and three
/// non-regression legs (checksum, Index Search, GEMV as the linear-algebra
/// representative). The acceptance bars are asserted here so the figures
/// binary, the gate, and the test suite all trip on a regression:
/// the pathology must improve ≥ 2×, healthy legs must stay within 5%.
#[must_use]
pub fn ablation_adaptive(env: &BenchEnv) -> Vec<AdaptiveRow> {
    use simkit::AppSegment;
    // The pathology segments are element-count-independent (one small
    // read per DPU regardless of input size), so the PrIM legs run at a
    // reduced element budget to keep the gate fast.
    let elements = env.scale().prim_elements() / 16;
    let mut rows = Vec::new();

    let red = prim::by_name("RED").expect("catalog");
    let gather = |adaptive: bool| {
        adaptive_leg(env, adaptive, &|set| {
            let r = red.run(set, &ScaleParams::of(elements), 42).expect("RED");
            assert!(r.verified, "RED failed verification (adaptive={adaptive})");
        })
        .app(AppSegment::InterDpu)
    };
    rows.push(AdaptiveRow {
        leg: "RED",
        metric: "Inter-DPU",
        static_t: gather(false),
        adaptive_t: gather(true),
        pathology: true,
    });

    let bytes = env.scale().mb(40);
    let checksum = |adaptive: bool| {
        adaptive_leg(env, adaptive, &|set| {
            let r = Checksum::run(set, bytes, 42).expect("checksum");
            assert!(r.verified);
        })
        .app_total()
    };
    rows.push(AdaptiveRow {
        leg: "checksum",
        metric: "total",
        static_t: checksum(false),
        adaptive_t: checksum(true),
        pathology: false,
    });

    let params = index_params(env);
    let search = |adaptive: bool| {
        adaptive_leg(env, adaptive, &|set| {
            let r = IndexSearch::run(set, &params, 42).expect("search");
            assert!(r.verified);
        })
        .app_total()
    };
    rows.push(AdaptiveRow {
        leg: "index-search",
        metric: "total",
        static_t: search(false),
        adaptive_t: search(true),
        pathology: false,
    });

    let gemv = prim::by_name("GEMV").expect("catalog");
    let linalg = |adaptive: bool| {
        adaptive_leg(env, adaptive, &|set| {
            let r = gemv.run(set, &ScaleParams::of(elements), 42).expect("GEMV");
            assert!(r.verified, "GEMV failed verification (adaptive={adaptive})");
        })
        .app_total()
    };
    rows.push(AdaptiveRow {
        leg: "GEMV",
        metric: "total",
        static_t: linalg(false),
        adaptive_t: linalg(true),
        pathology: false,
    });

    for r in &rows {
        if r.pathology {
            assert!(
                r.speedup() >= 2.0,
                "{} {}: adaptive {} vs static {} — the controller must cut the \
                 pathology at least 2x",
                r.leg,
                r.metric,
                r.adaptive_t,
                r.static_t
            );
        } else {
            assert!(
                r.adaptive_t.as_nanos() as f64 <= r.static_t.as_nanos() as f64 * 1.05,
                "{} regressed under the adaptive controller: {} vs static {}",
                r.leg,
                r.adaptive_t,
                r.static_t
            );
        }
    }
    rows
}

/// One row of the persistent-heap durability bench (DESIGN.md §17): a
/// seeded write/persist workload on [`vpim::Pheap`], a simulated crash
/// (the handle drops, taking the resident window with it), and recovery.
/// Costs are virtual-time MRAM traffic drained from the heap's cost
/// accumulator; the row reports a one-device VM's run (handler on the
/// kicking thread) after asserting a two-device VM's run produced
/// bit-identical state and timings.
#[derive(Debug, Clone)]
pub struct PheapRow {
    /// Workload short name.
    pub leg: &'static str,
    /// Objects written and committed.
    pub objects: u64,
    /// Bytes per object.
    pub value_bytes: u64,
    /// WAL transactions committed (one per `persist()` batch).
    pub persists: u64,
    /// Virtual time of the write+persist phase (page faults included).
    pub persist_t: VirtualNanos,
    /// Virtual time [`vpim::Pheap::recover`] spent rebuilding the heap.
    pub recover_t: VirtualNanos,
}

impl PheapRow {
    /// Total committed payload bytes.
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        self.objects * self.value_bytes
    }

    /// Committed-payload throughput of the persist phase, MB/s of
    /// virtual time.
    #[must_use]
    pub fn mbps(&self) -> f64 {
        self.payload_bytes() as f64 * 1000.0 / self.persist_t.as_nanos().max(1) as f64
    }
}

/// The seeded value of object `i` in a pheap bench leg.
fn pheap_value(seed: u64, i: u64, len: u64) -> Vec<u8> {
    (0..len)
        .map(|j| {
            let x = seed ^ (i << 32) ^ j.wrapping_mul(0x9e37_79b9);
            (x.wrapping_mul(2_654_435_761) >> 11) as u8
        })
        .collect()
}

/// Runs one pheap leg on device 0 of a `devices`-device VM and returns
/// `(persist_t, recover_t, digest)` where `digest` folds every recovered
/// byte (so any divergence between device counts poisons the comparison).
fn pheap_leg(
    env: &BenchEnv,
    devices: usize,
    seed: u64,
    objects: u64,
    value_bytes: u64,
    batch: u64,
) -> (VirtualNanos, VirtualNanos, u64) {
    let sys = vpim::VpimSystem::start(
        env.driver().clone(),
        vpim::VpimConfig::full(),
        vpim::StartOpts::new()
            .cost_model(env.cost_model().clone())
            .manager(vpim::manager::ManagerConfig::default()),
    );
    let vm = sys.launch(vpim::TenantSpec::new("pheap-bench").devices(devices).mem_mib(16)).expect("vm");
    let opts = vpim::PheapOptions::new().attach(&sys);

    let mut heap = vpim::Pheap::format(vm.frontend(0).clone(), opts.clone()).expect("format");
    let _ = heap.drain_cost(); // format is setup, not part of the persist figure
    let mut ids = Vec::new();
    let mut persists = 0u64;
    for i in 0..objects {
        let id = heap.alloc(value_bytes).expect("alloc");
        heap.write(id, 0, &pheap_value(seed, i, value_bytes)).expect("write");
        ids.push(id);
        if (i + 1) % batch == 0 {
            heap.persist().expect("persist");
            persists += 1;
        }
    }
    if !objects.is_multiple_of(batch) {
        heap.persist().expect("persist");
        persists += 1;
    }
    let persist_t = heap.drain_cost();
    drop(heap); // crash: the resident window dies with the guest

    let (mut rec, report) = vpim::Pheap::recover(vm.frontend(0).clone(), opts).expect("recover");
    let recover_t = rec.drain_cost();
    assert!(
        !report.replayed && !report.discarded_tail,
        "clean crash must recover without repair: {report:?}"
    );
    assert_eq!(report.applied_seq, persists, "every persist must be durable");
    assert_eq!(report.objects as u64, objects, "every committed object must survive");

    let mut digest = 0xcbf2_9ce4_8422_2325u64 ^ persists;
    for (i, &id) in ids.iter().enumerate() {
        let got = rec.read(id, 0, value_bytes).expect("read");
        assert_eq!(got, pheap_value(seed, i as u64, value_bytes), "{devices} devices: object {i} diverged");
        digest = got.iter().fold(digest, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    }
    drop(rec);
    drop(vm);
    sys.shutdown();
    (persist_t, recover_t, digest)
}

/// The persistent-heap durability bench (DESIGN.md §17), feeding
/// `ci/pheap-gate.sh` and `BENCH_pheap.json`. Three workload shapes —
/// a small-value KV store, a large-value blob store, and a log-style
/// append stream — each run on a one-device and a two-device VM with the
/// acceptance bars asserted here so the figures binary and the gate both
/// trip on a regression: recovery is lossless and repair-free after a clean crash,
/// bit-identical across one and two devices (state *and* virtual-time
/// costs), and never costs zero.
#[must_use]
pub fn bench_pheap(env: &BenchEnv) -> Vec<PheapRow> {
    let mut rows = Vec::new();
    for (leg, objects, value_bytes, batch) in [
        ("kv-small", 96u64, 256u64, 12u64),
        ("blob-large", 16, 8192, 4),
        ("log-append", 48, 1024, 6),
    ] {
        let seed = 0x17_u64.wrapping_mul(objects) ^ value_bytes;
        let one = pheap_leg(env, 1, seed, objects, value_bytes, batch);
        let two = pheap_leg(env, 2, seed, objects, value_bytes, batch);
        assert_eq!(one, two, "{leg}: the device count must not reach state or virtual time");
        let (persist_t, recover_t, _) = one;
        assert!(persist_t > VirtualNanos::ZERO && recover_t > VirtualNanos::ZERO);
        rows.push(PheapRow {
            leg,
            objects,
            value_bytes,
            persists: objects / batch + u64::from(objects % batch != 0),
            persist_t,
            recover_t,
        });
    }
    rows
}
