//! Adaptive-controller determinism (DESIGN.md §16): the controller is a
//! pure function of virtual-time observations, so with `adapt` enabled the
//! same workload must produce bit-identical payloads, per-request reports,
//! and `frontend.adapt.*` telemetry under `DispatchMode::Sequential` and
//! `DispatchMode::Parallel`, and under any test-harness thread count (the
//! gate runs `canonical_adapt_report` under `RUST_TEST_THREADS=1` and `=8`
//! and byte-compares the JSON). Property tests pin the policy machines:
//! the window never leaves its bounds and converges on steady traces
//! instead of oscillating.

use std::sync::Arc;

use microbench::Checksum;
use proptest::prelude::*;
use upmem_driver::UpmemDriver;
use upmem_sim::{PimConfig, PimMachine};
use vpim::frontend::policy::{
    BatchPolicy, WindowPolicy, GROW_HIT_RUN, MAX_BATCH_PAGES, MAX_WINDOW_PAGES, MIN_BATCH_PAGES,
    MIN_WINDOW_PAGES, PAGE,
};
use vpim::{OpReport, StartOpts, TenantSpec, VpimConfig, VpimSystem};

const RANKS: usize = 2;
const DPUS: u32 = 8;

fn host() -> Arc<UpmemDriver> {
    let machine = PimMachine::new(PimConfig {
        ranks: RANKS,
        functional_dpus: vec![DPUS as usize; RANKS],
        mram_size: 1 << 20,
        ..PimConfig::small()
    });
    Checksum::register(&machine);
    Arc::new(UpmemDriver::new(machine))
}

/// Deterministic per-(rank, dpu, byte) payload.
fn payload(rank: usize, dpu: u32, len: usize) -> Vec<u8> {
    let seed = (rank * 131 + dpu as usize * 17 + 7) as u32;
    (0..len)
        .map(|i| (seed.wrapping_mul(48271).wrapping_add(i as u32) >> 5) as u8)
        .collect()
}

/// Everything a run produces that must be bit-identical across modes.
#[derive(Debug, PartialEq)]
struct MixResult {
    reports: Vec<OpReport>,
    outputs: Vec<Vec<u8>>,
    adapt: Vec<(String, i64)>,
}

/// A workload hitting every controller path: direct writes, a kernel
/// launch barrier, the RED-shaped one-small-read-per-DPU scatter, a
/// streaming walk, the write-then-read-back pattern, and a batched
/// small-write burst.
fn run_adaptive_mix(parallel: bool) -> MixResult {
    let cfg = VpimConfig::builder().adaptive(true).parallel(parallel).build();
    let sys = VpimSystem::start(host(), cfg, StartOpts::default());
    let vm = sys.launch(TenantSpec::new("adapt-det").devices(RANKS)).unwrap();
    let mut reports = Vec::new();
    let mut outputs = Vec::new();
    let all: Vec<u32> = (0..DPUS).collect();

    for (r, fe) in vm.frontends().iter().enumerate() {
        assert_eq!(fe.adapt_window_pages(), Some(16), "controller must start static");

        // Direct writes seed every DPU's MRAM.
        let datas: Vec<Vec<u8>> = (0..DPUS).map(|d| payload(r, d, 16 << 10)).collect();
        let entries: Vec<(u32, u64, &[u8])> =
            datas.iter().enumerate().map(|(d, p)| (d as u32, 0, p.as_slice())).collect();
        reports.push(fe.write_rank(&entries).unwrap());

        // A real launch: flushes, invalidates, and hits the controller's
        // barrier path.
        reports.push(fe.load_program(Checksum::KERNEL, &all).unwrap());
        let nbytes: Vec<(u32, u32)> = all.iter().map(|d| (*d, 4096)).collect();
        reports.push(fe.scatter_symbol("nbytes", &nbytes).unwrap());
        reports.push(fe.launch(&all, 16).unwrap());
        let (_, poll) = fe.poll_status(0).unwrap();
        reports.push(poll);

        // RED shape: one 256 B read per DPU — the static over-fetch
        // pathology the controller learns across DPUs.
        for d in 0..DPUS {
            let (outs, rep) = fe.read_rank(&[(d, 8192, 256)]).unwrap();
            outputs.extend(outs);
            reports.push(rep);
        }

        // Streaming walk on DPU 0: hit runs and overrun misses.
        for i in 0..64u64 {
            let (outs, rep) = fe.read_rank(&[(0, i * 256, 256)]).unwrap();
            outputs.extend(outs);
            reports.push(rep);
        }

        // Write-then-read-back: a batched small write immediately read
        // back — the dirty-region miss that flips prefetch off per-DPU.
        reports.push(fe.write_rank(&[(1, 8192, &[0xAA; 128])]).unwrap());
        for _ in 0..2 {
            let (outs, rep) = fe.read_rank(&[(1, 8192, 128)]).unwrap();
            assert_eq!(outs[0], vec![0xAA; 128], "read-back must stay coherent");
            outputs.extend(outs);
            reports.push(rep);
        }
        reports.push(fe.launch(&all, 16).unwrap()); // barrier clears the flip

        // Batched small-write burst, flushed by a read.
        for i in 0..32u64 {
            reports
                .push(fe.write_rank(&[((i % 4) as u32, 32768 + (i / 4) * 256, &[9u8; 256])]).unwrap());
        }
        let (outs, rep) = fe.read_rank(&[(0, 32768, 256)]).unwrap();
        outputs.extend(outs);
        reports.push(rep);
    }

    let snap = sys.registry().snapshot();
    let mut adapt = Vec::new();
    for name in [
        "frontend.adapt.window.grows",
        "frontend.adapt.window.shrinks",
        "frontend.adapt.prefetch.flips",
        "frontend.adapt.batch.early_flushes",
        "frontend.adapt.bytes.saved",
        "frontend.adapt.bytes.extra",
        "frontend.prefetch.invalidations.scoped",
        "frontend.prefetch.invalidations.global",
    ] {
        adapt.push((name.to_string(), snap.count(name) as i64));
    }
    for device in 0..RANKS {
        for kind in ["window", "batch"] {
            let name = format!("frontend.adapt.{kind}.pages.rank{device}");
            adapt.push((name.clone(), snap.level(&name)));
        }
    }
    drop(vm);
    sys.shutdown();
    MixResult { reports, outputs, adapt }
}

#[test]
fn adaptive_runs_identical_across_dispatch_modes() {
    let seq = run_adaptive_mix(false);
    let par = run_adaptive_mix(true);
    assert_eq!(seq.outputs, par.outputs, "payloads diverged");
    assert_eq!(seq.reports.len(), par.reports.len());
    for (i, (s, p)) in seq.reports.iter().zip(&par.reports).enumerate() {
        assert_eq!(s, p, "request {i}: dispatch mode leaked into the controller");
    }
    assert_eq!(seq.adapt, par.adapt, "frontend.adapt.* telemetry diverged");
    // The mix actually exercised the controller.
    let count = |name: &str| {
        seq.adapt.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap()
    };
    assert!(count("frontend.adapt.window.shrinks") > 0, "RED shape never shrank");
    assert!(count("frontend.adapt.window.grows") > 0, "streaming never grew");
    assert!(count("frontend.adapt.prefetch.flips") > 0, "WRB never flipped");
    assert!(count("frontend.prefetch.invalidations.scoped") > 0);
    assert!(count("frontend.prefetch.invalidations.global") > 0);
}

#[test]
fn adaptive_parallel_run_is_self_identical() {
    assert_eq!(run_adaptive_mix(true), run_adaptive_mix(true));
}

/// The default (static) configuration must not register any
/// `frontend.adapt.*` metric: the registry dump of a pre-existing
/// deployment is part of the compatibility surface, and a zeroed gauge
/// would advertise a controller that is not running.
#[test]
fn static_config_registers_no_adapt_metrics() {
    let sys = VpimSystem::start(host(), VpimConfig::full(), StartOpts::default());
    let vm = sys.launch(TenantSpec::new("static-reg").devices(RANKS)).unwrap();
    let fe = &vm.frontends()[0];
    fe.write_rank(&[(0, 4096, payload(0, 0, 256).as_slice())]).unwrap();
    assert_eq!(fe.adapt_window_pages(), None);
    let snap = sys.registry().snapshot();
    assert_eq!(
        snap.with_prefix("frontend.adapt.").count(),
        0,
        "static config leaked adapt metrics into the registry"
    );
    drop(vm);
    sys.shutdown();
}

/// FNV-1a over a byte stream — a stable fingerprint for the JSON report.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The gate's artifact: one canonical parallel run serialized to JSON.
/// `ci/adaptive-gate.sh` runs this under `RUST_TEST_THREADS=1` and `=8`
/// and byte-compares the two files — harness scheduling must not reach
/// virtual time or the controller.
#[test]
fn canonical_adapt_report() {
    let mix = run_adaptive_mix(true);
    let reports_hash = fnv1a(format!("{:?}", mix.reports).as_bytes());
    let outputs_hash = fnv1a(format!("{:?}", mix.outputs).as_bytes());
    let cells: Vec<String> =
        mix.adapt.iter().map(|(n, v)| format!("\"{n}\":{v}")).collect();
    let json = format!(
        "{{\"suite\":\"adapt_determinism\",\"reports_fnv\":{reports_hash},\"outputs_fnv\":{outputs_hash},\"telemetry\":{{{}}}}}",
        cells.join(",")
    );
    if let Ok(path) = std::env::var("ADAPT_REPORT_OUT") {
        std::fs::write(&path, &json).expect("write ADAPT_REPORT_OUT");
    }
}

proptest! {
    /// The window never leaves `[min, max]` under any event sequence.
    #[test]
    fn window_policy_stays_in_bounds(
        initial in 1u32..65,
        events in proptest::collection::vec((0u8..4, 0u32..8, 0u64..(128 * 4096)), 0..256),
    ) {
        let mut w = WindowPolicy::new(initial);
        for (kind, dpu, served) in events {
            match kind {
                0 => w.on_hit(dpu),
                1 => { w.on_overrun_miss(dpu); }
                2 => w.on_plain_miss(),
                _ => { w.on_fetch_retired(w.window_bytes(), served); }
            }
            prop_assert!((MIN_WINDOW_PAGES..=MAX_WINDOW_PAGES).contains(&w.window_pages()),
                "window escaped bounds: {}", w.window_pages());
        }
    }

    /// On a steady trace (every fetch serves the same byte count) the
    /// window converges: it jumps to the observed need once and never
    /// moves again — no oscillation.
    #[test]
    fn window_policy_converges_on_steady_traces(
        initial in 1u32..65,
        served in 1u64..(64 * 4096 + 1),
    ) {
        let mut w = WindowPolicy::new(initial);
        let mut moves = 0;
        for _ in 0..100 {
            let before = w.window_pages();
            w.on_fetch_retired(w.window_bytes(), served.min(w.window_bytes()));
            if w.window_pages() != before {
                moves += 1;
            }
        }
        prop_assert!(moves <= 1, "window moved {moves} times on a steady trace");
        // And the settled window actually covers the need when it shrank.
        let settled = w.window_pages();
        w.on_fetch_retired(w.window_bytes(), served.min(w.window_bytes()));
        prop_assert_eq!(w.window_pages(), settled);
    }

    /// Streaming growth is monotone up to the cap and stays there.
    #[test]
    fn window_policy_growth_is_monotone(rounds in 1usize..12) {
        let mut w = WindowPolicy::new(16);
        let mut prev = w.window_pages();
        for _ in 0..rounds {
            for _ in 0..GROW_HIT_RUN {
                w.on_hit(0);
            }
            w.on_overrun_miss(0);
            prop_assert!(w.window_pages() >= prev);
            prop_assert!(w.window_pages() <= MAX_WINDOW_PAGES);
            prev = w.window_pages();
        }
    }

    /// The batch threshold never leaves `[min, max]` pages.
    #[test]
    fn batch_policy_stays_in_bounds(
        gaps in proptest::collection::vec((0u64..1_000_000, any::<bool>()), 0..256),
    ) {
        let mut b = BatchPolicy::new(64);
        for (gap, pending) in gaps {
            b.on_append_gap(gap, pending);
            let pages = (b.threshold_bytes() / PAGE) as u32;
            prop_assert!((MIN_BATCH_PAGES..=MAX_BATCH_PAGES).contains(&pages),
                "threshold escaped bounds: {pages} pages");
        }
    }
}
