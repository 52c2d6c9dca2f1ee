//! The six workloads: set-up, one iteration, and the untimed legs that
//! give the simulated baseline (native run, sequential dispatch).
//!
//! Everything drives the stack through public API under
//! `VpimConfig::full()` on the paper's testbed geometry (8 ranks x 60 DPUs,
//! 8 MiB MRAM, interleave charged but not executed), one guest thread per
//! data-path workload (closed loop, one client). Inputs come from the seed
//! during set-up; every iteration verifies its outputs.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use vpim_system::loadmix;
use vpim_system::microbench::{Checksum, IndexSearchParams};
use vpim_system::prim::{self, PrimApp, ScaleParams};
use vpim_system::simkit::{CostModel, SimRng, Timeline};
use vpim_system::upmem_driver::UpmemDriver;
use vpim_system::upmem_sdk::DpuSet;
use vpim_system::upmem_sim::{PimConfig, PimMachine};
use vpim_system::vpim::load::{
    Arrival, LoadHarness, LoadReport, LoadSpec, TenantMix, TenantOp, TenantProfile,
};
use vpim_system::vpim::{StartOpts, TenantSpec, Variant, VpimConfig, VpimSystem, VpimVm};

use crate::catalog::Workload;
use crate::host::nproc;
use crate::trace::Tracer;

pub const DPUS_PER_RANK: usize = 60;
/// Bytes per DPU of the bulk transfers and the checksum file: the paper's
/// 8 MB point at Quick scale (1 "MB" = 64 KiB).
pub const BULK_BYTES: usize = 512 << 10;
/// MRAM heap offset of the bulk transfers.
const BULK_OFFSET: u64 = 0;
const GUEST_MIB: u64 = 768;
const MULTIRANK_RANKS: usize = 4;
const NW_ELEMENTS: usize = 1 << 17;

const CHURN_RANKS: usize = 4;
const CHURN_DPUS: usize = 4;
const CHURN_GUEST_MIB: u64 = 16;
pub const CHURN_SESSIONS: usize = 250;
/// Rounds cycle through this many load seeds (`seed`, `seed + 1`, ...), so
/// the simulated rows cover a fixed set of rounds however many rounds the
/// host completes in the time given, and every later round must reproduce
/// the report of the round one cycle earlier.
pub const CHURN_CYCLE: usize = 4;

/// The dominant transfer of a workload, replayed through each layer alone.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub dpus: usize,
    pub bytes_per_dpu: usize,
    pub guest_mib: u64,
    pub devices: usize,
    /// Tasklets of the single kernel the workload launches.
    pub kernel_tasklets: Option<usize>,
}

impl Workload {
    pub fn shape(self) -> Shape {
        let bulk = Shape {
            dpus: DPUS_PER_RANK,
            bytes_per_dpu: BULK_BYTES,
            guest_mib: GUEST_MIB,
            devices: 1,
            kernel_tasklets: None,
        };
        match self {
            Workload::ChecksumApp => Shape {
                kernel_tasklets: Some(16),
                ..bulk
            },
            Workload::BulkWrite | Workload::BulkRead => bulk,
            // NW's requests are single-DPU: 16-byte boundary pieces, of
            // which the reads become one 64 KiB prefetch fill per miss.
            Workload::NwSmallOps => Shape {
                dpus: 1,
                bytes_per_dpu: VpimConfig::full().prefetch_bytes() as usize,
                kernel_tasklets: Some(1),
                ..bulk
            },
            Workload::MultirankPush => Shape {
                devices: MULTIRANK_RANKS,
                ..bulk
            },
            // Tiny PrIM problems: 4096 u32 elements over 4 DPUs.
            Workload::SessionChurn => Shape {
                dpus: CHURN_DPUS,
                bytes_per_dpu: 4096,
                guest_mib: CHURN_GUEST_MIB,
                devices: 1,
                kernel_tasklets: None,
            },
        }
    }

    /// Whether the untraced run measures on one CPU (`host::pin_to_one_cpu`).
    /// The data-path workloads have one guest thread and do; `session_churn`
    /// runs two load-generator threads, and on one CPU its sleep-and-retry
    /// waits for recycled ranks make it less steady, not more.
    pub fn pinned(self) -> bool {
        self != Workload::SessionChurn
    }

    /// Iterations that make one cycle. A timed section holds a whole number
    /// of cycles, and the simulated rows are recorded over its first one, so
    /// they do not depend on how many iterations the host completes.
    pub fn cycle(self) -> usize {
        match self {
            Workload::SessionChurn => CHURN_CYCLE,
            _ => 2,
        }
    }
}

/// What one iteration reports from the simulated clock.
#[derive(Debug)]
pub enum IterVirt {
    Timeline(Timeline),
    Load(Box<LoadReport>),
}

#[derive(Debug)]
pub struct IterOut {
    pub attempted: u64,
    pub failed: u64,
    pub virt: IterVirt,
}

/// Parent span and iteration number for spans recorded on the load
/// harness's worker threads (the op bodies of `session_churn`).
#[derive(Debug)]
struct OpProbe {
    tracer: Arc<Tracer>,
    parent: AtomicUsize,
    iter: AtomicU32,
}

const NO_PARENT: usize = usize::MAX;

enum State {
    Checksum {
        expected: u32,
    },
    /// `checksum` is the first run's output checksum; every later run must
    /// reproduce it.
    Nw {
        app: Arc<dyn PrimApp>,
        checksum: Option<u64>,
    },
    Push {
        set: DpuSet,
        bufs: Vec<Vec<u8>>,
    },
    Read {
        set: DpuSet,
        bufs: Vec<Vec<u8>>,
    },
    Churn {
        mix: TenantMix,
        probe: Arc<OpProbe>,
        first: Vec<Option<LoadReport>>,
    },
}

/// A set-up workload: the machine, the vPIM host, the guest and the inputs.
///
/// Fields drop in declaration order: the DPU set before its guest, the
/// guest before the host that manages its ranks.
pub struct Bench {
    pub kind: Workload,
    state: State,
    /// The guest of the data-path workloads (`session_churn` launches its
    /// own, one per session).
    pub vm: Option<VpimVm>,
    pub sys: Arc<VpimSystem>,
    pub driver: Arc<UpmemDriver>,
    pub cm: CostModel,
    seed: u64,
    tracer: Arc<Tracer>,
}

fn testbed() -> PimConfig {
    PimConfig {
        ranks: 8,
        functional_dpus: vec![DPUS_PER_RANK; 8],
        mram_size: 8 << 20,
        verify_interleave: false,
        ..PimConfig::paper_testbed()
    }
}

fn seeded_bufs(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let mut rng = SimRng::seeded(seed);
    (0..n).map(|_| rng.bytes(BULK_BYTES)).collect()
}

/// Marks each buffer with the iteration that pushes it, so the read-back
/// after the timed section proves the *last* push landed.
fn stamp(bufs: &mut [Vec<u8>], i: u32) {
    for b in bufs {
        b[..4].copy_from_slice(&i.to_le_bytes());
    }
}

impl Bench {
    /// Machine + kernels + system + VM launch + input generation + CPU
    /// references + one warm-up iteration (pool fill, guest pages faulted).
    pub fn setup(kind: Workload, seed: u64, tracer: Arc<Tracer>) -> Result<Bench, String> {
        let cm = CostModel::default();
        let machine = if kind == Workload::SessionChurn {
            let m = PimMachine::new(loadmix::load_host_config(CHURN_RANKS));
            loadmix::register_workloads(&m);
            m
        } else {
            let m = PimMachine::new(testbed());
            prim::register_all(&m);
            Checksum::register(&m);
            m
        };
        let driver = Arc::new(UpmemDriver::new(machine));
        let sys = Arc::new(VpimSystem::start(
            driver.clone(),
            VpimConfig::full(),
            StartOpts::new().cost_model(cm.clone()),
        ));
        let shape = kind.shape();
        let vm = match kind {
            Workload::SessionChurn => None,
            _ => Some(launch(&sys, &shape)?),
        };
        let alloc = |n: usize| {
            let frontends = vm
                .as_ref()
                .expect("data-path workloads have a guest")
                .frontends();
            DpuSet::alloc_vm(frontends, n, cm.clone()).map_err(|e| e.to_string())
        };
        let state = match kind {
            Workload::ChecksumApp => {
                let file = SimRng::seeded(seed).bytes(BULK_BYTES);
                let expected = file.iter().fold(0u32, |a, b| a.wrapping_add(u32::from(*b)));
                State::Checksum { expected }
            }
            Workload::NwSmallOps => State::Nw {
                app: prim::by_name("NW").expect("NW is in the catalog"),
                checksum: None,
            },
            Workload::BulkWrite => State::Push {
                set: alloc(DPUS_PER_RANK)?,
                bufs: seeded_bufs(seed, DPUS_PER_RANK),
            },
            Workload::MultirankPush => {
                let n = MULTIRANK_RANKS * DPUS_PER_RANK;
                State::Push {
                    set: alloc(n)?,
                    bufs: seeded_bufs(seed, n),
                }
            }
            Workload::BulkRead => {
                let bufs = seeded_bufs(seed, DPUS_PER_RANK);
                let mut set = alloc(DPUS_PER_RANK)?;
                set.push_to_heap(BULK_OFFSET, &bufs)
                    .map_err(|e| e.to_string())?;
                State::Read { set, bufs }
            }
            Workload::SessionChurn => {
                let probe = Arc::new(OpProbe {
                    tracer: tracer.clone(),
                    parent: AtomicUsize::new(NO_PARENT),
                    iter: AtomicU32::new(0),
                });
                State::Churn {
                    mix: churn_mix(&probe),
                    probe,
                    first: vec![None; CHURN_CYCLE],
                }
            }
        };
        let mut bench = Bench {
            kind,
            state,
            vm,
            sys,
            driver,
            cm,
            seed,
            tracer,
        };
        let warm = bench.iterate(0);
        if warm.failed > 0 {
            return Err(format!(
                "{}: the warm-up iteration failed verification",
                kind.name()
            ));
        }
        Ok(bench)
    }

    /// One iteration, verified. A failure of any kind (an `Err`, a failed
    /// verification, a giveup, a launch failure, an op failure, a round
    /// that does not reproduce) is counted, never propagated.
    pub fn iterate(&mut self, i: u32) -> IterOut {
        let tr = self.tracer.clone();
        let root = tr.begin("iter", None, i);
        let parent = root.id();
        let out = match &mut self.state {
            State::Checksum { expected } => {
                let frontends = self.vm.as_ref().expect("guest").frontends();
                let (cm, seed, expected) = (self.cm.clone(), self.seed, *expected);
                app_iteration(&tr, parent, i, frontends, cm, |set| {
                    let run = Checksum::run(set, BULK_BYTES, seed)?;
                    Ok(run.verified && run.value == expected)
                })
            }
            State::Nw { app, checksum } => {
                let frontends = self.vm.as_ref().expect("guest").frontends();
                let (cm, seed) = (self.cm.clone(), self.seed);
                app_iteration(&tr, parent, i, frontends, cm, |set| {
                    let run = app.run(set, &ScaleParams::of(NW_ELEMENTS), seed)?;
                    Ok(run.verified && *checksum.get_or_insert(run.checksum) == run.checksum)
                })
            }
            State::Push { set, bufs } => {
                stamp(bufs, i);
                let ok = tr
                    .scope("host.sdk.push_to_heap_ns", parent, i, || {
                        set.push_to_heap(BULK_OFFSET, bufs)
                    })
                    .is_ok();
                data_out(ok, set.take_timeline())
            }
            State::Read { set, bufs } => {
                let got = tr.scope("host.sdk.push_from_heap_ns", parent, i, || {
                    set.push_from_heap(BULK_OFFSET, BULK_BYTES)
                });
                let ok = tr.scope("bench.verify", parent, i, || got.is_ok_and(|g| g == *bufs));
                data_out(ok, set.take_timeline())
            }
            State::Churn { mix, probe, first } => {
                let slot = i as usize % CHURN_CYCLE;
                let spec = LoadSpec::new(self.seed + slot as u64, CHURN_SESSIONS)
                    .arrival(Arrival::OnOff {
                        mean_gap_ns: 50,
                        burst: 100,
                        off_gap_ns: 2_000,
                    })
                    .servers(32)
                    .workers(nproc().min(2));
                let run = tr.begin("load.run", parent, i);
                probe
                    .parent
                    .store(run.id().unwrap_or(NO_PARENT), Ordering::Relaxed);
                probe.iter.store(i, Ordering::Relaxed);
                let report = LoadHarness::run(&self.sys, &spec, mix);
                tr.end(run);
                let accounted =
                    report.completed + report.giveups + report.launch_failures == report.sessions;
                let reproduced = first[slot].get_or_insert_with(|| report.clone()) == &report;
                let failed = if accounted && reproduced {
                    report.giveups + report.launch_failures + report.op_failures
                } else {
                    report.sessions
                };
                IterOut {
                    attempted: report.sessions,
                    failed: failed.min(report.sessions),
                    virt: IterVirt::Load(Box::new(report)),
                }
            }
        };
        tr.end(root);
        out
    }

    /// Untimed check after the timed section: the push workloads read their
    /// last push back through vPIM and compare it byte for byte.
    pub fn verify_final(&mut self) -> bool {
        match &mut self.state {
            State::Push { set, bufs } => set
                .push_from_heap(BULK_OFFSET, BULK_BYTES)
                .is_ok_and(|got| got == *bufs),
            _ => true,
        }
    }

    /// Simulated time of the identical SDK calls on a native set (the
    /// denominator of the paper's overhead figure), and the native set
    /// itself with the workload's kernel loaded and its inputs in MRAM.
    pub fn native_leg(&mut self) -> Result<Option<(Timeline, DpuSet)>, String> {
        let n = match &self.state {
            State::Churn { .. } => return Ok(None),
            State::Push { set, .. } | State::Read { set, .. } => set.nr_dpus(),
            State::Checksum { .. } | State::Nw { .. } => DPUS_PER_RANK,
        };
        let mut set =
            DpuSet::alloc_native(&self.driver, n, self.cm.clone()).map_err(|e| e.to_string())?;
        let seed = self.seed;
        let ok = match &mut self.state {
            State::Checksum { expected } => Checksum::run(&mut set, BULK_BYTES, seed)
                .map(|r| r.verified && r.value == *expected),
            State::Nw { app, checksum } => app
                .run(&mut set, &ScaleParams::of(NW_ELEMENTS), seed)
                .map(|r| r.verified && Some(r.checksum) == *checksum),
            State::Push { bufs, .. } => set.push_to_heap(BULK_OFFSET, bufs).map(|()| true),
            State::Read { bufs, .. } => set
                .push_to_heap(BULK_OFFSET, bufs)
                .and_then(|()| {
                    // Only the read is the workload; drop the seeding write.
                    set.take_timeline();
                    set.push_from_heap(BULK_OFFSET, BULK_BYTES)
                })
                .map(|got| got == *bufs),
            State::Churn { .. } => unreachable!("returned above"),
        }
        .map_err(|e| e.to_string())?;
        if !ok {
            return Err(format!(
                "{}: the native leg failed verification",
                self.kind.name()
            ));
        }
        Ok(Some((set.take_timeline(), set)))
    }

    /// `multirank_push` only: simulated time of the same push with the
    /// ranks handled one after another (`Variant::VpimSeq`). Consumes the
    /// bench: the parallel host must release its ranks first.
    pub fn sequential_leg(self) -> Result<Timeline, String> {
        let State::Push { set, bufs } = self.state else {
            return Err("sequential leg is defined for the push workloads".into());
        };
        drop(set);
        drop(self.vm);
        drop(self.sys);
        let sys = VpimSystem::start(
            self.driver,
            VpimConfig::variant_config(Variant::VpimSeq),
            StartOpts::new().cost_model(self.cm.clone()),
        );
        let vm = launch(&sys, &self.kind.shape())?;
        let mut set =
            DpuSet::alloc_vm(vm.frontends(), bufs.len(), self.cm).map_err(|e| e.to_string())?;
        set.push_to_heap(BULK_OFFSET, &bufs)
            .map_err(|e| e.to_string())?;
        Ok(set.take_timeline())
    }
}

pub fn launch(sys: &VpimSystem, shape: &Shape) -> Result<VpimVm, String> {
    sys.launch(
        TenantSpec::new("bench-vm")
            .devices(shape.devices)
            .mem_mib(shape.guest_mib),
    )
    .map_err(|e| e.to_string())
}

fn data_out(ok: bool, timeline: Timeline) -> IterOut {
    IterOut {
        attempted: 1,
        failed: u64::from(!ok),
        virt: IterVirt::Timeline(timeline),
    }
}

/// The application workloads' iteration: a fresh `DpuSet::alloc_vm`, the
/// app's own `run` (which verifies against its CPU reference), and the
/// set's release, each under its own span.
fn app_iteration(
    tr: &Tracer,
    parent: Option<usize>,
    i: u32,
    frontends: &[Arc<vpim_system::vpim::Frontend>],
    cm: CostModel,
    run: impl FnOnce(&mut DpuSet) -> Result<bool, vpim_system::upmem_sdk::SdkError>,
) -> IterOut {
    let set = tr.scope("host.sdk.alloc_vm_ns", parent, i, || {
        DpuSet::alloc_vm(frontends, DPUS_PER_RANK, cm)
    });
    let Ok(mut set) = set else {
        return data_out(false, Timeline::new());
    };
    let ok = tr
        .scope("host.app.run_ns", parent, i, || run(&mut set))
        .unwrap_or(false);
    let timeline = set.take_timeline();
    tr.scope("sdk.free", parent, i, || drop(set));
    data_out(ok, timeline)
}

/// A mix shaped like `loadmix::smoke_mix(4)` (the PrIM spread at test scale
/// plus an occasional small UPIS tenant), rebuilt from `prim_op`/`upis_op`
/// so each op body runs under a span.
fn churn_mix(probe: &Arc<OpProbe>) -> TenantMix {
    let timed = |op: TenantOp| {
        let probe = probe.clone();
        let name = op.name().to_string();
        TenantOp::new(
            name,
            Arc::new(move |vm, seed| {
                let parent = probe.parent.load(Ordering::Relaxed);
                let open = probe.tracer.begin(
                    "host.app.run_ns",
                    (parent != NO_PARENT).then_some(parent),
                    probe.iter.load(Ordering::Relaxed),
                );
                let out = op.run(vm, seed);
                probe.tracer.end(open);
                out
            }),
        )
    };
    let tenant = |name: &str, ops: [&str; 2], think_ns: u64, weight: u64| {
        let spec = TenantSpec::new(name).mem_mib(CHURN_GUEST_MIB);
        ops.iter()
            .fold(TenantProfile::new(name, spec), |p, op| {
                p.op(timed(loadmix::prim_op(op, CHURN_DPUS, ScaleParams::tiny())))
            })
            .think_mean_ns(think_ns)
            .weight(weight)
    };
    TenantMix::new()
        .profile(tenant("linalg", ["va", "gemv"], 2_000, 4))
        .profile(tenant("analytics", ["red", "hst-s"], 3_000, 3))
        .profile(tenant("search", ["bs", "ts"], 1_500, 2))
        .profile(
            TenantProfile::new("upis", TenantSpec::new("upis").mem_mib(CHURN_GUEST_MIB))
                .op(timed(loadmix::upis_op(
                    CHURN_DPUS,
                    IndexSearchParams::small(),
                )))
                .think_mean_ns(5_000),
        )
}
