//! Concurrency stress: several VMs spanning several ranks, hammered with
//! write/launch/read traffic from many client threads at once. Locks down
//! the tentpole guarantees of the real-parallelism work:
//!
//! * per-DPU data integrity — no cross-thread corruption anywhere in the
//!   frontend → virtqueue → backend → simulated-MRAM path;
//! * exact registry accounting — `backend.writes`/`backend.reads` and
//!   `vmm.vmexits` match the client-side request count to the unit, and
//!   every `virtio.queue.depth.rank{i}` gauge returns to zero.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use microbench::checksum::{self, Checksum};
use simkit::ErrorKind;
use upmem_driver::UpmemDriver;
use upmem_sim::{DpuContext, DpuFault, DpuKernel, KernelImage, PimConfig, PimMachine};
use vpim::{StartOpts, TenantSpec, VpimConfig, VpimError, VpimSystem};

const ROUNDS: usize = 6;
const THREADS_PER_DEVICE: usize = 2;
const DPUS_PER_THREAD: usize = 4;
const BYTES_PER_DPU: usize = 8192;

fn host(ranks: usize) -> Arc<UpmemDriver> {
    let machine = PimMachine::new(PimConfig {
        ranks,
        functional_dpus: vec![8; ranks],
        mram_size: 1 << 20,
        ..PimConfig::small()
    });
    Checksum::register(&machine);
    Arc::new(UpmemDriver::new(machine))
}

/// The pattern thread `(vm, dev, thread)` writes to `dpu` in `round` —
/// unique per writer and round so any cross-thread mixup is visible.
fn pattern(vm: usize, dev: usize, t: usize, dpu: u32, round: usize) -> Vec<u8> {
    let seed = (vm * 131 + dev * 37 + t * 17 + dpu as usize * 7 + round * 3) as u32;
    (0..BYTES_PER_DPU)
        .map(|i| (seed.wrapping_mul(2654435761).wrapping_add(i as u32) >> 8) as u8)
        .collect()
}

fn cpu_checksum(data: &[u8]) -> u32 {
    data.iter().fold(0u32, |a, &b| a.wrapping_add(u32::from(b)))
}

#[test]
fn stress_many_vms_many_ranks_many_client_threads() {
    const VMS: usize = 2;
    const DEVICES_PER_VM: usize = 2;
    let driver = host(VMS * DEVICES_PER_VM);
    // Direct requests only (no batching/prefetch absorption) so every
    // client call maps to exactly one virtqueue request.
    let vcfg = VpimConfig::builder().batching(false).prefetch(false).build();
    let sys = VpimSystem::start(driver, vcfg, StartOpts::default());

    let mut vms = Vec::new();
    for v in 0..VMS {
        vms.push(sys.launch(TenantSpec::new(format!("stress-{v}")).devices(DEVICES_PER_VM)).unwrap());
    }
    // Load the checksum kernel once per device (1 request each).
    for vm in &vms {
        for fe in vm.frontends() {
            fe.load_program(checksum::Checksum::KERNEL, &[]).unwrap();
        }
    }
    let base = sys.registry().snapshot();
    let base_vmexits = base.count("vmm.vmexits");
    let base_zero_copy = base.count("datapath.bytes.zero_copy");

    thread::scope(|s| {
        for (v, vm) in vms.iter().enumerate() {
            for (d, fe) in vm.frontends().iter().enumerate() {
                for t in 0..THREADS_PER_DEVICE {
                    let fe = fe.clone();
                    s.spawn(move || {
                        let dpus: Vec<u32> = (0..DPUS_PER_THREAD)
                            .map(|k| (t * DPUS_PER_THREAD + k) as u32)
                            .collect();
                        for round in 0..ROUNDS {
                            let datas: Vec<Vec<u8>> =
                                dpus.iter().map(|&dpu| pattern(v, d, t, dpu, round)).collect();
                            // 1 request: write this thread's DPUs in one matrix.
                            let entries: Vec<(u32, u64, &[u8])> = dpus
                                .iter()
                                .zip(&datas)
                                .map(|(&dpu, data)| {
                                    (dpu, checksum::DATA_OFFSET, data.as_slice())
                                })
                                .collect();
                            fe.write_rank(&entries).unwrap();
                            // 1 request: scatter the kernel argument.
                            let args: Vec<(u32, u32)> = dpus
                                .iter()
                                .map(|&dpu| (dpu, BYTES_PER_DPU as u32))
                                .collect();
                            fe.scatter_symbol("nbytes", &args).unwrap();
                            // 1 request: boot this thread's DPUs.
                            fe.launch(&dpus, 8).unwrap();
                            // 1 request: read result word and data back.
                            let mut reqs: Vec<(u32, u64, u64)> = Vec::new();
                            for &dpu in &dpus {
                                reqs.push((dpu, checksum::RESULT_OFFSET, 4));
                                reqs.push((dpu, checksum::DATA_OFFSET, BYTES_PER_DPU as u64));
                            }
                            let (outs, _) = fe.read_rank(&reqs).unwrap();
                            for (k, data) in datas.iter().enumerate() {
                                let got =
                                    u32::from_le_bytes(outs[2 * k][..4].try_into().unwrap());
                                assert_eq!(
                                    got,
                                    cpu_checksum(data),
                                    "vm {v} dev {d} thread {t} dpu {} round {round}: \
                                     kernel saw corrupted data",
                                    dpus[k]
                                );
                                assert_eq!(
                                    &outs[2 * k + 1],
                                    data,
                                    "vm {v} dev {d} thread {t} dpu {} round {round}: \
                                     read-back mismatch",
                                    dpus[k]
                                );
                            }
                        }
                    });
                }
            }
        }
    });

    let snap = sys.registry().snapshot();
    let n_threads = VMS * DEVICES_PER_VM * THREADS_PER_DEVICE;
    // Exact totals: every client call above is exactly one request.
    assert_eq!(
        snap.count("backend.writes"),
        (n_threads * ROUNDS) as u64,
        "one WriteRank request per thread-round: {snap:?}"
    );
    assert_eq!(
        snap.count("backend.reads"),
        (n_threads * ROUNDS) as u64,
        "one ReadRank request per thread-round: {snap:?}"
    );
    // 4 requests per thread-round (write, scatter, launch, read).
    assert_eq!(
        snap.count("vmm.vmexits") - base_vmexits,
        (n_threads * ROUNDS * 4) as u64,
        "every request is exactly one kick"
    );
    // All in-flight accounting drained.
    for i in 0..DEVICES_PER_VM {
        assert_eq!(
            snap.level(&format!("virtio.queue.depth.rank{i}")),
            0,
            "queue depth gauge must return to zero: {snap:?}"
        );
    }
    // Zero-copy data path, to the byte: each thread-round moves
    // DPUS_PER_THREAD payloads on the write and, on the read, one 4-byte
    // result word plus the full payload per DPU. (The hit/miss split
    // depends on which thread ran which chunk, but the moved-bytes total
    // and the guard drop balance are deterministic.)
    let per_round =
        DPUS_PER_THREAD * BYTES_PER_DPU + DPUS_PER_THREAD * (4 + BYTES_PER_DPU);
    assert_eq!(
        snap.count("datapath.bytes.zero_copy") - base_zero_copy,
        (n_threads * ROUNDS * per_round) as u64,
        "zero-copy byte accounting: {snap:?}"
    );
    assert_eq!(
        snap.level("datapath.pool.outstanding"),
        0,
        "every PoolGuard must return its buffer: {snap:?}"
    );
    assert!(
        snap.count("datapath.pool.hits") > snap.count("datapath.pool.misses"),
        "pool must recycle under steady traffic: {snap:?}"
    );
    drop(vms);
    sys.shutdown();
}

/// Eight guest threads share one frontend, each on its own DPU. Every
/// write is one 130-entry matrix, so three chunks (64 + 64 + 2), whose
/// entries 65..130 rewrite the offsets of entries 0..65 with different
/// bytes: the read-back equals the second pattern only if every thread's
/// chunks reach the rank in submission order, with one device or two
/// (every handler runs on a kicking thread).
#[test]
fn concurrent_threads_share_one_frontend_without_losing_completions() {
    const HALF: usize = 65;
    const LEN: usize = 512;
    for devices in [1, 2] {
        let driver = host(devices);
        let vcfg = VpimConfig::builder().batching(false).prefetch(false).build();
        let sys = VpimSystem::start(driver, vcfg, StartOpts::default());
        let vm = sys.launch(TenantSpec::new("contend").devices(devices)).unwrap();
        let fe = vm.frontend(0);

        thread::scope(|s| {
            for t in 0..8u32 {
                let fe = fe.clone();
                s.spawn(move || {
                    let dpu = t; // one DPU per thread
                    for round in 0..12usize {
                        let first: Vec<Vec<u8>> = (0..HALF)
                            .map(|k| vec![(t as usize * 31 + round * 7 + k) as u8; LEN])
                            .collect();
                        let second: Vec<Vec<u8>> =
                            first.iter().map(|d| d.iter().map(|b| !b).collect()).collect();
                        let entries: Vec<(u32, u64, &[u8])> = first
                            .iter()
                            .chain(&second)
                            .enumerate()
                            .map(|(i, d)| (dpu, ((i % HALF) * LEN) as u64, d.as_slice()))
                            .collect();
                        fe.write_rank(&entries).unwrap();
                        let reqs: Vec<(u32, u64, u64)> =
                            (0..HALF).map(|k| (dpu, (k * LEN) as u64, LEN as u64)).collect();
                        let (outs, _) = fe.read_rank(&reqs).unwrap();
                        assert_eq!(outs, second, "devices {devices} thread {t} round {round}");
                    }
                });
            }
        });

        let snap = sys.registry().snapshot();
        assert_eq!(snap.level("virtio.queue.depth.rank0"), 0, "{snap:?}");
        drop(vm);
        sys.shutdown();
    }
}

/// A DPU program with a host-side bug: it panics at launch.
struct PanicAtLaunch;

impl DpuKernel for PanicAtLaunch {
    fn image(&self) -> KernelImage {
        KernelImage::new("panic_at_launch", 64)
    }

    fn run(&self, _ctx: &mut DpuContext<'_>) -> Result<(), DpuFault> {
        panic!("kernel bug: panic at launch")
    }
}

/// A backend panic fails its own op, typed, and answers its chain, so
/// another guest thread on the same frontend keeps completing. One thread
/// launches the panicking kernel more times than `transferq` holds its
/// two-descriptor chains; a chain the panic stranded would fill the queue
/// and leave both threads waiting for room forever, which the watchdog
/// turns into a failure.
#[test]
fn a_backend_panic_fails_its_op_and_the_frontend_keeps_serving() {
    const LAUNCHES: usize = 300;
    let driver = host(1);
    driver.machine().register_kernel(Arc::new(PanicAtLaunch));
    let vcfg = VpimConfig::builder().batching(false).prefetch(false).build();
    let sys = VpimSystem::start(driver, vcfg, StartOpts::default());
    let vm = sys.launch(TenantSpec::new("panicky")).unwrap();
    let fe = vm.frontend(0).clone();
    fe.load_program("panic_at_launch", &[0]).unwrap();
    let (done, finished) = mpsc::channel();
    let launcher = {
        let (fe, done) = (fe.clone(), done.clone());
        thread::spawn(move || {
            // A panic that reaches the guest thread is caught here and
            // counted, so the thread goes on launching.
            let outcomes: Vec<_> = (0..LAUNCHES)
                .map(|_| catch_unwind(AssertUnwindSafe(|| fe.launch(&[0], 1))))
                .collect();
            done.send(()).unwrap();
            outcomes
        })
    };
    let worker = thread::spawn(move || {
        for round in 0..LAUNCHES {
            let data = vec![round as u8; 512];
            fe.write_rank(&[(5, 0, &data)]).unwrap();
            assert_eq!(fe.read_rank(&[(5, 0, 512)]).unwrap().0[0], data);
        }
        done.send(()).unwrap();
    });
    for _ in 0..2 {
        finished
            .recv_timeout(Duration::from_secs(30))
            .expect("watchdog: a guest thread hung or died (a chain never came back)");
    }
    worker.join().unwrap();
    for outcome in launcher.join().unwrap() {
        match outcome.expect("the panic reached the guest thread") {
            Err(VpimError::Remote { kind: ErrorKind::Internal, message }) => {
                assert!(message.contains("panic at launch"), "{message}");
            }
            other => panic!("expected a typed internal error, got {other:?}"),
        }
    }
    assert_eq!(sys.registry().snapshot().level("virtio.queue.depth.rank0"), 0);
    drop(vm);
    sys.shutdown();
}
