//! Staged replay: the workload's dominant transfer (its [`Shape`]: DPUs,
//! bytes per DPU, guest size) pushed through each layer *alone*, every call
//! under a span named after the row it fills. The layers are exercised
//! through their public entry points on the live guest's own memory (the
//! page allocator's cost depends on guest size), a rank of the simulated
//! machine no guest holds, and the live frontend.
//!
//! What a row covers is what the in-place path pairs: a build is timed with
//! its release, an allocation with its free.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vpim_system::pim_virtio::queue::{DeviceQueue, DriverQueue, QueueLayout};
use vpim_system::pim_virtio::{Gpa, GuestMemory, SegCache};
use vpim_system::simkit::cost::DataPath;
use vpim_system::simkit::{BytePool, CostModel, SimRng};
use vpim_system::upmem_driver::UpmemDriver;
use vpim_system::upmem_sdk::DpuSet;
use vpim_system::upmem_sim::{PimConfig, PimMachine};
use vpim_system::vpim::backend::datapath;
use vpim_system::vpim::backend::partition::partition_by_dpu;
use vpim_system::vpim::manager::table::TableState;
use vpim_system::vpim::matrix::TransferMatrix;
use vpim_system::vpim::sched::{SchedPolicy, ShardedAdmissionQueue};
use vpim_system::vpim::spec::{Request, Response};

use crate::trace::Tracer;
use crate::workloads::{launch, Bench, Shape};

/// MRAM offset the replay writes at: above the workloads' own data.
const REPLAY_OFFSET: u64 = 4 << 20;
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 40;

struct Stage<'a> {
    tr: &'a Tracer,
    parent: Option<usize>,
    /// Wall-clock allowance per row.
    budget: Duration,
}

impl Stage<'_> {
    /// Repeats `f` under spans called `name`: at least [`MIN_REPS`] times,
    /// then until the row's allowance or [`MAX_REPS`] is used up.
    /// `f` gets the repetition number, to walk a working set the size of
    /// the workload's instead of re-touching one cache-hot buffer.
    fn row(&self, name: &'static str, mut f: impl FnMut(usize)) {
        let t0 = Instant::now();
        for rep in 0..MAX_REPS {
            if rep >= MIN_REPS && t0.elapsed() >= self.budget {
                break;
            }
            self.tr.scope(name, self.parent, rep as u32, || f(rep));
        }
    }
}

/// Runs every staged row for `bench`'s shape. `native` is the native leg's
/// set (kernel loaded, inputs in MRAM) for the workloads that launch one
/// known kernel. Errors abort the replay: a layer that fails alone is a bug
/// in the benchmark, not a measurement.
pub fn run(
    bench: &Bench,
    native: Option<&mut DpuSet>,
    tr: &Tracer,
    budget: Duration,
) -> Result<(), String> {
    let shape = bench.kind.shape();
    let root = tr.begin("replay", None, 0);
    let stage = Stage {
        tr,
        parent: root.id(),
        budget: budget / 24,
    };
    let out = staged_rows(bench, &shape, native, &stage);
    tr.end(root);
    out.map_err(|e| format!("{}: staged replay: {e}", bench.kind.name()))
}

fn staged_rows(
    bench: &Bench,
    shape: &Shape,
    native: Option<&mut DpuSet>,
    stage: &Stage<'_>,
) -> Result<(), Box<dyn std::error::Error>> {
    // `session_churn` keeps no guest between sessions: launch one like its
    // sessions do.
    let own_vm;
    let vm = match &bench.vm {
        Some(vm) => vm,
        None => {
            own_vm = launch(&bench.sys, shape)?;
            &own_vm
        }
    };
    let mem = vm.vm().memory().clone();
    let front = vm.frontend(0).clone();
    let pool = BytePool::new();
    // One buffer per DPU, as in place: the per-entry rows below walk them
    // in turn.
    let mut rng = SimRng::seeded(7);
    let mut payloads: Vec<Vec<u8>> = (0..shape.dpus)
        .map(|_| rng.bytes(shape.bytes_per_dpu))
        .collect();
    let dpus = shape.dpus;
    let len = shape.bytes_per_dpu;
    let pages_per_dpu = len.div_ceil(4096);

    // ---- the whole stack, one request at a time -------------------------
    let entries: Vec<(u32, u64, &[u8])> = payloads
        .iter()
        .enumerate()
        .map(|(d, p)| (d as u32, REPLAY_OFFSET, p.as_slice()))
        .collect();
    let reqs: Vec<(u32, u64, u64)> = (0..dpus as u32)
        .map(|d| (d, REPLAY_OFFSET, len as u64))
        .collect();
    let mut err = None;
    stage.row("host.frontend.write_rank_ns", |_| {
        err = err.take().or(front.write_rank(&entries).err());
    });
    stage.row("host.frontend.read_rank_ns", |_| {
        err = err.take().or(front.read_rank(&reqs).err());
    });
    // The smallest full request round trip: the fixed host cost of one
    // guest->host transition.
    stage.row("host.frontend.poll_status_ns", |_| {
        err = err.take().or(front.poll_status(0).err());
    });
    if let Some(e) = err {
        return Err(e.into());
    }

    // ---- guest page allocator -----------------------------------------
    stage.row("host.virtio.alloc_pages_ns", |_| {
        let pages = mem
            .alloc_pages(pages_per_dpu)
            .expect("guest has free pages");
        mem.free_pages_back(&pages).expect("pages just allocated");
    });
    let (matrix, data_lease) = TransferMatrix::from_user_buffers(&mem, &entries)?;
    let (meta_bufs, meta_lease) = matrix.serialize_pooled(&mem, &pool)?;
    let meta_pages = meta_lease.page_count();
    stage.row("host.virtio.alloc_contiguous_ns", |_| {
        let base = mem
            .alloc_contiguous(meta_pages)
            .expect("guest has a free run");
        let pages: Vec<Gpa> = (0..meta_pages as u64).map(|i| base.add(i * 4096)).collect();
        mem.free_pages_back(&pages).expect("pages just allocated");
    });

    // ---- transfer matrix ------------------------------------------------
    stage.row("host.matrix.from_user_buffers_ns", |_| {
        let (_m, lease) =
            TransferMatrix::from_user_buffers(&mem, &entries).expect("guest has free pages");
        lease.release();
    });
    stage.row("host.matrix.serialize_ns", |_| {
        let (_bufs, lease) = matrix
            .serialize_pooled(&mem, &pool)
            .expect("guest has a free run");
        lease.release();
    });
    let flat: Vec<(Gpa, u32)> = meta_bufs.iter().map(|(g, l, _)| (*g, *l)).collect();
    stage.row("host.matrix.deserialize_ns", |_| {
        std::hint::black_box(TransferMatrix::deserialize(&mem, &flat).expect("own encoding"));
    });
    let entry = |rep: usize| &matrix.entries[rep % dpus];
    stage.row("host.matrix.scatter_ns", |rep| {
        TransferMatrix::scatter(&mem, entry(rep), &payloads[rep % dpus])
            .expect("entry sized for the payload");
    });
    stage.row("host.matrix.gather_ns", |rep| {
        std::hint::black_box(TransferMatrix::gather(&mem, entry(rep)).expect("pages in range"));
    });

    // ---- virtqueue and wire format --------------------------------------
    {
        let qmem = GuestMemory::new(8 << 20);
        let layout = QueueLayout::alloc(&qmem, 512)?;
        let mut driver_q = DriverQueue::new(qmem.clone(), layout.clone());
        let mut device_q = DeviceQueue::new(qmem.clone(), layout);
        let p = qmem.alloc_pages(3)?;
        let chain = [(p[0], 64, false), (p[1], 4096, false), (p[2], 4096, true)];
        stage.row("host.virtio.queue_cycle_ns", |_| {
            let head = driver_q
                .add_chain(&chain)
                .expect("queue has free descriptors");
            let popped = device_q
                .pop()
                .expect("ring readable")
                .expect("chain just added");
            device_q.push_used(popped.head, 128).expect("ring writable");
            let used = driver_q
                .poll_used()
                .expect("ring readable")
                .expect("just pushed");
            assert_eq!(used.0, head);
        });
    }
    let request = Request::WriteRank {
        nr_dpus: shape.dpus as u32,
    };
    let response = Response {
        status: 0,
        kind: 0,
        error: String::new(),
        deser_ns: 1,
        translate_ns: 2,
        transfer_ns: 3,
        ddr_ns: 2,
        launch_cycles: 0,
        payload: Vec::new(),
    };
    stage.row("host.spec.codec_ns", |_| {
        std::hint::black_box(Request::decode(&request.encode()).expect("own encoding"));
        std::hint::black_box(Response::decode(&response.encode()).expect("own encoding"));
    });

    // ---- backend and simulator ------------------------------------------
    let workers = bench.cm.backend_threads;
    stage.row("host.backend.partition_ns", |_| {
        std::hint::black_box(partition_by_dpu(&matrix.entries, workers));
    });
    // A rank of the machine that no guest holds (guests link from rank 0).
    let machine = bench.driver.machine();
    let rank = machine.rank(machine.rank_count() - 1)?;
    let verify = rank.verify_interleave();
    // MRAM banks are sparse: make the replayed range resident first, as the
    // warm-up iteration does in place.
    for (d, p) in payloads.iter().enumerate() {
        rank.write_dpu(d, REPLAY_OFFSET, p)?;
    }
    let mut key = 0u64;
    stage.row("host.backend.write_entry_ns", |rep| {
        key += 1;
        datapath::write_entry(
            &mem,
            &rank,
            entry(rep),
            verify,
            DataPath::Vectorized,
            &pool,
            &mut SegCache::new(),
            None,
            key,
        )
        .expect("entry within the bank");
    });
    stage.row("host.backend.read_entry_ns", |rep| {
        key += 1;
        datapath::read_entry(
            &mem,
            &rank,
            entry(rep),
            verify,
            DataPath::Vectorized,
            &pool,
            &mut SegCache::new(),
            None,
            key,
        )
        .expect("entry within the bank");
    });
    meta_lease.release();
    data_lease.release();
    // The transform is the identity on the data (interleave, then back).
    stage.row("host.sim.interleave_ns", |rep| {
        datapath::transform_fused(&mut payloads[rep % dpus], DataPath::Vectorized);
    });
    stage.row("host.sim.rank_write_ns", |rep| {
        rank.write_dpu(rep % dpus, REPLAY_OFFSET, &payloads[rep % dpus])
            .expect("range within the bank");
    });
    let mut back = vec![0u8; len];
    let mut intact = true;
    stage.row("host.sim.rank_read_ns", |rep| {
        rank.read_dpu(rep % dpus, REPLAY_OFFSET, &mut back)
            .expect("range within the bank");
        intact &= back == payloads[rep % dpus];
    });
    if !intact {
        return Err("rank read-back differs from what was written".into());
    }

    // One DPU boot of the workload's kernel: a native launch over the whole
    // set, divided by the DPUs it boots (the simulator runs them in turn).
    if let (Some(set), Some(tasklets)) = (native, shape.kernel_tasklets) {
        let mut err = None;
        stage.row("bench.native_launch", |_| {
            err = err.take().or(set.launch(tasklets).err());
        });
        if let Some(e) = err {
            return Err(e.into());
        }
    }

    // ---- control plane ----------------------------------------------------
    {
        // A table of its own over an 8-rank machine with nothing in MRAM:
        // alloc -> recycle without device round trips.
        let small = PimMachine::new(PimConfig {
            ranks: 8,
            functional_dpus: vec![2; 8],
            mram_size: 1 << 14,
            ..PimConfig::small()
        });
        let table = TableState::new(Arc::new(UpmemDriver::new(small)), CostModel::default());
        stage.row("host.manager.alloc_release_ns", |_| {
            let got = table
                .alloc("bench", Duration::from_micros(50), 1)
                .expect("a free rank");
            assert!(table.recycle(got.rank));
        });
        let queue = ShardedAdmissionQueue::new(SchedPolicy::Fifo);
        stage.row("host.sched.queue_op_ns", |_| {
            let ticket = queue.push("bench", 0);
            std::hint::black_box(queue.head());
            assert!(queue.remove_of("bench", ticket));
        });
    }
    let serialized = meta_pages * 4096;
    stage.row("host.pool.take_ns", |_| {
        std::hint::black_box(pool.take(serialized).len());
    });

    // `VpimSystem::launch` + drop + rank recycle, with the workload's guest
    // size and device count (the live guest keeps its own ranks meanwhile).
    let mut err = None;
    stage.row("host.system.launch_ns", |_| {
        match launch(&bench.sys, shape) {
            Ok(vm) => {
                drop(vm);
                bench.sys.sync_ranks();
            }
            Err(e) => err = Some(e),
        }
    });
    err.map_or(Ok(()), |e| Err(e.into()))
}
