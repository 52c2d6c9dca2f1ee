//! Criterion: the substrate hot paths a request crosses — virtqueue
//! cycling, transfer-matrix serialization, guest-memory access, wire
//! encode/decode. These are the real costs the `CostModel` abstracts into
//! constants; this bench keeps the constants honest.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pim_virtio::queue::{DeviceQueue, DriverQueue, QueueLayout};
use pim_virtio::{Gpa, GuestMemory};
use simkit::BytePool;
use vpim::matrix::TransferMatrix;
use vpim::spec::{Request, Response};

fn bench_virtqueue_cycle(c: &mut Criterion) {
    let mem = GuestMemory::new(8 << 20);
    let layout = QueueLayout::alloc(&mem, 512).unwrap();
    let mut driver = DriverQueue::new(mem.clone(), layout.clone());
    let mut device = DeviceQueue::new(mem.clone(), layout);
    let pages = mem.alloc_pages(3).unwrap();

    c.bench_function("virtqueue/add_pop_push_poll", |b| {
        b.iter(|| {
            let head = driver
                .add_chain(&[(pages[0], 64, false), (pages[1], 4096, false), (pages[2], 4096, true)])
                .unwrap();
            let chain = device.pop().unwrap().unwrap();
            device.push_used(chain.head, 128).unwrap();
            let (h, _) = driver.poll_used().unwrap().unwrap();
            assert_eq!(h, head);
        });
    });
}

fn bench_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("matrix");
    let pool = BytePool::new();
    for dpus in [1usize, 16, 64] {
        let mem = GuestMemory::new(64 << 20);
        let data = vec![0xA5u8; 16 << 10];
        let bufs: Vec<(u32, u64, &[u8])> =
            (0..dpus).map(|d| (d as u32, 0u64, data.as_slice())).collect();
        group.throughput(Throughput::Bytes((dpus * data.len()) as u64));
        group.bench_with_input(BenchmarkId::new("build+serialize", dpus), &bufs, |b, bufs| {
            b.iter(|| {
                let (matrix, dl) = TransferMatrix::from_user_buffers(&mem, bufs).unwrap();
                let (bufs2, ml) = matrix.serialize_pooled(&mem, &pool).unwrap();
                assert!(!bufs2.is_empty());
                ml.release();
                dl.release();
            });
        });
        // Deserialize + gather (the backend side).
        let (matrix, _dl) = TransferMatrix::from_user_buffers(&mem, &bufs).unwrap();
        let (sbufs, _ml) = matrix.serialize_pooled(&mem, &pool).unwrap();
        let flat: Vec<(Gpa, u32)> = sbufs.iter().map(|(g, l, _)| (*g, *l)).collect();
        group.bench_with_input(BenchmarkId::new("deserialize+gather", dpus), &flat, |b, flat| {
            b.iter(|| {
                let m = TransferMatrix::deserialize(&mem, flat).unwrap();
                for e in &m.entries {
                    let v = TransferMatrix::gather(&mem, e).unwrap();
                    assert_eq!(v.len(), 16 << 10);
                }
            });
        });
    }
    group.finish();
}

fn bench_guest_memory(c: &mut Criterion) {
    let mem = GuestMemory::new(16 << 20);
    let mut group = c.benchmark_group("guest_memory");
    group.throughput(Throughput::Bytes(4096));
    let page = mem.alloc_pages(1).unwrap()[0];
    let buf = vec![7u8; 4096];
    group.bench_function("write_page", |b| {
        b.iter(|| mem.write(page, &buf).unwrap());
    });
    group.bench_function("with_slice_sum", |b| {
        b.iter(|| {
            mem.with_slice(page, 4096, |s| s.iter().map(|x| u64::from(*x)).sum::<u64>())
                .unwrap()
        });
    });
    group.bench_function("alloc_free_16_pages", |b| {
        b.iter(|| {
            let pages = mem.alloc_pages(16).unwrap();
            mem.free_pages_back(&pages).unwrap();
        });
    });
    group.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    let req = Request::LoadProgram {
        name: "bfs_kernel".to_string(),
        dpus: (0..60).collect(),
    };
    c.bench_function("spec/request_roundtrip", |b| {
        b.iter(|| {
            let enc = req.encode();
            Request::decode(&enc).unwrap()
        });
    });
    let resp = Response {
        status: 0,
        kind: 0,
        error: String::new(),
        deser_ns: 1,
        translate_ns: 2,
        transfer_ns: 3,
        ddr_ns: 2,
        launch_cycles: 4,
        payload: vec![0u8; 256],
    };
    c.bench_function("spec/response_roundtrip", |b| {
        b.iter(|| {
            let enc = resp.encode();
            Response::decode(&enc).unwrap()
        });
    });
}

criterion_group!(
    benches,
    bench_virtqueue_cycle,
    bench_matrix,
    bench_guest_memory,
    bench_wire_codec
);
criterion_main!(benches);
