//! Criterion: the real wall-clock gap between the two interleave
//! implementations — the measured counterpart of the paper's "C
//! enhancement" (§4.2, up to 343% improvement; Fig. 11–13 model the
//! system-level effect, this bench measures the function itself).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pim_virtio::{GuestMemory, SegCache};
use simkit::cost::DataPath;
use simkit::BytePool;
use upmem_sim::{interleave, PimConfig, Rank};
use vpim::backend::datapath::{self, transform_fused};
use vpim::frontend::PrefetchCache;
use vpim::matrix::TransferMatrix;

fn bench_interleave(c: &mut Criterion) {
    let mut group = c.benchmark_group("interleave");
    for size in [4 << 10, 64 << 10, 1 << 20] {
        let src: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let mut dst = vec![0u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("scalar", size), &src, |b, src| {
            b.iter(|| interleave::interleave_scalar(src, &mut dst));
        });
        group.bench_with_input(BenchmarkId::new("fast", size), &src, |b, src| {
            b.iter(|| interleave::interleave_fast(src, &mut dst));
        });
    }
    group.finish();
}

fn bench_deinterleave(c: &mut Criterion) {
    let mut group = c.benchmark_group("deinterleave");
    let size = 256 << 10;
    let src: Vec<u8> = (0..size).map(|i| (i % 241) as u8).collect();
    let mut dst = vec![0u8; size];
    group.throughput(Throughput::Bytes(size as u64));
    group.bench_function("scalar", |b| {
        b.iter(|| interleave::deinterleave_scalar(&src, &mut dst));
    });
    group.bench_function("fast", |b| {
        b.iter(|| interleave::deinterleave_fast(&src, &mut dst));
    });
    group.finish();
}

fn bench_roundtrip_paths(c: &mut Criterion) {
    // The backend's actual data-path entry point, per DataPath.
    let mut group = c.benchmark_group("transform_roundtrip");
    let size = 256 << 10;
    group.throughput(Throughput::Bytes(size as u64));
    for path in DataPath::ALL {
        let mut data: Vec<u8> = (0..size).map(|i| (i % 255) as u8).collect();
        group.bench_function(format!("{path:?}"), move |b| {
            b.iter(|| transform_fused(&mut data, path));
        });
    }
    group.finish();
}

/// The pre-pool write path, reproduced locally for comparison: gather into
/// a fresh `Vec`, roundtrip through two full-size heap temporaries, then
/// hand a borrowed slice to the rank (which stages one more copy when
/// verification is on). Three allocations and two extra full-buffer copies
/// per entry — exactly what the zero-copy path removes.
fn seed_write_entry(
    mem: &GuestMemory,
    rank: &Rank,
    entry: &vpim::matrix::DpuXfer,
    path: DataPath,
) -> u64 {
    let data = TransferMatrix::gather(mem, entry).expect("gather");
    let mut inter = vec![0u8; data.len()];
    let mut out = vec![0u8; data.len()];
    match path {
        DataPath::Scalar => {
            interleave::interleave_scalar(&data, &mut inter);
            interleave::deinterleave_scalar(&inter, &mut out);
        }
        DataPath::Vectorized => {
            interleave::interleave_fast(&data, &mut inter);
            interleave::deinterleave_fast(&inter, &mut out);
        }
    }
    rank.write_dpu(entry.dpu as usize, entry.mram_offset, &out)
        .expect("write_dpu");
    entry.len
}

fn bench_zero_copy(c: &mut Criterion) {
    // The full per-DPU write unit (gather → swizzle → MRAM), seed path vs
    // the pooled zero-copy path, on both interleave implementations.
    let mut group = c.benchmark_group("datapath_zero_copy");
    group.sample_size(20);
    let config = PimConfig {
        ranks: 1,
        functional_dpus: vec![1],
        mram_size: 8 << 20,
        ..PimConfig::small()
    };
    let rank = Rank::new(0, &config);
    let mem = GuestMemory::new(64 << 20);
    let pool = BytePool::new();
    for size in [4usize << 10, 64 << 10, 1 << 20, 4 << 20] {
        let payload: Vec<u8> = (0..size).map(|i| (i % 239) as u8).collect();
        let (matrix, lease) =
            TransferMatrix::from_user_buffers(&mem, &[(0, 0, &payload)]).expect("matrix");
        let entry = matrix.entries[0].clone();
        group.throughput(Throughput::Bytes(size as u64));
        for path in DataPath::ALL {
            group.bench_with_input(
                BenchmarkId::new(format!("seed_{path:?}"), size),
                &entry,
                |b, entry| b.iter(|| seed_write_entry(&mem, &rank, entry, path)),
            );
            // Warm the pool so the timed region measures the steady state.
            let mut cache = SegCache::new();
            datapath::write_entry(&mem, &rank, &entry, true, path, &pool, &mut cache, None, 0)
                .expect("warmup");
            group.bench_with_input(
                BenchmarkId::new(format!("zero_copy_{path:?}"), size),
                &entry,
                |b, entry| {
                    b.iter(|| {
                        let mut cache = SegCache::new();
                        datapath::write_entry(
                            &mem, &rank, entry, true, path, &pool, &mut cache, None, 0,
                        )
                        .expect("write_entry")
                    })
                },
            );
        }
        // Payload integrity: what the zero-copy path wrote must be exactly
        // the guest payload (the swizzle pair is the identity on MRAM).
        let mut readback = vec![0u8; size];
        rank.read_dpu(0, 0, &mut readback).expect("read_dpu");
        assert_eq!(readback, payload, "payload corrupted at size {size}");
        lease.release();
    }
    // Pool hygiene: every guard returned its buffer (drop balance) and the
    // steady state ran allocation-free (hit rate ≥ 99% after warmup).
    assert_eq!(pool.outstanding(), 0, "leaked pool guards");
    let takes = pool.hits() + pool.misses();
    assert!(
        pool.hits() * 100 >= takes * 99,
        "pool hit rate below 99%: {} hits / {} takes",
        pool.hits(),
        takes
    );
    group.finish();
}

fn bench_prefetch_hit(c: &mut Criterion) {
    // The frontend's hot read path: a resident segment served per hit.
    // `alloc_per_hit` is the escaping-output path (one Vec per read);
    // `pooled_guard` stages through a reused buffer into a BytePool guard
    // — allocation-free in steady state.
    let mut group = c.benchmark_group("prefetch_hit");
    let mut cache = PrefetchCache::new(1, 16);
    cache.install(0, 0, (0..16 * 4096).map(|i| (i % 253) as u8).collect());
    let len = 256u64;
    let span = 8 * 4096u64;
    group.throughput(Throughput::Bytes(len));
    group.bench_function("alloc_per_hit", |b| {
        let mut off = 0u64;
        b.iter(|| {
            let out = cache.lookup(0, off, len).expect("resident segment");
            off = (off + len) % span;
            out
        })
    });
    let pool = BytePool::new();
    group.bench_function("pooled_guard", |b| {
        let mut off = 0u64;
        let mut staging = Vec::with_capacity(len as usize);
        b.iter(|| {
            staging.clear();
            assert!(cache.lookup_into(0, off, len, &mut staging), "resident segment");
            let mut guard = pool.take(len as usize);
            guard.as_mut_slice().copy_from_slice(&staging);
            off = (off + len) % span;
            guard.as_slice()[0]
        })
    });
    group.finish();
    // Every lookup above must have been a hit, every guard must have come
    // back (drop balance), and the pool must run allocation-free after the
    // first take.
    let (hits, misses) = cache.stats();
    assert!(hits > 0 && misses == 0, "hit path missed: {hits} hits / {misses} misses");
    assert_eq!(pool.outstanding(), 0, "leaked pool guards");
    let takes = pool.hits() + pool.misses();
    assert!(
        pool.hits() * 100 >= takes * 99,
        "pool hit rate below 99%: {} hits / {takes} takes",
        pool.hits()
    );
}

criterion_group!(
    benches,
    bench_interleave,
    bench_deinterleave,
    bench_roundtrip_paths,
    bench_zero_copy,
    bench_prefetch_hit
);
criterion_main!(benches);
