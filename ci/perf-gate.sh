#!/usr/bin/env sh
# Zero-copy data-path gate: proves the pooled transfer path in release
# mode — payload integrity against the seed path's byte layout, PoolGuard
# drop balance (no leaked scratch buffers), deterministic zero-copy byte
# accounting, and an allocation-free steady state (pool hit rate >= 99%).
# Runs the guest-memory and virtqueue suite the one-borrow record paths
# rest on (lowest-first page allocator, all-or-nothing frees, bounds-checked
# views, FIFO descriptor recycling).
# Checks that kernels reading and writing MRAM in place (no WRAM staging
# copy) see the bytes, charge the cycles and raise the faults of the copy
# path.
# Also compile-checks the criterion benches so the `datapath_zero_copy`
# comparison group (seed vs pooled, scalar vs vectorized) cannot rot.
#
# Usage: ci/perf-gate.sh
set -eu

cd "$(dirname "$0")/.."

echo "== perf gate: pooled data-path integrity + leak checks =="
cargo test --release --offline -q --test datapath_pool

echo "== perf gate: fused-interleave equivalence proptests =="
cargo test --release --offline -q -p upmem-sim interleave
cargo test --release --offline -q -p vpim datapath

echo "== perf gate: in-place DPU DMA equivalence proptest =="
cargo test --release --offline -q -p upmem-sim dma_equivalence

echo "== perf gate: guest page allocator + virtqueue invariants =="
cargo test --release --offline -q -p pim-virtio

echo "== perf gate: bench harness compiles =="
cargo bench --offline -p vpim-bench --no-run

echo "== perf gate: OK =="
