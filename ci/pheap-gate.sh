#!/usr/bin/env sh
# Persistent-heap gate (DESIGN.md §17): proves vpim::pheap's crash
# consistency — crash anywhere, restore, recover, and the heap is exactly
# the committed prefix — in release mode:
#
#   1. The pheap suites (`pheap_properties`: differential proptest vs a
#      BTreeMap oracle, allocator invariants, recovery idempotence;
#      `pheap_crash`: op streams x fault schedules x dispatch modes vs a
#      committed-prefix oracle; `rank_checkpoint`: the uncommitted-WAL-tail
#      snapshot/restore regression) under RUST_TEST_THREADS=1 and =8 —
#      harness scheduling must not reach recovered state;
#   2. an 8-seed CHAOS_SEED sweep over the chaos suite's pheap tests
#      (exact injection totals, bit-identical recovery across modes, the
#      crash matrix);
#   3. the durability bench (`figures pheap`): lossless repair-free
#      recovery, bit-identical state *and* virtual-time costs across
#      dispatch modes (the asserts live in the experiment itself);
#   4. on success the bench is published as BENCH_pheap.json at the repo
#      root (the regression trajectory).
#
# Usage: ci/pheap-gate.sh
set -eu

cd "$(dirname "$0")/.."

sh ci/threads-gate.sh pheap pheap_properties pheap_crash rank_checkpoint

echo "== pheap gate: 8-seed chaos sweep =="
SEEDS="3 17 111 1009 4242 31337 77777 900001" \
    sh ci/seed-sweep.sh CHAOS_SEED chaos_suite -- pheap

echo "== pheap gate: durability bench =="
cargo build --release --offline -p vpim-bench
sh ci/publish.sh PHEAP_BENCH_OUT BENCH_pheap.json -- ./target/release/figures pheap

echo "== pheap gate: OK =="
