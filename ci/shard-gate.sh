#!/usr/bin/env sh
# Shard gate: proves the sharded rank table (ISSUE 7) behaves exactly like
# its single-lock oracle, that control-plane churn settles to exact end
# states, and publishes the table contention benchmark.
#
#   1. The oracle-backed differential suite (`control_plane_equivalence`)
#      and the exact-accounting churn suite (`shard_stress`), run under
#      serialized and highly parallel test harnesses;
#   2. a SHARD_SEED sweep of the stress suite (the seed varies every
#      per-thread op mix, so each value exercises different interleavings);
#   3. the `control_plane` criterion bench comparing the sharded table
#      against the retained single-lock baseline at 8-64 threads; its JSON
#      summary (the `table` section) is published as
#      BENCH_control_plane.json at the repo root.
#
# The bench records wall-clock ratios on whatever machine runs the gate
# (single-CPU CI shows the lock-traffic win, not a parallelism win), so
# step 3 publishes the numbers instead of hard-failing on a threshold:
# the benchmark itself only rejects pathological slowdowns.
#
# Usage: ci/shard-gate.sh
set -eu

cd "$(dirname "$0")/.."

sh ci/threads-gate.sh shard control_plane_equivalence shard_stress

echo "== shard gate: SHARD_SEED sweep =="
RUST_TEST_THREADS=8 sh ci/seed-sweep.sh SHARD_SEED shard_stress

echo "== shard gate: control-plane contention bench =="
sh ci/publish.sh CONTROL_PLANE_BENCH_OUT BENCH_control_plane.json -- \
    cargo bench --offline -p vpim-bench --bench control_plane

echo "== shard gate: OK =="
