#!/usr/bin/env sh
# Cluster gate: proves the fleet plane and live rank migration (ISSUE 8)
# are deterministic and publishes the consolidation benchmark.
#
#   1. The migration suite (`cluster_migration`: bit-identity across
#      dispatch modes, the stop-and-copy cost formula, fault rollback,
#      the 8-seed chaos sweep and the placement proptest), run under
#      serialized and highly parallel test harnesses — virtual-time
#      results must not depend on harness scheduling;
#   2. the `cluster` criterion bench climbing the consolidation ladder
#      for fleets of 1, 2 and 4 hosts at a fixed p99 sojourn bound; the
#      bench itself asserts the curve is monotone (more hosts never
#      sustain fewer sessions) and its JSON summary is published as
#      BENCH_cluster.json at the repo root.
#
# Usage: ci/cluster-gate.sh
set -eu

cd "$(dirname "$0")/.."

sh ci/threads-gate.sh cluster cluster_migration

echo "== cluster gate: consolidation bench (1 vs 2 vs 4 hosts) =="
sh ci/publish.sh CLUSTER_BENCH_OUT BENCH_cluster.json -- \
    cargo bench --offline -p vpim-bench --bench cluster

echo "== cluster gate: OK =="
