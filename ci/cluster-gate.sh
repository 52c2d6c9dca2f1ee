#!/usr/bin/env sh
# Cluster gate: checks the fleet plane's consolidation benchmark.
#
# The `cluster` criterion bench climbs the consolidation ladder for
# fleets of 1, 2 and 4 hosts at a fixed p99 sojourn bound; the bench
# itself asserts the curve is monotone (more hosts never sustain fewer
# sessions) and its JSON summary must equal the committed
# BENCH_cluster.json at the repo root byte for byte (ci/compare-bench.sh).
#
# The migration suite (`cluster_migration`: bit-identity across one- and
# two-device VMs, the stop-and-copy cost formula, fault rollback, the
# 8-seed chaos sweep and the placement proptest) runs in `make tier1`'s
# sched leg, under serialized, parallel, one-CPU and debug harnesses.
#
# Usage: ci/cluster-gate.sh
set -eu

cd "$(dirname "$0")/.."

echo "== cluster gate: consolidation bench (1 vs 2 vs 4 hosts) =="
sh ci/compare-bench.sh CLUSTER_BENCH_OUT BENCH_cluster.json -- \
    cargo bench --offline -p vpim-bench --bench cluster

echo "== cluster gate: OK =="
