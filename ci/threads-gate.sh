#!/usr/bin/env sh
# Threads gate: runs the named integration-test suites in release mode,
# once with the test harness serialized, once with high harness
# parallelism, and once more with high harness parallelism pinned to one
# CPU, so intra-test thread races and cross-test interference both get a
# chance to surface, and nothing a suite asserts (payloads, virtual-time
# reports, telemetry totals) can depend on harness scheduling or on the
# host. The pinned leg is the one-CPU host path: the backend's data pool
# is sized by the CPUs the process may run on, so there it is one worker
# wide and every transfer matrix runs on the handler's thread — the
# configuration every pinned benchmark workload measures. Without
# `taskset` that leg prints one skip line. A last leg runs the suites once
# more in a debug build, the only build in which `simkit::lockorder`
# checks every lock acquisition against the hierarchy (release builds
# compile the checker out).
#
# Every tier-1 gate with a varied-parallelism leg runs it through this
# script; `make tier1` calls it directly for the stress leg
# (multi-VM/multi-rank integrity, inline vs lane dispatch bit-identity,
# transport backpressure, pinned guest buffers outliving their handles on
# a lane, no tenant reading another's bytes in recycled guest RAM or in
# shared, reset or parked MRAM pages), the
# sched leg (8 VMs time-shared over 4 ranks
# read back exactly the bytes a dedicated run produces, under constant
# checkpoint/restore churn, with one- and two-device tenants; plus the
# multi-VM, migration and load-harness suites, whose allocations call the
# rank table from the requesting thread), the chaos leg (every injected fault
# surfaces typed or is recovered transparently, payloads stay
# bit-identical, `inject.*` / `retry.*` totals are exact inline and on a
# lane) and the shard leg (rank-table properties, exact end-state
# accounting of 8-64-thread control-plane churn).
#
# Usage: ci/threads-gate.sh <label> <test>...
set -eu

cd "$(dirname "$0")/.."

label=$1
shift
tests=""
for t in "$@"; do
    tests="$tests --test $t"
done

for threads in 1 8; do
    echo "== $label gate: RUST_TEST_THREADS=$threads =="
    # shellcheck disable=SC2086 # $tests is a flag list, split on purpose
    RUST_TEST_THREADS=$threads cargo test --release --offline -q $tests
done

if command -v taskset >/dev/null 2>&1; then
    echo "== $label gate: RUST_TEST_THREADS=8 on one CPU =="
    # shellcheck disable=SC2086 # $tests is a flag list, split on purpose
    RUST_TEST_THREADS=8 taskset -c 0 cargo test --release --offline -q $tests
else
    echo "== $label gate: one-CPU leg skipped (no taskset) =="
fi

echo "== $label gate: RUST_TEST_THREADS=8, debug build (lock-order checker on) =="
# shellcheck disable=SC2086 # $tests is a flag list, split on purpose
RUST_TEST_THREADS=8 cargo test --offline -q $tests

echo "== $label gate: threads OK =="
