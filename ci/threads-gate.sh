#!/usr/bin/env sh
# Threads gate: runs the named integration-test suites in release mode,
# once with the test harness serialized and once with high harness
# parallelism, so intra-test thread races and cross-test interference both
# get a chance to surface, and nothing a suite asserts (payloads,
# virtual-time reports, telemetry totals) can depend on harness
# scheduling. Every tier-1 gate with a varied-parallelism leg runs it
# through this script; `make tier1` calls it directly for the stress leg
# (multi-VM/multi-rank integrity, Sequential vs Parallel bit-identity,
# transport backpressure), the sched leg (8 VMs time-shared over 4
# ranks read back exactly the bytes a dedicated 8-rank run produces, under
# constant checkpoint/restore churn, in both dispatch modes; plus the
# multi-VM and migration suites, whose allocations call the rank table
# from the requesting thread), the chaos leg (every injected fault
# surfaces typed or is recovered transparently, payloads stay
# bit-identical, `inject.*` / `retry.*` totals are exact in both dispatch
# modes) and the shard leg (rank-table properties, exact end-state
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

echo "== $label gate: threads OK =="
