#!/usr/bin/env sh
# Chaos gate: runs the fault-injection suites in release mode, once with
# the test harness serialized and once with high harness parallelism, then
# sweeps the chaos suite across a seed matrix. The load-bearing assertions
# are (a) every injected fault surfaces as a typed error or is recovered
# transparently, (b) the system stays usable with bit-identical payloads
# afterwards, and (c) `inject.*` / `retry.*` telemetry totals are exact in
# both dispatch modes.
#
# Usage: ci/chaos-gate.sh
set -eu

cd "$(dirname "$0")/.."

sh ci/threads-gate.sh chaos chaos_suite retry_properties failure_injection

echo "== chaos gate: seed matrix =="
for seed in 1 2 3 5 8 13 21 34; do
    echo "== chaos gate: CHAOS_SEED=$seed =="
    CHAOS_SEED=$seed cargo test --release --offline -q --test chaos_suite
done

echo "== chaos gate: OK =="
