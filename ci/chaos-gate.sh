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
sh ci/seed-sweep.sh CHAOS_SEED chaos_suite

echo "== chaos gate: OK =="
