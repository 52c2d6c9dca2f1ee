#!/usr/bin/env sh
# Load gate: the service-level benchmark every scalability PR regresses
# against. Proves, in release mode:
#   - the 1k-session smoke: >= 1000 tenant sessions concurrent in
#     virtual time on a pooled phase A, run under RUST_TEST_THREADS=1 and
#     =8 — the two canonical JSON reports must compare byte for byte;
#   - the report must equal the committed BENCH_load.json at the repo
#     root byte for byte (ci/compare-bench.sh).
# The rest of the load-harness suite (seed sweep across a one-worker and
# a wider phase-A pool, exact closed-loop totals, the armed-fault chaos
# variant) runs in the tier-1 workspace test and in the sched leg's
# harness-thread legs.
#
# Usage: ci/load-gate.sh
set -eu

cd "$(dirname "$0")/.."

T8="${TMPDIR:-/tmp}/vpim-load-t8.json"
rm -f "$T8"

echo "== load gate: 1k-session smoke (RUST_TEST_THREADS=8) =="
LOAD_REPORT_OUT="$T8" RUST_TEST_THREADS=8 \
    cargo test --release --offline -q --test load_harness -- \
    --include-ignored thousand_concurrent_sessions_smoke

echo "== load gate: 1k-session smoke (RUST_TEST_THREADS=1, compared) =="
RUST_TEST_THREADS=1 sh ci/compare-bench.sh LOAD_REPORT_OUT BENCH_load.json -- \
    cargo test --release --offline -q --test load_harness -- \
    --include-ignored thousand_concurrent_sessions_smoke

echo "== load gate: cross-thread-count bit-identity =="
cmp BENCH_load.json "$T8"

echo "== load gate: OK =="
