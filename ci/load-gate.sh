#!/usr/bin/env sh
# Load gate: the service-level benchmark every scalability PR regresses
# against. Proves, in release mode:
#   - the load-harness determinism suite (seed sweep across phase-A
#     execution modes and host dispatch modes, exact closed-loop totals,
#     the armed-fault chaos variant);
#   - the 1k-session smoke: >= 1000 tenant sessions concurrent in
#     virtual time, bit-identical LoadReport across dispatch modes, run
#     under RUST_TEST_THREADS=1 and =8 — the two canonical JSON reports
#     must compare byte for byte;
#   - on success the report is published as BENCH_load.json at the repo
#     root (the regression trajectory).
#
# Usage: ci/load-gate.sh
set -eu

cd "$(dirname "$0")/.."

echo "== load gate: harness determinism suite =="
cargo test --release --offline -q --test load_harness

T8="${TMPDIR:-/tmp}/vpim-load-t8.json"
rm -f "$T8"

echo "== load gate: 1k-session smoke (RUST_TEST_THREADS=8) =="
LOAD_REPORT_OUT="$T8" RUST_TEST_THREADS=8 \
    cargo test --release --offline -q --test load_harness -- \
    --include-ignored thousand_concurrent_sessions_smoke

echo "== load gate: 1k-session smoke (RUST_TEST_THREADS=1, published) =="
RUST_TEST_THREADS=1 sh ci/publish.sh LOAD_REPORT_OUT BENCH_load.json -- \
    cargo test --release --offline -q --test load_harness -- \
    --include-ignored thousand_concurrent_sessions_smoke

echo "== load gate: cross-thread-count bit-identity =="
cmp BENCH_load.json "$T8"

echo "== load gate: OK =="
