#!/usr/bin/env sh
# Adaptive-frontend gate (DESIGN.md §16): proves the feedback controller
# closes the telemetry loop without breaking determinism, in release mode:
#
#   1. the canonical run's JSON report under RUST_TEST_THREADS=1 and =8 —
#      the two files must compare byte for byte (harness scheduling must
#      not reach virtual time);
#   2. the static-vs-adaptive ablation (`figures adaptive`): RED's
#      Inter-DPU gather must improve >= 2x, checksum / index-search /
#      GEMV must stay within 5% (the asserts live in the experiment
#      itself);
#   3. the ablation must equal the committed BENCH_adaptive.json at the
#      repo root byte for byte (ci/compare-bench.sh).
# The rest of the adapt determinism suite (`adapt_determinism`:
# bit-identical payloads, per-request reports and frontend.adapt.*
# telemetry across one- and two-device VMs, plus the policy-machine
# proptests) runs in the tier-1 workspace test.
#
# Usage: ci/adaptive-gate.sh
set -eu

cd "$(dirname "$0")/.."

OUT_DIR="${TMPDIR:-/tmp}"
T1="$OUT_DIR/vpim-adapt-t1.json"
T8="$OUT_DIR/vpim-adapt-t8.json"
rm -f "$T1" "$T8"

echo "== adaptive gate: canonical report (RUST_TEST_THREADS=1) =="
ADAPT_REPORT_OUT="$T1" RUST_TEST_THREADS=1 \
    cargo test --release --offline -q --test adapt_determinism -- \
    canonical_adapt_report

echo "== adaptive gate: canonical report (RUST_TEST_THREADS=8) =="
ADAPT_REPORT_OUT="$T8" RUST_TEST_THREADS=8 \
    cargo test --release --offline -q --test adapt_determinism -- \
    canonical_adapt_report

echo "== adaptive gate: cross-thread-count bit-identity =="
cmp "$T1" "$T8"

echo "== adaptive gate: static-vs-adaptive ablation =="
cargo build --release --offline -p vpim-bench
sh ci/compare-bench.sh ADAPTIVE_BENCH_OUT BENCH_adaptive.json -- "${CARGO_TARGET_DIR:-target}/release/figures" adaptive

echo "== adaptive gate: OK =="
