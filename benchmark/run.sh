#!/bin/sh
# The repo benchmark, one command (see benchmark/README.md).
#
#   sh benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--runs N] [--smoke]
#       every workload (or one), each run in a process of its own: an untraced
#       run for the end-to-end metrics, a traced run for the layers; prints
#       every metric by name and writes benchmark/out/result.json.
#   sh benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload, as BENCHMARK.json's driver calls it; the
#       last line of standard output is the driver's JSON object.
#   sh benchmark/run.sh compare A.json B.json [--runs]
#
# Builds release, offline, from source first. Exits non-zero when the build
# fails or any output fails verification.
set -eu

cd "$(dirname "$0")/.."
# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# started in: this one, for the build and for the path of the binary alike.
target=${CARGO_TARGET_DIR:-target}
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin=$target/release/vpim-benchmark

VPIM_BENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
VPIM_BENCH_RUSTC=$(rustc --version 2>/dev/null || echo unknown)
export VPIM_BENCH_COMMIT VPIM_BENCH_RUSTC
# glibc moves its mmap threshold to the size of the first large block freed.
# After that a 16 MiB guest memory is carved from the heap and zeroed by hand
# or not, depending on what the heap top holds, and a freed 30 MiB result is
# trimmed and faulted in again or not: session_churn then peaks at 10 or at
# 290 MiB and takes 0.4 to 1.0 s a round. Fixed thresholds turn the heuristic
# off: blocks of 4 MiB and more (guest memories) are mapped and zeroed lazily,
# smaller ones are recycled by the heap.
export MALLOC_MMAP_THRESHOLD_=4194304 MALLOC_TRIM_THRESHOLD_=134217728

mode=suite
for arg in "$@"; do
    case $arg in
    --trace) mode=run ;;
    compare) mode=compare ;;
    esac
done
case $mode in
compare) exec "$bin" "$@" ;;
*) exec "$bin" "$mode" --out-dir benchmark/out "$@" ;;
esac
