#!/usr/bin/env sh
# Comparison step shared by every gate with a committed BENCH_*.json at the
# repo root: runs <command> with <ENV_VAR> naming a fresh temp file, then
# compares what the command wrote there with <BENCH_file> byte for byte.
# The command decides what goes in the file (a bench, `figures <exp>`, an
# ignored smoke test). On a difference the step prints the fields that
# moved and the command that regenerates the file, and fails; it never
# writes the committed file. A change that means to move a number
# regenerates the file with that command and says so in CHANGES.md.
#
# Usage: ci/compare-bench.sh <ENV_VAR> <BENCH_file> -- <command>...
set -eu

cd "$(dirname "$0")/.."

var=$1
bench=$2
shift 3 # <ENV_VAR> <BENCH_file> --

out="${TMPDIR:-/tmp}/vpim-$bench"
rm -f "$out"
env "$var=$out" "$@"
if ! cmp -s "$out" "$bench"; then
    # The files are one-line JSON: one field per line names what moved.
    tr ',' '\n' <"$bench" >"$out.committed"
    tr ',' '\n' <"$out" >"$out.fields"
    diff "$out.committed" "$out.fields" | head -20
    rm -f "$out.committed" "$out.fields"
    echo "$bench differs from what this tree produces; to regenerate it, run:" >&2
    echo "  $var=$bench $*" >&2
    exit 1
fi
echo "== $bench matches =="
