#!/usr/bin/env sh
# Publish step shared by every gate that refreshes a BENCH_*.json at the
# repo root: runs <command> with <ENV_VAR> naming a fresh temp file, then
# copies what the command wrote there to <BENCH_file>. The command decides
# what goes in the file (a bench, `figures <exp>`, an ignored smoke test);
# a failing command leaves the published file untouched.
#
# Usage: ci/publish.sh <ENV_VAR> <BENCH_file> -- <command>...
set -eu

cd "$(dirname "$0")/.."

var=$1
bench=$2
shift 3 # <ENV_VAR> <BENCH_file> --

out="${TMPDIR:-/tmp}/vpim-$bench"
rm -f "$out"
env "$var=$out" "$@"
cp "$out" "$bench"
echo "== $bench refreshed =="
