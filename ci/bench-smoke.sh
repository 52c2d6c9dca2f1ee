#!/usr/bin/env sh
# Benchmark smoke gate: the frozen benchmark surface and the model output,
# checked locally. `benchmark/` builds against this tree from source, so a
# PR that breaks a signature `benchmark/src/replay.rs` names fails here at
# the build; a PR that moves a simulated (virtual-time) row changes a
# workload's `virt_fingerprint` and fails at the comparison with
# `benchmark/baseline.json`. Nothing under `benchmark/` is edited; the run
# writes only the git-ignored `benchmark/out/`.
#
# Usage: ci/bench-smoke.sh
set -eu

cd "$(dirname "$0")/.."

echo "== bench smoke: build + one short run of every workload =="
# A smoke run times one iteration per workload, and CPU time is read in
# 10 ms ticks: `bulk_write`'s ~8 ms iteration can read no CPU at all, and
# the harness then omits `host.cpu_sys_share` ("metrics not produced") and
# exits 2. That failure alone is retried, at most twice.
log=$(mktemp)
trap 'rm -f "$log"' EXIT
attempt=1
until sh benchmark/run.sh --smoke >/dev/null 2>"$log"; do
    cat "$log" >&2
    if [ "$attempt" -ge 3 ] || ! grep -q "metrics not produced: host.cpu_sys_share$" "$log"; then
        exit 1
    fi
    attempt=$((attempt + 1))
    echo "bench smoke: no CPU tick read, attempt $attempt" >&2
done
cat "$log" >&2

# One "<workload> <failed> <virt_fingerprint>" line per workload of a
# result file (each field sits on a line of its own under the workload).
rows() {
    awk '
        /^  "[a-z_]+": \{$/ { gsub(/[":{ ]/, "", $0); name = $0 }
        /^   "failed": /    { gsub(/[^0-9]/, "", $2); failed = $2 }
        /^   "virt_fingerprint": / { gsub(/[",]/, "", $2); print name, failed, $2 }
    ' "$1"
}

got=$(rows benchmark/out/result.json)
want=$(rows benchmark/baseline.json)
# field <rows> <workload> <column>
field() {
    echo "$1" | awk -v w="$2" -v col="$3" '$1 == w { print $col }'
}

status=0
for w in checksum_app bulk_write bulk_read nw_small_ops multirank_push session_churn; do
    if [ "$(field "$got" "$w" 2)" != 0 ]; then
        echo "bench smoke: $w: missing from result.json or has failed operations" >&2
        status=1
    fi
    # session_churn's smoke run is one round, its baseline a full-length
    # run (b74c422be447e91e): the fingerprints cover different session
    # counts, so its one-round fingerprint is pinned here instead. It is
    # the only workload whose data path runs the interleave pair.
    expected=$(field "$want" "$w" 3)
    [ "$w" = session_churn ] && expected=1a15f6c3d6811df8
    if [ "$(field "$got" "$w" 3)" != "$expected" ]; then
        echo "bench smoke: $w: virt_fingerprint $(field "$got" "$w" 3)," \
            "expected $expected" >&2
        status=1
    fi
done
[ "$status" = 0 ] || exit 1

echo "== bench smoke: OK =="
