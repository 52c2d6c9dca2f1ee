#!/usr/bin/env sh
# Seed sweep: runs the named integration-test suites in release mode once
# per seed, with the seed exported as <ENV_VAR>. The suites read it to vary
# their injected-fault schedules (CHAOS_SEED) or per-thread op mixes
# (SHARD_SEED), so each value exercises different interleavings while
# every exact-total assertion has to keep holding. Arguments from `--` on
# go to the test binary unchanged (a test-name filter). SEEDS overrides the
# default eight seeds; anything else in the environment (RUST_TEST_THREADS)
# reaches the tests as is.
#
# Usage: ci/seed-sweep.sh <ENV_VAR> <test>... [-- <filter>...]
set -eu

cd "$(dirname "$0")/.."

var=$1
shift
flags=""
raw=0
for arg in "$@"; do
    if [ "$raw" = 1 ] || [ "$arg" = -- ]; then
        raw=1
        flags="$flags $arg"
    else
        flags="$flags --test $arg"
    fi
done

for seed in ${SEEDS:-1 2 3 5 8 13 21 34}; do
    echo "== seed sweep: $var=$seed =="
    # shellcheck disable=SC2086 # $flags is a flag list, split on purpose
    env "$var=$seed" cargo test --release --offline -q $flags
done

echo "== seed sweep: $var OK =="
