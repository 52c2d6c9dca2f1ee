#!/usr/bin/env sh
# Tier-1 gate, fully offline: the workspace must build and test without
# touching the network. Dependencies resolve from the checked-in `vendor/`
# shims via `.cargo/config.toml` ([net] offline = true); this script adds
# `--offline` explicitly so it also holds in environments with a different
# cargo config.
#
# Usage: ci/offline-gate.sh
set -eu

cd "$(dirname "$0")/.."

echo "== tier-1 offline gate: build (release) =="
cargo build --release --offline --workspace

# --workspace: the root manifest is a package and a workspace, so a bare
# `cargo test` runs the root package's suites only.
echo "== tier-1 offline gate: test =="
cargo test --release --offline -q --workspace

# Rustdoc over the workspace's own crates with warnings denied, so a
# deleted or private item cannot leave a dangling intra-doc link behind.
# The vendored shims are workspace members too (path dependencies inside
# the workspace) and are left out: they are stand-ins, not this project's
# documentation.
echo "== tier-1 offline gate: rustdoc =="
excludes=""
for d in vendor/*/; do
    excludes="$excludes --exclude $(basename "$d")"
done
# shellcheck disable=SC2086 # one word per --exclude flag and crate name
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace $excludes

echo "== tier-1 offline gate: OK =="
