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

# Rustdoc over the whole workspace (the vendored shims included) with
# warnings denied, so a deleted or private item cannot leave a dangling
# intra-doc link behind.
echo "== tier-1 offline gate: rustdoc =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== tier-1 offline gate: OK =="
