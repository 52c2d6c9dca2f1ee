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

# The frozen benchmark crate still names `PimConfig::verify_interleave`,
# `Rank::{verify_interleave, write_dpu, read_dpu}` and `SegCache`. They
# stay as inert `#[doc(hidden)]` items until the `[benchmark]` PR deletes
# them (ROADMAP item 1a); nothing else in the tree may name them.
echo "== tier-1 offline gate: frozen names =="
allowed='crates/upmem-sim/src/geometry.rs:    pub verify_interleave: bool,
crates/upmem-sim/src/geometry.rs:            verify_interleave: false,
crates/upmem-sim/src/rank.rs:    pub fn verify_interleave(&self) -> bool {
crates/upmem-sim/src/rank.rs:        self.config.verify_interleave
crates/virtio/src/memory.rs:pub struct SegCache;
crates/virtio/src/memory.rs:impl SegCache {
crates/virtio/src/lib.rs:pub use memory::{Gpa, GuestMemory, GuestView, GuestViewMut, SegCache, MEM_EIO_POINT};
crates/core/src/backend/datapath.rs:use pim_virtio::{GuestMemory, SegCache};
crates/core/src/backend/datapath.rs:    _cache: &mut SegCache,'
stray=$(grep -rIE 'verify_interleave|\.(write|read)_dpu\(|SegCache' crates src tests examples |
    grep -vxF "$allowed" || true)
if [ -n "$stray" ]; then
    echo "$stray"
    echo "frozen names used outside their inert definitions (ROADMAP item 1a)" >&2
    exit 1
fi
# Every transfer is synchronous and every kick runs its handler on the
# kicking thread; the split-phase and per-device lane names must not return.
# A chain's pages belong to the frontend's one chain value, so the
# hand-freed pending-op record must not return either.
stray=$(grep -rIE 'kick_async|KickHandle|InFlight|PendingMatrix|PendingOp|begin_write_rank|finish_rank|finish_matrix' \
    crates src tests examples || true)
if [ -n "$stray" ]; then
    echo "$stray"
    echo "split-phase transfer, dispatch-lane or pending-op names are back (ROADMAP item 15)" >&2
    exit 1
fi
# Every lock is a `simkit::sync` lock built with its level, so the debug
# build checks every acquisition against `simkit::lockorder`; the
# parking_lot shim and the hand-placed order tokens must not return. (The
# manifests' `parking_lot` dependency lines stay until ROADMAP item 1b.)
stray=$(grep -rIE --include='*.rs' 'parking_lot|ordered\(|LockToken' \
    crates src tests examples || true)
if [ -n "$stray" ]; then
    echo "$stray"
    echo "a lock outside simkit::sync or a hand-placed lock-order token is back (ROADMAP item 17)" >&2
    exit 1
fi
# The manager owns no thread: every rank request sweeps sysfs on its own
# thread, so no observer runs behind it and nothing needs to wait for one.
# The manager's production code (the lines before its first #[cfg(test)])
# spawns nothing, and no state wait returns.
stray=$(grep -rIE --include='*.rs' 'wait_for_state' crates src tests examples || true)
stray=$stray$(awk '/#\[cfg\(test\)\]/ { nextfile } /thread::spawn/ { print FILENAME ":" FNR ": " $0 }' \
    crates/core/src/manager/*.rs)
if [ -n "$stray" ]; then
    echo "$stray"
    echo "a manager thread or a wait for one is back (ROADMAP item 7)" >&2
    exit 1
fi

echo "== tier-1 offline gate: build (release) =="
cargo build --release --offline --workspace

# --workspace: the root manifest is a package and a workspace, so a bare
# `cargo test` runs the root package's suites only.
echo "== tier-1 offline gate: test =="
cargo test --release --offline -q --workspace

# The criterion benches are not run here, only compiled, so the
# `datapath_zero_copy` group and the others cannot rot.
echo "== tier-1 offline gate: bench harness compiles =="
cargo bench --offline -p vpim-bench --no-run

# Every lint clippy reports by default is an error.
echo "== tier-1 offline gate: clippy =="
cargo clippy --release --offline --workspace --all-targets -- -D warnings

# The quick figures are deterministic (virtual time, seeded inputs): the
# committed results_quick.txt must be exactly what the tree prints, so a
# change to any input generator or model constant shows here.
echo "== tier-1 offline gate: figures quick =="
out=$(mktemp)
t0=$(date +%s)
"${CARGO_TARGET_DIR:-target}/release/figures" quick >"$out"
echo "figures quick: $(($(date +%s) - t0)) s wall"
if ! cmp -s "$out" results_quick.txt; then
    diff "$out" results_quick.txt | head -20
    rm -f "$out"
    echo "figures quick differs from results_quick.txt" >&2
    exit 1
fi
rm -f "$out"

# Rustdoc over the whole workspace (the vendored shims included) with
# warnings denied, so a deleted or private item cannot leave a dangling
# intra-doc link behind.
echo "== tier-1 offline gate: rustdoc =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== tier-1 offline gate: OK =="
