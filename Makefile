# Convenience targets; all of them work offline (deps are vendored, see
# vendor/ and .cargo/config.toml).

.PHONY: tier1 build test figures bench clean

# The repo's tier-1 gate (ROADMAP.md): release build + full test suite
# (which covers the zero-copy data-path integrity/leak suite, the
# interleave, in-place DMA and guest-memory proptests), the criterion
# benches compiled, clippy, the quick figures and rustdoc; then the
# benchmark smoke (a 0.2 s timed run of every workload, no retry:
# the frozen benchmark/ crate still builds against this tree, no operation
# fails and all six virt_fingerprints equal benchmark/baseline.json), the
# concurrency stress/determinism suites (one- vs two-device
# bit-identity, pinned guest buffers: model blindness, lifetime of a
# dropped buffer in flight, fallback; the cross-tenant guest-RAM canary,
# whose tests are tenants of each other's recycled RAM when run in
# parallel; and the cross-tenant MRAM canary over shared broadcast pages,
# rank reset and parked checkpoints; and the small-request allocation
# budgets, which count on the calling thread only, so other harness threads
# cannot move them) and scheduler oversubscription
# suites (the latter with the multi-VM, migration and load-harness
# suites, which drive the same backend -> scheduler -> rank-table call
# path) under varied harness parallelism and pinned to one CPU (a
# one-worker data pool), the chaos leg (fault-injection suites under varied harness
# parallelism, then the chaos suite over the CHAOS_SEED matrix), the shard
# leg (rank-table properties + exact end-state churn accounting under
# varied harness parallelism, then the churn suite over the SHARD_SEED
# matrix, which varies every per-thread op mix), the load gate (1k-session
# service-level smoke, bit-identical LoadReport across thread counts,
# equal to BENCH_load.json), the cluster gate (the 1/2/4-host
# consolidation bench, equal to BENCH_cluster.json; migration determinism
# runs in the sched leg), the adaptive gate (the static-vs-adaptive
# ablation, equal to BENCH_adaptive.json), and the pheap gate
# (crash-consistency suites under varied harness parallelism, the 8-seed
# chaos sweep, the durability bench, equal to BENCH_pheap.json). Every
# varied-parallelism leg goes through ci/threads-gate.sh (whose last leg
# reruns its suites in a debug build, where every simkit::sync lock checks
# each acquisition against the simkit::lockorder hierarchy), every seed
# matrix (chaos, shard, pheap) through ci/seed-sweep.sh and every
# BENCH_*.json comparison through ci/compare-bench.sh, which fails on a
# moved number instead of rewriting the committed file.
tier1:
	sh ci/offline-gate.sh
	sh ci/bench-smoke.sh
	sh ci/threads-gate.sh stress concurrency_stress dispatch_determinism pinned_buffers guest_ram_isolation mram_isolation alloc_budget
	sh ci/threads-gate.sh sched oversubscription sched_properties multi_vm cluster_migration load_harness
	sh ci/threads-gate.sh chaos chaos_suite retry_properties failure_injection
	sh ci/seed-sweep.sh CHAOS_SEED chaos_suite
	sh ci/threads-gate.sh shard rank_table_properties shard_stress
	RUST_TEST_THREADS=8 sh ci/seed-sweep.sh SHARD_SEED shard_stress
	sh ci/load-gate.sh
	sh ci/cluster-gate.sh
	sh ci/adaptive-gate.sh
	sh ci/pheap-gate.sh

build:
	cargo build --offline --workspace

test:
	cargo test --release --offline -q --workspace

# Regenerate the paper's tables and figures (quick scale).
figures:
	cargo run --release --offline -p vpim-bench --bin figures

bench:
	cargo bench --offline -p vpim-bench

clean:
	cargo clean
