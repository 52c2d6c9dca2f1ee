//! Zero-copy data-path invariants at the system level:
//!
//! * the pooled path is **bit-identical** across VM shapes — the same
//!   ranks driven by one two-device VM and by two one-device VMs agree on
//!   payloads, virtual-time reports, the pool's `hits` and `misses`, and
//!   `datapath.bytes.zero_copy`;
//! * every `PoolGuard` returns its buffer (`datapath.pool.outstanding`
//!   drains to zero);
//! * the steady state is allocation-free: after warmup the pool serves
//!   ≥ 99% of takes from recycled buffers.
//!
//! The pool's takes are the frontend serializer's matrix metadata; the
//! backend copies payload pages straight between guest RAM and MRAM.
//!
//! The data pool's width is the other mechanism: the backend unit tests
//! hold a one-worker and a four-worker pool to the same responses, MRAM
//! and errors, and CI runs this suite pinned to one CPU as well.

use std::sync::Arc;

use upmem_driver::UpmemDriver;
use upmem_sim::{PimConfig, PimMachine};
use vpim::{OpReport, StartOpts, TenantSpec, VpimConfig, VpimSystem};

const RANKS: usize = 2;
const DPUS_PER_RANK: usize = 8;
const BYTES_PER_DPU: usize = 8192;

fn host() -> Arc<UpmemDriver> {
    let machine = PimMachine::new(PimConfig {
        ranks: RANKS,
        functional_dpus: vec![DPUS_PER_RANK; RANKS],
        mram_size: 1 << 20,
        ..PimConfig::small()
    });
    Arc::new(UpmemDriver::new(machine))
}

fn config() -> VpimConfig {
    VpimConfig::builder().batching(false).prefetch(false).build()
}

fn payload(rank: usize, dpu: u32, round: usize) -> Vec<u8> {
    let seed = (rank * 89 + dpu as usize * 31 + round * 7 + 3) as u32;
    (0..BYTES_PER_DPU)
        .map(|i| (seed.wrapping_mul(48271).wrapping_add(i as u32) >> 5) as u8)
        .collect()
}

/// Pool counters after a run: `(hits, misses, zero_copy_bytes, outstanding)`.
type PoolTotals = (u64, u64, u64, i64);

/// Runs `rounds` of full-rank write+read on every rank and returns the
/// reports, the read-back payloads, and the pool counters. `one_vm`: the
/// ranks belong to one `RANKS`-device VM; otherwise to `RANKS` one-device
/// VMs.
fn run(one_vm: bool, rounds: usize) -> (Vec<OpReport>, Vec<Vec<u8>>, PoolTotals) {
    let sys = VpimSystem::start(host(), config(), StartOpts::default());
    let vms: Vec<_> = if one_vm {
        vec![sys.launch(TenantSpec::new("pool").devices(RANKS)).unwrap()]
    } else {
        (0..RANKS).map(|r| sys.launch(TenantSpec::new(format!("pool{r}"))).unwrap()).collect()
    };
    let frontends: Vec<_> = vms.iter().flat_map(|vm| vm.frontends()).collect();
    let mut reports = Vec::new();
    let mut outputs = Vec::new();
    for round in 0..rounds {
        for (r, fe) in frontends.iter().enumerate() {
            let datas: Vec<Vec<u8>> =
                (0..DPUS_PER_RANK as u32).map(|d| payload(r, d, round)).collect();
            let entries: Vec<(u32, u64, &[u8])> = datas
                .iter()
                .enumerate()
                .map(|(d, data)| (d as u32, 0, data.as_slice()))
                .collect();
            reports.push(fe.write_rank(&entries).unwrap());
            let reqs: Vec<(u32, u64, u64)> = (0..DPUS_PER_RANK as u32)
                .map(|d| (d, 0, BYTES_PER_DPU as u64))
                .collect();
            let (outs, rep) = fe.read_rank(&reqs).unwrap();
            reports.push(rep);
            outputs.extend(outs);
        }
    }
    let snap = sys.registry().snapshot();
    let hits = snap.count("datapath.pool.hits");
    let misses = snap.count("datapath.pool.misses");
    let zero_copy = snap.count("datapath.bytes.zero_copy");
    let outstanding = snap.level("datapath.pool.outstanding");
    drop(vms);
    sys.shutdown();
    (reports, outputs, (hits, misses, zero_copy, outstanding))
}

#[test]
fn pooled_path_is_bit_identical_in_one_vm_or_one_vm_per_rank() {
    let (seq_reports, seq_out, (seq_hits, seq_misses, seq_zero_copy, seq_outstanding)) =
        run(false, 2);
    let (par_reports, par_out, (par_hits, par_misses, par_zero_copy, par_outstanding)) =
        run(true, 2);

    // Payloads and virtual-time reports: bit-identical.
    assert_eq!(seq_out, par_out);
    assert_eq!(seq_reports.len(), par_reports.len());
    for (i, (s, p)) in seq_reports.iter().zip(&par_reports).enumerate() {
        assert_eq!(s, p, "request {i}: pooled path leaked into virtual time");
    }
    // What was read back is what was written (last round wins per DPU).
    let per_round = RANKS * DPUS_PER_RANK;
    for (i, out) in seq_out.iter().enumerate() {
        let round = i / per_round;
        let r = (i % per_round) / DPUS_PER_RANK;
        let d = (i % DPUS_PER_RANK) as u32;
        assert_eq!(out, &payload(r, d, round), "round {round} rank {r} dpu {d}");
    }
    // The pool counters are part of the determinism contract: same hits,
    // same misses, same zero-copy byte count, and no guard leaked in
    // either shape.
    assert_eq!(seq_hits, par_hits, "pool hits depend on the VM shape");
    assert_eq!(seq_misses, par_misses, "pool misses depend on the VM shape");
    assert_eq!(seq_zero_copy, par_zero_copy, "zero-copy bytes depend on the VM shape");
    assert_eq!(seq_outstanding, 0, "one-device VMs leaked pool guards");
    assert_eq!(par_outstanding, 0, "the multi-device VM leaked pool guards");
    // Exact byte accounting: every write and every read of every round
    // moves DPUS_PER_RANK * BYTES_PER_DPU bytes through run_entries.
    let expected = (2 * 2 * RANKS * DPUS_PER_RANK * BYTES_PER_DPU) as u64;
    assert_eq!(seq_zero_copy, expected);
}

#[test]
fn steady_state_is_allocation_free() {
    const ROUNDS: usize = 150;
    let (_, outputs, (hits, misses, zero_copy, outstanding)) = run(false, ROUNDS);
    assert_eq!(outputs.len(), ROUNDS * RANKS * DPUS_PER_RANK);
    assert_eq!(outstanding, 0, "leaked pool guards");
    let expected = (2 * ROUNDS * RANKS * DPUS_PER_RANK * BYTES_PER_DPU) as u64;
    assert_eq!(zero_copy, expected);
    // Same-size traffic repeated: after the first rounds warm the size
    // classes, every take is served from recycled buffers. ≥ 99% hit rate
    // leaves room only for the cold-start misses.
    let takes = hits + misses;
    assert!(
        hits * 100 >= takes * 99,
        "steady state allocates: {hits} hits / {misses} misses"
    );
}
