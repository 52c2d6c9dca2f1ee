//! Concrete tenant mixes for the load harness ([`vpim::load`]).
//!
//! The harness itself is workload-agnostic; this module binds it to the
//! evaluation workloads: sessions scripted from the PrIM applications
//! (through [`prim::run_on_vm`]) and the UPIS phrase search (through
//! [`microbench::IndexSearch::run_vm`], at the paper's full 445-query
//! scale in [`paper_mix`]). It lives in the umbrella crate because `prim`
//! and `microbench` already depend on `vpim` — defining the mixes here
//! keeps the dependency graph acyclic.
//!
//! Use [`register_workloads`] on the machine before `VpimSystem::start`,
//! then hand a mix to `LoadHarness::run`.

use std::sync::Arc;

use microbench::{IndexSearch, IndexSearchParams};
use prim::ScaleParams;
use upmem_sdk::SdkError;
use upmem_sim::{PimConfig, PimMachine};
use vpim::load::{OpOutcome, TenantMix, TenantOp, TenantProfile};
use vpim::{Pheap, PheapOptions, TenantSpec, VpimError};

/// Registers every kernel the mixes need (all 16 PrIM applications plus
/// the UPIS index-search kernel). Call before starting the system.
pub fn register_workloads(machine: &PimMachine) {
    prim::register_all(machine);
    IndexSearch::register(machine);
}

/// A host geometry sized for the mixes: `ranks` ranks of 16 DPUs with
/// full 64 MB MRAM banks (the UPIS index needs real bank capacity;
/// `MramBank` allocates only the 4 KiB pages something wrote, so unused
/// space, even below a high write, costs nothing). Transfers move each
/// 4 KiB page straight between guest RAM and MRAM, as on every host.
#[must_use]
pub fn load_host_config(ranks: usize) -> PimConfig {
    PimConfig {
        ranks,
        functional_dpus: vec![16; ranks],
        ..PimConfig::default()
    }
}

/// Maps SDK-level failures into the harness's error type. vPIM-originated
/// errors pass through untouched so the session retry/giveup logic still
/// sees `NoRankAvailable` & co.; pure SDK errors (sizing, verification)
/// become `BadRequest`.
fn to_vpim(e: SdkError) -> VpimError {
    match e {
        SdkError::Vpim(v) => v,
        other => VpimError::BadRequest(other.to_string()),
    }
}

/// A [`TenantOp`] running PrIM application `name` over `nr_dpus` DPUs at
/// `scale`. The op's report key is `prim.<name>`.
///
/// # Panics
///
/// Panics when `name` is not in [`prim::catalog`].
#[must_use]
pub fn prim_op(name: &str, nr_dpus: usize, scale: ScaleParams) -> TenantOp {
    let app = prim::by_name(name).unwrap_or_else(|| panic!("unknown PrIM app {name}"));
    TenantOp::new(
        format!("prim.{}", name.to_ascii_lowercase()),
        Arc::new(move |vm, seed| {
            let run =
                prim::run_on_vm(&*app, vm.frontends(), nr_dpus, &scale, seed).map_err(to_vpim)?;
            Ok(OpOutcome::new(run.cost, run.app.checksum))
        }),
    )
}

/// A [`TenantOp`] running the UPIS phrase search over `nr_dpus` DPUs at
/// `params` scale. The checksum folds the verified flag and total hits so
/// a wrong answer anywhere poisons the report checksum.
#[must_use]
pub fn upis_op(nr_dpus: usize, params: IndexSearchParams) -> TenantOp {
    TenantOp::new(
        "upis.search",
        Arc::new(move |vm, seed| {
            let (run, cost) =
                IndexSearch::run_vm(vm.frontends(), nr_dpus, &params, seed).map_err(to_vpim)?;
            let checksum = (run.total_hits as u64) << 1 | u64::from(run.verified);
            Ok(OpOutcome::new(cost, checksum))
        }),
    )
}

/// The seeded value of KV entry `i` for an episode keyed by `seed`.
fn kv_value(seed: u64, i: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| {
            let x = seed ^ ((i as u64) << 32) ^ (j as u64).wrapping_mul(0x9e37_79b9);
            (x.wrapping_mul(2_654_435_761) >> 11) as u8
        })
        .collect()
}

fn fold_bytes(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// A [`TenantOp`] running one persistent-KV episode over [`vpim::pheap`]:
/// format a heap in the tenant's rank MRAM, insert `entries` values of
/// `value_len` bytes derived from the op seed (persisting every third
/// insert and once at the end), drop the handle as a simulated crash,
/// [`Pheap::recover`], and verify every committed value bit-exactly. The
/// checksum folds all recovered bytes plus the recovery report, so data
/// loss, leakage, or a replay divergence anywhere poisons the session
/// report; the cost is the heap's accumulated virtual-time MRAM traffic.
/// With `pheap.wal.torn`/`pheap.persist.drop` armed, the persist calls
/// fail typed (keyed purely by transaction sequence) and the episode
/// surfaces as a deterministic op failure. The report key is `pheap.kv`.
#[must_use]
pub fn pheap_kv_op(opts: PheapOptions, entries: usize, value_len: usize) -> TenantOp {
    TenantOp::new(
        "pheap.kv",
        Arc::new(move |vm, seed| {
            let front = vm.frontend(0).clone();
            let mut heap = Pheap::format(front.clone(), opts.clone())?;
            let mut ids = Vec::with_capacity(entries);
            for i in 0..entries {
                let id = heap.alloc(value_len as u64)?;
                heap.write(id, 0, &kv_value(seed, i, value_len))?;
                ids.push(id);
                if i % 3 == 2 {
                    heap.persist()?;
                }
            }
            heap.persist()?;
            let mut cost = heap.drain_cost();
            drop(heap); // crash: the resident window dies with the guest

            let (mut rec, report) = Pheap::recover(front, opts.clone())?;
            let mut checksum = 0xcbf2_9ce4_8422_2325u64;
            for (i, &id) in ids.iter().enumerate() {
                let got = rec.read(id, 0, value_len as u64)?;
                if got != kv_value(seed, i, value_len) {
                    return Err(VpimError::BadRequest(format!(
                        "pheap.kv: recovered value {i} diverged from the committed write"
                    )));
                }
                checksum = fold_bytes(checksum, &got);
            }
            checksum ^= (report.applied_seq << 1) | u64::from(report.replayed);
            cost += rec.drain_cost();
            Ok(OpOutcome::new(cost, checksum))
        }),
    )
}

/// A persistent-KV tenant: sessions run one [`pheap_kv_op`] episode at a
/// size that exercises multiple WAL transactions per episode.
#[must_use]
pub fn pheap_kv_profile(opts: PheapOptions) -> TenantProfile {
    TenantProfile::new("pheap-kv", TenantSpec::new("pheap-kv").mem_mib(16))
        .op(pheap_kv_op(opts, 12, 512))
        .think_mean_ns(2_500)
        .weight(2)
}

/// The PrIM-derived session mix at the given scale, following the suite's
/// domain spread (Gómez-Luna et al.): dense linear algebra dominates,
/// with analytics, search and parallel-primitive tenants behind it.
#[must_use]
pub fn prim_mix(nr_dpus: usize, scale: ScaleParams) -> TenantMix {
    TenantMix::new()
        .profile(
            TenantProfile::new("linalg", TenantSpec::new("linalg").mem_mib(16))
                .op(prim_op("va", nr_dpus, scale))
                .op(prim_op("gemv", nr_dpus, scale))
                .think_mean_ns(2_000)
                .weight(4),
        )
        .profile(
            TenantProfile::new("analytics", TenantSpec::new("analytics").mem_mib(16))
                .op(prim_op("red", nr_dpus, scale))
                .op(prim_op("hst-s", nr_dpus, scale))
                .think_mean_ns(3_000)
                .weight(3),
        )
        .profile(
            TenantProfile::new("search", TenantSpec::new("search").mem_mib(16))
                .op(prim_op("bs", nr_dpus, scale))
                .op(prim_op("ts", nr_dpus, scale))
                .think_mean_ns(1_500)
                .weight(2),
        )
}

/// The full evaluation mix: the PrIM spread at benchmark scale plus an
/// occasional UPIS tenant at the paper's full 445-query scale. Meant for
/// the offline figure harness, not the CI gate — one UPIS session costs
/// real wall-clock time.
#[must_use]
pub fn paper_mix(nr_dpus: usize) -> TenantMix {
    prim_mix(nr_dpus, ScaleParams::default_bench()).profile(
        TenantProfile::new("upis", TenantSpec::new("upis").mem_mib(128))
            .op(upis_op(nr_dpus, IndexSearchParams::paper()))
            .think_mean_ns(10_000),
    )
}

/// The CI smoke mix: the same session shapes at test scale (tiny PrIM
/// problems, the small UPIS corpus) so a thousand sessions finish in CI
/// time while still exercising every code path the paper mix does.
#[must_use]
pub fn smoke_mix(nr_dpus: usize) -> TenantMix {
    prim_mix(nr_dpus, ScaleParams::tiny()).profile(
        TenantProfile::new("upis", TenantSpec::new("upis").mem_mib(16))
            .op(upis_op(nr_dpus, IndexSearchParams::small()))
            .think_mean_ns(5_000),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use upmem_driver::UpmemDriver;
    use vpim::load::{Arrival, LoadHarness, LoadSpec};
    use vpim::{StartOpts, VpimConfig, VpimSystem};

    fn host(ranks: usize) -> Arc<VpimSystem> {
        let machine = PimMachine::new(load_host_config(ranks));
        register_workloads(&machine);
        Arc::new(VpimSystem::start(
            Arc::new(UpmemDriver::new(machine)),
            VpimConfig::full(),
            StartOpts::default(),
        ))
    }

    #[test]
    fn smoke_mix_runs_and_is_deterministic_across_modes() {
        let spec = LoadSpec::new(11, 8).arrival(Arrival::Poisson { mean_gap_ns: 5_000 });
        // One worker runs the sessions in index order; the auto pool (one
        // worker per rank here) interleaves them.
        let a = LoadHarness::run(&host(2), &spec.workers(1), &smoke_mix(4));
        let b = LoadHarness::run(&host(2), &spec, &smoke_mix(4));
        assert_eq!(a, b);
        assert_eq!(a.completed, 8);
        assert_eq!(a.op_failures, 0, "workloads must verify: {a:?}");
        assert!(a.checksum != 0);
    }

    #[test]
    fn paper_upis_session_verifies_at_full_scale() {
        let sys = host(1);
        let vm = sys.launch(TenantSpec::new("upis-full").mem_mib(128)).unwrap();
        let op = upis_op(16, IndexSearchParams::paper());
        let out = op.run(&vm, 7).expect("full-scale UPIS run");
        assert_eq!(out.checksum & 1, 1, "paper-scale search must verify");
        assert!(out.cost > simkit::VirtualNanos::ZERO);
        drop(vm);
    }
}
