//! Property tests for the retry/fault-injection plane (ISSUE 5):
//!
//! * the backoff sequence is monotone non-decreasing, bounded by its cap,
//!   and a pure function of `(policy, seed, n)`;
//! * every fault plan fires exactly the count its closed form predicts,
//!   and `count_fires` is an exact oracle for serial-counter points;
//! * keyed decisions are pure in the key (retrying the same key re-fires);
//! * kick-drop recovery never double-applies a write: a dropped kick
//!   never reached the device, so its chain is still in the avail ring,
//!   and the re-kick's handler runs it exactly once.

use std::sync::Arc;

use proptest::prelude::*;
use simkit::{FaultPlan, FaultPlane, RetryPolicy, VirtualNanos};
use upmem_driver::UpmemDriver;
use upmem_sim::{PimConfig, PimMachine};
use vpim::{FaultSite, StartOpts, TenantSpec, VpimConfig, VpimSystem};

const POINT: &str = "prop.point";

/// Builds a policy from raw drawn parameters (the vendored proptest shim
/// has no `prop_map`, so construction happens in the test body).
fn mk_policy(attempts: u32, base_ns: u64, mult: u32, jitter: u8, cap_mult: u64) -> RetryPolicy {
    let base = VirtualNanos::from_nanos(base_ns);
    RetryPolicy::new(
        attempts,
        base,
        mult,
        jitter.min(100),
        base.saturating_mul(cap_mult),
    )
}

/// Decodes one of the four plan shapes from raw drawn parameters.
fn mk_plan(kind: u8, a: u64, b: u64, permille: u16) -> FaultPlan {
    match kind % 4 {
        0 => FaultPlan::Nth(a % 20),
        1 => FaultPlan::EveryK(a % 10),
        2 => FaultPlan::Probability { permille: permille % 1001 },
        _ => FaultPlan::Burst { after: a % 16, count: b % 16 },
    }
}

/// The closed-form firing count of a plan over hits keyed `0..hits`.
/// Probability has no closed form; `None` defers to `count_fires`.
fn closed_form(plan: FaultPlan, hits: u64) -> Option<u64> {
    match plan {
        FaultPlan::Nth(n) => Some(u64::from(n > 0 && hits >= n)),
        FaultPlan::EveryK(k) => Some(hits.checked_div(k).unwrap_or(0)),
        FaultPlan::Burst { after, count } => {
            Some(hits.saturating_sub(after).min(count))
        }
        FaultPlan::Probability { .. } => None,
    }
}

proptest! {
    /// backoff(seed, n) ≤ backoff(seed, n+1) ≤ cap, for any policy the
    /// constructor can produce, and the value is deterministic per seed.
    #[test]
    fn backoff_is_monotone_bounded_and_deterministic(
        attempts in 1u32..8,
        base_ns in 1u64..1_000_000,
        mult in 2u32..6,
        jitter in 0u8..101,
        cap_mult in 1u64..64,
        seed in any::<u64>(),
    ) {
        let policy = mk_policy(attempts, base_ns, mult, jitter, cap_mult);
        let mut prev = VirtualNanos::ZERO;
        for n in 0..12u32 {
            let b = policy.backoff(seed, n);
            prop_assert!(b >= prev, "step {n}: {b:?} < {prev:?}");
            prop_assert!(b <= policy.cap, "step {n}: {b:?} exceeds cap {:?}", policy.cap);
            prop_assert_eq!(b, policy.backoff(seed, n));
            prev = b;
        }
    }

    /// Different seeds may jitter differently but never change the bounds
    /// or the monotone shape — the un-jittered floor is shared.
    #[test]
    fn backoff_jitter_never_exceeds_one_step(
        attempts in 1u32..8,
        base_ns in 1u64..1_000_000,
        mult in 2u32..6,
        jitter in 0u8..101,
        cap_mult in 1u64..64,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let policy = mk_policy(attempts, base_ns, mult, jitter, cap_mult);
        for n in 0..8u32 {
            let a = policy.backoff(seed_a, n);
            let b = policy.backoff(seed_b, n);
            // Jitter is ≤ 100% of the step, so two seeds are within 2× of
            // each other (unless both clamp to the cap).
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(
                hi <= lo.saturating_mul(2) || hi == policy.cap,
                "step {n}: {a:?} vs {b:?} differ by more than jitter allows"
            );
        }
    }

    /// A plan fires exactly its configured count over any number of serial
    /// hits, and `count_fires` agrees with the realized count.
    #[test]
    fn plan_fires_exactly_its_configured_count(
        kind in 0u8..4,
        a in 0u64..64,
        b in 0u64..64,
        permille in 0u16..1001,
        seed in any::<u64>(),
        hits in 0u64..64,
    ) {
        let plan = mk_plan(kind, a, b, permille);
        let plane = FaultPlane::new(seed);
        plane.arm(POINT, plan);
        let realized = (0..hits).filter(|_| plane.hit(POINT)).count() as u64;
        prop_assert_eq!(realized, plan.count_fires(seed, POINT, hits));
        if let Some(expected) = closed_form(plan, hits) {
            prop_assert_eq!(realized, expected);
        }
        let stats = plane.point_stats(POINT).unwrap();
        prop_assert_eq!(stats.hits, hits);
        prop_assert_eq!(stats.fired, realized);
        prop_assert_eq!(stats.suppressed, hits - realized);
    }

    /// Keyed decisions are pure in `(seed, point, key)`: the same key gives
    /// the same answer forever, and re-arming the same plan replays it.
    #[test]
    fn keyed_decisions_are_pure_and_replayable(
        kind in 0u8..4,
        a in 0u64..64,
        b in 0u64..64,
        permille in 0u16..1001,
        seed in any::<u64>(),
        keys in proptest::collection::vec(0u64..64, 0..32),
    ) {
        let plan = mk_plan(kind, a, b, permille);
        let plane = FaultPlane::new(seed);
        plane.arm(POINT, plan);
        let first: Vec<bool> = keys.iter().map(|&k| plane.hit_keyed(POINT, k)).collect();
        let second: Vec<bool> = keys.iter().map(|&k| plane.hit_keyed(POINT, k)).collect();
        prop_assert_eq!(&first, &second);
        plane.arm(POINT, plan); // re-arm resets counters, not decisions
        let replay: Vec<bool> = keys.iter().map(|&k| plane.hit_keyed(POINT, k)).collect();
        prop_assert_eq!(&first, &replay);
        for (i, &k) in keys.iter().enumerate() {
            prop_assert_eq!(first[i], plan.fires(seed, POINT, k));
        }
    }
}

// ------------------------------------------------- end-to-end idempotency

fn host() -> Arc<UpmemDriver> {
    Arc::new(UpmemDriver::new(PimMachine::new(PimConfig::small())))
}

/// Kick-drop recovery re-kicks an *undispatched* chain: the write is
/// applied exactly once. `backend.writes` counts WriteRank requests the
/// device actually processed — if a recovered kick ever re-dispatched an
/// already-processed chain, the counter would exceed the number of
/// requests the guest issued.
#[test]
fn recovered_kick_never_double_applies_a_write() {
    for seed in [1u64, 7, 0xDEAD, 0xC4A0_5EED] {
        // Device 0 of a one-device and of a two-device VM.
        for devices in [1, 2] {
            let vcfg =
                VpimConfig::builder().batching(false).prefetch(false).inject_seed(seed).build();
            let sys = VpimSystem::start(host(), vcfg, StartOpts::default());
            let vm = sys.launch(TenantSpec::new("prop").devices(devices)).unwrap();
            let plane = sys.fault_plane().unwrap().clone();
            plane.arm(FaultSite::KickDrop.name(), FaultPlan::Nth(1));
            let fe = vm.frontend(0);

            // Two writes to the same range: the first one's kick is
            // dropped and retried; the second must win.
            let first = vec![0xAAu8; 4096];
            let second = vec![0x55u8; 4096];
            fe.write_rank(&[(0, 0, &first)]).unwrap();
            fe.write_rank(&[(0, 0, &second)]).unwrap();
            let (out, _) = fe.read_rank(&[(0, 0, 4096)]).unwrap();
            assert_eq!(out[0], second, "seed {seed} devices {devices}");

            let snap = sys.registry().snapshot();
            assert_eq!(
                snap.count("backend.writes"),
                2,
                "seed {seed} devices {devices}: a chain was double-applied"
            );
            assert_eq!(snap.count("retry.attempts"), 1);
            assert_eq!(snap.level("virtio.queue.depth.rank0"), 0);
            drop(vm);
            sys.shutdown();
        }
    }
}
