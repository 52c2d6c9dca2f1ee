//! Bounded, deterministic retry with virtual-time exponential backoff.
//!
//! The recovery counterpart of [`crate::inject`]: layers that can meet a
//! transient fault (a dropped kick, an injected EIO, a manager RPC loss)
//! retry under a [`RetryPolicy`] instead of ad-hoc loops. All backoff is
//! **virtual time** — no thread ever sleeps for it; the computed delay is
//! charged to the operation's timeline, so a retried run reports a
//! deterministic, seed-reproducible duration whichever thread ran the
//! handler.
//!
//! The backoff sequence is exponential with deterministic jitter and is
//! monotone non-decreasing by construction: the step multiplier is clamped
//! to ≥ 2 while jitter adds at most 100% of a step, so step `n+1`'s floor
//! (`2·stepₙ`) already dominates step `n`'s ceiling (`2·stepₙ`).

use serde::{Deserialize, Serialize};

use crate::cost::CostModel;
use crate::telemetry::{Counter, MetricsRegistry, TimeCounter};
use crate::time::VirtualNanos;

/// The operation classes a retry backoff is derived from. Each class
/// anchors its policy to the [`CostModel`] duration of one instance of the
/// operation, so backoff scales with the modeled hardware instead of
/// hard-coded wall numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimeoutClass {
    /// One virtio kick + completion IRQ round trip.
    VirtioRoundTrip,
    /// A manager rank-allocation round trip (§4.2: ~36 ms).
    ManagerAlloc,
}

/// A bounded-attempt retry policy with monotone, deterministic,
/// virtual-time exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts including the first try (clamped to ≥ 1 in use).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: VirtualNanos,
    /// Per-retry multiplier (clamped to ≥ 2 by [`RetryPolicy::new`], which
    /// is what makes the jittered sequence provably monotone).
    pub mult: u32,
    /// Maximum jitter as a percentage of the un-jittered step, `0..=100`.
    /// Jitter is a deterministic hash of `(seed, retry index)`, not random.
    pub jitter_pct: u8,
    /// Ceiling every backoff step is clamped to.
    pub cap: VirtualNanos,
}

impl RetryPolicy {
    /// A policy with the invariants enforced (`mult ≥ 2`,
    /// `jitter_pct ≤ 100`, `max_attempts ≥ 1`).
    #[must_use]
    pub fn new(
        max_attempts: u32,
        base: VirtualNanos,
        mult: u32,
        jitter_pct: u8,
        cap: VirtualNanos,
    ) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base,
            mult: mult.max(2),
            jitter_pct: jitter_pct.min(100),
            cap,
        }
    }

    /// The default policy for `class`: 4 attempts, backoff anchored at the
    /// modeled duration of one operation, capped at 64× it, with 25%
    /// deterministic jitter.
    #[must_use]
    pub fn for_class(cm: &CostModel, class: TimeoutClass) -> Self {
        let unit = match class {
            TimeoutClass::VirtioRoundTrip => cm.virtio_round_trip(),
            TimeoutClass::ManagerAlloc => cm.manager_alloc(),
        };
        RetryPolicy::new(4, unit, 2, 25, unit * 64)
    }

    /// The backoff charged before retry `n` (0-based: `backoff(seed, 0)`
    /// precedes the second attempt). Pure in `(self, seed, n)`; monotone
    /// non-decreasing in `n`; clamped to [`cap`](Self::cap).
    #[must_use]
    pub fn backoff(&self, seed: u64, n: u32) -> VirtualNanos {
        let mult = u128::from(self.mult.max(2));
        let step: u128 = (0..n).fold(u128::from(self.base.as_nanos()), |acc, _| {
            acc.saturating_mul(mult)
        });
        // Deterministic jitter in [0, jitter_pct/100] of the step.
        let frac = u128::from(jitter_hash(seed, n) % 1000);
        let jitter = step
            .saturating_mul(u128::from(self.jitter_pct.min(100)))
            .saturating_mul(frac)
            / (100 * 1000);
        let ns = step.saturating_add(jitter).min(u128::from(self.cap.as_nanos()));
        VirtualNanos::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
    }

    /// A fresh [`RetryBudget`] over this policy: the attempt counter and
    /// backoff total of one operation, for call sites whose retry is a
    /// different action from the first try (or that share one budget
    /// between two loops) and so cannot hand [`run`](Self::run) a closure.
    #[must_use]
    pub fn budget<'a>(&self, seed: u64, metrics: Option<&'a RetryMetrics>) -> RetryBudget<'a> {
        RetryBudget { policy: *self, seed, metrics, n: 0, backoff: VirtualNanos::ZERO }
    }

    /// Runs `op` under this policy. `op` receives the 0-based attempt
    /// index; `transient` decides whether a failure is worth retrying.
    /// Returns the final result plus the total virtual backoff accrued —
    /// the caller charges that to its timeline (nothing here sleeps).
    ///
    /// Metrics: each retry bumps `attempts` and accrues `backoff_vt`;
    /// exhausting the budget on a transient error bumps `giveups`.
    pub fn run<T, E>(
        &self,
        seed: u64,
        metrics: Option<&RetryMetrics>,
        mut transient: impl FnMut(&E) -> bool,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> (Result<T, E>, VirtualNanos) {
        let mut budget = self.budget(seed, metrics);
        loop {
            match op(budget.n) {
                Err(e) if budget.retry(transient(&e)) => {}
                done => return (done, budget.backoff),
            }
        }
    }
}

/// One operation's retry bookkeeping under a [`RetryPolicy`]: how many
/// retries were spent, the virtual backoff they accrued, and the `retry.*`
/// metrics that go with them.
#[derive(Debug)]
pub struct RetryBudget<'a> {
    policy: RetryPolicy,
    seed: u64,
    metrics: Option<&'a RetryMetrics>,
    /// Retries granted so far (the next attempt's 0-based index).
    n: u32,
    backoff: VirtualNanos,
}

impl RetryBudget<'_> {
    /// Accounts one failed attempt and says whether to try again. A
    /// permanent failure (`transient == false`) never retries and is not a
    /// giveup; a transient one retries — charging the next backoff step and
    /// bumping `attempts` — until the policy's attempts are spent, then
    /// bumps `giveups`.
    pub fn retry(&mut self, transient: bool) -> bool {
        if !transient {
            return false;
        }
        if self.n + 1 >= self.policy.max_attempts.max(1) {
            if let Some(m) = self.metrics {
                m.giveups.inc();
            }
            return false;
        }
        let b = self.policy.backoff(self.seed, self.n);
        self.backoff += b;
        if let Some(m) = self.metrics {
            m.attempts.inc();
            m.backoff_vt.add(b);
        }
        self.n += 1;
        true
    }

    /// Total virtual backoff charged so far.
    #[must_use]
    pub fn backoff(&self) -> VirtualNanos {
        self.backoff
    }
}

/// splitmix64 over (seed, retry index) — the jitter source.
fn jitter_hash(seed: u64, n: u32) -> u64 {
    let mut z = seed
        .wrapping_add(u64::from(n).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `retry.*` instrument bundle every retrying layer records into.
#[derive(Debug, Clone)]
pub struct RetryMetrics {
    /// `retry.attempts` — re-attempts performed (first tries not counted).
    pub attempts: Counter,
    /// `retry.giveups` — operations abandoned after exhausting attempts.
    pub giveups: Counter,
    /// `retry.backoff_vt` — total virtual backoff charged.
    pub backoff_vt: TimeCounter,
}

impl RetryMetrics {
    /// The shared `retry.*` instruments of `registry`.
    #[must_use]
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        RetryMetrics {
            attempts: registry.counter("retry.attempts"),
            giveups: registry.counter("retry.giveups"),
            backoff_vt: registry.time("retry.backoff_vt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy::new(
            4,
            VirtualNanos::from_micros(10),
            2,
            25,
            VirtualNanos::from_millis(10),
        )
    }

    #[test]
    fn backoff_is_deterministic_monotone_and_capped() {
        let p = policy();
        let seq: Vec<u64> = (0..12).map(|n| p.backoff(42, n).as_nanos()).collect();
        assert_eq!(
            seq,
            (0..12).map(|n| p.backoff(42, n).as_nanos()).collect::<Vec<_>>(),
            "same seed reproduces the sequence"
        );
        for w in seq.windows(2) {
            assert!(w[1] >= w[0], "monotone: {seq:?}");
        }
        assert!(seq.iter().all(|&ns| ns <= 10_000_000), "capped: {seq:?}");
        assert!(seq[0] >= 10_000, "first step at least the base");
        assert_ne!(
            (0..4).map(|n| p.backoff(1, n)).collect::<Vec<_>>(),
            (0..4).map(|n| p.backoff(2, n)).collect::<Vec<_>>(),
            "different seeds jitter differently"
        );
    }

    #[test]
    fn run_retries_transient_until_success() {
        let p = policy();
        let reg = MetricsRegistry::new();
        let m = RetryMetrics::from_registry(&reg);
        let mut calls = 0;
        let (out, backoff) = p.run(
            7,
            Some(&m),
            |_: &&str| true,
            |n| {
                calls += 1;
                if n < 2 { Err("transient") } else { Ok(n) }
            },
        );
        assert_eq!(out, Ok(2));
        assert_eq!(calls, 3);
        assert_eq!(backoff, p.backoff(7, 0) + p.backoff(7, 1));
        let snap = reg.snapshot();
        assert_eq!(snap.count("retry.attempts"), 2);
        assert_eq!(snap.count("retry.giveups"), 0);
        assert_eq!(snap.time("retry.backoff_vt"), backoff);
    }

    #[test]
    fn run_gives_up_after_budget() {
        let p = policy();
        let reg = MetricsRegistry::new();
        let m = RetryMetrics::from_registry(&reg);
        let (out, _) = p.run(7, Some(&m), |_: &&str| true, |_| Err::<(), _>("down"));
        assert_eq!(out, Err("down"));
        let snap = reg.snapshot();
        assert_eq!(snap.count("retry.attempts"), 3, "4 attempts = 3 retries");
        assert_eq!(snap.count("retry.giveups"), 1);
    }

    #[test]
    fn run_fails_fast_on_permanent_errors() {
        let p = policy();
        let reg = MetricsRegistry::new();
        let m = RetryMetrics::from_registry(&reg);
        let mut calls = 0;
        let (out, backoff) = p.run(
            7,
            Some(&m),
            |_: &&str| false,
            |_| {
                calls += 1;
                Err::<(), _>("permanent")
            },
        );
        assert_eq!(out, Err("permanent"));
        assert_eq!(calls, 1);
        assert_eq!(backoff, VirtualNanos::ZERO);
        assert_eq!(reg.snapshot().count("retry.giveups"), 0, "not a retry giveup");
    }

    #[test]
    fn class_policies_anchor_to_the_cost_model() {
        let cm = CostModel::default();
        let p = RetryPolicy::for_class(&cm, TimeoutClass::ManagerAlloc);
        assert_eq!(p.base, cm.manager_alloc());
        assert_eq!(p.cap, cm.manager_alloc() * 64);
        let q = RetryPolicy::for_class(&cm, TimeoutClass::VirtioRoundTrip);
        assert!(q.base < p.base, "kick retries back off far faster than allocs");
        assert_eq!(q.base, cm.virtio_round_trip());
    }
}
