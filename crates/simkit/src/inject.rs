//! Deterministic, seeded fault injection.
//!
//! A production vPIM host misbehaves in bounded, recurring ways — a kick is
//! lost, an IRQ is delayed, a chunk transfer tears, a manager RPC times out
//! (PrIM and the UPMEM field reports both document these as routine). This
//! module makes every such failure a *named fault point* that higher layers
//! consult on their hot paths:
//!
//! ```text
//! if plane.hit("vmm.kick.drop") { /* simulate the loss */ }
//! ```
//!
//! Design rules:
//!
//! * **Zero overhead when disabled.** A [`FaultPlane`] (and the late-bound
//!   [`InjectCell`] wrapper components embed) answers `hit` with a single
//!   relaxed atomic load until a plan is armed. The default configuration
//!   arms nothing, so production paths are bit-identical to a build without
//!   injection.
//! * **Deterministic.** Whether a hit fires is a pure function of
//!   `(seed, point name, hit key)` — no wall clocks, no global RNG. Serially
//!   driven points use [`FaultPlane::hit`], which advances a per-point
//!   counter; concurrently driven points use [`FaultPlane::hit_keyed`] with
//!   a caller-supplied key (e.g. the per-request entry index), so thread
//!   interleaving cannot change the fault schedule. One-device and
//!   multi-device VMs, at any data-pool width, therefore see bit-identical
//!   faults.
//! * **Observable.** Arms, fires and suppressed (non-firing) hits are
//!   counted globally (`inject.{armed,fired,suppressed}` when bound to a
//!   registry) and per point ([`FaultPlane::point_stats`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::lockorder::LockLevel;
use crate::sync::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use crate::telemetry::{Counter, MetricsRegistry};

/// When an armed fault point fires, expressed over the 0-based hit key.
///
/// Plain data: `Copy + Eq + serde`, so plans can ride inside a by-value
/// configuration struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultPlan {
    /// Fire exactly once, on the `n`th hit (1-based; `Nth(1)` is the first
    /// hit). `Nth(0)` never fires.
    Nth(u64),
    /// Fire on every `k`th hit (hits `k, 2k, 3k, …`, 1-based). `EveryK(0)`
    /// never fires; `EveryK(1)` fires on every hit.
    EveryK(u64),
    /// Fire with probability `permille`/1000 per hit, decided by a seeded
    /// hash of `(seed, point, key)` — reproducible, not random.
    Probability {
        /// Firing probability in thousandths (0 = never, 1000 = always).
        permille: u16,
    },
    /// A budgeted burst: fire on every hit with key in
    /// `[after, after + count)`, i.e. suppress the first `after` hits, then
    /// fire `count` times, then stay quiet.
    Burst {
        /// Hits to let through before the burst starts.
        after: u64,
        /// Number of consecutive firing hits.
        count: u64,
    },
}

impl FaultPlan {
    /// Whether this plan fires on 0-based hit `key` of `point` under `seed`.
    /// Pure and total: the fault schedule of a run is fully determined by
    /// the (seed, plan) pair and the sequence of keys presented.
    #[must_use]
    pub fn fires(&self, seed: u64, point: &str, key: u64) -> bool {
        match *self {
            FaultPlan::Nth(n) => n > 0 && key + 1 == n,
            FaultPlan::EveryK(k) => k > 0 && (key + 1).is_multiple_of(k),
            FaultPlan::Probability { permille } => {
                mix(seed, point, key) % 1000 < u64::from(permille)
            }
            FaultPlan::Burst { after, count } => key >= after && key < after.saturating_add(count),
        }
    }

    /// Exact number of fires among the first `hits` sequential hits — the
    /// oracle tests compare observed `fired` counts against.
    #[must_use]
    pub fn count_fires(&self, seed: u64, point: &str, hits: u64) -> u64 {
        (0..hits).filter(|&key| self.fires(seed, point, key)).count() as u64
    }
}

/// FNV-1a over the point name folded through splitmix64 with the seed and
/// key: a cheap, stable mixer so distinct points (and distinct keys) make
/// independent-looking probability decisions from one seed.
fn mix(seed: u64, point: &str, key: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in point.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = seed ^ h ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hit/fire/suppress totals of one armed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PointStats {
    /// Times the point was consulted while armed.
    pub hits: u64,
    /// Hits that fired the fault.
    pub fired: u64,
    /// Hits that passed through without firing.
    pub suppressed: u64,
}

#[derive(Debug)]
struct Point {
    plan: FaultPlan,
    hits: AtomicU64,
    fired: AtomicU64,
    suppressed: AtomicU64,
}

impl Point {
    fn new(plan: FaultPlan) -> Self {
        Point {
            plan,
            hits: AtomicU64::new(0),
            fired: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
        }
    }
}

/// The seeded registry of armed fault points one system shares.
///
/// Components hold it as `Arc<FaultPlane>` (usually through an
/// [`InjectCell`]) and call [`hit`](Self::hit) / [`hit_keyed`](Self::hit_keyed)
/// at their fault points. With nothing armed, both answer `false` after one
/// relaxed atomic load.
#[derive(Debug)]
pub struct FaultPlane {
    /// Fast-path switch: false until the first `arm`, flipped back off by
    /// `disarm_all`. Checked with a relaxed load before anything else.
    on: AtomicBool,
    seed: u64,
    points: RwLock<HashMap<String, Arc<Point>>>,
    armed: Counter,
    fired: Counter,
    suppressed: Counter,
}

impl FaultPlane {
    /// A plane with the given seed and private (unpublished) telemetry.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_registry(seed, &MetricsRegistry::new())
    }

    /// A plane publishing `inject.{armed,fired,suppressed}` into `registry`.
    #[must_use]
    pub fn with_registry(seed: u64, registry: &MetricsRegistry) -> Self {
        FaultPlane {
            on: AtomicBool::new(false),
            seed,
            points: RwLock::new(LockLevel::FaultPoints, 0, HashMap::new()),
            armed: registry.counter("inject.armed"),
            fired: registry.counter("inject.fired"),
            suppressed: registry.counter("inject.suppressed"),
        }
    }

    /// The seed every firing decision derives from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Arms `point` with `plan` (replacing any previous plan and resetting
    /// its counters) and turns the plane on.
    pub fn arm(&self, point: &str, plan: FaultPlan) {
        self.points.write().insert(point.to_string(), Arc::new(Point::new(plan)));
        self.armed.inc();
        self.on.store(true, Ordering::Release);
    }

    /// Disarms `point`; its accumulated stats are dropped with it. The
    /// plane stays on while other points remain armed.
    pub fn disarm(&self, point: &str) {
        let mut points = self.points.write();
        points.remove(point);
        if points.is_empty() {
            self.on.store(false, Ordering::Release);
        }
    }

    /// Disarms every point and turns the fast path back off.
    pub fn disarm_all(&self) {
        self.points.write().clear();
        self.on.store(false, Ordering::Release);
    }

    /// Consults `point` as the next hit in its serial sequence: the hit key
    /// is the point's own monotonically advancing counter. Use from call
    /// sites that are naturally serialized (one frontend's kicks, one
    /// rank's CI ops under the slot lock); concurrent callers should use
    /// [`hit_keyed`](Self::hit_keyed) instead so interleaving cannot skew
    /// the schedule.
    #[must_use]
    pub fn hit(&self, point: &str) -> bool {
        if !self.on.load(Ordering::Relaxed) {
            return false;
        }
        let Some(p) = self.points.read().get(point).cloned() else {
            return false;
        };
        let key = p.hits.fetch_add(1, Ordering::Relaxed);
        self.decide(&p, point, key)
    }

    /// Consults `point` with a caller-supplied `key`: the decision is a
    /// pure function of `(seed, point, key)` and does **not** consume the
    /// serial counter, so any number of threads presenting the same keys
    /// observe the same schedule regardless of interleaving. Used by the
    /// backend data path with the per-request entry index as the key.
    #[must_use]
    pub fn hit_keyed(&self, point: &str, key: u64) -> bool {
        if !self.on.load(Ordering::Relaxed) {
            return false;
        }
        let Some(p) = self.points.read().get(point).cloned() else {
            return false;
        };
        p.hits.fetch_add(1, Ordering::Relaxed);
        self.decide(&p, point, key)
    }

    fn decide(&self, p: &Point, point: &str, key: u64) -> bool {
        if p.plan.fires(self.seed, point, key) {
            p.fired.fetch_add(1, Ordering::Relaxed);
            self.fired.inc();
            true
        } else {
            p.suppressed.fetch_add(1, Ordering::Relaxed);
            self.suppressed.inc();
            false
        }
    }

    /// Stats of an armed point (`None` when not armed).
    #[must_use]
    pub fn point_stats(&self, point: &str) -> Option<PointStats> {
        self.points.read().get(point).map(|p| PointStats {
            hits: p.hits.load(Ordering::Relaxed),
            fired: p.fired.load(Ordering::Relaxed),
            suppressed: p.suppressed.load(Ordering::Relaxed),
        })
    }
}

/// A late-bindable slot for a shared [`FaultPlane`].
///
/// Components whose inner state is already `Arc`-shared when the plane is
/// created (guest memory, IRQ lines, ranks, manager clients, the
/// scheduler) embed an `InjectCell` at construction; installing a plane
/// later reaches every clone at once. Until installation, `hit` answers
/// with a single relaxed load — the same zero-overhead passthrough as an
/// unarmed plane.
#[derive(Debug)]
pub struct InjectCell {
    on: AtomicBool,
    plane: Mutex<Option<Arc<FaultPlane>>>,
}

impl Default for InjectCell {
    fn default() -> Self {
        InjectCell::new()
    }
}

impl InjectCell {
    /// An empty cell (every hit passes through).
    #[must_use]
    pub fn new() -> Self {
        InjectCell { on: AtomicBool::new(false), plane: Mutex::new(LockLevel::FaultCell, 0, None) }
    }

    /// Installs `plane`; subsequent hits consult it.
    pub fn install(&self, plane: Arc<FaultPlane>) {
        *self.plane.lock() = Some(plane);
        self.on.store(true, Ordering::Release);
    }

    /// The installed plane, if any.
    #[must_use]
    pub fn plane(&self) -> Option<Arc<FaultPlane>> {
        if !self.on.load(Ordering::Relaxed) {
            return None;
        }
        self.plane.lock().clone()
    }

    /// [`FaultPlane::hit`] through the cell; `false` when empty.
    #[must_use]
    pub fn hit(&self, point: &str) -> bool {
        if !self.on.load(Ordering::Relaxed) {
            return false;
        }
        match &*self.plane.lock() {
            Some(p) => p.hit(point),
            None => false,
        }
    }

    /// [`FaultPlane::hit_keyed`] through the cell; `false` when empty.
    #[must_use]
    pub fn hit_keyed(&self, point: &str, key: u64) -> bool {
        if !self.on.load(Ordering::Relaxed) {
            return false;
        }
        match &*self.plane.lock() {
            Some(p) => p.hit_keyed(point, key),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_plane_never_fires() {
        let plane = FaultPlane::new(42);
        assert!(!plane.on.load(Ordering::Relaxed));
        assert!(!plane.hit("anything"));
        assert!(!plane.hit_keyed("anything", 7));
        assert_eq!(plane.fired.get(), 0);
    }

    #[test]
    fn nth_fires_exactly_once() {
        let plane = FaultPlane::new(1);
        plane.arm("p", FaultPlan::Nth(3));
        let fires: Vec<bool> = (0..6).map(|_| plane.hit("p")).collect();
        assert_eq!(fires, [false, false, true, false, false, false]);
        let st = plane.point_stats("p").unwrap();
        assert_eq!((st.hits, st.fired, st.suppressed), (6, 1, 5));
    }

    #[test]
    fn every_k_fires_periodically() {
        let plane = FaultPlane::new(1);
        plane.arm("p", FaultPlan::EveryK(2));
        let fires: Vec<bool> = (0..6).map(|_| plane.hit("p")).collect();
        assert_eq!(fires, [false, true, false, true, false, true]);
    }

    #[test]
    fn burst_is_budgeted() {
        let plan = FaultPlan::Burst { after: 2, count: 3 };
        let fires: Vec<bool> = (0..8).map(|k| plan.fires(0, "p", k)).collect();
        assert_eq!(fires, [false, false, true, true, true, false, false, false]);
        assert_eq!(plan.count_fires(0, "p", 8), 3);
    }

    #[test]
    fn probability_is_seed_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::Probability { permille: 250 };
        let a = plan.count_fires(7, "p", 10_000);
        let b = plan.count_fires(7, "p", 10_000);
        assert_eq!(a, b, "same seed, same schedule");
        let c = plan.count_fires(8, "p", 10_000);
        assert_ne!(a, c, "different seeds diverge");
        assert!((1_500..3_500).contains(&a), "~25% of 10k, got {a}");
        assert_eq!(FaultPlan::Probability { permille: 0 }.count_fires(7, "p", 1000), 0);
        assert_eq!(FaultPlan::Probability { permille: 1000 }.count_fires(7, "p", 1000), 1000);
    }

    #[test]
    fn keyed_hits_ignore_interleaving() {
        let plane = FaultPlane::new(1);
        plane.arm("p", FaultPlan::Nth(2));
        // Keys presented out of order still fire only for key 1.
        assert!(!plane.hit_keyed("p", 3));
        assert!(plane.hit_keyed("p", 1));
        assert!(!plane.hit_keyed("p", 0));
        assert!(plane.hit_keyed("p", 1), "pure: same key, same answer");
    }

    #[test]
    fn disarm_restores_passthrough() {
        let plane = FaultPlane::new(1);
        plane.arm("p", FaultPlan::EveryK(1));
        assert!(plane.hit("p"));
        plane.disarm("p");
        assert!(!plane.on.load(Ordering::Relaxed));
        assert!(!plane.hit("p"));
        plane.arm("a", FaultPlan::EveryK(1));
        plane.arm("b", FaultPlan::EveryK(1));
        plane.disarm("a");
        assert!(plane.on.load(Ordering::Relaxed), "one point still armed");
        plane.disarm_all();
        assert!(!plane.on.load(Ordering::Relaxed));
    }

    #[test]
    fn telemetry_totals_are_published() {
        let reg = MetricsRegistry::new();
        let plane = FaultPlane::with_registry(0, &reg);
        plane.arm("a", FaultPlan::Nth(1));
        plane.arm("b", FaultPlan::Nth(9));
        assert!(plane.hit("a"));
        assert!(!plane.hit("b"));
        let snap = reg.snapshot();
        assert_eq!(snap.count("inject.armed"), 2);
        assert_eq!(snap.count("inject.fired"), 1);
        assert_eq!(snap.count("inject.suppressed"), 1);
    }

    #[test]
    fn cell_is_passthrough_until_installed() {
        let cell = InjectCell::new();
        assert!(!cell.hit("p"));
        assert!(cell.plane().is_none());
        let plane = Arc::new(FaultPlane::new(0));
        plane.arm("p", FaultPlan::EveryK(1));
        cell.install(plane.clone());
        assert!(cell.hit("p"));
        assert!(cell.hit_keyed("p", 0));
        assert_eq!(cell.plane().unwrap().seed(), 0);
    }
}
