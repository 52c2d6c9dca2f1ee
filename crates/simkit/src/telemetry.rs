//! Lock-cheap telemetry: a metrics registry and typed instruments over
//! the virtual clock.
//!
//! The vPIM paper argues almost entirely through *event counts and segment
//! times* — vmexits, IRQ injections, CI operations, prefetch hits, batch
//! flushes, per-segment durations (Figs. 12–16). This module gives every
//! layer one uniform way to record and query them:
//!
//! * [`MetricsRegistry`] — a shared, cloneable handle to a process-wide (or
//!   per-system) set of named metrics. Reads and writes on the hot path are
//!   single atomic operations; handle lookup takes a shared read lock, and
//!   the write lock is only taken when a metric is first created.
//! * [`Counter`], [`Gauge`], [`TimeCounter`], [`VtHistogram`] — typed
//!   instruments. Handles are `Arc`-backed clones of the registered slot,
//!   so a component can keep a hot local handle and the registry still sees
//!   every update. A counter, gauge or time counter is one atomic cell.
//! * [`MetricsRegistry::publish`] — how a finished per-operation report
//!   ([`crate::Timeline`], the core crate's `OpReport`: plain structs of
//!   scalars and per-segment arrays) lands in a registry in one call.
//!
//! # Example
//!
//! ```
//! use simkit::telemetry::MetricsRegistry;
//! use simkit::VirtualNanos;
//!
//! let reg = MetricsRegistry::new();
//! reg.counter("frontend.prefetch.hits").add(3);
//! reg.time("frontend.write").add(VirtualNanos::from_micros(7));
//! let snap = reg.snapshot();
//! assert_eq!(snap.count("frontend.prefetch.hits"), 3);
//! assert_eq!(snap.time("frontend.write").as_micros(), 7);
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use crate::lockorder::LockLevel;
use crate::sync::RwLock;

use crate::time::VirtualNanos;

/// A monotonically increasing event counter.
///
/// Cloning shares the underlying cell, so the same counter can live in a
/// component's hot path and in the registry simultaneously.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter that no registry holds; [`MetricsRegistry::counter`]
    /// hands out registered ones.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level that can move both ways (queue depths, pool
/// occupancy). Balanced add/sub sequences return it to where it started
/// no matter which threads performed them.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh, unregistered gauge.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Moves the level up by `n`.
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Moves the level down by `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current level.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An accumulator of virtual time.
#[derive(Debug, Clone, Default)]
pub struct TimeCounter(Arc<AtomicU64>);

impl TimeCounter {
    /// A fresh, unregistered time counter.
    #[must_use]
    pub fn new() -> Self {
        TimeCounter::default()
    }

    /// Accumulates a duration.
    pub fn add(&self, d: VirtualNanos) {
        // A wrapping add is fine because the only way to overflow u64
        // nanoseconds is a pre-saturated input, which VirtualNanos
        // arithmetic already flags upstream.
        self.0.fetch_add(d.as_nanos(), Ordering::Relaxed);
    }

    /// Accumulated total.
    #[must_use]
    pub fn get(&self) -> VirtualNanos {
        VirtualNanos::from_nanos(self.0.load(Ordering::Relaxed))
    }
}

/// Number of log2 buckets in a [`VtHistogram`] (covers 1 ns … ~584 years).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A histogram of virtual-time durations in log2 buckets.
///
/// Bucket `i` counts samples with `floor(log2(ns)) == i` (bucket 0 also
/// takes 0 ns samples). Lock-free: recording is one atomic increment.
#[derive(Debug, Clone, Default)]
pub struct VtHistogram(Arc<HistogramCells>);

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    total_ns: AtomicU64,
}

impl Default for HistogramCells {
    fn default() -> Self {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total_ns: AtomicU64::new(0),
        }
    }
}

impl VtHistogram {
    /// A fresh, unregistered histogram.
    #[must_use]
    pub fn new() -> Self {
        VtHistogram::default()
    }

    /// Records one duration sample.
    pub fn record(&self, d: VirtualNanos) {
        let ns = d.as_nanos();
        let bucket = if ns == 0 { 0 } else { 63 - ns.leading_zeros() as usize };
        self.0.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.0.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded durations.
    #[must_use]
    pub fn total(&self) -> VirtualNanos {
        VirtualNanos::from_nanos(self.0.total_ns.load(Ordering::Relaxed))
    }

    /// Mean recorded duration (zero when empty).
    #[must_use]
    pub fn mean(&self) -> VirtualNanos {
        let n = self.count();
        if n == 0 {
            VirtualNanos::ZERO
        } else {
            self.total() / n
        }
    }

    /// Per-bucket counts, `buckets()[i]` covering `[2^i, 2^(i+1)) ns`.
    #[must_use]
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed))
    }

    /// Folds another histogram's mass into this one, bucket by bucket —
    /// how a run-local histogram is mirrored into a registry-wide one.
    pub fn merge_from(&self, other: &VtHistogram) {
        for (i, c) in other.buckets().into_iter().enumerate() {
            if c > 0 {
                self.0.buckets[i].fetch_add(c, Ordering::Relaxed);
            }
        }
        self.0.total_ns.fetch_add(other.0.total_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The bucket index, within-bucket rank and bucket count covering the
    /// `p`-quantile sample, or `None` when the histogram is empty.
    fn covering_bucket(&self, p: f64) -> Option<(usize, u64, u64)> {
        let counts = self.buckets();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let want = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, c) in counts.iter().enumerate() {
            if seen + c >= want {
                return Some((i, want - seen, *c));
            }
            seen += c;
        }
        None
    }

    /// The `p`-quantile of the recorded samples (`p` clamped to `[0, 1]`),
    /// estimated by linear interpolation inside the covering log2 bucket.
    /// Zero when empty.
    ///
    /// **Exactness bound:** the true order statistic falls in the same
    /// bucket `[2^i, 2^(i+1))`, so the estimate is always within a factor
    /// of 2 of the exact quantile — and the computation is pure integer
    /// arithmetic, so identical bucket contents yield a bit-identical
    /// result regardless of recording order or thread count.
    #[must_use]
    pub fn quantile(&self, p: f64) -> VirtualNanos {
        let Some((i, rank, c)) = self.covering_bucket(p) else {
            return VirtualNanos::ZERO;
        };
        let lo: u64 = if i == 0 { 0 } else { 1u64 << i };
        let hi: u64 = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
        let span = hi - lo;
        // rank ∈ [1, c]: interpolate to the bucket's upper edge at rank == c.
        let off = ((u128::from(span) * u128::from(rank)) / u128::from(c.max(1))) as u64;
        VirtualNanos::from_nanos(lo + off)
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Time(TimeCounter),
    Histogram(VtHistogram),
}

impl Slot {
    fn type_name(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Time(_) => "time",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// The value of one metric in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// An event count.
    Count(u64),
    /// An instantaneous level.
    Level(i64),
    /// Accumulated virtual time.
    Time(VirtualNanos),
    /// Histogram summary: sample count, time total, interpolated p99
    /// ([`VtHistogram::quantile`]).
    Histogram {
        /// Samples recorded.
        count: u64,
        /// Sum of all samples.
        total: VirtualNanos,
        /// 99th percentile, interpolated inside its log2 bucket (within 2×
        /// of the exact order statistic).
        p99: VirtualNanos,
    },
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricValue::Count(n) => write!(f, "{n}"),
            MetricValue::Level(v) => write!(f, "{v}"),
            MetricValue::Time(d) => write!(f, "{d}"),
            MetricValue::Histogram { count, total, p99 } => {
                write!(f, "n={count} total={total} p99~{p99}")
            }
        }
    }
}

/// A point-in-time copy of every registered metric, ordered by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// The value of `name`, if registered.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.values.get(name)
    }

    /// Counter value of `name` (0 when absent or not a counter).
    #[must_use]
    pub fn count(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Count(n)) => *n,
            _ => 0,
        }
    }

    /// Gauge level of `name` (0 when absent or not a gauge).
    #[must_use]
    pub fn level(&self, name: &str) -> i64 {
        match self.values.get(name) {
            Some(MetricValue::Level(v)) => *v,
            _ => 0,
        }
    }

    /// Accumulated time of `name` (zero when absent; histograms report
    /// their total).
    #[must_use]
    pub fn time(&self, name: &str) -> VirtualNanos {
        match self.values.get(name) {
            Some(MetricValue::Time(d)) => *d,
            Some(MetricValue::Histogram { total, .. }) => *total,
            _ => VirtualNanos::ZERO,
        }
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates the metrics under a dot-separated `prefix`.
    pub fn with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a MetricValue)> + 'a {
        self.iter().filter(move |(name, _)| {
            name.strip_prefix(prefix)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
        })
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no metric is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A shared, cloneable registry of named metrics.
///
/// Looking up an existing handle takes a read lock (shared, so concurrent
/// workers resolving handles don't serialize); only the *first* creation
/// of a name takes the write lock. Recording through a handle is a single
/// atomic operation. Names are dot-separated paths
/// (`"frontend.prefetch.hits"`). Re-requesting a name returns a handle to
/// the same cell.
///
/// # Panics
///
/// Requesting an existing name as a *different* instrument type (e.g.
/// `gauge("x")` after `counter("x")`) panics: two layers disagreeing on a
/// metric's type is a wiring bug worth failing loudly on.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    slots: Arc<RwLock<BTreeMap<String, Slot>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry { slots: Arc::new(RwLock::new(LockLevel::Metrics, 0, BTreeMap::new())) }
    }

    fn slot(&self, name: &str, make: impl FnOnce() -> Slot) -> Slot {
        // Fast path: the name almost always exists already (handles are
        // created once and cached); a shared read suffices.
        if let Some(slot) = self.slots.read().get(name) {
            return slot.clone();
        }
        let mut slots = self.slots.write();
        slots.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        match self.slot(name, || Slot::Counter(Counter::new())) {
            Slot::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.type_name()),
        }
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.slot(name, || Slot::Gauge(Gauge::new())) {
            Slot::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.type_name()),
        }
    }

    /// The virtual-time accumulator named `name`, created on first use.
    #[must_use]
    pub fn time(&self, name: &str) -> TimeCounter {
        match self.slot(name, || Slot::Time(TimeCounter::new())) {
            Slot::Time(t) => t,
            other => panic!("metric {name:?} is a {}, not a time counter", other.type_name()),
        }
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> VtHistogram {
        match self.slot(name, || Slot::Histogram(VtHistogram::new())) {
            Slot::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.type_name()),
        }
    }

    /// Copies every registered metric into an ordered snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = self.slots.read();
        MetricsSnapshot {
            values: slots
                .iter()
                .map(|(name, slot)| {
                    let value = match slot {
                        Slot::Counter(c) => MetricValue::Count(c.get()),
                        Slot::Gauge(g) => MetricValue::Level(g.get()),
                        Slot::Time(t) => MetricValue::Time(t.get()),
                        Slot::Histogram(h) => MetricValue::Histogram {
                            count: h.count(),
                            total: h.total(),
                            p99: h.quantile(0.99),
                        },
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }

    /// Names currently registered, in order.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.slots.read().keys().cloned().collect()
    }

    /// Publishes a finished report: adds every count (into counters) and
    /// time (into time counters) under `{prefix}.{name}`, or `name` alone
    /// when `prefix` is empty. A zero entry registers no name.
    pub fn publish<'a>(
        &self,
        prefix: &str,
        counts: impl IntoIterator<Item = (&'a str, u64)>,
        times: impl IntoIterator<Item = (&'a str, VirtualNanos)>,
    ) {
        let full = |name: &str| {
            if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}.{name}")
            }
        };
        for (name, n) in counts {
            if n != 0 {
                self.counter(&full(name)).add(n);
            }
        }
        for (name, d) in times {
            if d > VirtualNanos::ZERO {
                self.time(&full(name)).add(d);
            }
        }
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_one_cell() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(reg.snapshot().count("x"), 3);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.add(5);
        g.sub(2);
        assert_eq!(reg.snapshot().level("depth"), 3);
        g.set(-1);
        assert_eq!(g.get(), -1);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn type_confusion_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = VtHistogram::new();
        for ns in [1u64, 2, 3, 1000, 1_000_000] {
            h.record(VirtualNanos::from_nanos(ns));
        }
        h.record(VirtualNanos::ZERO);
        assert_eq!(h.count(), 6);
        assert_eq!(h.total().as_nanos(), 1_001_006);
        assert!(h.mean().as_nanos() > 0);
        // The median sample (3 ns) falls in bucket [2,4).
        assert!(h.quantile(0.5).as_nanos() <= 7);
        assert!(h.quantile(1.0).as_nanos() >= 1_000_000);
        assert_eq!(VtHistogram::new().quantile(0.99), VirtualNanos::ZERO);
    }

    #[test]
    fn quantile_is_within_a_factor_of_two_of_the_exact_order_statistic() {
        // A deterministic long-tailed sample set exercising many buckets.
        let h = VtHistogram::new();
        let mut samples: Vec<u64> = Vec::new();
        let mut x = 0x9E37_79B9u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            // Spread over ~20 octaves.
            let s = 1 + (x >> 44) % (1 << 20);
            samples.push(s);
            h.record(VirtualNanos::from_nanos(s));
        }
        samples.sort_unstable();
        for p in [0.5, 0.9, 0.99, 0.999] {
            let idx = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[idx - 1];
            let est = h.quantile(p).as_nanos();
            // Same log2 bucket ⇒ strictly within a factor of 2.
            assert!(est >= exact / 2 && est <= exact * 2, "p={p}: est {est} vs exact {exact}");
            // And inside the covering bucket's range.
            let bucket = 63 - exact.leading_zeros();
            assert!(est >= 1 << bucket && est < (1u64 << (bucket + 1)), "p={p}");
        }
        // Degenerate single-bucket histogram: interpolation stays in range.
        let one = VtHistogram::new();
        one.record(VirtualNanos::from_nanos(5));
        let q = one.quantile(0.5).as_nanos();
        assert!((4..8).contains(&q), "got {q}");
    }

    #[test]
    fn snapshot_prefix_iteration_is_boundary_aware() {
        let reg = MetricsRegistry::new();
        reg.counter("frontend.batch.merges").inc();
        reg.counter("frontend.batches").inc(); // must NOT match prefix
        reg.time("frontend.batch.flush").add(VirtualNanos::from_nanos(1));
        let snap = reg.snapshot();
        let under: Vec<_> = snap.with_prefix("frontend.batch").map(|(n, _)| n).collect();
        assert_eq!(under, vec!["frontend.batch.flush", "frontend.batch.merges"]);
    }

    #[test]
    fn totals_are_exact_across_threads() {
        // T threads each add K ones to a counter, K nanos to a time
        // counter, and a balanced +1/-1 pair to a gauge preset to 5.
        let c = Counter::new();
        let t = TimeCounter::new();
        let g = Gauge::new();
        g.add(7);
        g.set(5);
        const T: usize = 16;
        const K: u64 = 1000;
        std::thread::scope(|s| {
            for _ in 0..T {
                let (c, t, g) = (c.clone(), t.clone(), g.clone());
                s.spawn(move || {
                    for _ in 0..K {
                        c.inc();
                        t.add(VirtualNanos::from_nanos(1));
                        g.add(1);
                        g.sub(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), T as u64 * K);
        assert_eq!(t.get().as_nanos(), T as u64 * K);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn registry_clones_share_slots() {
        let reg = MetricsRegistry::new();
        let clone = reg.clone();
        clone.counter("shared").add(4);
        assert_eq!(reg.snapshot().count("shared"), 4);
        assert_eq!(reg.names(), vec!["shared".to_string()]);
    }
}
