//! The adaptive frontend controller (DESIGN.md §16).
//!
//! `AdaptState` closes the loop between the telemetry the frontend already
//! produces (hits, misses, fetch utilization, inter-op virtual gaps) and
//! the two data-path policies that were static in the paper: the prefetch
//! window and the batch flush threshold. It lives inside the frontend's
//! state mutex and is driven synchronously by the operation stream, so —
//! like the [`policy`](super::policy) machines it wraps — every decision
//! is a pure function of the per-frontend program order and virtual-time
//! costs: Sequential and Parallel dispatch observe the same stream and
//! make the same moves.
//!
//! Three mechanisms (§16 "actuation points"):
//!
//! * **window resizing** — cacheable misses fetch `window_bytes()` instead
//!   of the static cache capacity; retired fetches feed their utilization
//!   back, so one wasted 64 KiB fetch (the RED / HST-S single-pass
//!   pattern) shrinks every later DPU's fetch to the observed need, and
//!   streaming hit runs grow the window back;
//! * **write-then-read-back suppression** — per-DPU dirty extents are
//!   recorded on every write; a miss inside a DPU's dirty extent flips
//!   prefetch off for that DPU (reads go exact-length, nothing is
//!   installed) until a clean miss or a launch clears the pattern;
//! * **batch threshold adaptation** — the virtual gap between consecutive
//!   batched appends moves the flush threshold: idle gaps flush the parked
//!   writes and halve it, burst runs double it toward the allocated
//!   maximum.

use simkit::{Counter, Gauge, MetricsRegistry};


use super::policy::{BatchAction, BatchPolicy, WindowMove, WindowPolicy, PAGE};

/// Registry-owned cells the controller publishes into (`frontend.adapt.*`).
/// Window/threshold levels are gauges (set at decision points, which are
/// serialized under the frontend state lock); everything else counts.
#[derive(Debug, Clone)]
pub struct AdaptMetrics {
    window_pages: Gauge,
    batch_pages: Gauge,
    grows: Counter,
    shrinks: Counter,
    flips: Counter,
    early_flushes: Counter,
    saved_bytes: Counter,
    extra_bytes: Counter,
}

impl AdaptMetrics {
    /// Creates the cells in `registry`, with per-device gauge names.
    #[must_use]
    pub fn from_registry(registry: &MetricsRegistry, device_idx: usize) -> Self {
        AdaptMetrics {
            window_pages: registry.gauge(&format!("frontend.adapt.window.pages.rank{device_idx}")),
            batch_pages: registry.gauge(&format!("frontend.adapt.batch.pages.rank{device_idx}")),
            grows: registry.counter("frontend.adapt.window.grows"),
            shrinks: registry.counter("frontend.adapt.window.shrinks"),
            flips: registry.counter("frontend.adapt.prefetch.flips"),
            early_flushes: registry.counter("frontend.adapt.batch.early_flushes"),
            saved_bytes: registry.counter("frontend.adapt.bytes.saved"),
            extra_bytes: registry.counter("frontend.adapt.bytes.extra"),
        }
    }
}

/// One DPU's controller-visible state.
#[derive(Debug, Clone, Default)]
struct DpuAdapt {
    /// `[lo, hi)` extent dirtied by writes since the last launch/release.
    dirty: Option<(u64, u64)>,
    /// Prefetch suppressed for this DPU (write-then-read-back detected).
    prefetch_off: bool,
    /// The DPU's resident fetch, if its utilization is still unassessed.
    fetch: Option<FetchStats>,
}

#[derive(Debug, Clone)]
struct FetchStats {
    fetched: u64,
    served: u64,
}

/// What the read path should do about a cacheable miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MissPlan {
    /// Bytes to fetch starting at the missed offset (before the caller
    /// clamps to MRAM bounds). Equal to the request length when `install`
    /// is false.
    pub fetch_bytes: u64,
    /// Whether to install the fetched segment in the cache.
    pub install: bool,
}

/// The per-frontend feedback controller. Created by
/// [`Frontend::initialize`](super::Frontend::initialize) when
/// `VpimConfig.adapt.enabled`; absent otherwise, leaving the static
/// policies byte-identical to the pre-controller system.
#[derive(Debug)]
pub struct AdaptState {
    window: WindowPolicy,
    batch: BatchPolicy,
    dpus: Vec<DpuAdapt>,
    /// DPU of the most recent install (assessed on the next miss, so a
    /// wasted fetch on DPU *k* shrinks DPU *k+1*'s fetch — cross-DPU
    /// learning for single-pass result walks).
    last_fetch: Option<u32>,
    /// Virtual time accumulated from completed op reports.
    vt_now_ns: u64,
    /// `vt_now_ns` at the previous batched append, once one happened.
    last_append_vt_ns: Option<u64>,
    metrics: AdaptMetrics,
}

impl AdaptState {
    /// Builds the controller, starting from the static policies' sizes.
    #[must_use]
    pub fn new(
        initial_window_pages: u32,
        initial_batch_pages: u32,
        nr_dpus: usize,
        metrics: AdaptMetrics,
    ) -> Self {
        let window = WindowPolicy::new(initial_window_pages);
        let batch = BatchPolicy::new(initial_batch_pages);
        metrics.window_pages.set(i64::from(window.window_pages()));
        metrics.batch_pages.set(i64::from(batch.threshold_pages()));
        AdaptState {
            window,
            batch,
            dpus: vec![DpuAdapt::default(); nr_dpus],
            last_fetch: None,
            vt_now_ns: 0,
            last_append_vt_ns: None,
            metrics,
        }
    }

    /// Current prefetch window in pages (for tests and debugging).
    #[must_use]
    pub fn window_pages(&self) -> u32 {
        self.window.window_pages()
    }

    /// Current batch flush threshold in bytes.
    #[must_use]
    pub fn batch_threshold_bytes(&self) -> u64 {
        self.batch.threshold_bytes()
    }

    /// Advances the controller's virtual clock by a completed op's
    /// duration (the "operation boundary" sample point).
    pub(crate) fn tick(&mut self, d: simkit::VirtualNanos) {
        self.vt_now_ns = self.vt_now_ns.saturating_add(d.as_nanos());
    }

    /// Observes a batched append about to happen; returns `true` when the
    /// parked batch should flush first (the tenant was idle).
    pub(crate) fn observe_append_gap(&mut self, has_pending: bool) -> bool {
        let gap = match self.last_append_vt_ns {
            Some(prev) => self.vt_now_ns.saturating_sub(prev),
            // The first append ever has no gap to learn from.
            None => 0,
        };
        self.last_append_vt_ns = Some(self.vt_now_ns);
        let action = self.batch.on_append_gap(gap, has_pending);
        self.metrics.batch_pages.set(i64::from(self.batch.threshold_pages()));
        match action {
            BatchAction::FlushFirst => {
                self.metrics.early_flushes.inc();
                true
            }
            BatchAction::Keep => false,
        }
    }

    /// Records a write (batched or direct) to `dpu`'s `[offset,
    /// offset+len)`, widening its dirty extent.
    pub(crate) fn note_write(&mut self, dpu: u32, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        if let Some(d) = self.dpus.get_mut(dpu as usize) {
            let hi = offset.saturating_add(len);
            d.dirty = Some(match d.dirty {
                Some((lo0, hi0)) => (lo0.min(offset), hi0.max(hi)),
                None => (offset, hi),
            });
        }
    }

    /// A cache hit on `dpu`: feeds the window's hit run and the resident
    /// fetch's utilization.
    pub(crate) fn on_hit(&mut self, dpu: u32, len: u64) {
        self.window.on_hit(dpu);
        if let Some(f) = self.dpus.get_mut(dpu as usize).and_then(|d| d.fetch.as_mut()) {
            f.served = f.served.saturating_add(len);
        }
    }

    /// A cacheable miss on `dpu` at `offset`/`len`; `span` is the DPU's
    /// resident segment (for overrun detection). Decides what to fetch.
    pub(crate) fn on_miss(
        &mut self,
        dpu: u32,
        offset: u64,
        len: u64,
        span: Option<(u64, u64)>,
    ) -> MissPlan {
        // 1. Assess the most recent fetch: a mostly-wasted one shrinks the
        //    window before we size this miss's fetch.
        if let Some(prev) = self.last_fetch.take() {
            self.assess_fetch(prev as usize);
        }

        // 2. Write-then-read-back: a miss inside this DPU's dirty extent
        //    means we would refetch data the guest just wrote. Suppress
        //    prefetch for the DPU until the pattern clears.
        let in_dirty = self
            .dpus
            .get(dpu as usize)
            .and_then(|d| d.dirty)
            .is_some_and(|(lo, hi)| offset < hi && offset.saturating_add(len) > lo);
        let d = match self.dpus.get_mut(dpu as usize) {
            Some(d) => d,
            None => return MissPlan { fetch_bytes: len, install: false },
        };
        if in_dirty {
            if !d.prefetch_off {
                d.prefetch_off = true;
                self.metrics.flips.inc();
            }
            self.window.on_plain_miss();
            return MissPlan { fetch_bytes: len, install: false };
        }
        if d.prefetch_off {
            // A clean miss: the read-back pattern has moved on.
            d.prefetch_off = false;
            self.metrics.flips.inc();
        }

        // 3. Streaming detection: a miss landing exactly at the end of the
        //    resident segment after a hit run doubles the window.
        let overrun = span.and_then(|(b, l)| b.checked_add(l)).is_some_and(|end| offset == end);
        let mv = if overrun {
            self.window.on_overrun_miss(dpu)
        } else {
            self.window.on_plain_miss();
            WindowMove::Hold
        };
        self.note_move(mv);

        MissPlan { fetch_bytes: self.window.window_bytes().max(len), install: true }
    }

    /// Records the segment actually installed for `dpu` after a miss:
    /// `fetched` bytes, of which the missing read itself consumed
    /// `first_served`.
    pub(crate) fn note_install(&mut self, dpu: u32, fetched: u64, first_served: u64) {
        if let Some(d) = self.dpus.get_mut(dpu as usize) {
            d.fetch = Some(FetchStats { fetched, served: first_served });
            self.last_fetch = Some(dpu);
        }
    }

    /// Accounts an adaptive fetch decision against what the static policy
    /// would have transferred.
    pub(crate) fn note_fetch_delta(&mut self, static_bytes: u64, actual_bytes: u64) {
        if actual_bytes < static_bytes {
            self.metrics.saved_bytes.add(static_bytes - actual_bytes);
        } else {
            self.metrics.extra_bytes.add(actual_bytes - static_bytes);
        }
    }

    /// A launch/release barrier: DPU programs rewrite MRAM, so dirty
    /// extents and read-back suppression reset, and every resident fetch
    /// retires (feeding the window its utilization). Learned levels — the
    /// window and the batch threshold — persist across barriers; that
    /// persistence is what pays on the second and later queries.
    pub(crate) fn on_barrier(&mut self) {
        self.last_fetch = None;
        for i in 0..self.dpus.len() {
            self.assess_fetch(i);
            let d = &mut self.dpus[i];
            d.dirty = None;
            d.prefetch_off = false;
            d.fetch = None;
        }
    }

    fn assess_fetch(&mut self, dpu: usize) {
        let Some(stats) = self.dpus.get_mut(dpu).and_then(|d| d.fetch.take()) else {
            return;
        };
        // A fetch no larger than one window page can't shrink anything.
        if stats.fetched > PAGE {
            let mv = self.window.on_fetch_retired(stats.fetched, stats.served);
            self.note_move(mv);
        }
    }

    fn note_move(&mut self, mv: WindowMove) {
        match mv {
            WindowMove::Hold => {}
            WindowMove::Grew(p) => {
                self.metrics.grows.inc();
                self.metrics.window_pages.set(i64::from(p));
            }
            WindowMove::Shrank(p) => {
                self.metrics.shrinks.inc();
                self.metrics.window_pages.set(i64::from(p));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(nr_dpus: usize) -> AdaptState {
        let reg = MetricsRegistry::new();
        AdaptState::new(16, 64, nr_dpus, AdaptMetrics::from_registry(&reg, 0))
    }

    #[test]
    fn cross_dpu_waste_shrinks_the_next_fetch() {
        let mut a = state(4);
        // DPU 0 misses: full 16-page window.
        let p = a.on_miss(0, 0, 256, None);
        assert_eq!(p, MissPlan { fetch_bytes: 16 * PAGE, install: true });
        a.note_install(0, 16 * PAGE, 256);
        // DPU 1 misses: DPU 0's fetch is assessed (256 / 64 KiB served),
        // the window jumps to the observed need.
        let p = a.on_miss(1, 0, 256, None);
        assert_eq!(p, MissPlan { fetch_bytes: PAGE, install: true });
        a.note_install(1, PAGE, 256);
        // DPU 2: DPU 1's one-page fetch can't shrink further; stable.
        let p = a.on_miss(2, 0, 256, None);
        assert_eq!(p, MissPlan { fetch_bytes: PAGE, install: true });
        assert_eq!(a.window_pages(), 1);
    }

    #[test]
    fn dirty_read_back_suppresses_prefetch_until_clean_miss() {
        let mut a = state(2);
        a.note_write(0, 1000, 500);
        let p = a.on_miss(0, 1200, 64, None);
        assert_eq!(p, MissPlan { fetch_bytes: 64, install: false });
        assert!(a.dpus[0].prefetch_off);
        // The other DPU is unaffected.
        assert!(!a.dpus[1].prefetch_off);
        // A clean miss on DPU 0 clears the pattern and fetches windowed.
        let p = a.on_miss(0, 1_000_000, 64, None);
        assert!(p.install);
        assert!(!a.dpus[0].prefetch_off);
    }

    #[test]
    fn barrier_clears_dirty_state_but_keeps_the_window() {
        let mut a = state(2);
        let _ = a.on_miss(0, 0, 256, None);
        a.note_install(0, 16 * PAGE, 256);
        let _ = a.on_miss(1, 0, 256, None); // assessed: window shrinks
        assert_eq!(a.window_pages(), 1);
        a.note_write(0, 0, 128);
        a.on_barrier();
        assert!(!a.dpus[0].prefetch_off);
        // Dirty extent gone: a read over the old extent is a normal miss.
        let p = a.on_miss(0, 0, 256, None);
        assert!(p.install);
        // The learned window survived the barrier.
        assert_eq!(a.window_pages(), 1);
    }

    #[test]
    fn barrier_assesses_unretired_fetches() {
        let mut a = state(2);
        let _ = a.on_miss(0, 0, 256, None);
        a.note_install(0, 16 * PAGE, 256);
        assert_eq!(a.window_pages(), 16);
        a.on_barrier(); // retires DPU 0's wasted fetch
        assert_eq!(a.window_pages(), 1);
    }

    #[test]
    fn append_gaps_move_the_batch_threshold() {
        let mut a = state(1);
        assert_eq!(a.batch_threshold_bytes(), 64 * PAGE);
        assert!(!a.observe_append_gap(true)); // first append: no gap yet
        a.tick(simkit::VirtualNanos::from_micros(500));
        assert!(a.observe_append_gap(true)); // idle gap: flush first
        assert_eq!(a.batch_threshold_bytes(), 32 * PAGE);
        // A long burst doubles it back.
        for _ in 0..32 {
            a.tick(simkit::VirtualNanos::from_nanos(100));
            assert!(!a.observe_append_gap(true));
        }
        assert_eq!(a.batch_threshold_bytes(), 64 * PAGE);
    }
}
