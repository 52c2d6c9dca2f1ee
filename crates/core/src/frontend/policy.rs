//! Pure policy state machines for the adaptive frontend controller.
//!
//! These types hold *no* clocks, locks, or randomness: every transition is
//! a pure function of the event stream the frontend feeds them (hits,
//! misses, retired fetches, inter-append virtual gaps). That purity is the
//! determinism argument of DESIGN.md §16 — the per-frontend event stream
//! is fixed by the workload's program order and virtual-time costs, so the
//! policies reach identical decisions under Sequential and Parallel
//! dispatch and under any worker-thread count. It also makes the machines
//! directly drivable by property tests, with no system around them.

/// Bytes per MRAM page (the policy granule throughout the frontend).
pub const PAGE: u64 = 4096;

/// Smallest prefetch window, in pages per DPU, the controller may pick.
pub const MIN_WINDOW_PAGES: u32 = 1;
/// Largest prefetch window, in pages per DPU, the controller may pick.
pub const MAX_WINDOW_PAGES: u32 = 64;
/// Consecutive same-DPU hits that mark a stream; the next contiguous
/// overrun miss then doubles the window.
pub const GROW_HIT_RUN: u32 = 8;
/// A retired fetch that served less than this percentage of its bytes
/// shrinks the window to the observed need.
pub const SHRINK_WASTE_PCT: u64 = 25;
/// Floor for the adaptive batch flush threshold, in pages per DPU.
pub const MIN_BATCH_PAGES: u32 = 16;
/// Ceiling for the adaptive batch flush threshold, in pages per DPU (also
/// the allocated buffer capacity while the controller runs).
pub const MAX_BATCH_PAGES: u32 = 256;
/// Consecutive burst-gap appends before the flush threshold doubles (the
/// tenant is bursting; widen the window).
pub const BURST_GROW_RUN: u32 = 32;
/// An inter-append virtual gap at or above this means the tenant went
/// idle: flush pending writes early and halve the threshold.
pub const IDLE_GAP_NS: u64 = 200_000;
/// An inter-append virtual gap at or below this counts toward a burst run.
pub const BURST_GAP_NS: u64 = 5_000;

/// Pages needed to hold `bytes` (at least one).
#[must_use]
pub fn pages_for(bytes: u64) -> u32 {
    bytes.div_ceil(PAGE).clamp(1, u32::MAX as u64) as u32
}

/// The prefetch-window resizer.
///
/// The window is the number of pages a cacheable miss fetches per DPU.
/// Two signals move it, and they cannot fire on the same event:
///
/// * **shrink** — a retired fetch served less than [`SHRINK_WASTE_PCT`]% of
///   its bytes; the window jumps down to the observed need (the RED /
///   HST-S pathology: 256 B read once out of a 64 KiB fetch);
/// * **grow** — a miss lands exactly at the end of a DPU's resident
///   segment after a run of [`GROW_HIT_RUN`] hits on that DPU (a stream has
///   outrun the window); the window doubles.
///
/// The window never leaves `[MIN_WINDOW_PAGES, MAX_WINDOW_PAGES]`, and on
/// a steady trace (constant served size, or pure streaming) it converges
/// and stays put — see the property tests in `tests/adapt_determinism.rs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowPolicy {
    window_pages: u32,
    /// Consecutive hits on `run_dpu` since its last miss.
    hit_run: u32,
    run_dpu: Option<u32>,
}

/// What a [`WindowPolicy`] event did to the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowMove {
    /// The window did not change.
    Hold,
    /// The window grew to the contained number of pages.
    Grew(u32),
    /// The window shrank to the contained number of pages.
    Shrank(u32),
}

impl WindowPolicy {
    /// Creates the resizer at `initial_pages` (clamped into the bounds).
    #[must_use]
    pub fn new(initial_pages: u32) -> Self {
        WindowPolicy {
            window_pages: initial_pages.clamp(MIN_WINDOW_PAGES, MAX_WINDOW_PAGES),
            hit_run: 0,
            run_dpu: None,
        }
    }

    /// Current window in pages.
    #[must_use]
    pub fn window_pages(&self) -> u32 {
        self.window_pages
    }

    /// Current window in bytes (the miss fetch granule).
    #[must_use]
    pub fn window_bytes(&self) -> u64 {
        self.window_pages as u64 * PAGE
    }

    /// A cache hit on `dpu`: extends that DPU's hit run.
    pub fn on_hit(&mut self, dpu: u32) {
        if self.run_dpu == Some(dpu) {
            self.hit_run = self.hit_run.saturating_add(1);
        } else {
            self.run_dpu = Some(dpu);
            self.hit_run = 1;
        }
    }

    /// A miss on `dpu` landing exactly at the end of its resident segment.
    /// After a long enough hit run on that DPU this is a stream outrunning
    /// the window: double it.
    pub fn on_overrun_miss(&mut self, dpu: u32) -> WindowMove {
        let streaming = self.run_dpu == Some(dpu) && self.hit_run >= GROW_HIT_RUN;
        self.run_dpu = None;
        self.hit_run = 0;
        if streaming && self.window_pages < MAX_WINDOW_PAGES {
            self.window_pages = (self.window_pages.saturating_mul(2)).min(MAX_WINDOW_PAGES);
            WindowMove::Grew(self.window_pages)
        } else {
            WindowMove::Hold
        }
    }

    /// A miss anywhere else: breaks the hit run.
    pub fn on_plain_miss(&mut self) {
        self.run_dpu = None;
        self.hit_run = 0;
    }

    /// A fetch retired having served `served` of its `fetched` bytes.
    /// Mostly-wasted fetches jump the window down to the observed need.
    pub fn on_fetch_retired(&mut self, fetched: u64, served: u64) -> WindowMove {
        if fetched == 0 {
            return WindowMove::Hold;
        }
        let wasted = served.saturating_mul(100) < fetched.saturating_mul(SHRINK_WASTE_PCT);
        let need = pages_for(served.max(1)).max(MIN_WINDOW_PAGES);
        if wasted && need < self.window_pages {
            self.window_pages = need;
            WindowMove::Shrank(self.window_pages)
        } else {
            WindowMove::Hold
        }
    }
}

/// The batch-flush-threshold adapter.
///
/// The frontend reports the virtual gap between consecutive batched
/// writes. A gap of [`IDLE_GAP_NS`] or more means the tenant went idle
/// with writes parked in the buffer — flush them now and halve the
/// threshold so the next idle period parks less. A run of
/// [`BURST_GROW_RUN`] gaps at or under [`BURST_GAP_NS`] means the tenant is
/// bursting — double the threshold (up to [`MAX_BATCH_PAGES`], the
/// allocated capacity) so more writes ride one interrupt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPolicy {
    threshold_pages: u32,
    burst_run: u32,
}

/// What a [`BatchPolicy`] gap observation asks the frontend to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchAction {
    /// Keep buffering.
    Keep,
    /// Flush the pending batch before appending (the tenant was idle).
    FlushFirst,
}

impl BatchPolicy {
    /// Creates the adapter at `initial_pages` (clamped into the bounds).
    #[must_use]
    pub fn new(initial_pages: u32) -> Self {
        BatchPolicy {
            threshold_pages: initial_pages.clamp(MIN_BATCH_PAGES, MAX_BATCH_PAGES),
            burst_run: 0,
        }
    }

    /// Current flush threshold in pages.
    #[must_use]
    pub fn threshold_pages(&self) -> u32 {
        self.threshold_pages
    }

    /// Current flush threshold in bytes.
    #[must_use]
    pub fn threshold_bytes(&self) -> u64 {
        self.threshold_pages as u64 * PAGE
    }

    /// Observes the virtual gap (nanoseconds) since the previous batched
    /// write; `has_pending` is whether writes are parked in the buffer.
    pub fn on_append_gap(&mut self, gap_ns: u64, has_pending: bool) -> BatchAction {
        if gap_ns >= IDLE_GAP_NS {
            self.burst_run = 0;
            self.threshold_pages = (self.threshold_pages / 2).max(MIN_BATCH_PAGES);
            if has_pending {
                return BatchAction::FlushFirst;
            }
        } else if gap_ns <= BURST_GAP_NS {
            self.burst_run += 1;
            if self.burst_run >= BURST_GROW_RUN {
                self.burst_run = 0;
                self.threshold_pages = self.threshold_pages.saturating_mul(2).min(MAX_BATCH_PAGES);
            }
        } else {
            self.burst_run = 0;
        }
        BatchAction::Keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wasted_fetch_jumps_window_to_need() {
        let mut w = WindowPolicy::new(16);
        // RED shape: 64 KiB fetched, 256 B served once.
        assert_eq!(w.on_fetch_retired(16 * PAGE, 256), WindowMove::Shrank(1));
        assert_eq!(w.window_pages(), 1);
        // Same trace again: already at need, holds (no oscillation).
        assert_eq!(w.on_fetch_retired(PAGE, 256), WindowMove::Hold);
    }

    #[test]
    fn well_used_fetch_holds_the_window() {
        let mut w = WindowPolicy::new(16);
        assert_eq!(w.on_fetch_retired(16 * PAGE, 8 * PAGE), WindowMove::Hold);
        assert_eq!(w.window_pages(), 16);
    }

    #[test]
    fn streaming_overrun_doubles_until_max() {
        let mut w = WindowPolicy::new(16);
        for round in 0..4 {
            for _ in 0..8 {
                w.on_hit(3);
            }
            let mv = w.on_overrun_miss(3);
            if round < 2 {
                assert!(matches!(mv, WindowMove::Grew(_)), "round {round}: {mv:?}");
            }
        }
        assert_eq!(w.window_pages(), 64); // 16 → 32 → 64, then capped
    }

    #[test]
    fn overrun_without_a_hit_run_is_not_a_stream() {
        let mut w = WindowPolicy::new(16);
        w.on_hit(0);
        assert_eq!(w.on_overrun_miss(0), WindowMove::Hold);
        // A run on a different DPU does not qualify either.
        for _ in 0..20 {
            w.on_hit(1);
        }
        assert_eq!(w.on_overrun_miss(2), WindowMove::Hold);
        assert_eq!(w.window_pages(), 16);
    }

    #[test]
    fn plain_miss_breaks_the_run() {
        let mut w = WindowPolicy::new(16);
        for _ in 0..8 {
            w.on_hit(0);
        }
        w.on_plain_miss();
        assert_eq!(w.on_overrun_miss(0), WindowMove::Hold);
    }

    #[test]
    fn idle_gap_flushes_and_halves() {
        let mut b = BatchPolicy::new(64);
        assert_eq!(b.on_append_gap(200_000, true), BatchAction::FlushFirst);
        assert_eq!(b.threshold_pages(), 32);
        // Nothing pending: threshold still adapts, no flush requested.
        assert_eq!(b.on_append_gap(200_000, false), BatchAction::Keep);
        assert_eq!(b.threshold_pages(), 16);
        // Floor.
        for _ in 0..10 {
            b.on_append_gap(1_000_000, false);
        }
        assert_eq!(b.threshold_pages(), 16);
    }

    #[test]
    fn burst_runs_widen_the_threshold() {
        let mut b = BatchPolicy::new(64);
        for _ in 0..32 {
            assert_eq!(b.on_append_gap(1_000, true), BatchAction::Keep);
        }
        assert_eq!(b.threshold_pages(), 128);
        // A mid-range gap resets the run without moving the threshold.
        for _ in 0..31 {
            b.on_append_gap(1_000, true);
        }
        b.on_append_gap(50_000, true);
        assert_eq!(b.threshold_pages(), 128);
        for _ in 0..64 {
            b.on_append_gap(0, true);
        }
        assert_eq!(b.threshold_pages(), 256); // capped at max
        for _ in 0..64 {
            b.on_append_gap(0, true);
        }
        assert_eq!(b.threshold_pages(), 256);
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), 1);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(PAGE), 1);
        assert_eq!(pages_for(PAGE + 1), 2);
        assert_eq!(pages_for(256), 1);
    }
}
