//! The frontend request-batching buffer (§4.1).
//!
//! Data written to MRAM is not consumed until a program launches or a read
//! occurs, so small `write-to-rank` requests can be accumulated in a batch
//! buffer (64 pages per DPU) and flushed collectively — one interrupt for
//! many writes. Batching does not reduce total data-writing time; it
//! reduces the number of guest↔VMM transitions (NW: 10 000 → 402 context
//! switches in the paper).

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use simkit::Counter;

/// The writes one batch window buffered, in arrival order, their bytes
/// packed into one arena.
#[derive(Debug, Default)]
pub struct PendingWrites {
    /// `(dpu, mram offset, arena range)` per write.
    writes: Vec<(u32, u64, Range<usize>)>,
    arena: Vec<u8>,
}

impl PendingWrites {
    /// Whether no write is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// `(dpu, mram offset, data)` per write, in arrival order.
    #[must_use]
    pub fn views(&self) -> Vec<(u32, u64, &[u8])> {
        self.writes.iter().map(|(dpu, off, r)| (*dpu, *off, &self.arena[r.clone()])).collect()
    }

    /// Forgets every write, keeping the capacity.
    fn clear(&mut self) {
        self.writes.clear();
        self.arena.clear();
    }

    fn push(&mut self, dpu: u32, offset: u64, data: &[u8]) {
        let start = self.arena.len();
        self.arena.extend_from_slice(data);
        self.writes.push((dpu, offset, start..self.arena.len()));
    }
}

/// Hashes the dirty set's `(dpu, page)` keys with one multiply-rotate per
/// word: the keys come from the guest's own writes to its own DPUs, so
/// SipHash's flooding resistance buys nothing here.
#[derive(Debug, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.write_u64(u64::from(*b));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// The per-device batch buffer.
#[derive(Debug)]
pub struct BatchBuffer {
    capacity_per_dpu: u64,
    /// Effective per-DPU fill level that triggers a flush. Equal to
    /// `capacity_per_dpu` under the static policy; the adaptive controller
    /// (DESIGN.md §16) moves it within `[4096, capacity_per_dpu]`.
    flush_threshold: u64,
    used_per_dpu: Vec<u64>,
    pending: PendingWrites,
    /// `(dpu, page)` pairs already touched since the last flush — an append
    /// landing entirely on dirty pages is a *merge* (it rides along for
    /// free, page-wise, when the batch flushes).
    dirty_pages: HashSet<(u32, u64), BuildHasherDefault<PageHasher>>,
    appended: Counter,
    merges: Counter,
    flushes: Counter,
}

impl BatchBuffer {
    /// Creates a buffer for `nr_dpus` DPUs with `pages_per_dpu` pages each.
    #[must_use]
    pub fn new(nr_dpus: usize, pages_per_dpu: usize) -> Self {
        BatchBuffer {
            capacity_per_dpu: pages_per_dpu as u64 * 4096,
            flush_threshold: pages_per_dpu as u64 * 4096,
            used_per_dpu: vec![0; nr_dpus],
            pending: PendingWrites::default(),
            dirty_pages: HashSet::default(),
            appended: Counter::new(),
            merges: Counter::new(),
            flushes: Counter::new(),
        }
    }

    /// Replaces the append/merge/flush cells with registry-owned counters
    /// (e.g. `frontend.batch.appends` / `frontend.batch.merges` /
    /// `frontend.batch.flushes`). Counts survive buffer re-creation because
    /// the cells do.
    #[must_use]
    pub fn with_counters(mut self, appends: Counter, merges: Counter, flushes: Counter) -> Self {
        self.appended = appends;
        self.merges = merges;
        self.flushes = flushes;
        self
    }

    /// Per-DPU capacity in bytes.
    #[must_use]
    pub fn capacity_per_dpu(&self) -> u64 {
        self.capacity_per_dpu
    }

    /// The per-DPU fill level that currently triggers a flush.
    #[must_use]
    pub fn flush_threshold(&self) -> u64 {
        self.flush_threshold
    }

    /// Moves the flush threshold, clamped to `[4096, capacity_per_dpu]`.
    /// Lowering it below a DPU's current fill does not flush by itself;
    /// the next append to that DPU reports overflow and the caller flushes
    /// as usual.
    pub fn set_flush_threshold(&mut self, bytes: u64) {
        self.flush_threshold = bytes.clamp(4096, self.capacity_per_dpu);
    }

    /// Whether the buffer holds no writes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// True when `dpu`'s buffer cannot take `len` more bytes.
    #[must_use]
    pub fn would_overflow(&self, dpu: u32, len: u64) -> bool {
        match self.used_per_dpu.get(dpu as usize) {
            Some(used) => used + len > self.flush_threshold,
            None => true,
        }
    }

    /// Appends a small write. Returns `false` (without buffering) when the
    /// DPU's buffer would overflow — the caller must flush first.
    pub fn append(&mut self, dpu: u32, offset: u64, data: &[u8]) -> bool {
        if self.would_overflow(dpu, data.len() as u64) {
            return false;
        }
        self.used_per_dpu[dpu as usize] += data.len() as u64;
        let first = offset / 4096;
        let last = offset.saturating_add(data.len().saturating_sub(1) as u64) / 4096;
        let mut all_dirty = true;
        for page in first..=last {
            if self.dirty_pages.insert((dpu, page)) {
                all_dirty = false;
            }
        }
        if all_dirty {
            self.merges.inc();
        }
        self.pending.push(dpu, offset, data);
        self.appended.inc();
        true
    }

    /// Drains every buffered write, in arrival order (FIFO preserves
    /// overlapping-write semantics).
    pub fn drain(&mut self) -> PendingWrites {
        if !self.pending.is_empty() {
            self.flushes.inc();
        }
        for u in &mut self.used_per_dpu {
            *u = 0;
        }
        self.dirty_pages.clear();
        std::mem::take(&mut self.pending)
    }

    /// Takes back the writes [`drain`](Self::drain) handed out, once they
    /// are sent, so the next window appends into their capacity instead
    /// of growing fresh vectors. Dropped if writes arrived meanwhile.
    pub fn recycle(&mut self, mut sent: PendingWrites) {
        if self.pending.is_empty() {
            sent.clear();
            self.pending = sent;
        }
    }

    /// `(appends, flushes)` counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.appended.get(), self.flushes.get())
    }

    /// Appends whose target pages were all already dirty (write-combining
    /// opportunities within one batch window).
    #[must_use]
    pub fn merges(&self) -> u64 {
        self.merges.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_until_capacity() {
        let mut b = BatchBuffer::new(2, 1); // 4096 B per DPU
        assert!(b.append(0, 0, &[1u8; 4000]));
        assert!(!b.append(0, 4000, &[1u8; 100]));
        assert!(b.append(1, 0, &[2u8; 4096]));
        let drained = b.drain();
        let lens: Vec<usize> = drained.views().iter().map(|(_, _, d)| d.len()).collect();
        assert_eq!(lens, [4000, 4096]);
    }

    #[test]
    fn drain_resets_and_preserves_order() {
        let mut b = BatchBuffer::new(1, 1);
        b.append(0, 0, &[1]);
        b.append(0, 1, &[2]);
        let drained = b.drain();
        assert_eq!(drained.views(), [(0, 0, &[1u8][..]), (0, 1, &[2u8][..])]);
        assert!(b.is_empty());
        // Capacity restored.
        assert!(b.append(0, 0, &[0u8; 4096]));
        assert_eq!(b.stats(), (3, 1));
    }

    #[test]
    fn a_recycled_window_starts_empty_and_a_busy_one_keeps_its_writes() {
        let mut b = BatchBuffer::new(1, 1);
        b.append(0, 0, &[1, 2]);
        let sent = b.drain();
        b.recycle(sent);
        assert!(b.is_empty());
        b.append(0, 8, &[3]);
        assert_eq!(b.drain().views(), [(0, 8, &[3u8][..])]);
        b.append(0, 0, &[4]);
        let sent = b.drain();
        b.append(0, 16, &[5]);
        b.recycle(sent);
        assert_eq!(b.drain().views(), [(0, 16, &[5u8][..])]);
    }

    #[test]
    fn unknown_dpu_overflows() {
        let b = BatchBuffer::new(1, 1);
        assert!(b.would_overflow(5, 1));
    }

    #[test]
    fn writes_landing_on_dirty_pages_count_as_merges() {
        let mut b = BatchBuffer::new(1, 4);
        assert!(b.append(0, 0, &[1u8; 64])); // page 0: fresh
        assert!(b.append(0, 64, &[2u8; 64])); // page 0 again: merge
        assert!(b.append(0, 4096, &[3u8; 64])); // page 1: fresh
        assert!(b.append(0, 4000, &[4u8; 200])); // spans pages 0–1, both dirty: merge
        assert_eq!(b.merges(), 2);
        b.drain();
        // The dirty set clears with the batch window.
        assert!(b.append(0, 0, &[5u8; 64]));
        assert_eq!(b.merges(), 2);
    }

    #[test]
    fn flush_threshold_clamps_and_gates_appends() {
        let mut b = BatchBuffer::new(1, 4); // 16 KiB capacity
        assert_eq!(b.flush_threshold(), 4 * 4096);
        b.set_flush_threshold(8192);
        assert!(b.append(0, 0, &[1u8; 8192]));
        assert!(!b.append(0, 8192, &[1u8; 1])); // over the lowered threshold
        b.set_flush_threshold(u64::MAX); // clamped to capacity
        assert_eq!(b.flush_threshold(), 4 * 4096);
        assert!(b.append(0, 8192, &[1u8; 8192]));
        b.set_flush_threshold(0); // clamped to one page
        assert_eq!(b.flush_threshold(), 4096);
        b.drain();
        assert!(b.append(0, 0, &[1u8; 4096]));
        assert!(!b.append(0, 4096, &[1u8; 1]));
    }

    #[test]
    fn empty_drain_is_not_a_flush() {
        let mut b = BatchBuffer::new(1, 1);
        assert!(b.drain().is_empty());
        assert_eq!(b.stats(), (0, 0));
    }
}
