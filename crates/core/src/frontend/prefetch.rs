//! The frontend prefetch cache (§4.1).
//!
//! Frequent small reads (the host application walking DPU results block by
//! block) each cost a full guest↔VMM round trip, up to 53× overhead. The
//! frontend therefore keeps a per-DPU cache of 16 pages: a small read that
//! hits is served locally; a miss fetches a cache-sized segment starting at
//! the requested address. The cache is invalidated by `write-to-rank`,
//! program launches, and rank release — writes invalidate only the written
//! DPUs' segments, launch/release clear everything.

use simkit::Counter;

/// One DPU's cached MRAM segment.
#[derive(Debug, Clone)]
struct Segment {
    base: u64,
    data: Vec<u8>,
}

/// The per-device prefetch cache.
#[derive(Debug)]
pub struct PrefetchCache {
    capacity_bytes: u64,
    segments: Vec<Option<Segment>>,
    hits: Counter,
    misses: Counter,
    scoped_invalidations: Counter,
    global_invalidations: Counter,
}

impl PrefetchCache {
    /// Creates a cache for `nr_dpus` DPUs with `pages_per_dpu` pages each.
    #[must_use]
    pub fn new(nr_dpus: usize, pages_per_dpu: usize) -> Self {
        PrefetchCache {
            capacity_bytes: pages_per_dpu as u64 * 4096,
            segments: vec![None; nr_dpus],
            hits: Counter::new(),
            misses: Counter::new(),
            scoped_invalidations: Counter::new(),
            global_invalidations: Counter::new(),
        }
    }

    /// Replaces the hit/miss cells with registry-owned counters (e.g.
    /// `frontend.prefetch.hits` / `frontend.prefetch.misses`). Counts
    /// survive cache re-creation because the cells do.
    #[must_use]
    pub fn with_counters(mut self, hits: Counter, misses: Counter) -> Self {
        self.hits = hits;
        self.misses = misses;
        self
    }

    /// Replaces the invalidation cells with registry-owned counters
    /// (`frontend.prefetch.invalidations.scoped` / `.global`).
    #[must_use]
    pub fn with_invalidation_counters(mut self, scoped: Counter, global: Counter) -> Self {
        self.scoped_invalidations = scoped;
        self.global_invalidations = global;
        self
    }

    /// Cache segment size in bytes (the fetch granule).
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Whether a read of `len` bytes is small enough to be cacheable.
    #[must_use]
    pub fn cacheable(&self, len: u64) -> bool {
        len <= self.capacity_bytes
    }

    /// Attempts to serve a read from the cache. On a hit, appends the `len`
    /// cached bytes to `out` and returns `true`; on a miss, leaves `out`
    /// untouched and returns `false`. It allocates nothing itself: the only
    /// allocation is `out` growing, which a caller that sized `out` for
    /// `len` bytes up front does not pay.
    pub fn lookup_into(&mut self, dpu: usize, offset: u64, len: u64, out: &mut Vec<u8>) -> bool {
        let served = self.segments.get(dpu).and_then(Option::as_ref).and_then(|seg| {
            let end = offset.checked_add(len)?;
            // A segment installed near the top of the address space must
            // not wrap: an overflowing span is a miss, not a panic.
            let seg_end = seg.base.checked_add(seg.data.len() as u64)?;
            if offset >= seg.base && end <= seg_end {
                let lo = (offset - seg.base) as usize;
                Some(&seg.data[lo..lo + len as usize])
            } else {
                None
            }
        });
        match served {
            Some(data) => {
                out.extend_from_slice(data);
                self.hits.inc();
                true
            }
            None => {
                self.misses.inc();
                false
            }
        }
    }

    /// Attempts to serve a read from the cache, allocating the result.
    /// Convenience wrapper over [`lookup_into`](Self::lookup_into) for
    /// paths where the output buffer escapes anyway.
    pub fn lookup(&mut self, dpu: usize, offset: u64, len: u64) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(len as usize);
        self.lookup_into(dpu, offset, len, &mut out).then_some(out)
    }

    /// Installs a freshly fetched segment for `dpu`.
    pub fn install(&mut self, dpu: usize, base: u64, data: Vec<u8>) {
        if let Some(slot) = self.segments.get_mut(dpu) {
            *slot = Some(Segment { base, data });
        }
    }

    /// The `(base, len)` span of `dpu`'s resident segment, if any. The
    /// adaptive controller uses this to detect contiguous overrun misses.
    #[must_use]
    pub fn segment_span(&self, dpu: usize) -> Option<(u64, u64)> {
        let seg = self.segments.get(dpu).and_then(Option::as_ref)?;
        Some((seg.base, seg.data.len() as u64))
    }

    /// Invalidates every segment (launch or release).
    pub fn invalidate(&mut self) {
        for s in &mut self.segments {
            *s = None;
        }
        self.global_invalidations.inc();
    }

    /// Invalidates only the given DPUs' segments (write-to-rank: a write
    /// can only stale the data of the DPUs it touched).
    pub fn invalidate_dpus(&mut self, dpus: impl IntoIterator<Item = usize>) {
        for dpu in dpus {
            if let Some(slot) = self.segments.get_mut(dpu) {
                *slot = None;
            }
        }
        self.scoped_invalidations.inc();
    }

    /// `(hits, misses)` counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_after_install() {
        let mut c = PrefetchCache::new(4, 16);
        assert_eq!(c.lookup(1, 100, 8), None);
        c.install(1, 64, (0..255u8).collect());
        let got = c.lookup(1, 100, 8).unwrap();
        assert_eq!(got, ((100 - 64) as u8..(108 - 64) as u8).collect::<Vec<_>>());
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lookup_into_reuses_the_caller_buffer() {
        let mut c = PrefetchCache::new(1, 1);
        c.install(0, 0, (0..64u8).collect());
        let mut buf = Vec::with_capacity(64);
        for i in 0..8u64 {
            buf.clear();
            assert!(c.lookup_into(0, i * 8, 8, &mut buf));
            assert_eq!(buf[0], (i * 8) as u8);
            assert_eq!(buf.capacity(), 64, "the hot hit path must not reallocate");
        }
        assert_eq!(c.stats(), (8, 0));
    }

    #[test]
    fn partial_overlap_is_a_miss() {
        let mut c = PrefetchCache::new(1, 1);
        c.install(0, 0, vec![0u8; 4096]);
        assert!(c.lookup(0, 4090, 10).is_none());
        assert!(c.lookup(0, 0, 4096).is_some());
    }

    #[test]
    fn invalidate_clears_everything() {
        let mut c = PrefetchCache::new(2, 1);
        c.install(0, 0, vec![1; 16]);
        c.install(1, 0, vec![2; 16]);
        c.invalidate();
        assert!(c.lookup(0, 0, 1).is_none());
        assert!(c.lookup(1, 0, 1).is_none());
    }

    #[test]
    fn scoped_invalidation_spares_untouched_dpus() {
        let mut c = PrefetchCache::new(3, 1);
        for d in 0..3 {
            c.install(d, 0, vec![d as u8; 16]);
        }
        c.invalidate_dpus([0, 2]);
        assert!(c.lookup(0, 0, 1).is_none());
        assert_eq!(c.lookup(1, 0, 1), Some(vec![1]));
        assert!(c.lookup(2, 0, 1).is_none());
    }

    #[test]
    fn invalidation_counters_split_scoped_from_global() {
        let scoped = Counter::new();
        let global = Counter::new();
        let mut c = PrefetchCache::new(2, 1)
            .with_invalidation_counters(scoped.clone(), global.clone());
        c.invalidate_dpus([0]);
        c.invalidate_dpus([1]);
        c.invalidate();
        assert_eq!(scoped.get(), 2);
        assert_eq!(global.get(), 1);
    }

    #[test]
    fn cacheable_respects_capacity() {
        let c = PrefetchCache::new(1, 16);
        assert!(c.cacheable(16 * 4096));
        assert!(!c.cacheable(16 * 4096 + 1));
    }

    #[test]
    fn out_of_range_dpu_is_harmless() {
        let mut c = PrefetchCache::new(1, 1);
        assert!(c.lookup(9, 0, 1).is_none());
        c.install(9, 0, vec![1]); // silently ignored
        c.invalidate_dpus([9]); // likewise
    }

    #[test]
    fn overflowing_offsets_are_misses_not_panics() {
        let mut c = PrefetchCache::new(1, 1);
        c.install(0, 0, vec![0; 8]);
        assert!(c.lookup(0, u64::MAX, 2).is_none());
    }

    #[test]
    fn segment_installed_near_u64_max_is_a_miss_not_an_overflow() {
        // Regression: the hit test computed `seg.base + seg.data.len()`
        // unchecked, so a segment installed near the top of the address
        // space overflowed (panic in debug, bogus wrap-around hit in
        // release). The span must saturate into a miss instead.
        let mut c = PrefetchCache::new(1, 1);
        c.install(0, u64::MAX - 4, vec![0xAB; 8]); // base + len wraps
        assert!(c.lookup(0, u64::MAX - 4, 2).is_none());
        assert!(c.lookup(0, u64::MAX - 1, 1).is_none());
        // A non-wrapping segment that ends exactly at u64::MAX still hits.
        let mut c = PrefetchCache::new(1, 1);
        c.install(0, u64::MAX - 8, vec![0xCD; 8]);
        assert_eq!(c.lookup(0, u64::MAX - 8, 2), Some(vec![0xCD; 2]));
        assert_eq!(c.segment_span(0), Some((u64::MAX - 8, 8)));
    }
}
