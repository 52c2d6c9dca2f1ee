//! A thread-aware scratch-buffer pool for the zero-allocation data path.
//!
//! vPIM's transfer hot path (§4.1–§4.2) touches a buffer at every hop:
//! serializer scratch in the frontend, per-DPU staging in the backend, and
//! the interleave working set. Allocating those buffers fresh per operation
//! puts `malloc` + page faults + memset on the critical path of every rank
//! transfer. [`BytePool`] recycles them instead: buffers are size-classed
//! (powers of two), parked on small per-thread-shard stacks, and handed out
//! as RAII [`PoolGuard`]s that return themselves on drop.
//!
//! Design points:
//!
//! * **Size classes** — a request of `len` bytes is served from the
//!   smallest power-of-two class ≥ `len` (min 64 B, max 64 MiB). Requests
//!   above the largest class fall back to a plain allocation that is not
//!   recycled (they are far beyond any per-DPU transfer this stack issues).
//! * **Thread-aware sharding** — free lists are split into [`SHARDS`]
//!   shards indexed by a per-thread slot, so concurrent backend workers
//!   rarely contend on one mutex. A take that misses its own shard steals
//!   from the others before allocating.
//! * **Bounded** — each (shard, class) stack keeps at most a handful of
//!   buffers; returns beyond the bound free the buffer, so the pool's
//!   resident set is capped instead of high-watermarking.
//! * **Dirty reuse** — recycled buffers keep their previous contents
//!   (zeroing them would re-introduce the memset the pool exists to avoid).
//!   Callers must fully overwrite a guard before reading it back; use
//!   [`BytePool::take_zeroed`] when that contract cannot be met.
//! * **Telemetry** — `take` accounting (`hits`/`misses`/`bytes`) and an
//!   `outstanding` gauge (guards taken minus guards dropped) can be bound
//!   to a [`MetricsRegistry`] with [`BytePool::with_registry`]; the gauge
//!   is the pool-leak ("drop balance") check CI gates on. Note that under
//!   concurrency the hit/miss *split* depends on thread interleaving; only
//!   `hits + misses` (total takes), `bytes`, and the drained `outstanding`
//!   level are deterministic quantities.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::telemetry::{Counter, Gauge, MetricsRegistry};

/// Smallest size class, log2 (64 B — one DDR burst line).
const MIN_CLASS_SHIFT: u32 = 6;
/// Largest size class, log2 (64 MiB — one full MRAM bank).
const MAX_CLASS_SHIFT: u32 = 26;
/// Number of size classes.
const CLASSES: usize = (MAX_CLASS_SHIFT - MIN_CLASS_SHIFT + 1) as usize;
/// Number of free-list shards (threads map onto these round-robin).
pub const SHARDS: usize = 8;
/// Maximum buffers parked per (shard, class) stack.
const PER_CLASS_CAP: usize = 8;

/// Size class for a request, or `None` when the request should bypass the
/// pool (zero-length or beyond the largest class).
fn class_of(len: usize) -> Option<usize> {
    if len == 0 || len > (1usize << MAX_CLASS_SHIFT) {
        return None;
    }
    let shift = usize::BITS - (len - 1).max(1).leading_zeros();
    Some(shift.clamp(MIN_CLASS_SHIFT, MAX_CLASS_SHIFT) as usize - MIN_CLASS_SHIFT as usize)
}

/// Byte capacity of a size class.
fn class_size(class: usize) -> usize {
    1usize << (class as u32 + MIN_CLASS_SHIFT)
}

/// The shard the calling thread parks buffers on: threads draw a ticket
/// round-robin on first use, so worker pools spread evenly over the shards,
/// and keep it for life.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static TICKET: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    TICKET.with(|t| {
        if t.get() == usize::MAX {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get() % SHARDS
    })
}

#[derive(Debug)]
struct PoolInner {
    /// Free lists, indexed `shard * CLASSES + class`. Parked buffers always
    /// have `len == class_size(class)`.
    slots: Vec<Mutex<Vec<Vec<u8>>>>,
    hits: Counter,
    misses: Counter,
    bytes: Counter,
    outstanding: Gauge,
}

/// A shared, thread-aware, size-classed scratch-buffer pool.
///
/// Cheaply cloneable (`Arc` inside): the frontend serializer, the backend
/// deserializer and every backend worker hold clones of one pool, so a
/// buffer released by any of them is available to all of them.
#[derive(Debug, Clone, Default)]
pub struct BytePool {
    inner: Arc<PoolInner>,
}

impl Default for PoolInner {
    fn default() -> Self {
        PoolInner {
            slots: (0..SHARDS * CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
            hits: Counter::new(),
            misses: Counter::new(),
            bytes: Counter::new(),
            outstanding: Gauge::new(),
        }
    }
}

impl BytePool {
    /// A fresh pool with private (unregistered) telemetry cells.
    #[must_use]
    pub fn new() -> Self {
        BytePool::default()
    }

    /// A fresh pool whose telemetry is registry-owned:
    /// `{prefix}.hits`, `{prefix}.misses`, `{prefix}.bytes` (counters) and
    /// `{prefix}.outstanding` (gauge). Two pools bound to the same registry
    /// and prefix aggregate into the same cells.
    #[must_use]
    pub fn with_registry(registry: &MetricsRegistry, prefix: &str) -> Self {
        BytePool {
            inner: Arc::new(PoolInner {
                slots: (0..SHARDS * CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
                hits: registry.counter(&format!("{prefix}.hits")),
                misses: registry.counter(&format!("{prefix}.misses")),
                bytes: registry.counter(&format!("{prefix}.bytes")),
                outstanding: registry.gauge(&format!("{prefix}.outstanding")),
            }),
        }
    }

    /// Takes a `len`-byte scratch buffer. A recycled buffer keeps its
    /// previous contents — callers must fully overwrite it before reading
    /// (every data-path user gathers/reads into the whole guard).
    #[must_use]
    pub fn take(&self, len: usize) -> PoolGuard {
        self.inner.bytes.add(len as u64);
        self.inner.outstanding.add(1);
        let Some(class) = class_of(len) else {
            // Zero-length (nothing to allocate: a hit by definition) or
            // beyond the largest class (plain allocation, not recycled).
            if len == 0 {
                self.inner.hits.inc();
            } else {
                self.inner.misses.inc();
            }
            return PoolGuard {
                buf: vec![0u8; len],
                len,
                class: None,
                pool: Arc::clone(&self.inner),
            };
        };
        let home = shard_index();
        // Local shard first, then steal from the others.
        for probe in 0..SHARDS {
            let shard = (home + probe) % SHARDS;
            if let Some(buf) = self.inner.slots[shard * CLASSES + class].lock().pop() {
                debug_assert_eq!(buf.len(), class_size(class));
                self.inner.hits.inc();
                return PoolGuard { buf, len, class: Some(class), pool: Arc::clone(&self.inner) };
            }
        }
        self.inner.misses.inc();
        PoolGuard {
            buf: vec![0u8; class_size(class)],
            len,
            class: Some(class),
            pool: Arc::clone(&self.inner),
        }
    }

    /// [`take`](Self::take), then zero-fills the guard (for callers that
    /// cannot promise to overwrite every byte).
    #[must_use]
    pub fn take_zeroed(&self, len: usize) -> PoolGuard {
        let mut g = self.take(len);
        g.fill(0);
        g
    }

    /// Takes serviced from a parked buffer.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.inner.hits.get()
    }

    /// Takes that had to allocate.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.inner.misses.get()
    }

    /// Total bytes handed out (sum of requested lengths).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.inner.bytes.get()
    }

    /// Guards currently alive (takes minus drops) — 0 when the pool is
    /// drop-balanced, the pool-leak check.
    #[must_use]
    pub fn outstanding(&self) -> i64 {
        self.inner.outstanding.get()
    }

    /// Buffers currently parked across all shards and classes.
    #[must_use]
    pub fn parked(&self) -> usize {
        self.inner.slots.iter().map(|s| s.lock().len()).sum()
    }
}

/// A pooled scratch buffer: derefs to `[u8]` of the requested length and
/// returns itself to the pool on drop.
#[derive(Debug)]
pub struct PoolGuard {
    /// Backing storage; for a classed buffer `buf.len()` stays pinned at
    /// the full class size so reuse never needs a resize (or its memset).
    buf: Vec<u8>,
    /// The requested length — the guard's visible extent.
    len: usize,
    class: Option<usize>,
    pool: Arc<PoolInner>,
}

impl PoolGuard {
    /// The requested length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the guard is zero-length.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The guard's bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    /// The guard's bytes, mutably.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.buf[..self.len]
    }
}

impl Deref for PoolGuard {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl DerefMut for PoolGuard {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.as_mut_slice()
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        self.pool.outstanding.sub(1);
        if let Some(class) = self.class {
            let buf = std::mem::take(&mut self.buf);
            debug_assert_eq!(buf.len(), class_size(class));
            let mut stack = self.pool.slots[shard_index() * CLASSES + class].lock();
            if stack.len() < PER_CLASS_CAP {
                stack.push(buf);
            }
            // else: over the bound — the buffer frees here, keeping the
            // pool's resident set capped.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_round_up_to_powers_of_two() {
        assert_eq!(class_of(0), None);
        assert_eq!(class_of(1), Some(0));
        assert_eq!(class_of(64), Some(0));
        assert_eq!(class_of(65), Some(1));
        assert_eq!(class_of(4096), Some(6));
        assert_eq!(class_of(4097), Some(7));
        assert_eq!(class_of(1 << 26), Some(CLASSES - 1));
        assert_eq!(class_of((1 << 26) + 1), None);
        for len in [1usize, 63, 64, 65, 1000, 4096, 1 << 20] {
            let c = class_of(len).unwrap();
            assert!(class_size(c) >= len);
            assert!(c == 0 || class_size(c - 1) < len);
        }
    }

    #[test]
    fn second_take_of_same_size_hits() {
        let pool = BytePool::new();
        {
            let g = pool.take(1000);
            assert_eq!(g.len(), 1000);
        }
        assert_eq!(pool.misses(), 1);
        let g = pool.take(700); // same 1024-byte class
        assert_eq!(g.len(), 700);
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.bytes(), 1700);
    }

    #[test]
    fn guards_are_drop_balanced() {
        let pool = BytePool::new();
        let a = pool.take(128);
        let b = pool.take(1 << 16);
        assert_eq!(pool.outstanding(), 2);
        drop(a);
        drop(b);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.parked(), 2);
    }

    #[test]
    fn recycled_buffers_keep_contents_and_full_writes_mask_it() {
        let pool = BytePool::new();
        {
            let mut g = pool.take(256);
            g.fill(0xAB);
        }
        let g = pool.take(256);
        // Dirty reuse is the documented contract…
        assert!(g.iter().all(|&b| b == 0xAB));
        drop(g);
        // …and take_zeroed opts out of it.
        let g = pool.take_zeroed(256);
        assert!(g.iter().all(|&b| b == 0));
    }

    #[test]
    fn zero_len_and_oversized_takes_bypass_classing() {
        let pool = BytePool::new();
        let g = pool.take(0);
        assert!(g.is_empty());
        drop(g);
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.parked(), 0);
        let g = pool.take((1 << 26) + 1);
        assert_eq!(g.len(), (1 << 26) + 1);
        drop(g);
        assert_eq!(pool.parked(), 0, "oversized buffers are not recycled");
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn per_class_stacks_are_bounded() {
        let pool = BytePool::new();
        let guards: Vec<_> = (0..4 * PER_CLASS_CAP * SHARDS).map(|_| pool.take(100)).collect();
        drop(guards);
        // Single-threaded: everything returns to one shard's stack.
        assert!(pool.parked() <= PER_CLASS_CAP);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn registry_binding_aggregates_across_pool_clones() {
        let reg = MetricsRegistry::new();
        let a = BytePool::with_registry(&reg, "datapath.pool");
        let b = BytePool::with_registry(&reg, "datapath.pool");
        drop(a.take(100));
        drop(b.take(100));
        let snap = reg.snapshot();
        assert_eq!(
            snap.count("datapath.pool.hits") + snap.count("datapath.pool.misses"),
            2
        );
        assert_eq!(snap.count("datapath.pool.bytes"), 200);
        assert_eq!(snap.level("datapath.pool.outstanding"), 0);
    }

    #[test]
    fn cross_thread_release_keeps_balance() {
        let pool = BytePool::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = pool.clone();
                s.spawn(move || {
                    for _ in 0..64 {
                        let mut g = pool.take(8192);
                        g[0] = 1;
                        // Guard crosses a thread boundary before dropping.
                        std::thread::scope(|inner| {
                            inner.spawn(move || drop(g));
                        });
                    }
                });
            }
        });
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.hits() + pool.misses(), 8 * 64);
    }
}
