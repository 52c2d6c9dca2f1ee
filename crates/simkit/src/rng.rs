//! Seeded, reproducible randomness for workload generation.
//!
//! Every dataset in the reproduction (PrIM inputs, the checksum file, the
//! synthetic Wikipedia corpus) is generated from a [`SimRng`] so that runs
//! are bit-for-bit reproducible across machines and invocations.
//!
//! The value stream is part of the reproducibility contract: every figure
//! in `results_quick.txt` and every benchmark `virt_fingerprint` is a
//! function of it. A faster draw must return the same values and leave the
//! generator in the same state.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random number generator with convenience helpers.
///
/// Its values are pinned: figures and fingerprints depend on them, so no
/// method may change what it draws or how many words it consumes.
///
/// # Example
///
/// ```
/// use simkit::SimRng;
///
/// let mut a = SimRng::seeded(42);
/// let mut b = SimRng::seeded(42);
/// assert_eq!(a.u64_below(1000), b.u64_below(1000));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng(StdRng);

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        SimRng(StdRng::seed_from_u64(seed))
    }

    /// Derives an independent child generator, so sub-workloads do not
    /// perturb each other's streams.
    #[must_use]
    pub fn fork(&mut self, tag: u64) -> Self {
        let s = self.0.gen::<u64>() ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seeded(s)
    }

    /// An independent generator for stream `stream` of base seed `seed`,
    /// **without** consuming any parent state: `stream(s, i)` is a pure
    /// function of `(s, i)`, so per-item streams (one per tenant session,
    /// one per shard, …) can be re-derived in any order — the property the
    /// load harness relies on to stay bit-identical under parallel
    /// execution.
    #[must_use]
    pub fn stream(seed: u64, stream: u64) -> Self {
        // splitmix64 over the combined word decorrelates adjacent streams.
        let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SimRng::seeded(z ^ (z >> 31))
    }

    /// An exponentially distributed gap with the given mean (in integer
    /// nanoseconds, rounded; at least 1 when `mean_ns > 0`). The draw for
    /// Poisson arrival processes and think times.
    #[must_use]
    pub fn exp_gap_ns(&mut self, mean_ns: u64) -> u64 {
        if mean_ns == 0 {
            return 0;
        }
        // Inverse CDF; 1-u avoids ln(0).
        let u = self.f64();
        let gap = -(1.0 - u).ln() * mean_ns as f64;
        (gap.round() as u64).max(1)
    }

    /// Uniform `u64` in `[0, bound)`. Returns 0 when `bound == 0`.
    #[must_use]
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.0.gen_range(0..bound)
        }
    }

    /// Uniform `u32`.
    #[must_use]
    pub fn u32(&mut self) -> u32 {
        self.0.gen()
    }

    /// Uniform `usize` in `[0, bound)`. Returns 0 when `bound == 0`.
    #[must_use]
    pub fn usize_below(&mut self, bound: usize) -> usize {
        self.u64_below(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    #[must_use]
    pub fn f64(&mut self) -> f64 {
        self.0.gen()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[must_use]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Fills `buf` with uniform bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        self.0.fill_bytes(buf);
    }

    /// A vector of `n` uniform bytes.
    #[must_use]
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut v = vec![0u8; n];
        self.fill_bytes(&mut v);
        v
    }

    /// A vector of `n` uniform `u32`s below `bound`: `n` calls of
    /// [`u64_below`](Self::u64_below). A zero bound yields zeros, as
    /// `u64_below(0)` does, but still takes one draw per element.
    #[must_use]
    pub fn u32s_below(&mut self, n: usize, bound: u32) -> Vec<u32> {
        (0..n).map(|_| self.u64_below(u64::from(bound.max(1))) as u32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The plain rejection loop the fast draws must match word for word.
    fn reference_below(rng: &mut StdRng, span: u64) -> u64 {
        loop {
            let v = rng.next_u64();
            if v < u64::MAX - u64::MAX % span {
                return v % span;
            }
        }
    }

    /// Spans biased toward the edges of the draw: 1, 2^k, 2^k ± 1, a prime,
    /// `u32::MAX`, just above 2^63 (where about half the draws reject) and
    /// `u64::MAX`, plus one arbitrary span.
    fn edge_spans(k: u32, raw: u64) -> [u64; 9] {
        let p = 1u64 << (k % 64);
        let above_half = (1 << 63) + 1 + raw % (1 << 20);
        let u32_max = u64::from(u32::MAX);
        [1, p, p + 1, (p - 1).max(1), 1_000_003, u32_max, above_half, u64::MAX, raw.max(1)]
    }

    proptest! {
        #[test]
        fn fast_draws_match_the_reference_loop(
            seed in any::<u64>(),
            k in 0u32..64,
            raw in any::<u64>(),
            n in 0usize..48,
        ) {
            for span in edge_spans(k, raw) {
                let mut want = StdRng::seed_from_u64(seed);
                let expect: Vec<u64> = (0..n).map(|_| reference_below(&mut want, span)).collect();
                let next = want.next_u64();

                let mut one = SimRng::seeded(seed);
                let got: Vec<u64> = (0..n).map(|_| one.u64_below(span)).collect();
                prop_assert!(got == expect, "u64_below({span}): {got:?} != {expect:?}");
                prop_assert!(one.0.next_u64() == next, "state after u64_below({span})");

                if let Ok(bound) = u32::try_from(span) {
                    let mut many = SimRng::seeded(seed);
                    let got: Vec<u64> =
                        many.u32s_below(n, bound).into_iter().map(u64::from).collect();
                    prop_assert!(got == expect, "u32s_below({span}): {got:?} != {expect:?}");
                    prop_assert!(many.0.next_u64() == next, "state after u32s_below({span})");
                }
            }
        }
    }

    #[test]
    fn a_zero_bound_yields_zeros_and_still_draws() {
        let mut r = SimRng::seeded(4);
        assert_eq!(r.u32s_below(5, 0), [0; 5]);
        let mut s = SimRng::seeded(4);
        let _ = s.u32s_below(5, 1);
        assert_eq!(r.0.next_u64(), s.0.next_u64());
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seeded(7);
        let mut b = SimRng::seeded(7);
        assert_eq!(a.bytes(64), b.bytes(64));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seeded(7);
        let mut b = SimRng::seeded(8);
        assert_ne!(a.bytes(64), b.bytes(64));
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut parent1 = SimRng::seeded(1);
        let mut parent2 = SimRng::seeded(1);
        let mut c1 = parent1.fork(3);
        let mut c2 = parent2.fork(3);
        assert_eq!(c1.bytes(16), c2.bytes(16));
        // Forking with different tags yields different streams.
        let mut p = SimRng::seeded(1);
        let mut q = SimRng::seeded(1);
        let mut ca = p.fork(1);
        let mut cb = q.fork(2);
        assert_ne!(ca.bytes(16), cb.bytes(16));
    }

    #[test]
    fn bounds_are_respected() {
        let mut r = SimRng::seeded(9);
        for _ in 0..1000 {
            assert!(r.u64_below(10) < 10);
        }
        assert_eq!(r.u64_below(0), 0);
        assert_eq!(r.usize_below(0), 0);
    }

    #[test]
    fn chance_edges() {
        let mut r = SimRng::seeded(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn streams_are_pure_and_independent() {
        // Pure in (seed, stream): re-derivable in any order.
        assert_eq!(SimRng::stream(9, 4).bytes(32), SimRng::stream(9, 4).bytes(32));
        assert_ne!(SimRng::stream(9, 4).bytes(32), SimRng::stream(9, 5).bytes(32));
        assert_ne!(SimRng::stream(9, 4).bytes(32), SimRng::stream(8, 4).bytes(32));
        // Adjacent streams decorrelate even for tiny seeds.
        assert_ne!(SimRng::stream(0, 0).bytes(32), SimRng::stream(0, 1).bytes(32));
    }

    #[test]
    fn exp_gap_has_roughly_the_requested_mean() {
        let mut r = SimRng::seeded(11);
        let n = 20_000u64;
        let mean = 1_000u64;
        let sum: u64 = (0..n).map(|_| r.exp_gap_ns(mean)).sum();
        let got = sum / n;
        assert!((700..1300).contains(&got), "mean {got}");
        assert_eq!(r.exp_gap_ns(0), 0);
        assert!(r.exp_gap_ns(1) >= 1);
    }
}
