//! The per-DPU working memory (WRAM) allocator.
//!
//! DPU programs stage data in 64 KB of WRAM shared by all tasklets. The
//! UPMEM runtime exposes a bump allocator (`mem_alloc`) reset by
//! `mem_reset`; we model exactly that: allocations only account capacity
//! (the payload lives in ordinary `Vec`s owned by the kernel), because the
//! virtualization layer never observes WRAM contents — only its capacity
//! limit, which we enforce.

use crate::error::SimError;

/// Capacity accounting for a DPU's working memory.
///
/// # Example
///
/// ```
/// use upmem_sim::wram::Wram;
///
/// let mut wram = Wram::new(64 << 10);
/// wram.alloc(1024).unwrap();
/// assert_eq!(wram.used(), 1024);
/// wram.reset();
/// assert_eq!(wram.used(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Wram {
    capacity: usize,
    used: usize,
}

impl Wram {
    /// Creates a WRAM of `capacity` bytes.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Wram { capacity, used: 0 }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently allocated.
    #[must_use]
    pub fn used(&self) -> usize {
        self.used
    }

    /// Bytes still available.
    #[must_use]
    pub fn available(&self) -> usize {
        self.capacity - self.used
    }

    /// Bump-allocates `bytes` (8-byte aligned, like the UPMEM runtime).
    ///
    /// # Errors
    ///
    /// [`SimError::WramOverflow`] if the allocation does not fit.
    pub fn alloc(&mut self, bytes: usize) -> Result<(), SimError> {
        let aligned = bytes.div_ceil(8) * 8;
        if aligned > self.available() {
            return Err(SimError::WramOverflow { requested: bytes, available: self.available() });
        }
        self.used += aligned;
        Ok(())
    }

    /// Releases every allocation (`mem_reset`).
    pub fn reset(&mut self) {
        self.used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_until_full_then_overflow() {
        let mut w = Wram::new(64);
        w.alloc(32).unwrap();
        w.alloc(32).unwrap();
        let err = w.alloc(1).unwrap_err();
        assert!(matches!(err, SimError::WramOverflow { .. }));
    }

    #[test]
    fn allocations_are_8_byte_aligned() {
        let mut w = Wram::new(64);
        w.alloc(1).unwrap();
        assert_eq!(w.used(), 8);
        w.alloc(9).unwrap();
        assert_eq!(w.used(), 24);
    }

    #[test]
    fn zero_byte_alloc_is_free() {
        let mut w = Wram::new(8);
        w.alloc(0).unwrap();
        assert_eq!(w.used(), 0);
    }

    #[test]
    fn reset_restores_capacity() {
        let mut w = Wram::new(16);
        w.alloc(16).unwrap();
        w.reset();
        assert_eq!(w.available(), 16);
        w.alloc(16).unwrap();
    }

    proptest! {
        /// used + available == capacity at every step of a random schedule.
        #[test]
        fn accounting_invariant(allocs in proptest::collection::vec(0usize..512, 0..64)) {
            let mut w = Wram::new(4096);
            for a in allocs {
                let _ = w.alloc(a);
                prop_assert_eq!(w.used() + w.available(), w.capacity());
                prop_assert!(w.used().is_multiple_of(8));
            }
        }
    }
}
