//! The per-DPU MRAM bank.
//!
//! Each DPU owns a 64 MB DRAM bank. Allocating 64 MB × 512 DPUs of real
//! memory up front would need 32 GiB, so the bank is a logical-capacity
//! buffer that grows physically only up to its high-water mark. Reads beyond
//! the high-water mark observe zeros, like freshly reset DRAM.

use std::borrow::Cow;

use crate::error::SimError;

/// A lazily allocated MRAM bank with a fixed logical capacity.
///
/// # Example
///
/// ```
/// use upmem_sim::mram::MramBank;
///
/// let mut bank = MramBank::new(1 << 20);
/// bank.write(4096, b"hello").unwrap();
/// let mut buf = [0u8; 5];
/// bank.read(4096, &mut buf).unwrap();
/// assert_eq!(&buf, b"hello");
/// ```
#[derive(Debug, Clone)]
pub struct MramBank {
    data: Vec<u8>,
    capacity: u64,
}

impl MramBank {
    /// Creates a bank with the given logical capacity in bytes.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        MramBank { data: Vec::new(), capacity }
    }

    /// Logical capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Physically allocated bytes (the high-water mark).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.data.len()
    }

    fn check(&self, offset: u64, len: u64) -> Result<(), SimError> {
        let end = offset.checked_add(len);
        match end {
            Some(end) if end <= self.capacity => Ok(()),
            _ => Err(SimError::MramOutOfBounds { offset, len, capacity: self.capacity }),
        }
    }

    /// Writes `src` at `offset`.
    ///
    /// # Errors
    ///
    /// [`SimError::MramOutOfBounds`] if the write exceeds the capacity.
    pub fn write(&mut self, offset: u64, src: &[u8]) -> Result<(), SimError> {
        self.view_mut(offset, src.len())?.copy_from_slice(src);
        Ok(())
    }

    /// The `len` bytes at `offset`, to be written in place. The bank grows
    /// to cover them exactly as [`write`](Self::write) grows it, so bytes
    /// above the old high-water mark start as zeros.
    ///
    /// # Errors
    ///
    /// [`SimError::MramOutOfBounds`] if the range exceeds the capacity.
    pub fn view_mut(&mut self, offset: u64, len: usize) -> Result<&mut [u8], SimError> {
        self.check(offset, len as u64)?;
        let end = offset as usize + len;
        if self.data.len() < end {
            self.data.resize(end, 0);
        }
        Ok(&mut self.data[offset as usize..end])
    }

    /// Splits the `len` bytes at `offset` into the resident part and the
    /// count of bytes above the high-water mark after it.
    fn resident(&self, offset: u64, len: usize) -> Result<(&[u8], usize), SimError> {
        self.check(offset, len as u64)?;
        let start = (offset as usize).min(self.data.len());
        let resident = (self.data.len() - start).min(len);
        Ok((&self.data[start..start + resident], len - resident))
    }

    /// Reads into `dst` from `offset`. Bytes above the high-water mark read
    /// as zero.
    ///
    /// # Errors
    ///
    /// [`SimError::MramOutOfBounds`] if the read exceeds the capacity.
    pub fn read(&self, offset: u64, dst: &mut [u8]) -> Result<(), SimError> {
        let (resident, _) = self.resident(offset, dst.len())?;
        let (head, tail) = dst.split_at_mut(resident.len());
        head.copy_from_slice(resident);
        tail.fill(0);
        Ok(())
    }

    /// The `len` bytes at `offset` as [`read`](Self::read) would copy them:
    /// borrowed when they are all resident, and copied into a zero-extended
    /// buffer only when part of them lies above the high-water mark.
    ///
    /// # Errors
    ///
    /// [`SimError::MramOutOfBounds`] if the range exceeds the capacity.
    pub fn view(&self, offset: u64, len: usize) -> Result<Cow<'_, [u8]>, SimError> {
        let (resident, zeros) = self.resident(offset, len)?;
        if zeros == 0 {
            return Ok(Cow::Borrowed(resident));
        }
        let mut bytes = Vec::with_capacity(len);
        bytes.extend_from_slice(resident);
        bytes.resize(len, 0);
        Ok(Cow::Owned(bytes))
    }

    /// Zeroes the entire bank and releases physical memory — the manager's
    /// rank reset (NANA → NAAV erase step) uses this.
    pub fn reset(&mut self) {
        self.data = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lazy_allocation_tracks_high_water() {
        let mut bank = MramBank::new(1 << 20);
        assert_eq!(bank.resident_bytes(), 0);
        bank.write(1000, &[1, 2, 3]).unwrap();
        assert_eq!(bank.resident_bytes(), 1003);
        bank.write(10, &[9]).unwrap();
        assert_eq!(bank.resident_bytes(), 1003);
    }

    #[test]
    fn reads_beyond_high_water_are_zero() {
        let bank = MramBank::new(4096);
        let mut buf = [0xAAu8; 8];
        bank.read(100, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut bank = MramBank::new(16);
        assert!(bank.write(15, &[0, 0]).is_err());
        assert!(bank.write(16, &[0]).is_err());
        assert!(bank.write(u64::MAX, &[0]).is_err()); // overflow-safe
        let mut buf = [0u8; 4];
        assert!(bank.read(14, &mut buf).is_err());
        // Exactly at the edge is fine.
        assert!(bank.write(12, &[1, 2, 3, 4]).is_ok());
    }

    #[test]
    fn reset_releases_memory_and_zeroes_content() {
        let mut bank = MramBank::new(4096);
        bank.write(0, &[7; 128]).unwrap();
        bank.reset();
        assert_eq!(bank.resident_bytes(), 0);
        let mut buf = [1u8; 128];
        bank.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 128]);
    }

    proptest! {
        /// Round trip: whatever is written is read back, at any offset.
        #[test]
        fn write_read_roundtrip(
            offset in 0u64..8192,
            data in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let mut bank = MramBank::new(16 << 10);
            bank.write(offset, &data).unwrap();
            let mut back = vec![0u8; data.len()];
            bank.read(offset, &mut back).unwrap();
            prop_assert_eq!(&back, &data);

            // Windows that straddle the high-water mark, and one wholly
            // above it, read the zero-extended image.
            let mut model = vec![0u8; 16 << 10];
            model[offset as usize..][..data.len()].copy_from_slice(&data);
            let high_water = offset as usize + data.len();
            for start in [high_water.saturating_sub(7), high_water + 3] {
                let mut window = vec![0xAAu8; 64];
                bank.read(start as u64, &mut window).unwrap();
                prop_assert_eq!(&window[..], &model[start..start + 64]);
                let view = bank.view(start as u64, 64).unwrap();
                prop_assert_eq!(&view[..], &model[start..start + 64]);
            }
        }

        /// Non-overlapping writes do not disturb each other.
        #[test]
        fn disjoint_writes_independent(
            a in proptest::collection::vec(any::<u8>(), 1..128),
            b in proptest::collection::vec(any::<u8>(), 1..128),
        ) {
            let mut bank = MramBank::new(16 << 10);
            let off_b = 1024;
            bank.write(0, &a).unwrap();
            bank.write(off_b, &b).unwrap();
            let mut back_a = vec![0u8; a.len()];
            bank.read(0, &mut back_a).unwrap();
            prop_assert_eq!(back_a, a);
        }
    }
}
