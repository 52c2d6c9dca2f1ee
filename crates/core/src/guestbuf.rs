//! Guest-resident transfer buffers: the application's own pages, which a
//! write matrix names in place (§4.1, Fig. 13's "page management" step).
//!
//! The paper's guest driver never copies a payload. It pins the pages the
//! application filled and puts their addresses in the transfer matrix. A
//! [`GuestBuf`] is such a buffer: pages of the VM's [`GuestMemory`] the
//! application fills through [`GuestBuf::write`]. Pushing it with
//! [`Frontend::write_rank_pinned`](crate::Frontend::write_rank_pinned)
//! builds the matrix from those pages: no page is allocated and no byte is
//! copied before the device reads them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pim_virtio::memory::PAGE_SIZE;
use pim_virtio::{Gpa, GuestMemory, VirtioError};

use crate::error::VpimError;
use crate::matrix::PageLease;

/// A transfer buffer in guest RAM: a shareable lease on the pages that
/// hold it.
///
/// Clones share the pages, which go back to the guest allocator when the
/// last clone drops. A transfer borrows the buffer until it has finished,
/// so the device never reads a page the guest has given back. A fresh
/// buffer reads as zeros, like a fresh anonymous mapping.
#[derive(Debug, Clone)]
pub struct GuestBuf {
    inner: Arc<Pinned>,
}

#[derive(Debug)]
struct Pinned {
    lease: PageLease,
    len: u64,
    /// Every byte below this offset has been written or zeroed. The bytes
    /// above it still hold what the pages' last user in this guest left,
    /// and are zeroed only when something is about to read them, so an
    /// application that fills its buffer front to back writes each byte
    /// once. Read and moved only under the guest RAM's write lock.
    clean: AtomicU64,
}

impl GuestBuf {
    /// Allocates a `len`-byte buffer from `mem`'s page allocator.
    ///
    /// # Errors
    ///
    /// [`VpimError::Virtio`] with `OutOfPages` when the guest cannot hold
    /// it.
    pub fn alloc(mem: &GuestMemory, len: usize) -> Result<GuestBuf, VpimError> {
        let lease = PageLease::alloc(mem, (len as u64).div_ceil(PAGE_SIZE) as usize)?;
        let inner = Pinned { lease, len: len as u64, clean: AtomicU64::new(0) };
        Ok(GuestBuf { inner: Arc::new(inner) })
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len as usize
    }

    /// Whether the buffer holds no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// The guest pages holding the buffer, in order (the last may be
    /// partly used).
    #[must_use]
    pub fn pages(&self) -> &[Gpa] {
        self.inner.lease.pages()
    }

    /// The guest memory the pages belong to.
    #[must_use]
    pub fn memory(&self) -> &GuestMemory {
        self.inner.lease.memory()
    }

    fn check(&self, offset: usize, len: usize) -> Result<u64, VpimError> {
        match offset.checked_add(len) {
            Some(end) if end as u64 <= self.inner.len => Ok(end as u64),
            _ => Err(VpimError::BadRequest(format!(
                "bytes {offset}+{len} outside a {}-byte guest buffer",
                self.inner.len
            ))),
        }
    }

    /// Copies `data` into the buffer at `offset` (the guest application
    /// filling its own pages: no fault point is consulted).
    ///
    /// # Errors
    ///
    /// [`VpimError::BadRequest`] when the range leaves the buffer.
    pub fn write(&self, offset: usize, data: &[u8]) -> Result<(), VpimError> {
        let end = self.check(offset, data.len())?;
        let pages = self.pages();
        self.memory().view_mut(|v| -> Result<(), VirtioError> {
            let clean = self.inner.clean.load(Ordering::Relaxed);
            if clean < offset as u64 {
                v.zero_pages_at(pages, clean, offset as u64 - clean)?;
            }
            v.write_pages_at(pages, offset as u64, data)?;
            self.inner.clean.store(clean.max(end), Ordering::Relaxed);
            Ok(())
        })?;
        Ok(())
    }

    /// Zeroes every never-written byte below `end`.
    fn zero_to(&self, end: u64) -> Result<(), VpimError> {
        if self.inner.clean.load(Ordering::Relaxed) >= end {
            return Ok(());
        }
        self.memory().view_mut(|v| -> Result<(), VirtioError> {
            let clean = self.inner.clean.load(Ordering::Relaxed);
            if clean < end {
                v.zero_pages_at(self.pages(), clean, end - clean)?;
                self.inner.clean.store(end, Ordering::Relaxed);
            }
            Ok(())
        })?;
        Ok(())
    }

    /// Makes every byte of the buffer what the application wrote, or zero,
    /// before the device reads its pages.
    pub(crate) fn settle(&self) -> Result<(), VpimError> {
        self.zero_to(self.inner.len)
    }

    /// Copies `dst.len()` bytes out of the buffer at `offset`.
    ///
    /// # Errors
    ///
    /// [`VpimError::BadRequest`] when the range leaves the buffer.
    pub fn read(&self, offset: usize, dst: &mut [u8]) -> Result<(), VpimError> {
        let end = self.check(offset, dst.len())?;
        self.zero_to(end)?;
        Ok(self.memory().view(|v| v.read_pages_at(self.pages(), offset as u64, dst))?)
    }

    /// The whole buffer as a fresh `Vec`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len()];
        self.read(0, &mut out).expect("a buffer's own pages lie in its guest's RAM");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_writes_and_zeros_what_was_never_written() {
        let mem = GuestMemory::new(16 * PAGE_SIZE);
        // Dirty the pages the buffer will get.
        let old = mem.alloc_pages(3).unwrap();
        mem.write_pages(&old, &[0xAA; 3 * PAGE_SIZE as usize]).unwrap();
        mem.free_pages_back(&old).unwrap();

        let buf = GuestBuf::alloc(&mem, 10_000).unwrap();
        assert_eq!(buf.pages(), old);
        assert_eq!(mem.free_pages(), 13);
        buf.write(5_000, &[7; 100]).unwrap();
        buf.write(9_000, &[9; 1_000]).unwrap();
        let mut want = vec![0u8; 10_000];
        want[5_000..5_100].fill(7);
        want[9_000..].fill(9);
        assert_eq!(buf.to_vec(), want);
        // A write past the buffer changes nothing.
        assert!(matches!(buf.write(9_999, &[1, 2]), Err(VpimError::BadRequest(_))));
        assert!(buf.read(usize::MAX, &mut [0]).is_err());
        assert_eq!(buf.to_vec(), want);
    }

    #[test]
    fn settling_zeroes_the_unwritten_tail_once() {
        let mem = GuestMemory::new(4 * PAGE_SIZE);
        let old = mem.alloc_pages(2).unwrap();
        mem.write_pages(&old, &[0xAA; 2 * PAGE_SIZE as usize]).unwrap();
        mem.free_pages_back(&old).unwrap();
        let buf = GuestBuf::alloc(&mem, 6_000).unwrap();
        buf.write(0, &[1; 100]).unwrap();
        buf.settle().unwrap();
        let mut raw = vec![0u8; 6_000];
        mem.view(|v| v.read_pages_at(buf.pages(), 0, &mut raw)).unwrap();
        assert!(raw[..100].iter().all(|b| *b == 1));
        assert!(raw[100..].iter().all(|b| *b == 0));
    }

    #[test]
    fn the_last_clone_returns_the_pages() {
        let mem = GuestMemory::new(8 * PAGE_SIZE);
        let before = mem.free_pages();
        let buf = GuestBuf::alloc(&mem, 3 * PAGE_SIZE as usize).unwrap();
        let held = buf.clone();
        drop(buf);
        assert_eq!(mem.free_pages(), before - 3);
        drop(held);
        assert_eq!(mem.free_pages(), before);
        assert!(matches!(
            GuestBuf::alloc(&mem, 9 * PAGE_SIZE as usize),
            Err(VpimError::Virtio(VirtioError::OutOfPages { .. }))
        ));
        assert_eq!(mem.free_pages(), before);
    }
}
