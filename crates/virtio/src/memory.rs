//! Guest physical memory.
//!
//! Firecracker maps the VM's RAM into its own address space, so any guest
//! physical address (GPA) the frontend puts in a virtqueue can be turned
//! into a host virtual address (HVA) and accessed without copying — the
//! zero-copy pillar of vPIM (§4.1/§4.2). In safe Rust we model an HVA as a
//! scoped view: [`GuestMemory::with_slice`]/[`GuestMemory::with_slice_mut`] hand the
//! backend a borrowed window of guest RAM, which is exactly the capability
//! an mmap'ed HVA provides.
//!
//! This module is the only place that knows how a run of guest pages maps
//! to bytes (page size, partial last page, bounds check, fault point, the
//! RAM lock): data spread over a page list goes through
//! [`GuestMemory::walk_pages`]/[`GuestMemory::walk_pages_mut`] (device
//! side) or [`GuestMemory::write_pages`] and the view's `*_pages_at`
//! accessors (guest side), never through a hand-written loop over
//! `PAGE_SIZE` elsewhere. The walkers bounds-check every page they visit,
//! as one [`GuestMemory::with_slice`] per page would: nothing remembers a
//! range already checked.
//!
//! Records that live in guest RAM — virtqueue ring entries, descriptors,
//! serialized matrix metadata — are read and written through
//! [`GuestMemory::view`]/[`GuestMemory::view_mut`]: one RAM borrow for a
//! whole chain or matrix, a bounds check on every access inside it, and no
//! fault point (a transient data-path EIO must never tear a ring).
//!
//! The crate also provides a page allocator used by the simulated guest
//! userspace to place application buffers (the pages whose GPAs the
//! frontend serializes into the transfer matrix): a bitmap, one bit per
//! page, handing out the lowest free pages first.
//!
//! Guest RAM is recycled. Beside its bytes it carries one dirty bit per
//! page, set by every mutable borrow that hands the page out (the
//! [`GuestMemory::view_mut`] writes, [`GuestMemory::with_slice_mut`],
//! [`GuestMemory::walk_pages_mut`]). When the last handle drops, the dirty
//! pages are zeroed and the RAM goes to a process-wide free list keyed by
//! exact byte size, where the next [`GuestMemory::new`] of that size finds
//! it. Zeroing follows writes rather than allocations because a guest may
//! write pages it never allocated.

use std::ops::Range;
use std::sync::Arc;

use simkit::sync::{Mutex, RwLock};
use simkit::{FaultPlane, InjectCell, LockLevel};

use crate::error::VirtioError;

/// Page size of the simulated guest (standard 4 KiB).
pub const PAGE_SIZE: u64 = 4096;

/// The fault point consulted on every scoped data access
/// ([`GuestMemory::with_slice`]/[`GuestMemory::with_slice_mut`], and once
/// per visited page by the page walkers): firing raises a transient
/// [`VirtioError::Eio`]. The raw accessors (`read`/`write`/`read_u16`/
/// `write_u16`/`write_pages` and everything inside
/// [`GuestMemory::view`]/[`GuestMemory::view_mut`]) are deliberately *not*
/// instrumented — they carry virtqueue ring and matrix records and the
/// guest's own buffer fill, which a transient data-path EIO must never
/// tear.
pub const MEM_EIO_POINT: &str = "virtio.mem.eio";

/// A guest physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Gpa(pub u64);

impl Gpa {
    /// Byte offset addition. An inherent method rather than `ops::Add`:
    /// callers (`benchmark/src/replay.rs` among them) call `gpa.add(off)`
    /// without importing a trait.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn add(self, off: u64) -> Gpa {
        Gpa(self.0 + off)
    }

    /// The page this address belongs to.
    #[must_use]
    pub fn page(self) -> u64 {
        self.0 / PAGE_SIZE
    }
}

/// Guest RAM: its bytes and one dirty bit per page. A bit is set when a
/// mutable borrow hands its page out and stays set while the memory lives,
/// so a clear bit means the page still holds zeros.
#[derive(Debug, Default)]
struct Ram {
    bytes: Vec<u8>,
    /// Bit `p % 64` of word `p / 64` is set once page `p` was written.
    dirty: Vec<u64>,
}

/// Guest RAMs whose last handle dropped, zeroed, for the next
/// [`GuestMemory::new`] of the same byte size. A RAM is only created when
/// none of its size is here, so this never holds more RAMs than were once
/// live at the same time. A leaf lock: nothing is locked while it is held.
static FREE_RAM: Mutex<Vec<Ram>> = Mutex::new(LockLevel::FreeRam, 0, Vec::new());

impl Ram {
    /// A zeroed RAM of `bytes` bytes: the one of exactly that size released
    /// last, or a fresh allocation.
    fn take(bytes: usize) -> Ram {
        let mut free = FREE_RAM.lock();
        match free.iter().rposition(|ram| ram.bytes.len() == bytes) {
            Some(i) => free.remove(i),
            None => Ram {
                bytes: vec![0u8; bytes],
                dirty: vec![0; bytes.div_ceil(PAGE_SIZE as usize).div_ceil(64)],
            },
        }
    }

    /// Zeroes every dirty page and clears its bit.
    fn scrub(&mut self) {
        let page = PAGE_SIZE as usize;
        for (i, word) in self.dirty.iter_mut().enumerate() {
            while *word != 0 {
                let p = i * 64 + word.trailing_zeros() as usize;
                self.bytes[p * page..(p + 1) * page].fill(0);
                *word &= *word - 1;
            }
        }
    }
}

/// Marks the pages under the byte range `range` dirty.
fn mark_dirty(dirty: &mut [u64], range: &Range<usize>) {
    let page = PAGE_SIZE as usize;
    for p in range.start / page..range.end.div_ceil(page) {
        dirty[p / 64] |= 1 << (p % 64);
    }
}

#[derive(Debug)]
struct Inner {
    ram: RwLock<Ram>,
    /// `ram.bytes.len()`, fixed at [`GuestMemory::new`]: bounds checks
    /// read it without the lock.
    size: u64,
    allocator: Mutex<PageAllocator>,
    /// Late-bound fault plane; empty (pure passthrough) until a system
    /// with injection enabled installs its plane.
    inject: InjectCell,
}

impl Drop for Inner {
    /// Zeroes what the guest wrote and keeps the RAM for the next guest of
    /// this size: a departed tenant's bytes do not outlive it.
    fn drop(&mut self) {
        let mut ram = std::mem::take(self.ram.get_mut());
        ram.scrub();
        FREE_RAM.lock().push(ram);
    }
}

/// Inert; deleted by ROADMAP item 1a. The page walkers take no cache:
/// each visited page gets the plain bounds check.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct SegCache;

impl SegCache {
    /// The unit value.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

/// The guest page allocator: one bit per page, set when the page is free.
///
/// Every allocation takes the lowest free pages (scattered) or the lowest
/// run (contiguous), so the GPAs a given sequence of calls returns are fixed
/// by that sequence alone.
#[derive(Debug)]
struct PageAllocator {
    /// Bit `p % 64` of word `p / 64` is set when page `p` is free; bits
    /// past the last page stay clear.
    free: Vec<u64>,
    /// Set bits in `free`.
    nfree: usize,
    /// Every word below this index is zero: scans start here.
    hint: usize,
    total: u64,
}

impl PageAllocator {
    fn new(pages: u64) -> Self {
        let mut free = vec![u64::MAX; pages.div_ceil(64) as usize];
        if !pages.is_multiple_of(64) {
            *free.last_mut().expect("pages > 0") = (1u64 << (pages % 64)) - 1;
        }
        PageAllocator { free, nfree: pages as usize, hint: 0, total: pages }
    }

    fn is_free(&self, page: u64) -> bool {
        self.free[(page / 64) as usize] & (1 << (page % 64)) != 0
    }

    fn mark(&mut self, page: u64, free: bool) {
        let (word, bit) = (&mut self.free[(page / 64) as usize], 1u64 << (page % 64));
        if free {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Moves the hint past the words allocation emptied.
    fn advance_hint(&mut self) {
        while self.free.get(self.hint) == Some(&0) {
            self.hint += 1;
        }
    }

    /// The `n` lowest free pages, in ascending order (`n <= nfree`).
    fn take_lowest(&mut self, n: usize) -> Vec<Gpa> {
        let mut out = Vec::with_capacity(n);
        let mut i = self.hint;
        while out.len() < n {
            let word = &mut self.free[i];
            while *word != 0 && out.len() < n {
                out.push(Gpa((i as u64 * 64 + u64::from(word.trailing_zeros())) * PAGE_SIZE));
                *word &= *word - 1;
            }
            i += 1;
        }
        self.nfree -= n;
        self.advance_hint();
        out
    }

    /// First fit: the lowest `start` with `start..start + n` all free.
    fn find_run(&self, n: u64) -> Option<u64> {
        let (mut start, mut len) = (0u64, 0u64);
        for (i, &word) in self.free.iter().enumerate().skip(self.hint) {
            let mut bit = 0u32;
            while bit < 64 {
                let rest = word >> bit;
                if rest == 0 {
                    len = 0;
                    break;
                }
                let zeros = rest.trailing_zeros();
                if zeros > 0 {
                    len = 0;
                    bit += zeros;
                    continue;
                }
                let ones = rest.trailing_ones();
                if len == 0 {
                    start = i as u64 * 64 + u64::from(bit);
                }
                len += u64::from(ones);
                if len >= n {
                    return Some(start);
                }
                bit += ones;
            }
        }
        None
    }

    /// Marks `pages` (known free) allocated.
    fn take_range(&mut self, pages: Range<u64>) {
        self.nfree -= (pages.end - pages.start) as usize;
        for p in pages {
            self.mark(p, false);
        }
        self.advance_hint();
    }

    /// Frees every page of `pages`, or — at the first one that is not an
    /// allocated, aligned page of this guest (a page listed twice is free
    /// by its second mention) — undoes this call's frees and names it.
    fn give_back(&mut self, pages: &[Gpa]) -> Result<(), VirtioError> {
        for (i, gpa) in pages.iter().enumerate() {
            let page = gpa.page();
            if gpa.0 % PAGE_SIZE != 0 || page >= self.total || self.is_free(page) {
                for done in &pages[..i] {
                    self.mark(done.page(), false);
                }
                return Err(VirtioError::BadFree(*gpa));
            }
            self.mark(page, true);
            // A lower hint only widens the scan, so an undo leaves it valid.
            self.hint = self.hint.min((page / 64) as usize);
        }
        self.nfree += pages.len();
        Ok(())
    }
}

/// The VM's physical address space.
///
/// Cheaply cloneable (`Arc` inside); the guest driver, the device model and
/// the VMM all share the same memory, as in a real VMM process.
#[derive(Debug, Clone)]
pub struct GuestMemory {
    inner: Arc<Inner>,
}

impl GuestMemory {
    /// Creates `size` bytes of guest RAM starting at GPA 0 (rounded up to a
    /// whole number of pages), all zero: a released RAM of that size if one
    /// is free, else a fresh one.
    #[must_use]
    pub fn new(size: u64) -> Self {
        let pages = size.div_ceil(PAGE_SIZE);
        let bytes = pages * PAGE_SIZE;
        GuestMemory {
            inner: Arc::new(Inner {
                ram: RwLock::new(LockLevel::GuestRam, 0, Ram::take(bytes as usize)),
                size: bytes,
                allocator: Mutex::new(LockLevel::GuestPages, 0, PageAllocator::new(pages)),
                inject: InjectCell::new(),
            }),
        }
    }

    /// Total bytes of guest RAM.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.inner.size
    }

    /// Whether `other` is a handle on this same guest RAM (not merely
    /// equal contents).
    #[must_use]
    pub fn same_as(&self, other: &GuestMemory) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Free pages currently available to the allocator.
    #[must_use]
    pub fn free_pages(&self) -> usize {
        self.inner.allocator.lock().nfree
    }

    /// Pages written since this RAM was handed out: the ones whose dirty
    /// bit is set, and the ones a drop of the last handle will zero.
    #[must_use]
    pub fn dirty_pages(&self) -> usize {
        let ram = self.inner.ram.read();
        ram.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Installs the fault-injection plane: every clone of this memory
    /// starts consulting [`MEM_EIO_POINT`] on scoped data accesses.
    pub fn install_fault_plane(&self, plane: Arc<FaultPlane>) {
        self.inner.inject.install(plane);
    }

    fn injected_eio(&self) -> Result<(), VirtioError> {
        if self.inner.inject.hit(MEM_EIO_POINT) {
            Err(VirtioError::Eio { point: MEM_EIO_POINT })
        } else {
            Ok(())
        }
    }

    /// Runs `f` over a shared view of guest RAM for record reads: one
    /// borrow for any number of accesses, each bounds-checked, none
    /// consulting [`MEM_EIO_POINT`]. `f` must not call back into this
    /// memory (the borrow is held for the whole call).
    pub fn view<T>(&self, f: impl FnOnce(&GuestView<'_>) -> T) -> T {
        f(&GuestView { ram: &self.inner.ram.read().bytes })
    }

    /// Mutable [`view`](Self::view), for record writes.
    pub fn view_mut<T>(&self, f: impl FnOnce(&mut GuestViewMut<'_>) -> T) -> T {
        let Ram { bytes, dirty } = &mut *self.inner.ram.write();
        f(&mut GuestViewMut { ram: bytes, dirty })
    }

    /// Copies bytes into guest memory at `gpa`.
    ///
    /// # Errors
    ///
    /// [`VirtioError::OutOfBounds`] if the range exceeds guest RAM.
    pub fn write(&self, gpa: Gpa, data: &[u8]) -> Result<(), VirtioError> {
        self.view_mut(|v| v.write(gpa, data))
    }

    /// Copies bytes out of guest memory at `gpa`.
    ///
    /// # Errors
    ///
    /// [`VirtioError::OutOfBounds`] if the range exceeds guest RAM.
    pub fn read(&self, gpa: Gpa, dst: &mut [u8]) -> Result<(), VirtioError> {
        self.view(|v| v.read(gpa, dst))
    }

    /// Writes a little-endian `u16` (virtqueue ring fields).
    ///
    /// # Errors
    ///
    /// [`VirtioError::OutOfBounds`] if the range exceeds guest RAM.
    pub fn write_u16(&self, gpa: Gpa, v: u16) -> Result<(), VirtioError> {
        self.view_mut(|view| view.write_u16(gpa, v))
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`VirtioError::OutOfBounds`] if the range exceeds guest RAM.
    pub fn read_u16(&self, gpa: Gpa) -> Result<u16, VirtioError> {
        self.view(|v| v.read_u16(gpa))
    }

    /// GPA→HVA access: runs `f` over a borrowed view of guest RAM — the
    /// zero-copy window an mmap'ed HVA gives Firecracker.
    ///
    /// # Errors
    ///
    /// [`VirtioError::OutOfBounds`] if the range exceeds guest RAM.
    pub fn with_slice<T>(
        &self,
        gpa: Gpa,
        len: u64,
        f: impl FnOnce(&[u8]) -> T,
    ) -> Result<T, VirtioError> {
        self.injected_eio()?;
        let range = byte_range(self.size(), gpa, len)?;
        Ok(f(&self.inner.ram.read().bytes[range]))
    }

    /// Mutable GPA→HVA access.
    ///
    /// # Errors
    ///
    /// [`VirtioError::OutOfBounds`] if the range exceeds guest RAM.
    pub fn with_slice_mut<T>(
        &self,
        gpa: Gpa,
        len: u64,
        f: impl FnOnce(&mut [u8]) -> T,
    ) -> Result<T, VirtioError> {
        self.injected_eio()?;
        let range = byte_range(self.size(), gpa, len)?;
        let mut ram = self.inner.ram.write();
        mark_dirty(&mut ram.dirty, &range);
        Ok(f(&mut ram.bytes[range]))
    }

    /// The page walk behind both walkers: `len` bytes laid over `pages`
    /// in order, a full page each except a partial last one, stopping at
    /// `len` or at the end of the list, whichever comes first. Each visited
    /// page consults [`MEM_EIO_POINT`] and then the bounds check, exactly
    /// as one [`with_slice`](Self::with_slice) per page would, so an armed
    /// fault schedule fires on the same page; the first error ends the walk.
    fn walk<E: From<VirtioError>>(
        &self,
        pages: &[Gpa],
        len: u64,
        mut visit: impl FnMut(u64, std::ops::Range<usize>) -> Result<(), E>,
    ) -> Result<(), E> {
        for (page, offset) in pages.iter().zip((0..len).step_by(PAGE_SIZE as usize)) {
            let n = (len - offset).min(PAGE_SIZE);
            self.injected_eio()?;
            visit(offset, byte_range(self.size(), *page, n)?)?;
        }
        Ok(())
    }

    /// Zero-copy read of `len` bytes spread over `pages`: calls
    /// `f(offset, bytes)` for each page in order under **one** borrow of
    /// guest RAM, with the same per-page fault point and bounds check as
    /// one [`with_slice`](Self::with_slice) per page.
    ///
    /// # Errors
    ///
    /// [`VirtioError::Eio`] / [`VirtioError::OutOfBounds`] for the first
    /// page that faults or lies outside RAM (pages before it were visited),
    /// or whatever `f` returns.
    pub fn walk_pages<E: From<VirtioError>>(
        &self,
        pages: &[Gpa],
        len: u64,
        mut f: impl FnMut(u64, &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let ram = self.inner.ram.read();
        self.walk(pages, len, |offset, range| f(offset, &ram.bytes[range]))
    }

    /// Mutable [`walk_pages`](Self::walk_pages).
    ///
    /// # Errors
    ///
    /// As [`walk_pages`](Self::walk_pages).
    pub fn walk_pages_mut<E: From<VirtioError>>(
        &self,
        pages: &[Gpa],
        len: u64,
        mut f: impl FnMut(u64, &mut [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let Ram { bytes, dirty } = &mut *self.inner.ram.write();
        self.walk(pages, len, |offset, range| {
            mark_dirty(dirty, &range);
            f(offset, &mut bytes[range])
        })
    }

    /// Copies `data` into `pages`, one page's worth each (the last may be
    /// partial), under one borrow of guest RAM — the guest userspace
    /// filling its own buffer, so like [`write`](Self::write) it consults
    /// no fault point. Stops at the end of the shorter of the two.
    ///
    /// # Errors
    ///
    /// [`VirtioError::OutOfBounds`] for the first page outside guest RAM.
    pub fn write_pages(&self, pages: &[Gpa], data: &[u8]) -> Result<(), VirtioError> {
        self.view_mut(|v| v.write_pages(pages, data))
    }

    /// Allocates `n` guest pages (not necessarily contiguous), returning
    /// their base GPAs. Used by the simulated guest userspace for
    /// application buffers.
    ///
    /// # Errors
    ///
    /// [`VirtioError::OutOfPages`] if fewer than `n` pages are free.
    pub fn alloc_pages(&self, n: usize) -> Result<Vec<Gpa>, VirtioError> {
        let mut alloc = self.inner.allocator.lock();
        if alloc.nfree < n {
            return Err(VirtioError::OutOfPages { requested: n, free: alloc.nfree });
        }
        Ok(alloc.take_lowest(n))
    }

    /// Allocates `n` *contiguous* pages and returns the base GPA (queue
    /// rings need contiguity): the lowest-addressed run of `n` free pages.
    ///
    /// # Errors
    ///
    /// [`VirtioError::OutOfPages`] if no contiguous run of `n` pages exists
    /// (or `n` is zero).
    pub fn alloc_contiguous(&self, n: usize) -> Result<Gpa, VirtioError> {
        let mut alloc = self.inner.allocator.lock();
        let start = (n > 0).then(|| alloc.find_run(n as u64)).flatten();
        let Some(start) = start else {
            return Err(VirtioError::OutOfPages { requested: n, free: alloc.nfree });
        };
        alloc.take_range(start..start + n as u64);
        Ok(Gpa(start * PAGE_SIZE))
    }

    /// Returns pages to the allocator: all of them, or — on an error —
    /// none.
    ///
    /// # Errors
    ///
    /// [`VirtioError::BadFree`] naming the first page that is not
    /// allocated (double free, or listed twice), not page aligned, or
    /// outside guest RAM; the allocator is then unchanged.
    pub fn free_pages_back(&self, pages: &[Gpa]) -> Result<(), VirtioError> {
        self.inner.allocator.lock().give_back(pages)
    }
}

/// `gpa..gpa + len` as an index range into RAM of `size` bytes.
///
/// `gpa < size` also rejects zero-length accesses at (or past) the exact
/// end-of-RAM boundary: no byte of `[gpa, gpa+len)` is backed by RAM
/// there, and no view may be anchored outside the mapping.
fn byte_range(size: u64, gpa: Gpa, len: u64) -> Result<Range<usize>, VirtioError> {
    match gpa.0.checked_add(len) {
        Some(end) if end <= size && gpa.0 < size => Ok(gpa.0 as usize..end as usize),
        _ => Err(VirtioError::OutOfBounds { gpa, len }),
    }
}

/// A shared view of guest RAM, from [`GuestMemory::view`]: raw record
/// reads, bounds-checked per access and uninstrumented.
pub struct GuestView<'a> {
    ram: &'a [u8],
}

impl<'a> GuestView<'a> {
    /// The `len` bytes at `gpa`, borrowed for as long as the view.
    ///
    /// # Errors
    ///
    /// [`VirtioError::OutOfBounds`] if the range exceeds guest RAM.
    pub fn bytes(&self, gpa: Gpa, len: u64) -> Result<&'a [u8], VirtioError> {
        Ok(&self.ram[byte_range(self.ram.len() as u64, gpa, len)?])
    }

    /// Copies bytes out of guest memory at `gpa`.
    ///
    /// # Errors
    ///
    /// [`VirtioError::OutOfBounds`] if the range exceeds guest RAM.
    pub fn read(&self, gpa: Gpa, dst: &mut [u8]) -> Result<(), VirtioError> {
        dst.copy_from_slice(self.bytes(gpa, dst.len() as u64)?);
        Ok(())
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`VirtioError::OutOfBounds`] if the range exceeds guest RAM.
    pub fn read_u16(&self, gpa: Gpa) -> Result<u16, VirtioError> {
        let mut b = [0u8; 2];
        self.read(gpa, &mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Copies bytes `offset..offset + dst.len()` of a buffer laid over
    /// `pages` (a full page each) into `dst`, stopping at the end of the
    /// list.
    ///
    /// # Errors
    ///
    /// [`VirtioError::OutOfBounds`] for the first page outside guest RAM.
    pub fn read_pages_at(
        &self,
        pages: &[Gpa],
        offset: u64,
        dst: &mut [u8],
    ) -> Result<(), VirtioError> {
        for (gpa, at, n) in pieces(pages, offset, dst.len() as u64) {
            self.read(gpa, &mut dst[at..at + n])?;
        }
        Ok(())
    }
}

/// A mutable view of guest RAM, from [`GuestMemory::view_mut`]: raw record
/// writes, bounds-checked per access and uninstrumented.
pub struct GuestViewMut<'a> {
    ram: &'a mut [u8],
    dirty: &'a mut [u64],
}

impl GuestViewMut<'_> {
    /// Copies bytes into guest memory at `gpa`.
    ///
    /// # Errors
    ///
    /// [`VirtioError::OutOfBounds`] if the range exceeds guest RAM.
    pub fn write(&mut self, gpa: Gpa, data: &[u8]) -> Result<(), VirtioError> {
        let range = byte_range(self.ram.len() as u64, gpa, data.len() as u64)?;
        mark_dirty(self.dirty, &range);
        self.ram[range].copy_from_slice(data);
        Ok(())
    }

    /// Writes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`VirtioError::OutOfBounds`] if the range exceeds guest RAM.
    pub fn write_u16(&mut self, gpa: Gpa, v: u16) -> Result<(), VirtioError> {
        self.write(gpa, &v.to_le_bytes())
    }

    /// [`GuestMemory::write_pages`] inside the view.
    ///
    /// # Errors
    ///
    /// [`VirtioError::OutOfBounds`] for the first page outside guest RAM.
    pub fn write_pages(&mut self, pages: &[Gpa], data: &[u8]) -> Result<(), VirtioError> {
        for (page, chunk) in pages.iter().zip(data.chunks(PAGE_SIZE as usize)) {
            self.write(*page, chunk)?;
        }
        Ok(())
    }

    /// Copies `data` into bytes `offset..` of a buffer laid over `pages`
    /// (a full page each), stopping at the end of the list.
    ///
    /// # Errors
    ///
    /// [`VirtioError::OutOfBounds`] for the first page outside guest RAM.
    pub fn write_pages_at(
        &mut self,
        pages: &[Gpa],
        offset: u64,
        data: &[u8],
    ) -> Result<(), VirtioError> {
        for (gpa, at, n) in pieces(pages, offset, data.len() as u64) {
            self.write(gpa, &data[at..at + n])?;
        }
        Ok(())
    }

    /// Zeroes bytes `offset..offset + len` of a buffer laid over `pages`,
    /// stopping at the end of the list.
    ///
    /// # Errors
    ///
    /// [`VirtioError::OutOfBounds`] for the first page outside guest RAM.
    pub fn zero_pages_at(
        &mut self,
        pages: &[Gpa],
        offset: u64,
        len: u64,
    ) -> Result<(), VirtioError> {
        for (gpa, _, n) in pieces(pages, offset, len) {
            let range = byte_range(self.ram.len() as u64, gpa, n as u64)?;
            self.ram[range].fill(0);
        }
        Ok(())
    }
}

/// Bytes `offset..offset + len` of a buffer laid over `pages`, a full page
/// each, split at page boundaries: `(guest address, offset within the
/// range, length)` per piece, ending early with the list.
fn pieces(pages: &[Gpa], offset: u64, len: u64) -> impl Iterator<Item = (Gpa, usize, usize)> + '_ {
    let end = offset + len;
    let first = (offset / PAGE_SIZE) as usize;
    pages.iter().zip(0u64..).skip(first).map_while(move |(page, i)| {
        let lo = (i * PAGE_SIZE).max(offset);
        let hi = ((i + 1) * PAGE_SIZE).min(end);
        (lo < hi).then(|| (page.add(lo % PAGE_SIZE), (lo - offset) as usize, (hi - lo) as usize))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A page counts once however often it is written, a write across a
    /// page boundary counts both pages, and reads count nothing.
    #[test]
    fn dirty_pages_counts_each_written_page_once() {
        let mem = GuestMemory::new(40 * PAGE_SIZE);
        assert_eq!(mem.dirty_pages(), 0);
        mem.write(Gpa(3 * PAGE_SIZE + 8), &[1; 16]).unwrap();
        mem.write(Gpa(3 * PAGE_SIZE), &[2; 4]).unwrap();
        assert_eq!(mem.dirty_pages(), 1);
        mem.with_slice_mut(Gpa(7 * PAGE_SIZE - 2), 4, |s| s.fill(3))
            .unwrap();
        let mut back = [0u8; 64];
        mem.read(Gpa(20 * PAGE_SIZE), &mut back).unwrap();
        assert_eq!(mem.dirty_pages(), 3);
    }

    #[test]
    fn read_write_roundtrip() {
        let mem = GuestMemory::new(64 << 10);
        mem.write(Gpa(100), b"hello world").unwrap();
        let mut buf = [0u8; 11];
        mem.read(Gpa(100), &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn bounds_checked() {
        let mem = GuestMemory::new(PAGE_SIZE);
        assert!(mem.write(Gpa(PAGE_SIZE - 1), &[0, 0]).is_err());
        assert!(mem.write(Gpa(u64::MAX), &[0]).is_err());
        let mut b = [0u8];
        assert!(mem.read(Gpa(PAGE_SIZE), &mut b).is_err());
    }

    #[test]
    fn zero_length_rejected_at_and_past_end_of_ram() {
        let mem = GuestMemory::new(PAGE_SIZE);
        // In-bounds zero-length accesses are fine…
        assert!(mem.write(Gpa(0), &[]).is_ok());
        assert!(mem.read(Gpa(PAGE_SIZE - 1), &mut []).is_ok());
        assert!(mem.with_slice(Gpa(123), 0, |s| s.len()).is_ok());
        // …but at the exact end-of-RAM boundary (or past it) no byte of the
        // range is backed, so every accessor must reject — including len 0.
        assert!(mem.write(Gpa(PAGE_SIZE), &[]).is_err());
        assert!(mem.read(Gpa(PAGE_SIZE), &mut []).is_err());
        assert!(mem.with_slice(Gpa(PAGE_SIZE), 0, |_| ()).is_err());
        assert!(mem.with_slice_mut(Gpa(PAGE_SIZE), 0, |_| ()).is_err());
        assert!(mem.with_slice(Gpa(PAGE_SIZE + 1), 0, |_| ()).is_err());
        // Overflowing gpa+len is rejected, not wrapped.
        assert!(mem.with_slice(Gpa(u64::MAX), 2, |_| ()).is_err());
    }

    #[test]
    fn typed_accessors() {
        let mem = GuestMemory::new(PAGE_SIZE);
        mem.write_u16(Gpa(0), 0xBEEF).unwrap();
        assert_eq!(mem.read_u16(Gpa(0)).unwrap(), 0xBEEF);
    }

    #[test]
    fn with_slice_views() {
        let mem = GuestMemory::new(PAGE_SIZE);
        mem.write(Gpa(0), &[1, 2, 3, 4]).unwrap();
        let sum = mem
            .with_slice(Gpa(0), 4, |s| s.iter().map(|b| u32::from(*b)).sum::<u32>())
            .unwrap();
        assert_eq!(sum, 10);
        mem.with_slice_mut(Gpa(0), 4, |s| s.reverse()).unwrap();
        let mut buf = [0u8; 4];
        mem.read(Gpa(0), &mut buf).unwrap();
        assert_eq!(buf, [4, 3, 2, 1]);
    }

    #[test]
    fn page_allocator_alloc_free() {
        let mem = GuestMemory::new(8 * PAGE_SIZE);
        let pages = mem.alloc_pages(8).unwrap();
        assert_eq!(pages.len(), 8);
        assert_eq!(mem.free_pages(), 0);
        assert!(mem.alloc_pages(1).is_err());
        mem.free_pages_back(&pages).unwrap();
        assert_eq!(mem.free_pages(), 8);
    }

    #[test]
    fn double_free_detected() {
        let mem = GuestMemory::new(4 * PAGE_SIZE);
        let pages = mem.alloc_pages(1).unwrap();
        mem.free_pages_back(&pages).unwrap();
        assert!(matches!(mem.free_pages_back(&pages), Err(VirtioError::BadFree(_))));
        assert!(mem.free_pages_back(&[Gpa(3)]).is_err()); // unaligned
    }

    #[test]
    fn a_rejected_free_changes_nothing() {
        let mem = GuestMemory::new(4 * PAGE_SIZE);
        let pages = mem.alloc_pages(3).unwrap();
        mem.free_pages_back(&pages[2..]).unwrap();
        let (held, already_free) = (pages[0], pages[2]);
        let before = mem.free_pages();
        assert!(matches!(
            mem.free_pages_back(&[held, already_free]),
            Err(VirtioError::BadFree(g)) if g == already_free
        ));
        assert_eq!(mem.free_pages(), before);
        // A page listed twice, an unaligned one and one past RAM are
        // refused the same way, after pages that would have been freed.
        for bad in [[held, held], [held, Gpa(3)], [held, Gpa(4 * PAGE_SIZE)]] {
            assert!(mem.free_pages_back(&bad).is_err());
            assert_eq!(mem.free_pages(), before);
        }
        // `held` is still allocated: the lowest free page is not it.
        assert_eq!(mem.alloc_pages(1).unwrap(), [already_free]);
        mem.free_pages_back(&[held, pages[1]]).unwrap();
        assert_eq!(mem.free_pages(), 3);
    }

    #[test]
    fn views_bounds_check_every_access() {
        let mem = GuestMemory::new(PAGE_SIZE);
        mem.view_mut(|v| {
            v.write(Gpa(8), b"ring")?;
            v.write_u16(Gpa(16), 0xBEEF)?;
            assert!(v.write(Gpa(PAGE_SIZE - 1), &[0, 0]).is_err());
            assert!(v.write(Gpa(PAGE_SIZE), &[]).is_err());
            Ok::<(), VirtioError>(())
        })
        .unwrap();
        mem.view(|v| {
            let mut b = [0u8; 4];
            v.read(Gpa(8), &mut b).unwrap();
            assert_eq!(&b, b"ring");
            assert_eq!(v.read_u16(Gpa(16)).unwrap(), 0xBEEF);
            assert_eq!(v.bytes(Gpa(8), 4).unwrap(), b"ring");
            assert!(v.bytes(Gpa(PAGE_SIZE - 2), 4).is_err());
            assert!(v.read_u16(Gpa(u64::MAX)).is_err());
        });
    }

    #[test]
    fn contiguous_allocation() {
        let mem = GuestMemory::new(8 * PAGE_SIZE);
        // Fragment: take pages 0..8, free 2,3,4.
        let all = mem.alloc_pages(8).unwrap();
        mem.free_pages_back(&[all[2], all[3], all[4]]).unwrap();
        let base = mem.alloc_contiguous(3).unwrap();
        assert_eq!(base.page(), all[2].page());
        assert!(mem.alloc_contiguous(1).is_err());
    }

    #[test]
    fn injected_eio_is_transient_and_scoped_to_data_accesses() {
        use simkit::{FaultPlan, FaultPlane};
        let mem = GuestMemory::new(4 * PAGE_SIZE);
        let plane = Arc::new(FaultPlane::new(1));
        plane.arm(MEM_EIO_POINT, FaultPlan::Nth(1));
        mem.install_fault_plane(plane.clone());
        // The first scoped access fires a typed transient EIO…
        assert!(matches!(
            mem.with_slice(Gpa(0), 4, |_| ()),
            Err(VirtioError::Eio { point: MEM_EIO_POINT })
        ));
        // …and the retry goes through untouched (Nth(1) is spent).
        assert!(mem.with_slice(Gpa(0), 4, |_| ()).is_ok());
        // Ring bookkeeping accessors are never instrumented: even with the
        // point firing on every hit, raw reads/writes stay clean.
        plane.arm(MEM_EIO_POINT, FaultPlan::EveryK(1));
        assert!(mem.write(Gpa(0), &[1, 2, 3]).is_ok());
        let mut b = [0u8; 3];
        assert!(mem.read(Gpa(0), &mut b).is_ok());
        assert!(mem.write_u16(Gpa(8), 7).is_ok());
        assert!(mem.write_pages(&[Gpa(0), Gpa(PAGE_SIZE)], &[5u8; 5000]).is_ok());
        assert!(mem.view(|v| v.read(Gpa(0), &mut b)).is_ok());
        assert!(mem.view_mut(|v| v.write_pages(&[Gpa(0)], &[6u8; 10])).is_ok());
        let hits = plane.point_stats(MEM_EIO_POINT).expect("armed").hits;
        assert_eq!(hits, 0, "raw accessors and views consult nothing");
        assert!(matches!(
            mem.walk_pages(&[Gpa(0)], 2, |_, _| Ok::<(), VirtioError>(())),
            Err(VirtioError::Eio { .. })
        ));
        assert!(matches!(
            mem.walk_pages_mut(&[Gpa(0)], 2, |_, _| Ok::<(), VirtioError>(())),
            Err(VirtioError::Eio { .. })
        ));
        // Clones share the installed plane.
        let clone = mem.clone();
        assert!(clone.with_slice(Gpa(0), 1, |_| ()).is_err());
    }

    /// What a walk saw: the `(offset, bytes)` of every visited page, then
    /// how it ended.
    type Visits = (Vec<(u64, Vec<u8>)>, Result<(), VirtioError>);

    /// The walkers' specification: one `with_slice` per page.
    fn model_walk(mem: &GuestMemory, pages: &[Gpa], len: u64) -> Visits {
        let mut seen = Vec::new();
        for (i, page) in pages.iter().enumerate() {
            let lo = i as u64 * PAGE_SIZE;
            let hi = (lo + PAGE_SIZE).min(len);
            if lo >= hi {
                break;
            }
            match mem.with_slice(*page, hi - lo, <[u8]>::to_vec) {
                Ok(bytes) => seen.push((lo, bytes)),
                Err(e) => return (seen, Err(e)),
            }
        }
        (seen, Ok(()))
    }

    fn walked(mem: &GuestMemory, pages: &[Gpa], len: u64, mutable: bool) -> Visits {
        let mut seen = Vec::new();
        let end = if mutable {
            mem.walk_pages_mut(pages, len, |off, s| {
                seen.push((off, s.to_vec()));
                Ok(())
            })
        } else {
            mem.walk_pages(pages, len, |off, s| {
                seen.push((off, s.to_vec()));
                Ok(())
            })
        };
        (seen, end)
    }

    /// The sizes, in pages, of the recycling property's memories.
    const RECYCLE_PAGES: u64 = 23;
    const OTHER_PAGES: u64 = 29;

    fn has_repeats(pages: &[Gpa]) -> bool {
        let mut sorted: Vec<u64> = pages.iter().map(|p| p.0).collect();
        sorted.sort_unstable();
        sorted.windows(2).any(|w| w[0] == w[1])
    }

    proptest! {
        /// Both walkers visit exactly the `(offset, bytes)` sequence of a
        /// per-page `with_slice` model — over non-contiguous and repeated
        /// pages, the last RAM page, a page outside RAM (which fails with
        /// `OutOfBounds` after the pages before it were visited), an
        /// unaligned last RAM page whose visit ends at or runs past the end
        /// of RAM, and any `len` (0, whole pages, partial last page, shorter
        /// or longer than the list covers) — and consult `MEM_EIO_POINT`
        /// once per visited page, in page order.
        #[test]
        fn walkers_match_the_per_page_model(
            picks in proptest::collection::vec(0u64..9, 0..12),
            whole in 0u64..14,
            // `exact == 0` (one case in three) makes `len` a whole number
            // of pages.
            exact in 0u8..3,
            tail in 1u64..PAGE_SIZE,
            fill in proptest::collection::vec(any::<u8>(), 0..3 * PAGE_SIZE as usize),
            nth in 1u64..14,
            skew in 1u64..PAGE_SIZE,
        ) {
            const PAGES: u64 = 8;
            let mem = GuestMemory::new(PAGES * PAGE_SIZE);
            // Pick 8 lies outside RAM; the others include the last page.
            let pages: Vec<Gpa> = picks.iter().map(|p| Gpa(p * PAGE_SIZE)).collect();
            let len = whole * PAGE_SIZE + if exact == 0 { 0 } else { tail };
            let in_ram = pages.iter().take_while(|p| p.page() < PAGES).count();

            // `write_pages` lands what the walkers then read back.
            let filled = mem.write_pages(&pages, &fill);
            let covered = fill.len().div_ceil(PAGE_SIZE as usize).min(pages.len());
            prop_assert_eq!(filled.is_ok(), covered <= in_ram);
            if in_ram == pages.len() && !has_repeats(&pages) {
                let (seen, end) = walked(&mem, &pages, fill.len() as u64, false);
                prop_assert!(end.is_ok());
                let back: Vec<u8> = seen.into_iter().flat_map(|(_, b)| b).collect();
                let covered_bytes = fill.len().min(pages.len() * PAGE_SIZE as usize);
                prop_assert_eq!(&back[..], &fill[..covered_bytes]);
            }

            let want = model_walk(&mem, &pages, len);
            let visits = len.div_ceil(PAGE_SIZE).min(pages.len() as u64);
            prop_assert_eq!(want.1.is_ok(), visits <= in_ram as u64);
            if want.1.is_err() {
                prop_assert_eq!(want.0.len(), in_ram);
                let out_of_bounds = matches!(want.1, Err(VirtioError::OutOfBounds { .. }));
                prop_assert!(out_of_bounds);
            }
            for mutable in [false, true] {
                prop_assert_eq!(&walked(&mem, &pages, len, mutable), &want);
            }

            // The last RAM page moved up by `skew` bytes: a visit of more
            // than `PAGE_SIZE - skew` bytes there runs past the end of RAM
            // and fails, one that ends at or before it passes.
            let skewed: Vec<Gpa> = pages
                .iter()
                .map(|p| if p.page() == PAGES - 1 { p.add(skew) } else { *p })
                .collect();
            let fits = skewed.iter().zip((0..len).step_by(PAGE_SIZE as usize)).all(|(p, off)| {
                p.0 + (len - off).min(PAGE_SIZE) <= PAGES * PAGE_SIZE
            });
            let want_skewed = model_walk(&mem, &skewed, len);
            prop_assert_eq!(want_skewed.1.is_ok(), fits);
            for mutable in [false, true] {
                prop_assert_eq!(&walked(&mem, &skewed, len, mutable), &want_skewed);
            }

            // Armed, the plane is hit once per visited page (an out-of-RAM
            // page is consulted before it is refused); `Nth(k)` stops the
            // walk at the k-th page, `EveryK(1)` at the first.
            let consulted = want.0.len() as u64 + u64::from(want.1.is_err());
            let plane = Arc::new(simkit::FaultPlane::new(1));
            mem.install_fault_plane(plane.clone());
            for mutable in [false, true] {
                plane.arm(MEM_EIO_POINT, simkit::FaultPlan::Nth(nth));
                let (seen, end) = walked(&mem, &pages, len, mutable);
                let hits = plane.point_stats(MEM_EIO_POINT).expect("armed").hits;
                if nth <= consulted {
                    prop_assert_eq!(end, Err(VirtioError::Eio { point: MEM_EIO_POINT }));
                    prop_assert_eq!(hits, nth);
                    prop_assert_eq!(&seen[..], &want.0[..nth as usize - 1]);
                } else {
                    prop_assert_eq!(hits, consulted);
                    prop_assert_eq!(&(seen, end), &want);
                }
                plane.arm(MEM_EIO_POINT, simkit::FaultPlan::EveryK(1));
                let (seen, end) = walked(&mem, &pages, len, mutable);
                prop_assert_eq!(end.is_err(), visits > 0);
                prop_assert!(seen.is_empty());
                let hits = plane.point_stats(MEM_EIO_POINT).expect("armed").hits;
                prop_assert_eq!(hits, visits.min(1));
            }
        }

        /// The offset accessors treat a page list as one flat buffer: a
        /// write, a zeroing and a read at any offset and length inside
        /// it do to the pages exactly what they would do to a `Vec`.
        #[test]
        fn offset_accessors_match_a_flat_buffer(
            // Six pages in one of twelve orders (5 is coprime with 6).
            rot in 0u64..6,
            backwards in any::<bool>(),
            at in 0usize..6 * PAGE_SIZE as usize,
            fill in proptest::collection::vec(any::<u8>(), 0..2 * PAGE_SIZE as usize),
            zero in (0usize..6 * PAGE_SIZE as usize, 0usize..PAGE_SIZE as usize),
        ) {
            const LEN: usize = 6 * PAGE_SIZE as usize;
            let mem = GuestMemory::new(8 * PAGE_SIZE);
            let step = if backwards { 5 } else { 1 };
            let pages: Vec<Gpa> = (0..6).map(|i| Gpa((i * step + rot) % 6 * PAGE_SIZE)).collect();
            let mut model = vec![0xA5u8; LEN];
            mem.write_pages(&pages, &model).unwrap();
            let fill = &fill[..fill.len().min(LEN - at)];
            let (z, zlen) = (zero.0, zero.1.min(LEN - zero.0));
            mem.view_mut(|v| {
                v.write_pages_at(&pages, at as u64, fill)?;
                v.zero_pages_at(&pages, z as u64, zlen as u64)
            })
            .unwrap();
            model[at..at + fill.len()].copy_from_slice(fill);
            model[z..z + zlen].fill(0);
            let mut whole = vec![0u8; LEN];
            mem.view(|v| v.read_pages_at(&pages, 0, &mut whole)).unwrap();
            prop_assert_eq!(&whole, &model);
            let mut part = vec![0u8; fill.len()];
            mem.view(|v| v.read_pages_at(&pages, at as u64, &mut part)).unwrap();
            prop_assert_eq!(&part[..], &model[at..at + fill.len()]);
        }

        /// Recycling: whatever a memory's handles wrote, through any
        /// mutable accessor, at allocated pages or not, on the last page or
        /// across the end of RAM, every page left holding a byte is marked
        /// dirty; once the last handle drops, the next memory of that size
        /// gets the same buffer back, all zero with every page free, and a
        /// memory of another size never gets it. The two sizes are used by
        /// no other test in this crate, so no parallel test can take the
        /// buffer in between.
        #[test]
        fn a_dropped_memory_comes_back_zeroed_to_its_size_only(
            allocated in 0usize..RECYCLE_PAGES as usize + 1,
            ops in proptest::collection::vec(
                ((0u8..7, 1u8..255), 0u64..RECYCLE_PAGES + 2, 0u64..PAGE_SIZE, 0u64..3 * PAGE_SIZE),
                1..16,
            ),
        ) {
            let mem = GuestMemory::new(RECYCLE_PAGES * PAGE_SIZE);
            let held = mem.alloc_pages(allocated).unwrap();
            let handle = mem.clone();
            for ((op, byte), page, at, len) in ops {
                let gpa = Gpa(page * PAGE_SIZE + at);
                // Two pages, in reverse order: the last page of RAM and the
                // one past it, or both past it, are among the picks.
                let pages = [Gpa((page + 1) * PAGE_SIZE), Gpa(page * PAGE_SIZE)];
                let data = vec![byte; len as usize];
                // Refused ranges are part of the input: only what lands counts.
                let _ = match op {
                    0 => handle.write(gpa, &data),
                    1 => handle.write_u16(gpa, u16::from(byte) << 8 | 1),
                    2 => handle.write_pages(&pages, &data),
                    3 => handle.view_mut(|v| v.write_pages_at(&pages, at, &data)),
                    4 => handle.view_mut(|v| v.zero_pages_at(&pages, at, len)),
                    5 => handle.with_slice_mut(gpa, len, |s| s.fill(byte)),
                    _ => handle.walk_pages_mut(&pages, len, |_, s| {
                        s.fill(byte);
                        Ok::<(), VirtioError>(())
                    }),
                };
            }
            let buffer = {
                let ram = mem.inner.ram.read();
                for (p, bytes) in ram.bytes.chunks(PAGE_SIZE as usize).enumerate() {
                    let dirty = ram.dirty[p / 64] & 1 << (p % 64) != 0;
                    prop_assert!(dirty || bytes.iter().all(|b| *b == 0), "page {p} unmarked");
                }
                ram.bytes.as_ptr()
            };
            drop(held);
            drop(mem);
            let same = GuestMemory::new(RECYCLE_PAGES * PAGE_SIZE);
            prop_assert!(!same.same_as(&handle));
            prop_assert!(same.inner.ram.read().bytes.as_ptr() != buffer, "a handle lives");
            drop(same);
            drop(handle);
            let other = GuestMemory::new(OTHER_PAGES * PAGE_SIZE);
            prop_assert_ne!(other.inner.ram.read().bytes.as_ptr(), buffer);
            let again = GuestMemory::new(RECYCLE_PAGES * PAGE_SIZE);
            let ram = again.inner.ram.read();
            prop_assert_eq!(ram.bytes.as_ptr(), buffer);
            prop_assert!(ram.bytes.iter().all(|b| *b == 0));
            prop_assert!(ram.dirty.iter().all(|w| *w == 0));
            prop_assert_eq!(again.free_pages(), RECYCLE_PAGES as usize);
        }

        /// Allocator never hands out the same page twice while held.
        #[test]
        fn allocator_uniqueness(takes in proptest::collection::vec(1usize..4, 1..8)) {
            let mem = GuestMemory::new(64 * PAGE_SIZE);
            let mut held: Vec<Gpa> = Vec::new();
            for n in takes {
                if let Ok(mut pages) = mem.alloc_pages(n) {
                    held.append(&mut pages);
                }
            }
            let mut sorted: Vec<u64> = held.iter().map(|g| g.0).collect();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), held.len());
        }

        /// The allocator against a naive page map, over a 200-page guest
        /// (four bitmap words, the last partial): `alloc_contiguous(n)` is
        /// first fit — the lowest `start` with `start..start + n` all free,
        /// failing iff no such run exists; `alloc_pages(n)` returns exactly
        /// the `n` lowest free pages in ascending order, the order every
        /// GPA a request places relies on; `free_pages_back` frees a whole
        /// list of held pages or, given any page not held (or one listed
        /// twice), refuses it and changes nothing.
        #[test]
        fn contiguous_allocation_is_lowest_address_first_fit(
            ops in proptest::collection::vec((0u8..3, 0usize..70, 0usize..200), 1..80),
        ) {
            const PAGES: usize = 200;
            let mem = GuestMemory::new(PAGES as u64 * PAGE_SIZE);
            let mut free = [true; PAGES];
            for (op, n, at) in ops {
                let free_count = free.iter().filter(|f| **f).count();
                match op {
                    0 => {
                        let want = (0..=PAGES - n)
                            .find(|&s| n > 0 && free[s..s + n].iter().all(|f| *f));
                        match (mem.alloc_contiguous(n), want) {
                            (Ok(base), Some(start)) => {
                                prop_assert_eq!(base, Gpa(start as u64 * PAGE_SIZE));
                                free[start..start + n].fill(false);
                            }
                            (Err(VirtioError::OutOfPages { requested, free: left }), None) => {
                                prop_assert_eq!(requested, n);
                                prop_assert_eq!(left, free_count);
                            }
                            (got, want) => {
                                return Err(TestCaseError::fail(format!(
                                    "alloc_contiguous({n}) = {got:?}, model expects {want:?}"
                                )));
                            }
                        }
                    }
                    1 => {
                        // Scattered allocation punches holes from the low end.
                        let want: Vec<Gpa> = (0..PAGES)
                            .filter(|&p| free[p])
                            .take(n)
                            .map(|p| Gpa(p as u64 * PAGE_SIZE))
                            .collect();
                        match mem.alloc_pages(n) {
                            Ok(pages) => {
                                prop_assert_eq!(&pages, &want);
                                for g in pages {
                                    free[g.page() as usize] = false;
                                }
                            }
                            Err(VirtioError::OutOfPages { requested, free: left }) => {
                                prop_assert!(want.len() < n);
                                prop_assert_eq!((requested, left), (n, free_count));
                            }
                            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                        }
                    }
                    _ => {
                        // Up to three pages from `at` on (the last may lie
                        // past RAM), one time in five with `at` repeated.
                        let repeat = n % 5 == 0;
                        let mut list: Vec<u64> =
                            (at..=PAGES).take(n % 3 + 1).map(|p| p as u64).collect();
                        if repeat {
                            list.push(at as u64);
                        }
                        let held = |p: &u64| (*p as usize) < PAGES && !free[*p as usize];
                        let ok = !repeat && list.iter().all(held);
                        let gpas: Vec<Gpa> = list.iter().map(|p| Gpa(p * PAGE_SIZE)).collect();
                        prop_assert_eq!(mem.free_pages_back(&gpas).is_ok(), ok);
                        if ok {
                            for p in list {
                                free[p as usize] = true;
                            }
                        }
                    }
                }
                prop_assert_eq!(mem.free_pages(), free.iter().filter(|f| **f).count());
            }
        }
    }
}
