//! The per-DPU MRAM bank.
//!
//! Each DPU owns a 64 MB DRAM bank. Allocating 64 MB × 512 DPUs of real
//! memory up front would need 32 GiB, so the bank is a sparse table of
//! copy-on-write 4 KiB pages: a page exists once something wrote it, and a
//! missing page reads as zeros, like freshly reset DRAM. A page may be held
//! by several banks and snapshots at once (a broadcast, a checkpoint); the
//! first holder that writes it gets a private copy. The bank also keeps the
//! byte high-water mark of every write, and reports that as its resident
//! size, so byte counts do not depend on how pages happen to be shared.

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::error::SimError;

/// Bytes per MRAM page: the unit a bank allocates and shares.
pub const MRAM_PAGE: usize = 4096;

/// One page of bytes. It is deliberately not over-aligned: at 64-byte
/// alignment every page is an aligned allocation, which glibc makes slower
/// and about 64 bytes larger, while copies in and out of a page measured
/// no faster than at `malloc`'s 16 bytes.
#[derive(Clone)]
pub(crate) struct Page([u8; MRAM_PAGE]);

/// What a missing page reads as.
static ZERO_PAGE: Page = Page([0; MRAM_PAGE]);

/// The pages under `len` bytes at `offset`: `(page index, byte range in
/// that page)` for each, in address order. The range must be in bounds.
fn pieces(offset: u64, len: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
    let start = offset as usize;
    let end = start + len;
    let pages = if len == 0 { 0..0 } else { start / MRAM_PAGE..end.div_ceil(MRAM_PAGE) };
    pages.map(move |p| {
        let base = p * MRAM_PAGE;
        (p, start.max(base) - base..end.min(base + MRAM_PAGE) - base)
    })
}

/// A sparse, copy-on-write MRAM bank with a fixed logical capacity.
///
/// Cloning a bank clones page handles, not bytes: the clone and the
/// original share every page until one of them writes it. That is what a
/// [`crate::dpu::DpuSnapshot`] holds.
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
#[derive(Clone)]
pub struct MramBank {
    /// Indexed by page number up to the high-water mark's page.
    pages: Vec<Option<Arc<Page>>>,
    /// The highest byte any write reached (its end). Every byte at or above
    /// it reads as zero.
    high_water: usize,
    capacity: u64,
}

impl fmt::Debug for MramBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MramBank")
            .field("capacity", &self.capacity)
            .field("high_water", &self.high_water)
            .field("pages", &self.pages.iter().flatten().count())
            .finish()
    }
}

impl MramBank {
    /// Creates a bank with the given logical capacity in bytes.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        MramBank { pages: Vec::new(), high_water: 0, capacity }
    }

    /// Logical capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The byte high-water mark: the end of the highest write since the
    /// last reset. Pages shared with other banks count in full here too.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.high_water
    }

    fn check(&self, offset: u64, len: u64) -> Result<(), SimError> {
        let end = offset.checked_add(len);
        match end {
            Some(end) if end <= self.capacity => Ok(()),
            _ => Err(SimError::MramOutOfBounds { offset, len, capacity: self.capacity }),
        }
    }

    /// Page `p`'s handle, if it was ever written.
    fn slot(&self, p: usize) -> Option<&Arc<Page>> {
        self.pages.get(p).and_then(Option::as_ref)
    }

    /// Page `p` for reading: the zero page when it was never written.
    fn page_ref(&self, p: usize) -> &[u8; MRAM_PAGE] {
        &self.slot(p).map_or(&ZERO_PAGE, |page| &**page).0
    }

    /// Checks `len` bytes at `offset` and raises the high-water mark to
    /// their end, so the page table covers them.
    fn grow(&mut self, offset: u64, len: usize) -> Result<(), SimError> {
        self.check(offset, len as u64)?;
        let end = offset as usize + len;
        if end > self.high_water {
            self.high_water = end;
            let npages = end.div_ceil(MRAM_PAGE);
            if self.pages.len() < npages {
                self.pages.resize(npages, None);
            }
        }
        Ok(())
    }

    /// Page `p` for writing: allocated (zeroed) if missing, and made
    /// private if another bank or snapshot holds it too.
    fn page_mut(&mut self, p: usize) -> &mut [u8; MRAM_PAGE] {
        let slot = self.pages[p].get_or_insert_with(|| Arc::new(Page([0; MRAM_PAGE])));
        &mut Arc::make_mut(slot).0
    }

    /// Writes `src` at `offset`. A whole page that another holder shares
    /// is replaced, not copied first.
    ///
    /// # Errors
    ///
    /// [`SimError::MramOutOfBounds`] if the write exceeds the capacity.
    pub fn write(&mut self, offset: u64, src: &[u8]) -> Result<(), SimError> {
        self.grow(offset, src.len())?;
        let at = offset as usize % MRAM_PAGE;
        // Part of one page. A whole page takes the loop, which replaces a
        // shared page instead of copying it first.
        if !src.is_empty() && at + src.len() < MRAM_PAGE {
            self.page_mut(offset as usize / MRAM_PAGE)[at..at + src.len()].copy_from_slice(src);
            return Ok(());
        }
        let mut rest = src;
        for (p, range) in pieces(offset, src.len()) {
            let (bytes, tail) = rest.split_at(range.len());
            rest = tail;
            let slot = &mut self.pages[p];
            if let Some(page) = slot.as_mut().and_then(Arc::get_mut) {
                page.0[range].copy_from_slice(bytes);
            } else if range.len() == MRAM_PAGE {
                *slot = Some(Arc::new(Page(bytes.try_into().expect("one whole page"))));
            } else {
                self.page_mut(p)[range].copy_from_slice(bytes);
            }
        }
        Ok(())
    }

    /// Writes the `len` bytes at `offset` in place: `f(at, piece)` is called
    /// for each page's share of the range, in order, where `at` is the
    /// piece's offset in the range. The bank grows to cover the range
    /// exactly as [`write`](Self::write) grows it, so a piece `f` leaves
    /// alone keeps the bytes that were there (zeros above the old
    /// high-water mark).
    ///
    /// # Errors
    ///
    /// [`SimError::MramOutOfBounds`] if the range exceeds the capacity.
    pub fn write_pieces(
        &mut self,
        offset: u64,
        len: usize,
        mut f: impl FnMut(usize, &mut [u8]),
    ) -> Result<(), SimError> {
        self.grow(offset, len)?;
        let start = offset as usize % MRAM_PAGE;
        if len > 0 && start + len <= MRAM_PAGE {
            f(0, &mut self.page_mut(offset as usize / MRAM_PAGE)[start..start + len]);
            return Ok(());
        }
        let mut at = 0;
        for (p, range) in pieces(offset, len) {
            let n = range.len();
            f(at, &mut self.page_mut(p)[range]);
            at += n;
        }
        Ok(())
    }

    /// Reads the `len` bytes at `offset` where they lie: `f(at, piece)` is
    /// called for each page's share of the range, in order, where `at` is
    /// the piece's offset in the range. Unwritten bytes read as zero.
    ///
    /// # Errors
    ///
    /// [`SimError::MramOutOfBounds`] if the range exceeds the capacity.
    pub fn read_pieces(
        &self,
        offset: u64,
        len: usize,
        mut f: impl FnMut(usize, &[u8]),
    ) -> Result<(), SimError> {
        self.check(offset, len as u64)?;
        let start = offset as usize % MRAM_PAGE;
        if start + len <= MRAM_PAGE {
            f(0, &self.page_ref(offset as usize / MRAM_PAGE)[start..start + len]);
            return Ok(());
        }
        let mut at = 0;
        for (p, range) in pieces(offset, len) {
            let piece = &self.page_ref(p)[range];
            f(at, piece);
            at += piece.len();
        }
        Ok(())
    }

    /// Reads into `dst` from `offset`. Unwritten bytes read as zero.
    ///
    /// # Errors
    ///
    /// [`SimError::MramOutOfBounds`] if the read exceeds the capacity.
    pub fn read(&self, offset: u64, dst: &mut [u8]) -> Result<(), SimError> {
        self.read_pieces(offset, dst.len(), |at, piece| {
            dst[at..at + piece.len()].copy_from_slice(piece);
        })
    }

    /// The `len` bytes at `offset` as [`read`](Self::read) would copy them:
    /// borrowed when they lie inside one page, copied when they cross a
    /// page boundary.
    ///
    /// # Errors
    ///
    /// [`SimError::MramOutOfBounds`] if the range exceeds the capacity.
    pub fn view(&self, offset: u64, len: usize) -> Result<Cow<'_, [u8]>, SimError> {
        self.check(offset, len as u64)?;
        let start = offset as usize % MRAM_PAGE;
        if start + len <= MRAM_PAGE {
            let page = self.page_ref(offset as usize / MRAM_PAGE);
            return Ok(Cow::Borrowed(&page[start..start + len]));
        }
        let mut bytes = vec![0; len];
        self.read(offset, &mut bytes)?;
        Ok(Cow::Owned(bytes))
    }

    /// A shared handle on page `index`: its bytes are lent, not copied.
    /// `None` is a page never written (zeros).
    pub(crate) fn page(&self, index: usize) -> Option<Arc<Page>> {
        self.slot(index).cloned()
    }

    /// Makes page `index` the page `page` names, without copying it: the
    /// bank then reads exactly as if the page's bytes had been written
    /// there, high-water mark included.
    ///
    /// # Errors
    ///
    /// [`SimError::MramOutOfBounds`] if the page lies past the capacity.
    pub(crate) fn install_page(
        &mut self,
        index: usize,
        page: Option<Arc<Page>>,
    ) -> Result<(), SimError> {
        let offset = index.checked_mul(MRAM_PAGE).map_or(u64::MAX, |o| o as u64);
        self.grow(offset, MRAM_PAGE)?;
        self.pages[index] = page;
        Ok(())
    }

    /// Replaces this bank's contents with `image`'s (a snapshot's bank),
    /// sharing its pages. The capacity stays this bank's.
    ///
    /// # Errors
    ///
    /// [`SimError::MramOutOfBounds`] if `image` holds bytes past this
    /// bank's capacity; the bank is then left as it was.
    pub fn restore_from(&mut self, image: &MramBank) -> Result<(), SimError> {
        self.check(0, image.high_water as u64)?;
        self.pages.clone_from(&image.pages);
        self.high_water = image.high_water;
        Ok(())
    }

    /// Bytes that differ between this bank's resident image and `base`'s:
    /// byte-wise mismatches below both high-water marks, plus the
    /// difference of the two marks in full. A page both banks share is
    /// equal without comparing its bytes. It is the per-DPU core of the
    /// snapshot diff the checkpoint suite checks restores with, and the
    /// paged-bank model proptest checks it against a flat bank.
    #[must_use]
    pub fn diff_bytes(&self, base: &MramBank) -> u64 {
        let common = self.high_water.min(base.high_water);
        let mut dirty = (self.high_water.max(base.high_water) - common) as u64;
        for (p, range) in pieces(0, common) {
            let shared = match (self.slot(p), base.slot(p)) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            };
            if !shared {
                let (a, b) = (&self.page_ref(p)[range.clone()], &base.page_ref(p)[range]);
                dirty += a.iter().zip(b).filter(|(x, y)| x != y).count() as u64;
            }
        }
        dirty
    }

    /// Zeroes the entire bank and releases its pages — the manager's rank
    /// reset (NANA → NAAV erase step) uses this.
    pub fn reset(&mut self) {
        self.pages = Vec::new();
        self.high_water = 0;
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
        assert!(bank.install_page(usize::MAX, bank.page(0)).is_err());
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

    #[test]
    fn a_shared_page_is_one_allocation_until_written() {
        let mut a = MramBank::new(4 * MRAM_PAGE as u64);
        let mut b = MramBank::new(4 * MRAM_PAGE as u64);
        a.write(MRAM_PAGE as u64, &[5; MRAM_PAGE]).unwrap();
        b.install_page(1, a.page(1)).unwrap();
        let ptr = |bank: &MramBank| bank.view(MRAM_PAGE as u64, 8).unwrap().as_ptr();
        assert_eq!(ptr(&a), ptr(&b));
        assert_eq!(a.diff_bytes(&b), 0);
        b.write(MRAM_PAGE as u64 + 8, &[6]).unwrap();
        assert_ne!(ptr(&a), ptr(&b));
        assert_eq!(a.view(MRAM_PAGE as u64 + 8, 1).unwrap()[0], 5);
        assert_eq!(a.diff_bytes(&b), 1);
    }

    /// The flat bank this module replaced: one `Vec` up to the high-water
    /// mark. The model the paged bank must match byte for byte.
    #[derive(Debug, Clone)]
    struct FlatBank {
        data: Vec<u8>,
        capacity: u64,
    }

    impl FlatBank {
        fn check(&self, offset: u64, len: u64) -> Result<(), SimError> {
            match offset.checked_add(len) {
                Some(end) if end <= self.capacity => Ok(()),
                _ => Err(SimError::MramOutOfBounds { offset, len, capacity: self.capacity }),
            }
        }

        fn write(&mut self, offset: u64, src: &[u8]) -> Result<(), SimError> {
            self.check(offset, src.len() as u64)?;
            let end = offset as usize + src.len();
            if self.data.len() < end {
                self.data.resize(end, 0);
            }
            self.data[offset as usize..end].copy_from_slice(src);
            Ok(())
        }

        fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>, SimError> {
            self.check(offset, len as u64)?;
            Ok((offset as usize..offset as usize + len)
                .map(|i| self.data.get(i).copied().unwrap_or(0))
                .collect())
        }

        fn diff_bytes(&self, base: &FlatBank) -> u64 {
            let common = self.data.len().min(base.data.len());
            let same = self.data[..common].iter().zip(&base.data[..common]);
            same.filter(|(a, b)| a != b).count() as u64
                + (self.data.len().max(base.data.len()) - common) as u64
        }
    }

    const BANKS: usize = 3;
    const CAP: u64 = 6 * MRAM_PAGE as u64;

    #[derive(Debug, Clone)]
    enum Op {
        Write { bank: usize, offset: u64, len: usize, seed: u8 },
        WritePieces { bank: usize, offset: u64, len: usize, seed: u8 },
        Read { bank: usize, offset: u64, len: usize },
        View { bank: usize, offset: u64, len: usize },
        Share { src: usize, dst: usize, page: usize },
        Snapshot { bank: usize },
        Restore { bank: usize, snap: usize },
        Reset { bank: usize },
        Diff { a: usize, b: usize },
    }

    /// The raw draw one [`Op`] is decoded from: `(kind, bank, other)` and
    /// `(offset, length, seed, align)`.
    type RawOp = ((u8, usize, usize), (u64, usize, u8, bool));

    fn raw_ops() -> impl Strategy<Value = Vec<RawOp>> {
        let pick = (0u8..9, 0..BANKS, 0..BANKS + 4);
        let range = (0..CAP + 512, 0usize..8300, any::<u8>(), any::<bool>());
        proptest::collection::vec((pick, range), 1..60)
    }

    /// Offsets run past the capacity, half of them on a 2 KiB boundary;
    /// lengths are short, one page, or long enough to straddle pages.
    fn decode(((kind, bank, other), (offset, len, seed, align)): RawOp) -> Op {
        let offset = if align { offset & !2047 } else { offset };
        let len = match seed % 4 {
            0 => len % 64,
            1 => MRAM_PAGE,
            _ => len,
        };
        let dst = other % BANKS;
        match kind {
            0 => Op::Write { bank, offset, len, seed },
            1 => Op::WritePieces { bank, offset, len, seed },
            2 => Op::Read { bank, offset, len },
            3 => Op::View { bank, offset, len },
            4 => Op::Share { src: bank, dst, page: (offset / MRAM_PAGE as u64) as usize },
            5 => Op::Snapshot { bank },
            6 => Op::Restore { bank, snap: other },
            7 => Op::Reset { bank },
            _ => Op::Diff { a: bank + usize::from(seed % 5), b: other },
        }
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed) | 1).collect()
    }

    /// Whole resident image of a paged bank, through `view`.
    fn image(bank: &MramBank) -> Vec<u8> {
        bank.view(0, bank.resident_bytes()).unwrap().into_owned()
    }

    proptest! {
        /// Random sequences of every bank operation on paged banks and on
        /// flat models agree on every byte, result, high-water mark and
        /// diff count; and because every bank and snapshot is compared
        /// after every step, no write ever shows through another sharer of
        /// its page or through a snapshot.
        #[test]
        fn paged_bank_matches_the_flat_model(ops in raw_ops()) {
            let mut paged: Vec<MramBank> = (0..BANKS).map(|_| MramBank::new(CAP)).collect();
            let mut flat: Vec<FlatBank> =
                (0..BANKS).map(|_| FlatBank { data: Vec::new(), capacity: CAP }).collect();
            let mut snaps: Vec<(MramBank, FlatBank)> = Vec::new();
            for op in ops {
                match decode(op) {
                    Op::Write { bank, offset, len, seed } => {
                        let data = pattern(len, seed);
                        prop_assert_eq!(
                            paged[bank].write(offset, &data).is_ok(),
                            flat[bank].write(offset, &data).is_ok()
                        );
                    }
                    Op::WritePieces { bank, offset, len, seed } => {
                        let data = pattern(len, seed);
                        let got = paged[bank].write_pieces(offset, len, |at, piece| {
                            piece.copy_from_slice(&data[at..at + piece.len()]);
                        });
                        prop_assert_eq!(got.is_ok(), flat[bank].write(offset, &data).is_ok());
                    }
                    Op::Read { bank, offset, len } => {
                        let mut got = vec![0xAA; len];
                        let got = paged[bank].read(offset, &mut got).map(|()| got);
                        prop_assert_eq!(got, flat[bank].read(offset, len));
                    }
                    Op::View { bank, offset, len } => {
                        let got = paged[bank].view(offset, len).map(Cow::into_owned);
                        prop_assert_eq!(got, flat[bank].read(offset, len));
                    }
                    Op::Share { src, dst, page } => {
                        let handle = paged[src].page(page);
                        let got = paged[dst].install_page(page, handle);
                        let offset = (page * MRAM_PAGE) as u64;
                        let want = flat[src]
                            .read(offset, MRAM_PAGE)
                            .unwrap_or_else(|_| vec![0; MRAM_PAGE]);
                        prop_assert_eq!(got.is_ok(), flat[dst].write(offset, &want).is_ok());
                    }
                    Op::Snapshot { bank } => {
                        snaps.push((paged[bank].clone(), flat[bank].clone()));
                    }
                    Op::Restore { bank, snap } => {
                        if let Some((p, f)) = snaps.get(snap) {
                            prop_assert!(paged[bank].restore_from(p).is_ok());
                            flat[bank].data.clone_from(&f.data);
                        }
                    }
                    Op::Reset { bank } => {
                        paged[bank].reset();
                        flat[bank].data.clear();
                    }
                    Op::Diff { a, b } => {
                        let pick = |i: usize| -> Option<(&MramBank, &FlatBank)> {
                            if i < BANKS {
                                Some((&paged[i], &flat[i]))
                            } else {
                                snaps.get(i - BANKS).map(|(p, f)| (p, f))
                            }
                        };
                        if let (Some((pa, fa)), Some((pb, fb))) = (pick(a), pick(b)) {
                            prop_assert_eq!(pa.diff_bytes(pb), fa.diff_bytes(fb));
                        }
                    }
                }
                let all = paged.iter().zip(&flat).chain(snaps.iter().map(|(p, f)| (p, f)));
                for (p, f) in all {
                    prop_assert_eq!(p.resident_bytes(), f.data.len());
                    prop_assert_eq!(image(p), f.data.clone());
                    // Bytes at or above the high-water mark are zero in
                    // the pages themselves, not only as reads see them.
                    for (i, page) in p.pages.iter().enumerate() {
                        let from = p.high_water.saturating_sub(i * MRAM_PAGE).min(MRAM_PAGE);
                        let clear = |pg: &Arc<Page>| pg.0[from..].iter().all(|b| *b == 0);
                        prop_assert!(
                            page.as_ref().is_none_or(clear),
                            "page {} is set above the high-water mark",
                            i
                        );
                    }
                }
            }
        }

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
