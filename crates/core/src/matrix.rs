//! The transfer matrix and its virtqueue serialization (Fig. 6 and 7).
//!
//! Rank operations move data for up to 64 DPUs at once. The SDK hands the
//! frontend a *transfer matrix*: global metadata, per-DPU metadata, and per
//! DPU an array of userspace pages holding that DPU's data. Because
//! Firecracker cannot follow guest `struct page` pointers, the frontend
//! *serializes* the matrix into flat buffers of 64-bit guest physical
//! addresses (Fig. 7):
//!
//! ```text
//! [request info][matrix meta][dpu0 meta][dpu0 pages][dpu1 meta][dpu1 pages]...
//! ```
//!
//! at most `2 + 2 × 64 = 130` buffers, which always fits the 512-slot
//! `transferq`. The backend deserializes the buffers, translates each GPA
//! to a host address, and accesses the pages directly — zero copies on the
//! guest-to-Firecracker path.

use pim_virtio::memory::PAGE_SIZE;
use pim_virtio::{Gpa, GuestMemory, SegCache};
use simkit::BytePool;

use crate::error::VpimError;
use crate::guestbuf::GuestBuf;

/// Maximum DPUs one matrix may address (one rank).
pub const MAX_DPUS: usize = 64;
/// Maximum pages per DPU (64 MB MRAM / 4 KiB pages).
pub const MAX_PAGES_PER_DPU: usize = 16_384;
/// Maximum serialized buffer count (`1 request + 1 matrix meta + 64 × 2`).
pub const MAX_BUFFERS: usize = 130;

/// One DPU's slice of a transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpuXfer {
    /// Target DPU within the rank.
    pub dpu: u32,
    /// MRAM byte offset of the transfer.
    pub mram_offset: u64,
    /// Transfer length in bytes.
    pub len: u64,
    /// Guest pages holding the data (the last page may be partial).
    pub pages: Vec<Gpa>,
}

impl DpuXfer {
    fn required_pages(len: u64) -> usize {
        (len as usize).div_ceil(PAGE_SIZE as usize)
    }

    /// Refuses a page list too short to hold `len` bytes. The page walk
    /// stops at the end of the list, so without this check a short list
    /// would leave the tail of a gather buffer unwritten (stale pooled
    /// scratch reaching MRAM) and of a scatter unread.
    ///
    /// # Errors
    ///
    /// [`VpimError::BadRequest`] when `pages` holds fewer than
    /// `len.div_ceil(PAGE_SIZE)` pages.
    pub fn check_pages(&self) -> Result<(), VpimError> {
        if (self.pages.len() as u64) < self.len.div_ceil(PAGE_SIZE) {
            return Err(VpimError::BadRequest(format!(
                "dpu {}: {} bytes do not fit {} pages",
                self.dpu,
                self.len,
                self.pages.len()
            )));
        }
        Ok(())
    }
}

/// A transfer matrix: per-DPU metadata plus page lists.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransferMatrix {
    /// Per-DPU transfer descriptions (≤ 64 entries).
    pub entries: Vec<DpuXfer>,
}

/// Guest pages owned by an in-flight operation, returned to the allocator
/// with [`PageLease::release`].
#[derive(Debug)]
pub struct PageLease {
    mem: GuestMemory,
    pages: Vec<Gpa>,
}

/// What serialization produces: the virtqueue buffer list
/// `(guest address, length, device-writable)` plus the lease on the meta
/// pages backing it.
pub type SerializedMatrix = (Vec<(Gpa, u32, bool)>, PageLease);

impl PageLease {
    /// An empty lease on `mem`.
    pub(crate) fn new(mem: &GuestMemory) -> Self {
        PageLease { mem: mem.clone(), pages: Vec::new() }
    }

    /// Allocates `n` more pages into the lease and returns them. The lease
    /// owns a page from the moment it exists, so any later failure of the
    /// operation being built returns it on drop.
    pub(crate) fn grow(&mut self, n: usize) -> Result<Vec<Gpa>, VpimError> {
        let pages = self.mem.alloc_pages(n)?;
        self.pages.extend_from_slice(&pages);
        Ok(pages)
    }

    /// Number of leased pages.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The leased pages, in allocation order.
    pub(crate) fn pages(&self) -> &[Gpa] {
        &self.pages
    }

    /// The guest memory the pages belong to.
    pub(crate) fn memory(&self) -> &GuestMemory {
        &self.mem
    }

    fn free_now(&mut self) {
        if !self.pages.is_empty() {
            let _ = self.mem.free_pages_back(&self.pages);
            self.pages.clear();
        }
    }

    /// Returns the pages to the guest allocator (also happens on drop, so
    /// error paths cannot leak guest memory).
    pub fn release(mut self) {
        self.free_now();
    }
}

impl Drop for PageLease {
    fn drop(&mut self) {
        self.free_now();
    }
}

impl TransferMatrix {
    /// Refuses a matrix of more than [`MAX_DPUS`] entries or an entry
    /// larger than a bank.
    fn check_shape(
        mut reqs: impl ExactSizeIterator<Item = (u32, u64, u64)>,
        verb: &str,
    ) -> Result<(), VpimError> {
        if reqs.len() > MAX_DPUS {
            return Err(VpimError::ProtocolViolation(format!(
                "{} dpus in one matrix",
                reqs.len()
            )));
        }
        let oversized = |&(_, _, len): &(u32, u64, u64)| {
            DpuXfer::required_pages(len) > MAX_PAGES_PER_DPU
        };
        if let Some((dpu, _, len)) = reqs.find(oversized) {
            return Err(VpimError::ProtocolViolation(format!(
                "dpu {dpu} {verb} of {len} bytes exceeds the 64 MB bank"
            )));
        }
        Ok(())
    }

    /// Places `(dpu, mram offset, len)` entries on freshly allocated guest
    /// pages. One allocation serves the whole matrix: it hands out the
    /// lowest free pages in order, so entry k gets exactly the pages one
    /// call per entry would have given it.
    fn place(
        mem: &GuestMemory,
        reqs: impl ExactSizeIterator<Item = (u32, u64, u64)> + Clone,
        verb: &str,
    ) -> Result<(TransferMatrix, PageLease), VpimError> {
        Self::check_shape(reqs.clone(), verb)?;
        let mut lease = PageLease::new(mem);
        let total = reqs.clone().map(|(_, _, len)| DpuXfer::required_pages(len)).sum();
        let mut pages = lease.grow(total)?.into_iter();
        let entries = reqs
            .map(|(dpu, mram_offset, len)| DpuXfer {
                dpu,
                mram_offset,
                len,
                pages: pages.by_ref().take(DpuXfer::required_pages(len)).collect(),
            })
            .collect();
        Ok((TransferMatrix { entries }, lease))
    }

    /// Builds a write-direction matrix from user buffers, copying each
    /// buffer into freshly allocated guest pages (the guest userspace side
    /// of `dpu_prepare_xfer` + `dpu_push_xfer`) under one borrow of guest
    /// RAM.
    ///
    /// # Errors
    ///
    /// [`VpimError::ProtocolViolation`] for > 64 DPUs or oversized buffers;
    /// guest allocator exhaustion.
    pub fn from_user_buffers(
        mem: &GuestMemory,
        bufs: &[(u32, u64, &[u8])],
    ) -> Result<(TransferMatrix, PageLease), VpimError> {
        let reqs = bufs.iter().map(|(dpu, offset, data)| (*dpu, *offset, data.len() as u64));
        let (matrix, lease) = Self::place(mem, reqs, "transfer")?;
        mem.view_mut(|v| {
            let mut fills = matrix.entries.iter().zip(bufs);
            fills.try_for_each(|(e, (_, _, data))| v.write_pages(&e.pages, data))
        })?;
        Ok((matrix, lease))
    }

    /// Builds a write-direction matrix from buffers the application
    /// already filled in guest RAM: each entry names its buffer's own
    /// pages (the page pinning of §4.1), so nothing is allocated or copied
    /// here. Bytes the application never wrote are zeroed first, exactly
    /// as a staged copy of the same buffer would carry them.
    ///
    /// # Errors
    ///
    /// [`VpimError::ProtocolViolation`] for > 64 DPUs or oversized buffers;
    /// [`VpimError::BadRequest`] for a buffer of another guest's memory.
    pub fn from_guest_bufs(
        mem: &GuestMemory,
        bufs: &[(u32, u64, &GuestBuf)],
    ) -> Result<TransferMatrix, VpimError> {
        let reqs = bufs.iter().map(|(dpu, offset, b)| (*dpu, *offset, b.len() as u64));
        Self::check_shape(reqs, "transfer")?;
        if let Some((dpu, _, _)) = bufs.iter().find(|(_, _, b)| !b.memory().same_as(mem)) {
            return Err(VpimError::BadRequest(format!(
                "dpu {dpu}: the buffer lives in another guest's memory"
            )));
        }
        let entries = bufs
            .iter()
            .map(|&(dpu, mram_offset, b)| {
                b.settle()?;
                let pages = b.pages().to_vec();
                Ok(DpuXfer { dpu, mram_offset, len: b.len() as u64, pages })
            })
            .collect::<Result<_, VpimError>>()?;
        Ok(TransferMatrix { entries })
    }

    /// Builds a read-direction matrix: allocates destination pages the
    /// backend will fill.
    ///
    /// # Errors
    ///
    /// Same conditions as [`from_user_buffers`](Self::from_user_buffers).
    pub fn alloc_read_buffers(
        mem: &GuestMemory,
        reqs: &[(u32, u64, u64)],
    ) -> Result<(TransferMatrix, PageLease), VpimError> {
        Self::place(mem, reqs.iter().copied(), "read")
    }

    /// Bytes of the flat layout [`serialize_pooled`](Self::serialize_pooled)
    /// writes for entries of `page_counts` data pages each.
    pub(crate) fn serialized_len(page_counts: impl Iterator<Item = usize>) -> usize {
        8 + page_counts.map(|pages| 32 + 8 * pages).sum::<usize>()
    }

    /// Total bytes the matrix moves.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.len).sum()
    }

    /// Total page slots across all DPUs (drives serialization costs).
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.entries.iter().map(|e| e.pages.len() as u64).sum()
    }

    /// Serializes the matrix into flat u64 buffers placed in guest memory,
    /// returning the descriptor list to append after the request-info
    /// buffer: `[matrix meta][dpu meta][dpu pages]...` (Fig. 7). When
    /// `device_writes_data` is set (read-from-rank), the page buffers'
    /// *data pages* will be marked device-writable by the caller; the
    /// serialization buffers themselves are always device-readable.
    ///
    /// The whole flat layout — matrix meta (8 B), then per DPU its meta
    /// (32 B) and pages (8 B each), each buffer 8-byte aligned, densely
    /// packed — is assembled in a scratch buffer from `pool` (every byte
    /// written, so dirty pooled buffers are fine; the steady-state path
    /// allocates nothing), then lands in guest memory with **one** bulk
    /// write into contiguous pages.
    ///
    /// # Errors
    ///
    /// Guest allocator exhaustion or out-of-bounds writes.
    pub fn serialize_pooled(
        &self,
        mem: &GuestMemory,
        pool: &BytePool,
    ) -> Result<SerializedMatrix, VpimError> {
        let total = Self::serialized_len(self.entries.iter().map(|e| e.pages.len()));
        let mut scratch = pool.take(total);
        let npages = (total as u64).div_ceil(PAGE_SIZE) as usize;
        let base = mem.alloc_contiguous(npages)?;
        let lease_pages: Vec<Gpa> =
            (0..npages).map(|i| Gpa(base.0 + i as u64 * PAGE_SIZE)).collect();

        fn put(scratch: &mut [u8], off: &mut usize, v: u64) {
            scratch[*off..*off + 8].copy_from_slice(&v.to_le_bytes());
            *off += 8;
        }

        let mut bufs: Vec<(Gpa, u32, bool)> = Vec::with_capacity(2 * self.entries.len() + 1);
        let mut off = 0usize;

        // Matrix metadata buffer: [nr_dpus].
        put(&mut scratch, &mut off, self.entries.len() as u64);
        bufs.push((base, 8, false));

        for e in &self.entries {
            // Per-DPU metadata buffer: [dpu, mram_offset, len, nb_pages].
            bufs.push((base.add(off as u64), 32, false));
            put(&mut scratch, &mut off, u64::from(e.dpu));
            put(&mut scratch, &mut off, e.mram_offset);
            put(&mut scratch, &mut off, e.len);
            put(&mut scratch, &mut off, e.pages.len() as u64);

            // Page buffer: the GPAs of the data pages.
            if !e.pages.is_empty() {
                bufs.push((base.add(off as u64), (8 * e.pages.len()) as u32, false));
            }
            for p in &e.pages {
                put(&mut scratch, &mut off, p.0);
            }
        }
        debug_assert_eq!(off, total);
        debug_assert!(bufs.len() < MAX_BUFFERS);
        mem.write(base, &scratch)?;
        Ok((bufs, PageLease { mem: mem.clone(), pages: lease_pages }))
    }

    /// Deserializes a matrix from the flat buffers of a popped chain
    /// (everything after the request-info and before the status buffer).
    /// This is the backend half of Fig. 7.
    ///
    /// # Errors
    ///
    /// [`VpimError::BadRequest`] on malformed structure or counts that do
    /// not match the advertised `nr_dpus`.
    pub fn deserialize(
        mem: &GuestMemory,
        bufs: &[(Gpa, u32)],
    ) -> Result<TransferMatrix, VpimError> {
        if bufs.is_empty() {
            return Err(VpimError::BadRequest("empty matrix serialization".into()));
        }
        let (meta_gpa, meta_len) = bufs[0];
        if meta_len < 8 {
            return Err(VpimError::BadRequest("matrix metadata too short".into()));
        }
        // Every record moves whole — one `read` each for the matrix meta, a
        // DPU's 32-byte meta and its page list — all under one borrow.
        fn word(record: &[u8], k: usize) -> u64 {
            u64::from_le_bytes(record[8 * k..8 * k + 8].try_into().expect("8 bytes"))
        }
        mem.view(|v| {
            let mut meta = [0u8; 8];
            v.read(meta_gpa, &mut meta)?;
            let nr_dpus = word(&meta, 0);
            if nr_dpus > MAX_DPUS as u64 {
                return Err(VpimError::BadRequest(format!("{nr_dpus} dpus in matrix")));
            }
            let mut entries = Vec::with_capacity(nr_dpus as usize);
            let mut rest = bufs[1..].iter().copied();
            for _ in 0..nr_dpus {
                let (dm_gpa, dm_len) = rest
                    .next()
                    .ok_or_else(|| VpimError::BadRequest("missing dpu metadata buffer".into()))?;
                if dm_len < 32 {
                    return Err(VpimError::BadRequest("dpu metadata too short".into()));
                }
                let mut dm = [0u8; 32];
                v.read(dm_gpa, &mut dm)?;
                let (dpu, mram_offset, len, nb_pages) =
                    (word(&dm, 0) as u32, word(&dm, 1), word(&dm, 2), word(&dm, 3));
                // `nb_pages` is the guest's number: bound it by the bank and
                // by the buffer that must hold the list before anything is
                // sized by it (paper R2).
                if nb_pages > MAX_PAGES_PER_DPU as u64 {
                    return Err(VpimError::BadRequest(format!(
                        "dpu {dpu}: {nb_pages} pages exceed the 64 MB bank"
                    )));
                }
                let mut pages = Vec::new();
                if nb_pages > 0 {
                    let (pg_gpa, pg_len) = rest
                        .next()
                        .ok_or_else(|| VpimError::BadRequest("missing page buffer".into()))?;
                    if nb_pages > u64::from(pg_len / 8) {
                        return Err(VpimError::BadRequest("page buffer too short".into()));
                    }
                    let list = v.bytes(pg_gpa, 8 * nb_pages)?;
                    pages = list.chunks_exact(8).map(|g| Gpa(word(g, 0))).collect();
                }
                let entry = DpuXfer { dpu, mram_offset, len, pages };
                entry.check_pages()?;
                entries.push(entry);
            }
            Ok(TransferMatrix { entries })
        })
    }

    /// Gathers one entry's data out of its guest pages into a fresh
    /// contiguous buffer (the frontend's read completion), appending page
    /// by page so no byte is written twice.
    ///
    /// # Errors
    ///
    /// [`VpimError::BadRequest`] for a page list too short for `len`;
    /// out-of-bounds guest access (a malicious or buggy page list).
    pub fn gather(mem: &GuestMemory, entry: &DpuXfer) -> Result<Vec<u8>, VpimError> {
        entry.check_pages()?;
        let mut out = Vec::with_capacity(entry.len as usize);
        mem.walk_pages(&mut SegCache::new(), &entry.pages, entry.len, |_, s| {
            out.extend_from_slice(s);
            Ok::<(), VpimError>(())
        })?;
        debug_assert_eq!(out.len() as u64, entry.len);
        Ok(out)
    }

    /// Scatters contiguous data into one entry's guest pages, the mirror of
    /// [`gather`](Self::gather).
    ///
    /// # Errors
    ///
    /// [`VpimError::BadRequest`] on length mismatch or a page list too
    /// short for `len`; out-of-bounds access.
    pub fn scatter(mem: &GuestMemory, entry: &DpuXfer, data: &[u8]) -> Result<(), VpimError> {
        if data.len() as u64 != entry.len {
            return Err(VpimError::BadRequest(format!(
                "scatter length {} != entry length {}",
                data.len(),
                entry.len
            )));
        }
        entry.check_pages()?;
        mem.walk_pages_mut(&mut SegCache::new(), &entry.pages, entry.len, |offset, s| {
            s.copy_from_slice(&data[offset as usize..][..s.len()]);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mem() -> GuestMemory {
        GuestMemory::new(8 << 20)
    }

    #[test]
    fn build_serialize_deserialize_roundtrip() {
        let mem = mem();
        let a = vec![1u8; 5000]; // spans 2 pages
        let b = vec![2u8; 100];
        let (matrix, data_lease) =
            TransferMatrix::from_user_buffers(&mem, &[(0, 0, &a), (3, 4096, &b)]).unwrap();
        assert_eq!(matrix.total_bytes(), 5100);
        assert_eq!(matrix.total_pages(), 3);

        let (bufs, meta_lease) = matrix.serialize_pooled(&mem, &BytePool::new()).unwrap();
        // matrix meta + 2 × (dpu meta + page buffer)
        assert_eq!(bufs.len(), 1 + 2 * 2);

        let flat: Vec<(Gpa, u32)> = bufs.iter().map(|(g, l, _)| (*g, *l)).collect();
        let back = TransferMatrix::deserialize(&mem, &flat).unwrap();
        assert_eq!(back, matrix);

        // Gather returns the original data.
        assert_eq!(TransferMatrix::gather(&mem, &back.entries[0]).unwrap(), a);
        assert_eq!(TransferMatrix::gather(&mem, &back.entries[1]).unwrap(), b);

        meta_lease.release();
        data_lease.release();
    }

    #[test]
    fn read_buffers_scatter_gather() {
        let mem = mem();
        let (matrix, lease) = TransferMatrix::alloc_read_buffers(&mem, &[(1, 0, 9000)]).unwrap();
        let data: Vec<u8> = (0..9000u32).map(|i| (i % 251) as u8).collect();
        TransferMatrix::scatter(&mem, &matrix.entries[0], &data).unwrap();
        assert_eq!(TransferMatrix::gather(&mem, &matrix.entries[0]).unwrap(), data);
        lease.release();
    }

    #[test]
    fn scatter_length_mismatch_rejected() {
        let mem = mem();
        let (matrix, lease) = TransferMatrix::alloc_read_buffers(&mem, &[(0, 0, 100)]).unwrap();
        assert!(TransferMatrix::scatter(&mem, &matrix.entries[0], &[0u8; 99]).is_err());
        lease.release();
    }

    #[test]
    fn short_page_list_rejected_by_every_walk() {
        let mem = mem();
        let (matrix, lease) = TransferMatrix::alloc_read_buffers(&mem, &[(0, 0, 9000)]).unwrap();
        let mut short = matrix.entries[0].clone();
        short.pages.truncate(2);
        let bad = |r: Result<(), VpimError>| matches!(r, Err(VpimError::BadRequest(_)));
        assert!(bad(TransferMatrix::gather(&mem, &short).map(drop)));
        assert!(bad(TransferMatrix::scatter(&mem, &short, &[0u8; 9000])));
        lease.release();
    }

    #[test]
    fn too_many_dpus_rejected() {
        let mem = mem();
        let reqs: Vec<(u32, u64, u64)> = (0..65).map(|d| (d, 0, 8)).collect();
        assert!(matches!(
            TransferMatrix::alloc_read_buffers(&mem, &reqs),
            Err(VpimError::ProtocolViolation(_))
        ));
    }

    #[test]
    fn buffer_budget_matches_fig7() {
        // 64 DPUs: 1 matrix meta + 64 × 2 buffers = 129; +1 request info
        // buffer = 130 total, within the documented MAX_BUFFERS.
        let mem = GuestMemory::new(16 << 20);
        let reqs: Vec<(u32, u64, u64)> = (0..64).map(|d| (d, 0, 4096)).collect();
        let (matrix, lease) = TransferMatrix::alloc_read_buffers(&mem, &reqs).unwrap();
        let (bufs, meta_lease) = matrix.serialize_pooled(&mem, &BytePool::new()).unwrap();
        assert_eq!(bufs.len(), 129);
        assert!(bufs.len() < MAX_BUFFERS);
        meta_lease.release();
        lease.release();
    }

    #[test]
    fn deserialize_rejects_malformed_structures() {
        let mem = mem();
        assert!(TransferMatrix::deserialize(&mem, &[]).is_err());
        // Claim 1 DPU but provide no metadata buffer.
        let page = mem.alloc_pages(1).unwrap()[0];
        mem.write(page, &1u64.to_le_bytes()).unwrap();
        assert!(TransferMatrix::deserialize(&mem, &[(page, 8)]).is_err());
        // Claim an absurd DPU count.
        mem.write(page, &1000u64.to_le_bytes()).unwrap();
        assert!(TransferMatrix::deserialize(&mem, &[(page, 8)]).is_err());
        // A guest-chosen page count must never size an allocation: past the
        // bank, past what the page buffer holds, or so large that
        // `nb_pages * PAGE_SIZE` wraps (here to exactly `len`).
        let wraps = (1u64 << 52) + 1;
        let hostile = [
            (MAX_PAGES_PER_DPU as u64 + 1, 0),
            (1 << 40, 0),
            (1 << 61, 0),
            (u64::MAX, 0),
            (wraps, wraps.wrapping_mul(PAGE_SIZE)),
            (MAX_PAGES_PER_DPU as u64, 0), // in the bank, not in the 4 KiB buffer
            (1, PAGE_SIZE + 1),
        ];
        for (nb_pages, len) in hostile {
            let dm: Vec<u8> =
                [0, 0, len, nb_pages].iter().flat_map(|w: &u64| w.to_le_bytes()).collect();
            mem.write(page, &1u64.to_le_bytes()).unwrap();
            mem.write(page.add(8), &dm).unwrap();
            let bufs = [(page, 8), (page.add(8), 32), (page.add(40), 4056)];
            assert!(
                matches!(TransferMatrix::deserialize(&mem, &bufs), Err(VpimError::BadRequest(_))),
                "nb_pages {nb_pages}, len {len}"
            );
        }
    }

    #[test]
    fn leases_return_pages() {
        let mem = GuestMemory::new(64 * PAGE_SIZE);
        let before = mem.free_pages();
        let data = vec![0u8; 3 * PAGE_SIZE as usize];
        let (matrix, data_lease) =
            TransferMatrix::from_user_buffers(&mem, &[(0, 0, &data)]).unwrap();
        let (_bufs, meta_lease) = matrix.serialize_pooled(&mem, &BytePool::new()).unwrap();
        assert!(mem.free_pages() < before);
        meta_lease.release();
        data_lease.release();
        assert_eq!(mem.free_pages(), before);
    }

    #[test]
    fn one_allocation_places_entries_as_one_call_each_would() {
        // Two guests fragmented alike: holes at pages 1, 4..6 and 9.
        let twins = [GuestMemory::new(64 * PAGE_SIZE), GuestMemory::new(64 * PAGE_SIZE)];
        for mem in &twins {
            let held = mem.alloc_pages(10).unwrap();
            mem.free_pages_back(&[held[1], held[4], held[5], held[9]]).unwrap();
        }
        let datas = [vec![1u8; 5000], vec![2u8; 0], vec![3u8; 100], vec![4u8; 3 * 4096]];
        let bufs: Vec<(u32, u64, &[u8])> =
            datas.iter().enumerate().map(|(d, v)| (d as u32, 0, v.as_slice())).collect();
        let (matrix, _lease) = TransferMatrix::from_user_buffers(&twins[0], &bufs).unwrap();
        for (entry, data) in matrix.entries.iter().zip(&datas) {
            let one_call = twins[1].alloc_pages(data.len().div_ceil(4096)).unwrap();
            assert_eq!(entry.pages, one_call, "dpu {}", entry.dpu);
            assert_eq!(&TransferMatrix::gather(&twins[0], entry).unwrap(), data);
        }
        let lens: Vec<u64> = datas.iter().map(|d| d.len() as u64).collect();
        let reqs: Vec<(u32, u64, u64)> = (0..4).map(|d| (d, 0, lens[d as usize])).collect();
        let (read, _lease) = TransferMatrix::alloc_read_buffers(&twins[0], &reqs).unwrap();
        for (entry, len) in read.entries.iter().zip(lens) {
            let one_call = twins[1].alloc_pages(len.div_ceil(4096) as usize).unwrap();
            assert_eq!(entry.pages, one_call, "dpu {}", entry.dpu);
        }
    }

    #[test]
    fn failed_build_returns_the_pages_of_earlier_entries() {
        // 16-page guest with 2 pages held elsewhere: the first 8-page entry
        // fits, the second does not.
        let mem = GuestMemory::new(16 * PAGE_SIZE);
        let _held = mem.alloc_pages(2).unwrap();
        let before = mem.free_pages();
        let data = vec![0u8; 8 * PAGE_SIZE as usize];
        let err = TransferMatrix::from_user_buffers(&mem, &[(0, 0, &data), (1, 0, &data)])
            .unwrap_err();
        assert!(err.is_backpressure(), "{err}");
        assert_eq!(mem.free_pages(), before);
        let err = TransferMatrix::alloc_read_buffers(
            &mem,
            &[(0, 0, 4 * PAGE_SIZE), (1, 0, 8 * PAGE_SIZE), (2, 0, 8 * PAGE_SIZE)],
        )
        .unwrap_err();
        assert!(err.is_backpressure(), "{err}");
        assert_eq!(mem.free_pages(), before);
    }

    proptest! {
        /// Arbitrary per-DPU sizes survive the full build→serialize→
        /// deserialize→gather pipeline bit-exactly.
        #[test]
        fn pipeline_roundtrip(sizes in proptest::collection::vec(1usize..20_000, 1..8)) {
            let mem = GuestMemory::new(32 << 20);
            let datas: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, n)| (0..*n).map(|k| ((k * 7 + i * 13) % 256) as u8).collect())
                .collect();
            let bufs: Vec<(u32, u64, &[u8])> = datas
                .iter()
                .enumerate()
                .map(|(i, d)| (i as u32, (i * 4096) as u64, d.as_slice()))
                .collect();
            let (matrix, dl) = TransferMatrix::from_user_buffers(&mem, &bufs).unwrap();
            let (sbufs, ml) = matrix.serialize_pooled(&mem, &BytePool::new()).unwrap();
            let flat: Vec<(Gpa, u32)> = sbufs.iter().map(|(g, l, _)| (*g, *l)).collect();
            let back = TransferMatrix::deserialize(&mem, &flat).unwrap();
            for (entry, want) in back.entries.iter().zip(&datas) {
                prop_assert_eq!(&TransferMatrix::gather(&mem, entry).unwrap(), want);
            }
            ml.release();
            dl.release();
        }

        /// Read-direction matrices over arbitrary page-aligned layouts:
        /// scatter into freshly allocated buffers, then serialize,
        /// deserialize and gather — data and structure survive bit-exactly.
        #[test]
        fn scatter_gather_roundtrip_on_page_aligned_layouts(
            layout in proptest::collection::vec(
                (0u32..64, 0u64..16, 1u64..20_000),
                1..8,
            )
        ) {
            let mem = GuestMemory::new(32 << 20);
            // Page-aligned MRAM offsets, arbitrary (dpu, len) combinations.
            let reqs: Vec<(u32, u64, u64)> = layout
                .iter()
                .map(|(dpu, page, len)| (*dpu, page * PAGE_SIZE, *len))
                .collect();
            let (matrix, lease) = TransferMatrix::alloc_read_buffers(&mem, &reqs).unwrap();
            prop_assert_eq!(matrix.entries.len(), reqs.len());

            let datas: Vec<Vec<u8>> = matrix
                .entries
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    (0..e.len).map(|k| ((k * 11 + i as u64 * 17) % 256) as u8).collect()
                })
                .collect();
            for (entry, data) in matrix.entries.iter().zip(&datas) {
                TransferMatrix::scatter(&mem, entry, data).unwrap();
            }

            let (sbufs, ml) = matrix.serialize_pooled(&mem, &BytePool::new()).unwrap();
            let flat: Vec<(Gpa, u32)> = sbufs.iter().map(|(g, l, _)| (*g, *l)).collect();
            let back = TransferMatrix::deserialize(&mem, &flat).unwrap();
            prop_assert_eq!(&back, &matrix);
            for (entry, want) in back.entries.iter().zip(&datas) {
                prop_assert_eq!(&TransferMatrix::gather(&mem, entry).unwrap(), want);
            }
            ml.release();
            lease.release();
        }
    }
}
