//! The backend data path: the per-entry transfer units, plus byte
//! interleaving in its two implementations.
//!
//! [`entry_to_mram`] / [`entry_from_mram`] are the per-DPU units the
//! backend's worker pool executes. Each guest page is a borrowed
//! [`GuestMemory::walk_pages`] view copied straight into MRAM (or out of
//! it) through the rank's accessors ([`Rank::write_mram`],
//! [`Rank::read_mram`]): no staging buffer, no heap allocation, each byte
//! copied once (see DESIGN.md, "Zero-copy data path").
//!
//! §4.2 ("AVX512 and C enhancements in Firecracker"): the hot loop of rank
//! transfers is the byte interleave/deinterleave needed by the DDR layout.
//! The authors found Rust's AVX-512 support unstable and rewrote the loop
//! in C, for up to 343% improvement. We model the choice as
//! [`DataPath::Scalar`] (per-byte loop, the `vPIM-rust` path) vs
//! [`DataPath::Vectorized`] (word-wise swizzle, the `vPIM-C` path). The
//! modeled gap comes from [`CostModel::interleave`], charged per transfer.
//! Both loops are real ([`transform_fused`]); no transfer runs them, since
//! the pair is the identity, and their wall-clock gap is measured on its
//! own (criterion, and the benchmark's `host.sim.interleave_ns` row).

use pim_virtio::{GuestMemory, SegCache};
use simkit::cost::DataPath;
use simkit::{BytePool, CostModel, FaultPlane, VirtualNanos};
use upmem_sim::interleave;
use upmem_sim::mram::MRAM_PAGE;
use upmem_sim::Rank;

use crate::error::VpimError;
use crate::matrix::DpuXfer;

/// Fault point for a torn per-DPU chunk write ([`entry_to_mram`] and
/// [`share_entry`]): the entry's first `(len / 2) & !7` bytes land in
/// MRAM, then the op fails typed. Keyed by the entry's index in its request, so any
/// dispatch, data-pool width or worker interleaving observes the identical
/// schedule.
pub const CHUNK_TORN_WRITE_POINT: &str = "backend.chunk.torn_write";

/// Fault point for a stalled chunk worker ([`entry_to_mram`] and
/// [`entry_from_mram`]): the worker sleeps ~2 ms of *wall-clock* time
/// before proceeding normally. Virtual-time reports are untouched — the
/// stall models a slow host thread, not a slower device.
pub const CHUNK_STALL_POINT: &str = "backend.chunk.stall";

/// Consults [`CHUNK_STALL_POINT`] for entry `key`: a hit blocks the worker
/// for ~2 ms of wall-clock time, then the op proceeds normally.
fn maybe_stall(plane: Option<&FaultPlane>, key: u64) {
    if let Some(plane) = plane {
        if plane.hit_keyed(CHUNK_STALL_POINT, key) {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
}

/// Runs the fused interleave→deinterleave pair on `data` **in place** using
/// the selected implementation. The result is the identity transform (what
/// the host writes is what the DDR bus carries and what lands in MRAM), but
/// the real loops execute — two separate in-place passes, so the compiler
/// cannot elide the identity — and the two paths differ in wall-clock cost
/// exactly like the paper's Rust vs C implementations. Needs at most one
/// 64-byte stack line of scratch, never a heap temporary. No transfer
/// calls it: it exists to be measured.
pub fn transform_fused(data: &mut [u8], path: DataPath) {
    if data.is_empty() {
        return;
    }
    match path {
        DataPath::Scalar => {
            interleave::interleave_inplace_scalar(data);
            interleave::deinterleave_inplace_scalar(data);
        }
        DataPath::Vectorized => {
            interleave::interleave_inplace(data);
            interleave::deinterleave_inplace(data);
        }
    }
}

/// Modeled duration of interleaving `bytes` once on the given path.
#[must_use]
pub fn interleave_cost(cm: &CostModel, bytes: u64, path: DataPath) -> VirtualNanos {
    cm.interleave(bytes, path)
}

/// Moves one matrix entry guest→MRAM (the per-DPU unit of
/// `write-to-rank`), returning the bytes moved: each guest page is
/// bounds-checked and written straight into MRAM.
///
/// # Errors
///
/// [`VpimError::BadRequest`] for a page list too short for `entry.len`
/// (before any byte moves); out-of-bounds guest access, invalid DPU, or
/// MRAM range errors.
pub fn entry_to_mram(
    mem: &GuestMemory,
    rank: &Rank,
    entry: &DpuXfer,
    plane: Option<&FaultPlane>,
    key: u64,
) -> Result<u64, VpimError> {
    begin_write(mem, rank, entry, plane, key)?;
    copy_to_mram(mem, rank, entry, entry.len)?;
    Ok(entry.len)
}

/// Writes the first `len` bytes of `entry` into MRAM, page by page.
fn copy_to_mram(
    mem: &GuestMemory,
    rank: &Rank,
    entry: &DpuXfer,
    len: u64,
) -> Result<(), VpimError> {
    mem.walk_pages(&entry.pages, len, |offset, s| {
        rank.write_mram(entry.dpu as usize, entry.mram_offset + offset, s)
            .map_err(VpimError::from)
    })
}

/// What every guest→MRAM entry does before its bytes move: refuse a short
/// page list, then consult [`CHUNK_STALL_POINT`] and
/// [`CHUNK_TORN_WRITE_POINT`] for `key`. A torn write lands the entry's
/// first `(len / 2) & !7` bytes, walking only the pages under them, and
/// fails typed.
fn begin_write(
    mem: &GuestMemory,
    rank: &Rank,
    entry: &DpuXfer,
    plane: Option<&FaultPlane>,
    key: u64,
) -> Result<(), VpimError> {
    entry.check_pages()?;
    maybe_stall(plane, key);
    if let Some(plane) = plane {
        if plane.hit_keyed(CHUNK_TORN_WRITE_POINT, key) {
            // A recovered retry must overwrite the torn range
            // idempotently (guaranteed: entries address disjoint ranges
            // and the retry rewrites the same offsets).
            copy_to_mram(mem, rank, entry, (entry.len / 2) & !7)?;
            return Err(VpimError::Injected { point: CHUNK_TORN_WRITE_POINT });
        }
    }
    Ok(())
}

/// [`entry_to_mram`] for an entry of a broadcast whose entry 0 has landed
/// on DPU `source`: same guest pages, same length, same page-aligned MRAM
/// offset.
/// Each whole page takes `source`'s MRAM page ([`Rank::share_mram_page`])
/// instead of a second copy of the guest page; a partial last page is
/// copied. Page for page it consults the stall, torn-write,
/// [`pim_virtio::MEM_EIO_POINT`] and [`upmem_sim::MRAM_DMA_POINT`] fault
/// points and bounds checks exactly as [`entry_to_mram`] would, so MRAM,
/// errors and fault counts come out the same.
///
/// # Errors
///
/// As [`entry_to_mram`].
pub fn share_entry(
    mem: &GuestMemory,
    rank: &Rank,
    entry: &DpuXfer,
    source: u32,
    plane: Option<&FaultPlane>,
    key: u64,
) -> Result<u64, VpimError> {
    begin_write(mem, rank, entry, plane, key)?;
    mem.walk_pages(&entry.pages, entry.len, |offset, s| {
        let at = entry.mram_offset + offset;
        if s.len() == MRAM_PAGE && at.is_multiple_of(MRAM_PAGE as u64) {
            let page = (at / MRAM_PAGE as u64) as usize;
            rank.share_mram_page(source as usize, entry.dpu as usize, page)
        } else {
            rank.write_mram(entry.dpu as usize, at, s)
        }
        .map_err(VpimError::from)
    })?;
    Ok(entry.len)
}

/// Moves one matrix entry MRAM→guest (the per-DPU unit of
/// `read-from-rank`), returning the bytes moved. Mirror of
/// [`entry_to_mram`]: MRAM is read straight into borrowed mutable guest
/// page views.
///
/// # Errors
///
/// [`VpimError::BadRequest`] for a page list too short for `entry.len`
/// (before any byte moves); out-of-bounds guest access, invalid DPU, or
/// MRAM range errors.
pub fn entry_from_mram(
    mem: &GuestMemory,
    rank: &Rank,
    entry: &DpuXfer,
    plane: Option<&FaultPlane>,
    key: u64,
) -> Result<u64, VpimError> {
    entry.check_pages()?;
    maybe_stall(plane, key);
    mem.walk_pages_mut(&entry.pages, entry.len, |offset, s| {
        rank.read_mram(entry.dpu as usize, entry.mram_offset + offset, s)
            .map_err(VpimError::from)
    })?;
    Ok(entry.len)
}

/// Inert; deleted by ROADMAP item 1. [`entry_to_mram`] under the old
/// signature: `verify`, `path`, `pool` and `cache` are ignored.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn write_entry(
    mem: &GuestMemory,
    rank: &Rank,
    entry: &DpuXfer,
    _verify: bool,
    _path: DataPath,
    _pool: &BytePool,
    _cache: &mut SegCache,
    plane: Option<&FaultPlane>,
    key: u64,
) -> Result<u64, VpimError> {
    entry_to_mram(mem, rank, entry, plane, key)
}

/// Inert; deleted by ROADMAP item 1. [`entry_from_mram`] under the old
/// signature: `verify`, `path`, `pool` and `cache` are ignored.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn read_entry(
    mem: &GuestMemory,
    rank: &Rank,
    entry: &DpuXfer,
    _verify: bool,
    _path: DataPath,
    _pool: &BytePool,
    _cache: &mut SegCache,
    plane: Option<&FaultPlane>,
    key: u64,
) -> Result<u64, VpimError> {
    entry_from_mram(mem, rank, entry, plane, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn both_paths_are_identity() {
        for path in DataPath::ALL {
            let original: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
            let mut data = original.clone();
            transform_fused(&mut data, path);
            assert_eq!(data, original, "{path:?}");
        }
    }

    #[test]
    fn empty_buffer_is_fine() {
        let mut data: Vec<u8> = Vec::new();
        transform_fused(&mut data, DataPath::Scalar);
        transform_fused(&mut data, DataPath::Vectorized);
    }

    /// A page list too short for its `len` is refused before any byte
    /// moves: nothing lands in MRAM, and a read touches no guest byte.
    #[test]
    fn short_page_list_is_refused_before_any_byte_moves() {
        use pim_virtio::memory::PAGE_SIZE;
        let page_len = PAGE_SIZE as usize;
        let rank = Rank::new(0, &upmem_sim::PimConfig::small());
        let mem = GuestMemory::new(16 * PAGE_SIZE);
        let page = mem.alloc_pages(1).unwrap()[0];
        mem.write(page, &vec![0x11; page_len]).unwrap();
        let pages = vec![page].into();
        let short = DpuXfer { dpu: 0, mram_offset: 0, len: 2 * PAGE_SIZE, pages };
        for op in [entry_to_mram, entry_from_mram] {
            let got = op(&mem, &rank, &short, None, 0);
            assert!(matches!(got, Err(VpimError::BadRequest(_))), "{got:?}");
        }
        let mut mram = vec![0xFF; 2 * page_len];
        rank.read_mram(0, 0, &mut mram).unwrap();
        assert!(mram.iter().all(|b| *b == 0), "MRAM written");
        let guest = mem.with_slice(page, PAGE_SIZE, <[u8]>::to_vec).unwrap();
        assert!(guest.iter().all(|b| *b == 0x11), "guest page written");
    }

    /// A torn write lands exactly the entry's first `(len / 2) & !7`
    /// bytes at its (unaligned) MRAM offset, leaves every byte past that
    /// prefix as it was, and fails typed.
    #[test]
    fn torn_write_lands_exactly_its_prefix() {
        use pim_virtio::memory::PAGE_SIZE;
        const OLD: u8 = 0x5A;
        const AT: u64 = 1000;
        let page_len = PAGE_SIZE as usize;
        let rank = Rank::new(0, &upmem_sim::PimConfig::small());
        let mem = GuestMemory::new(16 * PAGE_SIZE);
        let plane = FaultPlane::new(1);
        for len in [page_len, page_len + 100, 3 * page_len + 100] {
            let pages = mem.alloc_pages(len.div_ceil(page_len)).unwrap();
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8 ^ 0x80).collect();
            mem.write_pages(&pages, &payload).unwrap();
            let window = len + 2 * page_len;
            rank.write_mram(0, AT, &vec![OLD; window]).unwrap();
            let entry = DpuXfer { dpu: 0, mram_offset: AT, len: len as u64, pages: pages.into() };
            plane.arm(CHUNK_TORN_WRITE_POINT, simkit::FaultPlan::Nth(1));
            let got = entry_to_mram(&mem, &rank, &entry, Some(&plane), 0);
            assert!(
                matches!(got, Err(VpimError::Injected { point: CHUNK_TORN_WRITE_POINT })),
                "len {len}: {got:?}"
            );
            let torn = (len / 2) & !7;
            let mut mram = vec![0u8; window];
            rank.read_mram(0, AT, &mut mram).unwrap();
            assert_eq!(&mram[..torn], &payload[..torn], "len {len}: torn prefix");
            assert!(mram[torn..].iter().all(|b| *b == OLD), "len {len}: bytes past the prefix");
        }
    }

    #[test]
    fn modeled_costs_mirror_paper_gap() {
        let cm = CostModel::default();
        let scalar = interleave_cost(&cm, 1 << 20, DataPath::Scalar);
        let vector = interleave_cost(&cm, 1 << 20, DataPath::Vectorized);
        // The paper reports up to 343% improvement from the C rewrite; our
        // modeled gap is of that order (scalar several times slower).
        let ratio = scalar.ratio(vector);
        assert!(ratio > 3.0, "ratio {ratio}");
    }

    proptest! {
        /// transform_fused ≡ interleave_scalar ∘ deinterleave_scalar for
        /// arbitrary lengths, including non-multiple-of-64 tails. (Both
        /// compose to the identity; the fused path must agree byte for
        /// byte with the composed two-buffer reference.)
        #[test]
        fn fused_matches_composed_scalar_pair(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let mut composed = vec![0u8; data.len()];
            interleave::interleave_scalar(&data, &mut composed);
            let mut composed_out = vec![0u8; data.len()];
            interleave::deinterleave_scalar(&composed, &mut composed_out);

            for path in DataPath::ALL {
                let mut fused = data.clone();
                transform_fused(&mut fused, path);
                prop_assert_eq!(&fused, &composed_out);
            }
        }
    }
}
