//! The backend data path: byte interleaving in its two implementations,
//! plus the zero-copy per-entry transfer functions.
//!
//! §4.2 ("AVX512 and C enhancements in Firecracker"): the hot loop of rank
//! transfers is the byte interleave/deinterleave needed by the DDR layout.
//! The authors found Rust's AVX-512 support unstable and rewrote the loop
//! in C, for up to 343% improvement. We model the choice as
//! [`DataPath::Scalar`] (per-byte loop, the `vPIM-rust` path) vs
//! [`DataPath::Vectorized`] (word-wise swizzle, the `vPIM-C` path); both
//! are real implementations whose wall-clock gap is measured by criterion,
//! and whose modeled gap comes from [`CostModel::interleave`].
//!
//! [`write_entry`] / [`read_entry`] are the per-DPU units the backend's
//! worker pool executes. They form the zero-copy, zero-allocation data
//! path: payload bytes flow guest RAM → pooled scratch (or borrowed view)
//! → in-place interleave → MRAM and back without a single fresh heap
//! allocation in steady state (see DESIGN.md, "Zero-copy data path").
//! They run the configured path's interleave pair and reach MRAM through
//! the rank's raw accessors ([`Rank::write_mram`], [`Rank::read_mram`]), so
//! each byte is interleaved once per direction.

use pim_virtio::{GuestMemory, SegCache};
use simkit::cost::DataPath;
use simkit::{BytePool, CostModel, FaultPlane, VirtualNanos};
use upmem_sim::interleave;
use upmem_sim::mram::MRAM_PAGE;
use upmem_sim::Rank;

use crate::error::VpimError;
use crate::matrix::{DpuXfer, TransferMatrix};

/// Fault point for a torn per-DPU chunk write ([`write_entry`] only): the
/// entry's first half lands in MRAM, then the op fails typed. Keyed by the
/// entry's index in its request, so any dispatch, data-pool width or
/// worker interleaving observes the identical schedule.
pub const CHUNK_TORN_WRITE_POINT: &str = "backend.chunk.torn_write";

/// Fault point for a stalled chunk worker ([`write_entry`] and
/// [`read_entry`]): the worker sleeps ~2 ms of *wall-clock* time before
/// proceeding normally. Virtual-time reports are untouched — the stall
/// models a slow host thread, not a slower device.
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
/// 64-byte stack line of scratch, never a heap temporary.
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
/// `write-to-rank`), returning the bytes moved.
///
/// With interleave verification on, the payload is gathered into a pooled
/// scratch buffer, swizzled in place on `path`, and written to MRAM — zero
/// heap allocations once the pool is warm. With verification off, each
/// guest page is a borrowed [`GuestMemory::walk_pages`] view written
/// straight into MRAM — no staging buffer at all. Either way the
/// per-request [`SegCache`] elides repeated page bounds checks.
///
/// # Errors
///
/// [`VpimError::BadRequest`] for a page list too short for `entry.len`
/// (before any byte moves); out-of-bounds guest access, invalid DPU, or
/// MRAM range errors.
#[allow(clippy::too_many_arguments)]
pub fn write_entry(
    mem: &GuestMemory,
    rank: &Rank,
    entry: &DpuXfer,
    verify: bool,
    path: DataPath,
    pool: &BytePool,
    cache: &mut SegCache,
    plane: Option<&FaultPlane>,
    key: u64,
) -> Result<u64, VpimError> {
    begin_write(mem, rank, entry, pool, cache, plane, key)?;
    if !verify {
        mem.walk_pages(cache, &entry.pages, entry.len, |offset, s| {
            rank.write_mram(entry.dpu as usize, entry.mram_offset + offset, s)
                .map_err(VpimError::from)
        })?;
        return Ok(entry.len);
    }
    let mut data = pool.take(entry.len as usize);
    TransferMatrix::gather_into(mem, entry, &mut data, cache)?;
    transform_fused(&mut data, path);
    rank.write_mram(entry.dpu as usize, entry.mram_offset, &data)?;
    Ok(entry.len)
}

/// What every guest→MRAM entry does before its bytes move: refuse a short
/// page list, then consult [`CHUNK_STALL_POINT`] and
/// [`CHUNK_TORN_WRITE_POINT`] for `key`. A torn write lands the entry's
/// first half and fails typed.
fn begin_write(
    mem: &GuestMemory,
    rank: &Rank,
    entry: &DpuXfer,
    pool: &BytePool,
    cache: &mut SegCache,
    plane: Option<&FaultPlane>,
    key: u64,
) -> Result<(), VpimError> {
    entry.check_pages()?;
    maybe_stall(plane, key);
    if let Some(plane) = plane {
        if plane.hit_keyed(CHUNK_TORN_WRITE_POINT, key) {
            // Tear: the entry's first half lands in MRAM, then the op
            // fails typed. A recovered retry must overwrite the torn range
            // idempotently (guaranteed: entries address disjoint ranges
            // and the retry rewrites the same offsets).
            let mut data = pool.take(entry.len as usize);
            TransferMatrix::gather_into(mem, entry, &mut data, cache)?;
            let torn = (data.len() / 2) & !7;
            if torn > 0 {
                rank.write_mram(entry.dpu as usize, entry.mram_offset, &data[..torn])?;
            }
            return Err(VpimError::Injected { point: CHUNK_TORN_WRITE_POINT });
        }
    }
    Ok(())
}

/// [`write_entry`] with interleave verification off, for an entry of a
/// broadcast whose entry 0 has landed on DPU `source`: same guest pages,
/// same length, same page-aligned MRAM offset.
/// Each whole page takes `source`'s MRAM page ([`Rank::share_mram_page`])
/// instead of a second copy of the guest page; a partial last page is
/// copied. Page for page it consults the stall, torn-write,
/// [`pim_virtio::MEM_EIO_POINT`] and [`upmem_sim::MRAM_DMA_POINT`] fault
/// points and bounds checks exactly as [`write_entry`] would, so MRAM,
/// errors and fault counts come out the same.
///
/// # Errors
///
/// As [`write_entry`].
#[allow(clippy::too_many_arguments)]
pub fn share_entry(
    mem: &GuestMemory,
    rank: &Rank,
    entry: &DpuXfer,
    source: u32,
    pool: &BytePool,
    cache: &mut SegCache,
    plane: Option<&FaultPlane>,
    key: u64,
) -> Result<u64, VpimError> {
    begin_write(mem, rank, entry, pool, cache, plane, key)?;
    mem.walk_pages(cache, &entry.pages, entry.len, |offset, s| {
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
/// [`write_entry`]: pooled scratch + in-place swizzle on `path` when
/// verifying, borrowed mutable page views when not.
///
/// # Errors
///
/// [`VpimError::BadRequest`] for a page list too short for `entry.len`
/// (before any byte moves); out-of-bounds guest access, invalid DPU, or
/// MRAM range errors.
#[allow(clippy::too_many_arguments)]
pub fn read_entry(
    mem: &GuestMemory,
    rank: &Rank,
    entry: &DpuXfer,
    verify: bool,
    path: DataPath,
    pool: &BytePool,
    cache: &mut SegCache,
    plane: Option<&FaultPlane>,
    key: u64,
) -> Result<u64, VpimError> {
    entry.check_pages()?;
    maybe_stall(plane, key);
    if !verify {
        mem.walk_pages_mut(cache, &entry.pages, entry.len, |offset, s| {
            rank.read_mram(entry.dpu as usize, entry.mram_offset + offset, s)
                .map_err(VpimError::from)
        })?;
        return Ok(entry.len);
    }
    let mut data = pool.take(entry.len as usize);
    rank.read_mram(entry.dpu as usize, entry.mram_offset, &mut data)?;
    transform_fused(&mut data, path);
    TransferMatrix::scatter_from(mem, entry, &data, cache)?;
    Ok(entry.len)
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
    /// moves, verifying or not: the tail of a recycled scratch buffer never
    /// lands in MRAM, and a read touches no guest byte.
    #[test]
    fn short_page_list_is_refused_before_any_byte_moves() {
        use pim_virtio::memory::PAGE_SIZE;
        const CANARY: u8 = 0xC5;
        let page_len = PAGE_SIZE as usize;
        let rank = Rank::new(0, &upmem_sim::PimConfig::small());
        let mem = GuestMemory::new(16 * PAGE_SIZE);
        let page = mem.alloc_pages(1).unwrap()[0];
        mem.write(page, &vec![0x11; page_len]).unwrap();
        let pool = BytePool::new();
        let mut stale = pool.take(2 * page_len);
        stale.fill(CANARY);
        drop(stale);
        let short = DpuXfer { dpu: 0, mram_offset: 0, len: 2 * PAGE_SIZE, pages: vec![page] };
        for verify in [true, false] {
            for op in [write_entry, read_entry] {
                let mut cache = SegCache::new();
                let path = DataPath::Vectorized;
                let got = op(&mem, &rank, &short, verify, path, &pool, &mut cache, None, 0);
                assert!(matches!(got, Err(VpimError::BadRequest(_))), "verify {verify}: {got:?}");
            }
            let mut mram = vec![0xFF; 2 * page_len];
            rank.read_mram(0, 0, &mut mram).unwrap();
            assert!(!mram.contains(&CANARY), "verify {verify}: stale scratch reached MRAM");
            assert!(mram.iter().all(|b| *b == 0), "verify {verify}: MRAM written");
            let guest = mem.with_slice(page, PAGE_SIZE, <[u8]>::to_vec).unwrap();
            assert!(guest.iter().all(|b| *b == 0x11), "verify {verify}: guest page written");
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
