//! A split virtqueue, stored inside guest memory like the real thing.
//!
//! Layout (virtio 1.x "split" format):
//!
//! ```text
//! descriptor table: size × 16 bytes  { addr: u64, len: u32, flags: u16, next: u16 }
//! available ring:   4 + size × 2     { flags: u16, idx: u16, ring[size]: u16 }
//! used ring:        4 + size × 8     { flags: u16, idx: u16, ring[size]: {id: u32, len: u32} }
//! ```
//!
//! The guest driver owns the descriptor table and available ring; the
//! device owns the used ring. vPIM's `transferq` uses 512 slots so one
//! serialized transfer matrix (≤ 130 buffers, Fig. 7) always fits.

use crate::error::VirtioError;
use crate::memory::{Gpa, GuestMemory, GuestView, GuestViewMut};

/// Descriptor flag: the chain continues at `next`.
pub const VIRTQ_DESC_F_NEXT: u16 = 1;
/// Descriptor flag: device writes to this buffer (guest reads it back).
pub const VIRTQ_DESC_F_WRITE: u16 = 2;

/// Queue size of vPIM's `transferq` (Appendix A.1: 512 slots).
pub const TRANSFERQ_SIZE: u16 = 512;

/// One descriptor as stored in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// Guest physical address of the buffer.
    pub addr: Gpa,
    /// Buffer length.
    pub len: u32,
    /// `VIRTQ_DESC_F_*` flags.
    pub flags: u16,
    /// Next descriptor index when `NEXT` is set.
    pub next: u16,
}

impl Descriptor {
    /// Whether the device is expected to write this buffer.
    #[must_use]
    pub fn is_write_only(&self) -> bool {
        self.flags & VIRTQ_DESC_F_WRITE != 0
    }

    /// Whether the chain continues.
    #[must_use]
    pub fn has_next(&self) -> bool {
        self.flags & VIRTQ_DESC_F_NEXT != 0
    }

    /// The 16-byte table record: `{ addr: u64, len: u32, flags: u16, next: u16 }`,
    /// little-endian.
    fn encode(&self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&self.addr.0.to_le_bytes());
        b[8..12].copy_from_slice(&self.len.to_le_bytes());
        b[12..14].copy_from_slice(&self.flags.to_le_bytes());
        b[14..].copy_from_slice(&self.next.to_le_bytes());
        b
    }

    fn decode(b: &[u8; 16]) -> Descriptor {
        Descriptor {
            addr: Gpa(u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))),
            len: u32::from_le_bytes(b[8..12].try_into().expect("4 bytes")),
            flags: u16::from_le_bytes([b[12], b[13]]),
            next: u16::from_le_bytes([b[14], b[15]]),
        }
    }
}

/// Addresses of a queue's three rings inside guest memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueLayout {
    /// Number of descriptors (power of two, ≤ 32768).
    pub size: u16,
    /// Descriptor table base.
    pub desc: Gpa,
    /// Available ring base.
    pub avail: Gpa,
    /// Used ring base.
    pub used: Gpa,
}

impl QueueLayout {
    /// Bytes needed for a queue of `size` descriptors.
    #[must_use]
    pub fn required_bytes(size: u16) -> u64 {
        let s = u64::from(size);
        16 * s + (4 + 2 * s) + (4 + 8 * s)
    }

    /// Allocates the three rings contiguously in guest memory and zeroes
    /// them (driver-side queue setup during device initialization).
    ///
    /// # Errors
    ///
    /// [`VirtioError::BadQueueSize`] for a non-power-of-two or oversized
    /// queue; allocation errors if guest memory is exhausted.
    pub fn alloc(mem: &GuestMemory, size: u16) -> Result<QueueLayout, VirtioError> {
        if size == 0 || !size.is_power_of_two() || size > 32768 {
            return Err(VirtioError::BadQueueSize(size));
        }
        let bytes = Self::required_bytes(size);
        let pages = bytes.div_ceil(crate::memory::PAGE_SIZE) as usize;
        let base = mem.alloc_contiguous(pages)?;
        // Zero the whole area.
        mem.with_slice_mut(base, bytes, |s| s.fill(0))?;
        let desc = base;
        let avail = desc.add(16 * u64::from(size));
        let used = avail.add(4 + 2 * u64::from(size));
        Ok(QueueLayout { size, desc, avail, used })
    }

    fn desc_gpa(&self, i: u16) -> Gpa {
        self.desc.add(16 * u64::from(i))
    }

    fn avail_idx_gpa(&self) -> Gpa {
        self.avail.add(2)
    }

    fn avail_ring_gpa(&self, slot: u16) -> Gpa {
        self.avail.add(4 + 2 * u64::from(slot))
    }

    fn used_idx_gpa(&self) -> Gpa {
        self.used.add(2)
    }

    fn used_ring_gpa(&self, slot: u16) -> Gpa {
        self.used.add(4 + 8 * u64::from(slot))
    }

    /// Reads descriptor `i` through a view of guest memory.
    ///
    /// # Errors
    ///
    /// Out-of-bounds guest access.
    pub fn read_desc(&self, view: &GuestView<'_>, i: u16) -> Result<Descriptor, VirtioError> {
        let mut record = [0u8; 16];
        view.read(self.desc_gpa(i), &mut record)?;
        Ok(Descriptor::decode(&record))
    }

    /// Writes descriptor `i` through a view of guest memory.
    ///
    /// # Errors
    ///
    /// Out-of-bounds guest access.
    pub fn write_desc(
        &self,
        view: &mut GuestViewMut<'_>,
        i: u16,
        d: &Descriptor,
    ) -> Result<(), VirtioError> {
        view.write(self.desc_gpa(i), &d.encode())
    }
}

/// A descriptor chain popped by the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescChain {
    /// Head descriptor index (returned in the used ring).
    pub head: u16,
    /// The resolved descriptors in chain order.
    pub descriptors: Vec<Descriptor>,
}

/// The guest-driver-side view of a queue: adds chains, reaps completions.
#[derive(Debug)]
pub struct DriverQueue {
    mem: GuestMemory,
    layout: QueueLayout,
    free_head: Option<u16>,
    free_count: u16,
    next_free: Vec<u16>,
    avail_idx: u16,
    last_used: u16,
    /// Number of descriptors in flight per head (for recycling).
    chain_len: Vec<u16>,
}

impl DriverQueue {
    /// Creates the driver view over an allocated layout, owning all
    /// descriptors as free.
    #[must_use]
    pub fn new(mem: GuestMemory, layout: QueueLayout) -> Self {
        let size = layout.size;
        let next_free: Vec<u16> = (0..size).map(|i| (i + 1) % size).collect();
        DriverQueue {
            mem,
            layout,
            free_head: Some(0),
            free_count: size,
            next_free,
            avail_idx: 0,
            last_used: 0,
            chain_len: vec![0; size as usize],
        }
    }

    /// Free descriptors remaining.
    #[must_use]
    pub fn free_descriptors(&self) -> u16 {
        self.free_count
    }

    /// Whether the chain headed by `head` was added and has not been reaped
    /// by [`poll_used`](Self::poll_used) since.
    #[must_use]
    pub fn in_flight(&self, head: u16) -> bool {
        self.chain_len.get(head as usize).is_some_and(|&n| n != 0)
    }

    /// Adds a buffer chain: `(gpa, len, device_writes)` per buffer. Returns
    /// the head descriptor index and publishes it in the available ring.
    ///
    /// # Errors
    ///
    /// [`VirtioError::QueueFull`] without enough free descriptors; guest
    /// memory errors when writing the rings.
    pub fn add_chain(&mut self, bufs: &[(Gpa, u32, bool)]) -> Result<u16, VirtioError> {
        if bufs.is_empty() {
            return Err(VirtioError::BadDescriptor(0));
        }
        if self.free_count < bufs.len() as u16 {
            return Err(VirtioError::QueueFull);
        }
        // Carve descriptors off the free list.
        let mut indices = Vec::with_capacity(bufs.len());
        let mut head = self.free_head.expect("free_count > 0");
        for _ in 0..bufs.len() {
            indices.push(head);
            head = self.next_free[head as usize];
        }
        self.free_head = if self.free_count as usize == bufs.len() {
            None
        } else {
            Some(head)
        };
        self.free_count -= bufs.len() as u16;

        let head = indices[0];
        let slot = self.avail_idx % self.layout.size;
        let avail_idx = self.avail_idx.wrapping_add(1);
        // The descriptors and the avail-ring entry, under one borrow.
        let layout = &self.layout;
        self.mem.view_mut(|v| {
            for (pos, ((gpa, len, write), &idx)) in bufs.iter().zip(&indices).enumerate() {
                let mut flags = 0u16;
                let mut next = 0u16;
                if pos + 1 < bufs.len() {
                    flags |= VIRTQ_DESC_F_NEXT;
                    next = indices[pos + 1];
                }
                if *write {
                    flags |= VIRTQ_DESC_F_WRITE;
                }
                layout.write_desc(v, idx, &Descriptor { addr: *gpa, len: *len, flags, next })?;
            }
            // Publish in the available ring.
            v.write_u16(layout.avail_ring_gpa(slot), head)?;
            v.write_u16(layout.avail_idx_gpa(), avail_idx)
        })?;
        self.chain_len[head as usize] = bufs.len() as u16;
        self.avail_idx = avail_idx;
        Ok(head)
    }

    /// Reaps one completion from the used ring: `(head, written_len)`.
    /// Recycles the chain's descriptors onto the free list.
    ///
    /// # Errors
    ///
    /// Guest memory errors while reading the rings;
    /// [`VirtioError::BadDescriptor`] for a used element naming a head
    /// outside the queue.
    pub fn poll_used(&mut self) -> Result<Option<(u16, u32)>, VirtioError> {
        let layout = &self.layout;
        let slot = self.last_used % layout.size;
        // One used element: `{ id: u32, len: u32 }`.
        let mut elem = [0u8; 8];
        let fresh = self.mem.view(|v| {
            let fresh = v.read_u16(layout.used_idx_gpa())? != self.last_used;
            if fresh {
                v.read(layout.used_ring_gpa(slot), &mut elem)?;
            }
            Ok::<bool, VirtioError>(fresh)
        })?;
        if !fresh {
            return Ok(None);
        }
        let head = u32::from_le_bytes(elem[..4].try_into().expect("4 bytes")) as u16;
        let len = u32::from_le_bytes(elem[4..].try_into().expect("4 bytes"));
        if head >= self.layout.size {
            return Err(VirtioError::BadDescriptor(head));
        }
        self.last_used = self.last_used.wrapping_add(1);

        // Recycle the chain. Its descriptors were carved off the free list
        // in `next_free` order and nothing relinks a descriptor in flight,
        // so the driver's own links lead to the tail: the descriptor table
        // in guest memory, which the guest may have scribbled on since, is
        // not consulted.
        let chain = self.chain_len[head as usize].max(1);
        let tail = (1..chain).fold(head, |idx, _| self.next_free[idx as usize]);
        // Link chain back into the free list.
        if let Some(old_head) = self.free_head {
            self.next_free[tail as usize] = old_head;
        }
        self.free_head = Some(head);
        self.free_count += chain;
        self.chain_len[head as usize] = 0;
        Ok(Some((head, len)))
    }
}

/// The device-side view of a queue: pops available chains, pushes used
/// completions.
#[derive(Debug)]
pub struct DeviceQueue {
    mem: GuestMemory,
    layout: QueueLayout,
    next_avail: u16,
    used_idx: u16,
}

impl DeviceQueue {
    /// Creates the device view over the same layout the driver set up.
    #[must_use]
    pub fn new(mem: GuestMemory, layout: QueueLayout) -> Self {
        DeviceQueue { mem, layout, next_avail: 0, used_idx: 0 }
    }

    /// Pops the next available descriptor chain, resolving every descriptor
    /// from guest memory. Returns `Ok(None)` when the queue is empty.
    ///
    /// # Errors
    ///
    /// [`VirtioError::ChainTooLong`] for looping chains (defensive guard),
    /// or guest memory errors.
    pub fn pop(&mut self) -> Result<Option<DescChain>, VirtioError> {
        let layout = &self.layout;
        let next_avail = &mut self.next_avail;
        // The avail-ring entry and every descriptor, under one borrow.
        self.mem.view(|v| {
            if *next_avail == v.read_u16(layout.avail_idx_gpa())? {
                return Ok(None);
            }
            let slot = *next_avail % layout.size;
            let head = v.read_u16(layout.avail_ring_gpa(slot))?;
            *next_avail = next_avail.wrapping_add(1);

            let mut descriptors = Vec::new();
            let mut idx = head;
            loop {
                if descriptors.len() > usize::from(layout.size) {
                    return Err(VirtioError::ChainTooLong);
                }
                if idx >= layout.size {
                    return Err(VirtioError::BadDescriptor(idx));
                }
                let d = layout.read_desc(v, idx)?;
                descriptors.push(d);
                if !d.has_next() {
                    break;
                }
                idx = d.next;
            }
            Ok(Some(DescChain { head, descriptors }))
        })
    }

    /// Number of chains currently pending (cheap peek).
    ///
    /// # Errors
    ///
    /// Guest memory errors.
    pub fn pending(&self) -> Result<u16, VirtioError> {
        let avail_idx = self.mem.read_u16(self.layout.avail_idx_gpa())?;
        Ok(avail_idx.wrapping_sub(self.next_avail))
    }

    /// Completes a chain: publishes `(head, written_len)` in the used ring.
    ///
    /// # Errors
    ///
    /// Guest memory errors.
    pub fn push_used(&mut self, head: u16, written_len: u32) -> Result<(), VirtioError> {
        let slot = self.used_idx % self.layout.size;
        let mut elem = [0u8; 8];
        elem[..4].copy_from_slice(&u32::from(head).to_le_bytes());
        elem[4..].copy_from_slice(&written_len.to_le_bytes());
        let (layout, used_idx) = (&self.layout, self.used_idx.wrapping_add(1));
        self.mem.view_mut(|v| {
            v.write(layout.used_ring_gpa(slot), &elem)?;
            v.write_u16(layout.used_idx_gpa(), used_idx)
        })?;
        self.used_idx = used_idx;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(size: u16) -> (GuestMemory, DriverQueue, DeviceQueue) {
        let mem = GuestMemory::new(1 << 20);
        let layout = QueueLayout::alloc(&mem, size).unwrap();
        let driver = DriverQueue::new(mem.clone(), layout.clone());
        let device = DeviceQueue::new(mem.clone(), layout);
        (mem, driver, device)
    }

    #[test]
    fn queue_size_must_be_power_of_two() {
        let mem = GuestMemory::new(1 << 20);
        assert!(QueueLayout::alloc(&mem, 0).is_err());
        assert!(QueueLayout::alloc(&mem, 3).is_err());
        assert!(QueueLayout::alloc(&mem, 512).is_ok());
    }

    #[test]
    fn single_buffer_roundtrip() {
        let (mem, mut driver, mut device) = setup(8);
        let page = mem.alloc_pages(1).unwrap()[0];
        mem.write(page, b"request").unwrap();

        assert!(!driver.in_flight(0));
        let head = driver.add_chain(&[(page, 7, false)]).unwrap();
        assert!(driver.in_flight(head));
        assert_eq!(device.pending().unwrap(), 1);
        let chain = device.pop().unwrap().unwrap();
        assert_eq!(chain.head, head);
        assert_eq!(chain.descriptors.len(), 1);
        assert_eq!(chain.descriptors[0].len, 7);
        let content = mem
            .with_slice(chain.descriptors[0].addr, 7, |s| s.to_vec())
            .unwrap();
        assert_eq!(&content, b"request");

        device.push_used(head, 0).unwrap();
        assert!(driver.in_flight(head), "in flight until reaped");
        assert_eq!(driver.poll_used().unwrap(), Some((head, 0)));
        assert!(!driver.in_flight(head));
        assert_eq!(driver.poll_used().unwrap(), None);
    }

    #[test]
    fn multi_descriptor_chain_preserves_order_and_flags() {
        let (mem, mut driver, mut device) = setup(8);
        let pages = mem.alloc_pages(3).unwrap();
        let head = driver
            .add_chain(&[(pages[0], 16, false), (pages[1], 32, false), (pages[2], 64, true)])
            .unwrap();
        let chain = device.pop().unwrap().unwrap();
        assert_eq!(chain.head, head);
        assert_eq!(chain.descriptors.len(), 3);
        assert_eq!(chain.descriptors.iter().map(|d| d.len).collect::<Vec<_>>(), [16, 32, 64]);
        assert!(chain.descriptors[0].has_next());
        assert!(!chain.descriptors[2].has_next());
        assert!(chain.descriptors[2].is_write_only());
    }

    #[test]
    fn queue_full_and_recycling() {
        let (mem, mut driver, mut device) = setup(4);
        let pages = mem.alloc_pages(4).unwrap();
        let bufs: Vec<(Gpa, u32, bool)> = pages.iter().map(|p| (*p, 8u32, false)).collect();
        let head = driver.add_chain(&bufs).unwrap();
        assert_eq!(driver.free_descriptors(), 0);
        assert!(matches!(
            driver.add_chain(&[(pages[0], 8, false)]),
            Err(VirtioError::QueueFull)
        ));
        let chain = device.pop().unwrap().unwrap();
        device.push_used(chain.head, 0).unwrap();
        assert_eq!(driver.poll_used().unwrap(), Some((head, 0)));
        assert_eq!(driver.free_descriptors(), 4);
        // Full cycle works again after recycling.
        let h2 = driver.add_chain(&bufs).unwrap();
        let c2 = device.pop().unwrap().unwrap();
        assert_eq!(c2.head, h2);
        assert_eq!(c2.descriptors.len(), 4);
    }

    #[test]
    fn many_cycles_wrap_indices() {
        let (mem, mut driver, mut device) = setup(4);
        let page = mem.alloc_pages(1).unwrap()[0];
        // 100_000 > u16::MAX to exercise wrapping of idx counters.
        for i in 0..100_000u32 {
            let head = driver.add_chain(&[(page, 4, false)]).unwrap();
            let chain = device.pop().unwrap().unwrap();
            assert_eq!(chain.head, head, "iteration {i}");
            device.push_used(chain.head, 4).unwrap();
            assert_eq!(driver.poll_used().unwrap(), Some((head, 4)));
        }
    }

    #[test]
    fn pop_on_empty_returns_none() {
        let (_mem, _driver, mut device) = setup(4);
        assert_eq!(device.pop().unwrap(), None);
        assert_eq!(device.pending().unwrap(), 0);
    }

    #[test]
    fn transferq_matrix_fits() {
        // The serialized transfer matrix uses at most 130 buffers (Fig. 7);
        // the 512-slot transferq must accept it plus the request header.
        let (mem, mut driver, mut device) = setup(TRANSFERQ_SIZE);
        let pages = mem.alloc_pages(130).unwrap();
        let bufs: Vec<(Gpa, u32, bool)> = pages.iter().map(|p| (*p, 4096u32, false)).collect();
        let head = driver.add_chain(&bufs).unwrap();
        let chain = device.pop().unwrap().unwrap();
        assert_eq!(chain.head, head);
        assert_eq!(chain.descriptors.len(), 130);
    }

    #[test]
    fn empty_chain_rejected() {
        let (_mem, mut driver, _device) = setup(4);
        assert!(driver.add_chain(&[]).is_err());
    }
}
