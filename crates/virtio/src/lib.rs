//! # pim-virtio — the virtio substrate vPIM builds on
//!
//! vPIM para-virtualizes UPMEM by defining a new virtio device type
//! (device id 42, Appendix A.1 of the paper) with two queues: `transferq`
//! (512 slots, carries rank operations and serialized transfer matrices)
//! and `controlq` (manager synchronization). This crate provides the
//! substrate pieces Firecracker would normally supply:
//!
//! * [`GuestMemory`] — the VM's physical address space, with a page
//!   allocator and GPA→host translation ([`memory`]);
//! * [`queue`] — a faithful split virtqueue (descriptor table + avail/used
//!   rings living *inside guest memory*), with a driver-side and a
//!   device-side view;
//! * [`mmio`] — the MMIO register block a virtio-mmio transport exposes;
//! * [`irq`] — the interrupt line a device asserts to complete requests.
//!
//! ## Example
//!
//! ```
//! use pim_virtio::{GuestMemory, queue::{QueueLayout, DriverQueue, DeviceQueue}};
//!
//! let mem = GuestMemory::new(1 << 20);
//! let layout = QueueLayout::alloc(&mem, 8).unwrap();
//! let mut driver = DriverQueue::new(mem.clone(), layout.clone());
//! let mut device = DeviceQueue::new(mem.clone(), layout);
//!
//! let buf = mem.alloc_pages(1).unwrap()[0];
//! mem.write(buf, b"ping").unwrap();
//! let head = driver.add_chain(&[(buf, 4, false)]).unwrap();
//! let chain = device.pop().unwrap().unwrap();
//! assert_eq!(chain.head, head);
//! device.push_used(chain.head, 0).unwrap();
//! assert_eq!(driver.poll_used().unwrap(), Some((head, 0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod irq;
pub mod memory;
pub mod mmio;
pub mod queue;

pub use error::VirtioError;
pub use irq::IrqLine;
pub use memory::{Gpa, GuestMemory, GuestView, GuestViewMut, SegCache, MEM_EIO_POINT};
