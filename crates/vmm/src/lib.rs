//! # pim-vmm — a Firecracker-like virtual machine monitor model
//!
//! vPIM is prototyped inside Firecracker (§3): the VMM receives the VM
//! configuration through an API socket, allocates guest memory, advertises
//! virtio devices on the kernel command line, and runs an event loop that
//! handles virtqueue notifications. This crate models those pieces:
//!
//! * [`VmConfig`] — the API-server payload (vCPUs, memory, vUPMEM devices);
//! * [`Vm`] — guest memory + attached [`VirtioDevice`]s + boot sequence
//!   (§3.2: cmdline advertisement, driver probe, per-device boot cost);
//! * [`EventManager`] — Firecracker's event loop. The original
//!   implementation handles virtio events *sequentially*; vPIM's parallel
//!   operation handling takes each request off the loop's thread so that
//!   requests to different ranks overlap (§4.2, Fig. 15/16) — here, one
//!   FIFO lane per device. Both modes are provided, along with the
//!   virtual-time completion schedule each mode produces.
//!
//! Trap/IRQ accounting lives here because the guest↔VMM transition count is
//! the paper's dominant overhead driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod device;
pub mod event;
pub mod vm;

pub use config::{VmConfig, VupmemConfig};
pub use device::{VirtioDevice, VmmError};
pub use event::{DispatchMode, EventManager, KickHandle, KICK_DROP_POINT};
pub use vm::{BootReport, Vm};
