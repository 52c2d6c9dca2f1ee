//! # vpim — Processing-in-Memory virtualization
//!
//! An open-source reproduction of **"vPIM: Processing-in-Memory
//! Virtualization"** (Teguia, Chen, Bitchebe, Balmau, Tchana — MIDDLEWARE
//! 2024, <https://hal.science/hal-04737700>): the first system to
//! virtualize a commercial PIM device (UPMEM) for the cloud.
//!
//! vPIM follows the para-virtualization approach, extending the virtio
//! standard with a new PIM device type (id 42, two queues — see [`spec`]).
//! It consists of three components (§3.1, Fig. 4):
//!
//! * the **[`frontend`]** — a virtio device driver in the guest kernel that
//!   exposes a vUPMEM device file to guest userspace and forwards SDK
//!   requests to the backend. It implements the transfer-matrix
//!   serialization (Fig. 6/7), the **prefetch cache** (16 pages/DPU) and
//!   **request batching** (64 pages/DPU) optimizations (§4.1);
//! * the **[`backend`]** — the device model inside Firecracker that decodes
//!   requests, translates guest page addresses (GPA→HVA) with a thread
//!   pool, and performs rank operations in performance mode with a
//!   DPU-operation pool (modelled 8 wide, §4.2; run as wide as the host's
//!   CPUs) and a selectable scalar/vectorized data path (§4.2, the "C
//!   enhancement");
//! * the **[`manager`]** — a host userspace daemon that owns the
//!   rank-sharing policy: the {NAAV, ALLO, NANA} state machine, round-robin
//!   allocation, release detection through sysfs on each request's own
//!   thread (the manager owns no thread), and content reset on release
//!   (§3.5, Fig. 5).
//!
//! On top of these, the **[`sched`]** module adds an admission-controlled
//! rank scheduler for *oversubscribed* hosts: more tenant VMs than
//! physical ranks, time-shared through safe-point checkpoint / restore
//! preemption with virtual-time accounting (off by default; see
//! [`VpimConfigBuilder::oversubscription`]).
//!
//! The seven configurations evaluated in §5.4 (Table 2) are expressed as
//! [`VpimConfig`] variants: `vPIM-rust`, `vPIM-C`, `vPIM+P`, `vPIM+B`,
//! `vPIM+PB`, `vPIM-Seq` and full `vPIM`.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use vpim::{VpimConfig, VpimSystem};
//! use upmem_sim::{PimConfig, PimMachine};
//! use upmem_driver::UpmemDriver;
//!
//! // One host: machine + driver + manager.
//! use vpim::prelude::*;
//! let machine = PimMachine::new(PimConfig::small());
//! let driver = Arc::new(UpmemDriver::new(machine));
//! let system = VpimSystem::start(driver, VpimConfig::full(), StartOpts::default());
//!
//! // One VM with one vUPMEM device, booted and linked to a rank.
//! let vm = system.launch(TenantSpec::new("vm-0")).unwrap();
//! assert_eq!(vm.devices().len(), 1);
//! # system.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cluster;
pub mod config;
pub mod device;
pub mod error;
pub mod frontend;
pub mod guestbuf;
pub mod load;
pub mod manager;
pub mod matrix;
pub mod pheap;
pub mod report;
pub mod sched;
pub mod spec;
pub mod system;

pub use backend::datapath::{CHUNK_STALL_POINT, CHUNK_TORN_WRITE_POINT};
pub use cluster::{
    Fleet, FleetLoadReport, FleetSpec, MigrationReport, LINK_DROP_POINT, MIGRATE_STALL_POINT,
};
pub use config::{
    AdaptSection, FaultSite, FaultSpec, InjectSection, SchedSection, Variant, VpimConfig,
    VpimConfigBuilder,
};
pub use error::VpimError;
pub use frontend::{Frontend, ProbeOpts};
pub use guestbuf::GuestBuf;
pub use load::{LoadHarness, LoadReport, LoadSpec};
pub use manager::MANAGER_RPC_POINT;
pub use pheap::{
    PersistReport, Pheap, PheapOptions, RecoverReport, PHEAP_PERSIST_DROP_POINT,
    PHEAP_WAL_TORN_POINT,
};
pub use report::OpReport;
pub use sched::{SchedPolicy, SchedStats, Scheduler, SnapshotStore, CKPT_STALL_POINT};
pub use system::{StartOpts, TenantSpec, VpimSystem, VpimVm};

/// The session-facing surface in one import: host bring-up
/// ([`VpimSystem`], [`StartOpts`], [`VpimConfig`]), tenant launch
/// ([`TenantSpec`], [`VpimVm`]), the guest driver ([`Frontend`],
/// [`ProbeOpts`], [`OpReport`]), errors, and the load harness.
///
/// ```
/// use vpim::prelude::*;
/// ```
pub mod prelude {
    pub use crate::cluster::{Fleet, FleetLoadReport, FleetSpec, MigrationReport};
    pub use crate::config::{AdaptSection, Variant, VpimConfig, VpimConfigBuilder};
    pub use crate::error::VpimError;
    pub use crate::frontend::{Frontend, ProbeOpts};
    pub use crate::guestbuf::GuestBuf;
    pub use crate::load::{
        Arrival, LoadHarness, LoadReport, LoadSpec, OpOutcome, TenantMix, TenantProfile,
    };
    pub use crate::pheap::{PersistReport, Pheap, PheapOptions, RecoverReport};
    pub use crate::report::OpReport;
    pub use crate::system::{StartOpts, TenantSpec, VpimSystem, VpimVm};
    pub use upmem_driver::UpmemDriver;
    pub use upmem_sim::{PimConfig, PimMachine};
}
