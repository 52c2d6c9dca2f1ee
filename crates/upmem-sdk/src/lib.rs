//! # upmem-sdk — the host-side UPMEM SDK mirror
//!
//! PrIM applications and the UPMEM demos are written against the UPMEM SDK
//! (`dpu_alloc`, `dpu_load`, `dpu_push_xfer`, `dpu_launch`,
//! `dpu_copy_to/from`, …). This crate mirrors that API in Rust so that the
//! *same application code* runs in two environments, exactly as vPIM's R3
//! transparency requirement demands:
//!
//! * **natively** — the SDK opens ranks in performance mode through the
//!   host driver and talks to the hardware directly (the paper's baseline);
//! * **virtualized** — the SDK runs "inside a VM" and every operation goes
//!   through the vPIM frontend, the virtqueue, Firecracker's backend and
//!   back.
//!
//! The choice is a single constructor argument ([`DpuSet::alloc_native`]
//! vs [`DpuSet::alloc_vm`]); nothing else in the application changes.
//!
//! Every operation charges a [`simkit::Timeline`] owned by the set, in the
//! paper's two breakdowns. Applications switch the active segment with
//! [`DpuSet::set_segment`] around their phases, matching how PrIM
//! instruments CPU-DPU / DPU / Inter-DPU / DPU-CPU.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use upmem_sdk::DpuSet;
//! use upmem_driver::UpmemDriver;
//! use upmem_sim::{PimConfig, PimMachine};
//! use simkit::CostModel;
//!
//! let machine = PimMachine::new(PimConfig::small());
//! let driver = Arc::new(UpmemDriver::new(machine));
//! let mut set = DpuSet::alloc_native(&driver, 4, CostModel::default())?;
//! set.copy_to_heap(0, 0, &[1, 2, 3, 4])?;
//! let back = set.copy_from_heap(0, 0, 4)?;
//! assert_eq!(back, vec![1, 2, 3, 4]);
//! # Ok::<(), upmem_sdk::SdkError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod error;
pub mod set;
pub mod xfer;

pub use channel::RankChannel;
pub use error::SdkError;
pub use set::DpuSet;
pub use xfer::XferBuf;
