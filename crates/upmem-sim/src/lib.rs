//! # upmem-sim — functional + timing simulator of UPMEM PIM hardware
//!
//! This crate substitutes the UPMEM DIMMs used by the vPIM paper
//! (Teguia et al., MIDDLEWARE '24). It models the hardware exactly at the
//! interface the virtualization layer touches:
//!
//! * a [`PimMachine`] hosts a set of [`Rank`]s (the allocation granule of
//!   vPIM), each with 8 PIM chips × 8 [`Dpu`]s;
//! * each DPU owns a 64 MB MRAM bank ([`mram::MramBank`]), 64 KB of WRAM
//!   ([`wram::Wram`]) and 24 KB of IRAM;
//! * hosts move data with rank-level read/write operations (optionally byte
//!   interleaved across chips, see [`interleave`]) and poke per-chip
//!   control interfaces ([`ci`]);
//! * DPU programs are SPMD kernels ([`kernel::DpuKernel`]) executed by up to
//!   24 tasklets in barrier-delimited parallel phases, with a cycle model
//!   that enforces the hardware's 11-stage pipeline rule (a tasklet's
//!   consecutive instructions are ≥ 11 cycles apart, so ≥ 11 tasklets are
//!   needed to saturate a DPU).
//!
//! The simulator is *functional* (bytes really move, kernels really compute,
//! results are checkable against CPU references) and *cycle-accounting*
//! (every launch reports per-DPU cycle counts which callers convert to
//! virtual time through [`simkit::CostModel`]).
//!
//! ## Example
//!
//! ```
//! use upmem_sim::{PimConfig, PimMachine};
//!
//! let machine = PimMachine::new(PimConfig::small());
//! let rank = machine.rank(0).unwrap();
//! rank.write_mram(0, 0, &[1, 2, 3, 4]).unwrap();
//! let mut buf = [0u8; 4];
//! rank.read_mram(0, 0, &mut buf).unwrap();
//! assert_eq!(buf, [1, 2, 3, 4]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod dpu;
pub mod error;
pub mod geometry;
pub mod interleave;
pub mod kernel;
pub mod machine;
pub mod mram;
pub mod rank;
pub mod wram;

pub use dpu::{Dpu, DpuContext, DpuState, LaunchReport, TaskletCtx};
pub use error::{DpuFault, SimError};
pub use geometry::PimConfig;
pub use kernel::{DpuKernel, KernelImage, KernelRegistry};
pub use machine::PimMachine;
pub use rank::{Rank, CI_OP_POINT, LAUNCH_FAULT_POINT, MRAM_DMA_POINT};
