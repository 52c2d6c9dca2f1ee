//! # upmem-driver — the simulated UPMEM kernel driver
//!
//! §2 of the paper ("Software Stack", Fig. 3): the UPMEM driver exposes the
//! PIM hardware to userspace. This crate models the two surfaces vPIM
//! touches:
//!
//! * **performance mode**: the application mmaps the MRAMs and control
//!   interfaces and bypasses the driver entirely. The paper's native
//!   baseline and the vPIM backend in Firecracker (§3.4) both take this
//!   path;
//! * **sysfs**: per-rank status, which the vPIM manager reads on every
//!   rank request to detect rank releases and native claims (§3.5).
//!
//! The driver's ioctl ("safe") mode is not modelled: inside a VM, the
//! guest-side SDK's isolated path to a rank is the vUPMEM frontend's
//! request path.
//!
//! Both sit over [`upmem_sim`]: [`UpmemDriver::open_perf`] claims a rank
//! and returns its mapping; dropping the mapping releases the claim, flips
//! the sysfs entry and wakes sysfs watchers — no explicit release call,
//! exactly like closing `/dev/dpu_rankN`.
//!
//! ## Example
//!
//! ```
//! use upmem_driver::UpmemDriver;
//! use upmem_sim::{PimConfig, PimMachine};
//!
//! let machine = PimMachine::new(PimConfig::small());
//! let driver = UpmemDriver::new(machine);
//! let mapping = driver.open_perf(0, "backend-vm1")?;
//! mapping.write_mram(0, 0, b"data")?;
//! assert!(driver.open_perf(0, "someone-else").is_err()); // rank is claimed
//! drop(mapping); // release -> sysfs shows the rank free again
//! assert!(driver.open_perf(0, "someone-else").is_ok());
//! # Ok::<(), upmem_driver::DriverError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod handle;
pub mod sysfs;

use std::sync::Arc;

use upmem_sim::PimMachine;

pub use error::DriverError;
pub use handle::PerfMapping;
pub use sysfs::{RankStatus, StatusBoard};

/// The host-OS driver instance.
///
/// One `UpmemDriver` exists per simulated host; the native SDK transport,
/// every Firecracker backend and the manager all share it (via `Arc`).
#[derive(Debug, Clone)]
pub struct UpmemDriver {
    machine: PimMachine,
    board: Arc<StatusBoard>,
}

impl UpmemDriver {
    /// Installs the driver on a machine.
    #[must_use]
    pub fn new(machine: PimMachine) -> Self {
        let board = Arc::new(StatusBoard::new(machine.rank_count()));
        UpmemDriver { machine, board }
    }

    /// The underlying machine.
    #[must_use]
    pub fn machine(&self) -> &PimMachine {
        &self.machine
    }

    /// The sysfs rank-status board.
    #[must_use]
    pub fn sysfs(&self) -> &Arc<StatusBoard> {
        &self.board
    }

    /// Number of ranks the driver exposes.
    #[must_use]
    pub fn rank_count(&self) -> usize {
        self.machine.rank_count()
    }

    /// Opens rank `rank` in performance mode (mmap of MRAM + CI), claiming
    /// it for `owner`.
    ///
    /// # Errors
    ///
    /// [`DriverError::RankInUse`] if another handle holds the rank, or
    /// [`DriverError::Sim`] for an invalid rank index.
    pub fn open_perf(&self, rank: usize, owner: &str) -> Result<PerfMapping, DriverError> {
        let r = self.machine.rank(rank)?;
        let claim = self.board.claim(rank, owner)?;
        Ok(PerfMapping::new(r, self.machine.registry().clone(), claim))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upmem_sim::PimConfig;

    fn driver() -> UpmemDriver {
        UpmemDriver::new(PimMachine::new(PimConfig::small()))
    }

    #[test]
    fn a_claimed_rank_refuses_a_second_mapping() {
        let d = driver();
        let perf = d.open_perf(0, "a").unwrap();
        assert!(matches!(d.open_perf(0, "b"), Err(DriverError::RankInUse { .. })));
        drop(perf);
        assert!(d.open_perf(0, "b").is_ok());
    }

    #[test]
    fn different_ranks_coexist() {
        let d = driver();
        let _a = d.open_perf(0, "a").unwrap();
        let _b = d.open_perf(1, "b").unwrap();
    }

    #[test]
    fn invalid_rank_is_driver_error() {
        let d = driver();
        assert!(d.open_perf(7, "a").is_err());
    }

    #[test]
    fn sysfs_reflects_claims() {
        let d = driver();
        assert_eq!(d.sysfs().status(0).unwrap(), RankStatus::Free);
        let h = d.open_perf(0, "vm-1").unwrap();
        match d.sysfs().status(0).unwrap() {
            RankStatus::InUse { owner } => assert_eq!(owner, "vm-1"),
            other => panic!("unexpected status {other:?}"),
        }
        drop(h);
        assert_eq!(d.sysfs().status(0).unwrap(), RankStatus::Free);
    }
}
