//! The performance-mode rank handle: an mmap of the rank's MRAMs and
//! control interfaces.
//!
//! [`PerfMapping`] gives direct loads/stores with no kernel involvement.
//! The paper's native baseline and the vPIM backend inside Firecracker
//! both reach a rank this way (§3.4); a guest's isolated path to a rank is
//! the vUPMEM frontend's request path, not a host ioctl.
//!
//! The handle advances no clock: transfers return the bytes they moved,
//! and the caller (an SDK transport, the vPIM backend) charges them to a
//! timeline at the bandwidth its call implies. That keeps the hardware
//! model free of policy.

use std::sync::Arc;

use upmem_sim::ci::CiStatus;
use upmem_sim::dpu::LaunchReport;
use upmem_sim::kernel::{KernelImage, KernelRegistry};
use upmem_sim::Rank;

use crate::error::DriverError;
use crate::sysfs::RankClaim;

/// Performance-mode handle: the process mmaps MRAM and CI and bypasses the
/// kernel. Dropping it releases the rank's claim.
#[derive(Debug)]
pub struct PerfMapping {
    rank: Arc<Rank>,
    registry: KernelRegistry,
    _claim: RankClaim,
}

impl PerfMapping {
    pub(crate) fn new(rank: Arc<Rank>, registry: KernelRegistry, claim: RankClaim) -> Self {
        PerfMapping { rank, registry, _claim: claim }
    }

    /// The underlying rank.
    #[must_use]
    pub fn rank(&self) -> &Arc<Rank> {
        &self.rank
    }

    /// Rank index.
    #[must_use]
    pub fn rank_id(&self) -> usize {
        self.rank.id()
    }

    /// Functional DPUs in the rank.
    #[must_use]
    pub fn dpu_count(&self) -> usize {
        self.rank.dpu_count()
    }

    /// Writes `data` to one DPU's MRAM; returns the bytes moved.
    ///
    /// # Errors
    ///
    /// Propagates hardware bounds/index errors.
    pub fn write_mram(&self, dpu: usize, offset: u64, data: &[u8]) -> Result<u64, DriverError> {
        self.rank.write_mram(dpu, offset, data)?;
        Ok(data.len() as u64)
    }

    /// Reads one DPU's MRAM into `dst`; returns the bytes moved.
    ///
    /// # Errors
    ///
    /// Propagates hardware bounds/index errors.
    pub fn read_mram(&self, dpu: usize, offset: u64, dst: &mut [u8]) -> Result<u64, DriverError> {
        self.rank.read_mram(dpu, offset, dst)?;
        Ok(dst.len() as u64)
    }

    /// Writes a whole transfer matrix (one parallel `write-to-rank`);
    /// returns the bytes moved.
    ///
    /// # Errors
    ///
    /// Propagates hardware bounds/index errors; partial writes may have
    /// landed (as on real hardware).
    pub fn write_matrix(&self, entries: &[(usize, u64, &[u8])]) -> Result<u64, DriverError> {
        let mut bytes = 0u64;
        for (dpu, offset, data) in entries {
            bytes += self.write_mram(*dpu, *offset, data)?;
        }
        Ok(bytes)
    }

    /// Reads a whole transfer matrix (one parallel `read-from-rank`);
    /// returns the bytes moved.
    ///
    /// # Errors
    ///
    /// Propagates hardware bounds/index errors.
    pub fn read_matrix(&self, entries: &mut [(usize, u64, &mut [u8])]) -> Result<u64, DriverError> {
        let mut bytes = 0u64;
        for (dpu, offset, buf) in entries.iter_mut() {
            bytes += self.read_mram(*dpu, *offset, buf)?;
        }
        Ok(bytes)
    }

    /// Loads a program image on the given DPUs (or the whole rank).
    ///
    /// # Errors
    ///
    /// IRAM overflow or invalid DPU index.
    pub fn load_program(
        &self,
        dpus: Option<&[usize]>,
        image: &KernelImage,
    ) -> Result<(), DriverError> {
        Ok(self.rank.load_program(dpus, image)?)
    }

    /// Loads a program by registry name (the SDK reading a DPU "binary"
    /// from disk).
    ///
    /// # Errors
    ///
    /// Unknown kernel, IRAM overflow or invalid DPU index.
    pub fn load_by_name(&self, dpus: Option<&[usize]>, name: &str) -> Result<(), DriverError> {
        let image = self.registry.get(name)?.image();
        Ok(self.rank.load_program(dpus, &image)?)
    }

    /// Writes a host symbol on one DPU.
    ///
    /// # Errors
    ///
    /// Unknown symbol or size mismatch.
    pub fn write_symbol(&self, dpu: usize, name: &str, bytes: &[u8]) -> Result<(), DriverError> {
        Ok(self.rank.write_symbol(dpu, name, bytes)?)
    }

    /// Reads a host symbol from one DPU.
    ///
    /// # Errors
    ///
    /// Unknown symbol or size mismatch.
    pub fn read_symbol(&self, dpu: usize, name: &str, bytes: &mut [u8]) -> Result<(), DriverError> {
        Ok(self.rank.read_symbol(dpu, name, bytes)?)
    }

    /// Launches the loaded program on the given DPUs.
    ///
    /// # Errors
    ///
    /// Missing program, bad tasklet count, or a DPU fault.
    pub fn launch(
        &self,
        dpus: Option<&[usize]>,
        nr_tasklets: usize,
    ) -> Result<Vec<(usize, LaunchReport)>, DriverError> {
        Ok(self.rank.launch(dpus, nr_tasklets, &self.registry)?)
    }

    /// Polls one DPU's status through the CI.
    ///
    /// # Errors
    ///
    /// Invalid DPU index.
    pub fn poll_status(&self, dpu: usize) -> Result<CiStatus, DriverError> {
        Ok(self.rank.poll_status(dpu)?)
    }
}

#[cfg(test)]
mod tests {
    use crate::UpmemDriver;
    use upmem_sim::{PimConfig, PimMachine};

    fn perf() -> super::PerfMapping {
        let d = UpmemDriver::new(PimMachine::new(PimConfig::small()));
        d.open_perf(0, "test").unwrap()
    }

    #[test]
    fn matrix_roundtrip() {
        let h = perf();
        let a = vec![1u8; 64];
        let b = vec![2u8; 32];
        let bytes = h
            .write_matrix(&[(0, 0, a.as_slice()), (1, 16, b.as_slice())])
            .unwrap();
        assert_eq!(bytes, 96);

        let mut ra = vec![0u8; 64];
        let mut rb = vec![0u8; 32];
        {
            let mut entries: Vec<(usize, u64, &mut [u8])> =
                vec![(0, 0, ra.as_mut_slice()), (1, 16, rb.as_mut_slice())];
            assert_eq!(h.read_matrix(&mut entries).unwrap(), 96);
        }
        assert_eq!(ra, a);
        assert_eq!(rb, b);
    }

    #[test]
    fn errors_propagate_from_hardware() {
        let h = perf();
        assert!(h.write_mram(99, 0, &[0]).is_err());
        let mut b = [0u8; 1];
        assert!(h.read_mram(0, u64::MAX, &mut b).is_err());
    }
}
