//! The machine: ranks plus the kernel registry.

use std::sync::Arc;

use crate::error::SimError;
use crate::geometry::PimConfig;
use crate::kernel::{DpuKernel, KernelRegistry};
use crate::rank::Rank;

/// A simulated host machine with UPMEM DIMMs installed.
///
/// `PimMachine` is cheaply cloneable through `Arc` sharing; the native
/// driver, the vPIM backend and the manager all hold references to the same
/// machine, exactly like processes sharing one physical host.
///
/// # Example
///
/// ```
/// use upmem_sim::{PimConfig, PimMachine};
///
/// let machine = PimMachine::new(PimConfig::small());
/// assert_eq!(machine.rank_count(), 2);
/// assert!(machine.rank(2).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct PimMachine {
    config: PimConfig,
    ranks: Vec<Arc<Rank>>,
    registry: KernelRegistry,
}

impl PimMachine {
    /// Builds a machine from a configuration.
    #[must_use]
    pub fn new(config: PimConfig) -> Self {
        let ranks = (0..config.ranks)
            .map(|i| Arc::new(Rank::new(i, &config)))
            .collect();
        PimMachine {
            config,
            ranks,
            registry: KernelRegistry::new(),
        }
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &PimConfig {
        &self.config
    }

    /// Number of installed ranks.
    #[must_use]
    pub fn rank_count(&self) -> usize {
        self.ranks.len()
    }

    /// A shared handle to rank `i`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidRank`] for an out-of-range index.
    pub fn rank(&self, i: usize) -> Result<Arc<Rank>, SimError> {
        self.ranks.get(i).cloned().ok_or(SimError::InvalidRank(i))
    }

    /// All ranks.
    #[must_use]
    pub fn ranks(&self) -> &[Arc<Rank>] {
        &self.ranks
    }

    /// The kernel registry (`dpu_load` source).
    #[must_use]
    pub fn registry(&self) -> &KernelRegistry {
        &self.registry
    }

    /// Registers a DPU kernel so `dpu_load` can find it by name.
    pub fn register_kernel(&self, kernel: Arc<dyn DpuKernel>) {
        self.registry.register(kernel);
    }

    /// Total functional DPUs.
    #[must_use]
    pub fn total_dpus(&self) -> usize {
        self.ranks.iter().map(|r| r.dpu_count()).sum()
    }

    /// Installs the fault-injection plane on every rank (see
    /// [`Rank::install_fault_plane`]). Clones share ranks, so installing
    /// once covers every handle to this machine.
    pub fn install_fault_plane(&self, plane: &Arc<simkit::FaultPlane>) {
        for r in &self.ranks {
            r.install_fault_plane(Arc::clone(plane));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_builds_configured_ranks() {
        let m = PimMachine::new(PimConfig::paper_testbed());
        assert_eq!(m.rank_count(), 8);
        assert_eq!(m.total_dpus(), 480);
        assert_eq!(m.rank(0).unwrap().dpu_count(), 60);
    }

    #[test]
    fn rank_handles_are_shared() {
        let m = PimMachine::new(PimConfig::small());
        let a = m.rank(0).unwrap();
        let b = m.rank(0).unwrap();
        a.write_mram(0, 0, &[42]).unwrap();
        let mut buf = [0u8];
        b.read_mram(0, 0, &mut buf).unwrap();
        assert_eq!(buf[0], 42);
    }

    #[test]
    fn invalid_rank_is_an_error() {
        let m = PimMachine::new(PimConfig::small());
        assert!(matches!(m.rank(9), Err(SimError::InvalidRank(9))));
    }

    #[test]
    fn machine_clone_shares_state() {
        let m = PimMachine::new(PimConfig::small());
        let m2 = m.clone();
        m.rank(1).unwrap().write_mram(2, 8, &[7]).unwrap();
        let mut buf = [0u8];
        m2.rank(1).unwrap().read_mram(2, 8, &mut buf).unwrap();
        assert_eq!(buf[0], 7);
    }
}
