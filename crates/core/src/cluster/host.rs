//! One fleet member: an independent [`VpimSystem`] with its own machine,
//! driver, manager, scheduler, and metrics registry.

use std::sync::Arc;

use upmem_driver::UpmemDriver;
use upmem_sim::{PimConfig, PimMachine};

use crate::system::{StartOpts, VpimSystem};

/// A host in the fleet. Owns its [`VpimSystem`] (and through it the
/// simulated machine); the fleet addresses it by index.
#[derive(Debug)]
pub struct FleetHost {
    id: usize,
    sys: Arc<VpimSystem>,
}

impl FleetHost {
    /// Boots host `id` on a fresh [`PimConfig::small`] machine.
    pub(crate) fn boot(id: usize, vcfg: crate::config::VpimConfig) -> Self {
        let machine = PimMachine::new(PimConfig::small());
        let driver = Arc::new(UpmemDriver::new(machine));
        let sys = Arc::new(VpimSystem::start(driver, vcfg, StartOpts::default()));
        FleetHost { id, sys }
    }

    /// The host's fleet index.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The host's system (registry, scheduler, manager all hang off it).
    #[must_use]
    pub fn system(&self) -> &Arc<VpimSystem> {
        &self.sys
    }

    /// Physical ranks on this host.
    #[must_use]
    pub fn rank_count(&self) -> usize {
        self.sys.driver().rank_count()
    }
}
