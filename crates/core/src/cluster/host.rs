//! One fleet member: an independent [`VpimSystem`] with its own machine,
//! driver, manager, scheduler, and metrics registry.

use std::sync::Arc;
use std::time::{Duration, Instant};

use upmem_driver::UpmemDriver;
use upmem_sim::{PimConfig, PimMachine};

use crate::error::VpimError;
use crate::system::{StartOpts, TenantSpec, VpimSystem, VpimVm};

/// A host in the fleet. Owns its [`VpimSystem`] (and through it the
/// simulated machine); the fleet addresses it by index.
#[derive(Debug)]
pub struct FleetHost {
    id: usize,
    sys: Arc<VpimSystem>,
}

impl FleetHost {
    /// Boots host `id` on a fresh machine built from `pim`.
    pub(crate) fn boot(id: usize, pim: &PimConfig, vcfg: crate::config::VpimConfig) -> Self {
        let machine = PimMachine::new(pim.clone());
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

    /// Launches `spec` on this host, absorbing the transient
    /// `NoRankAvailable`/`NotLinked` window while recently released ranks
    /// finish their reset sweep (the placement table has already
    /// guaranteed capacity — only recycle lag can stand in the way).
    pub(crate) fn launch_with_retry(&self, spec: &TenantSpec) -> Result<VpimVm, VpimError> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.sys.launch(spec.clone()) {
                Ok(vm) => return Ok(vm),
                Err(e @ (VpimError::NoRankAvailable | VpimError::NotLinked)) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    self.sys.sync_ranks();
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        }
    }
}
