//! Benchmark environments: the simulated testbed at two scales.

use std::sync::Arc;

use simkit::CostModel;
use upmem_driver::UpmemDriver;
use upmem_sdk::{DpuSet, SdkError};
use upmem_sim::{PimConfig, PimMachine};
use vpim::{Variant, StartOpts, TenantSpec, VpimConfig, VpimSystem, VpimVm};

/// Dataset scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop scale: 1 "MB" of the paper's axes = 64 KiB of simulated
    /// data; PrIM inputs shrink accordingly. Shapes are preserved because
    /// both transports shrink identically.
    Quick,
    /// Paper scale (hours of runtime and tens of GB of RAM).
    Paper,
}

impl Scale {
    /// Bytes behind one "MB" label of the paper's axes.
    #[must_use]
    pub fn mb(self, mb: usize) -> usize {
        match self {
            Scale::Quick => mb * (64 << 10),
            Scale::Paper => mb * (1 << 20),
        }
    }

    /// PrIM strong-scaling element budget (rank-filling datasets; the
    /// fixed per-run costs must not dominate, as in the paper's
    /// configuration).
    #[must_use]
    pub fn prim_elements(self) -> usize {
        match self {
            Scale::Quick => 1 << 23,
            Scale::Paper => 1 << 26,
        }
    }

    /// MRAM bank size per DPU in the simulated machine.
    #[must_use]
    pub fn mram_size(self) -> u64 {
        match self {
            Scale::Quick => 8 << 20,
            Scale::Paper => 64 << 20,
        }
    }

    /// Guest memory for benchmark VMs, MiB.
    #[must_use]
    pub fn guest_mem_mib(self) -> u64 {
        match self {
            Scale::Quick => 768,
            Scale::Paper => 8192,
        }
    }
}

/// A benchmark host: the paper's testbed geometry (8 ranks, 60 functional
/// DPUs each = 480 DPUs) with every kernel registered.
#[derive(Debug, Clone)]
pub struct BenchEnv {
    driver: Arc<UpmemDriver>,
    scale: Scale,
    cm: CostModel,
}

impl BenchEnv {
    /// Builds the environment at the given scale.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        let cfg = PimConfig {
            ranks: 8,
            functional_dpus: vec![60; 8],
            mram_size: scale.mram_size(),
            ..PimConfig::paper_testbed()
        };
        let machine = PimMachine::new(cfg);
        prim::register_all(&machine);
        microbench::Checksum::register(&machine);
        microbench::IndexSearch::register(&machine);
        BenchEnv {
            driver: Arc::new(UpmemDriver::new(machine)),
            scale,
            cm: CostModel::default(),
        }
    }

    /// The dataset scale.
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The cost model.
    #[must_use]
    pub fn cost_model(&self) -> &CostModel {
        &self.cm
    }

    /// The host driver.
    #[must_use]
    pub fn driver(&self) -> &Arc<UpmemDriver> {
        &self.driver
    }

    /// Allocates a native set of `n_dpus`.
    ///
    /// # Errors
    ///
    /// Not enough free DPUs.
    pub fn native_set(&self, n_dpus: usize) -> Result<DpuSet, SdkError> {
        DpuSet::alloc_native(&self.driver, n_dpus, self.cm.clone())
    }

    /// Starts a vPIM system in the given variant and launches one VM with
    /// enough vUPMEM devices for `n_dpus`.
    ///
    /// # Errors
    ///
    /// Rank exhaustion or boot failures.
    pub fn vpim_vm(
        &self,
        variant: Variant,
        n_dpus: usize,
    ) -> Result<(VpimSystem, VpimVm), vpim::VpimError> {
        let n_ranks = n_dpus.div_ceil(60).max(1);
        let sys = VpimSystem::start(self.driver.clone(), VpimConfig::variant_config(variant), StartOpts::new().cost_model(self.cm.clone()).manager(vpim::manager::ManagerConfig::default()));
        let vm = sys.launch(TenantSpec::new("bench-vm").devices(n_ranks).mem_mib(self.scale.guest_mem_mib()))?;
        Ok((sys, vm))
    }

    /// Allocates a virtualized set of `n_dpus` on a launched VM.
    ///
    /// # Errors
    ///
    /// Not enough DPUs behind the VM's devices.
    pub fn vm_set(&self, vm: &VpimVm, n_dpus: usize) -> Result<DpuSet, SdkError> {
        DpuSet::alloc_vm(vm.frontends(), n_dpus, self.cm.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_matches_testbed_geometry() {
        let env = BenchEnv::new(Scale::Quick);
        assert_eq!(env.driver().rank_count(), 8);
        assert_eq!(env.driver().machine().total_dpus(), 480);
    }

    #[test]
    fn native_and_vpim_sets_allocate() {
        let env = BenchEnv::new(Scale::Quick);
        {
            let set = env.native_set(60).unwrap();
            assert_eq!(set.nr_dpus(), 60);
            assert_eq!(set.nr_ranks(), 1);
        }
        let (sys, vm) = env.vpim_vm(Variant::Vpim, 120).unwrap();
        let set = env.vm_set(&vm, 120).unwrap();
        assert_eq!(set.nr_ranks(), 2);
        drop(set);
        drop(vm);
        sys.shutdown();
    }

    #[test]
    fn scale_labels() {
        assert_eq!(Scale::Quick.mb(8), 8 * (64 << 10));
        assert_eq!(Scale::Paper.mb(8), 8 << 20);
    }
}
