//! Top-level wiring: one host running the manager, launching microVMs with
//! vUPMEM devices.

use std::sync::Arc;

use pim_vmm::{BootReport, Vm, VmConfig};
use simkit::{BytePool, CostModel, Counter, FaultPlane, Gauge, MetricsRegistry, WorkerPool};
use upmem_driver::UpmemDriver;

use crate::backend::Backend;
use crate::config::VpimConfig;
use crate::device::VupmemDevice;
use crate::error::VpimError;
use crate::frontend::Frontend;
use crate::frontend::ProbeOpts;
use crate::manager::{Manager, ManagerConfig};
use crate::sched::Scheduler;

/// Host-level options for [`VpimSystem::start`]: the cost model every
/// layer charges against and the manager's tuning. The default is
/// what `start` used before the options struct existed, so
/// `StartOpts::default()` is always a safe argument.
#[derive(Debug, Clone, Default)]
pub struct StartOpts {
    cost_model: CostModel,
    manager: ManagerConfig,
}

impl StartOpts {
    /// Default cost model and manager tuning.
    #[must_use]
    pub fn new() -> Self {
        StartOpts::default()
    }

    /// Uses `cm` as the host cost model.
    #[must_use]
    pub fn cost_model(mut self, cm: CostModel) -> Self {
        self.cost_model = cm;
        self
    }

    /// Uses `mcfg` as the manager tuning.
    #[must_use]
    pub fn manager(mut self, mcfg: ManagerConfig) -> Self {
        self.manager = mcfg;
        self
    }
}

/// What to launch: a tenant microVM described by a builder — tag, device
/// count, guest memory, and scheduler weight. [`VpimSystem::launch`] is
/// the single admission path; the load harness spawns every session
/// through it.
///
/// # Example
///
/// ```ignore
/// let vm = sys.launch(TenantSpec::new("tenant-a").devices(2).mem_mib(64).weight(3))?;
/// ```
#[derive(Debug, Clone)]
pub struct TenantSpec {
    tag: String,
    devices: usize,
    mem_mib: u64,
    weight: u64,
}

impl TenantSpec {
    /// A tenant named `tag` with one device, 512 MiB of guest RAM, and
    /// scheduler weight 1.
    #[must_use]
    pub fn new(tag: impl Into<String>) -> Self {
        TenantSpec { tag: tag.into(), devices: 1, mem_mib: 512, weight: 1 }
    }

    /// Number of vUPMEM devices (one physical rank each).
    #[must_use]
    pub fn devices(mut self, n: usize) -> Self {
        self.devices = n;
        self
    }

    /// Guest memory in MiB. Guest RAM is allocated eagerly, so size it to
    /// the workload's transfer buffers (a load-harness session runs fine
    /// in 16 MiB; the default suits the large PrIM inputs).
    #[must_use]
    pub fn mem_mib(mut self, mib: u64) -> Self {
        self.mem_mib = mib;
        self
    }

    /// Proportional-share weight for the oversubscribed scheduler
    /// (clamped to at least 1 there; weight 1 is the default share).
    #[must_use]
    pub fn weight(mut self, w: u64) -> Self {
        self.weight = w;
        self
    }

    /// Replaces the tag, keeping everything else — how the load harness
    /// stamps a per-session tag onto a profile's template.
    #[must_use]
    pub fn retag(mut self, tag: impl Into<String>) -> Self {
        self.tag = tag.into();
        self
    }

    /// The tenant tag.
    #[must_use]
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// The device count.
    #[must_use]
    pub fn n_devices(&self) -> usize {
        self.devices
    }

    /// The guest memory size in MiB.
    #[must_use]
    pub fn guest_mem_mib(&self) -> u64 {
        self.mem_mib
    }
}

/// A host running vPIM: the driver, the manager, and the knobs every
/// VM launched on this host inherits. All layers record into one
/// [`MetricsRegistry`] (see [`Self::registry`]).
#[derive(Debug)]
pub struct VpimSystem {
    driver: Arc<UpmemDriver>,
    manager: Manager,
    /// The host-wide rank scheduler, shared by every backend of every VM
    /// (admission and preemption decisions must see all tenants).
    sched: Scheduler,
    vcfg: VpimConfig,
    cm: CostModel,
    registry: MetricsRegistry,
    /// The host's data pool, one worker per CPU the process may run on,
    /// shared by every backend on this host so the worker count reflects
    /// the machine, not the number of attached devices or the model.
    data_pool: Arc<WorkerPool>,
    /// The host's scratch-buffer pool for transfer-matrix metadata, shared
    /// by every frontend serializer (telemetry under `datapath.pool.*`).
    scratch: BytePool,
    /// The host's fault-injection plane (`Some` iff `VpimConfig.inject`
    /// enables it): one seeded plane shared by every layer so the armed
    /// schedules are global and `inject.*` telemetry aggregates host-wide.
    inject: Option<Arc<FaultPlane>>,
    /// `system.tenants.launched` — microVMs launched over the host's life.
    tenants_launched: Counter,
    /// `system.tenants.live` — microVMs currently alive (decremented when
    /// a [`VpimVm`] drops).
    tenants_live: Gauge,
}

impl VpimSystem {
    /// Starts a host. `opts` carries the cost model and manager tuning;
    /// `StartOpts::default()` reproduces the old two-argument `start`.
    #[must_use]
    pub fn start(driver: Arc<UpmemDriver>, vcfg: VpimConfig, opts: StartOpts) -> Self {
        let StartOpts { cost_model: cm, manager: mcfg } = opts;
        let registry = MetricsRegistry::new();
        let manager = Manager::start_with_registry(driver.clone(), cm.clone(), mcfg, &registry);
        let sched =
            Scheduler::new(driver.clone(), manager.client(), vcfg.sched, cm.clone(), &registry);
        let data_pool = crate::backend::host_data_pool();
        let scratch = BytePool::with_registry(&registry, "datapath.pool");
        let inject = if vcfg.inject.enabled {
            let plane = Arc::new(FaultPlane::with_registry(vcfg.inject.seed, &registry));
            for spec in vcfg.inject.armed() {
                plane.arm(spec.site.name(), spec.plan);
            }
            // Host-side layers: simulated ranks (CI ops, MRAM DMA, launch),
            // the manager's RPC surface, and the scheduler's checkpoint
            // path. Per-VM layers are installed at launch.
            driver.machine().install_fault_plane(&plane);
            manager.install_fault_plane(plane.clone());
            sched.install_fault_plane(plane.clone());
            Some(plane)
        } else {
            None
        };
        let tenants_launched = registry.counter("system.tenants.launched");
        let tenants_live = registry.gauge("system.tenants.live");
        VpimSystem {
            driver,
            manager,
            sched,
            vcfg,
            cm,
            registry,
            data_pool,
            scratch,
            inject,
            tenants_launched,
            tenants_live,
        }
    }

    /// The host's fault-injection plane, when `VpimConfig.inject` enabled
    /// one. Tests use this to re-arm points or read per-point stats.
    #[must_use]
    pub fn fault_plane(&self) -> Option<&Arc<FaultPlane>> {
        self.inject.as_ref()
    }

    /// The host driver.
    #[must_use]
    pub fn driver(&self) -> &Arc<UpmemDriver> {
        &self.driver
    }

    /// The manager.
    #[must_use]
    pub fn manager(&self) -> &Manager {
        &self.manager
    }

    /// The host-wide rank scheduler (admission queue, preemption engine,
    /// checkpoint store).
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// Runs one manager rank sweep: freshly released ranks are reset and
    /// NAAV when this returns. Admission never needs it (every rank
    /// request sweeps first); it is for callers that read the table or
    /// the manager's statistics.
    pub fn sync_ranks(&self) {
        self.manager.sync_now();
    }

    /// The optimization configuration VMs inherit.
    #[must_use]
    pub fn config(&self) -> &VpimConfig {
        &self.vcfg
    }

    /// The cost model.
    #[must_use]
    pub fn cost_model(&self) -> &CostModel {
        &self.cm
    }

    /// The host-wide metrics registry. Every layer records here:
    /// `frontend.prefetch.*` and `frontend.batch.*` (guest driver),
    /// `backend.*` (device model), `datapath.pool.{hits,misses,bytes,
    /// outstanding}` and `datapath.bytes.zero_copy` (zero-copy data path),
    /// `manager.rank_state.transitions`, `vmm.vmexits`,
    /// `virtio.irq.injections`, and the per-device
    /// `virtio.queue.depth.rank{i}` gauges.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Launches a tenant microVM described by `spec`: boots a VM with
    /// `spec.devices` vUPMEM devices, registers the tenant's scheduler
    /// weight, probes and initializes the guest drivers (which links each
    /// device to a physical rank through the manager's admission path).
    ///
    /// # Errors
    ///
    /// Boot or device initialization failures.
    pub fn launch(&self, spec: TenantSpec) -> Result<VpimVm, VpimError> {
        let TenantSpec { tag, devices: n_devices, mem_mib, weight } = spec;
        let cfg = VmConfig::builder()
            .vupmem_devices(n_devices)
            .mem_mib(mem_mib)
            .build();
        let mut vm = Vm::new(cfg);
        // Guest kicks from every VM on this host aggregate into one
        // `vmm.vmexits` cell (install before the manager is cloned below).
        vm.event_manager_mut()
            .set_kick_counter(self.registry.counter("vmm.vmexits"));
        if let Some(plane) = &self.inject {
            // Per-VM fault surfaces: guest kicks (dropped at dispatch) and
            // guest-memory access (transient EIO). Installed before the
            // event manager or memory handle is cloned below.
            vm.event_manager_mut().set_fault_plane(plane.clone());
            vm.memory().install_fault_plane(plane.clone());
        }

        let mut devices = Vec::with_capacity(n_devices);
        for i in 0..n_devices {
            // Scheduler accounts are keyed by backend tag, one per device.
            if weight != 1 {
                self.sched.set_weight(&format!("{tag}/vupmem{i}"), weight);
            }
            let backend = Backend::with_parts(
                self.driver.clone(),
                self.sched.clone(),
                self.vcfg,
                self.cm.clone(),
                format!("{tag}/vupmem{i}"),
                &self.registry,
                self.data_pool.clone(),
            );
            if let Some(plane) = &self.inject {
                backend.install_fault_plane(plane.clone());
            }
            let device = Arc::new(VupmemDevice::with_registry(
                format!("{tag}/vupmem{i}"),
                backend,
                Vm::irq_number(i),
                &self.registry,
            ));
            vm.event_manager_mut().register(device.clone());
            devices.push(device);
        }

        // Guest driver probes each device (queue setup) before boot…
        let em = vm.event_manager().clone();
        let mut frontends = Vec::with_capacity(n_devices);
        for (i, device) in devices.iter().enumerate() {
            let opts = ProbeOpts::new(i, em.clone(), vm.memory().clone())
                .cost_model(self.cm.clone())
                .config(self.vcfg)
                .registry(&self.registry)
                .scratch(self.scratch.clone());
            frontends.push(Arc::new(Frontend::probe(device.clone(), opts)?));
        }
        // …the VMM boots (devices activate)…
        let boot = vm.boot(&self.cm)?;
        // …and the drivers finish initialization (configuration request,
        // which links each device to a physical rank through the manager).
        for f in &frontends {
            f.initialize()?;
        }
        self.tenants_launched.inc();
        self.tenants_live.add(1);
        Ok(VpimVm { vm, devices, frontends, boot, live: self.tenants_live.clone() })
    }

    /// Stops the manager and consumes the system, as dropping it does.
    pub fn shutdown(self) {}
}

impl Drop for VpimSystem {
    fn drop(&mut self) {
        self.manager.shutdown();
    }
}

/// A launched microVM with its vUPMEM devices and guest-side frontends.
#[derive(Debug)]
pub struct VpimVm {
    vm: Vm,
    devices: Vec<Arc<VupmemDevice>>,
    frontends: Vec<Arc<Frontend>>,
    boot: BootReport,
    /// The host's `system.tenants.live` gauge; dropped VMs step it down.
    live: Gauge,
}

impl Drop for VpimVm {
    fn drop(&mut self) {
        self.live.sub(1);
    }
}

impl VpimVm {
    /// The underlying microVM.
    #[must_use]
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// The attached vUPMEM devices.
    #[must_use]
    pub fn devices(&self) -> &[Arc<VupmemDevice>] {
        &self.devices
    }

    /// The guest-side frontends, one per device.
    #[must_use]
    pub fn frontends(&self) -> &[Arc<Frontend>] {
        &self.frontends
    }

    /// Frontend `i`.
    #[must_use]
    pub fn frontend(&self, i: usize) -> &Arc<Frontend> {
        &self.frontends[i]
    }

    /// The boot report (cmdline + timing, §3.2).
    #[must_use]
    pub fn boot_report(&self) -> &BootReport {
        &self.boot
    }

    /// Releases every device's physical rank (guest shutdown path).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn release_all(&self) -> Result<(), VpimError> {
        for f in &self.frontends {
            f.release_rank()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::RankState;
    use upmem_sim::{PimConfig, PimMachine};

    fn system() -> VpimSystem {
        let machine = PimMachine::new(PimConfig::small());
        VpimSystem::start(Arc::new(UpmemDriver::new(machine)), VpimConfig::full(), StartOpts::default())
    }

    #[test]
    fn launch_links_ranks_and_reports_boot_time() {
        let sys = system();
        let vm = sys.launch(TenantSpec::new("vm-0").devices(2)).unwrap();
        assert_eq!(vm.frontends().len(), 2);
        assert_eq!(vm.frontend(0).nr_dpus(), 8);
        // Two vUPMEM devices: +4 ms of boot time (§3.2: up to 2 ms each).
        assert_eq!(vm.boot_report().vupmem_boot_time.as_millis(), 4);
        // Each device linked a distinct rank.
        let r0 = vm.devices()[0].backend().linked_rank().unwrap();
        let r1 = vm.devices()[1].backend().linked_rank().unwrap();
        assert_ne!(r0, r1);
        sys.shutdown();
    }

    /// The data pool is sized by the CPUs the process may run on; the
    /// model's `backend_threads` never reaches it.
    #[test]
    fn data_pool_is_sized_by_the_host_not_the_model() {
        let cm = CostModel { backend_threads: 32, ..CostModel::default() };
        let machine = PimMachine::new(PimConfig::small());
        let opts = StartOpts::new().cost_model(cm);
        let sys = VpimSystem::start(Arc::new(UpmemDriver::new(machine)), VpimConfig::full(), opts);
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(sys.data_pool.workers(), cpus);
        assert_eq!(sys.cost_model().backend_threads, 32, "the model keeps its width");
        sys.shutdown();
    }

    #[test]
    fn two_vms_cannot_share_a_rank() {
        let sys = system();
        let a = sys.launch(TenantSpec::new("vm-a")).unwrap();
        let b = sys.launch(TenantSpec::new("vm-b")).unwrap();
        assert_ne!(
            a.devices()[0].backend().linked_rank(),
            b.devices()[0].backend().linked_rank()
        );
        // A third VM finds no rank (machine has 2). The exhaustion crosses
        // the virtio boundary, so it surfaces as NotLinked.
        assert!(matches!(
            sys.launch(TenantSpec::new("vm-c")),
            Err(VpimError::NotLinked | VpimError::NoRankAvailable)
        ));
        sys.shutdown();
    }

    #[test]
    fn write_read_through_the_full_stack() {
        let sys = system();
        let vm = sys.launch(TenantSpec::new("vm-0")).unwrap();
        let fe = vm.frontend(0);
        let data = vec![0xC3u8; 10_000];
        let report = fe.write_rank(&[(1, 64, &data)]).unwrap();
        assert!(report.messages() >= 1);
        let (out, rreport) = fe.read_rank(&[(1, 64, 10_000)]).unwrap();
        assert_eq!(out[0], data);
        assert!(rreport.duration() > simkit::VirtualNanos::ZERO);
        sys.shutdown();
    }

    #[test]
    fn registry_records_prefetch_hits_and_misses() {
        let sys = system();
        let vm = sys.launch(TenantSpec::new("vm-0")).unwrap();
        let fe = vm.frontend(0);
        fe.write_rank(&[(0, 0, &[7u8; 256])]).unwrap();
        // First small read misses (and installs a segment), second hits.
        let _ = fe.read_rank(&[(0, 0, 64)]).unwrap();
        let _ = fe.read_rank(&[(0, 64, 64)]).unwrap();
        let snap = sys.registry().snapshot();
        assert!(snap.count("frontend.prefetch.misses") >= 1, "{snap:?}");
        assert!(snap.count("frontend.prefetch.hits") >= 1, "{snap:?}");
        sys.shutdown();
    }

    #[test]
    fn registry_records_batch_merges() {
        let sys = system();
        let vm = sys.launch(TenantSpec::new("vm-0")).unwrap();
        let fe = vm.frontend(0);
        // Two small writes landing on the same MRAM page: the second is a
        // merge within the batch window.
        fe.write_rank(&[(0, 0, &[1u8; 128])]).unwrap();
        fe.write_rank(&[(0, 128, &[2u8; 128])]).unwrap();
        let snap = sys.registry().snapshot();
        assert!(snap.count("frontend.batch.appends") >= 2, "{snap:?}");
        assert_eq!(snap.count("frontend.batch.merges"), 1, "{snap:?}");
        assert_eq!(fe.batch_merges(), 1);
        sys.shutdown();
    }

    #[test]
    fn registry_records_vmexits() {
        let sys = system();
        let vm = sys.launch(TenantSpec::new("vm-0")).unwrap();
        // Initialization alone kicks the device (Configure round trip).
        let before = sys.registry().snapshot().count("vmm.vmexits");
        assert!(before >= 1);
        vm.frontend(0).write_rank(&[(0, 0, &[3u8; 8192])]).unwrap();
        let after = sys.registry().snapshot().count("vmm.vmexits");
        assert!(after > before, "write must trap to the VMM ({before} -> {after})");
        sys.shutdown();
    }

    #[test]
    fn registry_records_irq_injections() {
        let sys = system();
        let vm = sys.launch(TenantSpec::new("vm-0")).unwrap();
        let before = sys.registry().snapshot().count("virtio.irq.injections");
        assert!(before >= 1, "configure completion already injected");
        vm.frontend(0).write_rank(&[(0, 0, &[4u8; 8192])]).unwrap();
        let after = sys.registry().snapshot().count("virtio.irq.injections");
        assert!(after > before);
        sys.shutdown();
    }

    #[test]
    fn registry_tracks_queue_depth_per_rank() {
        let sys = system();
        let vm = sys.launch(TenantSpec::new("vm-0").devices(2)).unwrap();
        vm.frontend(1).write_rank(&[(0, 0, &[5u8; 8192])]).unwrap();
        let snap = sys.registry().snapshot();
        // The gauge exists per device and is back to zero once every
        // request completed (requests are synchronous on this path).
        assert!(snap.get("virtio.queue.depth.rank0").is_some(), "{snap:?}");
        assert!(snap.get("virtio.queue.depth.rank1").is_some(), "{snap:?}");
        assert_eq!(snap.level("virtio.queue.depth.rank0"), 0);
        assert_eq!(snap.level("virtio.queue.depth.rank1"), 0);
        sys.shutdown();
    }

    #[test]
    fn registry_records_rank_state_transitions() {
        let sys = system();
        let vm = sys.launch(TenantSpec::new("vm-0")).unwrap();
        // Linking the device walked NAAV -> ALLO.
        assert!(sys.registry().snapshot().count("manager.rank_state.transitions") >= 1);
        assert_eq!(
            sys.manager().state_transitions(),
            sys.registry().snapshot().count("manager.rank_state.transitions")
        );
        drop(vm);
        sys.shutdown();
    }

    #[test]
    fn release_recycles_ranks_for_new_vms() {
        let machine = PimMachine::new(PimConfig::small());
        let sys = VpimSystem::start(Arc::new(UpmemDriver::new(machine)), VpimConfig::full(), StartOpts::default());
        let a = sys.launch(TenantSpec::new("vm-a")).unwrap();
        let _b = sys.launch(TenantSpec::new("vm-b")).unwrap();
        let rank = a.devices()[0].backend().linked_rank().unwrap();
        a.release_all().unwrap();
        drop(a);
        // One sweep resets the released rank and brings it back.
        sys.sync_ranks();
        assert_eq!(sys.manager().rank_states()[rank], RankState::Naav);
        sys.launch(TenantSpec::new("vm-c")).unwrap();
        sys.shutdown();
    }
}
