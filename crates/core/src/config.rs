//! The optimization matrix (Table 2) as a configuration type.

use serde::{Deserialize, Serialize};
use simkit::cost::DataPath;
use simkit::FaultPlan;

use crate::sched::SchedPolicy;

/// A fault-injection site: one of the named fault points threaded through
/// the stack. The enum (rather than a string) keeps [`VpimConfig`] `Copy`
/// and makes configurations exhaustively checkable; [`name`](Self::name)
/// yields the point name the [`simkit::FaultPlane`] is armed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultSite {
    /// A guest kick is dropped before the device handler runs
    /// (`vmm.kick.drop`).
    KickDrop,
    /// A guest-memory data access raises a transient EIO
    /// (`virtio.mem.eio`).
    MemEio,
    /// A backend per-DPU chunk write tears partway (`backend.chunk.torn_write`).
    ChunkTornWrite,
    /// A backend per-DPU chunk worker stalls in wall-clock time
    /// (`backend.chunk.stall`).
    ChunkStall,
    /// A simulated control-interface op fails (`sim.ci.op`).
    CiOp,
    /// A simulated MRAM DMA fails, keyed by DPU (`sim.mram.dma`).
    MramDma,
    /// A program launch faults at boot (`sim.launch.fault`).
    LaunchFault,
    /// A manager RPC (alloc / sync / mark-ckpt) fails (`manager.rpc`).
    ManagerRpc,
    /// The scheduler's checkpoint path stalls at the safe point
    /// (`sched.ckpt.stall`).
    CkptStall,
    /// An inter-host link transfer is dropped mid-migration
    /// (`cluster.link.drop`).
    LinkDrop,
    /// The migration engine stalls at its safe point in wall-clock time
    /// (`cluster.migrate.stall`).
    MigrateStall,
    /// A persistent-heap WAL append tears partway, leaving an
    /// uncommitted tail in MRAM (`pheap.wal.torn`).
    PheapWalTorn,
    /// A persistent-heap commit record is dropped before it reaches
    /// MRAM — power loss just before commit (`pheap.persist.drop`).
    PheapPersistDrop,
}

impl FaultSite {
    /// Every site, in stack order (guest-facing first).
    pub const ALL: [FaultSite; 13] = [
        FaultSite::KickDrop,
        FaultSite::MemEio,
        FaultSite::ChunkTornWrite,
        FaultSite::ChunkStall,
        FaultSite::CiOp,
        FaultSite::MramDma,
        FaultSite::LaunchFault,
        FaultSite::ManagerRpc,
        FaultSite::CkptStall,
        FaultSite::LinkDrop,
        FaultSite::MigrateStall,
        FaultSite::PheapWalTorn,
        FaultSite::PheapPersistDrop,
    ];

    /// The fault-point name this site arms on the plane.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            FaultSite::KickDrop => "vmm.kick.drop",
            FaultSite::MemEio => "virtio.mem.eio",
            FaultSite::ChunkTornWrite => "backend.chunk.torn_write",
            FaultSite::ChunkStall => "backend.chunk.stall",
            FaultSite::CiOp => "sim.ci.op",
            FaultSite::MramDma => "sim.mram.dma",
            FaultSite::LaunchFault => "sim.launch.fault",
            FaultSite::ManagerRpc => "manager.rpc",
            FaultSite::CkptStall => "sched.ckpt.stall",
            FaultSite::LinkDrop => "cluster.link.drop",
            FaultSite::MigrateStall => "cluster.migrate.stall",
            FaultSite::PheapWalTorn => "pheap.wal.torn",
            FaultSite::PheapPersistDrop => "pheap.persist.drop",
        }
    }
}

/// One armed fault: a site plus the plan deciding which hits fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Where to inject.
    pub site: FaultSite,
    /// When to fire.
    pub plan: FaultPlan,
}

/// The fault-injection knobs (the `inject` section of [`VpimConfig`]).
///
/// Disabled by default: no plane is built, every fault point stays a
/// single relaxed atomic load, and the system is bit-identical to one
/// compiled without injection. The fixed-size `faults` array (rather than
/// a `Vec`) keeps [`VpimConfig`] `Copy`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectSection {
    /// Build and install a [`simkit::FaultPlane`] at system start.
    pub enabled: bool,
    /// Seed for probability plans and retry jitter — the *only* source of
    /// randomness, so a (seed, config) pair replays bit-identically.
    pub seed: u64,
    /// Faults to arm at start (first `None` terminates the list).
    pub faults: [Option<FaultSpec>; 8],
}

impl InjectSection {
    /// The armed faults (the leading `Some` prefix of the array).
    pub fn armed(&self) -> impl Iterator<Item = FaultSpec> + '_ {
        self.faults.iter().flatten().copied()
    }
}

/// The rank scheduler's knobs (the `sched` section of [`VpimConfig`]).
///
/// With `oversubscription` off (the default) the scheduler is a thin
/// pass-through over the manager: exhaustion fails fast with
/// [`NoRankAvailable`](crate::VpimError::NoRankAvailable), exactly the
/// paper's §3.5 behaviour. Switching it on turns exhaustion into
/// **block-or-queue**: requests park in an admission queue and are served
/// by time-sharing ranks through checkpoint → reset → lend → restore
/// cycles (§7's consolidation future work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedSection {
    /// Allow more tenant VMs than physical ranks (time-sharing).
    pub oversubscription: bool,
    /// Admission-queue ordering policy.
    pub policy: SchedPolicy,
    /// Protection quantum in **virtual** milliseconds: a lease that has
    /// consumed less rank time than this is only preempted when no expired
    /// lease exists.
    pub quantum_ms: u64,
    /// [`SnapshotStore`](crate::sched::SnapshotStore) budget in MiB
    /// (0 = unlimited). Preemptions that would overflow the budget are
    /// refused rather than dropping a tenant's parked state.
    pub park_budget_mib: u64,
    /// Wall-clock milliseconds a queued request waits before giving up
    /// with [`AdmissionTimeout`](crate::VpimError::AdmissionTimeout).
    pub admission_timeout_ms: u64,
}

impl Default for SchedSection {
    fn default() -> Self {
        SchedSection {
            oversubscription: false,
            policy: SchedPolicy::Fifo,
            quantum_ms: 50,
            park_budget_mib: 256,
            admission_timeout_ms: 30_000,
        }
    }
}

/// The adaptive frontend controller's switch (the `adapt` section of
/// [`VpimConfig`]).
///
/// Disabled by default: the frontend runs the paper's static policies
/// (fixed prefetch window, capacity-triggered batch flush) and is
/// byte-identical to a build without the controller. Enabling it closes
/// the telemetry loop (DESIGN.md §16): the prefetch window resizes from
/// observed fetch utilization, write-then-read-back patterns toggle
/// prefetch off per DPU, and the batch flush threshold tracks inter-op
/// virtual gaps. Its bounds and thresholds are the constants of
/// [`crate::frontend::policy`]. Every decision is a pure function of
/// virtual-time observations, so runs stay bit-identical whatever thread
/// handles a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AdaptSection {
    /// Run the feedback controller (off = exact static-policy passthrough).
    pub enabled: bool,
}

/// The named configurations evaluated in §5.4 (Table 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variant {
    /// Pure-Rust data path, no optimizations (`vPIM-rust`).
    VpimRust,
    /// C/AVX-512 data path only (`vPIM-C`).
    VpimC,
    /// C path + prefetch cache (`vPIM+P`).
    VpimP,
    /// C path + request batching (`vPIM+B`).
    VpimB,
    /// C path + prefetch + batching (`vPIM+PB`).
    VpimPB,
    /// All data-plane optimizations, sequential event handling (`vPIM-Seq`).
    VpimSeq,
    /// Everything enabled (`vPIM`).
    Vpim,
}

impl Variant {
    /// All variants, in Table 2 order.
    pub const ALL: [Variant; 7] = [
        Variant::VpimRust,
        Variant::VpimC,
        Variant::VpimP,
        Variant::VpimB,
        Variant::VpimPB,
        Variant::VpimSeq,
        Variant::Vpim,
    ];

    /// The label used in the paper's tables and figures.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Variant::VpimRust => "vPIM-rust",
            Variant::VpimC => "vPIM-C",
            Variant::VpimP => "vPIM+P",
            Variant::VpimB => "vPIM+B",
            Variant::VpimPB => "vPIM+PB",
            Variant::VpimSeq => "vPIM-Seq",
            Variant::Vpim => "vPIM",
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which vPIM optimizations are enabled (§4, Table 2).
///
/// Construct configurations with [`VpimConfig::builder`] (or the named
/// shorthands [`full`](VpimConfig::full) /
/// [`variant_config`](VpimConfig::variant_config)). The fields stay public
/// for *reading*; mutating them in place is deprecated in favour of the
/// builder, which keeps the flag set consistent with a Table 2 row.
///
/// # Example
///
/// ```
/// use vpim::{Variant, VpimConfig};
///
/// let full = VpimConfig::full();
/// assert_eq!(full, VpimConfig::variant_config(Variant::Vpim));
/// let rust = VpimConfig::variant_config(Variant::VpimRust);
/// assert!(!rust.prefetch_cache);
/// let custom = VpimConfig::builder().prefetch(false).parallel(false).build();
/// assert_eq!(custom, VpimConfig::variant_config(Variant::VpimB));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VpimConfig {
    /// "C Code Enhancement": which data path handles interleaving and
    /// matrix management in the backend.
    pub data_path: DataPath,
    /// Frontend prefetch cache for small reads (16 pages per DPU).
    pub prefetch_cache: bool,
    /// Frontend request batching for small writes (64 pages per DPU).
    pub request_batching: bool,
    /// Parallel operation handling across ranks (§4.2): whether a
    /// multi-rank operation's per-rank times overlap (vPIM) or add up
    /// back to back (`vPIM-Seq`, stock Firecracker's single event loop).
    /// A model parameter read by `DpuSet::alloc_vm`'s composition; the
    /// host's own dispatch follows the device count, not this flag.
    pub parallel_handling: bool,
    /// Prefetch cache capacity in pages per DPU (paper: 16).
    pub prefetch_pages_per_dpu: usize,
    /// Batch buffer capacity in pages per DPU (paper: 64).
    pub batch_pages_per_dpu: usize,
    /// Rank scheduling and oversubscription knobs.
    pub sched: SchedSection,
    /// Deterministic fault-injection knobs (disabled by default).
    pub inject: InjectSection,
    /// Adaptive frontend-controller switch (disabled by default).
    pub adapt: AdaptSection,
}

/// Fluent constructor for [`VpimConfig`], starting from the fully
/// optimized configuration. Each setter returns the builder, so a custom
/// flag set reads as one expression:
///
/// ```
/// use vpim::VpimConfig;
///
/// let cfg = VpimConfig::builder()
///     .prefetch_pages(4)
///     .batching(false)
///     .build();
/// assert!(cfg.prefetch_cache);
/// assert_eq!(cfg.prefetch_pages_per_dpu, 4);
/// assert!(!cfg.request_batching);
/// ```
#[derive(Debug, Clone)]
pub struct VpimConfigBuilder {
    cfg: VpimConfig,
}

impl VpimConfigBuilder {
    /// Selects the backend data path ("C Code Enhancement" when
    /// [`DataPath::Vectorized`]).
    #[must_use]
    pub fn data_path(mut self, path: DataPath) -> Self {
        self.cfg.data_path = path;
        self
    }

    /// Enables or disables the frontend prefetch cache.
    #[must_use]
    pub fn prefetch(mut self, on: bool) -> Self {
        self.cfg.prefetch_cache = on;
        self
    }

    /// Sets the prefetch cache capacity in pages per DPU (paper: 16) and
    /// enables the cache; `0` disables it instead.
    #[must_use]
    pub fn prefetch_pages(mut self, pages: usize) -> Self {
        if pages == 0 {
            self.cfg.prefetch_cache = false;
        } else {
            self.cfg.prefetch_cache = true;
            self.cfg.prefetch_pages_per_dpu = pages;
        }
        self
    }

    /// Enables or disables frontend request batching.
    #[must_use]
    pub fn batching(mut self, on: bool) -> Self {
        self.cfg.request_batching = on;
        self
    }

    /// Sets the batch buffer capacity in pages per DPU (paper: 64) and
    /// enables batching; `0` disables it instead.
    #[must_use]
    pub fn batch_pages(mut self, pages: usize) -> Self {
        if pages == 0 {
            self.cfg.request_batching = false;
        } else {
            self.cfg.request_batching = true;
            self.cfg.batch_pages_per_dpu = pages;
        }
        self
    }

    /// Enables or disables parallel operation handling across ranks (the
    /// modelled overlap of a multi-rank operation).
    #[must_use]
    pub fn parallel(mut self, on: bool) -> Self {
        self.cfg.parallel_handling = on;
        self
    }

    /// Enables or disables rank oversubscription (block-or-queue admission
    /// plus checkpoint/restore time-sharing when tenants outnumber ranks).
    #[must_use]
    pub fn oversubscription(mut self, on: bool) -> Self {
        self.cfg.sched.oversubscription = on;
        self
    }

    /// Selects the admission-queue policy.
    #[must_use]
    pub fn sched_policy(mut self, policy: SchedPolicy) -> Self {
        self.cfg.sched.policy = policy;
        self
    }

    /// Sets the virtual-time protection quantum in milliseconds.
    #[must_use]
    pub fn sched_quantum_ms(mut self, ms: u64) -> Self {
        self.cfg.sched.quantum_ms = ms;
        self
    }

    /// Enables fault injection with the given seed (the sole randomness
    /// source for probability plans and retry jitter).
    #[must_use]
    pub fn inject_seed(mut self, seed: u64) -> Self {
        self.cfg.inject.enabled = true;
        self.cfg.inject.seed = seed;
        self
    }

    /// Arms a fault at system start (and enables injection). Up to 8
    /// faults can be armed from configuration; more can always be armed at
    /// runtime through the plane itself.
    ///
    /// # Panics
    ///
    /// When all 8 configuration slots are taken.
    #[must_use]
    pub fn inject_fault(mut self, site: FaultSite, plan: FaultPlan) -> Self {
        self.cfg.inject.enabled = true;
        let slot = self
            .cfg
            .inject
            .faults
            .iter_mut()
            .find(|s| s.is_none())
            .expect("all 8 configured fault slots are taken");
        *slot = Some(FaultSpec { site, plan });
        self
    }

    /// Enables or disables the adaptive frontend controller.
    #[must_use]
    pub fn adaptive(mut self, on: bool) -> Self {
        self.cfg.adapt.enabled = on;
        self
    }

    /// Finishes the configuration.
    #[must_use]
    pub fn build(self) -> VpimConfig {
        self.cfg
    }
}

impl VpimConfig {
    /// Starts a [`VpimConfigBuilder`] from the fully optimized
    /// configuration; switch individual optimizations off from there.
    #[must_use]
    pub fn builder() -> VpimConfigBuilder {
        VpimConfigBuilder {
            cfg: VpimConfig::full(),
        }
    }

    /// The fully optimized configuration (`vPIM`).
    #[must_use]
    pub fn full() -> Self {
        VpimConfig {
            data_path: DataPath::Vectorized,
            prefetch_cache: true,
            request_batching: true,
            parallel_handling: true,
            prefetch_pages_per_dpu: 16,
            batch_pages_per_dpu: 64,
            sched: SchedSection::default(),
            inject: InjectSection::default(),
            adapt: AdaptSection::default(),
        }
    }

    /// The configuration for a named Table 2 variant.
    #[must_use]
    pub fn variant_config(v: Variant) -> Self {
        let b = VpimConfig::builder();
        match v {
            Variant::VpimRust => b
                .data_path(DataPath::Scalar)
                .prefetch(false)
                .batching(false)
                .parallel(false),
            Variant::VpimC => b.prefetch(false).batching(false).parallel(false),
            Variant::VpimP => b.batching(false).parallel(false),
            Variant::VpimB => b.prefetch(false).parallel(false),
            Variant::VpimPB | Variant::VpimSeq => b.parallel(false),
            Variant::Vpim => b,
        }
        .build()
    }

    /// Prefetch cache capacity in bytes per DPU.
    #[must_use]
    pub fn prefetch_bytes(&self) -> u64 {
        self.prefetch_pages_per_dpu as u64 * 4096
    }

    /// Batch buffer capacity in bytes per DPU.
    #[must_use]
    pub fn batch_bytes(&self) -> u64 {
        self.batch_pages_per_dpu as u64 * 4096
    }

    /// Maximum extra frontend memory per DPU (§4.1 "Memory Overhead"):
    /// page-pointer array + prefetch cache + batch buffer.
    #[must_use]
    pub fn frontend_memory_overhead_per_dpu(&self) -> u64 {
        // §4.1: (16384 × 64) B of per-page bookkeeping (a 64-byte record
        // per 4 KiB page of the 64 MB bank) + prefetch cache + batch buffer.
        let page_records = 16_384u64 * 64;
        page_records + self.prefetch_bytes() + self.batch_bytes()
    }
}

impl Default for VpimConfig {
    fn default() -> Self {
        VpimConfig::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matrix() {
        // Rows of Table 2: (variant, C, prefetch, batching, parallel).
        let rows = [
            (Variant::VpimRust, false, false, false, false),
            (Variant::VpimC, true, false, false, false),
            (Variant::VpimP, true, true, false, false),
            (Variant::VpimB, true, false, true, false),
            (Variant::VpimPB, true, true, true, false),
            (Variant::VpimSeq, true, true, true, false),
            (Variant::Vpim, true, true, true, true),
        ];
        for (v, c, p, b, par) in rows {
            let cfg = VpimConfig::variant_config(v);
            assert_eq!(cfg.data_path == DataPath::Vectorized, c, "{v}");
            assert_eq!(cfg.prefetch_cache, p, "{v}");
            assert_eq!(cfg.request_batching, b, "{v}");
            assert_eq!(cfg.parallel_handling, par, "{v}");
        }
    }

    #[test]
    fn memory_overhead_matches_paper() {
        // §4.1: (16384 × 64)B + (16 × 4)KB + (64 × 4)KB = 1.37 MB per DPU.
        let cfg = VpimConfig::full();
        let bytes = cfg.frontend_memory_overhead_per_dpu();
        let mb = bytes as f64 / 1e6;
        assert!((mb - 1.37).abs() < 0.05, "got {mb} MB");
    }

    #[test]
    fn builder_defaults_to_full() {
        assert_eq!(VpimConfig::builder().build(), VpimConfig::full());
    }

    #[test]
    fn builder_expresses_every_variant() {
        // The named Table 2 rows are just builder chains; spot-check the
        // extremes and one middle row.
        let rust = VpimConfig::builder()
            .data_path(DataPath::Scalar)
            .prefetch(false)
            .batching(false)
            .parallel(false)
            .build();
        assert_eq!(rust, VpimConfig::variant_config(Variant::VpimRust));
        let pb = VpimConfig::builder().parallel(false).build();
        assert_eq!(pb, VpimConfig::variant_config(Variant::VpimPB));
        assert_eq!(VpimConfig::builder().build(), VpimConfig::variant_config(Variant::Vpim));
    }

    #[test]
    fn builder_page_setters_toggle_features() {
        let off = VpimConfig::builder().prefetch_pages(0).batch_pages(0).build();
        assert!(!off.prefetch_cache);
        assert!(!off.request_batching);
        // Capacities keep their defaults so re-enabling is sane.
        assert_eq!(off.prefetch_pages_per_dpu, 16);
        assert_eq!(off.batch_pages_per_dpu, 64);
        let sized = VpimConfig::builder().prefetch_pages(4).batch_pages(256).build();
        assert!(sized.prefetch_cache && sized.request_batching);
        assert_eq!(sized.prefetch_pages_per_dpu, 4);
        assert_eq!(sized.batch_pages_per_dpu, 256);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Variant::VpimRust.label(), "vPIM-rust");
        assert_eq!(Variant::Vpim.to_string(), "vPIM");
    }

    #[test]
    fn sched_defaults_keep_dedicated_semantics() {
        // Oversubscription is opt-in: the default config must behave
        // exactly like the pre-scheduler system (exhaustion errors).
        let cfg = VpimConfig::builder().build();
        assert!(!cfg.sched.oversubscription);
        assert_eq!(cfg.sched.policy, crate::sched::SchedPolicy::Fifo);
        assert_eq!(cfg.sched.quantum_ms, 50);
        assert_eq!(cfg.sched.park_budget_mib, 256);
        assert_eq!(cfg.sched.admission_timeout_ms, 30_000);
    }

    #[test]
    fn inject_defaults_off_and_builder_arms_faults() {
        let cfg = VpimConfig::builder().build();
        assert!(!cfg.inject.enabled);
        assert_eq!(cfg.inject.armed().count(), 0);

        let cfg = VpimConfig::builder()
            .inject_seed(42)
            .inject_fault(FaultSite::KickDrop, FaultPlan::Nth(3))
            .inject_fault(FaultSite::MemEio, FaultPlan::EveryK(5))
            .build();
        assert!(cfg.inject.enabled);
        assert_eq!(cfg.inject.seed, 42);
        let armed: Vec<FaultSpec> = cfg.inject.armed().collect();
        assert_eq!(armed.len(), 2);
        assert_eq!(armed[0].site.name(), "vmm.kick.drop");
        assert_eq!(armed[1].plan, FaultPlan::EveryK(5));
        // The config (with injection armed) is still Copy + Eq.
        let copy = cfg;
        assert_eq!(copy, cfg);
    }

    #[test]
    fn adapt_defaults_off_and_builder_enables() {
        // The controller is opt-in: the default config must run the static
        // policies untouched (byte-identical to the pre-controller system).
        let cfg = VpimConfig::builder().build();
        assert!(!cfg.adapt.enabled);

        let cfg = VpimConfig::builder().adaptive(true).build();
        assert!(cfg.adapt.enabled);
        // Flag-wise this is still the full variant: adapt tunes the data
        // path, it does not change which Table 2 row we are on.
        assert_eq!(
            VpimConfig { adapt: AdaptSection::default(), ..cfg },
            VpimConfig::full()
        );
    }

    #[test]
    fn fault_site_names_are_unique_and_stable() {
        use std::collections::HashSet;
        let names: HashSet<&str> = FaultSite::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), FaultSite::ALL.len());
        assert!(names.contains("sched.ckpt.stall"));
        assert!(names.contains("backend.chunk.torn_write"));
    }

    #[test]
    fn sched_builder_methods_cover_every_knob() {
        let cfg = VpimConfig::builder()
            .oversubscription(true)
            .sched_policy(crate::sched::SchedPolicy::WeightedFair)
            .sched_quantum_ms(7)
            .build();
        assert!(cfg.sched.oversubscription);
        assert_eq!(cfg.sched.policy, crate::sched::SchedPolicy::WeightedFair);
        assert_eq!(cfg.sched.quantum_ms, 7);
    }
}
