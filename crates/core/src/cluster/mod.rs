//! `vpim::cluster` — the multi-host fleet plane (ROADMAP item 1).
//!
//! Everything below this module virtualizes *one* host. A [`Fleet`] owns
//! N independent [`VpimSystem`] hosts — each with its own simulated
//! machine, driver, manager, scheduler, and registry — and adds the three
//! things a fleet needs:
//!
//! * a **placement/admission plane** ([`placement`]): every
//!   [`TenantSpec`] launch routes through [`Fleet::launch`], which picks
//!   a host under a [`PlacementPolicy`] (first-fit, least-loaded)
//!   against per-host rank capacity;
//! * a **modeled inter-host network** ([`link`]): snapshot bytes ship
//!   over a serialized [`Link`] whose transfer time is pure integer
//!   virtual time, so fleet-level reports stay bit-identical across
//!   dispatch modes and thread counts;
//! * **live migration** ([`migrate`]): quiesce a tenant's ranks at their
//!   slot-lock safe points, snapshot bit-exactly
//!   ([`Rank::snapshot_quiescent`]), ship over the link (stop-and-copy,
//!   or pre-copy with a dirty re-send round), restore on the destination
//!   and atomically re-home the tenant — with rollback to the source on
//!   any failure, including injected `cluster.link.drop` /
//!   `cluster.migrate.stall` faults.
//!
//! Fleet-wide telemetry (`cluster.*`, `migrate.*`) lives in the fleet's
//! own [`MetricsRegistry`]; per-host metrics stay in each host's
//! registry, reachable via [`FleetHost::system`].
//!
//! The fleet-level load harness ([`Fleet::load_run`]) reuses the
//! single-host session engine: host assignment is precomputed as a pure
//! function of the spec (round-robin over the hosts),
//! phase A executes sessions against their assigned hosts, and phase B
//! replays each host's queue independently — so a [`FleetLoadReport`] is
//! bit-identical for a given seed, which is what lets
//! `ci/cluster-gate.sh` publish the consolidation curve (tenants
//! sustained at a p99 bound on 1 vs 2 vs 4 hosts) as `BENCH_cluster.json`.
//!
//! [`Rank::snapshot_quiescent`]: upmem_sim::Rank::snapshot_quiescent

pub mod host;
pub mod link;
pub mod migrate;
pub mod placement;

pub use host::FleetHost;
pub use link::{Link, LinkSpec, LINK_DROP_POINT};
pub use migrate::{MigrateMode, MigrateOpts, MigrationReport, MIGRATE_STALL_POINT};
pub use placement::PlacementPolicy;

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use simkit::lockorder::{ordered, LockLevel};
use simkit::telemetry::{Counter, Gauge, MetricsRegistry, TimeCounter, VtHistogram};
use simkit::{CostModel, FaultPlane, InjectCell, JsonObject, VirtualNanos};
use upmem_sim::PimConfig;

use crate::config::VpimConfig;
use crate::error::VpimError;
use crate::load::session::{peaks, run_sessions, serve_group};
use crate::load::{rate_milli_per_sec, LatencySummary, LoadSpec, TenantMix};
use crate::sched::SnapshotStore;
use crate::system::{TenantSpec, VpimVm};
use placement::PlacementTable;

/// How to build a [`Fleet`]: host count and geometry, the per-host
/// configuration, the placement policy, the link model, and migration
/// budgets.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    hosts: usize,
    pim: PimConfig,
    vcfg: VpimConfig,
    policy: PlacementPolicy,
    link: LinkSpec,
    oversub_factor: usize,
    inflight_budget_mib: u64,
}

impl FleetSpec {
    /// `hosts` homogeneous hosts, each a [`PimConfig::small`] machine
    /// running [`VpimConfig::full`] with default [`crate::system::StartOpts`],
    /// least-loaded placement, the default datacenter link, no logical
    /// oversubscription, and an unlimited in-flight snapshot budget.
    #[must_use]
    pub fn new(hosts: usize) -> Self {
        let hosts = hosts.max(1);
        FleetSpec {
            hosts,
            pim: PimConfig::small(),
            vcfg: VpimConfig::full(),
            policy: PlacementPolicy::default(),
            link: LinkSpec::default(),
            oversub_factor: 1,
            inflight_budget_mib: 0,
        }
    }

    /// The machine geometry every host boots with (homogeneous fleet).
    #[must_use]
    pub fn pim(mut self, pim: PimConfig) -> Self {
        self.pim = pim;
        self
    }

    /// The optimization/injection configuration every host inherits. The
    /// `inject` section also arms the *fleet's* plane: `cluster.link.drop`
    /// and `cluster.migrate.stall` fire from the same seeded schedule
    /// space as the per-host sites.
    #[must_use]
    pub fn config(mut self, vcfg: VpimConfig) -> Self {
        self.vcfg = vcfg;
        self
    }

    /// The placement policy.
    #[must_use]
    pub fn policy(mut self, p: PlacementPolicy) -> Self {
        self.policy = p;
        self
    }

    /// The inter-host link model.
    #[must_use]
    pub fn link(mut self, l: LinkSpec) -> Self {
        self.link = l;
        self
    }

    /// Logical rank-capacity multiplier per host (≥ 1). With the
    /// single-host scheduler's oversubscription enabled, a host can admit
    /// more tenant ranks than physical ranks; the placement table's
    /// capacity is `physical × factor`.
    #[must_use]
    pub fn oversub_factor(mut self, f: usize) -> Self {
        self.oversub_factor = f.max(1);
        self
    }

    /// Byte budget for snapshots in flight over the link (MiB, 0 =
    /// unlimited). A migration that would exceed it aborts cleanly.
    #[must_use]
    pub fn inflight_budget_mib(mut self, mib: u64) -> Self {
        self.inflight_budget_mib = mib;
        self
    }
}

/// Fleet-wide telemetry cells (all in the fleet registry).
#[derive(Debug)]
pub(crate) struct FleetMetrics {
    /// `cluster.tenants.launched`.
    pub launched: Counter,
    /// `cluster.tenants.live`.
    pub live: Gauge,
    /// `cluster.place.rejected` — launches refused for capacity.
    pub rejected: Counter,
    /// `migrate.attempts`.
    pub attempts: Counter,
    /// `migrate.completed`.
    pub completed: Counter,
    /// `migrate.aborted`.
    pub aborted: Counter,
    /// `migrate.bytes` — total bytes shipped by completed migrations.
    pub bytes: Counter,
    /// `migrate.dirty.bytes` — pre-copy round-2 dirty bytes re-sent.
    pub dirty_bytes: Counter,
    /// `migrate.downtime` — stop-and-copy window per completed migration.
    pub downtime: VtHistogram,
    /// `migrate.vt` — total virtual migration time.
    pub vt: TimeCounter,
}

impl FleetMetrics {
    fn from_registry(r: &MetricsRegistry) -> Self {
        FleetMetrics {
            launched: r.counter("cluster.tenants.launched"),
            live: r.gauge("cluster.tenants.live"),
            rejected: r.counter("cluster.place.rejected"),
            attempts: r.counter("migrate.attempts"),
            completed: r.counter("migrate.completed"),
            aborted: r.counter("migrate.aborted"),
            bytes: r.counter("migrate.bytes"),
            dirty_bytes: r.counter("migrate.dirty.bytes"),
            downtime: r.histogram("migrate.downtime"),
            vt: r.time("migrate.vt"),
        }
    }
}

/// A tenant's mutable fleet-side state, behind its entry lock
/// (`LockLevel::Fleet`, index 1).
#[derive(Debug)]
pub(crate) struct TenantState {
    pub vm: VpimVm,
    pub spec: TenantSpec,
    pub host: usize,
}

/// One tenant's slot in the fleet map. `None` state means released.
#[derive(Debug)]
pub(crate) struct TenantEntry {
    pub state: Mutex<Option<TenantState>>,
}

/// N vPIM hosts behind one placement plane, with live migration.
///
/// ```
/// use vpim::cluster::{Fleet, FleetSpec, MigrateOpts, PlacementPolicy};
/// use vpim::prelude::*;
///
/// let fleet = Fleet::start(FleetSpec::new(2).policy(PlacementPolicy::FirstFit));
/// let home = fleet.launch(TenantSpec::new("tenant-a").mem_mib(16)).unwrap();
/// assert_eq!(home, 0);
/// fleet
///     .with_vm("tenant-a", |vm| {
///         vm.frontend(0).write_rank(&[(0, 0, &[7u8; 64])]).map(|_| ())
///     })
///     .unwrap();
/// let report = fleet.migrate("tenant-a", 1, MigrateOpts::default()).unwrap();
/// assert_eq!(report.to, 1);
/// assert_eq!(fleet.host_of("tenant-a"), Some(1));
/// fleet.release("tenant-a").unwrap();
/// ```
#[derive(Debug)]
pub struct Fleet {
    hosts: Vec<FleetHost>,
    policy: PlacementPolicy,
    /// Tenant map (`LockLevel::Fleet`, index 0).
    tenants: Mutex<HashMap<String, Arc<TenantEntry>>>,
    /// Placement/admission table (`LockLevel::Placement`).
    placement: Mutex<PlacementTable>,
    link: Link,
    /// Snapshots in flight between hosts during a migration
    /// (`migrate.inflight.bytes` gauge).
    pub(crate) inflight: SnapshotStore,
    registry: MetricsRegistry,
    /// Fleet-level fault plane (`Some` iff `vcfg.inject` enabled).
    plane: Option<Arc<FaultPlane>>,
    /// `cluster.migrate.stall` consults this cell.
    pub(crate) inject: InjectCell,
    pub(crate) metrics: FleetMetrics,
    /// Cost model migrations charge snapshot/restore against (the hosts
    /// are homogeneous, so one model serves the fleet).
    pub(crate) cm: CostModel,
}

// The fleet is shared across session workers and migration drivers.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Fleet>();
};

impl Fleet {
    /// Boots `spec.hosts` independent hosts and the fleet plane around
    /// them.
    #[must_use]
    pub fn start(spec: FleetSpec) -> Self {
        let registry = MetricsRegistry::new();
        let hosts: Vec<FleetHost> = (0..spec.hosts)
            .map(|id| FleetHost::boot(id, &spec.pim, spec.vcfg))
            .collect();
        let capacity: Vec<usize> =
            hosts.iter().map(|h| h.rank_count() * spec.oversub_factor).collect();
        let placement = Mutex::new(PlacementTable::new(capacity));
        let link = Link::with_registry(spec.link, &registry);
        let inflight = SnapshotStore::with_registry(
            spec.inflight_budget_mib.saturating_mul(1 << 20),
            &registry,
            "migrate.inflight.bytes",
        );
        let inject = InjectCell::new();
        let plane = if spec.vcfg.inject.enabled {
            let plane = Arc::new(FaultPlane::with_registry(spec.vcfg.inject.seed, &registry));
            for fault in spec.vcfg.inject.armed() {
                plane.arm(fault.site.name(), fault.plan);
            }
            link.install_fault_plane(plane.clone());
            inject.install(plane.clone());
            Some(plane)
        } else {
            None
        };
        registry.gauge("cluster.hosts").set(spec.hosts as i64);
        let cm = hosts[0].system().cost_model().clone();
        Fleet {
            hosts,
            policy: spec.policy,
            tenants: Mutex::new(HashMap::new()),
            placement,
            link,
            inflight,
            metrics: FleetMetrics::from_registry(&registry),
            registry,
            plane,
            inject,
            cm,
        }
    }

    /// The fleet's hosts, in index order.
    #[must_use]
    pub fn hosts(&self) -> &[FleetHost] {
        &self.hosts
    }

    /// Host `i`.
    #[must_use]
    pub fn host(&self, i: usize) -> &FleetHost {
        &self.hosts[i]
    }

    /// The fleet-wide registry (`cluster.*`, `migrate.*`).
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The inter-host link.
    #[must_use]
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// The placement policy in force.
    #[must_use]
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// The fleet's fault plane, when `vcfg.inject` enabled one.
    #[must_use]
    pub fn fault_plane(&self) -> Option<&Arc<FaultPlane>> {
        self.plane.as_ref()
    }

    /// Routes `spec` to a host under the placement policy, launches its
    /// microVM there, and homes the tenant. Returns the chosen host.
    ///
    /// # Errors
    ///
    /// [`VpimError::NoRankAvailable`] when no host has capacity,
    /// [`VpimError::BadRequest`] for a duplicate tag, or any launch
    /// failure from the chosen host (the reservation is rolled back).
    pub fn launch(&self, spec: TenantSpec) -> Result<usize, VpimError> {
        let tenant = spec.tag().to_string();
        let need = spec.n_devices();
        let host = {
            let _ord = ordered(LockLevel::Placement, 0);
            let mut table = self.placement.lock();
            match table.place(self.policy, &tenant, need) {
                Ok(h) => h,
                Err(e) => {
                    if matches!(e, VpimError::NoRankAvailable) {
                        self.metrics.rejected.inc();
                    }
                    return Err(e);
                }
            }
        };
        let vm = match self.hosts[host].system().launch_with_retry(&spec) {
            Ok(vm) => vm,
            Err(e) => {
                let _ord = ordered(LockLevel::Placement, 0);
                self.placement.lock().release(&tenant, host, need);
                return Err(e);
            }
        };
        let entry = Arc::new(TenantEntry {
            state: Mutex::new(Some(TenantState { vm, spec, host })),
        });
        {
            let _ord = ordered(LockLevel::Fleet, 0);
            self.tenants.lock().insert(tenant, entry);
        }
        self.metrics.launched.inc();
        self.metrics.live.add(1);
        Ok(host)
    }

    /// Looks up a tenant's entry handle.
    pub(crate) fn entry(&self, tenant: &str) -> Result<Arc<TenantEntry>, VpimError> {
        let _ord = ordered(LockLevel::Fleet, 0);
        self.tenants
            .lock()
            .get(tenant)
            .cloned()
            .ok_or_else(|| VpimError::BadRequest(format!("unknown tenant {tenant}")))
    }

    /// Runs `f` against the tenant's live VM, wherever it currently
    /// lives. The entry lock pins the tenant for the duration, so ops
    /// never observe a VM mid-migration.
    ///
    /// # Errors
    ///
    /// [`VpimError::BadRequest`] for an unknown or released tenant, or
    /// whatever `f` returns.
    pub fn with_vm<T>(
        &self,
        tenant: &str,
        f: impl FnOnce(&VpimVm) -> Result<T, VpimError>,
    ) -> Result<T, VpimError> {
        let entry = self.entry(tenant)?;
        let _ord = ordered(LockLevel::Fleet, 1);
        let state = entry.state.lock();
        let Some(state) = state.as_ref() else {
            return Err(VpimError::BadRequest(format!("tenant {tenant} released")));
        };
        f(&state.vm)
    }

    /// Releases a tenant: frees its ranks on its home host, expedites the
    /// manager sweep there, and drops its placement.
    ///
    /// # Errors
    ///
    /// [`VpimError::BadRequest`] for an unknown tenant.
    pub fn release(&self, tenant: &str) -> Result<(), VpimError> {
        let entry = {
            let _ord = ordered(LockLevel::Fleet, 0);
            self.tenants.lock().remove(tenant)
        }
        .ok_or_else(|| VpimError::BadRequest(format!("unknown tenant {tenant}")))?;
        let taken = {
            let _ord = ordered(LockLevel::Fleet, 1);
            entry.state.lock().take()
        };
        let Some(state) = taken else { return Ok(()) };
        let TenantState { vm, spec, host } = state;
        let _ = vm.release_all();
        drop(vm);
        self.hosts[host].system().sync_ranks();
        {
            let _ord = ordered(LockLevel::Placement, 0);
            self.placement.lock().release(tenant, host, spec.n_devices());
        }
        self.metrics.live.sub(1);
        Ok(())
    }

    /// The tenant's current home, if placed.
    #[must_use]
    pub fn host_of(&self, tenant: &str) -> Option<usize> {
        let _ord = ordered(LockLevel::Placement, 0);
        self.placement.lock().home_of(tenant)
    }

    /// Committed live ranks on `host` (reservations included).
    #[must_use]
    pub fn live_ranks(&self, host: usize) -> usize {
        let _ord = ordered(LockLevel::Placement, 0);
        self.placement.lock().live_ranks(host)
    }

    /// Placement capacity of `host`.
    #[must_use]
    pub fn capacity(&self, host: usize) -> usize {
        let _ord = ordered(LockLevel::Placement, 0);
        self.placement.lock().capacity(host)
    }

    /// Every (tenant, home) pair, sorted by tenant.
    #[must_use]
    pub fn placements(&self) -> Vec<(String, usize)> {
        let _ord = ordered(LockLevel::Placement, 0);
        self.placement.lock().placements()
    }

    /// Releases every tenant and consumes the fleet (the hosts' manager
    /// daemons stop when their systems drop).
    pub fn shutdown(self) {
        let tenants: Vec<String> = {
            let _ord = ordered(LockLevel::Fleet, 0);
            self.tenants.lock().keys().cloned().collect()
        };
        for t in tenants {
            let _ = self.release(&t);
        }
    }

    // ------------------------------------------------------------------
    // Fleet-level load harness.
    // ------------------------------------------------------------------

    /// The pure per-session host assignment the load harness uses:
    /// round-robin over the hosts. A function of `n` only — never of
    /// runtime load — so fleet reports are seed-stable.
    #[must_use]
    pub fn session_assignment(&self, n: usize) -> Vec<usize> {
        (0..n).map(|i| i % self.hosts.len()).collect()
    }

    /// Runs `spec` × `mix` across the fleet and reports. Sessions are
    /// assigned to hosts by [`session_assignment`](Self::session_assignment),
    /// executed through each host's real launch path (phase A), and
    /// replayed through per-host virtual queues (phase B) — same two-phase
    /// scheme as the single-host [`LoadHarness`](crate::load::LoadHarness),
    /// same invariant: **same seed ⇒ bit-identical [`FleetLoadReport`]**
    /// across execution modes, dispatch modes, and thread counts.
    #[must_use]
    pub fn load_run(&self, spec: &LoadSpec, mix: &TenantMix) -> FleetLoadReport {
        let n = spec.n_sessions();
        let m = self.hosts.len();
        let assignment = self.session_assignment(n);
        let arrivals: Vec<u64> =
            spec.arrival_process().times(spec.seed(), n).iter().map(|t| t.as_nanos()).collect();

        // Phase A: run every session against its assigned host.
        let fleet_ranks = self.hosts.iter().map(FleetHost::rank_count).sum::<usize>();
        let runs = run_sessions(spec, mix, fleet_ranks.min(8), |i| {
            self.hosts[assignment[i]].system()
        });

        // Phase B: an independent virtual queue per host.
        let session_hist = VtHistogram::new();
        let mut completed = 0u64;
        let mut giveups = 0u64;
        let mut launch_failures = 0u64;
        let mut ops_run = 0u64;
        let mut op_failures = 0u64;
        let mut checksum = 0u64;
        let mut makespan = 0u64;
        // Every host's queue steps, for the fleet-wide concurrency peak.
        let mut events = Vec::with_capacity(n * 3);
        let mut per_host = Vec::with_capacity(m);
        for h in 0..m {
            let idx: Vec<usize> = (0..n).filter(|&i| assignment[i] == h).collect();
            let servers = match spec.server_count() {
                0 => self.hosts[h].rank_count(),
                s => s,
            };
            let patience = spec.patience_limit().map(|p| p.as_nanos());
            let g = serve_group(&idx, &arrivals, &runs, servers, patience, |_, _, _| {});
            completed += g.completed;
            giveups += g.queue.giveups;
            launch_failures += g.launch_failures;
            ops_run += g.ops_run;
            op_failures += g.op_failures;
            checksum = checksum.wrapping_add(g.checksum);
            makespan = makespan.max(g.queue.makespan_ns);
            session_hist.merge_from(&g.sojourn);
            events.extend_from_slice(&g.queue.events);
            per_host.push(HostLoad {
                host: h as u64,
                sessions: idx.len() as u64,
                completed: g.completed,
                giveups: g.queue.giveups,
                launch_failures: g.launch_failures,
                checksum: g.checksum,
                makespan: VirtualNanos::from_nanos(g.queue.makespan_ns),
                session_latency: LatencySummary::of(&g.sojourn),
            });
        }
        let (peak, _) = peaks(&mut events);

        let horizon = arrivals.last().copied().unwrap_or(0);
        let report = FleetLoadReport {
            seed: spec.seed(),
            hosts: m as u64,
            sessions: n as u64,
            completed,
            giveups,
            launch_failures,
            ops_run,
            op_failures,
            checksum,
            peak_concurrent: peak,
            horizon: VirtualNanos::from_nanos(horizon),
            makespan: VirtualNanos::from_nanos(makespan),
            offered_mps: rate_milli_per_sec(n as u64, horizon),
            sustained_mps: rate_milli_per_sec(completed, makespan),
            consolidation_milli: completed.saturating_mul(1000) / m as u64,
            session_latency: LatencySummary::of(&session_hist),
            per_host,
        };

        // Fleet-registry mirror (observability only; the report is the
        // determinism oracle).
        self.registry.histogram("cluster.load.session.latency").merge_from(&session_hist);
        self.registry.counter("cluster.load.sessions.offered").add(report.sessions);
        self.registry.counter("cluster.load.sessions.completed").add(report.completed);
        report
    }
}

/// One host's slice of a [`FleetLoadReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostLoad {
    /// The host index.
    pub host: u64,
    /// Sessions assigned here.
    pub sessions: u64,
    /// Sessions served to completion here.
    pub completed: u64,
    /// Sessions that gave up waiting here.
    pub giveups: u64,
    /// Sessions whose VM never launched here.
    pub launch_failures: u64,
    /// Commutative fold of this host's served checksums.
    pub checksum: u64,
    /// Virtual time of this host's last departure.
    pub makespan: VirtualNanos,
    /// Sojourn latency of this host's served sessions.
    pub session_latency: LatencySummary,
}

/// What a fleet load run measured: the global service-level outcome plus
/// per-host slices and the **consolidation ratio** — served tenants per
/// host (×1000, integer), the figure `BENCH_cluster.json` charts for
/// M = 1, 2, 4 hosts at a p99 bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetLoadReport {
    /// The base seed.
    pub seed: u64,
    /// Hosts in the fleet.
    pub hosts: u64,
    /// Sessions offered.
    pub sessions: u64,
    /// Sessions served to completion fleet-wide.
    pub completed: u64,
    /// Sessions that gave up waiting.
    pub giveups: u64,
    /// Sessions whose VM never launched.
    pub launch_failures: u64,
    /// Ops executed by served sessions.
    pub ops_run: u64,
    /// Ops that returned an error.
    pub op_failures: u64,
    /// Commutative fold of served sessions' checksums.
    pub checksum: u64,
    /// Peak sessions simultaneously in the fleet (virtual time).
    pub peak_concurrent: u64,
    /// Virtual time of the last arrival.
    pub horizon: VirtualNanos,
    /// Virtual time of the last departure on any host.
    pub makespan: VirtualNanos,
    /// Offered load, milli-sessions per virtual second.
    pub offered_mps: u64,
    /// Sustained fleet throughput over the makespan.
    pub sustained_mps: u64,
    /// Served tenants per host, ×1000 (integer consolidation ratio).
    pub consolidation_milli: u64,
    /// Fleet-wide sojourn latency.
    pub session_latency: LatencySummary,
    /// Per-host slices, in host order.
    pub per_host: Vec<HostLoad>,
}

impl FleetLoadReport {
    /// Canonical JSON: fixed key order, integer-only values, no
    /// whitespace — equal reports serialize to identical bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .num("seed", self.seed)
            .num("hosts", self.hosts)
            .num("sessions", self.sessions)
            .num("completed", self.completed)
            .num("giveups", self.giveups)
            .num("launch_failures", self.launch_failures)
            .num("ops_run", self.ops_run)
            .num("op_failures", self.op_failures)
            .num("checksum", self.checksum)
            .num("peak_concurrent", self.peak_concurrent)
            .num("horizon_ns", self.horizon.as_nanos())
            .num("makespan_ns", self.makespan.as_nanos())
            .num("offered_mps", self.offered_mps)
            .num("sustained_mps", self.sustained_mps)
            .num("consolidation_milli", self.consolidation_milli)
            .obj("session_latency", self.session_latency.json())
            .arr(
                "per_host",
                self.per_host.iter().map(|h| {
                    JsonObject::new()
                        .num("host", h.host)
                        .num("sessions", h.sessions)
                        .num("completed", h.completed)
                        .num("giveups", h.giveups)
                        .num("launch_failures", h.launch_failures)
                        .num("checksum", h.checksum)
                        .num("makespan_ns", h.makespan.as_nanos())
                        .obj("session_latency", h.session_latency.json())
                }),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet(hosts: usize) -> Fleet {
        Fleet::start(FleetSpec::new(hosts).policy(PlacementPolicy::FirstFit))
    }

    #[test]
    fn launch_places_and_release_frees() {
        let fleet = small_fleet(2);
        // PimConfig::small has 2 ranks per host.
        assert_eq!(fleet.capacity(0), 2);
        assert_eq!(fleet.launch(TenantSpec::new("a").mem_mib(16)).unwrap(), 0);
        assert_eq!(fleet.launch(TenantSpec::new("b").mem_mib(16)).unwrap(), 0);
        assert_eq!(fleet.launch(TenantSpec::new("c").mem_mib(16)).unwrap(), 1);
        assert_eq!(fleet.live_ranks(0), 2);
        assert_eq!(fleet.placements().len(), 3);
        // Duplicate tags are refused before touching any host.
        assert!(matches!(
            fleet.launch(TenantSpec::new("a")),
            Err(VpimError::BadRequest(_))
        ));
        fleet.release("a").unwrap();
        assert_eq!(fleet.live_ranks(0), 1);
        assert!(fleet.host_of("a").is_none());
        assert!(matches!(fleet.release("a"), Err(VpimError::BadRequest(_))));
        fleet.shutdown();
    }

    #[test]
    fn full_fleet_rejects_with_telemetry() {
        let fleet = small_fleet(1);
        fleet.launch(TenantSpec::new("a").devices(2).mem_mib(16)).unwrap();
        assert!(matches!(
            fleet.launch(TenantSpec::new("b").mem_mib(16)),
            Err(VpimError::NoRankAvailable)
        ));
        assert_eq!(fleet.registry().snapshot().count("cluster.place.rejected"), 1);
        fleet.shutdown();
    }

    #[test]
    fn with_vm_reaches_the_home_host() {
        let fleet = small_fleet(2);
        fleet.launch(TenantSpec::new("a").mem_mib(16)).unwrap();
        let out = fleet
            .with_vm("a", |vm| {
                vm.frontend(0).write_rank(&[(0, 0, &[9u8; 128])])?;
                let (data, _) = vm.frontend(0).read_rank(&[(0, 0, 128)])?;
                Ok(data[0][0])
            })
            .unwrap();
        assert_eq!(out, 9);
        assert!(matches!(
            fleet.with_vm("nobody", |_| Ok(())),
            Err(VpimError::BadRequest(_))
        ));
        fleet.shutdown();
    }

    #[test]
    fn session_assignment_is_round_robin() {
        let fleet = small_fleet(3);
        assert_eq!(fleet.session_assignment(6), vec![0, 1, 2, 0, 1, 2]);
        fleet.shutdown();
    }
}
