//! The vPIM manager (§3.5).
//!
//! One manager runs per host. It owns the rank-sharing policy:
//!
//! * a **rank table** tracking every rank's state — `ALLO` (allocated),
//!   `NAAV` (not allocated, available) or `NANA` (not allocated, not
//!   available: awaiting content reset) — Fig. 5;
//! * an **allocation strategy**: every request first sweeps the driver's
//!   sysfs rank-status files, then prefers a `NANA` rank previously used
//!   by the same requester (skips the reset), else a `NAAV` rank by
//!   round-robin; a request that finds nothing waits for the next sysfs
//!   change and sweeps again, within one wall budget of `retry_timeout ×
//!   max_attempts`, then abandons;
//! * **release detection** through sysfs alone: VMs do *not* tell the
//!   manager when they release a rank — the sweep sees the release, moves
//!   the rank to `NANA` and erases its content (~597 ms per 4 GiB rank),
//!   after which the rank becomes `NAAV`;
//! * seamless coexistence with **native host applications**: a rank claimed
//!   directly through the driver shows up in sysfs and the next sweep
//!   marks it `ALLO`, so the manager never double-allocates it.
//!
//! The paper's manager is a daemon: requests arrive over a UNIX domain
//! socket and are served FIFO by an 8-thread pool, and an observer thread
//! watches sysfs. Here that transport is two things and no code: its
//! **cost** is the cost model's `manager_alloc` constant (~36 ms, charged
//! in virtual time to every grant), and its **failure mode** is the
//! [`MANAGER_RPC_POINT`] fault point (a dropped message). A
//! [`ManagerClient`] call runs the table operation on the caller's own
//! thread, sweep included — the table's own lock already serialises its
//! callers — so the manager owns no thread, and the table moves only when
//! a caller asks it to.

pub mod table;

pub use table::{AllocOutcome, ManagerStats, RankState};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use simkit::{CostModel, FaultPlane, InjectCell, VirtualNanos};
use upmem_driver::UpmemDriver;

use crate::error::VpimError;
use table::TableState;

/// Fault point for manager RPCs ([`ManagerClient::alloc`],
/// [`ManagerClient::probe`], [`ManagerClient::mark_ckpt`]): firing makes
/// the call fail typed before reaching the table — the simulated analogue
/// of a dropped domain-socket message. Counter-based across all RPC kinds.
pub const MANAGER_RPC_POINT: &str = "manager.rpc";

/// Tuning knobs of the manager (§3.5 defaults): a dedicated-mode
/// [`ManagerClient::alloc`] whose sweep found nothing waits for sysfs
/// changes at most `retry_timeout × max_attempts` of wall time in all
/// (1 s), then is abandoned. [`ManagerClient::probe`] never waits.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// The paper's per-attempt wait; one factor of the request's budget.
    pub retry_timeout: Duration,
    /// The paper's attempt count; the other factor of the budget.
    pub max_attempts: usize,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig { retry_timeout: Duration::from_millis(200), max_attempts: 5 }
    }
}

/// A cheap handle for issuing requests to the manager (the "UNIX domain
/// socket" client side). Every call runs on the caller's thread.
#[derive(Debug, Clone)]
pub struct ManagerClient {
    state: Arc<TableState>,
    cfg: ManagerConfig,
    /// Set by [`Manager::shutdown`]; a client kept past it gets
    /// [`VpimError::ManagerDown`].
    stop: Arc<AtomicBool>,
    /// Shared across clones (`Arc`), so installing a plane on the manager
    /// covers every client handed out before or after.
    inject: Arc<InjectCell>,
}

impl ManagerClient {
    /// The checks every RPC starts with: the fault point first (a message
    /// dropped on the way never learns the daemon is gone), then the stop
    /// flag.
    fn rpc(&self) -> Result<(), VpimError> {
        if self.inject.hit(MANAGER_RPC_POINT) {
            return Err(VpimError::Injected { point: MANAGER_RPC_POINT });
        }
        if self.stop.load(Ordering::Acquire) {
            return Err(VpimError::ManagerDown);
        }
        Ok(())
    }

    /// Requests a rank for `owner`, blocking until the manager decides.
    ///
    /// # Errors
    ///
    /// [`VpimError::NoRankAvailable`] after all attempts,
    /// [`VpimError::ManagerDown`] if the manager stopped, or a typed
    /// [`VpimError::Injected`] when [`MANAGER_RPC_POINT`] fires.
    pub fn alloc(&self, owner: &str) -> Result<AllocOutcome, VpimError> {
        self.rpc()?;
        self.state.alloc(owner, self.cfg.retry_timeout, self.cfg.max_attempts)
    }

    /// Requests a rank for `owner` without waiting (one sweep, one scan):
    /// the oversubscribed queue head's call.
    ///
    /// # Errors
    ///
    /// As [`Self::alloc`].
    pub fn probe(&self, owner: &str) -> Result<AllocOutcome, VpimError> {
        self.rpc()?;
        self.state.alloc(owner, Duration::ZERO, 1)
    }

    /// Marks `rank` as checkpointed (`ALLO → CKPT`); returns whether the
    /// transition happened.
    ///
    /// # Errors
    ///
    /// [`VpimError::ManagerDown`] if the manager stopped, or a typed
    /// [`VpimError::Injected`] when [`MANAGER_RPC_POINT`] fires.
    pub fn mark_ckpt(&self, rank: usize) -> Result<bool, VpimError> {
        self.rpc()?;
        Ok(self.state.mark_ckpt(rank))
    }
}

/// The running manager: the rank table, reached through its clients.
/// It owns no thread.
pub struct Manager {
    client: ManagerClient,
}

impl std::fmt::Debug for Manager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manager").field("stats", &self.stats()).finish()
    }
}

impl Manager {
    /// Starts the manager on a host: builds the rank table, all `NAAV`
    /// until the first sweep reads sysfs. Telemetry goes into a private
    /// registry; use [`Self::start_with_registry`] to publish it.
    #[must_use]
    pub fn start(driver: Arc<UpmemDriver>, cm: CostModel, cfg: ManagerConfig) -> Self {
        Self::start_with_registry(driver, cm, cfg, &simkit::MetricsRegistry::new())
    }

    /// [`start`](Self::start), with the rank state machine's transition
    /// count published into `registry` as `manager.rank_state.transitions`.
    #[must_use]
    pub fn start_with_registry(
        driver: Arc<UpmemDriver>,
        cm: CostModel,
        cfg: ManagerConfig,
        registry: &simkit::MetricsRegistry,
    ) -> Self {
        let state = Arc::new(
            TableState::new(driver, cm)
                .with_transition_counter(registry.counter("manager.rank_state.transitions")),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let client = ManagerClient { state, cfg, stop, inject: Arc::new(InjectCell::new()) };
        Manager { client }
    }

    /// A client handle for issuing requests.
    #[must_use]
    pub fn client(&self) -> ManagerClient {
        self.client.clone()
    }

    /// Installs the fault-injection plane consulted by every client's RPCs
    /// ([`MANAGER_RPC_POINT`]). The cell is shared through `Arc`, so
    /// clients cloned *before* this call are covered too.
    pub fn install_fault_plane(&self, plane: Arc<FaultPlane>) {
        self.client.inject.install(plane);
    }

    /// Current state of every rank (diagnostics / figures).
    #[must_use]
    pub fn rank_states(&self) -> Vec<RankState> {
        self.client.state.states()
    }

    /// Aggregate statistics (allocations, resets, virtual reset time).
    #[must_use]
    pub fn stats(&self) -> ManagerStats {
        self.client.state.stats()
    }

    /// Rank state-machine edges walked (NAAV↔ALLO↔NANA, Fig. 5).
    #[must_use]
    pub fn state_transitions(&self) -> u64 {
        self.client.state.transitions()
    }

    /// The modeled duration of one allocation round trip when a NAAV rank
    /// is immediately available (§4.2: ~36 ms).
    #[must_use]
    pub fn alloc_cost(&self) -> VirtualNanos {
        self.client.state.alloc_cost()
    }

    /// Stops the manager: clients kept past this get
    /// [`VpimError::ManagerDown`].
    pub fn shutdown(&self) {
        self.client.stop.store(true, Ordering::Release);
    }

    /// Runs one sweep now: every rank released so far is reset and
    /// `NAAV`, every native claim `ALLO`, when this returns. A request
    /// sweeps on its own; this is for callers that read the table.
    pub fn sync_now(&self) {
        self.client.state.sync_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upmem_sim::{PimConfig, PimMachine};

    fn host() -> (Arc<UpmemDriver>, Manager) {
        let driver = Arc::new(UpmemDriver::new(PimMachine::new(PimConfig::small())));
        let mgr = Manager::start(driver.clone(), CostModel::default(), ManagerConfig::default());
        (driver, mgr)
    }

    #[test]
    fn allocates_distinct_ranks() {
        let (driver, mgr) = host();
        let c = mgr.client();
        let a = c.alloc("vm-a").unwrap();
        let b = c.alloc("vm-b").unwrap();
        assert_ne!(a.rank, b.rank);
        // Both claimed through the driver now succeed.
        let _ha = driver.open_perf(a.rank, "vm-a").unwrap();
        let _hb = driver.open_perf(b.rank, "vm-b").unwrap();
        mgr.shutdown();
    }

    #[test]
    fn exhaustion_abandons_request() {
        let (_driver, mgr) = {
            let driver = Arc::new(UpmemDriver::new(PimMachine::new(PimConfig::small())));
            let cfg = ManagerConfig {
                retry_timeout: Duration::from_millis(5),
                max_attempts: 2,
            };
            let mgr = Manager::start(driver.clone(), CostModel::default(), cfg);
            (driver, mgr)
        };
        let c = mgr.client();
        let _a = c.alloc("a").unwrap();
        let _b = c.alloc("b").unwrap();
        // Only 2 ranks exist; the third request must be abandoned.
        assert!(matches!(c.alloc("c"), Err(VpimError::NoRankAvailable)));
        mgr.shutdown();
    }

    #[test]
    fn release_is_detected_and_rank_is_reset_then_reusable() {
        let (driver, mgr) = host();
        let c = mgr.client();
        let a = c.alloc("vm-a").unwrap();
        // VM uses the rank: claim it, dirty it, release it.
        {
            let h = driver.open_perf(a.rank, "vm-a").unwrap();
            h.write_mram(0, 0, &[0xAB; 64]).unwrap();
            drop(h); // release: sysfs flips, and nobody tells the manager
        }
        // One sweep sees the release and brings the rank back to NAAV.
        mgr.sync_now();
        assert_eq!(mgr.rank_states()[a.rank], RankState::Naav);
        // Content was erased.
        let rank = driver.machine().rank(a.rank).unwrap();
        let mut buf = [1u8; 64];
        rank.read_mram(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
        assert_eq!(mgr.stats().resets, 1);
        // And it can be allocated again.
        let b = c.alloc("vm-b").unwrap();
        let _ = b;
        mgr.shutdown();
    }

    #[test]
    fn nana_rank_reuses_without_reset_for_previous_owner() {
        let (driver, mgr) = host();
        let c = mgr.client();
        let a = c.alloc("vm-a").unwrap();
        assert!(!a.reused);
        {
            let h = driver.open_perf(a.rank, "vm-a").unwrap();
            h.write_mram(0, 0, &[7; 8]).unwrap();
            drop(h);
        }
        // Re-request at once from the same owner: the request's own sweep
        // sees the release first and erases the rank, so it comes back
        // reset. (NANA reuse is reached through `sync_with_sysfs`; see
        // `table::tests::nana_reuse_skips_reset`.)
        let again = c.alloc("vm-a").unwrap();
        assert!(!again.reused);
        assert_eq!(mgr.stats().resets, 1);
        let h = driver.open_perf(a.rank, "vm-a").unwrap();
        let mut buf = [1u8; 8];
        h.read_mram(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [0; 8]);
        mgr.shutdown();
    }

    #[test]
    fn native_app_claims_are_respected() {
        let (driver, mgr) = host();
        // A native host application claims rank 0 directly; nobody tells
        // the manager.
        let _native = driver.open_perf(0, "native:checksum").unwrap();
        let c = mgr.client();
        // The VM allocation's own sweep sees the claim and avoids rank 0.
        let a = c.alloc("vm-a").unwrap();
        assert_ne!(a.rank, 0);
        assert_eq!(mgr.rank_states(), vec![RankState::Allo; 2]);
        mgr.shutdown();
    }

    #[test]
    fn stats_track_allocations() {
        let (_driver, mgr) = host();
        let c = mgr.client();
        let _ = c.alloc("x").unwrap();
        assert_eq!(mgr.stats().allocations, 1);
        assert_eq!(mgr.alloc_cost().as_millis(), 36);
        mgr.shutdown();
    }

    #[test]
    fn table_calls_never_queue_behind_parked_allocs() {
        // Nine requests park on a full 2-rank machine — one more than the
        // paper's pool has threads. `mark_ckpt` and a sweep must still
        // return at once, and as ranks are released every parked request is
        // served in turn (none abandoned).
        let driver = Arc::new(UpmemDriver::new(PimMachine::new(PimConfig::small())));
        let cfg = ManagerConfig { retry_timeout: Duration::from_secs(3), max_attempts: 1000 };
        let mgr = Manager::start(driver.clone(), CostModel::default(), cfg);
        let c = mgr.client();
        let a = c.alloc("a").unwrap();
        let b = c.alloc("b").unwrap();
        let held_a = driver.open_perf(a.rank, "a").unwrap();
        let held_b = driver.open_perf(b.rank, "b").unwrap();
        let start = std::sync::Barrier::new(10);
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..9)
                .map(|i| {
                    let (c, driver, start) = (&c, &driver, &start);
                    s.spawn(move || {
                        let owner = format!("w{i}");
                        start.wait();
                        let got = c.alloc(&owner)?;
                        // Claim and release, so the rank cycles on. The
                        // claim is held a moment, so the other requests
                        // are parked when the release comes: only a sysfs
                        // wait sees it, as nothing sweeps behind them.
                        let held = driver.open_perf(got.rank, &owner).unwrap();
                        std::thread::sleep(Duration::from_millis(10));
                        drop(held);
                        Ok::<_, VpimError>(got.rank)
                    })
                })
                .collect();
            start.wait();
            let t = std::time::Instant::now();
            assert!(c.mark_ckpt(b.rank).unwrap());
            mgr.sync_now();
            assert!(t.elapsed() < Duration::from_secs(1), "queued behind parked allocs");
            drop(held_a); // a parked request's sweep recycles rank a
            for w in waiters {
                assert_eq!(w.join().unwrap().unwrap(), a.rank);
            }
        });
        assert_eq!(mgr.stats().abandoned, 0);
        drop(held_b);
        mgr.shutdown();
    }

    #[test]
    fn client_kept_past_shutdown_sees_manager_down() {
        let (driver, mgr) = host();
        let c = mgr.client();
        mgr.shutdown();
        assert!(matches!(c.alloc("late"), Err(VpimError::ManagerDown)));
        assert!(matches!(c.mark_ckpt(0), Err(VpimError::ManagerDown)));
        assert!(matches!(c.probe("late"), Err(VpimError::ManagerDown)));
        // A refused request never reached the table, so it did not sweep:
        // an external claim stays unobserved.
        let _native = driver.open_perf(0, "native:late").unwrap();
        assert!(matches!(c.alloc("later"), Err(VpimError::ManagerDown)));
        assert_eq!(c.state.state_of(0), Some(RankState::Naav));
        assert_eq!(c.state.stats().allocations, 0);
    }

    #[test]
    fn a_started_manager_runs_no_thread() {
        let (_driver, mgr) = host();
        // A thread of the manager's would share the table; only the
        // manager's own client holds it.
        assert_eq!(Arc::strong_count(&mgr.client.state), 1);
        mgr.shutdown();
    }

    #[test]
    fn rpc_fault_fails_typed_before_reaching_the_table() {
        let (_driver, mgr) = host();
        let c = mgr.client();
        let plane = Arc::new(FaultPlane::new(7));
        plane.arm(MANAGER_RPC_POINT, simkit::FaultPlan::Nth(1));
        mgr.install_fault_plane(plane);
        assert!(matches!(
            c.alloc("vm"),
            Err(VpimError::Injected { point: MANAGER_RPC_POINT })
        ));
        assert_eq!(mgr.stats().allocations, 0);
        assert_eq!(mgr.rank_states(), vec![RankState::Naav; 2]);
        // The plan is spent: the retry goes through.
        assert_eq!(c.alloc("vm").unwrap().rank, 0);
        assert_eq!(mgr.stats().allocations, 1);
        mgr.shutdown();
    }
}
