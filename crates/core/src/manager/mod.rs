//! The vPIM manager (§3.5).
//!
//! One manager runs per host. It owns the rank-sharing policy:
//!
//! * a **rank table** tracking every rank's state — `ALLO` (allocated),
//!   `NAAV` (not allocated, available) or `NANA` (not allocated, not
//!   available: awaiting content reset) — Fig. 5;
//! * an **allocation strategy**: prefer a `NANA` rank previously used by
//!   the same requester (skips the reset), else a `NAAV` rank by
//!   round-robin, else wait for a `NANA` reset to finish, else retry with a
//!   configurable timeout up to a configurable attempt count, then abandon;
//!   requests are served FIFO by a thread pool (8 threads in the paper);
//! * an **observer thread** that watches the driver's sysfs rank-status
//!   files: VMs do *not* tell the manager when they release a rank — the
//!   observer detects the release, moves the rank to `NANA` and triggers
//!   the content-reset worker (~597 ms per 4 GiB rank), after which the
//!   rank becomes `NAAV`;
//! * seamless coexistence with **native host applications**: a rank claimed
//!   directly through the driver shows up in sysfs and is marked `ALLO` by
//!   the observer, so the manager never double-allocates it.

pub mod reference;
pub mod table;

pub use table::{AllocOutcome, ManagerStats, RankState, RANK_SHARDS};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use simkit::{CostModel, FaultPlane, InjectCell, VirtualNanos};
use upmem_driver::UpmemDriver;

use crate::error::VpimError;
use table::TableState;

/// Fault point for manager RPCs ([`ManagerClient::alloc`],
/// [`ManagerClient::sync`], [`ManagerClient::mark_ckpt`]): firing makes
/// the call fail typed (or, for the fire-and-wait `sync`, skip the sweep)
/// before reaching the manager — the simulated analogue of a dropped
/// domain-socket message. Counter-based across all RPC kinds.
pub const MANAGER_RPC_POINT: &str = "manager.rpc";

/// Tuning knobs of the manager (§3.5 defaults).
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Worker threads serving allocation requests (paper: 8).
    pub pool_threads: usize,
    /// How long one allocation attempt waits before retrying.
    pub retry_timeout: Duration,
    /// Attempts before a request is abandoned.
    pub max_attempts: usize,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            pool_threads: 8,
            retry_timeout: Duration::from_millis(200),
            max_attempts: 5,
        }
    }
}

enum Msg {
    Alloc { owner: String, reply: Sender<Result<AllocOutcome, VpimError>> },
    /// One synchronous observe-and-reset sweep (scheduler: expedite rank
    /// recycling after a preemption instead of waiting for the observer).
    Sync { reply: Sender<()> },
    /// Flip an `ALLO` rank to `CKPT` (scheduler checkpointed its owner).
    MarkCkpt { rank: usize, reply: Sender<bool> },
    Stop,
}

/// A cheap handle for sending requests to the manager (the "UNIX domain
/// socket" client side).
#[derive(Debug, Clone)]
pub struct ManagerClient {
    tx: Sender<Msg>,
    /// Shared across clones (`Arc`), so installing a plane on the manager
    /// covers every client handed out before or after.
    inject: Arc<InjectCell>,
}

impl ManagerClient {
    /// Requests a rank for `owner`, blocking until the manager decides.
    ///
    /// # Errors
    ///
    /// [`VpimError::NoRankAvailable`] after all attempts,
    /// [`VpimError::ManagerDown`] if the manager stopped, or a typed
    /// [`VpimError::Injected`] when [`MANAGER_RPC_POINT`] fires.
    pub fn alloc(&self, owner: &str) -> Result<AllocOutcome, VpimError> {
        if self.inject.hit(MANAGER_RPC_POINT) {
            return Err(VpimError::Injected { point: MANAGER_RPC_POINT });
        }
        let (reply_tx, reply_rx) = unbounded();
        self.tx
            .send(Msg::Alloc { owner: owner.to_string(), reply: reply_tx })
            .map_err(|_| VpimError::ManagerDown)?;
        reply_rx.recv().map_err(|_| VpimError::ManagerDown)?
    }

    /// Runs one synchronous observe-and-reset sweep in the manager and
    /// waits for it: released ranks become `NANA`, then reset to `NAAV`,
    /// before this returns. A no-op result if the manager stopped, or if
    /// [`MANAGER_RPC_POINT`] fires (the sweep is skipped — callers already
    /// tolerate the observer being late, so this degrades gracefully).
    pub fn sync(&self) {
        if self.inject.hit(MANAGER_RPC_POINT) {
            return;
        }
        let (reply_tx, reply_rx) = unbounded();
        if self.tx.send(Msg::Sync { reply: reply_tx }).is_ok() {
            let _ = reply_rx.recv();
        }
    }

    /// Marks `rank` as checkpointed (`ALLO → CKPT`); returns whether the
    /// transition happened.
    ///
    /// # Errors
    ///
    /// [`VpimError::ManagerDown`] if the manager stopped, or a typed
    /// [`VpimError::Injected`] when [`MANAGER_RPC_POINT`] fires.
    pub fn mark_ckpt(&self, rank: usize) -> Result<bool, VpimError> {
        if self.inject.hit(MANAGER_RPC_POINT) {
            return Err(VpimError::Injected { point: MANAGER_RPC_POINT });
        }
        let (reply_tx, reply_rx) = unbounded();
        self.tx
            .send(Msg::MarkCkpt { rank, reply: reply_tx })
            .map_err(|_| VpimError::ManagerDown)?;
        reply_rx.recv().map_err(|_| VpimError::ManagerDown)
    }
}

/// The running manager daemon.
pub struct Manager {
    client: ManagerClient,
    state: Arc<TableState>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    tx: Sender<Msg>,
    cfg: ManagerConfig,
}

impl std::fmt::Debug for Manager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manager")
            .field("threads", &self.threads.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Manager {
    /// Starts the manager on a host: spawns the worker pool, the sysfs
    /// observer and the reset worker. Telemetry goes into a private
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
            TableState::new(driver.clone(), cm)
                .with_transition_counter(registry.counter("manager.rank_state.transitions")),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx): (Sender<Msg>, Receiver<Msg>) = unbounded();
        let (reset_tx, reset_rx) = unbounded::<usize>();

        let mut threads = Vec::new();
        // Worker pool (FIFO service of allocation requests).
        for _ in 0..cfg.pool_threads.max(1) {
            let rx = rx.clone();
            let state = Arc::clone(&state);
            let cfg = cfg.clone();
            threads.push(std::thread::spawn(move || loop {
                match rx.recv() {
                    Ok(Msg::Alloc { owner, reply }) => {
                        let result = state.alloc(&owner, cfg.retry_timeout, cfg.max_attempts);
                        let _ = reply.send(result);
                    }
                    Ok(Msg::Sync { reply }) => {
                        state.sync_now();
                        let _ = reply.send(());
                    }
                    Ok(Msg::MarkCkpt { rank, reply }) => {
                        let _ = reply.send(state.mark_ckpt(rank));
                    }
                    Ok(Msg::Stop) | Err(_) => break,
                }
            }));
        }
        // Observer thread: detect releases via sysfs and external claims.
        // The sweep is sharded — each board rank group is snapshotted and
        // reconciled independently, so a sweep never holds more than one
        // board shard and one table shard at a time.
        {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let reset_tx = reset_tx.clone();
            let driver = driver.clone();
            threads.push(std::thread::spawn(move || {
                let mut seen = driver.sysfs().generation();
                while !stop.load(Ordering::Relaxed) {
                    seen = driver
                        .sysfs()
                        .wait_for_change(seen, Duration::from_millis(50));
                    let board = driver.sysfs();
                    for group in 0..board.shard_count() {
                        let Some((base, entries)) = board.snapshot_group(group) else {
                            continue;
                        };
                        for rank in state.sync_group_sweep(base, &entries) {
                            let _ = reset_tx.send(rank);
                        }
                    }
                }
            }));
        }
        // Reset worker: erase released ranks (NANA → NAAV).
        {
            let state = Arc::clone(&state);
            threads.push(std::thread::spawn(move || {
                while let Ok(rank) = reset_rx.recv() {
                    if rank == usize::MAX {
                        break; // shutdown sentinel
                    }
                    state.reset_rank(rank);
                }
            }));
        }
        let client = ManagerClient { tx: tx.clone(), inject: Arc::new(InjectCell::new()) };
        // Keep a sender for the reset channel alive in state for shutdown.
        state.set_reset_sender(reset_tx);
        Manager { client, state, stop, threads, tx, cfg }
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
        self.state.states()
    }

    /// Aggregate statistics (allocations, resets, virtual reset time).
    #[must_use]
    pub fn stats(&self) -> ManagerStats {
        self.state.stats()
    }

    /// Rank state-machine edges walked (NAAV↔ALLO↔NANA, Fig. 5).
    #[must_use]
    pub fn state_transitions(&self) -> u64 {
        self.state.transitions()
    }

    /// The modeled duration of one allocation round trip when a NAAV rank
    /// is immediately available (§4.2: ~36 ms).
    #[must_use]
    pub fn alloc_cost(&self) -> VirtualNanos {
        self.state.alloc_cost()
    }

    /// Stops every manager thread and waits for them.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for _ in 0..self.cfg.pool_threads.max(1) {
            let _ = self.tx.send(Msg::Stop);
        }
        self.state.shutdown();
        // Wake the observer (a claim/release bump would also do it; the
        // wait has a 50 ms timeout so it exits promptly).
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Synchronizes the table with sysfs immediately (test hook; the
    /// observer thread does this continuously).
    pub fn sync_now(&self) {
        self.state.sync_now();
    }

    /// Blocks until `rank` reaches `want` (up to `timeout`); returns
    /// whether it did. Condvar-backed: every table transition wakes the
    /// waiter, so this replaces sleep-poll loops in tests and tooling.
    #[must_use]
    pub fn wait_for_state(&self, rank: usize, want: RankState, timeout: Duration) -> bool {
        self.state.wait_for_state(rank, want, timeout)
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
                ..ManagerConfig::default()
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
            h.write_dpu(0, 0, &[0xAB; 64]).unwrap();
            drop(h); // release: sysfs flips, observer must notice
        }
        // Wait until the reset pipeline brings the rank back to NAAV.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let st = mgr.rank_states();
            if st[a.rank] == RankState::Naav {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "rank never reset: {st:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
        // Content was erased.
        let rank = driver.machine().rank(a.rank).unwrap();
        let mut buf = [1u8; 64];
        rank.read_dpu(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
        assert!(mgr.stats().resets >= 1);
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
            h.write_dpu(0, 0, &[7; 8]).unwrap();
            drop(h);
        }
        // Re-request quickly from the same owner; if the rank is still in
        // NANA the manager hands it back without resetting. (Timing-
        // dependent: the reset worker may win the race, in which case the
        // allocation is a normal NAAV one — both are valid outcomes.)
        let again = c.alloc("vm-a").unwrap();
        if again.rank == a.rank && again.reused {
            // Reuse path: content must still be there (no reset happened).
            let h = driver.open_perf(again.rank, "vm-a").unwrap();
            let mut buf = [0u8; 8];
            h.read_dpu(0, 0, &mut buf).unwrap();
            assert_eq!(buf, [7; 8]);
        }
        mgr.shutdown();
    }

    #[test]
    fn native_app_claims_are_respected() {
        let (driver, mgr) = host();
        // A native host application claims rank 0 directly.
        let _native = driver.open_perf(0, "native:checksum").unwrap();
        // Deterministically propagate sysfs -> table (the observer thread
        // does this continuously; the hook avoids timing sensitivity).
        mgr.sync_now();
        let c = mgr.client();
        // Both VM allocations must avoid rank 0.
        let a = c.alloc("vm-a").unwrap();
        assert_ne!(a.rank, 0);
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
}
