//! Firecracker's event loop, in its original and vPIM-optimized forms.
//!
//! §4.2, "Parallel operations handling": in stock Firecracker a single loop
//! handles virtio request events sequentially. vPIM spawns a thread per
//! request, marks the event complete, and lets the worker inject the IRQ
//! when the operation finishes — so requests to different ranks overlap.
//!
//! The manager models both behaviours:
//!
//! * functionally — [`EventManager::kick`] runs the device's notify handler
//!   inline (sequential) or on a persistent worker pool (parallel);
//!   [`EventManager::kick_async`] exposes the split-phase form (dispatch
//!   now, collect completion later) that lets multi-rank `dpu_push_xfer`
//!   kicks genuinely overlap in wall-clock time;
//! * temporally — not here: callers compose per-request virtual durations
//!   with `simkit::sequential` (cumulative sums) or `simkit::parallel`
//!   (the slowest lane), the two curves of Fig. 16.
//!
//! Parallel dispatch never feeds back into virtual time: reported
//! durations come from those composition rules, so sequential and
//! parallel modes return bit-identical results and timings.

use std::sync::Arc;

use simkit::{Counter, FaultPlane, JobHandle, WorkerPool};

use crate::device::{VirtioDevice, VmmError};

/// Dispatch-pool width in parallel mode: one worker per rank of the
/// paper's 8-rank testbed, matching its per-request worker threads.
pub const DISPATCH_WORKERS: usize = 8;

/// The fault point consulted by [`EventManager::kick_async`]: firing
/// *drops* the guest kick — the vmexit is counted, but the device handler
/// never runs and the resulting [`KickHandle`] resolves to
/// [`VmmError::KickDropped`]. Nothing is dispatched, so callers recover by
/// simply re-notifying the queue.
pub const KICK_DROP_POINT: &str = "vmm.kick.drop";

/// How the event loop dispatches virtio request events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// Stock Firecracker: one loop, one request at a time (`vPIM-Seq`).
    Sequential,
    /// vPIM: a dedicated thread per request (`vPIM` with parallel
    /// operation handling).
    Parallel,
}

/// The VMM event loop.
#[derive(Clone)]
pub struct EventManager {
    devices: Vec<Arc<dyn VirtioDevice>>,
    mode: DispatchMode,
    kicks: Counter,
    pool: Option<Arc<WorkerPool>>,
    inject: Option<Arc<FaultPlane>>,
}

/// The receipt for one [`EventManager::kick_async`]: resolves to the
/// device handler's result. Sequential-mode kicks resolve immediately
/// (the handler already ran inline); parallel-mode kicks resolve when the
/// pool worker finishes.
#[derive(Debug)]
pub struct KickHandle {
    inner: KickInner,
}

#[derive(Debug)]
enum KickInner {
    Ready(Result<(), VmmError>),
    Pooled(JobHandle<Result<(), VmmError>>),
}

impl KickHandle {
    /// Blocks until the notification has been fully handled and returns
    /// the handler's result. Handler panics propagate to the waiter.
    pub fn wait(self) -> Result<(), VmmError> {
        match self.inner {
            KickInner::Ready(r) => r,
            KickInner::Pooled(h) => h.wait(),
        }
    }
}

impl std::fmt::Debug for EventManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventManager")
            .field("devices", &self.devices.len())
            .field("mode", &self.mode)
            .field("kicks", &self.kicks.get())
            .finish()
    }
}

impl EventManager {
    /// Creates an event manager in the given dispatch mode. Parallel mode
    /// spawns a persistent [`DISPATCH_WORKERS`]-wide pool shared by every
    /// clone of this manager.
    #[must_use]
    pub fn new(mode: DispatchMode) -> Self {
        Self::with_workers(mode, DISPATCH_WORKERS)
    }

    /// [`new`](Self::new) with an explicit dispatch-pool width (ignored in
    /// sequential mode, which never spawns threads).
    #[must_use]
    pub fn with_workers(mode: DispatchMode, workers: usize) -> Self {
        EventManager {
            devices: Vec::new(),
            mode,
            kicks: Counter::new(),
            pool: match mode {
                DispatchMode::Sequential => None,
                DispatchMode::Parallel => Some(Arc::new(WorkerPool::new(workers))),
            },
            inject: None,
        }
    }

    /// The dispatch mode.
    #[must_use]
    pub fn mode(&self) -> DispatchMode {
        self.mode
    }

    /// Registers a device and returns its index.
    pub fn register(&mut self, device: Arc<dyn VirtioDevice>) -> usize {
        self.devices.push(device);
        self.devices.len() - 1
    }

    /// Registered devices.
    #[must_use]
    pub fn devices(&self) -> &[Arc<dyn VirtioDevice>] {
        &self.devices
    }

    /// Total guest kicks (vmexits) observed.
    #[must_use]
    pub fn kicks(&self) -> u64 {
        self.kicks.get()
    }

    /// Replaces the kick counter (used to install a registry-owned cell,
    /// e.g. `vmm.vmexits`). Existing clones keep the old cell, so install
    /// before handing the manager out.
    pub fn set_kick_counter(&mut self, counter: Counter) {
        self.kicks = counter;
    }

    /// Installs the fault-injection plane; [`kick_async`](Self::kick_async)
    /// then consults [`KICK_DROP_POINT`]. Like
    /// [`set_kick_counter`](Self::set_kick_counter), existing clones keep
    /// the old (absent) plane, so install before handing the manager out.
    pub fn set_fault_plane(&mut self, plane: Arc<FaultPlane>) {
        self.inject = Some(plane);
    }

    /// Dispatches a queue notification for device `idx` and returns a
    /// [`KickHandle`] tracking its completion.
    ///
    /// In [`DispatchMode::Sequential`] the handler runs inline before this
    /// returns (stock Firecracker's single event loop); in
    /// [`DispatchMode::Parallel`] it is enqueued on the persistent worker
    /// pool and this call returns immediately — the paper's event loop
    /// "marks the event complete and lets the worker inject the IRQ". The
    /// *functional* result is identical in both modes; only wall-clock
    /// overlap differs.
    ///
    /// # Errors
    ///
    /// Unknown device index. Handler failures surface from
    /// [`KickHandle::wait`].
    pub fn kick_async(&self, idx: usize, queue: u32) -> Result<KickHandle, VmmError> {
        self.kicks.inc();
        let device = self
            .devices
            .get(idx)
            .ok_or_else(|| VmmError::BadState(format!("no device {idx}")))?
            .clone();
        if let Some(plane) = &self.inject {
            if plane.hit(KICK_DROP_POINT) {
                // Dropped before dispatch: the handler never runs.
                return Ok(KickHandle {
                    inner: KickInner::Ready(Err(VmmError::KickDropped)),
                });
            }
        }
        let inner = match (&self.pool, self.mode) {
            (Some(pool), DispatchMode::Parallel) => {
                KickInner::Pooled(pool.submit(move || device.handle_notify(queue)))
            }
            _ => KickInner::Ready(device.handle_notify(queue)),
        };
        Ok(KickHandle { inner })
    }

    /// Delivers a queue notification for device `idx` and waits for the
    /// handler to finish — [`kick_async`](Self::kick_async) + wait.
    /// Concurrent callers in parallel mode still overlap on the pool.
    ///
    /// # Errors
    ///
    /// Unknown device index or a device handler failure.
    pub fn kick(&self, idx: usize, queue: u32) -> Result<(), VmmError> {
        self.kick_async(idx, queue)?.wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_virtio::mmio::MmioBlock;
    use pim_virtio::{GuestMemory, IrqLine};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    struct Probe {
        mmio: MmioBlock,
        irq: IrqLine,
        notifies: AtomicU32,
    }

    impl Probe {
        fn new() -> Self {
            Probe {
                mmio: MmioBlock::new(42, 2, 512, vec![0; 16]),
                irq: IrqLine::new(33),
                notifies: AtomicU32::new(0),
            }
        }
    }

    impl VirtioDevice for Probe {
        fn tag(&self) -> String {
            "probe".into()
        }
        fn device_id(&self) -> u32 {
            42
        }
        fn mmio(&self) -> &MmioBlock {
            &self.mmio
        }
        fn irq(&self) -> &IrqLine {
            &self.irq
        }
        fn activate(&self, _mem: &GuestMemory) -> Result<(), VmmError> {
            Ok(())
        }
        fn handle_notify(&self, _queue: u32) -> Result<(), VmmError> {
            self.notifies.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn kick_dispatches_in_both_modes() {
        for mode in [DispatchMode::Sequential, DispatchMode::Parallel] {
            let mut mgr = EventManager::new(mode);
            let probe = Arc::new(Probe::new());
            let idx = mgr.register(probe.clone());
            mgr.kick(idx, 0).unwrap();
            mgr.kick(idx, 0).unwrap();
            assert_eq!(probe.notifies.load(Ordering::Relaxed), 2);
            assert_eq!(mgr.kicks(), 2);
        }
    }

    #[test]
    fn unknown_device_errors() {
        let mgr = EventManager::new(DispatchMode::Sequential);
        assert!(mgr.kick(0, 0).is_err());
    }

    struct SlowProbe {
        inner: Probe,
        delay: Duration,
    }

    impl SlowProbe {
        fn new(delay: Duration) -> Self {
            SlowProbe { inner: Probe::new(), delay }
        }
    }

    impl VirtioDevice for SlowProbe {
        fn tag(&self) -> String {
            "slow-probe".into()
        }
        fn device_id(&self) -> u32 {
            43
        }
        fn mmio(&self) -> &MmioBlock {
            &self.inner.mmio
        }
        fn irq(&self) -> &IrqLine {
            &self.inner.irq
        }
        fn activate(&self, _mem: &GuestMemory) -> Result<(), VmmError> {
            Ok(())
        }
        fn handle_notify(&self, _queue: u32) -> Result<(), VmmError> {
            std::thread::sleep(self.delay);
            self.inner.notifies.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    /// Async kicks dispatched before either is awaited overlap end to end:
    /// two slow handlers complete in roughly one handler's wall-clock time.
    #[test]
    fn parallel_kick_async_overlaps_slow_handlers_in_wall_clock() {
        let delay = Duration::from_millis(60);
        let mut par = EventManager::new(DispatchMode::Parallel);
        let a = Arc::new(SlowProbe::new(delay));
        let b = Arc::new(SlowProbe::new(delay));
        let ia = par.register(a.clone());
        let ib = par.register(b.clone());
        let start = std::time::Instant::now();
        let (ha, hb) = (par.kick_async(ia, 0).unwrap(), par.kick_async(ib, 0).unwrap());
        ha.wait().unwrap();
        hb.wait().unwrap();
        let wall = start.elapsed();
        assert!(
            wall < delay * 2,
            "two {delay:?} handlers took {wall:?}: not overlapping"
        );
        assert_eq!(a.inner.notifies.load(Ordering::Relaxed), 1);
        assert_eq!(b.inner.notifies.load(Ordering::Relaxed), 1);

        // Sequential mode really serializes them (Fig. 16's other curve).
        let mut seq = EventManager::new(DispatchMode::Sequential);
        let c = Arc::new(SlowProbe::new(delay));
        let d = Arc::new(SlowProbe::new(delay));
        let ic = seq.register(c.clone());
        let id = seq.register(d.clone());
        let start = std::time::Instant::now();
        let (hc, hd) = (seq.kick_async(ic, 0).unwrap(), seq.kick_async(id, 0).unwrap());
        hc.wait().unwrap();
        hd.wait().unwrap();
        assert!(start.elapsed() >= delay * 2);
    }

    #[test]
    fn sequential_kick_async_resolves_inline() {
        let mut mgr = EventManager::new(DispatchMode::Sequential);
        let probe = Arc::new(Probe::new());
        let idx = mgr.register(probe.clone());
        let h = mgr.kick_async(idx, 0).unwrap();
        // Handler already ran.
        assert_eq!(probe.notifies.load(Ordering::Relaxed), 1);
        h.wait().unwrap();
    }

    #[test]
    fn dropped_kick_never_reaches_the_handler() {
        use simkit::{FaultPlan, FaultPlane};
        for mode in [DispatchMode::Sequential, DispatchMode::Parallel] {
            let mut mgr = EventManager::new(mode);
            let plane = Arc::new(FaultPlane::new(7));
            plane.arm(KICK_DROP_POINT, FaultPlan::Nth(1));
            mgr.set_fault_plane(plane);
            let probe = Arc::new(Probe::new());
            let idx = mgr.register(probe.clone());
            // First kick is dropped: counted as a vmexit, handler unrun.
            let h = mgr.kick_async(idx, 0).unwrap();
            assert!(matches!(h.wait(), Err(VmmError::KickDropped)));
            assert_eq!(probe.notifies.load(Ordering::Relaxed), 0);
            assert_eq!(mgr.kicks(), 1);
            // Re-notifying recovers: Nth(1) is spent.
            mgr.kick(idx, 0).unwrap();
            assert_eq!(probe.notifies.load(Ordering::Relaxed), 1);
        }
    }
}
