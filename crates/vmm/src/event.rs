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
//!   inline (sequential) or on that device's lane (parallel);
//!   [`EventManager::kick_async`] exposes the split-phase form (dispatch
//!   now, collect completion later) that lets multi-rank `dpu_push_xfer`
//!   kicks genuinely overlap in wall-clock time;
//! * temporally — not here: callers compose per-request virtual durations
//!   with `simkit::sequential` (cumulative sums) or `simkit::parallel`
//!   (the slowest lane), the two curves of Fig. 16.
//!
//! A request holds its device's rank for its whole duration, so a VM with
//! *n* devices never has more than *n* handlers making progress. Parallel
//! dispatch therefore follows the devices: a manager with *n* ≥ 2 devices
//! owns *n* lanes — one thread each, serving one device's kicks in kick
//! order — and a manager with one device has nothing to overlap and runs
//! the handler on the kicking thread, exactly as sequential dispatch does.
//! The choice reads only the registered-device count.
//!
//! Parallel dispatch never feeds back into virtual time: reported
//! durations come from those composition rules, so sequential and
//! parallel modes return bit-identical results and timings.

use std::sync::{Arc, OnceLock};

use simkit::{Counter, FaultPlane, JobHandle, WorkerPool};

use crate::device::{VirtioDevice, VmmError};

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
    /// vPIM: requests leave the loop's thread so that different ranks
    /// overlap (`vPIM` with parallel operation handling).
    Parallel,
}

/// The VMM event loop.
#[derive(Clone)]
pub struct EventManager {
    devices: Vec<Arc<dyn VirtioDevice>>,
    mode: DispatchMode,
    kicks: Counter,
    /// One single-threaded FIFO per device, built by the first kick that
    /// needs one and shared by every clone made after the last
    /// [`register`](EventManager::register).
    lanes: Arc<OnceLock<Vec<WorkerPool>>>,
    inject: Option<Arc<FaultPlane>>,
}

/// The receipt for one [`EventManager::kick_async`]: resolves to the
/// device handler's result. Kicks whose handler ran on the kicking thread
/// resolve immediately; kicks sent to a lane resolve when the lane has
/// run them.
#[derive(Debug)]
pub struct KickHandle {
    inner: KickInner,
}

#[derive(Debug)]
enum KickInner {
    Ready(Result<(), VmmError>),
    Lane(JobHandle<Result<(), VmmError>>),
}

impl KickHandle {
    /// Blocks until the notification has been fully handled and returns
    /// the handler's result. Handler panics propagate to the waiter.
    pub fn wait(self) -> Result<(), VmmError> {
        match self.inner {
            KickInner::Ready(r) => r,
            KickInner::Lane(h) => h.wait(),
        }
    }
}

impl std::fmt::Debug for EventManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventManager")
            .field("devices", &self.devices.len())
            .field("mode", &self.mode)
            .field("lanes", &self.lanes.get().map_or(0, Vec::len))
            .field("kicks", &self.kicks.get())
            .finish()
    }
}

impl EventManager {
    /// Creates an event manager in the given dispatch mode. It owns no
    /// thread until a parallel-mode kick finds two or more devices.
    #[must_use]
    pub fn new(mode: DispatchMode) -> Self {
        EventManager {
            devices: Vec::new(),
            mode,
            kicks: Counter::new(),
            lanes: Arc::default(),
            inject: None,
        }
    }

    /// Registers a device and returns its index. Register every device
    /// before handing the manager out: lanes are per device, so a manager
    /// whose device list grew stops sharing them with its earlier clones.
    pub fn register(&mut self, device: Arc<dyn VirtioDevice>) -> usize {
        self.devices.push(device);
        self.lanes = Arc::default();
        self.devices.len() - 1
    }

    /// Device `idx`'s lane, or `None` when its handler runs on the kicking
    /// thread: sequential dispatch, or a single device with nothing to
    /// overlap with.
    fn lane(&self, idx: usize) -> Option<&WorkerPool> {
        if self.mode == DispatchMode::Sequential || self.devices.len() < 2 {
            return None;
        }
        let lanes = self
            .lanes
            .get_or_init(|| self.devices.iter().map(|_| WorkerPool::new(1)).collect());
        Some(&lanes[idx])
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
    /// [`DispatchMode::Parallel`] with two or more devices it is enqueued
    /// on the device's lane and this call returns immediately — the
    /// paper's event loop "marks the event complete and lets the worker
    /// inject the IRQ" — and a device's kicks reach its handler in kick
    /// order. The *functional* result is identical in both modes; only
    /// wall-clock overlap differs.
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
        let inner = match self.lane(idx) {
            Some(lane) => KickInner::Lane(lane.submit(move || device.handle_notify(queue))),
            None => KickInner::Ready(device.handle_notify(queue)),
        };
        Ok(KickHandle { inner })
    }

    /// Delivers a queue notification for device `idx` and waits for the
    /// handler to finish — [`kick_async`](Self::kick_async) + wait.
    /// Concurrent callers in parallel mode still overlap across lanes.
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
    use std::sync::{mpsc, Mutex};
    use std::thread::ThreadId;
    use std::time::Duration;

    /// A device whose notify handler counts the call, then runs `hook`
    /// with the queue index.
    struct Probe {
        mmio: MmioBlock,
        irq: IrqLine,
        notifies: AtomicU32,
        hook: Box<dyn Fn(u32) + Send + Sync>,
    }

    impl Probe {
        fn new() -> Self {
            Probe::with_hook(|_| {})
        }

        fn with_hook(hook: impl Fn(u32) + Send + Sync + 'static) -> Self {
            Probe {
                mmio: MmioBlock::new(42, 2, 512, vec![0; 16]),
                irq: IrqLine::new(33),
                notifies: AtomicU32::new(0),
                hook: Box::new(hook),
            }
        }

        fn slow(delay: Duration) -> Self {
            Probe::with_hook(move |_| std::thread::sleep(delay))
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
        fn handle_notify(&self, queue: u32) -> Result<(), VmmError> {
            self.notifies.fetch_add(1, Ordering::Relaxed);
            (self.hook)(queue);
            Ok(())
        }
    }

    /// Threads the manager (with all its clones) owns.
    fn lane_count(mgr: &EventManager) -> usize {
        mgr.lanes.get().map_or(0, Vec::len)
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

    /// Async kicks dispatched before either is awaited overlap end to end:
    /// two slow handlers complete in roughly one handler's wall-clock time.
    #[test]
    fn parallel_kick_async_overlaps_slow_handlers_in_wall_clock() {
        let delay = Duration::from_millis(60);
        let mut par = EventManager::new(DispatchMode::Parallel);
        let a = Arc::new(Probe::slow(delay));
        let b = Arc::new(Probe::slow(delay));
        let ia = par.register(a.clone());
        let ib = par.register(b.clone());
        let start = std::time::Instant::now();
        let (ha, hb) = (
            par.kick_async(ia, 0).unwrap(),
            par.kick_async(ib, 0).unwrap(),
        );
        ha.wait().unwrap();
        hb.wait().unwrap();
        let wall = start.elapsed();
        assert!(
            wall < delay * 2,
            "two {delay:?} handlers took {wall:?}: not overlapping"
        );
        assert_eq!(a.notifies.load(Ordering::Relaxed), 1);
        assert_eq!(b.notifies.load(Ordering::Relaxed), 1);

        // Sequential mode really serializes them (Fig. 16's other curve)
        // and owns no thread to do it.
        let mut seq = EventManager::new(DispatchMode::Sequential);
        let ic = seq.register(Arc::new(Probe::slow(delay)));
        let id = seq.register(Arc::new(Probe::slow(delay)));
        let start = std::time::Instant::now();
        let (hc, hd) = (
            seq.kick_async(ic, 0).unwrap(),
            seq.kick_async(id, 0).unwrap(),
        );
        hc.wait().unwrap();
        hd.wait().unwrap();
        assert!(start.elapsed() >= delay * 2);
        assert_eq!(lane_count(&seq), 0);
    }

    /// One device has nothing to overlap with: in either mode the handler
    /// has already run, on the kicking thread, when `kick_async` returns,
    /// and the manager owns no thread.
    #[test]
    fn one_device_kick_async_resolves_on_the_kicking_thread() {
        for mode in [DispatchMode::Sequential, DispatchMode::Parallel] {
            let mut mgr = EventManager::new(mode);
            let ran_on: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
            let log = ran_on.clone();
            let probe = Arc::new(Probe::with_hook(move |_| {
                log.lock().unwrap().push(std::thread::current().id());
            }));
            let idx = mgr.register(probe.clone());
            let h = mgr.kick_async(idx, 0).unwrap();
            assert_eq!(probe.notifies.load(Ordering::Relaxed), 1);
            h.wait().unwrap();
            assert_eq!(*ran_on.lock().unwrap(), [std::thread::current().id()]);
            assert_eq!(lane_count(&mgr), 0);
        }
    }

    /// Three devices, three lanes, shared with clones. Device 0's first
    /// handler cannot finish until device 1's has run, and device 1 is
    /// kicked after both of device 0's kicks: device 1 does not queue
    /// behind device 0, and device 0's second kick waits for its first.
    #[test]
    fn each_device_has_one_lane_serving_it_in_kick_order() {
        let (dev1_ran, dev1_ran_rx) = mpsc::channel::<()>();
        let dev1_ran_rx = Mutex::new(dev1_ran_rx);
        let order: Arc<Mutex<Vec<String>>> = Arc::default();
        let log = order.clone();
        let dev0 = Probe::with_hook(move |queue| {
            log.lock().unwrap().push(format!("enter {queue}"));
            if queue == 0 {
                let signal = dev1_ran_rx
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(10));
                assert!(signal.is_ok(), "device 1 queued behind device 0");
            }
            log.lock().unwrap().push(format!("exit {queue}"));
        });
        let dev1_ran = Mutex::new(dev1_ran);
        let dev1 = Probe::with_hook(move |_| dev1_ran.lock().unwrap().send(()).unwrap());

        let mut mgr = EventManager::new(DispatchMode::Parallel);
        let i0 = mgr.register(Arc::new(dev0));
        let i1 = mgr.register(Arc::new(dev1));
        mgr.register(Arc::new(Probe::new()));
        assert_eq!(lane_count(&mgr), 0, "lanes are built by the first kick");
        let clone = mgr.clone();

        let handles = [
            mgr.kick_async(i0, 0).unwrap(),
            clone.kick_async(i0, 1).unwrap(),
            mgr.kick_async(i1, 0).unwrap(),
        ];
        for h in handles {
            h.wait().unwrap();
        }
        assert_eq!(
            *order.lock().unwrap(),
            ["enter 0", "exit 0", "enter 1", "exit 1"]
        );
        assert_eq!(lane_count(&mgr), 3);
        assert!(Arc::ptr_eq(&mgr.lanes, &clone.lanes));
    }

    /// A dropped kick is dropped before dispatch whether the handler would
    /// have run inline (one device) or on a lane (two).
    #[test]
    fn dropped_kick_never_reaches_the_handler() {
        use simkit::{FaultPlan, FaultPlane};
        for mode in [DispatchMode::Sequential, DispatchMode::Parallel] {
            for devices in [1, 2] {
                let mut mgr = EventManager::new(mode);
                let plane = Arc::new(FaultPlane::new(7));
                plane.arm(KICK_DROP_POINT, FaultPlan::Nth(1));
                mgr.set_fault_plane(plane);
                let probe = Arc::new(Probe::new());
                let idx = mgr.register(probe.clone());
                for _ in 1..devices {
                    mgr.register(Arc::new(Probe::new()));
                }
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
}
