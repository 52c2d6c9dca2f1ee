//! Firecracker's event loop, with vPIM's parallel operation handling.
//!
//! §4.2, "Parallel operations handling": in stock Firecracker a single loop
//! handles virtio request events sequentially. vPIM spawns a thread per
//! request, marks the event complete, and lets the worker inject the IRQ
//! when the operation finishes — so requests to different ranks overlap.
//!
//! Here that overlap lives in virtual time only. A kick runs its device's
//! handler on the kicking thread, for every VM whatever its device count,
//! and returns once the handler has. Callers compose per-request durations
//! with `simkit::sequential` (cumulative sums, stock Firecracker) or
//! `simkit::parallel` (the slowest rank), the two curves of Fig. 16, and
//! that choice is a model parameter: no host thread feeds into it.
//! Guest threads that share a device may kick it at the same time; the
//! device serializes its own chains.

use std::sync::Arc;

use simkit::{Counter, FaultPlane};

use crate::device::{VirtioDevice, VmmError};

/// The fault point consulted by [`EventManager::kick`]: firing *drops* the
/// guest kick — the vmexit is counted, but the device handler never runs
/// and the kick fails with [`VmmError::KickDropped`]. Nothing is
/// dispatched, so callers recover by simply re-notifying the queue.
pub const KICK_DROP_POINT: &str = "vmm.kick.drop";

/// The VMM event loop.
#[derive(Clone, Default)]
pub struct EventManager {
    devices: Vec<Arc<dyn VirtioDevice>>,
    kicks: Counter,
    inject: Option<Arc<FaultPlane>>,
}

impl std::fmt::Debug for EventManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventManager")
            .field("devices", &self.devices.len())
            .field("kicks", &self.kicks.get())
            .finish()
    }
}

impl EventManager {
    /// Creates an event manager with no devices.
    #[must_use]
    pub fn new() -> Self {
        EventManager::default()
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

    /// Installs the fault-injection plane; [`kick`](Self::kick) then
    /// consults [`KICK_DROP_POINT`]. Like
    /// [`set_kick_counter`](Self::set_kick_counter), existing clones keep
    /// the old (absent) plane, so install before handing the manager out.
    pub fn set_fault_plane(&mut self, plane: Arc<FaultPlane>) {
        self.inject = Some(plane);
    }

    /// Delivers a queue notification for device `idx` and runs its handler
    /// on this thread; returns once the notification has been handled.
    ///
    /// # Errors
    ///
    /// Unknown device index, a dropped kick ([`VmmError::KickDropped`]) or
    /// a device handler failure.
    pub fn kick(&self, idx: usize, queue: u32) -> Result<(), VmmError> {
        self.kicks.inc();
        let device = self
            .devices
            .get(idx)
            .ok_or_else(|| VmmError::BadState(format!("no device {idx}")))?;
        if let Some(plane) = &self.inject {
            if plane.hit(KICK_DROP_POINT) {
                // Dropped before dispatch: the handler never runs.
                return Err(VmmError::KickDropped);
            }
        }
        device.handle_notify(queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_virtio::mmio::MmioBlock;
    use pim_virtio::{GuestMemory, IrqLine};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;

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

    /// With one device or two, the handler has run, on the kicking thread,
    /// when `kick` returns.
    #[test]
    fn kick_runs_the_handler_on_the_kicking_thread() {
        for devices in [1, 2] {
            let mut mgr = EventManager::new();
            let ran_on: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
            let log = ran_on.clone();
            let probe = Arc::new(Probe::with_hook(move |_| {
                log.lock().unwrap().push(std::thread::current().id());
            }));
            for _ in 1..devices {
                mgr.register(Arc::new(Probe::new()));
            }
            let idx = mgr.register(probe.clone());
            mgr.kick(idx, 0).unwrap();
            assert_eq!(probe.notifies.load(Ordering::Relaxed), 1);
            mgr.clone().kick(idx, 0).unwrap();
            assert_eq!(probe.notifies.load(Ordering::Relaxed), 2);
            assert_eq!(mgr.kicks(), 2);
            assert_eq!(*ran_on.lock().unwrap(), [std::thread::current().id(); 2]);
        }
    }

    #[test]
    fn unknown_device_errors() {
        let mgr = EventManager::new();
        assert!(mgr.kick(0, 0).is_err());
    }

    #[test]
    fn dropped_kick_never_reaches_the_handler() {
        use simkit::{FaultPlan, FaultPlane};
        for devices in [1, 2] {
            let mut mgr = EventManager::new();
            let plane = Arc::new(FaultPlane::new(7));
            plane.arm(KICK_DROP_POINT, FaultPlan::Nth(1));
            mgr.set_fault_plane(plane);
            let probe = Arc::new(Probe::new());
            let idx = mgr.register(probe.clone());
            for _ in 1..devices {
                mgr.register(Arc::new(Probe::new()));
            }
            // First kick is dropped: counted as a vmexit, handler unrun.
            assert!(matches!(mgr.kick(idx, 0), Err(VmmError::KickDropped)));
            assert_eq!(probe.notifies.load(Ordering::Relaxed), 0);
            assert_eq!(mgr.kicks(), 1);
            // Re-notifying recovers: Nth(1) is spent.
            mgr.kick(idx, 0).unwrap();
            assert_eq!(probe.notifies.load(Ordering::Relaxed), 1);
        }
    }
}
