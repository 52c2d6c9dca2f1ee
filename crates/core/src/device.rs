//! The vUPMEM virtio device model registered with the VMM.
//!
//! One `VupmemDevice` represents one virtual rank attached to a VM. It owns
//! the virtio-mmio transport surface (register block + IRQ line) and the
//! [`Backend`] that performs rank operations; the VMM's event manager calls
//! [`VupmemDevice::handle_notify`] when the guest kicks `transferq`.
//! Handlers run one at a time per device, popping and processing chains
//! in avail-ring order until the ring is empty, so a handler that returns
//! `Ok` has completed every chain added before its kick (§4.2: finish the
//! rank operation, then inject the IRQ that resumes the guest). Every
//! popped chain is answered, a backend panic included: it becomes an
//! `Internal` error response carrying the panic message.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pim_virtio::mmio::MmioBlock;
use pim_virtio::queue::{DescChain, DeviceQueue, QueueLayout};
use pim_virtio::{Gpa, GuestMemory, IrqLine};
use pim_vmm::{VirtioDevice, VmmError};
use simkit::sync::Mutex;
use simkit::{ErrorKind, LockLevel};

use crate::backend::{Backend, STATUS_HW};
use crate::spec::{self, Response};

/// Lock-order indices for the device's mutexes, all at
/// [`LockLevel::DeviceQueue`] (below the frontend, above the
/// backend's rank slot — see `simkit::lockorder`).
///
/// * `NOTIFY` (0) — held by [`VupmemDevice::handle_notify`] across its
///   whole pop-and-process loop, so a device runs its chains one at a
///   time in avail-ring order, and the descent into
///   `RankSlot`/`SchedState`/`ManagerTable` happens under it.
/// * `MEM` (1) and `TRANSFERQ` (2) — the guest-memory cell and the device
///   queue; taken briefly inside `NOTIFY`, never across the backend.
mod dev_lock {
    pub const NOTIFY: usize = 0;
    pub const MEM: usize = 1;
    pub const TRANSFERQ: usize = 2;
}

/// The vUPMEM device (one per virtual rank).
#[derive(Debug)]
pub struct VupmemDevice {
    tag: String,
    mmio: MmioBlock,
    irq: IrqLine,
    backend: Backend,
    /// Serializes notify handlers: when one returns, every chain added
    /// before its kick has its status written and its used entry pushed.
    notify: Mutex<()>,
    mem: Mutex<Option<GuestMemory>>,
    transferq: Mutex<Option<DeviceQueue>>,
}

impl VupmemDevice {
    /// Creates the device with its backend. `irq_number` is the GSI the VMM
    /// advertises on the kernel command line.
    #[must_use]
    pub fn new(tag: impl Into<String>, backend: Backend, irq_number: u32) -> Self {
        Self::with_registry(tag, backend, irq_number, &simkit::MetricsRegistry::new())
    }

    /// [`new`](Self::new), with the IRQ line's injection count published
    /// into `registry` as `virtio.irq.injections` (shared with every other
    /// device on the same registry).
    #[must_use]
    pub fn with_registry(
        tag: impl Into<String>,
        backend: Backend,
        irq_number: u32,
        registry: &simkit::MetricsRegistry,
    ) -> Self {
        VupmemDevice {
            tag: tag.into(),
            mmio: MmioBlock::new(
                spec::DEVICE_ID,
                2,
                u32::from(spec::TRANSFERQ_SIZE),
                vec![0u8; 64],
            ),
            irq: IrqLine::with_counter(irq_number, registry.counter("virtio.irq.injections")),
            backend,
            notify: Mutex::new(LockLevel::DeviceQueue, dev_lock::NOTIFY, ()),
            mem: Mutex::new(LockLevel::DeviceQueue, dev_lock::MEM, None),
            transferq: Mutex::new(LockLevel::DeviceQueue, dev_lock::TRANSFERQ, None),
        }
    }

    /// The backend (manager linkage, counters).
    #[must_use]
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    fn process_chain(&self, chain: &DescChain) -> Result<(), VmmError> {
        let mem = self
            .mem
            .lock()
            .clone()
            .ok_or_else(|| VmmError::BadState("device not activated".to_string()))?;
        // A panic below the device still answers the chain: a chain that
        // never reaches the used ring strands its descriptors, and enough
        // of them leave every guest thread waiting for queue room.
        let response = catch_unwind(AssertUnwindSafe(|| self.backend.process(&mem, chain)))
            .unwrap_or_else(|panic| {
                let what = panic
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("a non-string payload");
                Response::err(STATUS_HW, ErrorKind::Internal, format!("backend panicked: {what}"))
            });
        // Write the response into the chain's final (device-writable)
        // descriptor.
        let status = chain
            .descriptors
            .last()
            .filter(|d| d.is_write_only())
            .copied()
            .ok_or_else(|| VmmError::Device("chain lacks a status buffer".to_string()))?;
        let mut encoded = response.encode();
        if encoded.len() > status.len as usize {
            // Truncate the error text rather than corrupt guest memory.
            let mut short = response;
            short.error.truncate(64);
            short.payload.clear();
            encoded = short.encode();
            encoded.truncate(status.len as usize);
        }
        mem.write(status.addr, &encoded).map_err(VmmError::Virtio)?;
        let written = encoded.len() as u32;
        self.transferq
            .lock()
            .as_mut()
            .expect("activated")
            .push_used(chain.head, written)
            .map_err(VmmError::Virtio)?;
        self.mmio.raise_interrupt();
        self.irq.assert_irq();
        Ok(())
    }
}

impl VirtioDevice for VupmemDevice {
    fn tag(&self) -> String {
        self.tag.clone()
    }

    fn device_id(&self) -> u32 {
        spec::DEVICE_ID
    }

    fn mmio(&self) -> &MmioBlock {
        &self.mmio
    }

    fn irq(&self) -> &IrqLine {
        &self.irq
    }

    fn activate(&self, mem: &GuestMemory) -> Result<(), VmmError> {
        let q = self
            .mmio
            .queue(spec::TRANSFERQ as usize)
            .ok_or_else(|| VmmError::BadState("transferq not configured".to_string()))?;
        if !q.ready {
            return Err(VmmError::BadState(
                "guest driver did not mark transferq ready".to_string(),
            ));
        }
        let layout = QueueLayout {
            size: q.num as u16,
            desc: Gpa(q.desc),
            avail: Gpa(q.driver_area),
            used: Gpa(q.device_area),
        };
        *self.transferq.lock() = Some(DeviceQueue::new(mem.clone(), layout));
        *self.mem.lock() = Some(mem.clone());
        Ok(())
    }

    fn handle_notify(&self, queue: u32) -> Result<(), VmmError> {
        if queue != spec::TRANSFERQ {
            return Ok(()); // controlq traffic carries no work in this model
        }
        // One handler at a time: a kick that finds the queue empty because
        // another handler popped its chain still waits for that chain.
        let _serial = self.notify.lock();
        loop {
            let popped = {
                let mut q = self.transferq.lock();
                let q = q
                    .as_mut()
                    .ok_or_else(|| VmmError::BadState("device not activated".to_string()))?;
                q.pop().map_err(VmmError::Virtio)?
            };
            match popped {
                Some(chain) => self.process_chain(&chain)?,
                None => break,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VpimConfig;
    use crate::manager::{Manager, ManagerConfig};
    use crate::spec::Request;
    use pim_virtio::mmio::{reg, status};
    use pim_virtio::queue::DriverQueue;
    use simkit::CostModel;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;
    use upmem_driver::UpmemDriver;
    use upmem_sim::{PimConfig, PimMachine};

    fn device() -> (VupmemDevice, Manager) {
        let driver = Arc::new(UpmemDriver::new(PimMachine::new(PimConfig::small())));
        let mgr = Manager::start(driver.clone(), CostModel::default(), ManagerConfig::default());
        let backend = Backend::new(
            driver,
            mgr.client(),
            VpimConfig::full(),
            CostModel::default(),
            "vm-t".to_string(),
        );
        (VupmemDevice::new("vupmem0", backend, 33), mgr)
    }

    fn program_queue(dev: &VupmemDevice, mem: &GuestMemory) -> DriverQueue {
        let layout = QueueLayout::alloc(mem, 512).unwrap();
        let m = dev.mmio();
        m.write(reg::QUEUE_SEL, 0).unwrap();
        m.write(reg::QUEUE_NUM, 512).unwrap();
        m.write(reg::QUEUE_DESC_LOW, (layout.desc.0 & 0xffff_ffff) as u32).unwrap();
        m.write(reg::QUEUE_DESC_HIGH, (layout.desc.0 >> 32) as u32).unwrap();
        m.write(reg::QUEUE_DRIVER_LOW, (layout.avail.0 & 0xffff_ffff) as u32).unwrap();
        m.write(reg::QUEUE_DRIVER_HIGH, (layout.avail.0 >> 32) as u32).unwrap();
        m.write(reg::QUEUE_DEVICE_LOW, (layout.used.0 & 0xffff_ffff) as u32).unwrap();
        m.write(reg::QUEUE_DEVICE_HIGH, (layout.used.0 >> 32) as u32).unwrap();
        m.write(reg::QUEUE_READY, 1).unwrap();
        m.write(reg::STATUS, status::ACKNOWLEDGE | status::DRIVER | status::DRIVER_OK)
            .unwrap();
        DriverQueue::new(mem.clone(), layout)
    }

    #[test]
    fn notify_processes_request_and_injects_irq() {
        let (dev, mgr) = device();
        let mem = GuestMemory::new(4 << 20);
        let mut dq = program_queue(&dev, &mem);
        dev.activate(&mem).unwrap();

        let req_page = mem.alloc_pages(1).unwrap()[0];
        let status_page = mem.alloc_pages(1).unwrap()[0];
        let enc = Request::Configure.encode();
        mem.write(req_page, &enc).unwrap();
        let head = dq
            .add_chain(&[(req_page, enc.len() as u32, false), (status_page, 4096, true)])
            .unwrap();

        dev.handle_notify(spec::TRANSFERQ).unwrap();
        assert_eq!(dev.irq().injections(), 1);
        let (h, len) = dq.poll_used().unwrap().unwrap();
        assert_eq!(h, head);
        assert!(len > 0);
        let raw = mem.with_slice(status_page, 4096, <[u8]>::to_vec).unwrap();
        let resp = Response::decode(&raw).unwrap();
        assert!(resp.is_ok());
        assert!(!resp.payload.is_empty());
        mgr.shutdown();
    }

    /// A handler that finds the queue empty because an earlier handler
    /// popped the chain still returns only once that chain is complete.
    #[test]
    fn a_handled_notify_means_every_earlier_chain_is_complete() {
        let (dev, mgr) = device();
        let mem = GuestMemory::new(4 << 20);
        let mut dq = program_queue(&dev, &mem);
        dev.activate(&mem).unwrap();
        let mut add_configure = || {
            let pages = mem.alloc_pages(2).unwrap();
            let enc = Request::Configure.encode();
            mem.write(pages[0], &enc).unwrap();
            dq.add_chain(&[(pages[0], enc.len() as u32, false), (pages[1], 4096, true)])
                .unwrap()
        };
        // Link the rank, then hold its slot so the next chain blocks in
        // the backend. A thread of its own holds it: the device queue this
        // thread polls comes before the slot in the lock order.
        add_configure();
        dev.handle_notify(spec::TRANSFERQ).unwrap();
        let pending = || dev.transferq.lock().as_ref().unwrap().pending().unwrap();
        let dev = &dev;
        let head = std::thread::scope(|s| {
            let (held, slot_held) = mpsc::channel();
            let (release, slot_released) = mpsc::channel::<()>();
            let holder = s.spawn(move || {
                let _slot = dev.backend().ensure_linked().unwrap();
                held.send(()).unwrap();
                slot_released.recv().unwrap();
            });
            slot_held.recv().unwrap();
            let head = add_configure();
            let a = s.spawn(|| dev.handle_notify(spec::TRANSFERQ));
            while pending() != 0 {
                std::thread::yield_now();
            }
            let (returned, b_returned) = mpsc::channel();
            let b = s.spawn(move || {
                let r = dev.handle_notify(spec::TRANSFERQ);
                returned.send(()).unwrap();
                r
            });
            assert!(
                b_returned.recv_timeout(Duration::from_millis(200)).is_err(),
                "a kick returned while an earlier chain was still in the backend"
            );
            release.send(()).unwrap();
            holder.join().unwrap();
            a.join().unwrap().unwrap();
            b.join().unwrap().unwrap();
            head
        });
        let used: Vec<u16> = std::iter::from_fn(|| dq.poll_used().unwrap())
            .map(|(h, _)| h)
            .collect();
        assert_eq!(used.last(), Some(&head), "{used:?}");
        mgr.shutdown();
    }

    #[test]
    fn activate_requires_ready_queue() {
        let (dev, mgr) = device();
        let mem = GuestMemory::new(1 << 20);
        assert!(dev.activate(&mem).is_err());
        mgr.shutdown();
    }

    #[test]
    fn notify_before_activate_is_bad_state() {
        let (dev, mgr) = device();
        assert!(dev.handle_notify(spec::TRANSFERQ).is_err());
        // controlq notifications are accepted quietly.
        assert!(dev.handle_notify(spec::CONTROLQ).is_ok());
        mgr.shutdown();
    }
}
