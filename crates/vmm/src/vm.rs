//! The microVM: guest memory, devices, and the boot sequence.
//!
//! §3.2 ("vUPMEM Bootstrapping"): when a Firecracker VM launches, the VMM
//! passes virtio device descriptions to the guest on the kernel command
//! line (MMIO region + IRQ per device); during boot the guest probes each
//! block, the vUPMEM frontend driver initializes, requests the device
//! configuration, and exposes a device file. Adding one vUPMEM device
//! increases boot time by up to 2 ms.

use std::sync::Arc;

use pim_virtio::GuestMemory;
use simkit::{CostModel, VirtualNanos};

use crate::config::VmConfig;
use crate::device::{VirtioDevice, VmmError};
use crate::event::{DispatchMode, EventManager};

/// MMIO base address of the first virtio device slot.
pub const MMIO_BASE: u64 = 0xd000_0000;
/// Size of each device's MMIO window.
pub const MMIO_SLOT: u64 = 0x1000;
/// GSI of the first virtio device.
pub const IRQ_BASE: u32 = 32;

/// What `Vm::boot` produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootReport {
    /// The kernel command line, including one `virtio_mmio.device=` clause
    /// per attached device.
    pub cmdline: String,
    /// Base boot time of the microVM without vUPMEM devices.
    pub base_boot_time: VirtualNanos,
    /// Additional boot time contributed by vUPMEM devices (≤ 2 ms each).
    pub vupmem_boot_time: VirtualNanos,
}

impl BootReport {
    /// Total boot time.
    #[must_use]
    pub fn total(&self) -> VirtualNanos {
        self.base_boot_time + self.vupmem_boot_time
    }
}

/// A microVM.
#[derive(Debug)]
pub struct Vm {
    config: VmConfig,
    mem: GuestMemory,
    event_manager: EventManager,
    booted: bool,
}

impl Vm {
    /// Provisions a VM from an API configuration (allocates guest memory,
    /// prepares the event loop in the requested dispatch mode).
    #[must_use]
    pub fn new(config: VmConfig, dispatch: DispatchMode) -> Self {
        let mem = GuestMemory::new(config.mem_mib * (1 << 20));
        Vm {
            config,
            mem,
            event_manager: EventManager::new(dispatch),
            booted: false,
        }
    }

    /// The VM configuration.
    #[must_use]
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// Guest physical memory.
    #[must_use]
    pub fn memory(&self) -> &GuestMemory {
        &self.mem
    }

    /// The event loop (register devices here before boot).
    pub fn event_manager_mut(&mut self) -> &mut EventManager {
        &mut self.event_manager
    }

    /// The event loop.
    #[must_use]
    pub fn event_manager(&self) -> &EventManager {
        &self.event_manager
    }

    /// MMIO window base for device slot `i`.
    #[must_use]
    pub fn mmio_base(i: usize) -> u64 {
        MMIO_BASE + MMIO_SLOT * i as u64
    }

    /// IRQ number for device slot `i`.
    #[must_use]
    pub fn irq_number(i: usize) -> u32 {
        IRQ_BASE + i as u32
    }

    /// Boots the VM: builds the cmdline advertising every registered
    /// device, activates each device (the guest driver's probe), and
    /// accounts boot-time costs.
    ///
    /// # Errors
    ///
    /// [`VmmError::BadState`] on double boot; device activation failures.
    pub fn boot(&mut self, cm: &CostModel) -> Result<BootReport, VmmError> {
        if self.booted {
            return Err(VmmError::BadState("vm already booted".to_string()));
        }
        let mut cmdline = format!(
            "console=ttyS0 reboot=k panic=1 pci=off root=/dev/vda kernel={}",
            self.config.kernel
        );
        let devices: Vec<Arc<dyn VirtioDevice>> = self.event_manager.devices().to_vec();
        let mut vupmem_boot = VirtualNanos::ZERO;
        for (i, dev) in devices.iter().enumerate() {
            cmdline.push_str(&format!(
                " virtio_mmio.device=4K@{:#x}:{}",
                Vm::mmio_base(i),
                Vm::irq_number(i)
            ));
            dev.activate(&self.mem)?;
            if dev.device_id() == pim_virtio::mmio::VIRTIO_ID_PIM {
                vupmem_boot += cm.vupmem_boot();
            }
        }
        self.booted = true;
        Ok(BootReport {
            cmdline,
            // Firecracker's own time-to-guest is ~125 ms class; any stable
            // constant works since only the vUPMEM delta matters.
            base_boot_time: VirtualNanos::from_millis(125),
            vupmem_boot_time: vupmem_boot,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_virtio::mmio::MmioBlock;
    use pim_virtio::IrqLine;

    struct Stub {
        mmio: MmioBlock,
        irq: IrqLine,
        id: u32,
    }

    impl Stub {
        fn pim() -> Self {
            Stub {
                mmio: MmioBlock::new(42, 2, 512, vec![0; 16]),
                irq: IrqLine::new(33),
                id: 42,
            }
        }
        fn block() -> Self {
            Stub {
                mmio: MmioBlock::new(2, 1, 256, vec![0; 16]),
                irq: IrqLine::new(34),
                id: 2,
            }
        }
    }

    impl VirtioDevice for Stub {
        fn tag(&self) -> String {
            "stub".into()
        }
        fn device_id(&self) -> u32 {
            self.id
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
            Ok(())
        }
    }

    #[test]
    fn boot_advertises_devices_and_charges_vupmem_time() {
        let cm = CostModel::default();
        let mut vm = Vm::new(VmConfig::default(), DispatchMode::Sequential);
        vm.event_manager_mut().register(Arc::new(Stub::pim()));
        vm.event_manager_mut().register(Arc::new(Stub::block()));
        vm.event_manager_mut().register(Arc::new(Stub::pim()));
        let report = vm.boot(&cm).unwrap();
        assert!(report.cmdline.contains("virtio_mmio.device=4K@0xd0000000:32"));
        assert!(report.cmdline.contains("virtio_mmio.device=4K@0xd0002000:34"));
        // Two PIM devices, 2 ms each (§3.2: "up to 2 ms" per device).
        assert_eq!(report.vupmem_boot_time.as_millis(), 4);
        assert!(report.total() > report.base_boot_time);
    }

    #[test]
    fn double_boot_rejected() {
        let cm = CostModel::default();
        let mut vm = Vm::new(VmConfig::default(), DispatchMode::Sequential);
        vm.boot(&cm).unwrap();
        assert!(matches!(vm.boot(&cm), Err(VmmError::BadState(_))));
    }

    #[test]
    fn memory_sized_from_config() {
        let vm = Vm::new(
            VmConfig::builder().mem_mib(64).build(),
            DispatchMode::Sequential,
        );
        assert_eq!(vm.memory().size(), 64 << 20);
    }

    #[test]
    fn slot_addressing() {
        assert_eq!(Vm::mmio_base(0), 0xd000_0000);
        assert_eq!(Vm::mmio_base(2), 0xd000_2000);
        assert_eq!(Vm::irq_number(3), 35);
    }
}
