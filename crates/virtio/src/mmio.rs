//! The virtio-mmio transport register block.
//!
//! Firecracker advertises virtio devices to the guest via the kernel
//! command line (`virtio_mmio.device=<size>@<base>:<irq>`); the guest
//! driver then probes this register block to discover the device type,
//! negotiate features and configure queues (§3.2). We implement the
//! virtio-mmio v2 register set that flow touches, plus a device-specific
//! configuration space at offset `0x100` (the vPIM spec's "device
//! configuration layout": clock division, memory region size, number of
//! control interfaces, DPU frequency — Appendix A.1).

use parking_lot::Mutex;

use crate::error::VirtioError;

/// `"virt"` little-endian — the magic value at offset 0.
pub const MMIO_MAGIC: u32 = 0x7472_6976;
/// virtio-mmio version 2 (modern).
pub const MMIO_VERSION: u32 = 2;
/// The virtio device id vPIM registers for PIM devices (Appendix A.1).
pub const VIRTIO_ID_PIM: u32 = 42;

/// Register offsets (virtio-mmio v2).
#[allow(missing_docs)]
pub mod reg {
    pub const MAGIC_VALUE: u64 = 0x000;
    pub const VERSION: u64 = 0x004;
    pub const DEVICE_ID: u64 = 0x008;
    pub const VENDOR_ID: u64 = 0x00c;
    pub const DEVICE_FEATURES: u64 = 0x010;
    pub const DRIVER_FEATURES: u64 = 0x020;
    pub const QUEUE_SEL: u64 = 0x030;
    pub const QUEUE_NUM_MAX: u64 = 0x034;
    pub const QUEUE_NUM: u64 = 0x038;
    pub const QUEUE_READY: u64 = 0x044;
    pub const QUEUE_NOTIFY: u64 = 0x050;
    pub const INTERRUPT_STATUS: u64 = 0x060;
    pub const INTERRUPT_ACK: u64 = 0x064;
    pub const STATUS: u64 = 0x070;
    pub const QUEUE_DESC_LOW: u64 = 0x080;
    pub const QUEUE_DESC_HIGH: u64 = 0x084;
    pub const QUEUE_DRIVER_LOW: u64 = 0x090;
    pub const QUEUE_DRIVER_HIGH: u64 = 0x094;
    pub const QUEUE_DEVICE_LOW: u64 = 0x0a0;
    pub const QUEUE_DEVICE_HIGH: u64 = 0x0a4;
    pub const CONFIG: u64 = 0x100;
}

/// Device status bits written by the guest during initialization.
#[allow(missing_docs)]
pub mod status {
    pub const ACKNOWLEDGE: u32 = 1;
    pub const DRIVER: u32 = 2;
    pub const DRIVER_OK: u32 = 4;
    pub const FEATURES_OK: u32 = 8;
}

/// Per-queue transport state configured by the guest.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueueTransport {
    /// Queue size selected by the driver.
    pub num: u32,
    /// Descriptor table GPA.
    pub desc: u64,
    /// Available ring GPA.
    pub driver_area: u64,
    /// Used ring GPA.
    pub device_area: u64,
    /// Whether the driver marked the queue ready.
    pub ready: bool,
}

#[derive(Debug)]
struct State {
    queue_sel: usize,
    queues: Vec<QueueTransport>,
    status: u32,
    driver_features: u32,
    interrupt_status: u32,
}

/// The MMIO register block of one virtio device.
#[derive(Debug)]
pub struct MmioBlock {
    device_id: u32,
    queue_num_max: u32,
    config: Vec<u8>,
    state: Mutex<State>,
}

impl MmioBlock {
    /// Creates a block for `device_id` with `num_queues` queues of at most
    /// `queue_num_max` descriptors and the given config space bytes.
    #[must_use]
    pub fn new(device_id: u32, num_queues: usize, queue_num_max: u32, config: Vec<u8>) -> Self {
        MmioBlock {
            device_id,
            queue_num_max,
            config,
            state: Mutex::new(State {
                queue_sel: 0,
                queues: vec![QueueTransport::default(); num_queues],
                status: 0,
                driver_features: 0,
                interrupt_status: 0,
            }),
        }
    }

    /// Guest read of a register (or config space).
    ///
    /// # Errors
    ///
    /// [`VirtioError::BadRegister`] for unknown offsets.
    pub fn read(&self, offset: u64) -> Result<u32, VirtioError> {
        let st = self.state.lock();
        Ok(match offset {
            reg::MAGIC_VALUE => MMIO_MAGIC,
            reg::VERSION => MMIO_VERSION,
            reg::DEVICE_ID => self.device_id,
            reg::VENDOR_ID => 0x5049_4d56, // "VMPI"
            reg::DEVICE_FEATURES => 0,     // Appendix A.1: no feature bits
            reg::QUEUE_NUM_MAX => self.queue_num_max,
            reg::QUEUE_READY => {
                u32::from(st.queues.get(st.queue_sel).is_some_and(|q| q.ready))
            }
            reg::INTERRUPT_STATUS => st.interrupt_status,
            reg::STATUS => st.status,
            off if off >= reg::CONFIG => {
                let idx = (off - reg::CONFIG) as usize;
                if idx + 4 <= self.config.len() {
                    u32::from_le_bytes(self.config[idx..idx + 4].try_into().expect("4 bytes"))
                } else {
                    return Err(VirtioError::BadRegister(offset));
                }
            }
            _ => return Err(VirtioError::BadRegister(offset)),
        })
    }

    /// Guest write of a register.
    ///
    /// # Errors
    ///
    /// [`VirtioError::BadRegister`] for unknown or read-only offsets.
    pub fn write(&self, offset: u64, value: u32) -> Result<(), VirtioError> {
        let mut st = self.state.lock();
        match offset {
            reg::DRIVER_FEATURES => st.driver_features = value,
            reg::QUEUE_SEL => st.queue_sel = value as usize,
            reg::QUEUE_NUM => {
                let sel = st.queue_sel;
                if let Some(q) = st.queues.get_mut(sel) {
                    q.num = value;
                }
            }
            reg::QUEUE_READY => {
                let sel = st.queue_sel;
                if let Some(q) = st.queues.get_mut(sel) {
                    q.ready = value == 1;
                }
            }
            // The kick itself travels through the VMM's event manager.
            reg::QUEUE_NOTIFY => {}
            reg::INTERRUPT_ACK => st.interrupt_status &= !value,
            reg::STATUS => st.status = value,
            reg::QUEUE_DESC_LOW => {
                let sel = st.queue_sel;
                if let Some(q) = st.queues.get_mut(sel) {
                    q.desc = (q.desc & !0xffff_ffff) | u64::from(value);
                }
            }
            reg::QUEUE_DESC_HIGH => {
                let sel = st.queue_sel;
                if let Some(q) = st.queues.get_mut(sel) {
                    q.desc = (q.desc & 0xffff_ffff) | (u64::from(value) << 32);
                }
            }
            reg::QUEUE_DRIVER_LOW => {
                let sel = st.queue_sel;
                if let Some(q) = st.queues.get_mut(sel) {
                    q.driver_area = (q.driver_area & !0xffff_ffff) | u64::from(value);
                }
            }
            reg::QUEUE_DRIVER_HIGH => {
                let sel = st.queue_sel;
                if let Some(q) = st.queues.get_mut(sel) {
                    q.driver_area = (q.driver_area & 0xffff_ffff) | (u64::from(value) << 32);
                }
            }
            reg::QUEUE_DEVICE_LOW => {
                let sel = st.queue_sel;
                if let Some(q) = st.queues.get_mut(sel) {
                    q.device_area = (q.device_area & !0xffff_ffff) | u64::from(value);
                }
            }
            reg::QUEUE_DEVICE_HIGH => {
                let sel = st.queue_sel;
                if let Some(q) = st.queues.get_mut(sel) {
                    q.device_area = (q.device_area & 0xffff_ffff) | (u64::from(value) << 32);
                }
            }
            _ => return Err(VirtioError::BadRegister(offset)),
        }
        Ok(())
    }

    /// Device side: raise the used-buffer interrupt status bit.
    pub fn raise_interrupt(&self) {
        self.state.lock().interrupt_status |= 1;
    }

    /// Device side: snapshot of queue `i`'s transport configuration.
    #[must_use]
    pub fn queue(&self, i: usize) -> Option<QueueTransport> {
        self.state.lock().queues.get(i).copied()
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> MmioBlock {
        MmioBlock::new(VIRTIO_ID_PIM, 2, 512, vec![0u8; 32])
    }

    #[test]
    fn identity_registers() {
        let b = block();
        assert_eq!(b.read(reg::MAGIC_VALUE).unwrap(), MMIO_MAGIC);
        assert_eq!(b.read(reg::VERSION).unwrap(), 2);
        assert_eq!(b.read(reg::DEVICE_ID).unwrap(), 42);
        assert_eq!(b.read(reg::DEVICE_FEATURES).unwrap(), 0);
    }

    #[test]
    fn init_handshake() {
        let b = block();
        b.write(reg::STATUS, status::ACKNOWLEDGE).unwrap();
        b.write(reg::STATUS, status::ACKNOWLEDGE | status::DRIVER).unwrap();
        b.write(reg::DRIVER_FEATURES, 0).unwrap();
        b.write(
            reg::STATUS,
            status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK,
        )
        .unwrap();
        assert_eq!(b.read(reg::STATUS).unwrap() & status::DRIVER_OK, 0);
        b.write(
            reg::STATUS,
            status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK | status::DRIVER_OK,
        )
        .unwrap();
        assert_ne!(b.read(reg::STATUS).unwrap() & status::DRIVER_OK, 0);
    }

    #[test]
    fn queue_configuration_is_per_selector() {
        let b = block();
        b.write(reg::QUEUE_SEL, 1).unwrap();
        b.write(reg::QUEUE_NUM, 256).unwrap();
        b.write(reg::QUEUE_DESC_LOW, 0x1000).unwrap();
        b.write(reg::QUEUE_DESC_HIGH, 0x1).unwrap();
        b.write(reg::QUEUE_READY, 1).unwrap();
        let q0 = b.queue(0).unwrap();
        let q1 = b.queue(1).unwrap();
        assert!(!q0.ready);
        assert!(q1.ready);
        assert_eq!(q1.num, 256);
        assert_eq!(q1.desc, 0x1_0000_1000);
    }

    #[test]
    fn notify_and_interrupt_flow() {
        let b = block();
        b.write(reg::QUEUE_NOTIFY, 0).unwrap();
        b.write(reg::QUEUE_NOTIFY, 1).unwrap();
        b.raise_interrupt();
        assert_eq!(b.read(reg::INTERRUPT_STATUS).unwrap(), 1);
        b.write(reg::INTERRUPT_ACK, 1).unwrap();
        assert_eq!(b.read(reg::INTERRUPT_STATUS).unwrap(), 0);
    }

    #[test]
    fn config_space_reads() {
        let mut cfg = vec![0u8; 8];
        cfg[0..4].copy_from_slice(&350u32.to_le_bytes());
        cfg[4..8].copy_from_slice(&64u32.to_le_bytes());
        let b = MmioBlock::new(VIRTIO_ID_PIM, 1, 512, cfg);
        assert_eq!(b.read(reg::CONFIG).unwrap(), 350);
        assert_eq!(b.read(reg::CONFIG + 4).unwrap(), 64);
        assert!(b.read(reg::CONFIG + 8).is_err());
    }

    #[test]
    fn unknown_register_is_error() {
        let b = block();
        assert!(b.read(0x0fc).is_err());
        assert!(b.write(reg::MAGIC_VALUE, 1).is_err());
    }
}
