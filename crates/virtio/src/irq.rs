//! The device interrupt line.
//!
//! When the backend finishes an operation it injects an IRQ to wake the
//! guest driver (§4.2, "the thread injects the IRQ to notify the guest
//! driver to resume execution"). Nothing waits on the line: the guest
//! resumes when its kick's handler has returned, and a device handles its
//! requests one at a time in avail-ring order, so a returned handler means
//! every earlier request is complete. The line is therefore its number and
//! its injection count; the *cost* of an injection is charged by the caller
//! via [`simkit::CostModel::irq_inject_ns`].

use simkit::Counter;

/// A device's interrupt line: its number and how often it was asserted.
///
/// # Example
///
/// ```
/// use pim_virtio::IrqLine;
///
/// let irq = IrqLine::new(11);
/// irq.assert_irq();
/// assert_eq!(irq.injections(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IrqLine {
    number: u32,
    injections: Counter,
}

impl IrqLine {
    /// Creates line `number` (the GSI advertised on the kernel cmdline).
    #[must_use]
    pub fn new(number: u32) -> Self {
        Self::with_counter(number, Counter::new())
    }

    /// Creates line `number` recording injections into an existing cell —
    /// pass a registry-owned counter (e.g. `virtio.irq.injections`) so
    /// several lines aggregate into one metric.
    #[must_use]
    pub fn with_counter(number: u32, injections: Counter) -> Self {
        IrqLine { number, injections }
    }

    /// The interrupt number.
    #[must_use]
    pub fn number(&self) -> u32 {
        self.number
    }

    /// Total injections so far (telemetry for the figure harness).
    #[must_use]
    pub fn injections(&self) -> u64 {
        self.injections.get()
    }

    /// Device side: assert the line (one completion).
    pub fn assert_irq(&self) {
        self.injections.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_injection_count() {
        let a = IrqLine::new(1);
        let b = a.clone();
        a.assert_irq();
        b.assert_irq();
        assert_eq!(a.injections(), 2);
        assert_eq!(b.injections(), 2);
        assert_eq!(b.number(), 1);
    }
}
