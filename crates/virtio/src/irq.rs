//! The device interrupt line.
//!
//! When the backend finishes an operation it injects an IRQ to wake the
//! guest driver (§4.2, "the thread injects the IRQ to notify the guest
//! driver to resume execution"). We model the line as a counting event with
//! blocking waiters; the *cost* of an injection is charged by the caller
//! via [`simkit::CostModel::irq_inject_ns`].

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use simkit::{Counter, FaultPlane, InjectCell};

/// The fault point consulted by [`IrqLine::assert_irq`]: firing *delays*
/// the interrupt — the pending count still rises (the completion is real),
/// but no waiter is woken. A sleeping driver recovers transparently on its
/// next wait-slice timeout, which re-examines the pending count.
pub const IRQ_DELAY_POINT: &str = "virtio.irq.delay";

/// A level of pending interrupts plus waiters.
#[derive(Debug, Default)]
struct Line {
    pending: Mutex<u64>,
    cv: Condvar,
    inject: InjectCell,
}

/// A shared interrupt line between a device (asserts) and a driver (waits).
///
/// # Example
///
/// ```
/// use pim_virtio::IrqLine;
///
/// let irq = IrqLine::new(11);
/// irq.assert_irq();
/// assert!(irq.try_take());
/// assert!(!irq.try_take());
/// ```
#[derive(Debug, Clone)]
pub struct IrqLine {
    line: Arc<Line>,
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
        IrqLine {
            line: Arc::new(Line::default()),
            number,
            injections,
        }
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

    /// Installs the fault-injection plane shared by every clone of this
    /// line; [`assert_irq`](Self::assert_irq) then consults
    /// [`IRQ_DELAY_POINT`].
    pub fn install_fault_plane(&self, plane: Arc<FaultPlane>) {
        self.line.inject.install(plane);
    }

    /// Device side: assert the line (one completion). If the
    /// [`IRQ_DELAY_POINT`] fault fires, the interrupt is *delayed*: it is
    /// counted and left pending, but waiters are not woken until their
    /// next timeout slice (or a later assert/nudge).
    pub fn assert_irq(&self) {
        self.injections.inc();
        let mut p = self.line.pending.lock();
        *p += 1;
        drop(p);
        if self.line.inject.hit(IRQ_DELAY_POINT) {
            return;
        }
        self.line.cv.notify_all();
    }

    /// Wakes every blocked waiter without asserting (or counting) an
    /// interrupt. Used by drivers that multiplex one line across several
    /// waiting threads: whoever consumes the interrupt and drains the used
    /// ring nudges the line so the *owners* of the drained completions
    /// re-check their state instead of sleeping on a count that was
    /// consumed on their behalf.
    pub fn nudge(&self) {
        self.line.cv.notify_all();
    }

    /// Driver side: consume one pending interrupt if any.
    #[must_use]
    pub fn try_take(&self) -> bool {
        let mut p = self.line.pending.lock();
        if *p > 0 {
            *p -= 1;
            true
        } else {
            false
        }
    }

    /// Driver side: block until an interrupt arrives or `timeout` passes.
    /// Returns `true` if an interrupt was consumed.
    #[must_use]
    pub fn wait(&self, timeout: Duration) -> bool {
        let mut p = self.line.pending.lock();
        if *p == 0 {
            let _ = self.line.cv.wait_for(&mut p, timeout);
        }
        if *p > 0 {
            *p -= 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn assert_then_take() {
        let irq = IrqLine::new(5);
        assert!(!irq.try_take());
        irq.assert_irq();
        irq.assert_irq();
        assert_eq!(irq.injections(), 2);
        assert!(irq.try_take());
        assert!(irq.try_take());
        assert!(!irq.try_take());
    }

    #[test]
    fn waiter_wakes_on_injection() {
        let irq = IrqLine::new(7);
        let waiter = {
            let irq = irq.clone();
            thread::spawn(move || irq.wait(Duration::from_secs(5)))
        };
        thread::sleep(Duration::from_millis(10));
        irq.assert_irq();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn wait_times_out() {
        let irq = IrqLine::new(9);
        assert!(!irq.wait(Duration::from_millis(5)));
    }

    #[test]
    fn delayed_irq_is_pending_but_silent() {
        use simkit::{FaultPlan, FaultPlane};
        let irq = IrqLine::new(4);
        let plane = Arc::new(FaultPlane::new(0));
        plane.arm(IRQ_DELAY_POINT, FaultPlan::Nth(1));
        irq.install_fault_plane(plane);
        // The delayed assert still counts and still leaves one pending…
        irq.assert_irq();
        assert_eq!(irq.injections(), 1);
        // …so a waiter's timeout slice transparently recovers it.
        assert!(irq.wait(Duration::from_millis(5)));
        // Subsequent asserts (Nth(1) spent) notify normally.
        let waiter = {
            let irq = irq.clone();
            thread::spawn(move || irq.wait(Duration::from_secs(5)))
        };
        thread::sleep(Duration::from_millis(10));
        irq.assert_irq();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn clones_share_state() {
        let a = IrqLine::new(1);
        let b = a.clone();
        a.assert_irq();
        assert!(b.try_take());
        assert_eq!(b.injections(), 1);
    }
}
