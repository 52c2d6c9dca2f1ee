//! The vPIM error type.

use core::fmt;

use pim_virtio::VirtioError;
use pim_vmm::VmmError;
use simkit::{ErrorKind, HasErrorKind};
use upmem_driver::DriverError;
use upmem_sim::SimError;

/// Errors raised by the vPIM stack.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VpimError {
    /// The virtio transport failed.
    Virtio(VirtioError),
    /// The VMM rejected an operation.
    Vmm(String),
    /// The host driver rejected an operation.
    Driver(DriverError),
    /// The simulated hardware rejected an operation.
    Sim(SimError),
    /// The manager could not satisfy a rank allocation (all retries
    /// exhausted — §3.5 "the request is abandoned").
    NoRankAvailable,
    /// The manager has shut down.
    ManagerDown,
    /// A queued rank request waited out the scheduler's admission timeout
    /// without a grant (oversubscribed hosts only; carries the tenant).
    AdmissionTimeout(String),
    /// The vUPMEM device is not linked to a physical rank (Appendix A.1:
    /// requests must not be sent while unlinked).
    NotLinked,
    /// A request decoded to something malformed.
    BadRequest(String),
    /// A transfer exceeded a protocol bound (e.g. > 64 DPUs in a matrix).
    ProtocolViolation(String),
    /// An error reported by the backend across the virtio transport. The
    /// structured cause cannot cross the ring, but its [`ErrorKind`] does
    /// (carried in the status page), so classification survives.
    Remote {
        /// The backend-side error class.
        kind: ErrorKind,
        /// The backend's rendered error message.
        message: String,
    },
    /// A transient failure raised by the deterministic fault-injection
    /// plane at a frontend-visible site (e.g. a dropped guest kick).
    /// Retrying is always safe; see [`VpimError::is_transient`].
    Injected {
        /// The fault point that fired (e.g. `vmm.kick.drop`).
        point: &'static str,
    },
}

impl VpimError {
    /// True when the failure came from the fault-injection plane (at any
    /// layer) and retrying the operation is therefore always safe. This is
    /// deliberately narrower than "retryable-looking": e.g. `NotLinked` and
    /// `ManagerDown` are [`ErrorKind::Unavailable`] states that a retry
    /// cannot fix and must fail fast.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        self.kind() == ErrorKind::Injected
    }
}

impl fmt::Display for VpimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VpimError::Virtio(e) => write!(f, "virtio: {e}"),
            VpimError::Vmm(msg) => write!(f, "vmm: {msg}"),
            VpimError::Driver(e) => write!(f, "driver: {e}"),
            VpimError::Sim(e) => write!(f, "hardware: {e}"),
            VpimError::NoRankAvailable => write!(f, "no rank available after all retries"),
            VpimError::ManagerDown => write!(f, "the vpim manager has shut down"),
            VpimError::AdmissionTimeout(tenant) => {
                write!(f, "admission queue timed out before `{tenant}` was granted a rank")
            }
            VpimError::NotLinked => write!(f, "vupmem device is not linked to a physical rank"),
            VpimError::BadRequest(msg) => write!(f, "malformed request: {msg}"),
            VpimError::ProtocolViolation(msg) => write!(f, "protocol violation: {msg}"),
            VpimError::Remote { message, .. } => write!(f, "backend: {message}"),
            VpimError::Injected { point } => {
                write!(f, "transient failure (injected at {point})")
            }
        }
    }
}

impl std::error::Error for VpimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VpimError::Virtio(e) => Some(e),
            VpimError::Driver(e) => Some(e),
            VpimError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VirtioError> for VpimError {
    fn from(e: VirtioError) -> Self {
        VpimError::Virtio(e)
    }
}

impl From<DriverError> for VpimError {
    fn from(e: DriverError) -> Self {
        VpimError::Driver(e)
    }
}

impl From<SimError> for VpimError {
    fn from(e: SimError) -> Self {
        VpimError::Sim(e)
    }
}

impl From<VmmError> for VpimError {
    fn from(e: VmmError) -> Self {
        match e {
            // Keep the injected classification: a dropped kick must stay
            // distinguishable (and transient) after crossing into vpim.
            VmmError::KickDropped => VpimError::Injected { point: pim_vmm::KICK_DROP_POINT },
            VmmError::Virtio(v) => VpimError::Virtio(v),
            other => VpimError::Vmm(other.to_string()),
        }
    }
}

impl HasErrorKind for VpimError {
    fn kind(&self) -> ErrorKind {
        match self {
            VpimError::Virtio(e) => e.kind(),
            VpimError::Driver(e) => e.kind(),
            VpimError::Sim(e) => e.kind(),
            // The VMM arm carries only a rendered message (transport replies
            // cross the virtio ring as strings), so classify conservatively.
            VpimError::Vmm(_) => ErrorKind::Protocol,
            VpimError::NoRankAvailable | VpimError::AdmissionTimeout(_) => {
                ErrorKind::ResourceExhausted
            }
            VpimError::ManagerDown | VpimError::NotLinked => ErrorKind::Unavailable,
            VpimError::BadRequest(_) => ErrorKind::InvalidInput,
            VpimError::ProtocolViolation(_) => ErrorKind::Protocol,
            VpimError::Remote { kind, .. } => *kind,
            VpimError::Injected { .. } => ErrorKind::Injected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        use std::error::Error;
        let e: VpimError = VirtioError::QueueFull.into();
        assert!(e.source().is_some());
        let e: VpimError = SimError::InvalidRank(1).into();
        assert!(e.to_string().contains("hardware"));
        assert!(VpimError::NoRankAvailable.source().is_none());
    }

    #[test]
    fn kind_survives_layer_conversions() {
        let e: VpimError = SimError::MramOutOfBounds { offset: 1, len: 2, capacity: 1 }.into();
        assert_eq!(e.kind(), ErrorKind::OutOfBounds);
        let e: VpimError = VirtioError::QueueFull.into();
        assert_eq!(e.kind(), ErrorKind::ResourceExhausted);
        let e: VpimError = DriverError::RankInUse { rank: 0, owner: "x".into() }.into();
        assert_eq!(e.kind(), ErrorKind::Busy);
        assert_eq!(VpimError::NoRankAvailable.kind(), ErrorKind::ResourceExhausted);
        assert_eq!(VpimError::ManagerDown.kind(), ErrorKind::Unavailable);
    }

    #[test]
    fn is_send_sync() {
        fn f<T: Send + Sync>() {}
        f::<VpimError>();
    }
}
