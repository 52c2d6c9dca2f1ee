//! SDK error type.

use core::fmt;

use simkit::{ErrorKind, HasErrorKind};
use upmem_driver::DriverError;
use upmem_sim::SimError;
use vpim::VpimError;

/// Errors surfaced by the SDK mirror.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SdkError {
    /// Not enough DPUs available in the environment.
    NotEnoughDpus {
        /// DPUs requested.
        requested: usize,
        /// DPUs available.
        available: usize,
    },
    /// A per-DPU buffer vector did not match the set size.
    BufferCountMismatch {
        /// Expected buffers (set size).
        expected: usize,
        /// Provided buffers.
        got: usize,
    },
    /// An out-of-range DPU index within the set.
    BadDpuIndex(usize),
    /// A transfer-buffer access outside the buffer.
    BufferRange {
        /// First byte accessed.
        offset: usize,
        /// Bytes accessed.
        len: usize,
        /// The buffer's length.
        size: usize,
    },
    /// The native driver rejected an operation.
    Driver(DriverError),
    /// The simulated hardware rejected an operation.
    Sim(SimError),
    /// The vPIM stack rejected an operation.
    Vpim(VpimError),
}

impl fmt::Display for SdkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdkError::NotEnoughDpus { requested, available } => {
                write!(f, "requested {requested} dpus but only {available} are available")
            }
            SdkError::BufferCountMismatch { expected, got } => {
                write!(f, "expected {expected} per-dpu buffers, got {got}")
            }
            SdkError::BadDpuIndex(i) => write!(f, "dpu index {i} is outside the set"),
            SdkError::BufferRange { offset, len, size } => {
                write!(f, "bytes {offset}+{len} outside a {size}-byte transfer buffer")
            }
            SdkError::Driver(e) => write!(f, "driver: {e}"),
            SdkError::Sim(e) => write!(f, "hardware: {e}"),
            SdkError::Vpim(e) => write!(f, "vpim: {e}"),
        }
    }
}

impl std::error::Error for SdkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SdkError::Driver(e) => Some(e),
            SdkError::Sim(e) => Some(e),
            SdkError::Vpim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DriverError> for SdkError {
    fn from(e: DriverError) -> Self {
        SdkError::Driver(e)
    }
}

impl From<SimError> for SdkError {
    fn from(e: SimError) -> Self {
        SdkError::Sim(e)
    }
}

impl From<VpimError> for SdkError {
    fn from(e: VpimError) -> Self {
        SdkError::Vpim(e)
    }
}

impl HasErrorKind for SdkError {
    fn kind(&self) -> ErrorKind {
        match self {
            SdkError::NotEnoughDpus { .. } => ErrorKind::ResourceExhausted,
            SdkError::BufferCountMismatch { .. } | SdkError::BadDpuIndex(_) => {
                ErrorKind::InvalidInput
            }
            SdkError::BufferRange { .. } => ErrorKind::OutOfBounds,
            SdkError::Driver(e) => e.kind(),
            SdkError::Sim(e) => e.kind(),
            SdkError::Vpim(e) => e.kind(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e = SdkError::NotEnoughDpus { requested: 100, available: 8 };
        assert!(e.to_string().contains("100"));
        let e: SdkError = SimError::InvalidDpu(3).into();
        assert!(matches!(e, SdkError::Sim(_)));
        let e: SdkError = VpimError::NoRankAvailable.into();
        assert!(matches!(e, SdkError::Vpim(_)));
    }

    #[test]
    fn kind_survives_nested_conversions() {
        let e: SdkError = SimError::MramOutOfBounds { offset: 8, len: 8, capacity: 4 }.into();
        assert_eq!(e.kind(), ErrorKind::OutOfBounds);
        let e: SdkError = VpimError::NoRankAvailable.into();
        assert_eq!(e.kind(), ErrorKind::ResourceExhausted);
        let e = SdkError::NotEnoughDpus { requested: 100, available: 8 };
        assert_eq!(e.kind(), ErrorKind::ResourceExhausted);
        let e = SdkError::BadDpuIndex(7);
        assert_eq!(e.kind(), ErrorKind::InvalidInput);
    }

    #[test]
    fn is_send_sync() {
        fn f<T: Send + Sync>() {}
        f::<SdkError>();
    }
}
