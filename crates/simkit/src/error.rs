//! Shared error classification across all vPIM layers.
//!
//! Every crate in the workspace keeps its own structured error enum (the
//! variants carry layer-specific payloads: offsets, rank ids, symbol names),
//! but callers and tests frequently only care about the *class* of failure —
//! "was this an out-of-bounds access?" "did a resource pool run dry?" — and
//! matching on display strings is brittle. [`ErrorKind`] is the common
//! vocabulary; each error type implements [`HasErrorKind`] to map its
//! variants onto it. Wrapper variants (`SdkError::Sim(..)` etc.) delegate to
//! the wrapped error so the kind survives `From` conversions unchanged.

use core::fmt;

/// Coarse classification of a failure, shared by every layer's error enum.
///
/// The mapping contract: converting an error across layers (via `From`)
/// must preserve its kind. Tests assert on kinds, not display strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// An access landed outside the valid address range (MRAM/WRAM bounds,
    /// descriptor past the end of guest memory, ...).
    OutOfBounds,
    /// A finite pool ran dry: WRAM/IRAM capacity, virtqueue slots, shared
    /// page pool, free ranks.
    ResourceExhausted,
    /// The caller passed an argument that can never be valid (bad rank or
    /// DPU index, zero tasklets, buffer-count mismatch).
    InvalidInput,
    /// A named entity (kernel, symbol) does not exist.
    NotFound,
    /// The operation is valid but cannot proceed in the current state
    /// (no program loaded, manager down, device not ready).
    Unavailable,
    /// The resource exists but is held by someone else right now.
    Busy,
    /// Simulated hardware raised a fault while executing.
    Fault,
    /// A transport-level protocol violation (malformed descriptor chain,
    /// bad virtio header, unexpected response).
    Protocol,
    /// An internal invariant broke; indicates a bug rather than bad input.
    Internal,
    /// A transient failure raised by the deterministic fault-injection
    /// plane ([`crate::inject`]). The defining property: retrying the
    /// operation is always safe and (plan permitting) can succeed.
    Injected,
}

impl ErrorKind {
    /// Stable wire code, used by transports that must carry a kind across
    /// an encoded boundary (e.g. the vPIM status page). `0` is reserved for
    /// "no error".
    pub const fn code(&self) -> u32 {
        match self {
            ErrorKind::OutOfBounds => 1,
            ErrorKind::ResourceExhausted => 2,
            ErrorKind::InvalidInput => 3,
            ErrorKind::NotFound => 4,
            ErrorKind::Unavailable => 5,
            ErrorKind::Busy => 6,
            ErrorKind::Fault => 7,
            ErrorKind::Protocol => 8,
            ErrorKind::Internal => 9,
            ErrorKind::Injected => 10,
        }
    }

    /// Decodes a wire code produced by [`ErrorKind::code`]. Unknown codes
    /// (including the reserved `0`) return `None`.
    #[must_use]
    pub const fn from_code(code: u32) -> Option<Self> {
        Some(match code {
            1 => ErrorKind::OutOfBounds,
            2 => ErrorKind::ResourceExhausted,
            3 => ErrorKind::InvalidInput,
            4 => ErrorKind::NotFound,
            5 => ErrorKind::Unavailable,
            6 => ErrorKind::Busy,
            7 => ErrorKind::Fault,
            8 => ErrorKind::Protocol,
            9 => ErrorKind::Internal,
            10 => ErrorKind::Injected,
            _ => return None,
        })
    }

    /// Stable lower-snake name, handy for metrics labels and logs.
    pub const fn as_str(&self) -> &'static str {
        match self {
            ErrorKind::OutOfBounds => "out_of_bounds",
            ErrorKind::ResourceExhausted => "resource_exhausted",
            ErrorKind::InvalidInput => "invalid_input",
            ErrorKind::NotFound => "not_found",
            ErrorKind::Unavailable => "unavailable",
            ErrorKind::Busy => "busy",
            ErrorKind::Fault => "fault",
            ErrorKind::Protocol => "protocol",
            ErrorKind::Internal => "internal",
            ErrorKind::Injected => "injected",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Implemented by every layer's error enum to expose its [`ErrorKind`].
pub trait HasErrorKind {
    /// The coarse classification of this error.
    fn kind(&self) -> ErrorKind;
}

impl<T: HasErrorKind + ?Sized> HasErrorKind for &T {
    fn kind(&self) -> ErrorKind {
        (**self).kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_codes_round_trip() {
        for k in [
            ErrorKind::OutOfBounds,
            ErrorKind::ResourceExhausted,
            ErrorKind::InvalidInput,
            ErrorKind::NotFound,
            ErrorKind::Unavailable,
            ErrorKind::Busy,
            ErrorKind::Fault,
            ErrorKind::Protocol,
            ErrorKind::Internal,
            ErrorKind::Injected,
        ] {
            assert_ne!(k.code(), 0, "0 is reserved for no-error");
            assert_eq!(ErrorKind::from_code(k.code()), Some(k));
        }
        assert_eq!(ErrorKind::from_code(0), None);
        assert_eq!(ErrorKind::from_code(999), None);
    }

    #[test]
    fn as_str_is_stable() {
        assert_eq!(ErrorKind::OutOfBounds.as_str(), "out_of_bounds");
        assert_eq!(ErrorKind::ResourceExhausted.to_string(), "resource_exhausted");
    }

    #[test]
    fn kind_through_reference() {
        struct E;
        impl HasErrorKind for E {
            fn kind(&self) -> ErrorKind {
                ErrorKind::Busy
            }
        }
        let e = E;
        assert_eq!(e.kind(), ErrorKind::Busy);
        assert_eq!(HasErrorKind::kind(&&e), ErrorKind::Busy);
    }

    #[test]
    fn kinds_are_comparable_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(ErrorKind::Fault);
        assert!(s.contains(&ErrorKind::Fault));
        assert_ne!(ErrorKind::Fault, ErrorKind::Protocol);
    }
}
