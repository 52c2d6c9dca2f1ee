//! The modeled inter-host network link snapshots ship over.
//!
//! Transfer time is **virtual**: a pure integer function of the byte
//! count and a 25 GbE-class datacenter link's latency
//! ([`LINK_LATENCY_NS`]) and bandwidth ([`LINK_GBITS_PER_SEC`]), charged
//! through the same virtual-clock accounting as every other cost — so
//! migration reports are bit-identical across device and thread counts,
//! exactly like [`LoadReport`]s.
//!
//! The link is *serialized*: one transfer occupies it at a time (its
//! mutex orders at [`LockLevel::Link`], **inside** `RankSlot` — shipping
//! happens while the source ranks are quiesced under their slot locks,
//! and that hold window is the migration's downtime). Each transfer
//! consults the `cluster.link.drop` fault point first, so a chaos
//! schedule can sever the wire mid-migration deterministically.
//!
//! [`LoadReport`]: crate::load::LoadReport

use simkit::lockorder::LockLevel;
use simkit::sync::Mutex;
use simkit::telemetry::{Counter, MetricsRegistry, TimeCounter};
use simkit::{InjectCell, VirtualNanos};

use crate::error::VpimError;

/// The fault point a [`Link`] consults before every transfer
/// (`cluster.link.drop`; armed via
/// [`FaultSite::LinkDrop`](crate::config::FaultSite::LinkDrop)).
pub const LINK_DROP_POINT: &str = "cluster.link.drop";

/// One-way latency per transfer: 50 µs.
pub const LINK_LATENCY_NS: u64 = 50_000;

/// Link bandwidth: 25 Gbit/s.
pub const LINK_GBITS_PER_SEC: u64 = 25;

/// The fleet's inter-host link: serialized, cost-modeled, fault-injectable.
#[derive(Debug)]
pub struct Link {
    /// One transfer at a time ([`LockLevel::Link`]).
    busy: Mutex<()>,
    inject: InjectCell,
    /// `cluster.link.bytes` — payload bytes shipped.
    bytes: Counter,
    /// `cluster.link.transfers` — completed transfers.
    transfers: Counter,
    /// `cluster.link.drops` — transfers severed by the fault plane.
    drops: Counter,
    /// `cluster.link.vt` — virtual time spent on the wire.
    vt: TimeCounter,
}

impl Link {
    /// A link publishing `cluster.link.*` telemetry into `registry`.
    #[must_use]
    pub fn with_registry(registry: &MetricsRegistry) -> Self {
        Link {
            busy: Mutex::new(LockLevel::Link, 0, ()),
            inject: InjectCell::new(),
            bytes: registry.counter("cluster.link.bytes"),
            transfers: registry.counter("cluster.link.transfers"),
            drops: registry.counter("cluster.link.drops"),
            vt: registry.time("cluster.link.vt"),
        }
    }

    /// Routes `cluster.link.drop` hits through `plane`.
    pub fn install_fault_plane(&self, plane: std::sync::Arc<simkit::FaultPlane>) {
        self.inject.install(plane);
    }

    /// Virtual wire time for `bytes`: latency + serialization at the
    /// link's bandwidth, pure integer math.
    #[must_use]
    pub fn transfer_cost(&self, bytes: u64) -> VirtualNanos {
        // bits / gbits-per-sec = nanoseconds exactly.
        VirtualNanos::from_nanos(LINK_LATENCY_NS + bytes.saturating_mul(8) / LINK_GBITS_PER_SEC)
    }

    /// Ships `bytes` over the link and returns the virtual transfer time.
    ///
    /// # Errors
    ///
    /// [`VpimError::Injected`] when the armed `cluster.link.drop` schedule
    /// fires (the payload is considered lost; the caller rolls back).
    pub fn ship(&self, bytes: u64) -> Result<VirtualNanos, VpimError> {
        let _busy = self.busy.lock();
        if self.inject.hit(LINK_DROP_POINT) {
            self.drops.inc();
            return Err(VpimError::Injected { point: LINK_DROP_POINT });
        }
        let cost = self.transfer_cost(bytes);
        self.bytes.add(bytes);
        self.transfers.inc();
        self.vt.add(cost);
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{FaultPlan, FaultPlane};
    use std::sync::Arc;

    #[test]
    fn cost_is_pure_integer_latency_plus_serialization() {
        let reg = MetricsRegistry::new();
        let link = Link::with_registry(&reg);
        // 25 Gbit/s = 3.125 bytes/ns: 4000 B serializes in 1280 ns.
        assert_eq!(link.transfer_cost(4000).as_nanos(), 50_000 + 1_280);
        assert_eq!(link.transfer_cost(0).as_nanos(), 50_000);
    }

    #[test]
    fn ship_publishes_telemetry() {
        let reg = MetricsRegistry::new();
        let link = Link::with_registry(&reg);
        let a = link.ship(1024).unwrap();
        let b = link.ship(1024).unwrap();
        assert_eq!(a, b, "same bytes, same virtual cost");
        let snap = reg.snapshot();
        assert_eq!(snap.count("cluster.link.bytes"), 2048);
        assert_eq!(snap.count("cluster.link.transfers"), 2);
        assert_eq!(snap.count("cluster.link.drops"), 0);
        assert_eq!(snap.time("cluster.link.vt"), a + b);
    }

    #[test]
    fn armed_drop_severs_the_wire() {
        let reg = MetricsRegistry::new();
        let link = Link::with_registry(&reg);
        let plane = Arc::new(FaultPlane::with_registry(7, &reg));
        plane.arm(LINK_DROP_POINT, FaultPlan::Nth(1));
        link.install_fault_plane(plane);
        assert!(matches!(
            link.ship(64),
            Err(VpimError::Injected { point }) if point == LINK_DROP_POINT
        ));
        // Schedule exhausted: the retry succeeds.
        assert!(link.ship(64).is_ok());
        assert_eq!(reg.snapshot().count("cluster.link.drops"), 1);
    }
}
