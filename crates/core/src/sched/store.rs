//! The host-side parking lot for preempted tenants' rank checkpoints.

use std::collections::HashMap;

use simkit::sync::Mutex;
use simkit::telemetry::{Gauge, MetricsRegistry};
use simkit::LockLevel;
use upmem_sim::rank::RankSnapshot;

/// Why a snapshot could not be parked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Parking the snapshot would exceed the store's byte budget. The
    /// preemption that wanted it is refused — dropping a live tenant's
    /// only copy of its rank state is never acceptable.
    BudgetExceeded {
        /// Bytes the rejected snapshot needs.
        needed: u64,
        /// Bytes already parked.
        used: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::BudgetExceeded { needed, used, budget } => write!(
                f,
                "snapshot store budget exceeded: need {needed} B with {used} B of {budget} B used"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

#[derive(Debug)]
struct Parked {
    snap: RankSnapshot,
    bytes: u64,
}

/// Parked rank checkpoints, keyed by tenant, under an eviction budget.
///
/// A tenant has at most one parked snapshot (re-parking replaces it). The
/// budget bounds host memory: a park that would overflow it fails with
/// [`StoreError::BudgetExceeded`] and the caller must keep the tenant on
/// its rank instead — parked state is a tenant's only copy, so the store
/// never evicts behind a live tenant's back. Eviction happens only when
/// the tenant itself releases ([`evict`](Self::evict)) or re-grants
/// ([`take`](Self::take)).
#[derive(Debug)]
pub struct SnapshotStore {
    budget_bytes: u64,
    inner: Mutex<HashMap<String, Parked>>,
    /// Mirrors total parked bytes into a registry gauge when constructed
    /// via [`with_registry`](Self::with_registry).
    bytes_gauge: Option<Gauge>,
}

impl SnapshotStore {
    /// A store bounded to `budget_bytes` (0 = unlimited).
    #[must_use]
    pub fn new(budget_bytes: u64) -> Self {
        SnapshotStore {
            budget_bytes,
            inner: Mutex::new(LockLevel::Snapshots, 0, HashMap::new()),
            bytes_gauge: None,
        }
    }

    /// A store that mirrors its total parked bytes into `registry`'s
    /// `gauge_name` gauge (the scheduler publishes `snapshot.bytes`, the
    /// fleet's in-flight migration store `migrate.inflight.bytes`). The
    /// gauge tracks every park/take/evict delta exactly.
    #[must_use]
    pub fn with_registry(budget_bytes: u64, registry: &MetricsRegistry, gauge_name: &str) -> Self {
        SnapshotStore {
            budget_bytes,
            inner: Mutex::new(LockLevel::Snapshots, 0, HashMap::new()),
            bytes_gauge: Some(registry.gauge(gauge_name)),
        }
    }

    /// The configured budget in bytes (0 = unlimited).
    #[must_use]
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Parks `tenant`'s checkpoint; returns its accounted size.
    ///
    /// # Errors
    ///
    /// [`StoreError::BudgetExceeded`] when it does not fit (an existing
    /// snapshot of the *same* tenant is counted as replaced, not added).
    pub fn park(&self, tenant: &str, snap: RankSnapshot) -> Result<u64, StoreError> {
        let bytes = snap.resident_bytes() as u64;
        let mut inner = self.inner.lock();
        let used: u64 = inner
            .iter()
            .filter(|(t, _)| t.as_str() != tenant)
            .map(|(_, p)| p.bytes)
            .sum();
        if self.budget_bytes > 0 && used.saturating_add(bytes) > self.budget_bytes {
            return Err(StoreError::BudgetExceeded {
                needed: bytes,
                used,
                budget: self.budget_bytes,
            });
        }
        let replaced = inner.insert(tenant.to_string(), Parked { snap, bytes });
        if let Some(g) = &self.bytes_gauge {
            g.add(bytes as i64 - replaced.map_or(0, |p| p.bytes as i64));
        }
        Ok(bytes)
    }

    /// Removes and returns `tenant`'s parked checkpoint (the restore half
    /// of a re-grant).
    #[must_use]
    pub fn take(&self, tenant: &str) -> Option<RankSnapshot> {
        let parked = self.inner.lock().remove(tenant);
        if let (Some(g), Some(p)) = (&self.bytes_gauge, &parked) {
            g.sub(p.bytes as i64);
        }
        parked.map(|p| p.snap)
    }

    /// Drops `tenant`'s parked checkpoint without restoring it (tenant
    /// shut down); returns whether one existed.
    pub fn evict(&self, tenant: &str) -> bool {
        let parked = self.inner.lock().remove(tenant);
        if let (Some(g), Some(p)) = (&self.bytes_gauge, &parked) {
            g.sub(p.bytes as i64);
        }
        parked.is_some()
    }

    /// Whether `tenant` has a parked checkpoint.
    #[must_use]
    pub fn contains(&self, tenant: &str) -> bool {
        self.inner.lock().contains_key(tenant)
    }

    /// Total parked bytes.
    #[must_use]
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().values().map(|p| p.bytes).sum()
    }

    /// Number of parked checkpoints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upmem_sim::geometry::PimConfig;
    use upmem_sim::Rank;

    fn snap_with_bytes(n: usize) -> RankSnapshot {
        let rank = Rank::new(0, &PimConfig::small());
        rank.write_mram(0, 0, &vec![7u8; n]).unwrap();
        rank.snapshot()
    }

    #[test]
    fn park_take_roundtrip() {
        let store = SnapshotStore::new(0);
        let snap = snap_with_bytes(128);
        let bytes = store.park("vm-a", snap).unwrap();
        assert!(bytes >= 128);
        assert!(store.contains("vm-a"));
        assert_eq!(store.len(), 1);
        let back = store.take("vm-a").unwrap();
        assert!(back.resident_bytes() >= 128);
        assert!(store.is_empty());
        assert!(store.take("vm-a").is_none());
    }

    #[test]
    fn budget_refuses_overflow_but_allows_replacement() {
        let snap = snap_with_bytes(4096);
        let one = snap.resident_bytes() as u64;
        let store = SnapshotStore::new(one + one / 2); // fits one, not two
        store.park("vm-a", snap.clone()).unwrap();
        assert!(matches!(
            store.park("vm-b", snap.clone()),
            Err(StoreError::BudgetExceeded { .. })
        ));
        // Re-parking the same tenant replaces, so it still fits.
        store.park("vm-a", snap).unwrap();
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn evict_discards() {
        let store = SnapshotStore::new(0);
        store.park("vm-a", snap_with_bytes(8)).unwrap();
        assert!(store.evict("vm-a"));
        assert!(!store.evict("vm-a"));
        assert_eq!(store.used_bytes(), 0);
    }

    #[test]
    fn registry_gauge_tracks_every_delta() {
        let registry = MetricsRegistry::new();
        let store = SnapshotStore::with_registry(0, &registry, "snapshot.bytes");
        let gauge = registry.gauge("snapshot.bytes");
        assert_eq!(gauge.get(), 0);

        let small = store.park("vm-a", snap_with_bytes(64)).unwrap();
        assert_eq!(gauge.get() as u64, small);

        // Replacement adjusts by the delta, not the sum.
        let big = store.park("vm-a", snap_with_bytes(4096)).unwrap();
        assert_eq!(gauge.get() as u64, big);

        let other = store.park("vm-b", snap_with_bytes(128)).unwrap();
        assert_eq!(gauge.get() as u64, big + other);

        let _ = store.take("vm-a");
        assert_eq!(gauge.get() as u64, other);
        assert!(store.evict("vm-b"));
        assert_eq!(gauge.get(), 0);
    }
}
