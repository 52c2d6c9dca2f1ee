//! The fleet's placement/admission table: which host every tenant lives
//! on and how many ranks each host has committed.
//!
//! The table is the single source of truth for tenant → host homes. All
//! mutations happen under one mutex ordered at
//! [`LockLevel::Placement`](simkit::lockorder::LockLevel::Placement), and
//! every path that changes capacity goes through explicit
//! reserve/commit/release steps so the invariants the proptest suite
//! checks hold at every instant:
//!
//! * a tenant is homed on **at most one host**;
//! * a host's committed ranks **never exceed its capacity**;
//! * migration **conserves** total committed ranks (the destination is
//!   reserved before the source is released, so the transient sum is
//!   *higher*, never lower — capacity is pessimistic during a move).

use std::collections::HashMap;

use crate::error::VpimError;

/// How the fleet picks a host for a new tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// The lowest-indexed host with room (packs the fleet left — the
    /// consolidation-friendly default for migration tests).
    FirstFit,
    /// The host with the fewest committed live ranks; ties go to the
    /// lowest index.
    #[default]
    LeastLoaded,
}

/// Tenant homes plus per-host committed-rank accounting.
#[derive(Debug)]
pub(crate) struct PlacementTable {
    /// Rank capacity per host (physical ranks × the fleet's logical
    /// oversubscription factor).
    capacity: Vec<usize>,
    /// Ranks committed per host (reservations included).
    live: Vec<usize>,
    /// Tenant → home host.
    homes: HashMap<String, usize>,
}

impl PlacementTable {
    pub(crate) fn new(capacity: Vec<usize>) -> Self {
        let live = vec![0; capacity.len()];
        PlacementTable { capacity, live, homes: HashMap::new() }
    }

    /// Picks a host for `tenant` under `policy`, commits `need` ranks on
    /// it, and records the home. Fails with [`VpimError::NoRankAvailable`]
    /// when no host has room and [`VpimError::BadRequest`] when the
    /// tenant is already homed.
    pub(crate) fn place(
        &mut self,
        policy: PlacementPolicy,
        tenant: &str,
        need: usize,
    ) -> Result<usize, VpimError> {
        if self.homes.contains_key(tenant) {
            return Err(VpimError::BadRequest(format!("tenant {tenant} already placed")));
        }
        let n = self.capacity.len();
        let fits = |h: usize| self.live[h] + need <= self.capacity[h];
        let host = match policy {
            PlacementPolicy::FirstFit => (0..n).find(|&h| fits(h)),
            PlacementPolicy::LeastLoaded => {
                (0..n).filter(|&h| fits(h)).min_by_key(|&h| (self.live[h], h))
            }
        };
        let host = host.ok_or(VpimError::NoRankAvailable)?;
        self.live[host] += need;
        self.homes.insert(tenant.to_string(), host);
        Ok(host)
    }

    /// Reserves `need` ranks on `host` without homing anyone there — the
    /// destination half of a migration, taken *before* the source is
    /// touched so a failed move never leaves the fleet overcommitted.
    pub(crate) fn reserve(&mut self, host: usize, need: usize) -> Result<(), VpimError> {
        if self.live[host] + need > self.capacity[host] {
            return Err(VpimError::NoRankAvailable);
        }
        self.live[host] += need;
        Ok(())
    }

    /// Drops a reservation made by [`reserve`](Self::reserve) (migration
    /// aborted before cutover).
    pub(crate) fn unreserve(&mut self, host: usize, need: usize) {
        debug_assert!(self.live[host] >= need, "unreserve below zero");
        self.live[host] -= need;
    }

    /// Commits a migration cutover: re-homes `tenant` from `from` to `to`
    /// and releases the source's committed ranks (the destination's were
    /// already counted by [`reserve`](Self::reserve)).
    pub(crate) fn rehome(&mut self, tenant: &str, from: usize, to: usize, need: usize) {
        debug_assert_eq!(self.homes.get(tenant), Some(&from), "rehome of a foreign tenant");
        debug_assert!(self.live[from] >= need);
        self.homes.insert(tenant.to_string(), to);
        self.live[from] -= need;
    }

    /// Releases a tenant entirely (shutdown path).
    pub(crate) fn release(&mut self, tenant: &str, host: usize, need: usize) {
        debug_assert!(self.live[host] >= need, "release below zero");
        self.homes.remove(tenant);
        self.live[host] -= need;
    }

    /// The home of `tenant`, if placed.
    pub(crate) fn home_of(&self, tenant: &str) -> Option<usize> {
        self.homes.get(tenant).copied()
    }

    /// Committed live ranks on `host`.
    pub(crate) fn live_ranks(&self, host: usize) -> usize {
        self.live[host]
    }

    /// Rank capacity of `host`.
    pub(crate) fn capacity(&self, host: usize) -> usize {
        self.capacity[host]
    }

    /// Every (tenant, home) pair, sorted by tenant for determinism.
    pub(crate) fn placements(&self) -> Vec<(String, usize)> {
        let mut out: Vec<_> = self.homes.iter().map(|(t, &h)| (t.clone(), h)).collect();
        out.sort();
        out
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PlacementTable {
        PlacementTable::new(vec![4, 4, 4])
    }

    #[test]
    fn first_fit_packs_left() {
        let mut t = table();
        assert_eq!(t.place(PlacementPolicy::FirstFit, "a", 2).unwrap(), 0);
        assert_eq!(t.place(PlacementPolicy::FirstFit, "b", 2).unwrap(), 0);
        assert_eq!(t.place(PlacementPolicy::FirstFit, "c", 1).unwrap(), 1);
        assert_eq!(t.live_ranks(0), 4);
        assert_eq!(t.live_ranks(1), 1);
    }

    #[test]
    fn least_loaded_spreads() {
        let mut t = table();
        assert_eq!(t.place(PlacementPolicy::LeastLoaded, "a", 2).unwrap(), 0);
        assert_eq!(t.place(PlacementPolicy::LeastLoaded, "b", 1).unwrap(), 1);
        assert_eq!(t.place(PlacementPolicy::LeastLoaded, "c", 1).unwrap(), 2);
        // 0 has 2 live, 1 and 2 have 1 — tie goes to the lower index.
        assert_eq!(t.place(PlacementPolicy::LeastLoaded, "d", 1).unwrap(), 1);
    }

    #[test]
    fn duplicate_and_full_are_refused() {
        let mut t = PlacementTable::new(vec![1]);
        t.place(PlacementPolicy::FirstFit, "a", 1).unwrap();
        assert!(matches!(
            t.place(PlacementPolicy::FirstFit, "a", 1),
            Err(VpimError::BadRequest(_))
        ));
        assert!(matches!(
            t.place(PlacementPolicy::FirstFit, "b", 1),
            Err(VpimError::NoRankAvailable)
        ));
    }

    #[test]
    fn migration_accounting_reserve_then_rehome() {
        let mut t = table();
        t.place(PlacementPolicy::FirstFit, "a", 2).unwrap();
        t.reserve(1, 2).unwrap();
        // Transiently both sides are committed.
        assert_eq!(t.live_ranks(0) + t.live_ranks(1), 4);
        t.rehome("a", 0, 1, 2);
        assert_eq!(t.home_of("a"), Some(1));
        assert_eq!(t.live_ranks(0), 0);
        assert_eq!(t.live_ranks(1), 2);
        t.release("a", 1, 2);
        assert_eq!(t.homes.len(), 0);
        assert_eq!(t.live_ranks(1), 0);
    }

    #[test]
    fn reserve_respects_capacity() {
        let mut t = PlacementTable::new(vec![2]);
        t.reserve(0, 2).unwrap();
        assert!(matches!(t.reserve(0, 1), Err(VpimError::NoRankAvailable)));
        t.unreserve(0, 2);
        t.reserve(0, 1).unwrap();
    }
}
