//! The admission queue: tenants waiting for a rank, ordered by policy.
//!
//! [`AdmissionQueue`] is a plain single-structure queue with no lock of
//! its own: the [`Scheduler`](crate::sched::Scheduler) keeps it inside its
//! one state mutex, next to the ticket counter, leases and accounts.

use serde::{Deserialize, Serialize};
use simkit::sync::Mutex;
use simkit::LockLevel;

/// Ordering policy for the admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedPolicy {
    /// Strict arrival order.
    Fifo,
    /// Weighted-fair queuing: the waiter with the smallest weighted
    /// virtual runtime (`Σ consumed / weight`) goes first, so a tenant
    /// that has had less rank time is served sooner. Ties break by
    /// arrival order.
    WeightedFair,
}

/// One queued rank request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiter {
    /// The requesting tenant (backend owner tag).
    pub tenant: String,
    /// Monotonic arrival ticket (FIFO key).
    pub ticket: u64,
    /// The tenant's weighted virtual runtime at enqueue time, in
    /// virtual nanoseconds (weighted-fair key).
    pub vruntime: u64,
}

/// The scheduler's admission queue. Not thread-safe on its own — the
/// [`Scheduler`](crate::sched::Scheduler) guards it with its state mutex.
#[derive(Debug)]
pub struct AdmissionQueue {
    policy: SchedPolicy,
    waiters: Vec<Waiter>,
}

impl AdmissionQueue {
    /// An empty queue ordered by `policy`.
    #[must_use]
    pub fn new(policy: SchedPolicy) -> Self {
        AdmissionQueue { policy, waiters: Vec::new() }
    }

    /// The queue's policy.
    #[must_use]
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Enqueues a waiter.
    pub fn push(&mut self, tenant: &str, ticket: u64, vruntime: u64) {
        self.waiters.push(Waiter { tenant: tenant.to_string(), ticket, vruntime });
    }

    /// Removes the waiter with `ticket`; returns whether it was present.
    pub fn remove(&mut self, ticket: u64) -> bool {
        match self.waiters.iter().position(|w| w.ticket == ticket) {
            Some(i) => {
                self.waiters.remove(i);
                true
            }
            None => false,
        }
    }

    /// The waiter the policy serves next, if any.
    #[must_use]
    pub fn head(&self) -> Option<&Waiter> {
        match self.policy {
            SchedPolicy::Fifo => self.waiters.iter().min_by_key(|w| w.ticket),
            SchedPolicy::WeightedFair => {
                self.waiters.iter().min_by_key(|w| (w.vruntime, w.ticket))
            }
        }
    }

    /// Number of queued waiters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.waiters.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.waiters.is_empty()
    }

    /// Whether `ticket` is queued.
    #[must_use]
    pub fn contains(&self, ticket: u64) -> bool {
        self.waiters.iter().any(|w| w.ticket == ticket)
    }
}

/// Name kept only for `benchmark/src/replay.rs` (frozen for this PR),
/// whose `host.sched.queue_op_ns` row calls exactly these four methods: an
/// [`AdmissionQueue`] and its ticket counter behind one mutex — the lock +
/// push/head/remove shape the scheduler executes. Nothing else may use it;
/// the next benchmark PR deletes it (ROADMAP's `[benchmark]` item).
#[doc(hidden)]
#[derive(Debug)]
pub struct ShardedAdmissionQueue(Mutex<(AdmissionQueue, u64)>);

impl ShardedAdmissionQueue {
    #[must_use]
    pub fn new(policy: SchedPolicy) -> Self {
        let queue = (AdmissionQueue::new(policy), 0);
        ShardedAdmissionQueue(Mutex::new(LockLevel::SchedState, 0, queue))
    }

    pub fn push(&self, tenant: &str, vruntime: u64) -> u64 {
        let (queue, next_ticket) = &mut *self.0.lock();
        let ticket = *next_ticket;
        *next_ticket += 1;
        queue.push(tenant, ticket, vruntime);
        ticket
    }

    #[must_use]
    pub fn head(&self) -> Option<Waiter> {
        self.0.lock().0.head().cloned()
    }

    pub fn remove_of(&self, _tenant: &str, ticket: u64) -> bool {
        self.0.lock().0.remove(ticket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_serves_in_arrival_order() {
        let mut q = AdmissionQueue::new(SchedPolicy::Fifo);
        q.push("b", 2, 0);
        q.push("a", 1, 999);
        q.push("c", 3, 0);
        assert_eq!(q.head().unwrap().tenant, "a");
        assert!(q.remove(1));
        assert_eq!(q.head().unwrap().tenant, "b");
        assert!(!q.remove(1), "double remove must be a no-op");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn weighted_fair_prefers_least_served() {
        let mut q = AdmissionQueue::new(SchedPolicy::WeightedFair);
        q.push("greedy", 1, 5_000);
        q.push("starved", 2, 100);
        assert_eq!(q.head().unwrap().tenant, "starved");
        // Equal vruntime falls back to arrival order.
        q.push("tied", 3, 100);
        assert_eq!(q.head().unwrap().tenant, "starved");
    }

    #[test]
    fn empty_queue_has_no_head() {
        let q = AdmissionQueue::new(SchedPolicy::Fifo);
        assert!(q.head().is_none());
        assert!(q.is_empty());
        assert!(!q.contains(7));
    }
}
