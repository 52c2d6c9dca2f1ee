//! Session execution (phase A) and the virtual-time queueing model
//! (phase B) behind [`LoadHarness`](crate::load::LoadHarness).
//!
//! Phase A really executes every session body — launch a tenant VM
//! through the admission path, run the scripted ops, release — and
//! measures each op's *virtual* cost. All randomness comes from
//! [`SimRng::stream`] keyed by the session index, so the measurements are
//! a pure function of `(seed, index)` and identical whether the bodies run
//! sequentially or on a worker pool.
//!
//! Phase B replays the measured service times through a c-server FCFS
//! queue fed by the open-loop arrival trace — pure integer math, so the
//! service-level outcome (waits, sojourns, giveups, peak concurrency) is
//! bit-identical everywhere.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use simkit::{SimRng, VirtualNanos, VtHistogram, WorkerPool};

use crate::load::tenant::TenantMix;
use crate::load::{Execution, LoadSpec};
use crate::system::VpimSystem;

/// What phase A measured for one session. Everything here is a pure
/// function of `(base seed, session index, mix)`.
#[derive(Debug, Clone)]
pub(crate) struct SessionRun {
    /// Index of the chosen profile in the mix.
    pub profile: usize,
    /// Total service time in virtual nanoseconds (op costs + think gaps).
    pub service_ns: u64,
    /// Virtual cost of each scripted op, in script order (`u64::MAX`
    /// marks a failed op).
    pub op_costs: Vec<u64>,
    /// Commutative fold of the ops' checksums.
    pub checksum: u64,
    /// True when the VM never launched (the session is dropped from the
    /// queueing model entirely).
    pub launch_failed: bool,
}

/// Sentinel cost marking a failed op inside [`SessionRun::op_costs`].
pub(crate) const FAILED_OP: u64 = u64::MAX;

/// Executes session `idx`: profile draw, VM launch, scripted ops with
/// closed-loop think gaps, release. Never panics on workload errors —
/// failures are recorded in the result so the report stays total.
fn run_session(sys: &VpimSystem, mix: &TenantMix, seed: u64, idx: usize) -> SessionRun {
    let mut rng = SimRng::stream(seed, idx as u64);
    let pi = mix.pick(&mut rng);
    let profile = &mix.profiles()[pi];
    // Per-op seeds are drawn *before* any execution so a retried launch
    // cannot shift the stream.
    let op_seeds: Vec<u64> =
        profile.ops().iter().map(|_| u64::from(rng.u32()) << 32 | u64::from(rng.u32())).collect();
    let think: Vec<u64> = profile
        .ops()
        .iter()
        .map(|_| if profile.think_mean() == 0 { 0 } else { rng.exp_gap_ns(profile.think_mean()) })
        .collect();

    let spec = profile
        .template()
        .clone()
        .retag(format!("{}-s{idx}", profile.name()));
    // Released ranks come back through an asynchronous observer; admission
    // can transiently find none available.
    let Ok(vm) = sys.launch_with_retry(&spec) else {
        return SessionRun {
            profile: pi,
            service_ns: 0,
            op_costs: Vec::new(),
            checksum: 0,
            launch_failed: true,
        };
    };

    let mut service_ns = 0u64;
    let mut checksum = 0u64;
    let mut op_costs = Vec::with_capacity(profile.ops().len());
    for (j, op) in profile.ops().iter().enumerate() {
        match op.run(&vm, op_seeds[j]) {
            Ok(out) => {
                service_ns = service_ns.saturating_add(out.cost.as_nanos());
                checksum = checksum.wrapping_add(out.checksum);
                op_costs.push(out.cost.as_nanos());
            }
            Err(_) => op_costs.push(FAILED_OP),
        }
        service_ns = service_ns.saturating_add(think[j]);
    }
    let _ = vm.release_all();
    drop(vm);
    SessionRun { profile: pi, service_ns, op_costs, checksum, launch_failed: false }
}

/// Phase A for a whole run: executes every session body of `spec` on the
/// host `host_of(session index)` names, in the spec's execution mode.
/// `default_workers` sizes the pool when the spec leaves it on auto.
pub(crate) fn run_sessions<'a>(
    spec: &LoadSpec,
    mix: &TenantMix,
    default_workers: usize,
    host_of: impl Fn(usize) -> &'a Arc<VpimSystem>,
) -> Vec<SessionRun> {
    let (n, seed) = (spec.n_sessions(), spec.seed());
    match spec.execution_mode() {
        Execution::Sequential => (0..n).map(|i| run_session(host_of(i), mix, seed, i)).collect(),
        Execution::Pooled => {
            let workers = match spec.worker_threads() {
                0 => default_workers,
                w => w,
            };
            let pool = WorkerPool::new(workers.max(1));
            let mix = Arc::new(mix.clone());
            let jobs = (0..n)
                .map(|i| {
                    let sys = host_of(i).clone();
                    let mix = mix.clone();
                    move || run_session(&sys, &mix, seed, i)
                })
                .collect::<Vec<_>>();
            pool.run_all(jobs)
        }
    }
}

/// The queueing model's verdict on one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Started at `.0`, departed at `.1` (virtual nanoseconds).
    Served(u64, u64),
    /// Waited past its patience and left at `arrival + patience`.
    GaveUp(u64),
    /// Never launched in phase A; absent from the queue entirely.
    Failed,
}

/// Everything phase B derives from the arrival trace and service times.
#[derive(Debug, Clone)]
pub(crate) struct QueueOutcome {
    pub admissions: Vec<Admission>,
    pub giveups: u64,
    /// Peak sessions in the system (arrived, not yet departed/given up).
    pub peak_in_system: u64,
    /// Peak sessions waiting for a server.
    pub peak_queue_depth: u64,
    /// Virtual time of the last departure (or giveup).
    pub makespan_ns: u64,
    /// The `(time, Δin_system, Δqueue)` steps behind the two peaks, so
    /// several queues can be folded into one fleet-wide peak.
    pub events: Vec<(u64, i64, i64)>,
}

/// The `(in_system, queue)` peaks of a set of `(time, Δin_system, Δqueue)`
/// steps. Sorting puts same-instant departures (negative deltas) before
/// arrivals — a fixed, conservative tie break that keeps the peaks
/// deterministic.
pub(crate) fn peaks(events: &mut [(u64, i64, i64)]) -> (u64, u64) {
    events.sort_unstable();
    let (mut in_sys, mut queued) = (0i64, 0i64);
    let (mut peak_in_system, mut peak_queue_depth) = (0i64, 0i64);
    for &(_, ds, dq) in events.iter() {
        in_sys += ds;
        queued += dq;
        peak_in_system = peak_in_system.max(in_sys);
        peak_queue_depth = peak_queue_depth.max(queued);
    }
    (peak_in_system.max(0) as u64, peak_queue_depth.max(0) as u64)
}

/// Replays `(arrival, run)` sessions through `servers` FCFS virtual
/// servers; sessions with `launch_failed` are skipped. Pure integer math.
pub(crate) fn simulate_queue<'a>(
    sessions: impl Iterator<Item = (u64, &'a SessionRun)>,
    servers: usize,
    patience_ns: Option<u64>,
) -> QueueOutcome {
    let servers = servers.max(1);
    // Earliest-free-first server pool.
    let mut free: BinaryHeap<Reverse<u64>> = (0..servers).map(|_| Reverse(0u64)).collect();
    let mut admissions = Vec::new();
    let mut giveups = 0u64;
    let mut makespan_ns = 0u64;
    let mut events: Vec<(u64, i64, i64)> = Vec::new();
    for (a, run) in sessions {
        if run.launch_failed {
            admissions.push(Admission::Failed);
            continue;
        }
        let Reverse(f) = free.pop().expect("server pool is non-empty");
        let start = a.max(f);
        if let Some(p) = patience_ns {
            if start - a > p {
                free.push(Reverse(f));
                let left = a + p;
                admissions.push(Admission::GaveUp(left));
                giveups += 1;
                makespan_ns = makespan_ns.max(left);
                events.push((a, 1, 1));
                events.push((left, -1, -1));
                continue;
            }
        }
        let depart = start + run.service_ns;
        free.push(Reverse(depart));
        admissions.push(Admission::Served(start, depart));
        makespan_ns = makespan_ns.max(depart);
        events.push((a, 1, 1));
        events.push((start, 0, -1));
        events.push((depart, -1, 0));
    }
    let (peak_in_system, peak_queue_depth) = peaks(&mut events);
    QueueOutcome { admissions, giveups, peak_in_system, peak_queue_depth, makespan_ns, events }
}

/// Phase B for one group of sessions sharing a queue — a whole run on one
/// host, or one host's share of a fleet run.
#[derive(Debug)]
pub(crate) struct GroupOutcome {
    /// Sessions served to completion.
    pub completed: u64,
    /// Sessions whose VM never launched.
    pub launch_failures: u64,
    /// Ops executed by served sessions, and how many of them failed.
    pub ops_run: u64,
    pub op_failures: u64,
    /// Commutative fold of the served sessions' checksums.
    pub checksum: u64,
    /// Arrival-to-departure latency of the served sessions.
    pub sojourn: VtHistogram,
    /// Giveups, peaks and makespan of the group's queue.
    pub queue: QueueOutcome,
}

/// Replays the sessions `idx` (indices into `arrivals` / `runs`, in arrival
/// order) through `servers` virtual servers and tallies the outcome. Only
/// *served* sessions contribute latency samples, checksums and op counts;
/// `on_op(run, op index, cost)` sees each of their ops.
pub(crate) fn serve_group(
    idx: &[usize],
    arrivals: &[u64],
    runs: &[SessionRun],
    servers: usize,
    patience_ns: Option<u64>,
    mut on_op: impl FnMut(&SessionRun, usize, u64),
) -> GroupOutcome {
    let queue = simulate_queue(idx.iter().map(|&i| (arrivals[i], &runs[i])), servers, patience_ns);
    let mut g = GroupOutcome {
        completed: 0,
        launch_failures: 0,
        ops_run: 0,
        op_failures: 0,
        checksum: 0,
        sojourn: VtHistogram::new(),
        queue,
    };
    for (&i, admission) in idx.iter().zip(&g.queue.admissions) {
        match *admission {
            Admission::Failed => g.launch_failures += 1,
            Admission::GaveUp(_) => {}
            Admission::Served(_, depart) => {
                let run = &runs[i];
                g.completed += 1;
                g.checksum = g.checksum.wrapping_add(run.checksum);
                g.sojourn.record(VirtualNanos::from_nanos(depart - arrivals[i]));
                for (j, &cost) in run.op_costs.iter().enumerate() {
                    g.ops_run += 1;
                    g.op_failures += u64::from(cost == FAILED_OP);
                    on_op(run, j, cost);
                }
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(service_ns: u64) -> SessionRun {
        SessionRun {
            profile: 0,
            service_ns,
            op_costs: vec![service_ns],
            checksum: 0,
            launch_failed: false,
        }
    }

    #[test]
    fn single_server_serializes() {
        let arrivals = [0, 10, 20];
        let runs = [run(100), run(100), run(100)];
        let q = simulate_queue(arrivals.iter().copied().zip(&runs), 1, None);
        assert_eq!(
            q.admissions,
            vec![
                Admission::Served(0, 100),
                Admission::Served(100, 200),
                Admission::Served(200, 300)
            ]
        );
        assert_eq!(q.peak_in_system, 3);
        assert_eq!(q.peak_queue_depth, 2);
        assert_eq!(q.makespan_ns, 300);
    }

    #[test]
    fn two_servers_overlap() {
        let arrivals = [0, 10, 20];
        let runs = [run(100), run(100), run(100)];
        let q = simulate_queue(arrivals.iter().copied().zip(&runs), 2, None);
        assert_eq!(
            q.admissions,
            vec![
                Admission::Served(0, 100),
                Admission::Served(10, 110),
                Admission::Served(100, 200)
            ]
        );
        assert_eq!(q.peak_queue_depth, 1);
    }

    #[test]
    fn patience_sheds_the_tail() {
        let arrivals = [0, 1, 2];
        let runs = [run(1000), run(1000), run(1000)];
        let q = simulate_queue(arrivals.iter().copied().zip(&runs), 1, Some(500));
        assert_eq!(q.giveups, 2);
        assert_eq!(q.admissions[1], Admission::GaveUp(501));
        assert_eq!(q.admissions[2], Admission::GaveUp(502));
        // Only the served session holds a server.
        assert_eq!(q.makespan_ns, 1000);
    }

    #[test]
    fn failed_sessions_never_occupy_servers() {
        let mut failed = run(9999);
        failed.launch_failed = true;
        let arrivals = [0, 5];
        let runs = [failed, run(10)];
        let q = simulate_queue(arrivals.iter().copied().zip(&runs), 1, None);
        assert_eq!(q.admissions[0], Admission::Failed);
        assert_eq!(q.admissions[1], Admission::Served(5, 15));
    }
}
