//! A seeded open/closed-loop traffic harness (ROADMAP item 3).
//!
//! Nothing in the reproduction measured vPIM as a *service*: every test
//! drives a handful of VMs to completion and exits. This module generates
//! production-shaped traffic — open-loop arrivals ([`Arrival`]: Poisson,
//! bursty ON-OFF, uniform) feeding closed-loop think-time sessions
//! ([`TenantProfile`]) — and reports service-level metrics
//! ([`LoadReport`]: offered vs. sustained throughput, p50/p99/p999
//! latency, admission-queue depth, giveups).
//!
//! # Two phases, one invariant
//!
//! A run has two phases. **Phase A** really executes every session body
//! through [`VpimSystem::launch`]: boot a tenant microVM, run the
//! scripted ops against its frontends, release the ranks. Each op's cost
//! is *virtual time* derived from the work description, and each
//! session's randomness comes from a pure per-index RNG stream
//! ([`simkit::SimRng::stream`]), so the measurements do not depend on
//! execution order — phase A may run sequentially or fan out on a
//! [`simkit::WorkerPool`]. **Phase B** replays the measured service times
//! through a c-server FCFS queue fed by the arrival trace, in pure
//! integer math.
//!
//! The determinism invariant follows: **same seed ⇒ bit-identical
//! [`LoadReport`]** across [`Execution::Sequential`] vs.
//! [`Execution::Pooled`] phase-A execution, across host dispatch modes,
//! and across `RUST_TEST_THREADS` settings. `ci/load-gate.sh` enforces
//! exactly that, and "thousands of concurrent sessions" is measured where
//! it is meaningful — in virtual time, as overlapping
//! arrival-to-departure intervals — while wall-clock execution stays
//! bounded by the worker pool.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use vpim::prelude::*;
//! use vpim::load::{TenantOp, OpOutcome};
//!
//! let machine = PimMachine::new(PimConfig::small());
//! let sys = Arc::new(VpimSystem::start(
//!     Arc::new(UpmemDriver::new(machine)),
//!     VpimConfig::full(),
//!     StartOpts::default(),
//! ));
//! let mix = TenantMix::new().profile(
//!     TenantProfile::new("ping", TenantSpec::new("ping").mem_mib(16)).op(TenantOp::new(
//!         "write",
//!         Arc::new(|vm, _seed| {
//!             let r = vm.frontend(0).write_rank(&[(0, 0, &[7u8; 512])])?;
//!             Ok(OpOutcome::new(r.duration(), 7))
//!         }),
//!     )),
//! );
//! let spec = LoadSpec::new(42, 8).arrival(Arrival::Poisson { mean_gap_ns: 1_000 });
//! let report = LoadHarness::run(&sys, &spec, &mix);
//! assert_eq!(report.completed, 8);
//! ```

mod arrival;
mod report;
pub(crate) mod session;
mod tenant;

pub use arrival::Arrival;
pub use report::{LatencySummary, LoadReport, OpStats};
pub use tenant::{OpFn, OpOutcome, TenantMix, TenantOp, TenantProfile};

use std::collections::BTreeMap;
use std::sync::Arc;

use simkit::{VirtualNanos, VtHistogram};

use crate::system::VpimSystem;
use session::{run_sessions, serve_group, FAILED_OP};

/// How phase A executes the session bodies. Both modes must produce the
/// same [`LoadReport`]; `Pooled` is simply faster on the wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Execution {
    /// One session body at a time, in index order.
    Sequential,
    /// Fan out on a [`WorkerPool`]; at most `workers` VMs are alive at
    /// once, so guest memory stays bounded.
    #[default]
    Pooled,
}

/// What to run: the seed, the offered traffic, and the virtual service
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadSpec {
    seed: u64,
    sessions: usize,
    arrival: Arrival,
    servers: usize,
    workers: usize,
    exec: Execution,
    patience: Option<VirtualNanos>,
}

impl LoadSpec {
    /// `sessions` sessions from base seed `seed`, with uniform 1 µs
    /// arrivals, auto-sized servers and workers, pooled execution, and
    /// infinite patience.
    #[must_use]
    pub fn new(seed: u64, sessions: usize) -> Self {
        LoadSpec {
            seed,
            sessions,
            arrival: Arrival::Uniform { gap_ns: 1_000 },
            servers: 0,
            workers: 0,
            exec: Execution::default(),
            patience: None,
        }
    }

    /// The open-loop arrival process.
    #[must_use]
    pub fn arrival(mut self, a: Arrival) -> Self {
        self.arrival = a;
        self
    }

    /// Virtual servers in the phase-B queue (0 = the host's physical rank
    /// count).
    #[must_use]
    pub fn servers(mut self, n: usize) -> Self {
        self.servers = n;
        self
    }

    /// Worker threads for pooled phase-A execution (0 = `min(servers,
    /// 8)`); also the cap on simultaneously live VMs.
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// The phase-A execution mode.
    #[must_use]
    pub fn execution(mut self, e: Execution) -> Self {
        self.exec = e;
        self
    }

    /// Maximum virtual wait before a queued session gives up.
    #[must_use]
    pub fn patience(mut self, p: VirtualNanos) -> Self {
        self.patience = Some(p);
        self
    }

    /// The base seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The session count.
    #[must_use]
    pub fn n_sessions(&self) -> usize {
        self.sessions
    }

    /// The configured arrival process.
    #[must_use]
    pub fn arrival_process(&self) -> Arrival {
        self.arrival
    }

    /// The configured phase-B server count (0 = host rank count).
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.servers
    }

    /// The configured worker-thread count (0 = auto).
    #[must_use]
    pub fn worker_threads(&self) -> usize {
        self.workers
    }

    /// The phase-A execution mode.
    #[must_use]
    pub fn execution_mode(&self) -> Execution {
        self.exec
    }

    /// The configured patience bound, if any.
    #[must_use]
    pub fn patience_limit(&self) -> Option<VirtualNanos> {
        self.patience
    }
}

/// The harness: runs a [`LoadSpec`] × [`TenantMix`] against one host and
/// reports.
#[derive(Debug)]
pub struct LoadHarness;

impl LoadHarness {
    /// Runs the load and assembles the report. Workload failures are
    /// counted, never propagated — the report is total so CI can compare
    /// it byte for byte.
    ///
    /// Also records into the host registry: `load.op.latency` and
    /// `load.session.latency` histograms, plus `load.sessions.{offered,
    /// completed,giveups,launch_failures}` and `load.ops.{run,failed}`
    /// counters (cumulative across runs on the same host).
    #[must_use]
    pub fn run(sys: &Arc<VpimSystem>, spec: &LoadSpec, mix: &TenantMix) -> LoadReport {
        let n = spec.sessions;
        let servers = if spec.servers == 0 { sys.driver().rank_count() } else { spec.servers };
        let servers = servers.max(1);

        // Offered trace (pure in the seed).
        let arrivals: Vec<u64> =
            spec.arrival.times(spec.seed, n).iter().map(|t| t.as_nanos()).collect();

        // Phase A: execute every session body, order-free.
        let runs = run_sessions(spec, mix, servers.min(8), |_| sys);

        // Phase B: the virtual-time queue, all sessions in one group.
        let op_hist = VtHistogram::new();
        let mut per_op: BTreeMap<&str, (VtHistogram, u64)> = BTreeMap::new();
        let all: Vec<usize> = (0..n).collect();
        let patience = spec.patience.map(|p| p.as_nanos());
        let g = serve_group(&all, &arrivals, &runs, servers, patience, |run, j, cost| {
            let name = mix.profiles()[run.profile].ops()[j].name();
            let entry = per_op.entry(name).or_insert_with(|| (VtHistogram::new(), 0));
            if cost == FAILED_OP {
                entry.1 += 1;
            } else {
                let d = VirtualNanos::from_nanos(cost);
                op_hist.record(d);
                entry.0.record(d);
            }
        });

        let horizon = arrivals.last().copied().unwrap_or(0);
        let report = LoadReport {
            seed: spec.seed,
            sessions: n as u64,
            completed: g.completed,
            giveups: g.queue.giveups,
            launch_failures: g.launch_failures,
            ops_run: g.ops_run,
            op_failures: g.op_failures,
            checksum: g.checksum,
            peak_concurrent: g.queue.peak_in_system,
            peak_queue_depth: g.queue.peak_queue_depth,
            horizon: VirtualNanos::from_nanos(horizon),
            makespan: VirtualNanos::from_nanos(g.queue.makespan_ns),
            offered_mps: rate_milli_per_sec(n as u64, horizon),
            sustained_mps: rate_milli_per_sec(g.completed, g.queue.makespan_ns),
            session_latency: LatencySummary::of(&g.sojourn),
            op_latency: LatencySummary::of(&op_hist),
            per_op: per_op
                .into_iter()
                .map(|(name, (hist, failures))| OpStats {
                    name: name.to_string(),
                    latency: LatencySummary::of(&hist),
                    failures,
                })
                .collect(),
        };

        // Host-registry mirror (cumulative, observability only — the
        // report above is the determinism oracle).
        let reg = sys.registry();
        reg.histogram("load.session.latency").merge_from(&g.sojourn);
        reg.histogram("load.op.latency").merge_from(&op_hist);
        reg.counter("load.sessions.offered").add(report.sessions);
        reg.counter("load.sessions.completed").add(report.completed);
        reg.counter("load.sessions.giveups").add(report.giveups);
        reg.counter("load.sessions.launch_failures").add(report.launch_failures);
        reg.counter("load.ops.run").add(report.ops_run);
        reg.counter("load.ops.failed").add(report.op_failures);
        report
    }
}

/// `count` events over `span_ns` nanoseconds, in milli-events per virtual
/// second — integer math so reports compare bit for bit.
pub(crate) fn rate_milli_per_sec(count: u64, span_ns: u64) -> u64 {
    if span_ns == 0 {
        return 0;
    }
    ((u128::from(count) * 1_000_000_000_000u128) / u128::from(span_ns)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VpimConfig;
    use crate::system::{StartOpts, TenantSpec};
    use upmem_driver::UpmemDriver;
    use upmem_sim::{PimConfig, PimMachine};

    fn host() -> Arc<VpimSystem> {
        let machine = PimMachine::new(PimConfig::small());
        Arc::new(VpimSystem::start(
            Arc::new(UpmemDriver::new(machine)),
            VpimConfig::full(),
            StartOpts::default(),
        ))
    }

    fn ping_mix() -> TenantMix {
        TenantMix::new().profile(
            TenantProfile::new("ping", TenantSpec::new("ping").mem_mib(16))
                .op(TenantOp::new(
                    "write",
                    Arc::new(|vm, seed| {
                        let data = vec![(seed & 0xff) as u8; 512];
                        let r = vm.frontend(0).write_rank(&[(0, 0, &data)])?;
                        Ok(OpOutcome::new(r.duration(), seed))
                    }),
                ))
                .think_mean_ns(500),
        )
    }

    #[test]
    fn sequential_and_pooled_agree() {
        let spec = LoadSpec::new(7, 12).arrival(Arrival::Poisson { mean_gap_ns: 2_000 });
        let a = LoadHarness::run(&host(), &spec.execution(Execution::Sequential), &ping_mix());
        let b = LoadHarness::run(&host(), &spec.execution(Execution::Pooled), &ping_mix());
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.completed, 12);
        assert_eq!(a.ops_run, 12);
        assert!(a.session_latency.p99 >= a.session_latency.p50);
    }

    #[test]
    fn rates_are_integer_and_guarded() {
        assert_eq!(rate_milli_per_sec(10, 0), 0);
        // 10 events in 1 s = 10_000 milli-events/s.
        assert_eq!(rate_milli_per_sec(10, 1_000_000_000), 10_000);
    }
}
