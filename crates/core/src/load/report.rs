//! The service-level report a load run produces.
//!
//! A [`LoadReport`] is the artifact later scalability PRs regress
//! against: `ci/load-gate.sh` serializes it as `BENCH_load.json` and
//! compares runs across thread counts byte for byte. Every field is
//! integer-valued virtual time, so bit-identity is meaningful.

use simkit::{JsonObject, VirtualNanos, VtHistogram};

/// Latency percentiles plus mass, lifted from a [`VtHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub total: VirtualNanos,
    /// Median.
    pub p50: VirtualNanos,
    /// 99th percentile.
    pub p99: VirtualNanos,
    /// 99.9th percentile.
    pub p999: VirtualNanos,
}

impl LatencySummary {
    /// Summarizes `h` (zero everywhere when the histogram is empty).
    #[must_use]
    pub fn of(h: &VtHistogram) -> Self {
        LatencySummary {
            count: h.count(),
            total: h.total(),
            p50: h.quantile(0.50),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
        }
    }

    pub(crate) fn json(&self) -> JsonObject {
        JsonObject::new()
            .num("count", self.count)
            .num("total_ns", self.total.as_nanos())
            .num("p50_ns", self.p50.as_nanos())
            .num("p99_ns", self.p99.as_nanos())
            .num("p999_ns", self.p999.as_nanos())
    }
}

/// Per-op-name aggregates across the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpStats {
    /// The op name (unique per report; sorted lexicographically).
    pub name: String,
    /// Latency of this op's successful executions.
    pub latency: LatencySummary,
    /// Executions that returned an error.
    pub failures: u64,
}

/// What a load run measured. Constructed by
/// [`LoadHarness::run`](crate::load::LoadHarness::run); `PartialEq` plus
/// the canonical [`to_json`](Self::to_json) encoding are the determinism
/// oracle — same seed must mean the same report, bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadReport {
    /// The base seed the run derived everything from.
    pub seed: u64,
    /// Sessions offered by the arrival process.
    pub sessions: u64,
    /// Sessions served to completion.
    pub completed: u64,
    /// Sessions that waited past their patience and left.
    pub giveups: u64,
    /// Sessions whose VM never launched.
    pub launch_failures: u64,
    /// Ops executed by served sessions.
    pub ops_run: u64,
    /// Ops that returned an error.
    pub op_failures: u64,
    /// Commutative fold of all served sessions' workload checksums.
    pub checksum: u64,
    /// Peak sessions simultaneously in the system (virtual time).
    pub peak_concurrent: u64,
    /// Peak admission-queue depth (virtual time).
    pub peak_queue_depth: u64,
    /// Virtual time of the last arrival.
    pub horizon: VirtualNanos,
    /// Virtual time of the last departure.
    pub makespan: VirtualNanos,
    /// Offered load: milli-sessions per virtual second
    /// (`sessions * 1e12 / horizon_ns`, integer math).
    pub offered_mps: u64,
    /// Sustained throughput: milli-sessions per virtual second over the
    /// makespan.
    pub sustained_mps: u64,
    /// Whole-session sojourn latency (arrival to departure).
    pub session_latency: LatencySummary,
    /// All-op service latency.
    pub op_latency: LatencySummary,
    /// Per-op-name breakdown, sorted by name.
    pub per_op: Vec<OpStats>,
}

impl LoadReport {
    /// Canonical JSON encoding: fixed key order, integer-only values, no
    /// whitespace — two equal reports serialize to identical bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .num("seed", self.seed)
            .num("sessions", self.sessions)
            .num("completed", self.completed)
            .num("giveups", self.giveups)
            .num("launch_failures", self.launch_failures)
            .num("ops_run", self.ops_run)
            .num("op_failures", self.op_failures)
            .num("checksum", self.checksum)
            .num("peak_concurrent", self.peak_concurrent)
            .num("peak_queue_depth", self.peak_queue_depth)
            .num("horizon_ns", self.horizon.as_nanos())
            .num("makespan_ns", self.makespan.as_nanos())
            .num("offered_mps", self.offered_mps)
            .num("sustained_mps", self.sustained_mps)
            .obj("session_latency", self.session_latency.json())
            .obj("op_latency", self.op_latency.json())
            .arr(
                "per_op",
                self.per_op.iter().map(|op| {
                    JsonObject::new()
                        .str("name", &op.name)
                        .num("failures", op.failures)
                        .obj("latency", op.latency.json())
                }),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LoadReport {
        let h = VtHistogram::new();
        h.record(VirtualNanos::from_nanos(100));
        h.record(VirtualNanos::from_nanos(200));
        LoadReport {
            seed: 42,
            sessions: 2,
            completed: 2,
            giveups: 0,
            launch_failures: 0,
            ops_run: 4,
            op_failures: 0,
            checksum: 7,
            peak_concurrent: 2,
            peak_queue_depth: 1,
            horizon: VirtualNanos::from_nanos(300),
            makespan: VirtualNanos::from_nanos(500),
            offered_mps: 1,
            sustained_mps: 1,
            session_latency: LatencySummary::of(&h),
            op_latency: LatencySummary::of(&h),
            per_op: vec![OpStats {
                name: "va".into(),
                latency: LatencySummary::of(&h),
                failures: 0,
            }],
        }
    }

    #[test]
    fn json_is_stable_and_self_equal() {
        let a = sample();
        let b = sample();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        let j = a.to_json();
        assert!(j.starts_with("{\"seed\":42,"), "{j}");
        assert!(j.contains("\"per_op\":[{\"name\":\"va\""), "{j}");
        assert!(j.ends_with("}]}"), "{j}");
    }

    #[test]
    fn json_reflects_field_changes() {
        let a = sample();
        let mut b = sample();
        b.checksum = 8;
        assert_ne!(a, b);
        assert_ne!(a.to_json(), b.to_json());
    }
}
