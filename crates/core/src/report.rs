//! Per-operation cost reports.
//!
//! Every vPIM operation returns an [`OpReport`] describing its virtual-time
//! cost, its guest↔VMM message count, and its contribution to the paper's
//! write-step breakdown (Fig. 13). The key set is closed, so the report is
//! a plain struct — four scalars and one time per [`WriteStep`] — that can
//! be merged, folded into a [`simkit::Timeline`], or published into a
//! [`simkit::MetricsRegistry`] under stable metric names. The SDK folds
//! reports into a timeline; the figure harness reads the registry.

use simkit::{MetricsRegistry, VirtualNanos, WriteStep};

/// Metric name for the end-to-end operation duration.
pub const METRIC_DURATION: &str = "op.duration";
/// Metric name for the DDR-bus portion of the duration.
pub const METRIC_DDR: &str = "op.ddr";
/// Metric name for guest↔VMM message exchanges.
pub const METRIC_MESSAGES: &str = "op.messages";
/// Metric name for hardware rank operations.
pub const METRIC_RANK_OPS: &str = "op.rank_ops";

/// The cost accounting of one vPIM (or native) operation.
///
/// The duration, message count, rank-op count, DDR share and Fig. 13
/// write-step contributions add under [`absorb`](Self::absorb); the
/// max-of `launch_cycles` and the positional `per_rank` offsets do not.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpReport {
    duration: VirtualNanos,
    ddr: VirtualNanos,
    messages: u64,
    rank_ops: u64,
    steps: [VirtualNanos; WriteStep::ALL.len()],
    launch_cycles: u64,
    per_rank: Vec<(usize, VirtualNanos)>,
}

impl OpReport {
    /// A report with only a duration.
    #[must_use]
    pub fn of(duration: VirtualNanos) -> Self {
        OpReport { duration, ..OpReport::default() }
    }

    // ------------------------------------------------------------- reading

    /// End-to-end virtual duration of the operation as observed by the
    /// caller (guest application).
    #[must_use]
    pub fn duration(&self) -> VirtualNanos {
        self.duration
    }

    /// Guest↔VMM message exchanges this operation performed (0 when served
    /// from the prefetch cache or absorbed by the batch buffer).
    #[must_use]
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Hardware rank operations issued.
    #[must_use]
    pub fn rank_ops(&self) -> u64 {
        self.rank_ops
    }

    /// The portion of the duration that occupies the shared DDR bus (rank
    /// data transfer). Parallel multi-rank handling overlaps everything
    /// *except* this part — the ranks share one memory controller.
    #[must_use]
    pub fn ddr(&self) -> VirtualNanos {
        self.ddr
    }

    /// For launches: the slowest DPU's cycle count.
    #[must_use]
    pub fn launch_cycles(&self) -> u64 {
        self.launch_cycles
    }

    /// Per-rank completion offsets for multi-rank operations (Fig. 16);
    /// empty for single-rank operations.
    #[must_use]
    pub fn per_rank(&self) -> &[(usize, VirtualNanos)] {
        &self.per_rank
    }

    /// The Fig. 13 write-step contributions, in plotting order. Steps with
    /// no recorded time are omitted.
    pub fn steps(&self) -> impl Iterator<Item = (WriteStep, VirtualNanos)> + '_ {
        WriteStep::ALL
            .iter()
            .map(|&s| (s, self.steps[s as usize]))
            .filter(|&(_, d)| d > VirtualNanos::ZERO)
    }

    // ------------------------------------------------------------ recording

    /// Adds a write-step contribution and extends the duration.
    pub fn step(&mut self, step: WriteStep, d: VirtualNanos) {
        self.step_only(step, d);
        self.add_duration(d);
    }

    /// Records a write-step contribution without extending the duration
    /// (used when the duration is composed separately).
    pub fn step_only(&mut self, step: WriteStep, d: VirtualNanos) {
        self.steps[step as usize] += d;
    }

    /// Extends the duration.
    pub fn add_duration(&mut self, d: VirtualNanos) {
        self.duration += d;
    }

    /// Overwrites the duration (parallel composition picks a maximum
    /// rather than a sum).
    pub fn set_duration(&mut self, d: VirtualNanos) {
        self.duration = d;
    }

    /// Records message exchanges.
    pub fn add_messages(&mut self, n: u64) {
        self.messages += n;
    }

    /// Records rank operations.
    pub fn add_rank_ops(&mut self, n: u64) {
        self.rank_ops += n;
    }

    /// Extends the DDR-bus share of the duration.
    pub fn add_ddr(&mut self, d: VirtualNanos) {
        self.ddr += d;
    }

    /// Overwrites the DDR-bus share.
    pub fn set_ddr(&mut self, d: VirtualNanos) {
        self.ddr = d;
    }

    /// Records the slowest DPU's cycle count for a launch.
    pub fn set_launch_cycles(&mut self, cycles: u64) {
        self.launch_cycles = cycles;
    }

    /// Records per-rank completion offsets (Fig. 16).
    pub fn set_per_rank(&mut self, offsets: Vec<(usize, VirtualNanos)>) {
        self.per_rank = offsets;
    }

    /// Sums another report into this one (sequential composition). Counts
    /// and times add; `launch_cycles` takes the maximum (the slowest DPU
    /// bounds the launch); `per_rank` keeps this report's offsets.
    pub fn absorb(&mut self, other: &OpReport) {
        self.duration += other.duration;
        self.ddr += other.ddr;
        self.messages += other.messages;
        self.rank_ops += other.rank_ops;
        self.steps.iter_mut().zip(&other.steps).for_each(|(a, b)| *a += *b);
        self.launch_cycles = self.launch_cycles.max(other.launch_cycles);
    }

    /// Publishes this report's non-zero metrics into `registry`, prefixing
    /// every name with `prefix.`.
    pub fn flush_into(&self, registry: &MetricsRegistry, prefix: &str) {
        let times = [(METRIC_DURATION, self.duration), (METRIC_DDR, self.ddr)]
            .into_iter()
            .chain(WriteStep::ALL.iter().map(|&s| (s.metric_name(), self.steps[s as usize])));
        let counts = [(METRIC_MESSAGES, self.messages), (METRIC_RANK_OPS, self.rank_ops)];
        registry.publish(prefix, counts, times);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_accumulates_duration() {
        let mut r = OpReport::default();
        r.step(WriteStep::Serialize, VirtualNanos::from_nanos(10));
        r.step(WriteStep::TransferData, VirtualNanos::from_nanos(30));
        assert_eq!(r.duration().as_nanos(), 40);
        assert_eq!(r.steps().collect::<Vec<_>>(), vec![
            (WriteStep::Serialize, VirtualNanos::from_nanos(10)),
            (WriteStep::TransferData, VirtualNanos::from_nanos(30)),
        ]);
    }

    #[test]
    fn absorb_merges() {
        let mut a = OpReport::of(VirtualNanos::from_nanos(5));
        a.add_messages(1);
        let mut b = OpReport::of(VirtualNanos::from_nanos(7));
        b.add_messages(2);
        b.set_launch_cycles(99);
        a.absorb(&b);
        assert_eq!(a.duration().as_nanos(), 12);
        assert_eq!(a.messages(), 3);
        assert_eq!(a.launch_cycles(), 99);
    }

    #[test]
    fn report_flushes_into_registry() {
        let mut r = OpReport::of(VirtualNanos::from_nanos(100));
        r.add_messages(2);
        r.add_rank_ops(1);
        r.step_only(WriteStep::Serialize, VirtualNanos::from_nanos(40));
        let reg = MetricsRegistry::new();
        r.flush_into(&reg, "sdk");
        let snap = reg.snapshot();
        assert_eq!(snap.count("sdk.op.messages"), 2);
        assert_eq!(snap.count("sdk.op.rank_ops"), 1);
        assert_eq!(snap.time("sdk.op.duration").as_nanos(), 100);
        assert_eq!(snap.time("sdk.write.serialize").as_nanos(), 40);
    }

    #[test]
    fn steps_report_in_plotting_order() {
        let mut r = OpReport::default();
        r.step(WriteStep::TransferData, VirtualNanos::from_nanos(3));
        r.step(WriteStep::PageMgmt, VirtualNanos::from_nanos(1));
        let steps: Vec<_> = r.steps().collect();
        assert_eq!(steps[0].0, WriteStep::PageMgmt);
        assert_eq!(steps[1].0, WriteStep::TransferData);
    }
}
