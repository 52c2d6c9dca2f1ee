//! Segmented virtual-time accounting, mirroring the paper's two breakdowns.
//!
//! §5.1 ("Metrics") defines:
//!
//! * an **application-centric** breakdown — data loading (`CPU-DPU`), task
//!   execution (`DPU`), synchronization through the host (`Inter-DPU`), and
//!   result retrieval (`DPU-CPU`) — used by Fig. 8, 9, 10 and 14;
//! * a **driver-centric** breakdown — control-interface operations (`CI`),
//!   `read-from-rank` and `write-to-rank` — used by Fig. 12, further split
//!   for `write-to-rank` into page management, matrix serialization, virtio
//!   interrupt handling, matrix deserialization and the data transfer itself
//!   (Fig. 13).

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::telemetry::MetricsRegistry;
use crate::time::VirtualNanos;

/// Application-centric segment of an UPMEM program's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AppSegment {
    /// Input data loading: host memory → MRAM.
    CpuToDpu,
    /// DPU program execution.
    Dpu,
    /// Synchronization between DPUs via the host CPU.
    InterDpu,
    /// Result retrieval: MRAM → host memory.
    DpuToCpu,
}

impl AppSegment {
    /// All segments in the paper's plotting order.
    pub const ALL: [AppSegment; 4] = [
        AppSegment::CpuToDpu,
        AppSegment::Dpu,
        AppSegment::InterDpu,
        AppSegment::DpuToCpu,
    ];

    /// The label used in the paper's figures.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            AppSegment::CpuToDpu => "CPU-DPU",
            AppSegment::Dpu => "DPU",
            AppSegment::InterDpu => "Inter-DPU",
            AppSegment::DpuToCpu => "DPU-CPU",
        }
    }

    /// The canonical telemetry metric name of this segment.
    #[must_use]
    pub const fn metric_name(self) -> &'static str {
        match self {
            AppSegment::CpuToDpu => "app.cpu_dpu",
            AppSegment::Dpu => "app.dpu",
            AppSegment::InterDpu => "app.inter_dpu",
            AppSegment::DpuToCpu => "app.dpu_cpu",
        }
    }
}

impl fmt::Display for AppSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Driver-centric segment of rank-operation handling (Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DriverSegment {
    /// Control-interface operations.
    Ci,
    /// `read-from-rank` operations.
    ReadRank,
    /// `write-to-rank` operations.
    WriteRank,
}

impl DriverSegment {
    /// All segments in the paper's plotting order.
    pub const ALL: [DriverSegment; 3] =
        [DriverSegment::Ci, DriverSegment::ReadRank, DriverSegment::WriteRank];

    /// The label used in the paper's figures.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            DriverSegment::Ci => "CI",
            DriverSegment::ReadRank => "R-rank",
            DriverSegment::WriteRank => "W-rank",
        }
    }

    /// The canonical telemetry metric name of this segment.
    #[must_use]
    pub const fn metric_name(self) -> &'static str {
        match self {
            DriverSegment::Ci => "driver.ci",
            DriverSegment::ReadRank => "driver.read_rank",
            DriverSegment::WriteRank => "driver.write_rank",
        }
    }
}

impl fmt::Display for DriverSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Step of a `write-to-rank` operation (Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WriteStep {
    /// Frontend reallocates userspace pages to kernel-space pointers.
    PageMgmt,
    /// Frontend serializes the transfer matrix into virtqueue buffers.
    Serialize,
    /// Virtio interrupt handling (kick + completion IRQ).
    Interrupt,
    /// Backend reassembles the transfer matrix (incl. GPA→HVA translation).
    Deserialize,
    /// The data transfer to the UPMEM rank itself (incl. interleaving).
    TransferData,
}

impl WriteStep {
    /// All steps in the paper's plotting order (Fig. 13 legend).
    pub const ALL: [WriteStep; 5] = [
        WriteStep::PageMgmt,
        WriteStep::Serialize,
        WriteStep::Interrupt,
        WriteStep::Deserialize,
        WriteStep::TransferData,
    ];

    /// The label used in the paper's figures.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            WriteStep::PageMgmt => "Page",
            WriteStep::Serialize => "Ser",
            WriteStep::Interrupt => "Int",
            WriteStep::Deserialize => "Deser",
            WriteStep::TransferData => "T-data",
        }
    }

    /// The canonical telemetry metric name of this step.
    #[must_use]
    pub const fn metric_name(self) -> &'static str {
        match self {
            WriteStep::PageMgmt => "write.page_mgmt",
            WriteStep::Serialize => "write.serialize",
            WriteStep::Interrupt => "write.interrupt",
            WriteStep::Deserialize => "write.deserialize",
            WriteStep::TransferData => "write.transfer_data",
        }
    }
}

impl fmt::Display for WriteStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A segmented virtual-time accumulator for one benchmark run.
///
/// Both of the paper's breakdowns plus message counters are tracked so a
/// single run can be rendered as Fig. 8-style (application) or Fig. 12/13
/// style (driver) output. The key set is closed, so the storage is one
/// array per breakdown, indexed by the segment; [`Timeline::flush_into`]
/// publishes a timeline into a [`MetricsRegistry`] wholesale under each
/// segment's [`AppSegment::metric_name`] (and friends).
///
/// # Example
///
/// ```
/// use simkit::{AppSegment, Timeline, VirtualNanos};
///
/// let mut tl = Timeline::new();
/// tl.charge_app(AppSegment::Dpu, VirtualNanos::from_millis(2));
/// tl.count_message();
/// assert_eq!(tl.app(AppSegment::Dpu).as_millis(), 2);
/// assert_eq!(tl.messages(), 1);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    app: [VirtualNanos; AppSegment::ALL.len()],
    driver: [VirtualNanos; DriverSegment::ALL.len()],
    write: [VirtualNanos; WriteStep::ALL.len()],
    messages: u64,
    rank_ops: u64,
}

/// Metric name of the guest↔VMM message exchange count.
pub const METRIC_MESSAGES: &str = "messages";
/// Metric name of the hardware rank-operation count.
pub const METRIC_RANK_OPS: &str = "rank_ops";

impl Timeline {
    /// Creates an empty timeline.
    #[must_use]
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Adds `d` to an application-centric segment.
    pub fn charge_app(&mut self, seg: AppSegment, d: VirtualNanos) {
        self.app[seg as usize] += d;
    }

    /// Adds `d` to a driver-centric segment.
    pub fn charge_driver(&mut self, seg: DriverSegment, d: VirtualNanos) {
        self.driver[seg as usize] += d;
    }

    /// Adds `d` to a `write-to-rank` step.
    pub fn charge_write_step(&mut self, step: WriteStep, d: VirtualNanos) {
        self.write[step as usize] += d;
    }

    /// Records one guest↔VMM message exchange.
    pub fn count_message(&mut self) {
        self.messages += 1;
    }

    /// Records `n` guest↔VMM message exchanges.
    pub fn add_messages(&mut self, n: u64) {
        self.messages += n;
    }

    /// Records `n` rank operations.
    pub fn add_rank_ops(&mut self, n: u64) {
        self.rank_ops += n;
    }

    /// Accumulated time in one application-centric segment.
    #[must_use]
    pub fn app(&self, seg: AppSegment) -> VirtualNanos {
        self.app[seg as usize]
    }

    /// Accumulated time in one driver-centric segment.
    #[must_use]
    pub fn driver(&self, seg: DriverSegment) -> VirtualNanos {
        self.driver[seg as usize]
    }

    /// Accumulated time in one `write-to-rank` step.
    #[must_use]
    pub fn write_step(&self, step: WriteStep) -> VirtualNanos {
        self.write[step as usize]
    }

    /// Total over the application-centric segments — the paper's headline
    /// "execution time".
    #[must_use]
    pub fn app_total(&self) -> VirtualNanos {
        self.app.iter().copied().sum()
    }

    /// Number of guest↔VMM message exchanges recorded.
    #[must_use]
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Number of rank operations recorded.
    #[must_use]
    pub fn rank_ops(&self) -> u64 {
        self.rank_ops
    }

    /// Merges another timeline into this one (summing every bucket).
    pub fn merge(&mut self, other: &Timeline) {
        let sum = |into: &mut [VirtualNanos], from: &[VirtualNanos]| {
            into.iter_mut().zip(from).for_each(|(a, b)| *a += *b);
        };
        sum(&mut self.app, &other.app);
        sum(&mut self.driver, &other.driver);
        sum(&mut self.write, &other.write);
        self.messages += other.messages;
        self.rank_ops += other.rank_ops;
    }

    /// Publishes every non-zero segment and counter into `registry` under
    /// `prefix` (pass `""` for none).
    pub fn flush_into(&self, registry: &MetricsRegistry, prefix: &str) {
        let app = AppSegment::ALL.iter().map(|&s| (s.metric_name(), self.app(s)));
        let times = app
            .chain(DriverSegment::ALL.iter().map(|&s| (s.metric_name(), self.driver(s))))
            .chain(WriteStep::ALL.iter().map(|&s| (s.metric_name(), self.write_step(s))));
        let counts = [(METRIC_MESSAGES, self.messages), (METRIC_RANK_OPS, self.rank_ops)];
        registry.publish(prefix, counts, times);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_accumulate_independently() {
        let mut tl = Timeline::new();
        tl.charge_app(AppSegment::CpuToDpu, VirtualNanos::from_nanos(10));
        tl.charge_app(AppSegment::CpuToDpu, VirtualNanos::from_nanos(5));
        tl.charge_app(AppSegment::DpuToCpu, VirtualNanos::from_nanos(1));
        assert_eq!(tl.app(AppSegment::CpuToDpu).as_nanos(), 15);
        assert_eq!(tl.app(AppSegment::DpuToCpu).as_nanos(), 1);
        assert_eq!(tl.app(AppSegment::Dpu), VirtualNanos::ZERO);
        assert_eq!(tl.app_total().as_nanos(), 16);
    }

    #[test]
    fn driver_and_write_step_buckets() {
        let mut tl = Timeline::new();
        tl.charge_driver(DriverSegment::WriteRank, VirtualNanos::from_nanos(9));
        tl.charge_write_step(WriteStep::TransferData, VirtualNanos::from_nanos(7));
        tl.charge_write_step(WriteStep::Interrupt, VirtualNanos::from_nanos(2));
        assert_eq!(tl.driver(DriverSegment::WriteRank).as_nanos(), 9);
        assert_eq!(tl.write_step(WriteStep::TransferData).as_nanos(), 7);
        assert_eq!(tl.write_step(WriteStep::Interrupt).as_nanos(), 2);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Timeline::new();
        a.charge_app(AppSegment::Dpu, VirtualNanos::from_nanos(3));
        a.count_message();
        let mut b = Timeline::new();
        b.charge_app(AppSegment::Dpu, VirtualNanos::from_nanos(4));
        b.count_message();
        b.add_rank_ops(1);
        a.merge(&b);
        assert_eq!(a.app(AppSegment::Dpu).as_nanos(), 7);
        assert_eq!(a.messages(), 2);
        assert_eq!(a.rank_ops(), 1);
    }

    #[test]
    fn flush_publishes_non_zero_entries_under_their_metric_names() {
        let mut tl = Timeline::new();
        tl.charge_app(AppSegment::Dpu, VirtualNanos::from_nanos(3));
        tl.charge_driver(DriverSegment::Ci, VirtualNanos::from_nanos(4));
        tl.charge_write_step(WriteStep::Serialize, VirtualNanos::from_nanos(5));
        tl.charge_write_step(WriteStep::PageMgmt, VirtualNanos::ZERO);
        tl.add_messages(2);
        let reg = MetricsRegistry::new();
        tl.flush_into(&reg, "");
        assert_eq!(reg.names(), ["app.dpu", "driver.ci", "messages", "write.serialize"]);
        tl.flush_into(&reg, "run");
        let snap = reg.snapshot();
        assert_eq!(snap.time("run.app.dpu").as_nanos(), 3);
        assert_eq!(snap.time("run.driver.ci").as_nanos(), 4);
        assert_eq!(snap.time("write.serialize").as_nanos(), 5);
        assert_eq!(snap.count("run.messages"), 2);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(AppSegment::CpuToDpu.label(), "CPU-DPU");
        assert_eq!(DriverSegment::ReadRank.label(), "R-rank");
        assert_eq!(WriteStep::TransferData.label(), "T-data");
    }
}
