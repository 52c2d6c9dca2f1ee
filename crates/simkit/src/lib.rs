//! # simkit — deterministic virtual-time kit for the vPIM reproduction
//!
//! The vPIM paper (Teguia et al., MIDDLEWARE '24, <https://hal.science/hal-04737700>)
//! measures wall-clock execution time on a Xeon + UPMEM testbed. This
//! reproduction runs on commodity hardware without UPMEM DIMMs, so all
//! reported durations are **virtual time**: every simulated operation derives
//! a deterministic [`VirtualNanos`] duration from the [`CostModel`], and
//! timelines compose those durations sequentially or in parallel exactly the
//! way the modeled hardware/software would.
//!
//! The crate provides:
//!
//! * [`VirtualNanos`] — the virtual time unit,
//! * [`CostModel`] — every timing constant of the simulation in one
//!   documented struct,
//! * [`Timeline`] — segmented accumulation of durations using the paper's
//!   two breakdowns (application-centric and driver-centric),
//! * [`compose`] — sequential / parallel / worker-pool composition rules,
//! * [`SimRng`] — seeded, reproducible randomness,
//! * [`codec`] — the `u32` ↔ little-endian byte codec,
//! * [`stats`] — small helpers for summarizing benchmark output.
//!
//! ## Example
//!
//! ```
//! use simkit::{CostModel, Timeline, AppSegment, VirtualNanos};
//!
//! let cm = CostModel::default();
//! let mut tl = Timeline::new();
//! // Charge the cost of moving 1 MiB into a rank with parallel transfer.
//! let d = cm.rank_transfer_parallel(1 << 20);
//! tl.charge_app(AppSegment::CpuToDpu, d);
//! assert!(tl.app_total() > VirtualNanos::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod compose;
pub mod cost;
pub mod error;
pub mod executor;
pub mod inject;
pub mod json;
pub mod lockorder;
pub mod pool;
pub mod retry;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod timeline;

pub use codec::{bytes_to_u32s, u32s_to_bytes};
pub use compose::{parallel, pool, sequential};
pub use cost::CostModel;
pub use error::{ErrorKind, HasErrorKind};
pub use executor::{JobHandle, WorkerPool};
pub use inject::{FaultPlan, FaultPlane, InjectCell, PointStats};
pub use json::JsonObject;
pub use lockorder::{ordered, LockLevel, LockToken};
pub use pool::{BytePool, PoolGuard};
pub use retry::{RetryBudget, RetryMetrics, RetryPolicy, TimeoutClass};
pub use rng::SimRng;
pub use telemetry::{
    Counter, Gauge, MetricValue, MetricsRegistry, MetricsSnapshot, TimeCounter, VtHistogram,
};
pub use time::VirtualNanos;
pub use timeline::{AppSegment, DriverSegment, Timeline, WriteStep};
