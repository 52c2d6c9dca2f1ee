//! Per-rank transport channels: native performance mode vs vPIM frontend.

use std::sync::Arc;

use simkit::{CostModel, VirtualNanos};
use upmem_driver::PerfMapping;
use simkit::cost::DataPath;
use upmem_sim::ci::CiStatus;
use vpim::frontend::{Frontend, InFlight};
use vpim::OpReport;

use crate::error::SdkError;

/// One rank's transport: either the mmap'ed hardware (native) or a vUPMEM
/// frontend (virtualized). Both expose the same operations; PrIM code never
/// sees the difference (requirement R3).
pub enum RankChannel {
    /// Direct performance-mode access (the paper's baseline).
    Native(PerfMapping),
    /// Through the vPIM frontend inside a VM.
    Virt(Arc<Frontend>),
}

impl std::fmt::Debug for RankChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankChannel::Native(p) => write!(f, "RankChannel::Native(rank {})", p.rank_id()),
            RankChannel::Virt(_) => write!(f, "RankChannel::Virt"),
        }
    }
}

/// A matrix transfer started with [`RankChannel::begin_write_matrix`] or
/// [`RankChannel::begin_read_matrix`]. Native channels complete
/// synchronously (the mmap'ed copy happens during begin); virtualized
/// channels are genuinely in flight, so beginning the next rank's transfer
/// before finishing this one overlaps the two.
#[derive(Debug)]
pub enum PendingMatrix {
    /// Already complete; carries the read outputs (none for a write) and
    /// the final report.
    Done(Vec<Vec<u8>>, OpReport),
    /// Awaiting a vUPMEM device completion.
    Virt(InFlight),
}

/// The report of one native rank transfer of `bytes` bytes taking `ddr` on
/// the memory bus: the host-side interleave plus the DDR time.
fn native_report(cm: &CostModel, bytes: u64, ddr: VirtualNanos) -> OpReport {
    let mut r = OpReport::of(cm.interleave(bytes, DataPath::Vectorized) + ddr);
    r.set_ddr(ddr);
    r.add_rank_ops(1);
    r
}

impl RankChannel {
    /// Functional DPUs behind this channel.
    #[must_use]
    pub fn dpu_count(&self) -> usize {
        match self {
            RankChannel::Native(p) => p.dpu_count(),
            RankChannel::Virt(f) => f.nr_dpus() as usize,
        }
    }

    /// MRAM bytes per DPU.
    #[must_use]
    pub fn mram_size(&self) -> u64 {
        match self {
            RankChannel::Native(p) => p.rank().mram_size(),
            RankChannel::Virt(f) => f.mram_size(),
        }
    }

    /// Loads a program image by name on the given DPUs.
    ///
    /// # Errors
    ///
    /// Unknown kernel or IRAM overflow.
    pub fn load(&self, name: &str, dpus: &[u32], cm: &CostModel) -> Result<OpReport, SdkError> {
        match self {
            RankChannel::Native(p) => {
                let list: Vec<usize> = dpus.iter().map(|d| *d as usize).collect();
                p.load_by_name(if list.is_empty() { None } else { Some(&list) }, name)?;
                Ok(OpReport::of(cm.ci_op().saturating_mul(self.dpu_count() as u64)))
            }
            RankChannel::Virt(f) => Ok(f.load_program(name, dpus)?),
        }
    }

    /// Starts a parallel `write-to-rank` of per-DPU buffers without waiting
    /// for completion. Begin the write on every channel of a multi-rank set
    /// first, then [`finish_matrix`](Self::finish_matrix) each one: under
    /// parallel dispatch the per-rank transfers overlap in wall-clock time,
    /// while every virtual-time figure is the same as finishing each
    /// before beginning the next.
    ///
    /// # Errors
    ///
    /// Hardware bounds errors or transport failures.
    pub fn begin_write_matrix(
        &self,
        entries: &[(u32, u64, &[u8])],
        cm: &CostModel,
    ) -> Result<PendingMatrix, SdkError> {
        match self {
            RankChannel::Native(p) => {
                let native: Vec<(usize, u64, &[u8])> =
                    entries.iter().map(|(d, o, b)| (*d as usize, *o, *b)).collect();
                let cost = p.write_matrix(&native)?;
                Ok(PendingMatrix::Done(
                    Vec::new(),
                    native_report(cm, cost.bytes, cost.duration(cm)),
                ))
            }
            RankChannel::Virt(f) => Ok(PendingMatrix::Virt(f.begin_write_rank(entries)?)),
        }
    }

    /// Starts a parallel `read-from-rank` of per-DPU ranges without waiting
    /// for completion; pair with [`finish_matrix`](Self::finish_matrix).
    ///
    /// # Errors
    ///
    /// Hardware bounds errors or transport failures.
    pub fn begin_read_matrix(
        &self,
        reqs: &[(u32, u64, u64)],
        cm: &CostModel,
    ) -> Result<PendingMatrix, SdkError> {
        match self {
            RankChannel::Native(p) => {
                let mut outs: Vec<Vec<u8>> =
                    reqs.iter().map(|(_, _, len)| vec![0u8; *len as usize]).collect();
                let mut views: Vec<(usize, u64, &mut [u8])> = reqs
                    .iter()
                    .zip(outs.iter_mut())
                    .map(|((d, o, _), buf)| (*d as usize, *o, buf.as_mut_slice()))
                    .collect();
                let total = p.read_matrix(&mut views)?.bytes;
                let report = native_report(cm, total, cm.rank_transfer_parallel(total));
                Ok(PendingMatrix::Done(outs, report))
            }
            RankChannel::Virt(f) => Ok(PendingMatrix::Virt(f.begin_read_rank(reqs)?)),
        }
    }

    /// Completes a transfer started on this channel by
    /// [`begin_write_matrix`](Self::begin_write_matrix) or
    /// [`begin_read_matrix`](Self::begin_read_matrix): one buffer per read
    /// range (none for a write) plus the cost report.
    ///
    /// # Errors
    ///
    /// Hardware bounds errors or transport failures.
    pub fn finish_matrix(
        &self,
        pending: PendingMatrix,
    ) -> Result<(Vec<Vec<u8>>, OpReport), SdkError> {
        match (pending, self) {
            (PendingMatrix::Done(outs, report), _) => Ok((outs, report)),
            (PendingMatrix::Virt(inflight), RankChannel::Virt(f)) => {
                Ok(f.finish_rank(inflight)?)
            }
            (PendingMatrix::Virt(_), RankChannel::Native(_)) => {
                unreachable!("pending transfer finished on a different channel")
            }
        }
    }

    /// Serial single-DPU write (`dpu_copy_to`).
    ///
    /// # Errors
    ///
    /// Hardware bounds errors or transport failures.
    pub fn write_serial(
        &self,
        dpu: u32,
        offset: u64,
        data: &[u8],
        cm: &CostModel,
    ) -> Result<OpReport, SdkError> {
        match self {
            RankChannel::Native(p) => {
                let cost = p.write_dpu(dpu as usize, offset, data)?;
                Ok(native_report(cm, cost.bytes, cost.duration(cm)))
            }
            RankChannel::Virt(f) => Ok(f.write_rank(&[(dpu, offset, data)])?),
        }
    }

    /// Serial single-DPU read (`dpu_copy_from`).
    ///
    /// # Errors
    ///
    /// Hardware bounds errors or transport failures.
    pub fn read_serial(
        &self,
        dpu: u32,
        offset: u64,
        len: u64,
        cm: &CostModel,
    ) -> Result<(Vec<u8>, OpReport), SdkError> {
        match self {
            RankChannel::Native(p) => {
                let mut buf = vec![0u8; len as usize];
                let cost = p.read_dpu(dpu as usize, offset, &mut buf)?;
                Ok((buf, native_report(cm, cost.bytes, cost.duration(cm))))
            }
            RankChannel::Virt(f) => {
                let (mut outs, r) = f.read_rank(&[(dpu, offset, len)])?;
                Ok((outs.pop().expect("one range requested"), r))
            }
        }
    }

    /// Writes a host symbol on one DPU.
    ///
    /// # Errors
    ///
    /// Unknown symbol or size mismatch.
    pub fn write_symbol(
        &self,
        dpu: u32,
        name: &str,
        bytes: &[u8],
        cm: &CostModel,
    ) -> Result<OpReport, SdkError> {
        match self {
            RankChannel::Native(p) => {
                p.write_symbol(dpu as usize, name, bytes)?;
                Ok(OpReport::of(cm.ci_op()))
            }
            RankChannel::Virt(f) => Ok(f.write_symbol(dpu, name, bytes)?),
        }
    }

    /// Writes a `u32` symbol on many DPUs (one request in virtualized
    /// mode; a CI op per DPU natively).
    ///
    /// # Errors
    ///
    /// Unknown symbol or size mismatch.
    pub fn scatter_symbol(
        &self,
        name: &str,
        entries: &[(u32, u32)],
        cm: &CostModel,
    ) -> Result<OpReport, SdkError> {
        match self {
            RankChannel::Native(p) => {
                for (dpu, v) in entries {
                    p.write_symbol(*dpu as usize, name, &v.to_le_bytes())?;
                }
                Ok(OpReport::of(cm.ci_op().saturating_mul(entries.len() as u64)))
            }
            RankChannel::Virt(f) => Ok(f.scatter_symbol(name, entries)?),
        }
    }

    /// Reads a host symbol from one DPU.
    ///
    /// # Errors
    ///
    /// Unknown symbol or size mismatch.
    pub fn read_symbol(
        &self,
        dpu: u32,
        name: &str,
        len: usize,
        cm: &CostModel,
    ) -> Result<(Vec<u8>, OpReport), SdkError> {
        match self {
            RankChannel::Native(p) => {
                let mut bytes = vec![0u8; len];
                p.read_symbol(dpu as usize, name, &mut bytes)?;
                Ok((bytes, OpReport::of(cm.ci_op())))
            }
            RankChannel::Virt(f) => Ok(f.read_symbol(dpu, name, len)?),
        }
    }

    /// Boots the loaded program on the given DPUs; returns the slowest
    /// DPU's cycles plus the boot-side report (execution time itself is the
    /// caller's to charge).
    ///
    /// # Errors
    ///
    /// DPU faults or transport failures.
    pub fn launch(
        &self,
        dpus: &[u32],
        nr_tasklets: u32,
        cm: &CostModel,
    ) -> Result<(u64, OpReport), SdkError> {
        match self {
            RankChannel::Native(p) => {
                let list: Vec<usize> = dpus.iter().map(|d| *d as usize).collect();
                let reports =
                    p.launch(if list.is_empty() { None } else { Some(&list) }, nr_tasklets as usize)?;
                let cycles = reports.iter().map(|(_, r)| r.cycles).max().unwrap_or(0);
                let boots = if dpus.is_empty() { self.dpu_count() } else { dpus.len() };
                Ok((cycles, OpReport::of(cm.ci_op().saturating_mul(boots as u64))))
            }
            RankChannel::Virt(f) => {
                let report = f.launch(dpus, nr_tasklets)?;
                Ok((report.launch_cycles(), report))
            }
        }
    }

    /// Polls one DPU's status.
    ///
    /// # Errors
    ///
    /// Invalid DPU index or transport failures.
    pub fn poll(&self, dpu: u32, cm: &CostModel) -> Result<(CiStatus, OpReport), SdkError> {
        match self {
            RankChannel::Native(p) => {
                let s = p.poll_status(dpu as usize)?;
                Ok((s, OpReport::of(cm.ci_op())))
            }
            RankChannel::Virt(f) => Ok(f.poll_status(dpu)?),
        }
    }

    /// The cost of the SDK's synchronous-launch polling loop for a run of
    /// `exec_time`: `(messages, overhead)`. One real poll is issued by the
    /// caller; the rest are charged analytically and recorded in the CI
    /// counters where reachable. Native polls cross no VM boundary, so
    /// their message count is zero.
    #[must_use]
    pub fn sync_poll_cost(&self, exec_time: VirtualNanos, cm: &CostModel) -> (u64, VirtualNanos) {
        match self {
            RankChannel::Native(p) => {
                let polls = cm.launch_polls(exec_time);
                let extra = polls.saturating_sub(1);
                p.rank().record_polls(extra);
                (0, cm.ci_op().saturating_mul(extra))
            }
            RankChannel::Virt(f) => f.sync_poll_cost(exec_time),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upmem_driver::UpmemDriver;
    use upmem_sim::{PimConfig, PimMachine};

    fn native_channel() -> RankChannel {
        let driver = UpmemDriver::new(PimMachine::new(PimConfig::small()));
        RankChannel::Native(driver.open_perf(0, "chan-test").unwrap())
    }

    #[test]
    fn write_serial_roundtrips_through_mram() {
        let ch = native_channel();
        let cm = CostModel::default();
        let data = [7u8; 64];
        let r = ch.write_serial(0, 4096, &data, &cm).unwrap();
        assert!(r.duration() > VirtualNanos::ZERO);
        assert_eq!(r.rank_ops(), 1);
        let (back, _) = ch.read_serial(0, 4096, 64, &cm).unwrap();
        assert_eq!(back, data);
    }
}
