//! A persistent worker-pool executor for real (wall-clock) parallelism.
//!
//! The rest of `simkit` models parallelism in *virtual* time
//! ([`crate::compose::pool_schedule`]); this module supplies the other half
//! of the two-clock design: actual OS threads that execute work
//! concurrently. The vPIM paper's backend (§4.2) keeps a pool of eight
//! threads alive for matrix translation and data copies instead of paying
//! thread spawn cost per request — [`WorkerPool`] reproduces that shape.
//!
//! Determinism contract: callers must never derive *reported* (virtual)
//! durations from the order in which jobs finish. Virtual costs are computed
//! from the work description alone; the pool only changes wall-clock time.
//!
//! # Example
//!
//! ```
//! use simkit::executor::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let jobs: Vec<_> = (0..8).map(|i| pool.submit(move || i * 2)).collect();
//! let out: Vec<i32> = jobs.into_iter().map(|j| j.wait()).collect();
//! assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of OS worker threads consuming jobs from a shared queue.
///
/// Workers stay alive for the pool's lifetime (persistent, like the paper's
/// backend thread pool) and are joined on drop. Jobs run in submission order
/// pick-up but may complete in any order; [`JobHandle::wait`] gives each
/// submitter its own result back, so completion order never leaks into
/// results.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `workers` threads (clamped to at least one).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let n = workers.max(1);
        let (tx, rx) = unbounded::<Job>();
        let workers = (0..n)
            .map(|i| {
                let rx: Receiver<Job> = rx.clone();
                std::thread::Builder::new()
                    .name(format!("simkit-pool-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { tx: Some(tx), workers }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job; returns a handle that yields its result.
    ///
    /// Panics inside the job are captured and re-raised from
    /// [`JobHandle::wait`] on the waiting thread, matching
    /// `std::thread::JoinHandle` semantics.
    pub fn submit<T, F>(&self, f: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (done_tx, done_rx) = unbounded::<std::thread::Result<T>>();
        let job: Job = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            let _ = done_tx.send(result);
        });
        if self.tx.as_ref().expect("pool alive").send(job).is_err() {
            unreachable!("workers hold the receiver for the pool's lifetime");
        }
        JobHandle { rx: done_rx }
    }

    /// Runs every closure on the pool and returns results **in submission
    /// order** — the convenience shape for fork-join over a chunked work
    /// list. Panics propagate from the first panicking job (by submission
    /// order) after all jobs were picked up.
    pub fn run_all<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let handles: Vec<JobHandle<T>> = jobs.into_iter().map(|f| self.submit(f)).collect();
        handles.into_iter().map(JobHandle::wait).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channel lets each worker drain and exit.
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            // A worker can only "panic" via a bug in the pool itself: job
            // panics are caught before they reach the worker loop.
            let _ = w.join();
        }
    }
}

/// The receipt for one submitted job; [`wait`](Self::wait) blocks until the
/// job has run and returns (or re-raises) its outcome.
#[derive(Debug)]
pub struct JobHandle<T> {
    rx: Receiver<std::thread::Result<T>>,
}

impl<T> JobHandle<T> {
    /// Blocks until the job completes. Re-raises the job's panic on this
    /// thread if it panicked.
    pub fn wait(self) -> T {
        match self.rx.recv() {
            Ok(Ok(value)) => value,
            Ok(Err(payload)) => resume_unwind(payload),
            Err(_) => unreachable!("worker drops the result sender only after sending"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new(3);
        let out = pool.run_all((0..32).map(|i| move || i * i).collect::<Vec<_>>());
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.submit(|| 41 + 1).wait(), 42);
    }

    #[test]
    fn jobs_run_concurrently_on_multiple_workers() {
        // Two jobs rendezvous on a barrier: only possible if both are
        // in flight at once.
        let pool = WorkerPool::new(2);
        let barrier = Arc::new(Barrier::new(2));
        let jobs: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&barrier);
                pool.submit(move || b.wait())
            })
            .collect();
        for j in jobs {
            j.wait();
        }
    }

    #[test]
    fn blocking_jobs_overlap_in_wall_clock() {
        // Even on a single CPU, sleeping jobs overlap.
        let pool = WorkerPool::new(4);
        let start = Instant::now();
        let jobs: Vec<_> = (0..4)
            .map(|_| pool.submit(|| std::thread::sleep(Duration::from_millis(40))))
            .collect();
        for j in jobs {
            j.wait();
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(120),
            "4x40ms jobs took {elapsed:?}; pool is serializing"
        );
    }

    #[test]
    fn panic_propagates_to_waiter_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let handle = pool.submit(|| panic!("job exploded"));
        let caught = catch_unwind(AssertUnwindSafe(|| handle.wait()));
        assert!(caught.is_err());
        // The worker that ran the panicking job is still serving.
        assert_eq!(pool.submit(|| 7).wait(), 7);
    }

    #[test]
    fn drop_joins_all_workers_after_pending_work() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    let c = Arc::clone(&counter);
                    pool.submit(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.wait();
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }
}
