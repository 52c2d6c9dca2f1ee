//! # microbench — the UPMEM demo applications used by §5.3
//!
//! Two microbenchmarks ship with the UPMEM SDK and anchor the paper's
//! sensitivity analyses:
//!
//! * [`checksum`] — the host generates a file of a given size and every
//!   DPU computes its checksum over the *same* data (no partitioning).
//!   Each run performs one `write-to-rank`, one `read-from-rank` per DPU
//!   and a few CI operations: the benchmark reads `virt.backend.ci` = 4
//!   per run, against §5.3.1's 8 000–28 000 (a row of ROADMAP.md item 9's
//!   count table). Used for Fig. 9 (vCPUs / DPUs / transfer-size
//!   sensitivity), Fig. 11–13 (Rust vs C data path) and Fig. 15/16
//!   (parallel multi-rank handling).
//! * [`index_search`] — scans an inverted index of a Wikipedia-like corpus
//!   for phrase queries, 445 queries over 4 305 documents in batches of
//!   128 (§5.3.2, Fig. 10). The corpus here is synthetic (the real
//!   Wikipedia subset is not redistributable) with matching shape.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod index_search;

pub use checksum::{Checksum, ChecksumRun};
pub use index_search::{IndexSearch, IndexSearchParams, SearchRun};
