//! Differential (oracle-backed) suite for the sharded rank table.
//!
//! PR 7 sharded the manager's rank table and retained the pre-sharding
//! single-lock implementation verbatim as
//! [`vpim::manager::reference::ReferenceTable`]. This suite replays
//! generated op sequences against both, asserting identical alloc
//! outcomes, rank states, statistics and transition counts. Any semantic
//! drift introduced by sharding fails here first.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use simkit::CostModel;
use upmem_driver::{RankStatus, UpmemDriver};
use upmem_sim::{PimConfig, PimMachine};
use vpim::manager::reference::ReferenceTable;
use vpim::manager::table::TableState;

const RANKS: usize = 5;

fn driver() -> Arc<UpmemDriver> {
    let cfg = PimConfig {
        ranks: RANKS,
        functional_dpus: vec![2; RANKS],
        mram_size: 1 << 14,
        ..PimConfig::small()
    };
    Arc::new(UpmemDriver::new(PimMachine::new(cfg)))
}

fn quick() -> Duration {
    Duration::from_millis(2)
}

/// One synthetic sysfs sweep: the test owns the status/claims vectors and
/// feeds the *same* snapshot to both tables, so reconciliation decisions
/// depend only on table state — which must match.
#[derive(Clone)]
struct FakeBoard {
    status: Vec<RankStatus>,
    claims: Vec<u64>,
}

impl FakeBoard {
    fn new() -> Self {
        FakeBoard { status: vec![RankStatus::Free; RANKS], claims: vec![0; RANKS] }
    }

    fn snapshot(&self) -> Vec<(RankStatus, u64)> {
        self.status.iter().cloned().zip(self.claims.iter().copied()).collect()
    }
}

proptest! {
    /// The sharded rank table and the single-lock oracle walk identical
    /// state machines for any op sequence: same alloc outcomes (rank and
    /// reuse flag), same reconciliation decisions, same per-rank states,
    /// same statistics and transition counts.
    #[test]
    fn sharded_table_matches_single_lock_oracle(
        ops in proptest::collection::vec((0u8..6, 0u8..32), 1..40),
    ) {
        let sharded = TableState::new(driver(), CostModel::default());
        let oracle = ReferenceTable::new(driver(), CostModel::default());
        let owners = ["vm-a", "vm-b", "vm-c", "vm-d"];
        let mut board = FakeBoard::new();
        for (op, arg) in ops {
            let rank = arg as usize % RANKS;
            match op {
                0 => {
                    // Alloc: identical outcome or identical error.
                    let owner = owners[arg as usize % owners.len()];
                    let a = sharded.alloc(owner, quick(), 1);
                    let b = oracle.alloc(owner, quick(), 1);
                    match (a, b) {
                        (Ok(x), Ok(y)) => {
                            prop_assert_eq!(x.rank, y.rank);
                            prop_assert_eq!(x.reused, y.reused);
                        }
                        (Err(_), Err(_)) => {}
                        (x, y) => {
                            return Err(TestCaseError::fail(format!(
                                "alloc diverged: sharded={x:?} oracle={y:?}"
                            )));
                        }
                    }
                }
                1 => {
                    prop_assert_eq!(sharded.recycle(rank), oracle.recycle(rank));
                }
                2 => {
                    prop_assert_eq!(sharded.mark_ckpt(rank), oracle.mark_ckpt(rank));
                }
                3 => {
                    // Release observed by the (synthetic) sysfs sweep.
                    board.claims[rank] += 1;
                    board.status[rank] = RankStatus::Free;
                    let snap = board.snapshot();
                    prop_assert_eq!(
                        sharded.sync_with_sysfs(&snap),
                        oracle.sync_with_sysfs(&snap)
                    );
                }
                4 => {
                    // External (native app) claim observed by the sweep.
                    board.claims[rank] += 1;
                    board.status[rank] = RankStatus::InUse { owner: "native:app".into() };
                    let snap = board.snapshot();
                    prop_assert_eq!(
                        sharded.sync_with_sysfs(&snap),
                        oracle.sync_with_sysfs(&snap)
                    );
                }
                _ => {
                    // Reset worker runs (both sides claim/erase through
                    // their own identically-configured driver).
                    sharded.reset_rank(rank);
                    oracle.reset_rank(rank);
                }
            }
            // After every op: identical per-rank states via both the
            // locked oracle read and the sharded table's lock-free path.
            let want = oracle.states();
            prop_assert_eq!(sharded.states(), want.clone());
            for (r, w) in want.iter().enumerate() {
                prop_assert_eq!(sharded.state_of(r), Some(*w));
            }
        }
        prop_assert_eq!(sharded.stats(), oracle.stats());
        prop_assert_eq!(sharded.transitions(), oracle.transitions());
    }
}
