//! Property suite for the manager's rank table (Fig. 5).
//!
//! Generated op sequences — allocations, direct recycles, checkpoint
//! marks, synthetic sysfs sweeps, resets — drive one
//! [`vpim::manager::table::TableState`], and after every op the suite
//! checks what the state machine promises without a second implementation
//! to compare against: only Fig. 5's edges occur, the transition counter
//! counts exactly the ranks that moved, an allocation only ever hands out a
//! free rank or the requester's own unreset one, and the statistics equal
//! the outcomes the caller saw.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use simkit::CostModel;
use upmem_driver::{RankStatus, UpmemDriver};
use upmem_sim::{PimConfig, PimMachine};
use vpim::manager::table::TableState;
use vpim::manager::RankState::{self, Allo, Ckpt, Naav, Nana};

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

/// One synthetic sysfs sweep: the test owns the status/claims vectors, so
/// reconciliation decisions depend only on table state.
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
    #[test]
    fn every_op_walks_only_fig5_edges_and_accounts_for_them(
        ops in proptest::collection::vec((0u8..6, 0u8..32), 1..40),
    ) {
        const NATIVE: &str = "native:app";
        let table = TableState::new(driver(), CostModel::default());
        let owners = ["vm-a", "vm-b", "vm-c", "vm-d"];
        let mut board = FakeBoard::new();
        // Who last held each rank: a NANA rank may only go back to them.
        let mut last_owner: Vec<Option<&str>> = vec![None; RANKS];
        let (mut allocs, mut reuses, mut abandoned, mut resets) = (0u64, 0u64, 0u64, 0u64);
        for (op, arg) in ops {
            let rank = arg as usize % RANKS;
            let before = table.states();
            let edges_before = table.transitions();
            match op {
                0 => {
                    let owner = owners[arg as usize % owners.len()];
                    let mine = |r: usize| before[r] == Nana && last_owner[r] == Some(owner);
                    match table.alloc(owner, quick(), 1) {
                        Ok(got) => {
                            prop_assert!(
                                before[got.rank] == Naav || mine(got.rank),
                                "{owner} was granted rank {} in {:?} (last owner {:?})",
                                got.rank, before[got.rank], last_owner[got.rank]
                            );
                            // An own NANA rank is preferred (no reset needed).
                            prop_assert_eq!(got.reused, (0..RANKS).any(mine));
                            prop_assert_eq!(got.reused, before[got.rank] == Nana);
                            last_owner[got.rank] = Some(owner);
                            allocs += 1;
                            reuses += u64::from(got.reused);
                        }
                        Err(_) => {
                            prop_assert!(
                                (0..RANKS).all(|r| before[r] != Naav && !mine(r)),
                                "{owner} was refused with a claimable rank in {before:?}"
                            );
                            abandoned += 1;
                        }
                    }
                }
                1 => {
                    let held = matches!(before[rank], Allo | Ckpt);
                    prop_assert_eq!(table.recycle(rank), held);
                }
                2 => {
                    prop_assert_eq!(table.mark_ckpt(rank), before[rank] == Allo);
                }
                3 | 4 => {
                    // A release (3) or an external native-app claim (4)
                    // observed by the synthetic sysfs sweep.
                    board.claims[rank] += 1;
                    board.status[rank] = if op == 3 {
                        RankStatus::Free
                    } else {
                        RankStatus::InUse { owner: NATIVE.into() }
                    };
                    let to_reset = table.sync_with_sysfs(&board.snapshot());
                    let now = table.states();
                    let released: Vec<usize> =
                        (0..RANKS).filter(|&r| before[r] != Nana && now[r] == Nana).collect();
                    prop_assert_eq!(to_reset, released);
                    for r in 0..RANKS {
                        if before[r] == Naav && now[r] == Allo {
                            prop_assert_ne!(&board.status[r], &RankStatus::Free);
                            last_owner[r] = Some(NATIVE);
                        }
                    }
                }
                _ => {
                    table.reset_rank(rank);
                    resets += u64::from(before[rank] == Nana);
                }
            }
            let now = table.states();
            let mut moved = 0;
            for r in 0..RANKS {
                prop_assert_eq!(table.state_of(r), Some(now[r]));
                if before[r] == now[r] {
                    continue;
                }
                moved += 1;
                let legal = match (before[r], now[r]) {
                    (Naav, Allo) => matches!(op, 0 | 3 | 4),
                    (Nana, Allo) => op == 0,
                    (Allo, Ckpt) => op == 2,
                    (Allo | Ckpt, Nana) => matches!(op, 3 | 4),
                    (Allo | Ckpt, Naav) => op == 1,
                    (Nana, Naav) => op == 5,
                    _ => false,
                };
                prop_assert!(legal, "op {op}: rank {r} went {:?} -> {:?}", before[r], now[r]);
                // Only the sweep touches a rank other than the one named.
                prop_assert!(matches!(op, 0 | 3 | 4) || r == rank);
            }
            prop_assert!(op != 0 || moved <= 1, "one alloc moved {moved} ranks");
            prop_assert_eq!(table.transitions(), edges_before + moved);
        }
        prop_assert_eq!(table.state_of(RANKS), None::<RankState>);
        let stats = table.stats();
        prop_assert_eq!(
            (stats.allocations, stats.reuses, stats.abandoned, stats.resets),
            (allocs, reuses, abandoned, resets)
        );
    }
}
