//! Tier-1 smoke of the simulation harness: one short seeded episode.
//! The full sweeps live in `crates/simtest/tests/simulation.rs`.

use logstore_core::CrashPoint;
use logstore_simtest::{Episode, SimOp, SimPlan};

#[test]
fn short_episode_with_crash_and_faults() {
    let plan = SimPlan::new(
        99,
        vec![
            SimOp::Ingest { tenant: 1, rows: 80 },
            SimOp::Ingest { tenant: 2, rows: 40 },
            SimOp::FaultWindow { probability: 0.3 },
            SimOp::FlushAll,
            SimOp::ClearFaults,
            SimOp::Ingest { tenant: 1, rows: 40 },
            SimOp::ArmCrash { point: CrashPoint::AfterUpload, countdown: 0 },
            SimOp::FlushAll,
            SimOp::CheckQueries { tenant: 1 },
            SimOp::CheckQueries { tenant: 2 },
            SimOp::CheckInvariants,
        ],
    );
    let report = Episode::run(&plan).unwrap_or_else(|failure| panic!("{failure}"));
    assert_eq!(report.rows_acked, 160);
    assert_eq!(report.crashes, 1);
    assert!(report.blocks > 0);
}
