//! The simulation suites.
//!
//! Reproduce any failure with the seed printed in its message:
//! `SIMTEST_SEED=<seed> cargo test -p logstore-simtest`.

use logstore_core::CrashPoint;
use logstore_simtest::{Episode, SimOp, SimPlan};
use std::collections::BTreeSet;

/// Crash points that live in the compaction/GC protocol: reaching them
/// takes a [`SimOp::Compact`] with a guaranteed-compactable run (two
/// adjacent small LogBlocks of one tenant), not a flush.
fn is_compact_point(point: CrashPoint) -> bool {
    matches!(
        point,
        CrashPoint::CompactPlanned
            | CrashPoint::CompactUploaded
            | CrashPoint::CompactCommitted
            | CrashPoint::BeforeGcDelete
    )
}

/// Ops that leave tenant 1 with two adjacent sub-threshold LogBlocks
/// (30 < 48 rows each), the minimal input the compaction planner accepts.
fn compactable_run_setup() -> Vec<SimOp> {
    vec![
        SimOp::FlushAll,
        SimOp::Ingest { tenant: 1, rows: 30 },
        SimOp::FlushAll,
        SimOp::Ingest { tenant: 1, rows: 30 },
        SimOp::FlushAll,
    ]
}

/// Fixed CI sweep, overridable to a single seed via `SIMTEST_SEED`.
fn sweep_seeds() -> Vec<u64> {
    match std::env::var("SIMTEST_SEED") {
        Ok(s) => {
            vec![s.parse().unwrap_or_else(|_| panic!("SIMTEST_SEED must be a u64, got {s:?}"))]
        }
        Err(_) => vec![1, 2, 3, 7, 11, 23, 42, 20260807],
    }
}

fn run_or_die(plan: &SimPlan) -> logstore_simtest::EpisodeReport {
    Episode::run(plan).unwrap_or_else(|failure| panic!("{failure}"))
}

#[test]
fn seeded_episode_sweep() {
    for seed in sweep_seeds() {
        let report = run_or_die(&SimPlan::from_seed(seed));
        println!(
            "seed {seed}: {} ops, {} crashes {:?}, {} faults, {} rows acked, {} checks, {} blocks",
            report.ops,
            report.crashes,
            report.crash_points,
            report.faults_injected,
            report.rows_acked,
            report.checks,
            report.blocks
        );
        assert!(report.checks > 0, "seed {seed}: no invariant battery ran");
    }
}

/// The acceptance episode: a sustained OSS fault window (p ≥ 0.25) plus
/// crashes at many distinct protocol points, each followed by recovery,
/// with zero acknowledged-row loss and oracle-identical query results.
#[test]
fn acceptance_faults_and_crashes() {
    let mut ops = vec![
        SimOp::Ingest { tenant: 1, rows: 120 },
        SimOp::Ingest { tenant: 2, rows: 120 },
        SimOp::FaultWindow { probability: 0.3 },
        SimOp::FlushAll,
        SimOp::Ingest { tenant: 1, rows: 60 },
        SimOp::FlushIfNeeded,
        SimOp::CheckQueries { tenant: 1 },
        SimOp::ClearFaults,
    ];
    // One crash per protocol point, each preceded by fresh rows so the
    // flush actually drains (and the armed point is reached). Compaction
    // points additionally need a compactable run on disk and a Compact
    // trigger — a flush never visits them.
    for point in CrashPoint::ALL {
        ops.push(SimOp::Ingest { tenant: 1, rows: 70 });
        ops.push(SimOp::Ingest { tenant: 2, rows: 30 });
        if is_compact_point(point) {
            ops.extend(compactable_run_setup());
            ops.push(SimOp::ArmCrash { point, countdown: 0 });
            ops.push(SimOp::Compact);
        } else {
            ops.push(SimOp::ArmCrash { point, countdown: 0 });
            ops.push(if point == CrashPoint::AfterWalAppend {
                SimOp::Ingest { tenant: 1, rows: 40 }
            } else {
                SimOp::FlushAll
            });
        }
        ops.push(SimOp::CheckQueries { tenant: 1 });
    }
    // Faults and crashes together: crash mid-protocol while uploads are
    // also failing with p = 0.25.
    ops.extend([
        SimOp::FaultWindow { probability: 0.25 },
        SimOp::Ingest { tenant: 2, rows: 90 },
        SimOp::ArmCrash { point: CrashPoint::AfterDrain, countdown: 0 },
        SimOp::FlushAll,
        SimOp::Ingest { tenant: 1, rows: 50 },
        SimOp::FlushAll,
        SimOp::ClearFaults,
        SimOp::CheckQueries { tenant: 1 },
        SimOp::CheckQueries { tenant: 2 },
        SimOp::CheckInvariants,
    ]);
    let report = run_or_die(&SimPlan { seed: 0xacce97, ops });
    assert!(report.crashes >= 6, "expected one crash per point, got {:?}", report.crash_points);
    let distinct: BTreeSet<CrashPoint> = report.crash_points.iter().copied().collect();
    assert!(distinct.len() >= 3, "need ≥3 distinct crash points, got {distinct:?}");
    assert!(report.faults_injected >= 1, "the fault window never actually failed an op");
    assert!(report.rows_acked >= 500);
    assert!(report.blocks > 0);
}

/// Focused sweep over every crash point, several seeds each, with the
/// group-commit WAL as the durable path (it is the only durable path).
/// Each episode ingests, arms exactly one point, triggers it (via ingest
/// for the WAL-append point, via flush for the archive-pipeline points),
/// recovers and runs the full differential battery — so a torn or
/// misframed group tail at any protocol point shows up as loss,
/// duplication or a counter mismatch.
#[test]
fn per_crash_point_group_commit_sweep() {
    for point in CrashPoint::ALL {
        for seed in [5u64, 17, 29] {
            let trigger = if point == CrashPoint::AfterWalAppend {
                SimOp::Ingest { tenant: 1, rows: 48 }
            } else if is_compact_point(point) {
                SimOp::Compact
            } else {
                SimOp::FlushAll
            };
            let mut ops =
                vec![SimOp::Ingest { tenant: 1, rows: 96 }, SimOp::Ingest { tenant: 2, rows: 64 }];
            if is_compact_point(point) {
                ops.extend(compactable_run_setup());
            }
            ops.extend([
                SimOp::ArmCrash { point, countdown: 0 },
                trigger,
                SimOp::CheckQueries { tenant: 1 },
                SimOp::CheckQueries { tenant: 2 },
                SimOp::Ingest { tenant: 1, rows: 32 },
                SimOp::FlushAll,
                SimOp::CheckInvariants,
            ]);
            let plan = SimPlan { seed: seed ^ (point as u64) << 8, ops };
            assert_eq!(
                run_or_die(&plan).crash_points,
                vec![point],
                "seed {seed}: expected exactly one crash at {point:?}"
            );
        }
    }
}

/// The controller-fault episode: network faults on the control plane,
/// a leader killed outright, a leader killed mid-rebalance (armed to fire
/// right after the next rebalance commits), heals in between — while the
/// full exactly-once / differential battery keeps running. The final
/// battery runs against a healed, converged control plane.
#[test]
fn acceptance_controller_faults() {
    let ops = vec![
        SimOp::Ingest { tenant: 1, rows: 120 },
        SimOp::Ingest { tenant: 2, rows: 80 },
        // RPCs under a lossy, duplicating, reordering control network.
        SimOp::NetFault { drop: 0.12, dup: 0.2, reorder: true },
        SimOp::Ingest { tenant: 1, rows: 60 },
        SimOp::ControlTick,
        SimOp::CheckQueries { tenant: 1 },
        SimOp::ClearNetFaults,
        // Kill the leader outright; the next RPCs ride the election.
        SimOp::KillController { during_rebalance: false },
        SimOp::Ingest { tenant: 3, rows: 90 },
        SimOp::FlushAll,
        SimOp::CheckQueries { tenant: 3 },
        SimOp::HealControllers,
        // Kill the next leader mid-rebalance: the kill arms now and fires
        // the moment a tick actually commits a rebalance.
        SimOp::KillController { during_rebalance: true },
        SimOp::Ingest { tenant: 1, rows: 100 },
        SimOp::Ingest { tenant: 2, rows: 40 },
        SimOp::ControlTick,
        SimOp::ControlTick,
        SimOp::CheckQueries { tenant: 1 },
        SimOp::CheckQueries { tenant: 2 },
        SimOp::HealControllers,
        SimOp::FlushAll,
        SimOp::CheckInvariants,
    ];
    let report = run_or_die(&SimPlan { seed: 0xc7_a1f5, ops });
    assert!(report.rows_acked >= 490);
    assert!(report.checks > 0);
    assert!(
        report.trace.iter().any(|l| l.contains("kill-controller killed=Some")),
        "the outright kill must have found a leader: {:#?}",
        report.trace
    );
}

/// Same seed, same trace: the episode is a pure function of its seed.
/// Control ticks are filtered — the balancer's *decisions* are checked by
/// the invariant battery, but its snapshot assembly iterates hash maps and
/// is not byte-stable across runs.
#[test]
fn determinism_same_seed_same_trace() {
    let plan = SimPlan::from_seed(777).without_control_ticks();
    let first = run_or_die(&plan);
    let second = run_or_die(&plan);
    assert_eq!(first, second, "same plan must replay to an identical report");
    assert!(first.trace.len() >= plan.ops.len());
}

/// An injected exactly-once bug must be caught, and the failure must name
/// the seed and the replay command.
#[test]
fn harness_catches_injected_violation() {
    let seed = 424_242;
    let mut episode = Episode::new(seed).unwrap_or_else(|f| panic!("{f}"));
    episode.apply(0, &SimOp::Ingest { tenant: 1, rows: 60 }).unwrap_or_else(|f| panic!("{f}"));
    episode.apply(1, &SimOp::FlushAll).unwrap_or_else(|f| panic!("{f}"));
    episode.inject_duplicate_row(1);
    let failure = episode
        .apply(2, &SimOp::CheckQueries { tenant: 1 })
        .expect_err("the duplicate must be detected");
    assert!(
        failure.message.contains("more than once"),
        "expected a duplication finding, got: {}",
        failure.message
    );
    let rendered = failure.to_string();
    assert!(rendered.contains(&format!("seed {seed}")), "failure must name the seed");
    assert!(
        rendered.contains(&format!("SIMTEST_SEED={seed}")),
        "failure must print the replay command"
    );
}

/// Soak: many seeds, run explicitly via
/// `cargo test -p logstore-simtest -- --ignored` (optionally
/// `SIMTEST_SOAK=<n>` to size the sweep).
#[test]
#[ignore = "soak sweep; run with --ignored (SIMTEST_SOAK=<n> to size)"]
fn soak_seed_sweep() {
    let n: u64 = std::env::var("SIMTEST_SOAK").ok().and_then(|s| s.parse().ok()).unwrap_or(500);
    for seed in 0..n {
        let report = run_or_die(&SimPlan::from_seed(seed));
        if seed % 50 == 0 {
            println!("seed {seed}: {} crashes, {} rows", report.crashes, report.rows_acked);
        }
    }
}
