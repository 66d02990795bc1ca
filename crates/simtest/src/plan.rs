//! Seed → schedule expansion.

use logstore_core::CrashPoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One step of a simulation schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum SimOp {
    /// Ingest `rows` fresh records for `tenant`.
    Ingest {
        /// Target tenant.
        tenant: u64,
        /// Batch size.
        rows: usize,
    },
    /// Force a full build pass (drain → upload → ack on every shard).
    FlushAll,
    /// Run the build pass only for shards over the flush threshold.
    FlushIfNeeded,
    /// One compaction pass (merge runs of small LogBlocks) followed by a
    /// GC pass over the tombstones it produced. Row-preserving, so the
    /// acked-rows oracle is unaffected.
    Compact,
    /// One traffic-control tick (may rebalance and flush vacated routes).
    ControlTick,
    /// Differential-check one tenant's queries against the oracle.
    CheckQueries {
        /// Tenant to check.
        tenant: u64,
    },
    /// Open an OSS fault window: in-scope (write) operations start failing
    /// with this probability until cleared.
    FaultWindow {
        /// Per-operation failure probability.
        probability: f64,
    },
    /// Close the fault window.
    ClearFaults,
    /// Arm a simulated crash at `point` after `countdown` further visits.
    ArmCrash {
        /// Protocol point to crash at.
        point: CrashPoint,
        /// Visits of `point` to let pass before firing (0 = next).
        countdown: u64,
    },
    /// Open a control-plane network fault window: controller RPCs start
    /// seeing seeded drops / duplicates / reordering until cleared.
    NetFault {
        /// Per-message drop probability.
        drop: f64,
        /// Per-message duplication probability.
        dup: f64,
        /// Allow out-of-order delivery.
        reorder: bool,
    },
    /// Restore a perfect control-plane network.
    ClearNetFaults,
    /// Kill the controller leader. With `during_rebalance`, arm the kill
    /// to fire right after the next rebalancing tick commits instead of
    /// immediately — the "leader dies mid-rebalance" scenario.
    KillController {
        /// Defer the kill to the next rebalance commit.
        during_rebalance: bool,
    },
    /// Revive killed controller replicas and heal their partitions.
    HealControllers,
    /// Run the full invariant battery now.
    CheckInvariants,
}

/// A complete, seed-derived episode schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPlan {
    /// The seed this plan (and its episode) derives from.
    pub seed: u64,
    /// The schedule.
    pub ops: Vec<SimOp>,
}

impl SimPlan {
    /// Expands `seed` into a schedule. The same seed always yields the
    /// same plan.
    pub fn from_seed(seed: u64) -> SimPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51_17_7e_57);
        let tenant_count: u64 = rng.gen_range(2..=4);
        let op_count: usize = rng.gen_range(40..=70);
        let mut ops = Vec::with_capacity(op_count + 1);
        for _ in 0..op_count {
            let roll: u32 = rng.gen_range(0..100);
            let op = match roll {
                0..=41 => SimOp::Ingest {
                    tenant: rng.gen_range(1..=tenant_count),
                    rows: rng.gen_range(5..=80),
                },
                42..=48 => SimOp::FlushAll,
                49..=54 => SimOp::FlushIfNeeded,
                55..=58 => SimOp::Compact,
                59..=61 => SimOp::ControlTick,
                62..=70 => SimOp::CheckQueries { tenant: rng.gen_range(1..=tenant_count) },
                71..=75 => SimOp::FaultWindow { probability: rng.gen_range(0.1..0.45) },
                76..=79 => SimOp::ClearFaults,
                80..=88 => SimOp::ArmCrash {
                    point: CrashPoint::ALL[rng.gen_range(0..CrashPoint::ALL.len())],
                    countdown: rng.gen_range(0..3),
                },
                // Drop rates stay modest: the client retransmit budget is
                // generous but an episode runs hundreds of RPCs.
                89..=90 => SimOp::NetFault {
                    drop: rng.gen_range(0.02..0.15),
                    dup: rng.gen_range(0.0..0.25),
                    reorder: rng.gen_bool(0.5),
                },
                91 => SimOp::ClearNetFaults,
                92..=93 => SimOp::KillController { during_rebalance: rng.gen_bool(0.5) },
                94 => SimOp::HealControllers,
                _ => SimOp::CheckInvariants,
            };
            ops.push(op);
        }
        ops.push(SimOp::CheckInvariants);
        SimPlan { seed, ops }
    }

    /// This plan without [`SimOp::ControlTick`] steps. The balancer's plan
    /// is equivalent across runs but not guaranteed byte-stable (snapshot
    /// assembly iterates hash maps), so trace-comparison tests drop ticks;
    /// invariant checking keeps them.
    pub fn without_control_ticks(mut self) -> SimPlan {
        self.ops.retain(|op| !matches!(op, SimOp::ControlTick));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        assert_eq!(SimPlan::from_seed(7), SimPlan::from_seed(7));
        assert_ne!(SimPlan::from_seed(7), SimPlan::from_seed(8));
    }

    #[test]
    fn plans_always_end_with_a_check() {
        for seed in 0..32 {
            let plan = SimPlan::from_seed(seed);
            assert_eq!(plan.ops.last(), Some(&SimOp::CheckInvariants));
            assert!(plan.ops.len() >= 41);
        }
    }

    #[test]
    fn control_tick_filter_drops_only_ticks() {
        // Find a seed whose plan contains a tick, then filter it.
        let seed = (0..1000)
            .find(|&s| SimPlan::from_seed(s).ops.iter().any(|op| matches!(op, SimOp::ControlTick)))
            .expect("some seed yields a ControlTick");
        let plan = SimPlan::from_seed(seed);
        let filtered = plan.clone().without_control_ticks();
        assert!(filtered.ops.len() < plan.ops.len());
        assert!(!filtered.ops.iter().any(|op| matches!(op, SimOp::ControlTick)));
    }
}
