//! Figure 13: shard / worker access standard deviation, before vs after
//! max-flow balancing, as the skew factor grows.

use logstore_bench::balancing::{run, BalanceExperiment, BalancerKind};
use logstore_bench::print_table;
use logstore_flow::monitor::load_stddev;

fn main() {
    let thetas = [0.0, 0.2, 0.4, 0.6, 0.8, 0.99];
    let mut shard_rows = Vec::new();
    let mut worker_rows = Vec::new();
    let mut improvements = Vec::new();
    for &theta in &thetas {
        let exp = BalanceExperiment::paper_like(theta);
        let outcome = run(&exp, BalancerKind::MaxFlow);
        let shard_before = load_stddev(&outcome.before.shard_load);
        let shard_after = load_stddev(&outcome.after.shard_load);
        let worker_before = load_stddev(&outcome.before.worker_load);
        let worker_after = load_stddev(&outcome.after.worker_load);
        shard_rows.push(vec![
            format!("{theta}"),
            format!("{shard_before:.0}"),
            format!("{shard_after:.0}"),
        ]);
        worker_rows.push(vec![
            format!("{theta}"),
            format!("{worker_before:.0}"),
            format!("{worker_after:.0}"),
        ]);
        if theta >= 0.8 {
            improvements.push((
                theta,
                shard_before / shard_after.max(1.0),
                worker_before / worker_after.max(1.0),
            ));
        }
    }
    print_table(
        "Figure 13(a): shard accesses std (rows/s) before/after max-flow balancing",
        &["theta", "before", "after"],
        &shard_rows,
    );
    print_table(
        "Figure 13(b): worker accesses std (rows/s) before/after max-flow balancing",
        &["theta", "before", "after"],
        &worker_rows,
    );
    for (theta, s, w) in improvements {
        println!(
            "\ntheta={theta}: shard std reduced {s:.1}x, worker std reduced {w:.1}x \
             (paper reports 2.8x shard / 5x worker at high skew)"
        );
    }
}
