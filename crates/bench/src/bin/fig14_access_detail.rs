//! Figure 14: per-shard and per-worker running state at θ = 0.99,
//! before vs after max-flow balancing.
//!
//! * (a) per-shard accesses/s, shards ranked by load;
//! * (b) per-worker accesses/s before balancing;
//! * (c) per-worker accesses/s and CPU utilisation after balancing — the
//!   paper observes "the workload of workers is almost balanced, and the
//!   CPU utilization of all workers is close to α (85%)".

use logstore_bench::balancing::{run, BalanceExperiment, BalancerKind};
use logstore_bench::print_table;

fn main() {
    let theta = 0.99;
    let exp = BalanceExperiment::paper_like(theta);
    let outcome = run(&exp, BalancerKind::MaxFlow);

    // (a) shard accesses ranked by before-load.
    let mut shards: Vec<_> = outcome.before.shard_load.iter().collect();
    shards.sort_by_key(|(_, &load)| std::cmp::Reverse(load));
    let rows: Vec<Vec<String>> = shards
        .iter()
        .enumerate()
        .map(|(rank, (shard, &before))| {
            let after = outcome.after.shard_load.get(shard).copied().unwrap_or(0);
            vec![(rank + 1).to_string(), shard.to_string(), before.to_string(), after.to_string()]
        })
        .collect();
    print_table(
        &format!("Figure 14(a): shard accesses/s at theta={theta} (ranked by before-load)"),
        &["rank", "shard", "before", "after"],
        &rows,
    );

    // (b) + (c) workers.
    let mut workers: Vec<_> = outcome.before.worker_load.keys().copied().collect();
    workers.sort_unstable();
    let rows: Vec<Vec<String>> = workers
        .iter()
        .map(|w| {
            let before = outcome.before.worker_load.get(w).copied().unwrap_or(0);
            let after = outcome.after.worker_load.get(w).copied().unwrap_or(0);
            let util = outcome.after.worker_utilization.get(w).copied().unwrap_or(0.0);
            vec![
                w.to_string(),
                before.to_string(),
                after.to_string(),
                format!("{:.1}%", util * 100.0),
            ]
        })
        .collect();
    print_table(
        "Figure 14(b)+(c): worker accesses/s and post-balance CPU utilisation",
        &["worker", "before", "after", "cpu-util(after)"],
        &rows,
    );
    let utils: Vec<f64> =
        workers.iter().filter_map(|w| outcome.after.worker_utilization.get(w).copied()).collect();
    let min = utils.iter().copied().fold(f64::INFINITY, f64::min);
    let max = utils.iter().copied().fold(0.0, f64::max);
    println!(
        "\npost-balance worker utilisation spread: {:.1}%..{:.1}% against alpha = {:.0}% \
         (paper: 'CPU utilization of all workers is close to alpha (85%)')",
        min * 100.0,
        max * 100.0,
        exp.flow.alpha * 100.0
    );
}
