//! Figure 12: system performance under different balancing algorithms.
//!
//! Sweeps the skew factor θ ∈ {0, 0.2, 0.4, 0.6, 0.8, 0.99} for three
//! policies — no flow control, the greedy balancer (Alg 2) and the
//! max-flow balancer (Alg 3) — and reports:
//!
//! * (a) write throughput,
//! * (b) write latency for a batch of 1000 log entries,
//! * (c) the number of route rules.

use logstore_bench::balancing::{run, BalanceExperiment, BalancerKind};
use logstore_bench::print_table;

fn main() {
    let thetas = [0.0, 0.2, 0.4, 0.6, 0.8, 0.99];
    let policies = [BalancerKind::None, BalancerKind::Greedy, BalancerKind::MaxFlow];

    let mut tp_rows = Vec::new();
    let mut lat_rows = Vec::new();
    let mut route_rows = Vec::new();
    for &theta in &thetas {
        let exp = BalanceExperiment::paper_like(theta);
        let mut tp = vec![format!("{theta}")];
        let mut lat = vec![format!("{theta}")];
        let mut routes = vec![format!("{theta}")];
        for &policy in &policies {
            let outcome = run(&exp, policy);
            tp.push(format!("{}", outcome.after.throughput));
            lat.push(format!("{:.1}", outcome.after.avg_latency_ms));
            routes.push(format!("{}", outcome.routes));
        }
        tp_rows.push(tp);
        lat_rows.push(lat);
        route_rows.push(routes);
    }

    let exp0 = BalanceExperiment::paper_like(0.0);
    println!(
        "cluster: 6 workers x 4 shards, shard capacity 100k rows/s, offered {} rows/s",
        exp0.total_rate
    );
    print_table(
        "Figure 12(a): write throughput (rows/s) vs skew factor",
        &["theta", "no-control", "greedy", "max-flow"],
        &tp_rows,
    );
    print_table(
        "Figure 12(b): write latency (ms per 1000-entry batch) vs skew factor",
        &["theta", "no-control", "greedy", "max-flow"],
        &lat_rows,
    );
    print_table(
        "Figure 12(c): route rules vs skew factor",
        &["theta", "no-control", "greedy", "max-flow"],
        &route_rows,
    );
    println!(
        "\npaper shape check: without control, throughput collapses and latency \
         grows toward ~2000 ms as theta -> 0.99; both balancers hold throughput \
         near the offered rate, and max-flow needs fewer route rules than greedy."
    );
}
