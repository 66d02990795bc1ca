//! Flow-control benchmarks: Dinic max-flow runtime on paper-scale graphs
//! and full rebalance planning (greedy vs max-flow).

use criterion::{criterion_group, criterion_main, Criterion};
use logstore_bench::balancing::{run, BalanceExperiment, BalancerKind};
use logstore_flow::FlowNetwork;
use std::hint::black_box;

/// The paper-scale flow graph: 1000 tenants, 24 shards, 6 workers.
fn paper_scale_network() -> (FlowNetwork, usize, usize) {
    let mut g = FlowNetwork::new();
    let s = g.add_node();
    let t = g.add_node();
    let tenants: Vec<usize> = (0..1000).map(|_| g.add_node()).collect();
    let shards: Vec<usize> = (0..24).map(|_| g.add_node()).collect();
    let workers: Vec<usize> = (0..6).map(|_| g.add_node()).collect();
    for (i, &k) in tenants.iter().enumerate() {
        g.add_edge(s, k, 100 + (1000 / (i as u64 + 1))).unwrap();
        g.add_edge(k, shards[i % 24], 100_000).unwrap();
    }
    for (j, &p) in shards.iter().enumerate() {
        g.add_edge(p, workers[j / 4], 100_000).unwrap();
    }
    for &d in &workers {
        g.add_edge(d, t, 340_000).unwrap();
    }
    (g, s, t)
}

fn bench_dinic(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow/dinic");
    group.sample_size(20);
    group.bench_function("paper-scale (1030 nodes)", |b| {
        b.iter_with_setup(paper_scale_network, |(mut g, s, t)| black_box(g.max_flow(s, t).unwrap()))
    });
    group.finish();
}

fn bench_rebalance(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow/rebalance");
    group.sample_size(10);
    for kind in [BalancerKind::Greedy, BalancerKind::MaxFlow] {
        group.bench_function(kind.planner().expect("a balancing policy").name(), |b| {
            let exp = BalanceExperiment::paper_like(0.99);
            b.iter(|| black_box(run(&exp, kind).after.throughput))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dinic, bench_rebalance);
criterion_main!(benches);
