//! Raft replication throughput: propose→replicate→apply cycles on a
//! 3-replica in-process group, with and without tight BFC bounds.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use logstore_raft::{InProcCluster, RaftConfig};
use logstore_types::Error;
use std::hint::black_box;

/// A 3-replica group whose replicas record the payloads they apply.
fn ready_cluster(config: RaftConfig) -> InProcCluster<Vec<Vec<u8>>> {
    let mut c = InProcCluster::with_replicas(vec![Vec::new(); 3], config, 5);
    c.run_until_leader(500).expect("leader");
    c
}

fn bench_replication(c: &mut Criterion) {
    let mut group = c.benchmark_group("raft/replicate");
    group.sample_size(10);
    group.throughput(Throughput::Elements(100));
    group.bench_function("100-entry pipeline (3 replicas)", |b| {
        b.iter_with_setup(
            || ready_cluster(RaftConfig::default()),
            |mut cluster| {
                for i in 0..100u8 {
                    cluster.propose(vec![i]).unwrap();
                    cluster.step();
                }
                // Drain until everything is applied on the leader.
                let leader = cluster.any_leader().unwrap();
                while cluster.replica(leader).len() < 100 {
                    cluster.step();
                }
                black_box(cluster.replica(leader).len())
            },
        )
    });
    group.finish();
}

fn bench_bfc_rejection(c: &mut Criterion) {
    // How cheap is shedding load when the sync queue is saturated?
    let mut group = c.benchmark_group("raft/bfc");
    group.sample_size(20);
    group.bench_function("backpressure rejection path", |b| {
        let config = RaftConfig { sync_queue_limit: 8, ..RaftConfig::default() };
        let mut cluster = ready_cluster(config);
        // Saturate the sync queue (followers never ack because we stop
        // stepping).
        while cluster.propose(vec![0]).is_ok() {}
        b.iter(|| {
            let err = cluster.propose(black_box(vec![1])).unwrap_err();
            assert!(matches!(err, Error::Backpressure(_)));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_replication, bench_bfc_rejection);
criterion_main!(benches);
