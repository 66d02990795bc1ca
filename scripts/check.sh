#!/usr/bin/env bash
# Full pre-merge check: formatting, lint gate, release build, the whole
# test suite, a warnings-as-errors clippy pass, the simulation sweep, and
# a release-mode lock-analysis pass.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check

# Repo lint gate: raw-lock ban, unwrap burn-down, simtest determinism,
# CrashPoint coverage, forbid(unsafe_code), lock-label audit, swallowed-
# Result ban. See DESIGN.md §Static & dynamic analysis.
cargo run -q -p xtask -- lint

cargo build --release
# The criterion targets are `harness = false`: neither `cargo test` nor
# `cargo clippy` below compiles them, so an API they import can be removed
# without anything noticing. Build them.
cargo build --release --benches -p logstore-bench
# --workspace: the root manifest is both a package and the workspace, so a
# bare `cargo test -q` would only run the facade crate's suites. Debug
# tests run with the logstore-sync lock-order analysis active.
cargo test --workspace -q
cargo clippy --workspace -- -D warnings

# Simulation stage: a fixed, bounded seed sweep of whole-engine episodes
# plus the raft churn sweep (release mode keeps wall-clock low). The
# per-episode seeds are fixed so a red run here reproduces anywhere; any
# failure already prints its own `SIMTEST_SEED=<seed>` replay command.
echo "== simulation sweep (replay any failure with SIMTEST_SEED=<seed>) =="
cargo test --release -q -p logstore-simtest
cargo test --release -q -p logstore-raft --test churn

# Controller-failover stage: the replicated control plane loses its
# leader before / during / after a rebalance (a fixed seed sweep across
# all three kill points), heals, and must converge byte-identically with
# query results matching the fault-free run. Replay any failure with
# `SIMTEST_SEED=<seed> cargo test --test controller_failover`.
echo "== controller failover sweep =="
cargo test --release -q --test controller_failover

# End-to-end bench smoke: bench_e2e is its own workspace, so nothing above
# notices when a crate API it imports is renamed or removed. This builds
# it against the crates as they are now and runs all three workloads for
# a few seconds with its output checker on (see bench_e2e/README.md).
echo "== bench_e2e smoke =="
cargo run --release --offline --quiet --manifest-path bench_e2e/Cargo.toml -- --smoke

# Compaction bench smoke: ages a small fragmented dataset, compacts it,
# and asserts the >=2x read-amplification reduction plus byte-identical
# query results and exact OSS/map mirroring after GC. The full matrix
# (BENCH_compact.json) runs manually via
# `cargo run --release -p logstore-bench --bin bench_compact`.
echo "== bench_compact smoke =="
cargo run -q --release -p logstore-bench --bin bench_compact -- --smoke

# Query bench smoke: the aggregation templates over a small aged dataset,
# asserting byte-identical results across the {pushdown, skipping} matrix
# and the >=10x partial-byte reduction from aggregation pushdown. The full
# matrix (BENCH_query.json) runs manually via
# `cargo run --release -p logstore-bench --bin bench_query`.
echo "== bench_query smoke =="
cargo run -q --release -p logstore-bench --bin bench_query -- --smoke

# Lock-analysis stage: the same detector that runs in every debug test,
# but over *release* interleavings — optimized code races harder. Covers
# the simtest episode sweep, the cache herd, the read-path structure
# tests (header and data waves crossing the object tier and the store
# stack's `assert_no_locks_held` guards from wave threads; and the
# real-time cases: a scan parked on its row-store snapshot while an append
# and a whole flush go through the same shard, a flush landing between an
# attempt's map read and its row-store read, `wal.run.columns` taken from
# pool threads beside `wal.shard.inner`), the engine lock-order
# regression tests, and the archive fault tests — whose uploader threads
# cross the same guards with up to eight PUTs in flight.
echo "== release lock-analysis sweep =="
cargo test --release -q -p logstore-simtest --features lock-analysis
cargo test --release -q -p logstore-cache --features lock-analysis --test concurrency
cargo test --release -q -p logstore-core --features lock-analysis --test read_path
cargo test --release -q --features lock-analysis --test lock_order --test concurrency \
    --test archive_faults

# Schedule-exploration stage: the seeded PCT scheduler drives every
# Ordered* lock/condvar op and sync_point through a fixed seed sweep
# (release mode — the scheduler serializes execution, so optimized
# builds keep the sweep fast). The planted-bug suite proves the checker
# still catches each known bug class within its seed budget; the real
# GroupCommitWal and SingleFlight protocols must survive their full
# sweeps, and so must the ShardStore protocol with a reader holding a
# row-store snapshot across the drain and its ack or restore
# (`shard_store_survives_schedule_sweep` in the wal suite). The sync
# suite repeats 3x to pin that the sweep is deterministic and clean, not
# flaky-green. Any failure prints its seed and a `SCHED_SEED=<n>` replay
# command.
echo "== schedule exploration sweep (replay any failure with SCHED_SEED=<n>) =="
for _ in 1 2 3; do
    cargo test --release -q -p logstore-sync --features sched-fuzz --test sched
done
cargo test --release -q -p logstore-wal --features sched-fuzz --test sched
cargo test --release -q -p logstore-cache --features sched-fuzz --test sched

# Optional deep-checking stage: run under Miri / ThreadSanitizer when the
# toolchains are installed (they are not in the offline CI container;
# both skip gracefully).
if cargo miri --version >/dev/null 2>&1; then
    echo "== miri (logstore-sync) =="
    cargo miri test -p logstore-sync
else
    echo "== miri not installed; skipping =="
fi
if rustc -Z help 2>/dev/null | grep -q sanitizer && [ "${RUN_TSAN:-0}" = "1" ]; then
    echo "== thread sanitizer (cache herd) =="
    RUSTFLAGS="-Z sanitizer=thread" cargo test -p logstore-cache --test concurrency
else
    echo "== thread sanitizer unavailable or RUN_TSAN unset; skipping =="
fi
