//! Repo tooling: the pre-merge check (`cargo run -p xtask -- check
//! [--stage <name>]`), its lint gate (`cargo run -p xtask -- lint`) and the
//! non-test line count (`cargo run -p xtask -- loc [file…]`).
//!
//! `check` runs every row of [`STAGES`] in order and stops at the first
//! failure, printing the command that failed and how to replay its stage
//! alone. `scripts/check.sh` is one `exec` of it.
//!
//! `loc` prints, per crate, the lines before the first `#[cfg(test)]` of
//! every `crates/<name>/src/**/*.rs`, then the total over the six crates
//! ROADMAP item 3 tracks — the one number subtraction PRs report. Extra
//! arguments are repo-relative files counted the same way, and summed.
//!
//! `lint` runs token-level source checks that `cargo check` can't express:
//!
//! 1. **No raw locks** — every `Mutex`/`RwLock`/`Condvar` outside
//!    `crates/sync` and `vendor/` must go through the labeled
//!    `logstore_sync` wrappers so the debug lock-order analysis sees it
//!    (allowlist: `xtask/lint-allow-locks.txt`).
//! 2. **Unwrap burn-down** — `.unwrap()` / `.expect(` in non-test code
//!    under `crates/core/src`, `crates/query/src` and `crates/net/src`
//!    is budgeted per file (`xtask/lint-allow-unwrap.txt`); counts may
//!    only shrink.
//! 3. **Simtest determinism** — no wall-clock or sleep APIs in
//!    `crates/simtest/src`, `crates/net/src` or `crates/raft/src` (seeded
//!    simulations, the simulated network and the Raft groups that ride it
//!    must not observe time).
//! 4. **CrashPoint coverage** — every `CrashPoint` variant is referenced
//!    by at least one call site outside its defining module.
//! 5. **`#![forbid(unsafe_code)]`** in every non-vendor crate root.
//! 6. **Lock- and metric-label audit** — every `Ordered*::new("…")` site
//!    label and every `logstore_obs` registration label (`.counter("…")`,
//!    `.histogram("…")`) must be globally unique (a copy-pasted label
//!    silently merges two lock sites in the acquired-before graph, or two
//!    metrics in a snapshot) and follow the `crate.module.field`
//!    convention with the crate segment matching the file's crate
//!    directory (allowlist: `xtask/lint-allow-lock-labels.txt`).
//! 7. **Swallowed-`Result` ban** — `let _ =` and `.ok();` discarding a
//!    fallible call in non-test code is budgeted per file
//!    (`xtask/lint-allow-swallow.txt`); counts may only shrink.
//! 8. **Rows by reference** — no `.to_row()` in non-test code of the
//!    crates a row crosses on its way to the WAL and to OSS (`codec`,
//!    `core`, `wal`, `logblock`, `query`, `cache`): it deep-clones every
//!    field, and the write path reads rows in place (DESIGN.md §Write
//!    path). No allowlist — the count is zero.
//! 9. **Knob budget** — the `pub` fields of `ClusterConfig`, `WalConfig`
//!    and `QueryOptions` and the variants of `FlushPolicy` are counted
//!    against `xtask/knob-budget.txt`; counts may only shrink (each
//!    independently settable value doubles the configurations the oracles
//!    must cover).
//! 10. **One fan-out mechanism** — outside test code, threads are spawned
//!     only by the query pool (`crates/core/src/executor.rs`), the request
//!     wave (`crates/oss/src/wave.rs`) and the seeded scheduler
//!     (`crates/sync/src/sched.rs`): concurrency elsewhere — a build pass,
//!     a background builder — rides one of them instead of hand-rolled
//!     threads. No allowlist — the count is zero.
//! 11. **One Raft group** — outside test code, only the raft crate and the
//!     controller name `InProcCluster`. No allowlist.
//! 12. **Keyed hashers only** — non-test code of the crates whose maps
//!     hold tenant-chosen keys (`index`, `logblock`, `query`, `core`,
//!     `cache`, `wal`) names no `BuildHasherDefault`, implements no
//!     `Hasher` / `BuildHasher` and calls no `with_hasher(`: their maps
//!     keep std's keyed `RandomState`, so no tenant can aim collisions at
//!     a shared build or query. No allowlist — the count is zero.
//!
//! An allowlist entry that no longer matches anything — a path whose file
//! was deleted, a lock label no site carries — fails the lint, so a budget
//! cannot outlive its file and come back with a new one of the same name.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("lint") => lint(),
        Some("loc") => loc(&repo_root(), &args[1..]),
        _ => {
            eprintln!("usage: cargo run -p xtask -- <check [--stage <name>] | lint | loc [file…]>");
            ExitCode::FAILURE
        }
    }
}

/// The pre-merge check, as `(stage, cargo arguments, feature)` rows run in
/// this order. A stage is every row of one name; a feature is passed as
/// `--features <feature>`.
const STAGES: &[(&str, &[&str], Option<&str>)] = &[
    ("fmt", &["fmt", "--check"], None),
    // Raw-lock ban, unwrap burn-down, simtest determinism, CrashPoint
    // coverage, forbid(unsafe_code), lock-label audit, swallowed-Result
    // ban, rows by reference, knob budget, one fan-out mechanism, one Raft
    // group, keyed hashers. See DESIGN.md §Static & dynamic analysis.
    ("lint", &["run", "-q", "-p", "xtask", "--", "lint"], None),
    ("build", &["build", "--release"], None),
    // The criterion targets are `harness = false`: `cargo test` does not
    // compile them, so an API they import could be removed without the test
    // stage noticing. Build them (the clippy stage lints them too).
    ("build", &["build", "--release", "--benches", "-p", "logstore-bench"], None),
    // --workspace: the root manifest is both a package and the workspace,
    // so a bare `cargo test -q` would only run the facade crate's suites.
    // Debug tests run with the logstore-sync lock-order analysis active.
    ("test", &["test", "--workspace", "-q"], None),
    ("clippy", &["clippy", "--workspace", "--all-targets", "--", "-D", "warnings"], None),
    // A fixed, bounded seed sweep of whole-engine episodes plus the raft
    // churn sweep (release mode keeps wall-clock low). The per-episode
    // seeds are fixed so a red run here reproduces anywhere; any failure
    // prints its own `SIMTEST_SEED=<seed>` replay command.
    ("simulation", &["test", "--release", "-q", "-p", "logstore-simtest"], None),
    ("simulation", &["test", "--release", "-q", "-p", "logstore-raft", "--test", "churn"], None),
    // The replicated control plane loses its leader before / during / after
    // a rebalance (a fixed seed sweep across all three kill points), heals,
    // and must converge byte-identically with query results matching the
    // fault-free run. Replay any failure with
    // `SIMTEST_SEED=<seed> cargo test --test controller_failover`.
    ("failover", &["test", "--release", "-q", "--test", "controller_failover"], None),
    // bench_e2e is its own workspace, so nothing above notices when a crate
    // API it imports is renamed or removed. This builds it against the
    // crates as they are now and runs all three workloads for a few seconds
    // with its output checker on (see bench_e2e/README.md).
    (
        "bench-e2e",
        &[
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "bench_e2e/Cargo.toml",
            "--",
            "--smoke",
        ],
        None,
    ),
    // The stage timers must add up: both stage examples, at a small size,
    // fail when their stages sum to under 90 % of the wall time they time
    // (the flushes', the producers'), so a stage that grows outside every
    // timer shows here.
    (
        "stage-coverage",
        &["run", "--release", "-q", "--example", "archive_stages", "--", "2", "0.9"],
        None,
    ),
    (
        "stage-coverage",
        &["run", "--release", "-q", "--example", "ingest_stages", "--", "60000", "0.9"],
        None,
    ),
    // Index bytes must pay for themselves: the benchmark's aged shape,
    // built as the engine builds it, may pack no more LogBlock bytes per
    // raw byte than `xtask/storage-budget.txt` allows. The budget only
    // shrinks.
    (
        "storage-cost",
        &[
            "run",
            "--release",
            "-q",
            "-p",
            "logstore-bench",
            "--bin",
            "storage_cost",
            "--",
            "--budget",
            "xtask/storage-budget.txt",
        ],
        None,
    ),
    // The same detector that runs in every debug test, but over *release*
    // interleavings — optimized code races harder. Covers the simtest
    // episode sweep, the cache herd, the read-path structure tests (header
    // and data waves crossing the object tier and the store stack's
    // `assert_no_locks_held` guards from wave threads; and the real-time
    // cases: a scan parked on its row-store snapshot while an append and a
    // whole flush go through the same shard, a flush landing between an
    // attempt's map read and its row-store read), the engine lock-order
    // regression tests, and the archive fault tests — whose uploader
    // threads cross the same guards with up to eight PUTs in flight.
    (
        "lock-analysis",
        &["test", "--release", "-q", "-p", "logstore-simtest"],
        Some("lock-analysis"),
    ),
    (
        "lock-analysis",
        &["test", "--release", "-q", "-p", "logstore-cache", "--test", "concurrency"],
        Some("lock-analysis"),
    ),
    (
        "lock-analysis",
        &["test", "--release", "-q", "-p", "logstore-core", "--test", "read_path"],
        Some("lock-analysis"),
    ),
    (
        "lock-analysis",
        &[
            "test",
            "--release",
            "-q",
            "--test",
            "lock_order",
            "--test",
            "concurrency",
            "--test",
            "archive_faults",
        ],
        Some("lock-analysis"),
    ),
    // The seeded PCT scheduler drives every Ordered* lock/condvar op and
    // sync_point through a fixed seed sweep (release mode — the scheduler
    // serializes execution, so optimized builds keep the sweep fast). The
    // planted-bug suite proves the checker still catches each known bug
    // class within its seed budget; the real GroupCommitWal and
    // SingleFlight protocols must survive their full sweeps, and so must
    // the ShardStore protocol with a reader holding a row-store snapshot
    // across the drain and its ack or restore
    // (`shard_store_survives_schedule_sweep` in the wal suite). The sync
    // suite is listed three times to pin that the sweep is deterministic
    // and clean, not flaky-green. Any failure prints its seed and a
    // `SCHED_SEED=<n>` replay command.
    ("sched-fuzz", SCHED_SYNC, Some("sched-fuzz")),
    ("sched-fuzz", SCHED_SYNC, Some("sched-fuzz")),
    ("sched-fuzz", SCHED_SYNC, Some("sched-fuzz")),
    (
        "sched-fuzz",
        &["test", "--release", "-q", "-p", "logstore-wal", "--test", "sched"],
        Some("sched-fuzz"),
    ),
    (
        "sched-fuzz",
        &["test", "--release", "-q", "-p", "logstore-cache", "--test", "sched"],
        Some("sched-fuzz"),
    ),
    // Deep checking, where the toolchains are installed (they are not in
    // the offline CI container; `unavailable` skips both).
    ("miri", &["miri", "test", "-p", "logstore-sync"], None),
    ("tsan", &["test", "-p", "logstore-cache", "--test", "concurrency"], None),
];

const SCHED_SYNC: &[&str] = &["test", "--release", "-q", "-p", "logstore-sync", "--test", "sched"];

/// Why an optional stage cannot run here, if it cannot.
fn unavailable(stage: &str) -> Option<&'static str> {
    // What a probe command prints, when it runs and succeeds.
    let stdout = |program: &str, args: &[&str]| {
        let output = Command::new(program).args(args).output().ok()?;
        output.status.success().then(|| String::from_utf8_lossy(&output.stdout).into_owned())
    };
    match stage {
        "miri" if stdout("cargo", &["miri", "--version"]).is_none() => Some("miri not installed"),
        "tsan" if std::env::var("RUN_TSAN").as_deref() != Ok("1") => Some("RUN_TSAN unset"),
        "tsan" if !stdout("rustc", &["-Z", "help"]).is_some_and(|h| h.contains("sanitizer")) => {
            Some("thread sanitizer unavailable")
        }
        _ => None,
    }
}

fn check(args: &[String]) -> ExitCode {
    let only = match args {
        [] => None,
        [flag, stage] if flag == "--stage" && STAGES.iter().any(|(s, ..)| s == stage) => {
            Some(stage.as_str())
        }
        _ => {
            let mut stages: Vec<&str> = STAGES.iter().map(|(s, ..)| *s).collect();
            stages.dedup();
            eprintln!("usage: cargo run -p xtask -- check [--stage <{}>]", stages.join(" | "));
            return ExitCode::FAILURE;
        }
    };
    let root = repo_root();
    let mut announced = "";
    for &(stage, cargo_args, feature) in STAGES {
        if only.is_some_and(|only| only != stage) {
            continue;
        }
        let skip = unavailable(stage);
        if stage != announced {
            announced = stage;
            println!(
                "== {stage}{} ==",
                skip.map(|why| format!(": {why}; skipping")).unwrap_or_default()
            );
        }
        if skip.is_some() {
            continue;
        }
        let mut argv = cargo_args.to_vec();
        if let Some(feature) = feature {
            argv.extend(["--features", feature]);
        }
        let mut cargo = Command::new("cargo");
        cargo.current_dir(&root).args(&argv);
        if stage == "tsan" {
            cargo.env("RUSTFLAGS", "-Z sanitizer=thread");
        }
        if !cargo.status().is_ok_and(|status| status.success()) {
            eprintln!(
                "xtask check: stage `{stage}` failed at `cargo {}`; replay the stage with \
                 `cargo run -p xtask -- check --stage {stage}`",
                argv.join(" ")
            );
            return ExitCode::FAILURE;
        }
    }
    println!("xtask check: all stages passed");
    ExitCode::SUCCESS
}

fn lint() -> ExitCode {
    let root = repo_root();
    let mut failures: Vec<String> = Vec::new();
    check_raw_locks(&root, &mut failures);
    check_unwrap_budget(&root, &mut failures);
    check_simtest_determinism(&root, &mut failures);
    check_crashpoint_coverage(&root, &mut failures);
    check_forbid_unsafe(&root, &mut failures);
    check_lock_labels(&root, &mut failures);
    check_swallowed_results(&root, &mut failures);
    check_rows_by_reference(&root, &mut failures);
    check_knob_budget(&root, &mut failures);
    check_thread_spawns(&root, &mut failures);
    check_raft_groups(&root, &mut failures);
    check_keyed_hashers(&root, &mut failures);
    if failures.is_empty() {
        println!("xtask lint: all checks passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("xtask lint: {f}");
        }
        eprintln!("xtask lint: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}

/// The crates whose non-test size ROADMAP item 3 tracks.
const ROADMAP_CRATES: [&str; 6] = ["core", "wal", "query", "logblock", "flow", "bench"];

/// Lines of `file` before its first `#[cfg(test)]`.
fn non_test_lines(file: &Path) -> usize {
    let text = fs::read_to_string(file).expect("read source file");
    test_boundary(&text.lines().collect::<Vec<_>>())
}

/// Non-test lines of every `.rs` file under `dir`.
fn dir_non_test_lines(dir: &Path) -> usize {
    rust_files(dir).iter().map(|f| non_test_lines(f)).sum()
}

fn loc(root: &Path, files: &[String]) -> ExitCode {
    let mut total = 0;
    // Crates only: the facade package at the repo root just re-exports them.
    for (name, dir) in crate_src_dirs(root).iter().filter(|(name, _)| name != "logstore") {
        let lines = dir_non_test_lines(dir);
        if ROADMAP_CRATES.contains(&name.as_str()) {
            total += lines;
        }
        println!("{lines:>6}  crates/{name}");
    }
    println!("{total:>6}  total of crates/{{{}}}", ROADMAP_CRATES.join(","));
    if !files.is_empty() {
        let counts: Vec<usize> = files.iter().map(|f| non_test_lines(&root.join(f))).collect();
        for (file, count) in files.iter().zip(&counts) {
            println!("{count:>6}  {file}");
        }
        println!("{:>6}  total of the files above", counts.iter().sum::<usize>());
    }
    ExitCode::SUCCESS
}

/// The workspace root: xtask runs via `cargo run -p xtask`, whose cwd is
/// the workspace root, but fall back to CARGO_MANIFEST_DIR/.. for direct
/// invocations.
fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("cwd");
    if cwd.join("Cargo.toml").exists() && cwd.join("crates").is_dir() {
        return cwd;
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("xtask has a parent").to_path_buf()
}

/// Every `.rs` file under `dir`, recursively, sorted for stable reports.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).display().to_string().replace('\\', "/")
}

/// Strips `//` line comments (good enough for token scanning; the repo
/// has no raw-lock tokens inside string literals).
fn strip_line_comment(line: &str) -> &str {
    match line.find("//") {
        Some(idx) => &line[..idx],
        None => line,
    }
}

/// True when `hay[idx..]` starts a standalone token `needle` — i.e. the
/// preceding char is not part of an identifier (rejects `OrderedMutex::new`
/// matching `Mutex::new`).
fn token_at(hay: &str, idx: usize, _needle: &str) -> bool {
    idx == 0 || !hay.as_bytes()[idx - 1].is_ascii_alphanumeric() && hay.as_bytes()[idx - 1] != b'_'
}

fn find_token(line: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(needle) {
        let idx = start + pos;
        if token_at(line, idx, needle) {
            return true;
        }
        start = idx + needle.len();
    }
    false
}

/// Loads a `#`-commented allowlist file into repo-relative path strings
/// (with optional per-line numeric payloads).
fn load_allowlist(path: &Path) -> Vec<(String, Option<u64>)> {
    let text = fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read allowlist {}: {e}", path.display()));
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| match l.split_once(' ') {
            Some((p, n)) => (p.to_string(), n.trim().parse::<u64>().ok()),
            None => (l.to_string(), None),
        })
        .collect()
}

/// Loads a path-keyed allowlist and fails every entry whose file is gone.
/// The checks iterate files, not entries, so without this an entry left
/// behind by a deleted file is never looked at again and "budgets only
/// shrink" does not hold across the delete.
fn load_path_allowlist(
    root: &Path,
    name: &str,
    failures: &mut Vec<String>,
) -> Vec<(String, Option<u64>)> {
    let entries = load_allowlist(&root.join(name));
    for (path, _) in &entries {
        if !root.join(path).is_file() {
            failures
                .push(format!("{name}: stale entry `{path}` names no existing file; remove it"));
        }
    }
    entries
}

/// Check 1: raw lock construction outside the sync crate.
fn check_raw_locks(root: &Path, failures: &mut Vec<String>) {
    const CONSTRUCTORS: [&str; 3] = ["Mutex::new", "RwLock::new", "Condvar::new"];
    const IMPORTS: [&str; 2] = ["use parking_lot", "parking_lot::"];
    let allow: Vec<String> = load_path_allowlist(root, "xtask/lint-allow-locks.txt", failures)
        .into_iter()
        .map(|(p, _)| p)
        .collect();
    let mut files = rust_files(&root.join("crates"));
    files.extend(rust_files(&root.join("src")));
    for file in files {
        let path = rel(root, &file);
        if path.starts_with("crates/sync/") || allow.iter().any(|a| a == &path) {
            continue;
        }
        let text = fs::read_to_string(&file).expect("read source file");
        for (lineno, line) in text.lines().enumerate() {
            let code = strip_line_comment(line);
            let raw_ctor = CONSTRUCTORS.iter().any(|c| find_token(code, c));
            let raw_import = IMPORTS.iter().any(|i| code.contains(i));
            if raw_ctor || raw_import {
                failures.push(format!(
                    "{path}:{}: raw lock (use logstore_sync::Ordered* with a site label, \
                     or add the file to xtask/lint-allow-locks.txt with justification)",
                    lineno + 1
                ));
            }
        }
    }
}

/// Check 2: unwrap/expect burn-down in non-test code across every gated
/// crate src dir.
fn check_unwrap_budget(root: &Path, failures: &mut Vec<String>) {
    const GATED_DIRS: [&str; 8] = [
        "crates/core/src",
        "crates/query/src",
        "crates/net/src",
        "crates/cache/src",
        "crates/oss/src",
        "crates/wal/src",
        "crates/flow/src",
        "crates/logblock/src",
    ];
    let budgets = load_path_allowlist(root, "xtask/lint-allow-unwrap.txt", failures);
    let gated = GATED_DIRS.iter().flat_map(|d| rust_files(&root.join(d)));
    for file in gated {
        let path = rel(root, &file);
        let text = fs::read_to_string(&file).expect("read source file");
        let mut count: u64 = 0;
        for line in text.lines() {
            if line.contains("#[cfg(test)]") {
                break; // test modules sit at the bottom of each file
            }
            let code = strip_line_comment(line);
            count += code.matches(".unwrap()").count() as u64;
            count += code.matches(".expect(").count() as u64;
        }
        let budget = budgets.iter().find(|(p, _)| p == &path).and_then(|(_, n)| *n).unwrap_or(0);
        if count > budget {
            failures.push(format!(
                "{path}: {count} unwrap/expect in non-test code exceeds budget {budget} \
                 (xtask/lint-allow-unwrap.txt; convert to Result or justify + raise is forbidden \
                 — budgets only shrink)"
            ));
        } else if count < budget {
            println!(
                "xtask lint: note: {path} is under its unwrap budget ({count} < {budget}); \
                 lower it in xtask/lint-allow-unwrap.txt to lock in the progress"
            );
        }
    }
}

/// Check 3: wall-clock and sleep APIs in the deterministic simulator.
fn check_simtest_determinism(root: &Path, failures: &mut Vec<String>) {
    const BANNED: [&str; 3] = ["Instant::now", "SystemTime::now", "thread::sleep"];
    let gated = rust_files(&root.join("crates/simtest/src"))
        .into_iter()
        .chain(rust_files(&root.join("crates/net/src")))
        .chain(rust_files(&root.join("crates/raft/src")));
    for file in gated {
        let path = rel(root, &file);
        let text = fs::read_to_string(&file).expect("read source file");
        for (lineno, line) in text.lines().enumerate() {
            let code = strip_line_comment(line);
            for banned in BANNED {
                if code.contains(banned) {
                    failures.push(format!(
                        "{path}:{}: `{banned}` in the deterministic simulator \
                         (drive virtual time through the episode scheduler instead)",
                        lineno + 1
                    ));
                }
            }
        }
    }
}

/// Check 4: every `CrashPoint` variant has a call site.
fn check_crashpoint_coverage(root: &Path, failures: &mut Vec<String>) {
    let hooks = root.join("crates/core/src/hooks.rs");
    let text = fs::read_to_string(&hooks).expect("read hooks.rs");
    let mut variants: Vec<String> = Vec::new();
    let mut in_enum = false;
    for line in text.lines() {
        let code = strip_line_comment(line).trim().to_string();
        if code.starts_with("pub enum CrashPoint") {
            in_enum = true;
            continue;
        }
        if in_enum {
            if code.starts_with('}') {
                break;
            }
            if let Some(name) = code.strip_suffix(',') {
                if !name.is_empty()
                    && name.chars().next().is_some_and(char::is_uppercase)
                    && name.chars().all(char::is_alphanumeric)
                {
                    variants.push(name.to_string());
                }
            }
        }
    }
    if variants.is_empty() {
        failures.push("crates/core/src/hooks.rs: CrashPoint enum not found by lint".to_string());
        return;
    }
    // Every variant must also be listed in `CrashPoint::ALL`: the
    // simulation sweeps (plan expansion and the per-point crash sweep)
    // iterate ALL, so a variant missing there would never be armed — a
    // crash point with a call site but no test coverage.
    let all_body = text
        .split("pub const ALL")
        .nth(1)
        .and_then(|rest| rest.split_once('=').map(|(_, body)| body))
        .and_then(|body| body.split("];").next())
        .unwrap_or_default();
    for variant in &variants {
        if !all_body.contains(&format!("CrashPoint::{variant}")) {
            failures.push(format!(
                "crates/core/src/hooks.rs: CrashPoint::{variant} missing from CrashPoint::ALL — \
                 simulation sweeps iterate ALL, so this point would never be armed"
            ));
        }
    }
    let sources: Vec<(String, String)> = rust_files(&root.join("crates"))
        .into_iter()
        .filter(|f| rel(root, f) != "crates/core/src/hooks.rs")
        .map(|f| {
            let text = fs::read_to_string(&f).expect("read source file");
            (rel(root, &f), text)
        })
        .collect();
    for variant in variants {
        let mut reference = format!("CrashPoint::{variant}");
        let found = sources.iter().any(|(_, text)| text.contains(&reference));
        if !found {
            let _ = write!(
                reference,
                " has no call site outside hooks.rs — a crash point nothing reaches \
                 tests nothing; wire it into the pipeline or remove the variant"
            );
            failures.push(reference);
        }
    }
}

/// The non-test `src` dirs the label and swallow passes scan, paired with
/// the crate's label segment (`crates/<name>` → `<name>`; the facade
/// crate at the repo root is `logstore`).
fn crate_src_dirs(root: &Path) -> Vec<(String, PathBuf)> {
    let mut dirs: Vec<(String, PathBuf)> = Vec::new();
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                dirs.push((entry.file_name().to_string_lossy().into_owned(), src));
            }
        }
    }
    dirs.push(("logstore".to_string(), root.join("src")));
    dirs.sort();
    dirs
}

/// Index of the first `#[cfg(test)]` attribute line — the boundary below
/// which a file is test code (test modules sit at the bottom of each
/// file). A mention inside a comment or string is not the boundary.
fn test_boundary(lines: &[&str]) -> usize {
    lines.iter().position(|l| l.trim_start().starts_with("#[cfg(test)]")).unwrap_or(lines.len())
}

/// Finds the first string literal at/after column `col` of `lines[line]`,
/// scanning at most into the next three lines (rustfmt wraps long
/// constructor calls, putting the label on its own line).
fn first_string_literal(lines: &[&str], line: usize, col: usize, limit: usize) -> Option<String> {
    for (j, raw) in lines.iter().enumerate().take((line + 4).min(limit)).skip(line) {
        let code = strip_line_comment(raw);
        let seg = if j == line { code.get(col..).unwrap_or("") } else { code };
        if let Some(open) = seg.find('"') {
            let rest = &seg[open + 1..];
            return rest.find('"').map(|close| rest[..close].to_string());
        }
    }
    None
}

/// Check 6: every `Ordered*::new("…")` site label and every metric
/// registration label in non-test code is globally unique and follows
/// `crate.module.field` with the leading segment naming the crate. Two
/// locks sharing a label silently merge in the acquired-before graph — a
/// copy-pasted label can hide a real inversion or manufacture a false
/// one; two metrics sharing one would panic the registry at open.
/// Intentional shared lock labels (e.g. a pool of never-nested same-role
/// locks) go in the allowlist by label.
fn check_lock_labels(root: &Path, failures: &mut Vec<String>) {
    // A metric is registered through a method call on the registry, so its
    // needle starts at the dot and any receiver may precede it.
    const CTORS: [&str; 5] = [
        "OrderedMutex::new",
        "OrderedRwLock::new",
        "OrderedCondvar::new",
        ".counter(",
        ".histogram(",
    ];
    let allow: Vec<String> = load_allowlist(&root.join("xtask/lint-allow-lock-labels.txt"))
        .into_iter()
        .map(|(l, _)| l)
        .collect();
    let mut seen: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
    let mut allow_used = vec![false; allow.len()];
    for (crate_seg, dir) in crate_src_dirs(root) {
        for file in rust_files(&dir) {
            let path = rel(root, &file);
            let text = fs::read_to_string(&file).expect("read source file");
            let lines: Vec<&str> = text.lines().collect();
            let boundary = test_boundary(&lines);
            for i in 0..boundary {
                let code = strip_line_comment(lines[i]);
                for ctor in CTORS {
                    let mut start = 0;
                    while let Some(pos) = code[start..].find(ctor) {
                        let idx = start + pos;
                        start = idx + ctor.len();
                        if !ctor.starts_with('.') && !token_at(code, idx, ctor) {
                            continue;
                        }
                        let site = format!("{path}:{}", i + 1);
                        let Some(label) =
                            first_string_literal(&lines, i, idx + ctor.len(), boundary)
                        else {
                            failures.push(format!(
                                "{site}: `{ctor}` site without a findable label literal \
                                 (the label must appear within three lines of the call)"
                            ));
                            continue;
                        };
                        if let Some(k) = allow.iter().position(|a| a == &label) {
                            allow_used[k] = true;
                            continue;
                        }
                        let segs: Vec<&str> = label.split('.').collect();
                        let well_formed = segs.len() >= 3
                            && segs.iter().all(|s| {
                                !s.is_empty()
                                    && s.chars().all(|c| {
                                        c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'
                                    })
                            });
                        if !well_formed {
                            failures.push(format!(
                                "{site}: label `{label}` breaks the \
                                 `crate.module.field` convention (>= 3 dot-separated \
                                 [a-z0-9_] segments)"
                            ));
                        } else if segs[0] != crate_seg {
                            failures.push(format!(
                                "{site}: label `{label}` leads with `{}` but lives in \
                                 crate `{crate_seg}` — the first segment must name the crate",
                                segs[0]
                            ));
                        }
                        if let Some(prev) = seen.insert(label.clone(), site.clone()) {
                            failures.push(format!(
                                "{site}: label `{label}` duplicates {prev} — shared labels \
                                 merge distinct locks in the acquired-before graph, or \
                                 distinct metrics in a snapshot; \
                                 rename one, or allowlist the label in \
                                 xtask/lint-allow-lock-labels.txt with justification"
                            ));
                        }
                    }
                }
            }
        }
    }
    for (label, used) in allow.iter().zip(allow_used) {
        if !used {
            failures.push(format!(
                "xtask/lint-allow-lock-labels.txt: stale entry `{label}` matches no lock site; \
                 remove it"
            ));
        }
    }
}

/// Check 7: swallowed `Result`s. `let _ = fallible()` and
/// `fallible().ok();` make error paths invisible — LogStore's crash-safety
/// arguments (PR 8's GC barriers above all) depend on errors propagating.
/// Budgeted per file like the unwrap pass; budgets only shrink.
fn check_swallowed_results(root: &Path, failures: &mut Vec<String>) {
    let budgets = load_path_allowlist(root, "xtask/lint-allow-swallow.txt", failures);
    for (_, dir) in crate_src_dirs(root) {
        for file in rust_files(&dir) {
            let path = rel(root, &file);
            let text = fs::read_to_string(&file).expect("read source file");
            let mut count: u64 = 0;
            for line in text.lines() {
                if line.contains("#[cfg(test)]") {
                    break;
                }
                let code = strip_line_comment(line);
                count += code.matches("let _ = ").count() as u64;
                count += code.matches(".ok();").count() as u64;
            }
            let budget =
                budgets.iter().find(|(p, _)| p == &path).and_then(|(_, n)| *n).unwrap_or(0);
            if count > budget {
                failures.push(format!(
                    "{path}: {count} swallowed Result(s) (`let _ =` / `.ok();`) in non-test \
                     code exceeds budget {budget} (xtask/lint-allow-swallow.txt; handle or \
                     propagate the error — budgets only shrink)"
                ));
            } else if count < budget {
                println!(
                    "xtask lint: note: {path} is under its swallow budget ({count} < {budget}); \
                     lower it in xtask/lint-allow-swallow.txt to lock in the progress"
                );
            }
        }
    }
}

/// Check 8: `LogRecord::to_row()` deep-clones a row; the crates on the
/// row → WAL → LogBlock path read records in place instead.
fn check_rows_by_reference(root: &Path, failures: &mut Vec<String>) {
    const GATED_CRATES: [&str; 6] = ["codec", "core", "wal", "logblock", "query", "cache"];
    for name in GATED_CRATES {
        for file in rust_files(&root.join("crates").join(name).join("src")) {
            let text = fs::read_to_string(&file).expect("read source file");
            for (lineno, line) in text.lines().enumerate() {
                if line.contains("#[cfg(test)]") {
                    break;
                }
                if strip_line_comment(line).contains(".to_row()") {
                    failures.push(format!(
                        "{}:{}: `.to_row()` clones the whole row; read it by reference \
                         (`LogRecord::keys()` chained with `fields`)",
                        rel(root, &file),
                        lineno + 1
                    ));
                }
            }
        }
    }
}

/// Options of `item` (`struct` → its `pub` fields, `enum` → its variants)
/// as declared in `text`, or `None` when `text` declares no such item.
/// Line-based like the other passes: one field or variant per line, the
/// item closed by a `}` in column 0.
fn count_knobs(text: &str, item: &str) -> Option<u64> {
    let mut lines = text.lines().map(strip_line_comment);
    let is_enum = lines.find_map(|l| {
        let decl = l.strip_prefix("pub ")?.strip_suffix(" {")?;
        let (kind, name) = decl.split_once(' ')?;
        (name == item).then_some(kind == "enum")
    })?;
    let body = lines.take_while(|l| !l.starts_with('}')).map(str::trim);
    let knobs = body.filter(|l| match is_enum {
        true => l.starts_with(|c: char| c.is_ascii_uppercase()),
        false => l.starts_with("pub "),
    });
    Some(knobs.count() as u64)
}

/// Check 9: the option count of every type listed in
/// `xtask/knob-budget.txt` (`<file> <type> <max>` per line) stays within
/// its budget. Budgets only shrink.
fn check_knob_budget(root: &Path, failures: &mut Vec<String>) {
    const BUDGET: &str = "xtask/knob-budget.txt";
    let text = fs::read_to_string(root.join(BUDGET)).expect("read knob budget");
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let mut fields = line.split_whitespace();
        let (Some(file), Some(item), Some(Ok(budget)), None) =
            (fields.next(), fields.next(), fields.next().map(str::parse::<u64>), fields.next())
        else {
            failures
                .push(format!("{BUDGET}: malformed line `{line}` (want `<file> <type> <max>`)"));
            continue;
        };
        let count =
            fs::read_to_string(root.join(file)).ok().and_then(|src| count_knobs(&src, item));
        match count {
            None => {
                failures.push(format!("{BUDGET}: stale entry — `{item}` is not declared in {file}"))
            }
            Some(count) if count > budget => failures.push(format!(
                "{file}: `{item}` has {count} options, over its budget of {budget} ({BUDGET}; \
                 a new option needs two callers that set it differently — budgets only shrink)"
            )),
            Some(count) if count < budget => println!(
                "xtask lint: note: `{item}` is under its knob budget ({count} < {budget}); \
                 lower it in {BUDGET} to lock in the progress"
            ),
            Some(_) => {}
        }
    }
}

/// The files whose non-test code may spawn a thread: the query pool, the
/// request wave and the seeded scheduler.
const THREAD_SPAWNERS: [&str; 3] =
    ["crates/core/src/executor.rs", "crates/oss/src/wave.rs", "crates/sync/src/sched.rs"];

/// 1-based numbers of the non-test lines of `text` whose code (line
/// comments stripped) satisfies `hit`.
fn code_lines_where(text: &str, hit: impl Fn(&str) -> bool) -> Vec<usize> {
    let lines: Vec<&str> = text.lines().collect();
    let code = lines[..test_boundary(&lines)].iter().map(|l| strip_line_comment(l));
    code.enumerate().filter(|(_, code)| hit(code)).map(|(i, _)| i + 1).collect()
}

/// 1-based numbers of the non-test lines of `text` that spawn a thread.
fn thread_spawn_lines(text: &str) -> Vec<usize> {
    const SPAWNS: [&str; 4] = ["thread::spawn", "thread::scope", "thread::Builder", ".spawn("];
    code_lines_where(text, |code| SPAWNS.iter().any(|spawn| code.contains(spawn)))
}

/// Check 10: threads are spawned only by [`THREAD_SPAWNERS`].
fn check_thread_spawns(root: &Path, failures: &mut Vec<String>) {
    for (_, dir) in crate_src_dirs(root) {
        for file in rust_files(&dir) {
            let path = rel(root, &file);
            if THREAD_SPAWNERS.contains(&path.as_str()) {
                continue;
            }
            let text = fs::read_to_string(&file).expect("read source file");
            for line in thread_spawn_lines(&text) {
                failures.push(format!(
                    "{path}:{line}: spawns a thread; run the work on `QueryPool` or as an \
                     `ordered_wave` instead (threads come only from {})",
                    THREAD_SPAWNERS.join(", ")
                ));
            }
        }
    }
}

/// Where non-test code may name `InProcCluster`: the raft crate, and the
/// controller, whose group is the engine's only one.
const RAFT_GROUP_OWNERS: [&str; 2] = ["crates/raft/src/", "crates/core/src/controller.rs"];

/// 1-based numbers of the non-test lines of `text` that name
/// `InProcCluster`.
fn raft_group_lines(text: &str) -> Vec<usize> {
    code_lines_where(text, |code| find_token(code, "InProcCluster"))
}

/// Check 11: one Raft group, the controller's. A shard's WAL is its only
/// log; a shard group comes back only on purpose, with this rule edited.
fn check_raft_groups(root: &Path, failures: &mut Vec<String>) {
    for (_, dir) in crate_src_dirs(root) {
        for file in rust_files(&dir) {
            let path = rel(root, &file);
            if RAFT_GROUP_OWNERS.iter().any(|owner| path.starts_with(owner)) {
                continue;
            }
            let text = fs::read_to_string(&file).expect("read source file");
            for line in raft_group_lines(&text) {
                failures.push(format!(
                    "{path}:{line}: names `InProcCluster`; the controller's is the one Raft \
                     group ({} only)",
                    RAFT_GROUP_OWNERS.join(", ")
                ));
            }
        }
    }
}

/// The crates whose maps may hold tenant-chosen keys.
const KEYED_HASH_CRATES: [&str; 6] = ["index", "logblock", "query", "core", "cache", "wal"];

/// 1-based numbers of the non-test lines of `text` that bring in a hasher
/// other than std's keyed default.
fn custom_hasher_lines(text: &str) -> Vec<usize> {
    code_lines_where(text, |code| {
        find_token(code, "BuildHasherDefault")
            || code.contains("with_hasher(")
            || (find_token(code, "impl") && code.contains("Hasher for "))
    })
}

/// Check 12: the maps of [`KEYED_HASH_CRATES`] keep std's keyed
/// `RandomState`.
fn check_keyed_hashers(root: &Path, failures: &mut Vec<String>) {
    for name in KEYED_HASH_CRATES {
        for file in rust_files(&root.join("crates").join(name).join("src")) {
            let text = fs::read_to_string(&file).expect("read source file");
            for line in custom_hasher_lines(&text) {
                failures.push(format!(
                    "{}:{line}: a hasher other than std's keyed `RandomState`; tenants choose \
                     these keys, so a fixed hash lets one aim collisions at everyone (a \
                     cache in front of the map may use one: a collision must only miss)",
                    rel(root, &file)
                ));
            }
        }
    }
}

/// Check 5: `#![forbid(unsafe_code)]` in every non-vendor crate root.
fn check_forbid_unsafe(root: &Path, failures: &mut Vec<String>) {
    let mut roots: Vec<PathBuf> = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        for entry in entries.flatten() {
            let lib = entry.path().join("src/lib.rs");
            if lib.exists() {
                roots.push(lib);
            }
        }
    }
    roots.push(root.join("src/lib.rs"));
    roots.push(root.join("xtask/src/main.rs"));
    roots.sort();
    for lib in roots {
        let path = rel(root, &lib);
        let text = fs::read_to_string(&lib).expect("read crate root");
        if !text.contains("#![forbid(unsafe_code)]") {
            failures.push(format!("{path}: missing `#![forbid(unsafe_code)]`"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_counts_lines_before_the_first_cfg_test_of_every_src_file() {
        let root = std::env::temp_dir().join(format!("logstore-xtask-loc-{}", std::process::id()));
        fs::create_dir_all(root.join("crates/a/src/bin")).unwrap();
        fs::create_dir_all(root.join("crates/a/tests")).unwrap();
        fs::write(
            root.join("crates/a/src/lib.rs"),
            "//! not `#[cfg(test)]`\npub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[cfg(test)]\n}\n",
        )
        .unwrap();
        fs::write(root.join("crates/a/src/bin/tool.rs"), "fn main() {\n}\n").unwrap();
        fs::write(root.join("crates/a/tests/it.rs"), "fn not_src() {}\n").unwrap();
        let src = root.join("crates/a/src");
        let (lib, all) = (non_test_lines(&src.join("lib.rs")), dir_non_test_lines(&src));
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(
            lib, 3,
            "everything above the first #[cfg(test)] attribute, blank lines included"
        );
        assert_eq!(all, 5, "a file with no test module counts whole; tests/ is not src");
    }

    #[test]
    fn knobs_are_pub_fields_and_variants() {
        let src =
            "pub struct A {\n    /// doc\n    pub x: u8,\n    y: u8, // pub z\n    pub w: u8,\n}\n\
                   #[derive(Debug)]\npub enum B {\n    /// Doc.\n    One,\n    Two(u8),\n}\n";
        assert_eq!(count_knobs(src, "A"), Some(2));
        assert_eq!(count_knobs(src, "B"), Some(2));
        assert_eq!(count_knobs(src, "C"), None);
    }

    #[test]
    fn thread_spawns_are_found_in_non_test_code_only() {
        let src = "use std::thread;\n\
                   fn a() { std::thread::spawn(|| ()); }\n\
                   // thread::spawn in a comment\n\
                   fn b() { thread::scope(|s| { s.spawn(|| ()); }); }\n\
                   fn c() { thread::Builder::new(); }\n\
                   fn d() { let _ = std::thread::current(); }\n\
                   #[cfg(test)]\n\
                   mod tests { fn e() { std::thread::spawn(|| ()); } }\n";
        assert_eq!(thread_spawn_lines(src), vec![2, 4, 5]);
    }

    #[test]
    fn raft_groups_are_found_in_non_test_code_only() {
        let src = "use logstore_raft::{InProcCluster, RaftConfig};\n\
                   //! an `InProcCluster` in a comment\n\
                   struct S { group: Option<InProcCluster> }\n\
                   struct MyInProcCluster;\n\
                   fn f() { logstore_raft::InProcCluster::new(3, RaftConfig::default(), 1); }\n\
                   #[cfg(test)]\n\
                   mod tests { fn g() { InProcCluster::new(3, Default::default(), 1); } }\n";
        assert_eq!(raft_group_lines(src), vec![1, 3, 5]);
    }

    #[test]
    fn metric_labels_are_audited_like_lock_labels() {
        let root =
            std::env::temp_dir().join(format!("logstore-xtask-metrics-{}", std::process::id()));
        fs::create_dir_all(root.join("xtask")).unwrap();
        fs::create_dir_all(root.join("crates/a/src")).unwrap();
        fs::write(root.join("xtask/lint-allow-lock-labels.txt"), "").unwrap();
        fs::write(
            root.join("crates/a/src/lib.rs"),
            "fn f(r: &mut Registry) {\n\
             r.counter(\"a.m.rows\");\n\
             r.histogram(\"a.m.rows\");\n\
             r.histogram(\"b.m.wall_ns\");\n\
             registry\n\
             .counter(\"a.m.Bad\");\n\
             }\n\
             #[cfg(test)]\n\
             mod tests { fn g(r: &mut Registry) { r.counter(\"a.m.rows\"); } }\n",
        )
        .unwrap();
        let mut failures = Vec::new();
        check_lock_labels(&root, &mut failures);
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures[0].contains(":3: label `a.m.rows` duplicates"), "{failures:?}");
        assert!(failures[1].contains(":4: label `b.m.wall_ns` leads with `b`"), "{failures:?}");
        assert!(failures[2].contains(":6: label `a.m.Bad` breaks"), "{failures:?}");
    }

    #[test]
    fn custom_hashers_are_found_in_non_test_code_only() {
        let src = "use std::hash::{BuildHasherDefault, Hasher};\n\
                   // BuildHasherDefault in a comment\n\
                   struct Fx;\n\
                   impl Hasher for Fx { fn finish(&self) -> u64 { 0 } fn write(&mut self, _: &[u8]) {} }\n\
                   impl std::hash::BuildHasher for Fx { type Hasher = Fx; }\n\
                   fn f() { HashMap::with_hasher(Fx); let _ = HashMap::<u8, u8>::new(); }\n\
                   fn g(h: &mut impl Hasher) {}\n\
                   struct MyBuildHasherDefault;\n\
                   #[cfg(test)]\n\
                   mod tests { impl Hasher for T {} fn h() { HashMap::with_hasher(T); } }\n";
        assert_eq!(custom_hasher_lines(src), vec![1, 4, 5, 6]);
    }

    #[test]
    fn every_stage_of_the_check_is_replayable_by_name() {
        let mut names: Vec<&str> = STAGES.iter().map(|(s, ..)| *s).collect();
        names.dedup();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names.len(), sorted.len(), "a stage's rows must be adjacent: {names:?}");
    }

    #[test]
    fn allowlist_entry_for_a_deleted_file_fails_the_lint() {
        let root =
            std::env::temp_dir().join(format!("logstore-xtask-stale-{}", std::process::id()));
        fs::create_dir_all(root.join("xtask")).unwrap();
        fs::create_dir_all(root.join("crates/a/src")).unwrap();
        fs::write(root.join("crates/a/src/kept.rs"), "").unwrap();
        fs::write(
            root.join("xtask/lint-allow-swallow.txt"),
            "# budgets\ncrates/a/src/kept.rs 2\ncrates/a/src/deleted.rs 3\n",
        )
        .unwrap();
        let mut failures = Vec::new();
        let entries = load_path_allowlist(&root, "xtask/lint-allow-swallow.txt", &mut failures);
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(entries.len(), 2, "stale entries are still returned to the caller");
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("crates/a/src/deleted.rs"), "{failures:?}");
    }
}
