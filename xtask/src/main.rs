//! Repo tooling: the lint gate (`cargo run -p xtask -- lint`) and the
//! non-test line count (`cargo run -p xtask -- loc [file…]`).
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
//! 6. **Lock-label audit** — every `Ordered*::new("…")` site label must
//!    be globally unique (a copy-pasted label silently merges two lock
//!    sites in the acquired-before graph) and follow the
//!    `crate.module.field` convention with the crate segment matching the
//!    file's crate directory (allowlist:
//!    `xtask/lint-allow-lock-labels.txt`).
//! 7. **Swallowed-`Result` ban** — `let _ =` and `.ok();` discarding a
//!    fallible call in non-test code is budgeted per file
//!    (`xtask/lint-allow-swallow.txt`); counts may only shrink.
//! 8. **Rows by reference** — no `.to_row()` in non-test code of the
//!    crates a row crosses on its way to the WAL and to OSS (`codec`,
//!    `core`, `wal`, `logblock`, `query`, `cache`): it deep-clones every
//!    field, and the write path reads rows in place (DESIGN.md §Write
//!    path). No allowlist — the count is zero.
//!
//! An allowlist entry that no longer matches anything — a path whose file
//! was deleted, a lock label no site carries — fails the lint, so a budget
//! cannot outlive its file and come back with a new one of the same name.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("loc") => loc(&repo_root(), &args[1..]),
        _ => {
            eprintln!("usage: cargo run -p xtask -- <lint | loc [file…]>");
            ExitCode::FAILURE
        }
    }
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

/// Check 6: every `Ordered*::new("…")` site label in non-test code is
/// globally unique and follows `crate.module.field` with the leading
/// segment naming the crate. Two locks sharing a label silently merge in
/// the acquired-before graph — a copy-pasted label can hide a real
/// inversion or manufacture a false one. Intentional shared labels (e.g.
/// a pool of never-nested same-role locks) go in the allowlist by label.
fn check_lock_labels(root: &Path, failures: &mut Vec<String>) {
    const CTORS: [&str; 3] = ["OrderedMutex::new", "OrderedRwLock::new", "OrderedCondvar::new"];
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
                        if !token_at(code, idx, ctor) {
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
                                "{site}: lock label `{label}` breaks the \
                                 `crate.module.field` convention (>= 3 dot-separated \
                                 [a-z0-9_] segments)"
                            ));
                        } else if segs[0] != crate_seg {
                            failures.push(format!(
                                "{site}: lock label `{label}` leads with `{}` but lives in \
                                 crate `{crate_seg}` — the first segment must name the crate",
                                segs[0]
                            ));
                        }
                        if let Some(prev) = seen.insert(label.clone(), site.clone()) {
                            failures.push(format!(
                                "{site}: lock label `{label}` duplicates {prev} — shared \
                                 labels merge distinct locks in the acquired-before graph; \
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
