//! `bench_e2e` — the LogStore benchmark: three OSS-modelled workloads on the
//! whole engine through the public `logstore_core::LogStore` API, six
//! end-to-end metrics, and a per-crate layer budget. See `README.md` for
//! the glossary and `/BENCHMARK.json` for the contract the driver checks.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bench_e2e --smoke                 # all three, tiny sizes, a few seconds
//! bench_e2e --repeat 10 [--workload <name>]   # spreads against the bounds
//! ```

#![forbid(unsafe_code)]

mod check;
mod config;
mod dataset;
mod json;
mod metrics;
mod phases;
mod probes;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::{Def, END_TO_END, PER_LAYER};
use phases::Ctx;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["ingest_sat", "query_cold", "mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: Option<u32>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 11,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => args.smoke = true,
            "--repeat" => {
                let n: u32 = value("--repeat")?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(2..=100).contains(&n) {
                    return Err(format!("--repeat {n} is outside 2..=100"));
                }
                args.repeat = Some(n);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (expected one of {WORKLOADS:?} or all)",
            args.workload
        ));
    }
    Ok(args)
}

fn print_table(title: &str, rows: &[(&Def, f64)]) {
    println!("-- {title}");
    let width = rows.iter().map(|(d, _)| d.name.len()).max().unwrap_or(0);
    for (d, v) in rows {
        let better = if d.higher_is_better { "higher is better" } else { "lower is better" };
        println!("{:<width$}  {:>22}  {:<6}  {better}", d.name, metrics::number(*v), d.unit);
    }
}

/// Runs one workload in this process and prints its result line last.
/// `Ok(true)` when the run was correct and nothing failed.
fn run_one(args: &Args, workload: &str) -> Result<bool, String> {
    let scale = if args.smoke { &config::SMOKE } else { &config::FULL };
    let seconds = args.seconds.unwrap_or(if args.smoke { 1.0 } else { config::RUN_SECONDS as f64 });
    // The smoke run exercises everything at once: spans, probes, both tables.
    let tracing = args.trace || args.smoke;
    let ctx = Ctx { scale, seed: args.seed, seconds, tracing, origin: Instant::now() };
    println!(
        "== bench_e2e workload={workload} seed={} seconds={seconds} trace={}",
        args.seed,
        u8::from(tracing)
    );
    println!(
        "config: {}",
        config::describe(
            scale,
            &config::engine(scale, std::path::Path::new("<run dir>"), scale.hot_cache_bytes)
        )
    );
    println!(
        "host: available_parallelism={} (echoed only; the harness always uses {} load threads)",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        config::LOAD_THREADS
    );
    let started = Instant::now();
    let outcome = workloads::run(&ctx, workload)?;
    println!("samples: {}", outcome.samples);
    if tracing {
        let path = config::output_root().join(format!("trace-{workload}.json"));
        outcome
            .trace
            .write_json(&path, workload)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "-- spans ({} recorded, written to {})",
            outcome.trace.span_count(),
            path.display()
        );
        println!("{:<32}  {:>8}  {:>12}  {:>12}", "name", "count", "total_s", "self_s");
        for (name, t) in outcome.trace.by_name() {
            println!("{name:<32}  {:>8}  {:>12.6}  {:>12.6}", t.count, t.total_s, t.self_s);
        }
    }
    // `--trace 0` prints (and reports) the end-to-end table, `--trace 1` the
    // per-layer table; the smoke run prints both and reports the first.
    let end_to_end = outcome.values.complete(END_TO_END)?;
    if !args.trace {
        print_table("end-to-end", &end_to_end);
    }
    let printed = if tracing {
        let per_layer = outcome.values.complete(PER_LAYER)?;
        print_table("per-layer", &per_layer);
        if args.trace {
            per_layer
        } else {
            end_to_end
        }
    } else {
        end_to_end
    };
    for problem in &outcome.problems {
        println!("PROBLEM: {problem}");
    }
    let correct = outcome.problems.is_empty();
    println!("wall: {:.1} s", started.elapsed().as_secs_f64());
    println!(
        "{}",
        metrics::result_line(correct, outcome.attempted.max(1), outcome.failed, &printed)
    );
    Ok(correct && outcome.failed == 0)
}

/// `--repeat N`: runs each selected workload N times in child processes
/// (so `peak_rss_mb` and set-up are independent), seeds `seed..seed+N`,
/// and holds every end-to-end metric's spread — interquartile distance
/// over the median, as the driver computes it — against its bound.
fn repeat(args: &Args, runs: u32, selected: &[&str]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_within = true;
    for workload in selected {
        let mut series: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for i in 0..runs {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args([
                "--workload",
                workload,
                "--seed",
                &(args.seed + u64::from(i)).to_string(),
                "--trace",
                "0",
            ]);
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd.output().map_err(|e| format!("spawning run {i} of {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let parsed = json::parse(last).map_err(|e| {
                format!(
                    "run {i} of {workload} printed no result ({e}); stderr: {}",
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
            if !out.status.success() || parsed.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!("run {i} of {workload} was not correct:\n{stdout}"));
            }
            for (d, values) in END_TO_END.iter().zip(&mut series) {
                let v = parsed
                    .get("metrics")
                    .and_then(|m| m.get(d.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("run {i} of {workload} printed no '{}'", d.name))?;
                values.push(v);
            }
            eprintln!("{workload}: run {}/{runs} done", i + 1);
        }
        println!(
            "== {workload}: {runs} runs, seeds {}..{}",
            args.seed,
            args.seed + u64::from(runs) - 1
        );
        println!(
            "{:<24}  {:>14}  {:>14}  {:>14}  {:>8}  {:>6}  verdict",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        for (d, values) in END_TO_END.iter().zip(&series) {
            let [q1, _, q3] = stats::quartiles(values);
            let spread = stats::spread(values);
            // The driver does not hold setup_s's spread against its bound.
            let verdict = match (spread <= d.bound, d.name == "setup_s") {
                (true, _) if spread <= d.bound / 3.0 => "steady",
                (true, _) => "within bound",
                (false, true) => "wide (not gated)",
                (false, false) => {
                    all_within = false;
                    "EXCEEDS BOUND"
                }
            };
            println!(
                "{:<24}  {:>14.5}  {:>14.5}  {:>14.5}  {:>8.4}  {:>6.2}  {verdict}",
                d.name,
                q1,
                stats::median(values),
                q3,
                spread,
                d.bound
            );
        }
        println!("-- every run, in seed order");
        for (d, values) in END_TO_END.iter().zip(&series) {
            let row: Vec<String> = values.iter().map(|v| format!("{v:.5}")).collect();
            println!("{:<24}  {}", d.name, row.join(" "));
        }
    }
    Ok(all_within)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => {
            vec![WORKLOADS.iter().copied().find(|w| *w == one).expect("validated by parse_args")]
        }
    };
    let verdict = match args.repeat {
        Some(runs) => repeat(&args, runs, &selected),
        None => selected.iter().try_fold(true, |all, w| Ok(run_one(&args, w)? && all)),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse(&["--workload", "mixed", "--seed", "12", "--seconds", "20", "--trace", "1"])
            .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("mixed", 12, Some(20.0), true)
        );
        let d = parse(&[]).unwrap();
        assert_eq!(
            (d.workload.as_str(), d.seed, d.seconds, d.trace, d.smoke),
            ("all", 11, None, false, false)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "inf"],
            &["--trace", "2"],
            &["--repeat", "1"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }
}
