//! The `run` and `trace` subcommands: all six workloads into one result
//! file. Every measurement is a child process running the contract's
//! program, so a number in a result file is a number the driver would see.
//!
//! `run` measures rep-major — `for rep { for workload }` — so a noisy
//! minute on the host spreads over all workloads instead of landing on
//! one, and starts a fresh process for every workload and repeat so each
//! `peak_rss_mb` is that workload's own. The headline of every metric is
//! the median over the repeats; the raw values stay in the file. The
//! protocol is fixed — [`REPEATS`] processes per workload, each measuring
//! for [`Scale::seconds_per_process`] — so any two result files of one scale
//! were taken the same way.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::child::{run_child, Child, NEEDS_UNTRACED_EXE};
use crate::cli::Flags;
use crate::json::Json;
use crate::manifest::END_TO_END;
use crate::single::traced_build;
use crate::stats::{fastest, median, quartiles};
use crate::workloads::{Scale, Workload};

/// Processes per workload in a `run`; the headline is their median.
const REPEATS: usize = 5;

struct SuiteFlags {
    seed: u64,
    scale: Scale,
    out: Option<String>,
}

fn suite_flags(mut flags: Flags, out_flag: &str) -> Result<SuiteFlags, String> {
    let parsed = SuiteFlags {
        seed: flags.number("seed", 42)?,
        scale: flags.scale()?,
        out: flags.take(out_flag),
    };
    flags.finish()?;
    Ok(parsed)
}

fn own_executable() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers were measured on and from.
fn environment() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::object([
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        ("git_commit", Json::Str(command_line("git", &["rev-parse", "HEAD"]))),
        ("traced_build", Json::Bool(traced_build())),
    ])
}

fn header(kind: &str, flags: &SuiteFlags) -> Vec<(String, Json)> {
    vec![
        ("schema".into(), Json::Num(1.0)),
        ("kind".into(), Json::Str(kind.into())),
        ("scale".into(), Json::Str(flags.scale.name().into())),
        ("seed".into(), Json::Num(flags.seed as f64)),
        ("seconds_per_process".into(), Json::Num(flags.scale.seconds_per_process())),
        (
            "generator_lateness".into(),
            Json::Str(
                "n/a: every loop is closed (one caller; simulated-time schedules are fixed \
                 by the seed)"
                    .into(),
            ),
        ),
        ("env".into(), environment()),
    ]
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The `run` subcommand.
///
/// # Errors
///
/// Bad flags, a child that cannot be started or read, an unwritable file.
pub(crate) fn run(flags: Flags) -> Result<ExitCode, String> {
    let flags = suite_flags(flags, "out")?;
    if traced_build() {
        return Err("`run` measures end-to-end metrics: build without `--features traced`".into());
    }
    // results[workload] = one (result, detail) pair per repeat.
    let mut results: Vec<Vec<(Json, Json)>> = vec![Vec::new(); Workload::ALL.len()];
    let exe = own_executable()?;
    for rep in 0..REPEATS {
        for (slot, workload) in Workload::ALL.into_iter().enumerate() {
            eprintln!("repeat {}/{REPEATS}: {}", rep + 1, workload.name());
            results[slot].push(run_child(&Child {
                exe: &exe,
                workload,
                seed: flags.seed,
                seconds: flags.scale.seconds_per_process(),
                scale: flags.scale,
                traced: None,
            })?);
        }
    }

    let mut all_correct = true;
    let mut rows = Vec::new();
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>14} {:>14}  unit",
        "workload", "metric", "median", "min", "q1", "q3"
    );
    for (workload, reps) in Workload::ALL.into_iter().zip(&results) {
        let first_detail = &reps[0].1;
        let digest = first_detail.get("sim_digest").cloned().unwrap_or(Json::Null);
        let mut correct = reps.iter().all(|(r, _)| r.get("correct") == Some(&Json::Bool(true)));
        // Same seed in every process: the simulated outputs must agree.
        if reps.iter().any(|(_, d)| d.get("sim_digest") != Some(&digest)) {
            eprintln!("{}: sim_digest differs between repeats", workload.name());
            correct = false;
        }
        all_correct &= correct;
        let total = |key: &str| -> f64 {
            reps.iter().filter_map(|(r, _)| r.get(key).and_then(Json::as_f64)).sum()
        };
        let mut metrics = Vec::new();
        for (name, unit, _) in END_TO_END {
            let values: Vec<f64> = reps
                .iter()
                .filter_map(|(r, _)| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect();
            if values.len() != reps.len() {
                return Err(format!("{}: a repeat did not report {name}", workload.name()));
            }
            let (mid, min, (q1, q3)) = (median(&values), fastest(&values), quartiles(&values));
            println!(
                "{:<12} {name:<18} {mid:>14.6} {min:>14.6} {q1:>14.6} {q3:>14.6}  {unit}",
                workload.name()
            );
            metrics.push((
                name,
                Json::object([
                    ("unit", Json::Str(unit.into())),
                    ("median", Json::Num(mid)),
                    ("min", Json::Num(min)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("n", Json::Num(values.len() as f64)),
                    ("values", Json::numbers(&values)),
                ]),
            ));
        }
        let keep =
            |key: &str| (key.to_string(), first_detail.get(key).cloned().unwrap_or(Json::Null));
        rows.push((
            workload.name(),
            Json::Obj(vec![
                keep("sizes"),
                keep("sim_digest"),
                ("correct".into(), Json::Bool(correct)),
                ("attempted".into(), Json::Num(total("attempted"))),
                ("failed".into(), Json::Num(total("failed"))),
                keep("offered"),
                keep("accepted"),
                keep("nodes"),
                keep("sim_cycles"),
                keep("sim"),
                ("metrics".into(), Json::object(metrics)),
                // What each process saw inside its own time budget.
                (
                    "per_process".into(),
                    Json::Arr(
                        reps.iter()
                            .map(|(_, d)| {
                                Json::Obj(
                                    ["repeats", "run_s", "setup_s", "establish_us_p50", "failures"]
                                        .into_iter()
                                        .map(|k| {
                                            (k.to_string(), d.get(k).cloned().unwrap_or(Json::Null))
                                        })
                                        .collect(),
                                )
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }

    let mut file = header("run", &flags);
    file.push(("repeats".into(), Json::Num(REPEATS as f64)));
    file.push((
        "protocol".into(),
        Json::Str(
            "rep-major (for rep { for workload }), one single-threaded process per workload \
             and repeat, every process rebuilds from the seed; headline = median over repeats"
                .into(),
        ),
    ));
    file.push(("workloads".into(), Json::object(rows)));
    let text = Json::Obj(file).render_pretty();
    match &flags.out {
        Some(path) => {
            write_file(Path::new(path), &text)?;
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The `trace` subcommand: per-layer metrics and spans, one traced process
/// per workload.
///
/// # Errors
///
/// Bad flags, an untraced build, no untraced build to compare against, a
/// child that cannot be started or read, an unwritable file.
pub(crate) fn trace(mut flags: Flags) -> Result<ExitCode, String> {
    let untraced_exe = flags.take("untraced-exe").map(PathBuf::from);
    let flags = suite_flags(flags, "out-dir")?;
    if !traced_build() {
        return Err("`trace` needs the `traced` feature: build with `--features traced`".into());
    }
    let untraced_exe = untraced_exe.ok_or(NEEDS_UNTRACED_EXE)?;
    let exe = own_executable()?;
    let dir = Path::new(flags.out.as_deref().unwrap_or("trace-out"));
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut all_correct = true;
    let mut rows = Vec::new();
    let mut spans_text = String::new();
    for workload in Workload::ALL {
        eprintln!("tracing {}...", workload.name());
        let part = dir.join(format!("spans.{}.jsonl", workload.name()));
        let (result, detail) = run_child(&Child {
            exe: &exe,
            workload,
            seed: flags.seed,
            seconds: flags.scale.seconds_per_process(),
            scale: flags.scale,
            traced: Some((&untraced_exe, &part)),
        })?;
        spans_text.push_str(
            &std::fs::read_to_string(&part)
                .map_err(|e| format!("cannot read {}: {e}", part.display()))?,
        );
        std::fs::remove_file(&part)
            .map_err(|e| format!("cannot remove {}: {e}", part.display()))?;
        let correct = result.get("correct") == Some(&Json::Bool(true));
        if !correct {
            eprintln!("{}: failed: {:?}", workload.name(), detail.get("failures"));
        }
        all_correct &= correct;

        let span_s = detail.get("span_ns").and_then(Json::as_f64).unwrap_or(0.0) / 1e9;
        println!("{}: self time per layer over {span_s:.3} s of spans", workload.name());
        let shares = detail.get("self_time_share").cloned().unwrap_or(Json::Null);
        for (layer, share) in shares.as_object().unwrap_or_default() {
            println!("  {layer:<10} {:>7.2} %", 100.0 * share.as_f64().unwrap_or(0.0));
        }
        let metrics = result.get("metrics").cloned().unwrap_or(Json::Null);
        for (name, metric) in metrics.as_object().unwrap_or_default() {
            if name.starts_with("mesh.phase.") || name == "trace.overhead_ratio" {
                let value = metric.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                println!("  {name:<34} {value:>10.4} ratio");
            }
        }
        let keep = |key: &str| (key.to_string(), detail.get(key).cloned().unwrap_or(Json::Null));
        rows.push((
            workload.name(),
            Json::Obj(vec![
                keep("sizes"),
                keep("sim_digest"),
                ("correct".into(), Json::Bool(correct)),
                keep("repeats"),
                keep("span_ns"),
                keep("self_time_share"),
                keep("failures"),
                ("metrics".into(), metrics),
            ]),
        ));
    }
    let mut file = header("trace", &flags);
    file.push(("workloads".into(), Json::object(rows)));
    write_file(&dir.join("trace.json"), &Json::Obj(file).render_pretty())?;
    write_file(&dir.join("spans.jsonl"), &spans_text)?;
    eprintln!("wrote trace.json and spans.jsonl in {}", dir.display());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
