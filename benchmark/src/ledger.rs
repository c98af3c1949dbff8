//! The whole benchmark in one go: `verify`, then every workload in a
//! fresh process each (so set-up time and peak memory are per workload),
//! then a shorter traced pass of each — every metric printed by name and
//! unit, and the results kept under `benchmark/results/`.

use crate::json::Json;
use crate::procfs;
use crate::spec::{spec, WorkloadSpec};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// Runs this binary with `args`, echoes what it prints and returns its
/// last stdout line.
fn child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default().to_string();
    for line in lines {
        println!("  {line}");
    }
    if !output.status.success() {
        return Err(format!("{args:?} exited with {}", output.status));
    }
    Ok(last)
}

fn run_workload(w: &WorkloadSpec, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let name = w.name.as_str();
    let pass = if traced { "traced" } else { "untraced" };
    println!("== {name} ({pass}, {seconds} s, seed {seed}): {}", w.why);
    let args = [
        "run",
        "--workload",
        name,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]
    .map(String::from);
    let result =
        Json::parse(&child(&args)?).map_err(|e| format!("{name}: bad result line: {e}"))?;
    let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "  {:<34} {:>16.6} share  ({} of {} failed)",
        "failed_share",
        count("failed") / count("attempted").max(1.0),
        count("failed"),
        count("attempted")
    );
    if count("failed") > 0.0 {
        return Err(format!("{name}: {} of {} failed", count("failed"), count("attempted")));
    }
    Ok(result)
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers were measured on.
fn environment() -> Json {
    Json::obj([
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)),
        ("load_average_1m", Json::Num(procfs::load_average())),
        ("commit", Json::str(command_line("git", &["rev-parse", "HEAD"]))),
        ("toolchain", Json::str(command_line("rustc", &["--version"]))),
    ])
}

/// One set: every workload untraced, in a fresh process each.
fn run_set(seed: u64, seconds: f64) -> Result<Vec<Json>, String> {
    spec().workloads.iter().map(|w| run_workload(w, seed, seconds, false)).collect()
}

fn summary(sets: &[Vec<Json>]) -> String {
    let mut text = String::new();
    let _ = write!(text, "{:<22}", "end-to-end");
    for w in &spec().workloads {
        let _ = write!(text, " {:>20}", w.name);
    }
    for m in &spec().end_to_end {
        let _ = write!(text, "\n{:<22}", format!("{} [{}]", m.name, m.unit));
        for set in &sets[0] {
            let _ = write!(text, " {:>20.4}", metric(set, &m.name));
        }
    }
    text.push('\n');
    text
}

/// Per end-to-end metric × workload: both medians, how much worse the
/// second is than the first (negative = better) and the bound.
fn agreement(sets: &[Vec<Json>]) -> (String, bool) {
    let mut text = format!(
        "{:<22} {:<22} {:>14} {:>14} {:>8} {:>7}\n",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    let mut all_within = true;
    for (i, w) in spec().workloads.iter().enumerate() {
        for m in &spec().end_to_end {
            let (a, b) = (metric(&sets[0][i], &m.name), metric(&sets[1][i], &m.name));
            let worse = if m.better == "lower" { (b - a) / a } else { (a - b) / a };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let verdict = if worse <= bound { "" } else { "  OUTSIDE" };
            all_within &= worse <= bound;
            let _ = writeln!(
                text,
                "{:<22} {:<22} {a:>14.4} {b:>14.4} {:>7.2}% {:>6.0}%{verdict}",
                w.name,
                m.name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    (text, all_within)
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let seed: u64 = crate::parsed(args, "--seed", 1)?;
    let quick = args.iter().any(|a| a == "--quick");
    let twice = args.iter().any(|a| a == "--twice");
    let seconds = if quick { spec().run_seconds / 10.0 } else { spec().run_seconds };
    let env = environment();
    println!("environment: {}", env.render());

    println!("== verify");
    child(&["verify".into(), "--seed".into(), seed.to_string()])
        .map(|last| println!("  {last}"))?;

    let mut sets = vec![run_set(seed, seconds)?];
    if twice {
        sets.push(run_set(seed, seconds)?);
    }
    // The traced pass is shorter: its numbers are shares and per-call
    // costs, not rates that need a long window.
    let traced: Vec<Json> = spec()
        .workloads
        .iter()
        .map(|w| run_workload(w, seed, (seconds / 2.0).max(1.0), true))
        .collect::<Result<_, _>>()?;

    println!("\n{}", summary(&sets));
    let agreed = twice.then(|| agreement(&sets));
    if let Some((text, _)) = &agreed {
        println!("{text}");
    }
    if quick {
        println!("--quick: nothing recorded");
    } else {
        // Next to the package's sources, where the baseline is committed.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let workloads = spec().workloads.iter().enumerate().map(|(i, w)| {
            let runs =
                Json::obj([("end_to_end", sets[0][i].clone()), ("per_layer", traced[i].clone())]);
            (w.name.as_str(), runs)
        });
        let doc = Json::obj([
            ("environment", env),
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(seconds)),
            ("workloads", Json::obj(workloads)),
        ]);
        let path = dir.join("latest.json");
        std::fs::write(&path, doc.render() + "\n").map_err(|e| e.to_string())?;
        println!("results: {}", path.display());
        if let Some((text, _)) = &agreed {
            let path = dir.join("agreement.txt");
            std::fs::write(&path, text).map_err(|e| e.to_string())?;
            println!("agreement: {}", path.display());
        }
    }
    Ok(match agreed {
        Some((_, false)) => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    })
}
