//! The reCloud benchmark, measured from outside the program: it calls
//! public functions, CLI flags and RCS1 frames and adds nothing inside.
//!
//! ```text
//! recloud-benchmark run --workload W --seed N --seconds S --trace 0|1
//! recloud-benchmark verify [--seed N]
//! recloud-benchmark ledger [--seed N] [--quick] [--twice]
//! ```
//!
//! `run` is one workload in this process and ends with one JSON line;
//! `ledger` runs `verify`, then every workload in a fresh process each,
//! untraced and traced, and prints and records every metric by name.
//! `benchmark/run.sh` builds everything and picks the mode.

mod assess;
mod daemon;
mod gen;
mod harness;
mod json;
mod layers;
mod ledger;
mod procfs;
mod replay;
mod search;
mod serve;
mod spans;
mod spec;
mod stats;
mod verify;

use harness::Outcome;
use json::Json;
use std::process::ExitCode;

/// One workload run's parameters.
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    /// Seconds the measured phase lasts.
    pub seconds: f64,
    /// The traced pass (per-layer metrics) instead of the untraced one
    /// (end-to-end metrics).
    pub traced: bool,
}

impl RunCfg {
    /// Flushes the traced pass's spans as Chrome trace-event JSON under
    /// the scratch root. Best effort: a trace that cannot be written does
    /// not fail the run.
    pub fn write_trace(&self, rec: &spans::Recorder) {
        let dir = daemon::scratch_root();
        let path = dir.join(format!("trace-{}.json", self.workload));
        if std::fs::create_dir_all(&dir).is_ok()
            && std::fs::write(&path, rec.chrome_trace().render()).is_ok()
        {
            eprintln!("trace: {} spans -> {}", rec.spans().len(), path.display());
        }
        eprintln!("self time by span name:");
        for (name, us) in rec.self_time_by_name_us() {
            eprintln!("  {name:<22} {:>12.1} ms", us / 1e3);
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

pub fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot read '{v}'")),
    }
}

/// Runs one workload and returns what it measured, with every metric the
/// mode owes (all end-to-end untraced, all per-layer traced) present.
fn run_workload(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = match cfg.workload.as_str() {
        "assess_large_fresh" => assess::run(cfg),
        "search_medium_crn" => search::run(cfg),
        name => match serve::KINDS.iter().find(|k| k.name == name) {
            Some(kind) => serve::run(kind, cfg).map_err(|e| format!("{name}: {e}"))?,
            None => return Err(format!("unknown workload '{name}'")),
        },
    };
    // A workload may report any metric of the contract in either pass (a
    // count it has anyway); each pass prints only the ones it owes.
    let spec = spec::spec();
    let owed = if cfg.traced { &spec.per_layer } else { &spec.end_to_end };
    for m in &out.metrics {
        let known = spec.end_to_end.iter().chain(&spec.per_layer).find(|s| s.name == m.name);
        if known.is_none_or(|s| s.unit != m.unit) {
            return Err(format!("metric {} [{}] is not in the contract", m.name, m.unit));
        }
    }
    out.metrics.retain(|m| owed.iter().any(|s| s.name == m.name));
    if cfg.traced {
        // A layer this workload does not run took no time in it.
        for s in owed {
            if !out.metrics.iter().any(|m| m.name == s.name) {
                out.num(&s.name, 0.0, &s.unit);
            }
        }
    }
    if let Some(missing) = owed.iter().find(|s| !out.metrics.iter().any(|m| m.name == s.name)) {
        return Err(format!("workload did not report {}", missing.name));
    }
    out.metrics.sort_by_key(|m| owed.iter().position(|s| s.name == m.name));
    Ok(out)
}

/// The result line the contract prescribes.
pub fn result_json(out: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::Obj(
                out.metrics
                    .iter()
                    .map(|m| {
                        let entry =
                            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
                        (m.name.clone(), entry)
                    })
                    .collect(),
            ),
        ),
    ])
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let cfg = RunCfg {
        workload: flag(args, "--workload").ok_or("--workload is required")?.to_string(),
        seed: parsed(args, "--seed", 1)?,
        seconds: parsed(args, "--seconds", spec::spec().run_seconds)?,
        traced: parsed::<u8>(args, "--trace", 0)? != 0,
    };
    if cfg.seconds.is_nan() || cfg.seconds < 0.5 {
        return Err("--seconds must be at least 0.5".into());
    }
    let out = run_workload(&cfg)?;
    for m in &out.metrics {
        match m.range {
            Some((lo, hi)) => {
                println!(
                    "{:<34} {:>16.4} {:<6} (segments {lo:.4} .. {hi:.4})",
                    m.name, m.value, m.unit
                )
            }
            None => println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit),
        }
    }
    for why in &out.failures {
        println!("FAILED: {why}");
    }
    println!("{}", result_json(&out).render());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("verify") => parsed(&args[1..], "--seed", 1).and_then(verify::run),
        Some("ledger") => ledger::run(&args[1..]),
        _ => Err("usage: recloud-benchmark run|verify|ledger … (see benchmark/README.md)".into()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("recloud-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
