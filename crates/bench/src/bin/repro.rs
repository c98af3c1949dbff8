//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p recloud-bench --release --bin repro -- all --quick
//! cargo run -p recloud-bench --release --bin repro -- fig7
//! cargo run -p recloud-bench --release --bin repro -- fig9 --paper-times
//! ```
//!
//! Subcommands: `table2`, `fig7` … `fig12`, `ablation-delta`,
//! `ablation-schedule`, `ablation-symmetry`, `ablation-fault-trees`,
//! `all` (every one of those, in that order), and `serve-frontier` (not a
//! paper figure: the connection-count frontier and tenant isolation), and
//! `answers` (one digest per benchmark workload shape over its first 64
//! ops' answers; `scripts/ci.sh` compares it with `crates/bench/answers.txt`).
//! Flags: `--quick` (small scales/rounds), `--paper-times` (restore the
//! 3–300 s Figure 9 budgets), `--seed <n>`. Timings live in `benchmark/`.

use recloud_bench::answers;
use recloud_bench::figures::{self, ReproOptions};
use std::process::ExitCode;

const USAGE: &str = "usage: repro <table2|fig7|fig8|fig9|fig10|fig11|fig12|\
ablation-delta|ablation-schedule|ablation-symmetry|ablation-fault-trees|\
serve-frontier|answers|all> [--quick] [--paper-times] [--seed <n>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command: Option<String> = None;
    let mut opts = ReproOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--paper-times" => opts.paper_times = true,
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => opts.seed = s,
                None => {
                    eprintln!("--seed needs an integer\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            cmd if command.is_none() && !cmd.starts_with('-') => {
                command = Some(cmd.to_string());
            }
            other => {
                eprintln!("unknown argument '{other}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(command) = command else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match command.as_str() {
        "table2" => figures::table2(),
        "fig7" => figures::fig7(&opts),
        "fig8" => figures::fig8(&opts),
        "fig9" => figures::fig9(&opts),
        "fig10" => figures::fig10(&opts),
        "fig11" => figures::fig11(&opts),
        "fig12" => figures::fig12(&opts),
        "ablation-delta" => figures::ablation_delta(&opts),
        "ablation-schedule" => figures::ablation_schedule(&opts),
        "ablation-symmetry" => figures::ablation_symmetry(&opts),
        "ablation-fault-trees" => figures::ablation_fault_trees(&opts),
        "serve-frontier" => figures::serve_frontier(&opts),
        "answers" => answers::answers(opts.seed),
        "all" => {
            figures::table2();
            figures::fig7(&opts);
            figures::fig8(&opts);
            figures::fig9(&opts);
            figures::fig10(&opts);
            figures::fig11(&opts);
            figures::fig12(&opts);
            figures::ablation_delta(&opts);
            figures::ablation_schedule(&opts);
            figures::ablation_symmetry(&opts);
            figures::ablation_fault_trees(&opts);
        }
        other => {
            eprintln!("unknown command '{other}'\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
