#![warn(missing_docs)]

//! # recloud-cli
//!
//! Command-line front end for the reCloud deployment service. The binary
//! (`recloud`) is a thin shell around [`run`], which parses arguments,
//! executes one command and returns the rendered output — a design that
//! keeps the whole CLI unit-testable without spawning processes.
//!
//! ```text
//! recloud topo --scale small
//! recloud assess --scale tiny --k 4 --n 5 --rounds 10000
//! recloud search --scale tiny --k 4 --n 5 --budget-ms 1000 --multi-objective
//! recloud compare --scale tiny --k 2 --n 3 --candidates 5
//! recloud whatif --scale tiny --fail power:0 --k 4 --n 5
//! ```

pub mod args;
pub mod commands;

use args::{CliError, Parsed};

/// Parses `argv` (without the program name) and runs the command,
/// returning the output text.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let parsed = Parsed::parse(argv)?;
    match parsed.command.as_str() {
        "topo" => commands::topo(&parsed),
        "assess" => commands::assess(&parsed),
        "search" => commands::search(&parsed),
        "compare" => commands::compare(&parsed),
        "whatif" => commands::whatif(&parsed),
        "sensitivity" => commands::sensitivity(&parsed),
        "blast" => commands::blast(&parsed),
        "dot" => commands::dot(&parsed),
        "availability" => commands::availability(&parsed),
        "serve" => commands::serve(&parsed),
        "loadgen" => commands::loadgen(&parsed),
        "stats" => commands::stats(&parsed),
        "journal" => commands::journal(&parsed),
        "trace" => commands::trace(&parsed),
        "help" => Ok(usage().to_string()),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

/// The usage text.
pub fn usage() -> &'static str {
    "recloud — reliable application deployment in the cloud (CoNEXT '17 reproduction)

USAGE:
    recloud <command> [options]

COMMANDS:
    topo      describe a data-center topology
    assess    quantitatively assess a deployment plan (score ± error bound)
    search    search for a reliable deployment plan (simulated annealing)
    compare   rank candidate plans (the INDaaS service, with error bounds)
    whatif       inject component failures and re-check a plan
    sensitivity  conditional reliability per shared dependency
    blast        blast radius of every power supply
    dot          Graphviz export of the topology
    availability continuous-time renewal simulation (outage statistics)
    serve        run the placement-as-a-service daemon (binary protocol)
    loadgen      drive a running daemon (load measurement or --smoke)
    stats        read a running daemon's instruments (latency quantiles,
                 queue depth, cache hit rate; --json for raw snapshot)
    journal      print a running daemon's newest journal events as JSON lines
    trace        fetch a request's causal span tree from a running daemon
    help         show this text

TOPOLOGY OPTIONS (topo, assess, search, compare, whatif, sensitivity,
                  blast, dot, availability):
    --scale <tiny|small|medium|large|xl> paper preset (default: tiny)
    --topology <fattree|leafspine|jellyfish|bcube|vl2>
                                        generator when not using --scale,
                                        with these dimensions:
    --ports <int>                       switch ports: fattree (default: 8),
                                        jellyfish (6), bcube (4)
    --spines <int> --leaves <int>       leafspine (default: 4 spines, 8 leaves)
    --hosts-per-leaf <int>              leafspine (default: 8)
    --switches <int> --hosts-per-switch <int>
                                        jellyfish (default: 40 switches, 4)
    --levels <int>                      bcube (default: 1)
    --da <int> --di <int>               vl2 switch degrees (default: 8, 4)
    --seed <int>                        master seed (default: 1)

APPLICATION OPTIONS (assess, search, compare, whatif, sensitivity,
                     availability):
    --k <int> --n <int>                 K-of-N redundancy (default: 4-of-5)
    --layers <int>                      use a layered app of this depth instead
    --rounds <int>                      route-and-check rounds (default: 10000)

ASSESS OPTIONS:
    --stream                            drive chunk-by-chunk, printing running
                                        (R, CIW) progress lines
    --target-ciw <float>                with --stream: stop as soon as the 95%
                                        CI width shrinks to this
    --cadence <int>                     chunks per progress line (default: 4)
    --monte-carlo                       plain Monte Carlo instead of dagger
    --hosts <id,...>                    explicit plan host ids (else random)
    --addr <host:port>                  run on a live daemon instead (RCS1;
                                        preset scales only) — the round trip
                                        is traced end to end, client spans
                                        joining the server's in one tree

SEARCH OPTIONS:
    --budget-ms <int>                   search budget (default: 2000)
    --workers <int>                     parallel annealing chains (default: 1,
                                        the paper's sequential search); an
                                        in-process search always reports its
                                        chains and which one won
    --iters <int>                       deterministic per-chain iteration budget;
                                        overrides --budget-ms and makes the
                                        answer a pure function of the flags
    --exchange-every <int>              iterations between best-plan exchanges
                                        (0 = independent restarts)
    --stream                            print each chain's best-plan trajectory
                                        (one line per streamed improvement)
    --addr <host:port>                  run on a live daemon instead (RCS1
                                        SearchStream; preset scales only)
    --multi-objective                   Eq 7 holistic measure (reliability+load)
    --distinct-racks                    placement rule: one instance per rack

COMPARE OPTIONS:
    --candidates <int>                  number of random candidates (default: 4)

WHATIF OPTIONS:
    --fail <kind:ordinal>[,...]         components to force-fail, e.g.
                                        power:0,edge:3,host:17
    --hosts <id,...>                    explicit plan host ids (else random)

SENSITIVITY OPTIONS:
    --hosts <id,...>                    explicit plan host ids (else random)

DOT OPTIONS:
    --switches-only                     leave the hosts out

AVAILABILITY OPTIONS:
    --years <int>                       simulated horizon (default: 50)
    --mttr-hours <float>                mean time to repair (default: 8)
    --hosts <id,...>                    explicit plan host ids (else random)

SERVE OPTIONS:
    --port <int>                        listen port, 0 = ephemeral (default: 7070)
    --port-file <path>                  write the bound port for scripts
    --workers <int> --queue <int>       worker pool size / admission bound
    --cache <int>                       result-cache entries (0 disables)
    --store <dir>                       append-only result store: replayed on
                                        boot to warm the cache (and compacted
                                        then if replay left it past its
                                        thresholds), appended on every
                                        finished assessment
    --tenant-budget <int>               per-tenant in-flight cap: an
                                        over-budget tenant gets Busy while
                                        other tenants are unaffected

DAEMON OPTIONS (loadgen, stats, journal, trace):
    --addr <host:port>                  daemon address (default: 127.0.0.1:7070)

LOADGEN OPTIONS:
    --smoke                             run the CI smoke sequence and exit
                                        (with --stream: the streaming smoke,
                                        which leaves the daemon running)
    --stream                            AssessStream instead of AssessPlan;
                                        --cadence <int> chunks per Partial
    --requests <int> --connections <int>
                                        with --smoke --stream, --connections
                                        runs the fleet gate instead: that many
                                        concurrent connections held open
    --scale <preset> --rounds <int> --seed <int>
                                        the request (default: tiny, 1000
                                        rounds, seed 42)
    --distinct-seeds                    fresh seed per request (cache-miss mix)
    --tenant <id>                       introduce connections as this tenant
                                        (Hello frame; admission budgets and
                                        per-tenant metrics apply)

STATS OPTIONS:
    --json                              print the raw snapshot JSON

JOURNAL OPTIONS:
    --tail <int>                        newest N events (default: 64)

TRACE OPTIONS:
    --id <int>                          trace id (default: 0 = most recently
                                        finished trace)
    --chrome <path>                     also write Chrome trace-event JSON
                                        (chrome://tracing, ui.perfetto.dev)"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(cmd: &str) -> Result<String, CliError> {
        let argv: Vec<String> = cmd.split_whitespace().map(String::from).collect();
        run(&argv)
    }

    #[test]
    fn help_prints_usage() {
        let out = run_str("help").unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("whatif"));
    }

    /// Every `recloud` command line the CI script and the README run
    /// parses: the flag table refuses none of them. Shell words (`"$X"`)
    /// stand in as plain values; a line ends at a pipe, redirect or `)`,
    /// and one whose command is a shell word (the bad-input loop) is
    /// skipped.
    #[test]
    fn documented_invocations_parse() {
        let sources = [
            (include_str!("../../../scripts/ci.sh"), "target/release/recloud "),
            (include_str!("../../../README.md"), "-p recloud-cli -- "),
        ];
        let mut checked = 0;
        for (text, marker) in sources {
            let joined = text.replace("\\\n", " ");
            for line in joined.lines().filter(|l| !l.trim_start().starts_with('#')) {
                let Some((_, rest)) = line.split_once(marker) else { continue };
                let argv: Vec<String> = rest
                    .split_whitespace()
                    .take_while(|w| !w.starts_with(['|', '&', ')', '#']) && !w.contains('>'))
                    .map(|w| if w.contains(['$', '"']) { "$".into() } else { w.into() })
                    .collect();
                if argv.first().is_some_and(|command| command == "$") {
                    continue;
                }
                if let Err(e) = args::Parsed::parse(&argv) {
                    panic!("`recloud {}`: {e}", argv.join(" "));
                }
                checked += 1;
            }
        }
        assert!(checked >= 20, "only {checked} invocations found");
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = run_str("frobnicate").unwrap_err();
        assert!(matches!(err, CliError::UnknownCommand(_)));
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn empty_argv_is_an_error() {
        let err = run(&[]).unwrap_err();
        assert!(matches!(err, CliError::MissingCommand));
    }

    #[test]
    fn topo_summarizes_a_preset() {
        let out = run_str("topo --scale tiny").unwrap();
        assert!(out.contains("112 hosts"), "{out}");
        assert!(out.contains("fat-tree"));
    }

    #[test]
    fn topo_supports_other_generators() {
        let out = run_str("topo --topology leafspine").unwrap();
        assert!(out.contains("leaf-spine"), "{out}");
        let out = run_str("topo --topology bcube").unwrap();
        assert!(out.contains("BCube"), "{out}");
        let out = run_str("topo --topology vl2").unwrap();
        assert!(out.contains("VL2"), "{out}");
        let out = run_str("topo --topology jellyfish").unwrap();
        assert!(out.contains("Jellyfish"), "{out}");
    }

    #[test]
    fn assess_reports_score_and_bound() {
        let out = run_str("assess --scale tiny --k 2 --n 3 --rounds 2000 --seed 7").unwrap();
        assert!(out.contains("reliability"), "{out}");
        assert!(out.contains("95% CI"), "{out}");
        assert!(out.contains("downtime"), "{out}");
    }

    /// A plan no round of the sample failed is not shown to have no
    /// downtime: the line gives the 95 % upper bound, ≈ 3/10⁴ of a year at
    /// 10⁴ rounds, and 0.95 of a year — never more than the year — at one.
    #[test]
    fn a_perfect_sample_prints_an_upper_bound_not_zero_downtime() {
        for (rounds, bound) in [(10_000, "2.6"), (1, "8327.7")] {
            let cmd = format!("assess --scale medium --k 1 --n 5 --rounds {rounds} --seed 1");
            let out = run_str(&cmd).unwrap();
            assert!(out.contains("reliability 1.00000"), "{out}");
            assert!(out.contains(&format!("downtime: at most {bound} hours")), "{out}");
            assert!(!out.contains("0.0 hours"), "{out}");
        }
    }

    #[test]
    fn assess_accepts_explicit_hosts() {
        // In the tiny (k=8) fat-tree, hosts start after 16 core + 28 agg
        // + 28 edge switches, i.e. at id 72.
        let out = run_str("assess --scale tiny --k 1 --n 2 --rounds 500 --hosts 72,73").unwrap();
        assert!(out.contains("c72"), "{out}");
    }

    #[test]
    fn search_returns_a_plan() {
        let out = run_str("search --scale tiny --k 2 --n 3 --rounds 500 --budget-ms 150").unwrap();
        assert!(out.contains("plans explored"), "{out}");
        assert!(out.contains("instance 0"), "{out}");
    }

    /// The search line prints the report table's score and half its
    /// 95 % CI width after "±": 0.99900 over 2,000 rounds has
    /// CIW95 = 4·√(0.999·0.001/2000) = 2.8e-3.
    #[test]
    fn search_line_is_pinned() {
        let out =
            run_str("search --scale tiny --k 1 --n 2 --rounds 2000 --seed 7 --iters 60").unwrap();
        assert!(out.contains("\nreliability 0.99900 (± 1.4e-3); chain 0 won\n"), "{out}");
    }

    #[test]
    fn search_with_rules_and_objective() {
        let out = run_str(
            "search --scale tiny --k 1 --n 2 --rounds 300 --budget-ms 100 \
             --multi-objective --distinct-racks",
        )
        .unwrap();
        assert!(out.contains("holistic"), "{out}");
    }

    #[test]
    fn parallel_search_is_deterministic_and_streams_trajectories() {
        let cmd = "search --scale tiny --k 2 --n 3 --rounds 400 --workers 3 --iters 25 --stream";
        let a = run_str(cmd).unwrap();
        let b = run_str(cmd).unwrap();
        // Everything but the wall-clock elapsed (after " in ") is a pure
        // function of (seed, workers, iters): trajectories, winner, plan.
        let stable = |s: &str| {
            s.lines().map(|l| l.split(" in ").next().unwrap().to_string()).collect::<Vec<_>>()
        };
        assert_eq!(stable(&a), stable(&b), "iteration budget makes the search reproducible");
        assert!(a.contains("3 annealing chains"), "{a}");
        assert!(a.contains("[chain "), "{a}");
        assert!(a.contains("won"), "{a}");
        assert!(a.contains("plans explored across 3 chains"), "{a}");
    }

    #[test]
    fn parallel_search_supports_rules_and_holistic_objective() {
        let out = run_str(
            "search --scale tiny --k 1 --n 2 --rounds 300 --workers 2 --iters 15 \
             --multi-objective --distinct-racks",
        )
        .unwrap();
        assert!(out.contains("holistic"), "{out}");
        assert!(out.contains("2 annealing chains"), "{out}");
    }

    #[test]
    fn parallel_search_validates_workers() {
        let err = run_str("search --scale tiny --workers 0").unwrap_err();
        assert!(err.to_string().contains("workers"), "{err}");
    }

    #[test]
    fn remote_search_rejects_generator_topologies() {
        let err = run_str("search --addr 127.0.0.1:1 --topology bcube").unwrap_err();
        assert!(err.to_string().contains("preset"), "{err}");
    }

    #[test]
    fn compare_ranks_candidates() {
        let out = run_str("compare --scale tiny --k 1 --n 2 --rounds 500 --candidates 3").unwrap();
        assert!(out.contains("rank"), "{out}");
        assert!(out.contains("#1"), "{out}");
    }

    #[test]
    fn whatif_injects_failures() {
        let out = run_str("whatif --scale tiny --k 4 --n 5 --fail power:0").unwrap();
        assert!(out.contains("forced failed"), "{out}");
        assert!(out.contains("power0"), "{out}");
    }

    #[test]
    fn streamed_assess_prints_progress_and_the_same_answer() {
        let plain = run_str("assess --scale tiny --k 2 --n 3 --rounds 6000 --seed 7").unwrap();
        let streamed =
            run_str("assess --scale tiny --k 2 --n 3 --rounds 6000 --seed 7 --stream --cadence 1")
                .unwrap();
        assert!(streamed.contains("chunk"), "{streamed}");
        assert!(streamed.contains("CIW"), "{streamed}");
        // The invariant the driver refactor guarantees: the streamed
        // final line is identical to the plain one.
        let final_line =
            |s: &str| s.lines().find(|l| l.starts_with("reliability")).map(String::from).unwrap();
        assert_eq!(final_line(&plain), final_line(&streamed));
    }

    #[test]
    fn streamed_assess_stops_at_target_ciw() {
        let out = run_str(
            "assess --scale tiny --k 2 --n 3 --rounds 100000 --seed 7 --stream --target-ciw 0.05",
        )
        .unwrap();
        assert!(out.contains("stopped early"), "{out}");
        assert!(!out.contains("over 100000 rounds"), "early stop must cover fewer rounds: {out}");
    }

    #[test]
    fn stream_flags_are_validated() {
        let err = run_str("assess --scale tiny --stream --target-ciw -0.5").unwrap_err();
        assert!(err.to_string().contains("target-ciw"));
        let err = run_str("assess --scale tiny --stream --target-ciw wide").unwrap_err();
        assert!(err.to_string().contains("wide"));
    }

    #[test]
    fn layered_app_flag() {
        let out = run_str("assess --scale tiny --k 1 --n 2 --layers 3 --rounds 300").unwrap();
        assert!(out.contains("3-layer"), "{out}");
    }

    /// Input the engine refuses is an error on every in-process command
    /// that takes it, never a panic: a host named twice, more instances
    /// than Tiny's 112 hosts, zero rounds, a generator dimension its
    /// `check` refuses.
    #[test]
    fn engine_refusals_are_errors_not_panics() {
        let cases = [
            ("assess --k 1 --n 2 --hosts 72,72", "twice"),
            ("whatif --k 1 --n 2 --hosts 72,72 --fail power:0", "twice"),
            ("sensitivity --k 1 --n 2 --hosts 72,72 --rounds 500", "twice"),
            ("availability --k 1 --n 2 --hosts 72,72 --years 1", "twice"),
            ("assess --n 200", "exceed"),
            ("compare --n 200", "exceed"),
            ("whatif --n 200 --fail power:0", "exceed"),
            ("sensitivity --n 200", "exceed"),
            ("search --n 200 --workers 2 --iters 5", "exceed"),
            ("assess --rounds 0", "rounds"),
            ("compare --rounds 0", "rounds"),
            ("search --rounds 0 --iters 5", "rounds"),
            ("assess --topology fattree --ports 3", "k >= 4"),
            ("assess --topology fattree --ports 0", "k >= 4"),
            ("assess --topology leafspine --spines 0", "at least one spine"),
            ("assess --topology leafspine --hosts-per-leaf 0", "host per leaf"),
            ("assess --topology bcube --ports 1", "n >= 2"),
            ("assess --topology bcube --levels 0", "border_switches"),
            ("assess --topology vl2 --da 3", "d_a must be even"),
            ("assess --topology vl2 --di 1", "d_i must be >= 2"),
            ("assess --topology jellyfish --ports 0", "network port"),
        ];
        for (cmd, says) in cases {
            let err = run_str(&format!("{cmd} --scale tiny")).unwrap_err();
            assert!(matches!(err, CliError::Invalid(_)), "{cmd}: {err:?}");
            assert!(err.to_string().contains(says), "{cmd}: {err}");
        }
    }

    #[test]
    fn bad_flag_value_is_reported() {
        let err = run_str("assess --scale nowhere").unwrap_err();
        assert!(err.to_string().contains("nowhere"));
        let err = run_str("assess --rounds abc").unwrap_err();
        assert!(err.to_string().contains("abc"));
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    fn run_str(cmd: &str) -> Result<String, CliError> {
        let argv: Vec<String> = cmd.split_whitespace().map(String::from).collect();
        run(&argv)
    }

    #[test]
    fn sensitivity_ranks_supplies() {
        let out = run_str("sensitivity --scale tiny --k 2 --n 3 --rounds 1000 --seed 3").unwrap();
        assert!(out.contains("baseline reliability"), "{out}");
        assert!(out.contains("blast radius"), "{out}");
        assert!(out.contains("power"), "{out}");
    }

    #[test]
    fn blast_lists_all_supplies() {
        let out = run_str("blast --scale tiny").unwrap();
        for i in 0..5 {
            assert!(out.contains(&format!("power{i}")), "{out}");
        }
        assert!(out.contains("hosts"), "{out}");
    }

    #[test]
    fn dot_emits_graphviz() {
        let out = run_str("dot --topology leafspine --switches-only").unwrap();
        assert!(out.starts_with("graph recloud {"), "{out}");
        assert!(!out.contains("shape=ellipse"), "hosts must be skipped");
    }

    #[test]
    fn availability_compares_static_and_dynamic() {
        let out = run_str("availability --scale tiny --k 1 --n 2 --years 2 --seed 5").unwrap();
        assert!(out.contains("static reliability score"), "{out}");
        assert!(out.contains("dynamic availability"), "{out}");
        assert!(out.contains("outages"), "{out}");
    }

    #[test]
    fn availability_validates_years() {
        let err = run_str("availability --scale tiny --years 0").unwrap_err();
        assert!(err.to_string().contains("years"));
    }
}

#[cfg(test)]
mod serve_tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn serve_then_smoke_then_clean_shutdown() {
        let port_file =
            std::env::temp_dir().join(format!("recloud-serve-test-{}.port", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let argv: Vec<String> =
            ["serve", "--port", "0", "--workers", "2", "--port-file", port_file.to_str().unwrap()]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let handle = std::thread::spawn(move || run(&argv));

        let deadline = Instant::now() + Duration::from_secs(30);
        let port = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                if let Ok(p) = s.trim().parse::<u16>() {
                    break p;
                }
            }
            assert!(Instant::now() < deadline, "server never wrote its port file");
            std::thread::sleep(Duration::from_millis(10));
        };

        let addr = format!("127.0.0.1:{port}");

        // Acceptance criterion: `recloud stats` against the live daemon
        // reports latency quantiles per request kind, the queue depth and
        // the cache hit rate — and `--json` yields the raw snapshot.
        let warm: Vec<String> = ["loadgen", "--addr", &addr, "--requests", "8", "--rounds", "200"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        run(&warm).unwrap();
        let stats_argv: Vec<String> =
            ["stats", "--addr", &addr].iter().map(|s| s.to_string()).collect();
        let stats_out = run(&stats_argv).unwrap();
        assert!(stats_out.contains("latency per request kind"), "{stats_out}");
        assert!(stats_out.contains("assess"), "{stats_out}");
        assert!(stats_out.contains("p50="), "{stats_out}");
        assert!(stats_out.contains("p99="), "{stats_out}");
        assert!(stats_out.contains("queue depth:"), "{stats_out}");
        assert!(stats_out.contains("hit rate"), "{stats_out}");
        let json_argv: Vec<String> =
            ["stats", "--addr", &addr, "--json"].iter().map(|s| s.to_string()).collect();
        let json_out = run(&json_argv).unwrap();
        assert!(json_out.starts_with("{\"counters\":{"), "{json_out}");
        assert!(json_out.contains("\"server.requests_total\":"), "{json_out}");
        assert!(json_out.contains("\"server.latency_us.assess\":{"), "{json_out}");
        let journal_argv: Vec<String> =
            ["journal", "--addr", &addr, "--tail", "16"].iter().map(|s| s.to_string()).collect();
        let journal_out = run(&journal_argv).unwrap();
        assert!(
            journal_out.contains("\"kind\"") || journal_out.contains("journal is empty"),
            "{journal_out}"
        );

        // Remote parallel search over RCS1 SearchStream: trajectory lines
        // arrive as SearchEvent frames, the summary carries the final plan.
        let argv = |cmd: String| cmd.split_whitespace().map(String::from).collect::<Vec<_>>();
        let flags = "--scale tiny --k 2 --n 3 --rounds 400 --seed 1 --workers 2 --iters 20";
        let search_out = run(&argv(format!("search --addr {addr} {flags} --stream"))).unwrap();
        assert!(search_out.contains("2 chains"), "{search_out}");
        assert!(search_out.contains("[chain "), "{search_out}");
        assert!(search_out.contains("streamed improvements"), "{search_out}");
        assert!(search_out.contains("hosts:"), "{search_out}");
        // The served answer, the in-process `recloud search` and a direct
        // `ParallelSearcher::search` print the same plan and report-table
        // estimate.
        let answer = {
            use recloud::search::{
                ParallelSearchConfig, ParallelSearcher, ReliabilityObjective, SearchConfig,
            };
            let topology = recloud::topology::Scale::Tiny.build();
            let model = recloud::faults::FaultModel::paper_default(&topology, 1);
            let config = ParallelSearchConfig::new(2, SearchConfig::iterations(20, 400, 1));
            let spec = recloud::apps::ApplicationSpec::k_of_n(2, 3);
            ParallelSearcher::new(&topology, model)
                .search(&spec, &ReliabilityObjective, &config, None, None)
                .best
        };
        let line = format!(
            "reliability {:.5} (± {:.1e});",
            answer.best_reliability,
            answer.best_ciw95 / 2.0
        );
        let hosts: Vec<_> = answer.best_plan.hosts_of(0).iter().map(|h| h.index()).collect();
        assert!(search_out.contains(&line), "{line}\n{search_out}");
        assert!(search_out.contains(&format!("hosts: {hosts:?}")), "{search_out}");
        let local = run(&argv(format!("search {flags}"))).unwrap();
        assert!(local.contains(&line), "{line}\n{local}");
        for (i, h) in answer.best_plan.hosts_of(0).iter().enumerate() {
            assert!(local.contains(&format!("instance {i}: {h} ")), "{local}");
        }
        // The search's held-out re-ranking shows in the daemon's stats.
        let stats_out = run(&stats_argv).unwrap();
        assert!(stats_out.contains("held-out re-rankings"), "{stats_out}");
        assert!(stats_out.contains("other than the in-sample best"), "{stats_out}");

        let loadgen_argv: Vec<String> =
            ["loadgen", "--smoke", "--addr", &addr].iter().map(|s| s.to_string()).collect();
        let smoke_out = run(&loadgen_argv).unwrap();
        assert!(smoke_out.contains("smoke OK"), "{smoke_out}");

        let summary = handle.join().unwrap().unwrap();
        assert!(summary.contains("cache hits"), "{summary}");
        assert!(summary.contains("0 protocol offenders"), "{summary}");
        let _ = std::fs::remove_file(&port_file);
    }

    #[test]
    fn serve_validates_flags() {
        let argv: Vec<String> = ["serve", "--workers", "0"].iter().map(|s| s.to_string()).collect();
        assert!(run(&argv).unwrap_err().to_string().contains("workers"));
        let argv: Vec<String> =
            ["serve", "--port", "70000"].iter().map(|s| s.to_string()).collect();
        assert!(run(&argv).unwrap_err().to_string().contains("port"));
    }

    #[test]
    fn loadgen_validates_scale_and_reports_connect_failures() {
        let argv: Vec<String> =
            ["loadgen", "--scale", "galactic"].iter().map(|s| s.to_string()).collect();
        assert!(run(&argv).unwrap_err().to_string().contains("galactic"));
        // Port 1 is privileged and unbound: connect must fail cleanly.
        let argv: Vec<String> = ["loadgen", "--addr", "127.0.0.1:1", "--requests", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&argv).unwrap_err().to_string().contains("loadgen failed"));
    }

    #[test]
    fn stats_and_journal_report_connect_failures() {
        let argv: Vec<String> =
            ["stats", "--addr", "127.0.0.1:1"].iter().map(|s| s.to_string()).collect();
        assert!(run(&argv).unwrap_err().to_string().contains("cannot connect"));
        let argv: Vec<String> =
            ["journal", "--addr", "127.0.0.1:1"].iter().map(|s| s.to_string()).collect();
        assert!(run(&argv).unwrap_err().to_string().contains("cannot connect"));
    }
}
