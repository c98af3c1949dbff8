//! One function per table/figure of the paper's evaluation (§4), plus the
//! ablations called out in DESIGN.md. Each prints a text table whose rows
//! mirror the corresponding plot's series. [`serve_frontier`] is the one
//! function that is not a paper figure.

use crate::{fmt_ms, paper_env, redundancy_specs, time_ms, TextTable, REDUNDANCY};
use recloud_apps::{ApplicationSpec, DeploymentPlan, WorkloadMap};
use recloud_assess::{Assessor, ParallelAssessor, SamplerKind};
use recloud_faults::{FaultModel, ProbabilityConfig};
use recloud_sampling::Rng;
use recloud_search::{
    enhanced_common_practice, DeltaRule, HolisticObjective, ReliabilityObjective, SearchBudget,
    SearchConfig, Searcher, TemperatureSchedule,
};
use recloud_topology::Scale;
use std::time::Duration;

/// Knobs shared by all reproduction runs.
#[derive(Clone, Copy, Debug)]
pub struct ReproOptions {
    /// Shrink scales/rounds so the full suite finishes in ~a minute.
    pub quick: bool,
    /// Use the paper's original 3–300 s search budgets in Figure 9
    /// (default: a geometrically equivalent 0.5–16 s sweep).
    pub paper_times: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for ReproOptions {
    fn default() -> Self {
        ReproOptions { quick: false, paper_times: false, seed: 1 }
    }
}

fn scales(opts: &ReproOptions) -> Vec<Scale> {
    if opts.quick {
        vec![Scale::Tiny, Scale::Small]
    } else {
        Scale::ALL.to_vec()
    }
}

fn head(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Table 2: component counts of the four data-center presets.
pub fn table2() {
    head("Table 2: Data center topologies with external connectivity");
    let mut t = TextTable::new(vec!["", "Tiny", "Small", "Medium", "Large"]);
    let topos: Vec<_> = Scale::ALL.iter().map(|s| s.build()).collect();
    use recloud_topology::ComponentKind as CK;
    type CountFn = Box<dyn Fn(&recloud_topology::Topology) -> usize>;
    let rows: Vec<(&str, CountFn)> = vec![
        ("# ports per switch", Box::new(|t| t.fat_tree().unwrap().k as usize)),
        ("# core switches", Box::new(|t| t.count_kind(CK::CoreSwitch))),
        ("# agg switches", Box::new(|t| t.count_kind(CK::AggSwitch))),
        ("# edge switches", Box::new(|t| t.count_kind(CK::EdgeSwitch))),
        ("# border switches", Box::new(|t| t.count_kind(CK::BorderSwitch))),
        ("# hosts", Box::new(|t| t.count_kind(CK::Host))),
        ("# power supplies", Box::new(|t| t.count_kind(CK::PowerSupply))),
    ];
    for (label, f) in rows {
        let mut cells = vec![label.to_string()];
        for topo in &topos {
            cells.push(f(topo).to_string());
        }
        t.row(cells);
    }
    t.print();
}

/// Figure 7: dagger vs Monte-Carlo sampling time across scales.
pub fn fig7(opts: &ReproOptions) {
    head("Figure 7: Dagger sampling vs Monte-Carlo sampling (state generation time)");
    let round_counts: &[usize] =
        if opts.quick { &[1_000, 10_000] } else { &[1_000, 10_000, 100_000] };
    let mut t = TextTable::new(vec!["scale", "rounds", "dagger", "monte-carlo", "speedup"]);
    for scale in scales(opts) {
        let (topo, model) = paper_env(scale, opts.seed);
        let mut dagger = Assessor::with_sampler(&topo, model.clone(), SamplerKind::ExtendedDagger);
        let mut mc = Assessor::with_sampler(&topo, model, SamplerKind::MonteCarlo);
        for &rounds in round_counts {
            let d = dagger.sampling_time(rounds, opts.seed).as_secs_f64() * 1e3;
            let m = mc.sampling_time(rounds, opts.seed).as_secs_f64() * 1e3;
            t.row(vec![
                scale.label(),
                format!("{rounds}"),
                fmt_ms(d),
                fmt_ms(m),
                format!("{:.1}x", m / d.max(1e-9)),
            ]);
        }
    }
    t.print();
}

/// Figure 8: 95% confidence-interval width vs sampling rounds.
pub fn fig8(opts: &ReproOptions) {
    head("Figure 8: Accuracy of deployment assessment (95% CI width vs rounds)");
    let scale = if opts.quick { Scale::Small } else { Scale::Large };
    println!("scale: {}", scale.label());
    let round_counts: &[usize] =
        if opts.quick { &[1_000, 3_000, 10_000] } else { &[1_000, 3_000, 10_000, 30_000, 100_000] };
    let (topo, model) = paper_env(scale, opts.seed);
    let mut assessor = Assessor::new(&topo, model);
    let mut t = TextTable::new(vec!["redundancy", "rounds", "reliability", "ciw95"]);
    for (label, spec) in redundancy_specs() {
        let mut rng = Rng::new(opts.seed);
        let plan = DeploymentPlan::random(&spec, topo.hosts(), &mut rng);
        for &rounds in round_counts {
            let a = assessor.assess(&spec, &plan, rounds, opts.seed);
            t.row(vec![
                label.clone(),
                format!("{rounds}"),
                format!("{:.5}", a.estimate.score),
                format!("{:.2e}", a.estimate.ciw95()),
            ]);
        }
    }
    t.print();
}

/// Figure 9: reCloud (multi-objective) vs enhanced common practice.
pub fn fig9(opts: &ReproOptions) {
    head("Figure 9: reCloud vs enhanced common practice (CP), multi-objective");
    let scale = if opts.quick { Scale::Small } else { Scale::Large };
    let budgets_s: Vec<f64> = if opts.paper_times {
        vec![3.0, 6.0, 15.0, 30.0, 60.0, 150.0, 300.0]
    } else if opts.quick {
        vec![0.5, 1.0, 2.0]
    } else {
        vec![0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    };
    println!("scale: {} (budgets scaled; see DESIGN.md substitution #4)", scale.label());
    let (topo, model) = paper_env(scale, opts.seed);
    let workload = WorkloadMap::paper_default(&topo, opts.seed);
    let rounds = if opts.quick { 2_000 } else { 10_000 };
    let mut t = TextTable::new(vec![
        "redundancy",
        "search budget",
        "reliability",
        "downtime h/yr",
        "plans",
        "sym-skips",
    ]);
    for (label, spec) in redundancy_specs() {
        // Enhanced common practice: negligible search time.
        let cp_plan = enhanced_common_practice(&topo, &workload, &spec);
        let mut assessor = Assessor::new(&topo, model.clone());
        let cp = assessor.assess(&spec, &cp_plan, rounds.max(50_000), opts.seed ^ 0xDEAD_BEEF);
        t.row(vec![
            label.clone(),
            "[CP]".into(),
            format!("{:.5}", cp.estimate.score),
            format!("{:.1}", cp.estimate.annual_downtime_hours()),
            "5".into(),
            "-".into(),
        ]);
        for &b in &budgets_s {
            let mut assessor = Assessor::new(&topo, model.clone());
            let mut searcher = Searcher::new(&mut assessor);
            let config = SearchConfig {
                budget: SearchBudget::WallClock(Duration::from_secs_f64(b)),
                rounds,
                ..SearchConfig::paper_default(opts.seed)
            };
            let obj = HolisticObjective::equal_weights(workload.clone());
            let out = searcher.search(&spec, &obj, &config, Some(&workload));
            // Independent validation assessment: the search's own best
            // score carries winner's-curse bias (it is a maximum over
            // noisy estimates), so re-assess the chosen plan on a fresh
            // sampling seed before reporting.
            let mut validator = Assessor::new(&topo, model.clone());
            let validated = validator.assess(
                &spec,
                &out.best_plan,
                rounds.max(50_000),
                opts.seed ^ 0xDEAD_BEEF,
            );
            t.row(vec![
                label.clone(),
                format!("{b}s"),
                format!("{:.5}", validated.estimate.score),
                format!("{:.1}", validated.estimate.annual_downtime_hours()),
                format!("{}", out.stats.plans_assessed),
                format!("{}", out.stats.symmetry_skips),
            ]);
        }
    }
    t.print();
}

fn time_per_plan(
    topo: &recloud_topology::Topology,
    model: &FaultModel,
    spec: &ApplicationSpec,
    rounds: usize,
    iters: usize,
    seed: u64,
) -> f64 {
    let mut assessor = Assessor::new(topo, model.clone());
    let mut searcher = Searcher::new(&mut assessor);
    let mut config = SearchConfig::iterations(iters, rounds, seed);
    config.use_symmetry = false; // "without the help of network transformations"
                                 // Full pipeline per plan (no shared-table shortcut), so the number is
                                 // comparable to the paper's per-plan evolve+assess cost.
    config.common_random_numbers = false;
    let (_out, ms) = time_ms(|| searcher.search(spec, &ReliabilityObjective, &config, None));
    ms / iters as f64
}

/// Figure 10: time to evolve + assess one plan, K-of-N settings.
pub fn fig10(opts: &ReproOptions) {
    head("Figure 10: Time to evolve and assess one deployment plan (single layer)");
    let rounds = if opts.quick { 2_000 } else { 10_000 };
    let iters = if opts.quick { 3 } else { 5 };
    let mut t = TextTable::new(vec!["scale", "redundancy", "ms/plan"]);
    for scale in scales(opts) {
        let (topo, model) = paper_env(scale, opts.seed);
        for &(k, n) in REDUNDANCY.iter() {
            let spec = ApplicationSpec::k_of_n(k, n);
            let ms = time_per_plan(&topo, &model, &spec, rounds, iters, opts.seed);
            t.row(vec![scale.label(), crate::redundancy_label(k, n), format!("{ms:.1}")]);
        }
    }
    t.print();
}

/// Figure 11: complex application structures (layers + microservices).
pub fn fig11(opts: &ReproOptions) {
    head("Figure 11: Complex application structures (time per plan)");
    let rounds = if opts.quick { 2_000 } else { 10_000 };
    let iters = if opts.quick { 2 } else { 3 };
    let mut structures: Vec<(String, ApplicationSpec)> = (1..=4)
        .map(|l| (format!("{l} layer(s)"), ApplicationSpec::layered(&vec![(4u32, 5u32); l])))
        .collect();
    for &(x, y) in &[(3u32, 5u32), (5, 10), (10, 20)] {
        structures
            .push((format!("microservice ({x}-{y})"), ApplicationSpec::microservice(x, y, 4, 5)));
    }
    let mut t = TextTable::new(vec!["scale", "structure", "instances", "ms/plan"]);
    for scale in scales(opts) {
        let (topo, model) = paper_env(scale, opts.seed);
        for (label, spec) in &structures {
            let total = spec.total_instances();
            if total > topo.num_hosts() {
                t.row(vec![
                    scale.label(),
                    label.clone(),
                    total.to_string(),
                    "n/a (exceeds hosts)".into(),
                ]);
                continue;
            }
            let ms = time_per_plan(&topo, &model, spec, rounds, iters, opts.seed);
            t.row(vec![scale.label(), label.clone(), total.to_string(), format!("{ms:.1}")]);
        }
    }
    t.print();
}

/// Figure 12: parallel execution (workers vs assessment time).
pub fn fig12(opts: &ReproOptions) {
    head("Figure 12: Parallel execution (time per deployment assessment)");
    let scale = if opts.quick { Scale::Small } else { Scale::Large };
    println!("scale: {}", scale.label());
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("hardware threads available: {cores}");
    if cores < 2 {
        println!("NOTE: on a single-core machine the worker pool can only exhibit the");
        println!("      overhead side of the paper's trade-off (per-worker context setup);");
        println!("      speedups require >= 2 cores. See EXPERIMENTS.md.");
    }
    let round_counts: &[usize] =
        if opts.quick { &[1_000, 10_000] } else { &[1_000, 10_000, 100_000] };
    let (topo, model) = paper_env(scale, opts.seed);
    let spec = ApplicationSpec::k_of_n(4, 5);
    let mut rng = Rng::new(opts.seed);
    let plan = DeploymentPlan::random(&spec, topo.hosts(), &mut rng);
    let mut t = TextTable::new(vec!["rounds", "workers", "time", "speedup vs 1"]);
    for &rounds in round_counts {
        let mut base_ms = 0.0f64;
        for workers in 1..=4usize {
            let engine = ParallelAssessor::new(&topo, model.clone(), workers);
            let (_a, ms) = time_ms(|| engine.assess(&spec, &plan, rounds, opts.seed));
            if workers == 1 {
                base_ms = ms;
            }
            t.row(vec![
                format!("{rounds}"),
                workers.to_string(),
                fmt_ms(ms),
                format!("{:.2}x", base_ms / ms.max(1e-9)),
            ]);
        }
    }
    t.print();
}

/// Ablation: Eq 5 log-ratio Δ vs classic absolute Δ.
pub fn ablation_delta(opts: &ReproOptions) {
    head("Ablation: acceptance delta rule (Eq 5 log-ratio vs classic absolute)");
    ablation_search(
        opts,
        |cfg, variant| {
            cfg.delta = if variant == 0 { DeltaRule::LogRatio } else { DeltaRule::Absolute };
        },
        &["log-ratio (paper)", "absolute (classic)"],
    );
}

/// Ablation: Eq 6 budget-linear temperature vs classic geometric cooling.
pub fn ablation_schedule(opts: &ReproOptions) {
    head("Ablation: temperature schedule (Eq 6 budget-linear vs geometric)");
    ablation_search(
        opts,
        |cfg, variant| {
            cfg.schedule = if variant == 0 {
                TemperatureSchedule::PaperLinear
            } else {
                TemperatureSchedule::classic()
            };
        },
        &["budget-linear (paper)", "geometric (classic)"],
    );
}

fn ablation_search(
    opts: &ReproOptions,
    mutate: impl Fn(&mut SearchConfig, usize),
    labels: &[&str],
) {
    let scale = if opts.quick { Scale::Tiny } else { Scale::Medium };
    let (topo, model) = paper_env(scale, opts.seed);
    let spec = ApplicationSpec::k_of_n(4, 5);
    let iters = if opts.quick { 20 } else { 60 };
    let rounds = if opts.quick { 1_000 } else { 4_000 };
    let seeds: &[u64] = &[11, 22, 33];
    let mut t = TextTable::new(vec!["variant", "seed", "best reliability", "worse accepted"]);
    for (variant, label) in labels.iter().enumerate() {
        for &seed in seeds {
            let mut assessor = Assessor::new(&topo, model.clone());
            let mut searcher = Searcher::new(&mut assessor);
            let mut config = SearchConfig::iterations(iters, rounds, seed);
            mutate(&mut config, variant);
            let out = searcher.search(&spec, &ReliabilityObjective, &config, None);
            t.row(vec![
                label.to_string(),
                seed.to_string(),
                format!("{:.5}", out.best_reliability),
                out.stats.worse_accepted.to_string(),
            ]);
        }
    }
    t.print();
}

/// Ablation: symmetry (network transformations) on vs off, in a
/// class-homogeneous world where symmetry has maximal leverage.
pub fn ablation_symmetry(opts: &ReproOptions) {
    head("Ablation: network-transformation symmetry check (homogeneous probabilities)");
    let scale = if opts.quick { Scale::Tiny } else { Scale::Medium };
    let topo = scale.build();
    let mut model = FaultModel::new(&topo, &ProbabilityConfig::Uniform(0.01), opts.seed);
    model.attach_power_dependencies(&topo);
    let spec = ApplicationSpec::k_of_n(4, 5);
    let iters = if opts.quick { 20 } else { 50 };
    let rounds = if opts.quick { 1_000 } else { 4_000 };
    let mut t =
        TextTable::new(vec!["symmetry", "plans assessed", "sym-skips", "elapsed", "reliability"]);
    for on in [true, false] {
        let mut assessor = Assessor::new(&topo, model.clone());
        let mut searcher = Searcher::new(&mut assessor);
        let mut config = SearchConfig::iterations(iters, rounds, opts.seed);
        config.use_symmetry = on;
        let (out, ms) = time_ms(|| searcher.search(&spec, &ReliabilityObjective, &config, None));
        t.row(vec![
            if on { "on (paper)" } else { "off" }.to_string(),
            out.stats.plans_assessed.to_string(),
            out.stats.symmetry_skips.to_string(),
            fmt_ms(ms),
            format!("{:.5}", out.best_reliability),
        ]);
    }
    t.print();
    println!("note: with symmetry on, equivalent neighbors are skipped without assessment;");
    println!("      the same iteration budget therefore covers more distinct plan shapes.");
}

/// Ablation: fault-tree reasoning on vs off — the correlated-failure
/// blind spot that motivates the paper.
pub fn ablation_fault_trees(opts: &ReproOptions) {
    head("Ablation: shared-dependency fault trees on vs off (same plan)");
    let scale = if opts.quick { Scale::Tiny } else { Scale::Medium };
    let topo = scale.build();
    let with = FaultModel::paper_default(&topo, opts.seed);
    let without = FaultModel::new(&topo, &ProbabilityConfig::PaperDefault, opts.seed);
    let rounds = if opts.quick { 10_000 } else { 50_000 };
    let mut t = TextTable::new(vec!["redundancy", "power deps", "reliability", "downtime h/yr"]);
    for (label, spec) in redundancy_specs() {
        let mut rng = Rng::new(opts.seed);
        let plan = DeploymentPlan::random(&spec, topo.hosts(), &mut rng);
        for (tag, model) in [("modeled", &with), ("ignored", &without)] {
            let mut assessor = Assessor::new(&topo, model.clone());
            let a = assessor.assess(&spec, &plan, rounds, opts.seed);
            t.row(vec![
                label.clone(),
                tag.to_string(),
                format!("{:.5}", a.estimate.score),
                format!("{:.1}", a.estimate.annual_downtime_hours()),
            ]);
        }
    }
    t.print();
    println!("note: ignoring shared power overestimates reliability — exactly the blind");
    println!("      spot reCloud exists to remove.");
}

/// Binds an in-process daemon on an ephemeral port, runs `drive` against
/// its address while the daemon serves, then sends `Shutdown` and joins.
fn with_daemon<T>(config: recloud_server::ServerConfig, drive: impl FnOnce(&str) -> T) -> T {
    use recloud_server::{Client, Server};
    let server = Server::bind(("127.0.0.1", 0), config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    std::thread::scope(|scope| {
        scope.spawn(|| server.run());
        let out = drive(&addr);
        Client::connect(&addr).expect("shutdown connection").shutdown().expect("shutdown frame");
        out
    })
}

/// Not a paper figure: the two serving measurements `benchmark/` cannot
/// own (its workloads hold 1–2 connections and one tenant). First the
/// connection-count frontier — a fleet of idle connections is attached to
/// the reactor and the cached request mix re-runs; flat p99 across fleet
/// sizes is the readiness-polling payoff, an idle socket costs the event
/// loop a table entry, not a thread. Then tenant isolation — a daemon
/// pinned to one inflight request per tenant, a victim replaying its
/// cached mix solo and again beside a hog flooding distinct-seed long
/// assessments; the hog eats `Busy`, the victim's p99 should barely move.
/// No store is opened and no file written.
pub fn serve_frontier(opts: &ReproOptions) {
    use recloud_server::{run_load, Client, LoadgenConfig, ServerConfig};
    head("Serving: connection-count frontier and tenant isolation");
    let config =
        ServerConfig { workers: ServerConfig::default().workers.min(4), ..ServerConfig::default() };
    println!(
        "{} workers, queue {}, cache {}",
        config.workers, config.queue_capacity, config.cache_capacity
    );
    let mix = LoadgenConfig {
        requests: if opts.quick { 500 } else { 2_000 },
        seed: opts.seed,
        ..LoadgenConfig::default()
    };
    let mut t = TextTable::new(vec!["idle conns", "ok", "req/s", "p50", "p95", "p99"]);
    with_daemon(config.clone(), |addr| {
        for fleet_size in [1usize, 64, 256, 1_000] {
            let fleet: Vec<Client> = (0..fleet_size as u64)
                .map(|i| {
                    let mut c = Client::connect(addr).expect("frontier fleet connect");
                    c.set_timeout(Some(Duration::from_secs(60))).expect("frontier fleet timeout");
                    assert_eq!(c.ping(i).expect("frontier fleet ping"), i);
                    c
                })
                .collect();
            let r = run_load(&LoadgenConfig { addr: addr.into(), ..mix.clone() })
                .expect("frontier probe");
            drop(fleet);
            t.row(vec![
                fleet_size.to_string(),
                r.ok.to_string(),
                format!("{:.0}", r.throughput_rps),
                format!("{} us", r.p50_us),
                format!("{} us", r.p95_us),
                format!("{} us", r.p99_us),
            ]);
        }
    });
    t.print();

    let budget = 1usize;
    let (solo, contended, hog) =
        with_daemon(ServerConfig { tenant_budget: Some(budget), ..config }, |addr| {
            let victim = LoadgenConfig {
                addr: addr.into(),
                connections: 2,
                seed: opts.seed ^ 0x7e4a_7e4a,
                tenant: Some("victim".into()),
                ..mix.clone()
            };
            let hog = LoadgenConfig {
                requests: if opts.quick { 64 } else { 128 },
                connections: 4,
                rounds: if opts.quick { 50_000 } else { 100_000 },
                distinct_seeds: true,
                seed: opts.seed ^ 0x9099_9099,
                tenant: Some("hog".into()),
                ..victim.clone()
            };
            let solo = run_load(&victim).expect("victim solo phase");
            std::thread::scope(|scope| {
                let hog = scope.spawn(move || run_load(&hog).expect("hog phase"));
                std::thread::sleep(Duration::from_millis(50));
                let contended = run_load(&victim).expect("victim contended phase");
                (solo, contended, hog.join().expect("hog thread"))
            })
        });
    println!(
        "tenant isolation (budget {budget}): victim p99 {} us solo -> {} us contended; \
         hog {} served / {} busy",
        solo.p99_us, contended.p99_us, hog.ok, hog.busy
    );
}
