//! Command implementations. Each returns the rendered output string.

use crate::args::{CliError, Parsed};
use recloud::assess::compare_plans;
use recloud::assess::engine::{build_plan, check_fits, check_hosts, check_shape, spec_for};
use recloud::assess::Engine;
use recloud::prelude::*;
use recloud::search::common_practice::power_diversity;
use recloud::topology::{BCubeParams, Vl2Params};
use recloud_server::protocol::Preset;
use recloud_server::Client;
use std::fmt::Write as _;
use std::time::Duration;

fn build_topology(p: &Parsed) -> Result<Topology, CliError> {
    let Some(kind) = p.get("topology") else {
        return Ok(preset(p)?.scale().build());
    };
    // Each generator's preconditions are checked before it builds, so a
    // bad dimension is an error rather than a panic.
    let built = match kind {
        "fattree" => {
            let g = FatTreeParams::new(p.u32_or("ports", 8)?);
            g.check().map(|()| g.build())
        }
        "leafspine" => {
            let g = LeafSpineParams::new(
                p.u32_or("spines", 4)?,
                p.u32_or("leaves", 8)?,
                p.u32_or("hosts-per-leaf", 8)?,
            );
            g.check().map(|()| g.build())
        }
        "jellyfish" => {
            let g = JellyfishParams::new(
                p.u32_or("switches", 40)?,
                p.u32_or("ports", 6)?,
                p.u32_or("hosts-per-switch", 4)?,
            )
            .seed(p.u64_or("seed", 1)?);
            g.check().map(|()| g.build())
        }
        "bcube" => {
            let g = BCubeParams::new(p.u32_or("ports", 4)?, p.u32_or("levels", 1)?);
            g.check().map(|()| g.build())
        }
        "vl2" => {
            let g = Vl2Params::new(p.u32_or("da", 8)?, p.u32_or("di", 4)?);
            g.check().map(|()| g.build())
        }
        other => {
            return Err(CliError::BadValue {
                flag: "topology".into(),
                value: other.into(),
                expected: "fattree|leafspine|jellyfish|bcube|vl2",
            })
        }
    };
    built.map_err(CliError::Invalid)
}

/// The preset `--scale` names. A daemon serves presets only, so a
/// `--topology` generator is refused (in-process commands read it first).
fn preset(p: &Parsed) -> Result<Preset, CliError> {
    if p.get("topology").is_some() {
        return Err(CliError::Invalid(
            "--addr serves preset scales only; --topology is an in-process flag".into(),
        ));
    }
    let scale = p.str_or("scale", "tiny");
    Preset::from_name(&scale).ok_or(CliError::BadValue {
        flag: "scale".into(),
        value: scale,
        expected: "tiny|small|medium|large|xl",
    })
}

/// A client of the daemon at `addr` that waits at most `timeout` for a
/// reply.
fn connect(addr: &str, timeout: Duration) -> Result<Client, CliError> {
    let mut client = Client::connect(addr)
        .map_err(|e| CliError::Invalid(format!("cannot connect to {addr}: {e}")))?;
    client
        .set_timeout(Some(timeout))
        .map_err(|e| CliError::Invalid(format!("set timeout: {e}")))?;
    Ok(client)
}

/// The engine every in-process command runs on: the topology the flags
/// describe under the paper-default fault model of `--seed`.
fn paper_engine(p: &Parsed, kind: SamplerKind) -> Result<(Topology, Engine, u64), CliError> {
    let (topology, seed) = (build_topology(p)?, p.u64_or("seed", 1)?);
    let engine = Engine::new(&topology, seed, kind);
    Ok((topology, engine, seed))
}

fn topology_name(t: &Topology) -> &'static str {
    match t.topology_kind() {
        recloud::topology::TopologyKind::FatTree(_) => "fat-tree (dedicated border pod)",
        recloud::topology::TopologyKind::LeafSpine { .. } => "leaf-spine",
        recloud::topology::TopologyKind::Jellyfish { .. } => "Jellyfish (random regular graph)",
        recloud::topology::TopologyKind::Custom => "custom (builder / BCube / VL2)",
    }
}

/// The app and round count the flags describe, with the app's label.
fn build_spec(p: &Parsed) -> Result<(String, ApplicationSpec, usize), CliError> {
    let (k, n, rounds) = (p.u32_or("k", 4)?, p.u32_or("n", 5)?, p.usize_or("rounds", 10_000)?);
    check_shape(k, n, rounds).map_err(CliError::Invalid)?;
    let layers = p.usize_opt("layers")?;
    let label = match layers {
        Some(0) => return Err(CliError::Invalid("--layers must be at least 1".into())),
        Some(l) => format!("{l}-layer app, {k}-of-{n} per layer"),
        None => format!("{k}-of-{n} redundancy"),
    };
    Ok((label, spec_for(k, n, layers.unwrap_or(1)), rounds))
}

/// The plan `--hosts` names, or one drawn at random under `seed`.
fn plan_from_flags(
    p: &Parsed,
    topology: &Topology,
    spec: &ApplicationSpec,
    seed: u64,
) -> Result<DeploymentPlan, CliError> {
    let Some(ids) = p.usize_list("hosts")? else {
        check_fits(topology, spec).map_err(CliError::Invalid)?;
        return Ok(DeploymentPlan::random(spec, topology.hosts(), &mut Rng::new(seed)));
    };
    if ids.len() != spec.total_instances() {
        return Err(CliError::Invalid(format!(
            "--hosts needs exactly {} ids (got {})",
            spec.total_instances(),
            ids.len()
        )));
    }
    let ids = ids
        .into_iter()
        .map(u32::try_from)
        .collect::<Result<Vec<u32>, _>>()
        .map_err(|_| CliError::Invalid("--hosts ids must fit in 32 bits".into()))?;
    // spec_for gives every layer the same instance count.
    let assignments: Vec<Vec<u32>> =
        ids.chunks(spec.components()[0].instances as usize).map(<[u32]>::to_vec).collect();
    let plan = build_plan(spec, &assignments).map_err(CliError::Invalid)?;
    check_hosts(topology, &assignments).map_err(CliError::Invalid)?;
    Ok(plan)
}

fn describe_plan(topology: &Topology, plan: &DeploymentPlan, out: &mut String) {
    for c in 0..plan.num_components() {
        for (i, &h) in plan.hosts_of(c).iter().enumerate() {
            let power = topology
                .power_of(h)
                .map(|s| topology.component(s).name())
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "  component {c} instance {i}: {h} (rack {}, pod {}, power {power})",
                topology.component(topology.rack_of(h)).name(),
                topology.pod_of(h),
            );
        }
    }
}

/// `recloud topo`.
pub fn topo(p: &Parsed) -> Result<String, CliError> {
    let t = build_topology(p)?;
    let mut out = String::new();
    let _ = writeln!(out, "topology: {}", topology_name(&t));
    let _ = writeln!(
        out,
        "  {} hosts, {} switches, {} border switches, {} power supplies",
        t.num_hosts(),
        t.num_switches(),
        t.border_switches().len(),
        t.power_supplies().len()
    );
    let _ =
        writeln!(out, "  {} components total, {} links", t.num_components(), t.graph().num_edges());
    Ok(out)
}

/// `recloud assess`.
pub fn assess(p: &Parsed) -> Result<String, CliError> {
    if p.get("addr").is_some() {
        return assess_remote(p);
    }
    let (label, spec, rounds) = build_spec(p)?;
    let kind =
        if p.has("monte-carlo") { SamplerKind::MonteCarlo } else { SamplerKind::ExtendedDagger };
    let (t, mut engine, seed) = paper_engine(p, kind)?;
    let plan = plan_from_flags(p, &t, &spec, seed)?;
    let assessor = engine.at(seed);
    let mut out = String::new();
    let _ = writeln!(out, "app: {label}");
    describe_plan(&t, &plan, &mut out);
    let a = if p.has("stream") {
        // Streamed drive: same chunk layout and totals as the plain call
        // (the estimate is a pure function of the accumulated counts), so
        // a run-to-completion stream prints the identical final line.
        let cadence = p.usize_or("cadence", 4)?.max(1);
        let target = p.f64_opt("target-ciw")?;
        if let Some(ciw) = target {
            if ciw.is_nan() || ciw <= 0.0 {
                return Err(CliError::Invalid("--target-ciw must be a positive width".into()));
            }
        }
        let mut fed = 0usize;
        let driven = assessor.drive(&spec, &plan, rounds, seed, target, &mut |partial| {
            fed += 1;
            if fed.is_multiple_of(cadence)
                || partial.stop_hint
                || partial.rounds_done == partial.rounds_total
            {
                let _ = writeln!(
                    out,
                    "  chunk {:>4}/{}: {:>9}/{} rounds  R {:.5}  CIW {:.2e}",
                    partial.chunk + 1,
                    partial.chunks_total,
                    partial.rounds_done,
                    partial.rounds_total,
                    partial.r,
                    partial.ciw
                );
            }
            std::ops::ControlFlow::Continue(())
        });
        if !driven.completed {
            let _ = writeln!(
                out,
                "stopped early: CIW target {:.2e} reached after {} of {rounds} rounds",
                target.expect("early stop implies a target"),
                driven.assessment.estimate.rounds
            );
        }
        driven.assessment
    } else {
        assessor.assess(&spec, &plan, rounds, seed)
    };
    let _ = writeln!(
        out,
        "reliability {:.5} (95% CI width {:.2e}) over {} rounds [{} sampler]",
        a.estimate.score,
        a.estimate.ciw95(),
        a.estimate.rounds,
        a.sampler
    );
    let _ = writeln!(
        out,
        "implied annual downtime: {}; assessed in {:?}",
        downtime(&a.estimate),
        a.timings.total
    );
    Ok(out)
}

/// The annual downtime an estimate implies, in hours. With no failed round
/// the point estimate is 0, which no finite sample shows: the exact
/// one-sided 95 % upper bound on the failure rate, 1 − 0.05^(1/n), is
/// printed instead — about 3/n of a year (the rule of three) at large n,
/// and short of the whole year at any n.
fn downtime(e: &ReliabilityEstimate) -> String {
    if e.successes < e.rounds {
        return format!("{:.1} hours", e.annual_downtime_hours());
    }
    let hours = (1.0 - 0.05f64.powf(1.0 / e.rounds as f64)) * 365.25 * 24.0;
    format!("at most {hours:.1} hours (95% upper bound: no failed round in {})", e.rounds)
}

/// `recloud search [--workers N] [--stream] [--iters I]` — the
/// population-based parallel annealer, in process; one chain (the
/// default) is the paper's sequential search. `--iters` gives every chain
/// a deterministic iteration budget (the answer becomes a pure function of
/// seed/workers/iters); without it every chain runs the wall-clock
/// `--budget-ms`. `--stream` renders each chain's best-plan improvements
/// as trajectory lines.
pub fn search(p: &Parsed) -> Result<String, CliError> {
    use recloud::search::{
        ChainEvent, HolisticObjective, Objective, ParallelSearchConfig, ParallelSearcher,
        ReliabilityObjective, SearchBudget, SearchConfig,
    };
    if p.get("addr").is_some() {
        return search_remote(p);
    }
    let workers = p.usize_or("workers", 1)?;
    if workers == 0 {
        return Err(CliError::Invalid("--workers must be at least 1".into()));
    }
    let iters = p.usize_or("iters", 0)?;
    let (label, spec, rounds) = build_spec(p)?;
    let budget = if iters > 0 {
        SearchBudget::Iterations(iters)
    } else {
        SearchBudget::WallClock(Duration::from_millis(p.u64_or("budget-ms", 2_000)?))
    };
    let rules = if p.has("distinct-racks") {
        PlacementRules::distinct_racks()
    } else {
        PlacementRules::none()
    };
    let (t, mut engine, seed) = paper_engine(p, SamplerKind::ExtendedDagger)?;
    check_fits(&t, &spec).map_err(CliError::Invalid)?;
    let base = SearchConfig { budget, rounds, rules, ..SearchConfig::paper_default(seed) };
    let mut config = ParallelSearchConfig::new(workers, base);
    config.exchange_every = p.usize_or("exchange-every", config.exchange_every)?;
    let workload = p.has("multi-objective").then(|| WorkloadMap::paper_default(&t, seed));
    let objective: Box<dyn Objective + Sync> = match &workload {
        Some(w) => Box::new(HolisticObjective::new(0.5, 0.5, w.clone())),
        None => Box::new(ReliabilityObjective),
    };
    let searcher = ParallelSearcher::new(&t, engine.at(seed).model().clone());

    let events: std::sync::Mutex<Vec<ChainEvent>> = std::sync::Mutex::new(Vec::new());
    let sink = |e: ChainEvent| events.lock().unwrap().push(e);
    let on_event: Option<&(dyn Fn(ChainEvent) + Sync)> =
        if p.has("stream") { Some(&sink) } else { None };
    let outcome = searcher.search(&spec, objective.as_ref(), &config, workload.as_ref(), on_event);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "app: {label}{}; {workers} annealing chains (exchange every {} ticks)",
        if p.has("multi-objective") { " (holistic objective)" } else { "" },
        config.exchange_every,
    );
    if p.has("stream") {
        let mut events = events.into_inner().unwrap();
        events.sort_by_key(|e| (e.chain, e.iteration));
        for e in &events {
            let _ = writeln!(
                out,
                "  [chain {}] iter {:>6}  M {:.5}  R {:.5}  T {:.3}",
                e.chain, e.iteration, e.measure, e.reliability, e.temperature
            );
        }
    }
    let best = &outcome.best;
    if best.best_plan.num_components() > 1 {
        describe_plan(&t, &best.best_plan, &mut out);
    } else {
        for (i, &h) in best.best_plan.hosts_of(0).iter().enumerate() {
            let _ = writeln!(out, "  instance {i}: {h} (pod {})", t.pod_of(h));
        }
    }
    let _ = writeln!(
        out,
        "reliability {:.5} (± {:.1e}); chain {} won",
        best.best_reliability,
        best.best_ciw95 / 2.0,
        outcome.winner
    );
    let _ = writeln!(
        out,
        "{} plans explored across {} chains in {:?}; power diversity {}/{}",
        outcome.combined.plans_assessed,
        workers,
        outcome.elapsed,
        power_diversity(&t, &best.best_plan),
        t.power_supplies().len()
    );
    Ok(out)
}

/// `recloud search --addr HOST:PORT [--stream]` — run the parallel search
/// on a live daemon over RCS1 `SearchStream`, rendering `SearchEvent`
/// frames as they arrive.
fn search_remote(p: &Parsed) -> Result<String, CliError> {
    use recloud_server::protocol::SearchRequest;
    let addr = p.str_or("addr", "127.0.0.1:7070");
    let (preset, scale) = (preset(p)?, p.str_or("scale", "tiny"));
    let workers = p.u32_or("workers", 2)?;
    let iters = p.u32_or("iters", 0)?;
    let request = SearchRequest {
        preset,
        rounds: p.u32_or("rounds", 10_000)?,
        seed: p.u64_or("seed", 1)?,
        k: p.u32_or("k", 4)?,
        n: p.u32_or("n", 5)?,
        budget_ms: p.u32_or("budget-ms", 2_000)?,
    };
    let mut client = connect(&addr, Duration::from_secs(300))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "app: {}-of-{} on {scale} preset at {addr}; {workers} chains",
        request.k, request.n
    );
    let stream = p.has("stream");
    let mut improvements = 0u64;
    let resp = client
        .search_streaming(request, workers, iters, |e| {
            improvements += 1;
            if stream {
                let _ = writeln!(
                    out,
                    "  [chain {}] iter {:>6}  M {:.5}  R {:.5}  T {:.3}",
                    e.chain, e.iteration, e.measure, e.reliability, e.temperature
                );
            }
        })
        .map_err(|e| CliError::Invalid(format!("search stream: {e}")))?;
    let _ = writeln!(out, "  hosts: {:?}", resp.hosts);
    let _ = writeln!(
        out,
        "reliability {:.5} (± {:.1e}); {} plans explored, {improvements} streamed improvements",
        resp.reliability,
        resp.ciw95 / 2.0,
        resp.plans_assessed
    );
    Ok(out)
}

/// `recloud assess --addr HOST:PORT [--stream]` — run the assessment on
/// a live daemon over RCS1, with end-to-end tracing: the connection is
/// armed with a `TraceContext` frame before the request so the server
/// records its work (queue wait, cache lookup, worker execution,
/// per-chunk kernel spans, store append) under this client's root span,
/// and the client's own spans (connect, request, one per streamed
/// Partial) are shipped back with `TraceUpload` afterwards — one causal
/// tree, fetchable with `recloud trace`.
fn assess_remote(p: &Parsed) -> Result<String, CliError> {
    use recloud_obs::trace::{self, CLIENT_ID_BASE};
    use recloud_server::protocol::{AssessRequest, TraceSpan};
    let addr = p.str_or("addr", "127.0.0.1:7070");
    let (preset, scale) = (preset(p)?, p.str_or("scale", "tiny"));
    let (k, n, rounds) = (p.u32_or("k", 4)?, p.u32_or("n", 5)?, p.u32_or("rounds", 10_000)?);
    check_shape(k, n, rounds as usize).map_err(CliError::Invalid)?;
    // The plan is the preset's first n hosts.
    let topology = preset.scale().build();
    check_fits(&topology, &spec_for(k, n, 1)).map_err(CliError::Invalid)?;
    let hosts = topology.hosts()[..n as usize].iter().map(|h| h.index() as u32).collect();
    let request = AssessRequest {
        preset,
        rounds,
        seed: p.u64_or("seed", 1)?,
        k,
        n,
        assignments: vec![hosts],
    };

    // Client-originated spans join the server's via the shared trace id;
    // ids allocated from CLIENT_ID_BASE cannot collide with the server's
    // (base 0). `| 1` keeps clear of the reserved id 0.
    let tracer = recloud_obs::tracer();
    let trace_id = trace::now_us() | 1;
    tracer.begin(trace_id, CLIENT_ID_BASE);
    let root = tracer.start(trace_id, 0, "client.request");

    let connect_start = trace::now_us();
    let mut client = connect(&addr, Duration::from_secs(300))?;
    tracer.record(trace_id, root, "client.connect", (connect_start, trace::now_us()), (0, 0));
    client.set_trace(trace_id, root).map_err(|e| CliError::Invalid(format!("arm trace: {e}")))?;

    let mut out = String::new();
    let _ = writeln!(out, "app: {k}-of-{n} on {scale} preset at {addr}");
    let a = if p.has("stream") {
        let cadence = p.u32_or("cadence", 4)?.max(1);
        let mut partials = 0u64;
        let (a, _stopped) = client
            .assess_streaming(request, cadence, |partial| {
                partials += 1;
                let at = trace::now_us();
                let tags = (partial.rounds_done, partials);
                tracer.record(trace_id, root, "client.partial", (at, at), tags);
                let _ = writeln!(
                    out,
                    "  partial {:>3}: {:>9}/{} rounds  R {:.5}  CIW {:.2e}",
                    partials, partial.rounds_done, partial.rounds_total, partial.score, partial.ciw
                );
                std::ops::ControlFlow::Continue(())
            })
            .map_err(|e| CliError::Invalid(format!("assess stream: {e}")))?;
        a
    } else {
        client.assess(request).map_err(|e| CliError::Invalid(format!("assess: {e}")))?
    };
    tracer.end(trace_id, root);

    // Ship the client's side of the tree; the server absorbs it into the
    // trace (its own side already finished when the reply was sent).
    if let Some((spans, _dropped)) = tracer.spans(trace_id) {
        let wire: Vec<TraceSpan> = spans
            .iter()
            .map(|s| TraceSpan {
                id: s.id,
                parent: s.parent,
                kind: s.kind.to_string(),
                start_us: s.start_us,
                end_us: s.end_us,
                v0: s.v0,
                v1: s.v1,
            })
            .collect();
        let _ = client.trace_upload(trace_id, wire);
    }

    let _ = writeln!(
        out,
        "reliability {:.5} (95% CI width {:.2e}) over {} rounds{}",
        a.score,
        4.0 * a.variance.sqrt(),
        a.rounds,
        if a.cached { " [cached]" } else { "" }
    );
    let _ = writeln!(out, "trace {trace_id}; fetch: recloud trace --addr {addr} --id {trace_id}");
    Ok(out)
}

/// `recloud trace [--addr HOST:PORT] [--id X] [--chrome out.json]` —
/// fetch an assembled span tree from a live daemon and render it.
/// `--id 0` (the default) asks for the most recently finished trace;
/// `--chrome` additionally writes Chrome trace-event JSON (load in
/// `chrome://tracing` or ui.perfetto.dev).
pub fn trace(p: &Parsed) -> Result<String, CliError> {
    let addr = p.str_or("addr", "127.0.0.1:7070");
    let id = p.u64_or("id", 0)?;
    let mut client = connect(&addr, Duration::from_secs(30))?;
    let t = client.trace_dump(id).map_err(|e| CliError::Invalid(format!("trace dump: {e}")))?;
    if t.trace_id == 0 {
        return Err(CliError::Invalid(if id == 0 {
            "no finished trace on the server yet (run e.g. `recloud assess --addr … --stream` first)"
                .into()
        } else {
            format!("trace {id} not found on the server (evicted or never recorded)")
        }));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {}: {} spans{}",
        t.trace_id,
        t.spans.len(),
        if t.dropped > 0 { format!(" ({} dropped)", t.dropped) } else { String::new() }
    );
    render_span_tree(&t.spans, &mut out);
    if let Some(path) = p.get("chrome") {
        let json = chrome_trace_json(&t.spans);
        std::fs::write(path, &json).map_err(|e| CliError::Invalid(format!("write {path}: {e}")))?;
        let _ = writeln!(out, "chrome trace written to {path}");
    }
    Ok(out)
}

/// Renders spans as an indented forest ordered by start time, offsets
/// relative to the earliest span. Spans whose parent is absent (dropped
/// past capacity, or a mid-trace dump) surface as extra roots rather
/// than disappearing.
fn render_span_tree(spans: &[recloud_server::TraceSpan], out: &mut String) {
    use std::collections::{HashMap, HashSet};
    let ids: HashSet<u32> = spans.iter().map(|s| s.id).collect();
    let mut children: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 && ids.contains(&s.parent) {
            children.entry(s.parent).or_default().push(i);
        } else {
            roots.push(i);
        }
    }
    let by_start = |&i: &usize| (spans[i].start_us, spans[i].id);
    roots.sort_by_key(by_start);
    for v in children.values_mut() {
        v.sort_by_key(by_start);
    }
    let base = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
    // Depth-first with an explicit stack; children pushed in reverse so
    // the earliest-started child prints first.
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
    while let Some((i, depth)) = stack.pop() {
        let s = &spans[i];
        let dur = if s.end_us == 0 {
            "open".to_string()
        } else {
            format!("{} us", s.end_us.saturating_sub(s.start_us))
        };
        let tags = if s.v0 != 0 || s.v1 != 0 {
            format!("  [v0={} v1={}]", s.v0, s.v1)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  {:indent$}{:<16} +{} us  {}{}",
            "",
            s.kind,
            s.start_us.saturating_sub(base),
            dur,
            tags,
            indent = depth * 2
        );
        if let Some(kids) = children.get(&s.id) {
            for &k in kids.iter().rev() {
                stack.push((k, depth + 1));
            }
        }
    }
}

/// Chrome trace-event JSON: one "X" (complete) event per span with
/// microsecond timestamps relative to the earliest span, client spans on
/// tid 2 and server spans on tid 1, span ids and tags in `args`.
fn chrome_trace_json(spans: &[recloud_server::TraceSpan]) -> String {
    use recloud_obs::trace::CLIENT_ID_BASE;
    let base = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let end = if s.end_us == 0 { s.start_us } else { s.end_us };
        let tid = if s.id >= CLIENT_ID_BASE { 2 } else { 1 };
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"recloud\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
             \"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{},\"v0\":{},\"v1\":{}}}}}",
            json_quote(&s.kind),
            s.start_us.saturating_sub(base),
            end.saturating_sub(s.start_us).max(1),
            s.id,
            s.parent,
            s.v0,
            s.v1
        );
    }
    out.push_str("]}");
    out
}

/// Minimal JSON string quoting for span kinds (matches the repo's other
/// hand-rolled JSON emitters).
fn json_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `recloud compare`.
pub fn compare(p: &Parsed) -> Result<String, CliError> {
    let n_candidates = p.usize_or("candidates", 4)?;
    if n_candidates == 0 {
        return Err(CliError::Invalid("--candidates must be at least 1".into()));
    }
    let (label, spec, rounds) = build_spec(p)?;
    let (t, mut engine, seed) = paper_engine(p, SamplerKind::ExtendedDagger)?;
    check_fits(&t, &spec).map_err(CliError::Invalid)?;
    let mut rng = Rng::new(seed);
    let plans: Vec<DeploymentPlan> =
        (0..n_candidates).map(|_| DeploymentPlan::random(&spec, t.hosts(), &mut rng)).collect();
    let cmp = compare_plans(engine.at(seed), &spec, &plans, rounds, seed);
    let mut out = String::new();
    let _ = writeln!(out, "app: {label}; ranking {n_candidates} candidate plans:");
    let _ = writeln!(out, "  rank  plan  reliability      ciw95  tied-with-best");
    for (rank, r) in cmp.ranking.iter().enumerate() {
        let _ = writeln!(
            out,
            "  #{:<4} {:>4}  {:>10.5}  {:>9.2e}  {}",
            rank + 1,
            r.input_index,
            r.assessment.estimate.score,
            r.assessment.estimate.ciw95(),
            if r.tied_with_best { "yes" } else { "no" }
        );
    }
    let winners = cmp.statistical_winners();
    let _ = writeln!(
        out,
        "statistically indistinguishable winners: {winners:?} (95% intervals overlap)"
    );
    Ok(out)
}

/// `recloud whatif`.
pub fn whatif(p: &Parsed) -> Result<String, CliError> {
    let (label, spec, _) = build_spec(p)?;
    let (t, mut engine, seed) = paper_engine(p, SamplerKind::ExtendedDagger)?;
    let plan = plan_from_flags(p, &t, &spec, seed)?;
    let model = engine.at(seed).model();

    // Parse --fail kind:ordinal[,...].
    let fail_spec = p
        .get("fail")
        .ok_or_else(|| CliError::Invalid("whatif needs --fail <kind:ordinal>[,...]".into()))?;
    let mut injector = FaultInjector::new();
    let mut names = Vec::new();
    for item in fail_spec.split(',') {
        let (kind, ord) = item.split_once(':').ok_or_else(|| CliError::BadValue {
            flag: "fail".into(),
            value: item.into(),
            expected: "kind:ordinal (e.g. power:0)",
        })?;
        let ord: u32 = ord.parse().map_err(|_| CliError::BadValue {
            flag: "fail".into(),
            value: item.into(),
            expected: "kind:ordinal with integer ordinal",
        })?;
        let found = t
            .components()
            .iter()
            .find(|c| c.kind.tag() == kind && c.ordinal == ord)
            .ok_or_else(|| CliError::Invalid(format!("no component '{kind}{ord}'")))?;
        injector.fail(found.id);
        names.push(found.name());
    }

    // One injected round through the full pipeline.
    let mut raw = recloud::sampling::BitMatrix::new(model.num_events(), 1);
    injector.apply(&mut raw);
    let mut collapsed = recloud::sampling::BitMatrix::new(model.num_topology_components(), 1);
    model.collapse_into(&raw, &mut collapsed);
    let mut router = recloud::routing::make_router(&t);
    router.begin_round(&collapsed, 0);
    let mut checker = recloud::assess::StructureChecker::new(&spec, &plan);
    let survives = checker.round_reliable(router.as_mut(), &collapsed, 0);

    let dead_hosts = t.hosts().iter().filter(|h| collapsed.get(h.index(), 0)).count();
    let mut alive_instances = 0usize;
    let mut total = 0usize;
    for c in 0..plan.num_components() {
        for &h in plan.hosts_of(c) {
            total += 1;
            if router.external_reaches(&collapsed, h) {
                alive_instances += 1;
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "app: {label}");
    let _ = writeln!(out, "forced failed: {}", names.join(", "));
    let _ = writeln!(
        out,
        "blast radius: {dead_hosts} of {} hosts down (incl. correlated failures)",
        t.num_hosts()
    );
    let _ = writeln!(out, "plan instances still border-reachable: {alive_instances}/{total}");
    let _ = writeln!(
        out,
        "verdict: the plan {} this failure scenario",
        if survives { "SURVIVES" } else { "DOES NOT SURVIVE" }
    );
    Ok(out)
}

/// `recloud sensitivity`: conditional reliability per power supply.
pub fn sensitivity(p: &Parsed) -> Result<String, CliError> {
    let (label, spec, rounds) = build_spec(p)?;
    let (t, mut engine, seed) = paper_engine(p, SamplerKind::ExtendedDagger)?;
    let plan = plan_from_flags(p, &t, &spec, seed)?;
    let report = recloud::assess::dependency_sensitivity(
        engine.at(seed),
        &spec,
        &plan,
        t.power_supplies(),
        rounds,
        seed,
    );
    let mut out = String::new();
    let _ = writeln!(out, "app: {label}; baseline reliability {:.5}", report.baseline);
    let _ = writeln!(out, "  event     R | event down   blast radius");
    for r in &report.rows {
        let name = t.component(r.event).name();
        let _ = writeln!(
            out,
            "  {name:<8}        {:>8.5}   {:>12}",
            r.conditional_reliability, r.blast_radius
        );
    }
    let critical = report.critical_events();
    if critical.is_empty() {
        let _ = writeln!(out, "no single dependency takes the plan below 50% reliability");
    } else {
        let names: Vec<String> = critical.iter().map(|&c| t.component(c).name()).collect();
        let _ = writeln!(out, "CRITICAL single points of catastrophe: {}", names.join(", "));
    }
    Ok(out)
}

/// `recloud blast`: blast radius of every shared dependency.
pub fn blast(p: &Parsed) -> Result<String, CliError> {
    let (t, mut engine, seed) = paper_engine(p, SamplerKind::ExtendedDagger)?;
    let model = engine.at(seed).model();
    let mut out = String::new();
    let _ = writeln!(out, "blast radius per power supply (components failing together):");
    for &supply in t.power_supplies() {
        let radius = model.blast_radius(supply);
        let hosts = radius.iter().filter(|c| t.component(**c).kind == ComponentKind::Host).count();
        let switches = radius.iter().filter(|c| t.component(**c).kind.is_switch()).count();
        let _ = writeln!(
            out,
            "  {:<8} {:>6} components ({hosts} hosts, {switches} switches)",
            t.component(supply).name(),
            radius.len()
        );
    }
    Ok(out)
}

/// `recloud dot`: Graphviz export of the topology.
pub fn dot(p: &Parsed) -> Result<String, CliError> {
    let t = build_topology(p)?;
    let opts = recloud::topology::DotOptions {
        switches_only: p.has("switches-only"),
        ..Default::default()
    };
    Ok(recloud::topology::to_dot(&t, &opts))
}

/// `recloud availability`: continuous-time renewal simulation of a plan.
pub fn availability(p: &Parsed) -> Result<String, CliError> {
    let years = p.usize_or("years", 50)?;
    if years == 0 {
        return Err(CliError::Invalid("--years must be at least 1".into()));
    }
    let mttr: f64 = p.f64_opt("mttr-hours")?.unwrap_or(8.0);
    let (label, spec, _) = build_spec(p)?;
    let (t, mut engine, seed) = paper_engine(p, SamplerKind::ExtendedDagger)?;
    let plan = plan_from_flags(p, &t, &spec, seed)?;

    // Static assessment for comparison.
    let assessor = engine.at(seed);
    let stat = assessor.assess(&spec, &plan, 50_000, seed);

    let sim = recloud_availsim::AvailabilitySimulator::new(&t, assessor.model().clone(), mttr);
    let report = sim.simulate(
        &spec,
        &plan,
        recloud_availsim::SimParams { horizon_hours: years as f64 * 8766.0, seed },
    );
    let mut out = String::new();
    let _ = writeln!(out, "app: {label}; {years} simulated years, MTTR {mttr} h");
    let _ = writeln!(
        out,
        "static reliability score:  {:.5} (sampled, ± {:.1e})",
        stat.estimate.score,
        stat.estimate.ciw95() / 2.0
    );
    let _ = writeln!(out, "dynamic availability:      {:.5}", report.availability());
    let _ = writeln!(
        out,
        "outages: {} total ({:.2}/year), mean {:.1} h, max {:.1} h",
        report.outages,
        report.outages_per_year(),
        report.mean_outage_hours(),
        report.max_outage_hours()
    );
    let _ = writeln!(
        out,
        "annual downtime: {:.1} h (static model implies {:.1} h)",
        report.annual_downtime_hours(),
        stat.estimate.annual_downtime_hours()
    );
    Ok(out)
}

/// `recloud serve` — run the placement-as-a-service daemon until a
/// `Shutdown` frame arrives. The listening line is printed *eagerly* (and
/// optionally mirrored into `--port-file`) so scripts can discover an
/// ephemeral port before the call blocks.
pub fn serve(p: &Parsed) -> Result<String, CliError> {
    use recloud_server::{Server, ServerConfig};
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        workers: p.usize_or("workers", defaults.workers)?,
        queue_capacity: p.usize_or("queue", defaults.queue_capacity)?,
        cache_capacity: p.usize_or("cache", defaults.cache_capacity)?,
        store_dir: p.get("store").map(std::path::PathBuf::from),
        tenant_budget: p.usize_opt("tenant-budget")?,
        ..defaults
    };
    if config.workers == 0 {
        return Err(CliError::Invalid("--workers must be at least 1".into()));
    }
    let port = p.u16_or("port", 7070)?;
    let server = Server::bind(("127.0.0.1", port), config)
        .map_err(|e| CliError::Invalid(format!("bind failed: {e}")))?;
    let addr = server.local_addr();
    println!("recloud-server listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = p.get("port-file") {
        std::fs::write(path, addr.port().to_string())
            .map_err(|e| CliError::Invalid(format!("cannot write --port-file: {e}")))?;
    }
    let s = server.run();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "served {} requests: {} completed, {} cache hits / {} misses",
        s.received, s.completed, s.cache_hits, s.cache_misses
    );
    let _ = writeln!(
        out,
        "rejected {} as busy, dropped {} protocol offenders",
        s.busy_rejections, s.protocol_errors
    );
    Ok(out)
}

/// `recloud stats` — fetch a running daemon's instrument snapshot via a
/// `MetricsDump` frame and render it (or dump raw JSON with `--json`).
pub fn stats(p: &Parsed) -> Result<String, CliError> {
    let addr = p.str_or("addr", "127.0.0.1:7070");
    let mut client = connect(&addr, Duration::from_secs(30))?;
    let m = client.metrics(0).map_err(|e| CliError::Invalid(format!("metrics dump: {e}")))?;
    if p.has("json") {
        return Ok(format!("{}\n", m.snapshot.to_json()));
    }
    let s = &m.snapshot;
    let mut out = String::new();
    let _ = writeln!(out, "instruments of {addr}:");
    let _ = writeln!(out, "  requests: {}", s.counter("server.requests_total").unwrap_or(0));
    let _ = writeln!(out, "  latency per request kind (us):");
    for (name, h) in &s.histograms {
        let Some(kind) = name.strip_prefix("server.latency_us.") else { continue };
        if h.count == 0 {
            let _ = writeln!(out, "    {kind:<8} (no requests)");
        } else {
            let _ = writeln!(
                out,
                "    {kind:<8} n={} p50={} p90={} p99={} max={}",
                h.count,
                h.p50(),
                h.p90(),
                h.p99(),
                h.max
            );
        }
    }
    let _ = writeln!(out, "  queue depth: {}", s.gauge("server.queue_depth").unwrap_or(0));
    let hits = s.counter("server.cache_hits_total").unwrap_or(0);
    let misses = s.counter("server.cache_misses_total").unwrap_or(0);
    let rate = if hits + misses > 0 { hits as f64 / (hits + misses) as f64 } else { 0.0 };
    let _ = writeln!(
        out,
        "  cache: {hits} hits / {misses} misses (hit rate {:.1}%), {} evictions",
        rate * 100.0,
        s.counter("server.cache_evictions_total").unwrap_or(0)
    );
    let _ = writeln!(out, "  cache bytes: {} resident", s.gauge("server.cache_bytes").unwrap_or(0));
    if s.counter("store.appended_total").is_some() {
        let _ = writeln!(
            out,
            "  store: {} appended, {} replayed, {} bytes on disk",
            s.counter("store.appended_total").unwrap_or(0),
            s.counter("store.replayed_total").unwrap_or(0),
            s.gauge("store.bytes").unwrap_or(0)
        );
    }
    let _ = writeln!(
        out,
        "  busy rejections: {}, decode errors: {}",
        s.counter("server.busy_total").unwrap_or(0),
        s.counter("server.decode_errors_total").unwrap_or(0)
    );
    if let Some(assessments) = s.counter("assess.assessments_total") {
        // What an assessment cost the engines, in the counts DESIGN.md
        // ("Table-keyed routing digests") reads a slow search from.
        let count = |name: &str| s.counter(name).unwrap_or(0);
        let _ = writeln!(
            out,
            "  engine: {assessments} assessments, {} reseeds; built {} table rows, {} digests, \
             {} reach rows; newest table {} slots ({} evictions), arena {} bytes \
             resident (table rows written + router memo), model {} bytes",
            count("assess.reseeds_total"),
            count("assess.rows_materialised_total"),
            count("assess.digests_built_total"),
            count("assess.reach_rows_built_total"),
            s.gauge("assess.table_slots").unwrap_or(0),
            count("assess.slot_evictions_total"),
            s.gauge("assess.arena_bytes").unwrap_or(0),
            s.gauge("assess.model_bytes").unwrap_or(0)
        );
    }
    if let Some(h) = s.histogram("search.holdout_us") {
        // What the held-out re-ranking costs a search, and how often it
        // answers with another plan than the in-sample best.
        let _ = writeln!(
            out,
            "  search: {} held-out re-rankings, p50={} p99={} max={} us; {} answered with \
             a plan other than the in-sample best",
            h.count,
            h.p50(),
            h.p99(),
            h.max,
            s.counter("search.holdout_switched_total").unwrap_or(0)
        );
    }
    let extra: Vec<&str> = s
        .counters
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| !n.starts_with("server.") && !n.starts_with("store."))
        .collect();
    if !extra.is_empty() {
        let _ = writeln!(out, "  non-server counters: {}", extra.join(", "));
    }
    Ok(out)
}

/// `recloud journal` — fetch the newest `--tail N` journal events from a
/// running daemon and print them as JSON lines.
pub fn journal(p: &Parsed) -> Result<String, CliError> {
    let addr = p.str_or("addr", "127.0.0.1:7070");
    let tail = p.u32_or("tail", 64)?;
    let mut client = connect(&addr, Duration::from_secs(30))?;
    let m = client.metrics(tail).map_err(|e| CliError::Invalid(format!("metrics dump: {e}")))?;
    let mut out = String::new();
    for event in &m.events {
        out.push_str(&event.to_json_line());
        out.push('\n');
    }
    if m.events.is_empty() {
        out.push_str("(journal is empty)\n");
    }
    Ok(out)
}

/// `recloud loadgen` — throw assessment load (or the CI smoke sequence)
/// at a running daemon.
pub fn loadgen(p: &Parsed) -> Result<String, CliError> {
    use recloud_server::{run_load, LoadgenConfig};
    let addr = p.str_or("addr", "127.0.0.1:7070");
    if p.has("smoke") {
        // The stream smoke leaves the daemon running (so it can precede
        // the plain smoke, whose last step is a clean Shutdown).
        if p.has("stream") {
            // --connections turns it into the fleet gate: that many
            // persistent connections held open at once, with streaming
            // and cache hits proven mid-fleet.
            if p.get("connections").is_some() {
                let connections = p.usize_or("connections", 1_000)?;
                recloud_server::smoke_fleet(&addr, connections).map_err(CliError::Invalid)?;
                return Ok(format!(
                    "fleet smoke OK against {addr} ({connections} concurrent connections)\n"
                ));
            }
            recloud_server::smoke_stream(&addr).map_err(CliError::Invalid)?;
            return Ok(format!("stream smoke OK against {addr}\n"));
        }
        recloud_server::smoke(&addr).map_err(CliError::Invalid)?;
        return Ok(format!("smoke OK against {addr}\n"));
    }
    let config = LoadgenConfig {
        addr,
        requests: p.usize_or("requests", 1_000)?,
        connections: p.usize_or("connections", 4)?,
        preset: preset(p)?,
        rounds: p.u32_or("rounds", 1_000)?,
        seed: p.u64_or("seed", 42)?,
        distinct_seeds: p.has("distinct-seeds"),
        stream: p.has("stream"),
        cadence: p.u32_or("cadence", 1)?,
        tenant: p.get("tenant").map(str::to_string),
    };
    let r = run_load(&config).map_err(|e| CliError::Invalid(format!("loadgen failed: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} ok ({} cached), {} busy, {} errors in {:.2?}",
        r.ok, r.cached, r.busy, r.errors, r.elapsed
    );
    if config.stream {
        let _ = writeln!(
            out,
            "streamed: {} partial frames at cadence {}",
            r.partials,
            config.cadence.max(1)
        );
    }
    let _ = writeln!(
        out,
        "throughput {:.0} req/s, latency p50 {} us / p95 {} us / p99 {} us",
        r.throughput_rps, r.p50_us, r.p95_us, r.p99_us
    );
    Ok(out)
}
