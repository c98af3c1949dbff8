//! The three served workloads. The daemon is `recloud serve` as a child
//! process with one worker; the generator is a closed loop of blocking
//! clients in this process, never more connections than cores.
//!
//! * `serve_tiny_seeds` — every request a new seed: all misses, the
//!   write/evict/append/compact side of cache and store, two clients
//!   queueing on one worker.
//! * `serve_medium_plans` — one data centre (one seed), many tenants'
//!   plans, Zipf over a universe four times the cache: mostly hits, the
//!   misses reuse the assessor's table, so serving overhead dominates.
//! * `stream_medium_long` — long streamed assessments: partial frames,
//!   waker and fan-out; time to first estimate is the point.

use crate::daemon::Daemon;
use crate::gen::{self, Zipf};
use crate::harness::{self, closed_loop, downtime_hours, OpOut, Outcome, Worker};
use crate::layers;
use crate::procfs;
use crate::replay::{self, time_us, Shape};
use crate::spans::{Recorder, Span};
use crate::stats;
use crate::RunCfg;
use recloud_assess::assessment_key;
use recloud_sampling::derive_seed;
use recloud_server::engine::{build_plan, shape_for, spec_for};
use recloud_server::protocol::{
    read_frame, write_frame, AssessRequest, AssessResponse, Preset, Request, Response, TraceSpan,
};
use recloud_server::{Client, EnginePool};
use recloud_store::{Store, StoreConfig};
use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
enum Mix {
    /// One plan, a new seed per request.
    DistinctSeeds,
    /// One seed, plan drawn Zipf(1.0) from the universe.
    ZipfPlans,
    /// `DistinctSeeds` over `AssessStream`, cadence 1.
    Stream,
}

pub struct Kind {
    pub name: &'static str,
    shape: Shape,
    mix: Mix,
    connections: usize,
    /// Result-cache entries the daemon is started with.
    cache: usize,
    warmup: u64,
    /// Recorded answers recomputed in-process after the run.
    recheck: usize,
    /// In the traced pass, one request in this many is armed with the
    /// daemon's own tracing.
    arm_every: u64,
}

pub const KINDS: [Kind; 3] = [
    Kind {
        name: "serve_tiny_seeds",
        shape: Shape { preset: Preset::Tiny, k: 2, n: 3, rounds: 10_000 },
        mix: Mix::DistinctSeeds,
        connections: 2,
        cache: 1_024,
        warmup: 2_000,
        recheck: 64,
        arm_every: 64,
    },
    Kind {
        name: "serve_medium_plans",
        shape: Shape { preset: Preset::Medium, k: 4, n: 5, rounds: 10_000 },
        mix: Mix::ZipfPlans,
        connections: 1,
        cache: 4_096,
        warmup: 8_192,
        recheck: 64,
        arm_every: 64,
    },
    Kind {
        name: "stream_medium_long",
        shape: Shape { preset: Preset::Medium, k: 4, n: 5, rounds: 100_000 },
        mix: Mix::Stream,
        connections: 1,
        // The daemon's default, spelled out so the store check knows it.
        cache: 4_096,
        warmup: 4,
        // A streamed answer costs ten times the rounds of the others.
        recheck: 8,
        arm_every: 4,
    },
];

/// Plans in the `ZipfPlans` universe: four times the result cache.
const UNIVERSE: u64 = 16_384;

/// The pure function from op index to request.
struct Inputs {
    kind: &'static Kind,
    seed: u64,
    /// Wire-form host lists of the fixed plan universe (one plan for the
    /// seed mixes).
    plans: Vec<Vec<Vec<u32>>>,
    zipf: Zipf,
}

impl Inputs {
    fn new(kind: &'static Kind, seed: u64) -> Inputs {
        let topology = kind.shape.preset.scale().build();
        let spec = kind.shape.spec();
        let universe = if kind.mix == Mix::ZipfPlans { UNIVERSE } else { 1 };
        let plans = (0..universe)
            .map(|j| gen::assignments(&gen::universe_plan(&spec, topology.hosts(), j)))
            .collect();
        Inputs { kind, seed, plans, zipf: Zipf::new(universe as usize, 1.0) }
    }

    /// Op `index`'s request and the universe index of its plan.
    fn request(&self, index: u64) -> (AssessRequest, usize) {
        let (plan, seed) = match self.kind.mix {
            Mix::ZipfPlans => (self.zipf.rank(gen::op_unit(self.seed, index)), gen::FIXED_SEED),
            Mix::DistinctSeeds | Mix::Stream => (0, derive_seed(self.seed, index)),
        };
        let shape = self.kind.shape;
        let request = AssessRequest {
            preset: shape.preset,
            rounds: shape.rounds as u32,
            seed,
            k: shape.k,
            n: shape.n,
            assignments: self.plans[plan].clone(),
        };
        (request, plan)
    }
}

/// The fingerprint the daemon files a request under.
fn key_of(req: &AssessRequest) -> u128 {
    let layers = req.assignments.len();
    let plan = build_plan(&spec_for(req.k, req.n, layers), &req.assignments)
        .expect("generated plans have distinct hosts");
    assessment_key(
        req.preset.tag(),
        &shape_for(req.k, req.n, layers),
        &plan,
        req.rounds as u64,
        req.seed,
    )
}

/// Bit-for-bit equality of two answers, the `cached` flag aside.
pub fn same_answer(a: &AssessResponse, b: &AssessResponse) -> bool {
    a.score.to_bits() == b.score.to_bits()
        && a.variance.to_bits() == b.variance.to_bits()
        && a.rounds == b.rounds
        && a.successes == b.successes
}

/// One client connection of the generator.
struct Conn {
    client: Client,
    inputs: Arc<Inputs>,
    /// Every acknowledged answer, by op index.
    acks: Vec<(u64, AssessResponse)>,
    /// First answer seen per plan; every later one must equal it (a cache
    /// hit equals its first miss).
    first: HashMap<usize, AssessResponse>,
    /// Request frames written on this connection.
    frames: u64,
    busy: u64,
}

impl Worker for Conn {
    fn op(&mut self, index: u64) -> OpOut {
        let (request, plan) = self.inputs.request(index);
        self.frames += 1;
        let mut out = OpOut::default();
        let answer = if self.inputs.kind.mix == Mix::Stream {
            let sent = Instant::now();
            let mut arrivals: Vec<f64> = Vec::new();
            let answer = self.client.assess_streaming(request, 1, |_| {
                arrivals.push(sent.elapsed().as_nanos() as f64 / 1e3);
                ControlFlow::Continue(())
            });
            out.first_us = arrivals.first().copied().unwrap_or(0.0);
            out.partials = arrivals.len() as u32;
            let gaps: Vec<f64> = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
            out.gap_us = stats::median(&gaps);
            answer.map(|(a, _)| a)
        } else {
            self.client.assess(request)
        };
        match answer {
            Ok(a) => {
                out.hit = Some(a.cached);
                out.ok = a.rounds == self.inputs.kind.shape.rounds as u64;
                if self.inputs.kind.mix == Mix::ZipfPlans {
                    out.ok &= same_answer(self.first.entry(plan).or_insert(a), &a);
                }
                self.acks.push((index, a));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.busy += 1,
            Err(_) => {}
        }
        out
    }
}

/// A daemon with its warmed-up connections.
struct Served {
    daemon: Daemon,
    conns: Vec<Conn>,
    inputs: Arc<Inputs>,
    /// Frames sent outside `Conn::op` (pings, metrics, trace frames).
    other_frames: u64,
    first_request_us: f64,
}

impl Served {
    /// Spawn → port file → connect → first reply → warm-up: everything
    /// between deciding to serve and the first measured op.
    fn start(kind: &'static Kind, seed: u64) -> io::Result<Served> {
        let cache = kind.cache.to_string();
        let daemon = Daemon::spawn(kind.name, &["--cache", &cache], true)?;
        let inputs = Arc::new(Inputs::new(kind, seed));
        let mut conns = Vec::new();
        for _ in 0..kind.connections {
            conns.push(Conn {
                client: daemon.connect()?,
                inputs: inputs.clone(),
                acks: Vec::new(),
                first: HashMap::new(),
                frames: 0,
                busy: 0,
            });
        }
        conns[0].client.ping(1)?;
        let n = kind.connections as u64;
        let (_, first_request_us) = time_us(|| conns[0].op(0));
        for index in 1..kind.warmup {
            conns[(index % n) as usize].op(index);
        }
        Ok(Served { daemon, conns, inputs, other_frames: 1, first_request_us })
    }

    fn kind(&self) -> &'static Kind {
        self.inputs.kind
    }

    fn acks(&self) -> impl Iterator<Item = &(u64, AssessResponse)> {
        self.conns.iter().flat_map(|c| c.acks.iter())
    }

    /// Pooled downtime of the measured answers (warm-up left out).
    fn downtime_h(&self) -> f64 {
        let warmup = self.kind().warmup;
        let (rounds, successes) = self
            .acks()
            .filter(|(index, _)| *index >= warmup)
            .fold((0, 0), |(r, s), (_, a)| (r + a.rounds, s + a.successes));
        downtime_hours(rounds, successes)
    }

    /// After the measured phase: reconcile the daemon's counters with the
    /// client's tallies, shut it down, replay its store against what was
    /// acknowledged, and recompute a sample of answers in-process.
    fn finish(mut self, out: &mut Outcome) -> io::Result<()> {
        let kind = self.kind();
        let pid = self.daemon.pid();
        let (snapshot, dump_us) = time_us(|| self.conns[0].client.metrics(0));
        let snapshot = snapshot?.snapshot;
        self.other_frames += 1;
        let sent: u64 = self.conns.iter().map(|c| c.frames).sum::<u64>() + self.other_frames;
        let busy: u64 = self.conns.iter().map(|c| c.busy).sum();
        let hits = self.acks().filter(|(_, a)| a.cached).count() as u64;
        let misses = self.acks().count() as u64 - hits;
        let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
        let evictions = counter("server.cache_evictions_total");
        for (name, got, want) in [
            ("server.requests_total", counter("server.requests_total"), sent),
            ("server.cache_hits_total", counter("server.cache_hits_total"), hits),
            ("server.cache_misses_total", counter("server.cache_misses_total"), misses + busy),
            ("server.busy_total", counter("server.busy_total"), busy),
            ("store.appended_total", counter("store.appended_total"), misses + evictions),
            ("server.decode_errors_total", counter("server.decode_errors_total"), 0),
        ] {
            out.check(got == want, || format!("{name}: daemon says {got}, client counted {want}"));
        }
        out.num("obs.metrics_dump_us", dump_us, "us");
        out.num("server.cache.evictions", evictions as f64, "count");
        out.num("server.busy_share", busy as f64 / sent as f64, "share");
        out.num("server.decode_errors", counter("server.decode_errors_total") as f64, "count");
        out.num("server.threads", procfs::thread_count(pid) as f64, "count");
        out.num("server.spawn_ms", self.daemon.spawn_s * 1e3, "ms");
        out.num("server.first_request_us", self.first_request_us, "us");
        out.num("store.compactions", counter("store.compactions_total") as f64, "count");

        self.daemon.shutdown()?;
        let acked: HashMap<u128, AssessResponse> =
            self.acks().map(|(index, a)| (key_of(&self.inputs.request(*index).0), *a)).collect();
        let (opened, replay_us) =
            time_us(|| Store::open(&self.daemon.store_dir(), StoreConfig::default()));
        let (_, recovery) = opened?;
        let live = recovery.live_entries();
        let want_live = acked.len().min(kind.cache);
        out.check(live.len() == want_live, || {
            format!("store replays {} live entries, expected {want_live}", live.len())
        });
        let foreign = live
            .iter()
            .filter(|e| {
                let back = AssessResponse {
                    score: e.score,
                    variance: e.variance,
                    rounds: e.rounds,
                    successes: e.successes,
                    cached: false,
                };
                !acked.get(&e.key).is_some_and(|a| same_answer(a, &back))
            })
            .count();
        out.check(foreign == 0, || {
            format!("{foreign} replayed entries were never acknowledged with those values")
        });
        let ops = recovery.ops.len().max(1) as f64;
        out.num("store.replay_us_per_entry", replay_us / ops, "us");
        let appended_bytes =
            misses * recloud_store::PUT_RECORD_LEN + evictions * recloud_store::EVICT_RECORD_LEN;
        let live_bytes = live.len().max(1) as u64 * recloud_store::PUT_RECORD_LEN;
        out.num("store.write_amp", appended_bytes as f64 / live_bytes as f64, "share");

        // A sample of the measured answers, recomputed the way the CLI
        // would: same request, a fresh engine pool in this process.
        let measured: Vec<&(u64, AssessResponse)> =
            self.acks().filter(|(index, _)| *index >= kind.warmup).collect();
        let stride = (measured.len() / kind.recheck).max(1);
        let mut pool = EnginePool::new();
        let mut engine_us = Vec::new();
        for (index, served) in measured.iter().step_by(stride).take(kind.recheck) {
            let request = self.inputs.request(*index).0;
            let spec = spec_for(request.k, request.n, request.assignments.len());
            let plan = build_plan(&spec, &request.assignments).expect("generated plan");
            let (local, us) = time_us(|| pool.assess(&request, &spec, &plan));
            engine_us.push(us);
            out.check(local.as_ref().is_ok_and(|l| same_answer(l, served)), || {
                format!("op {index}: served {served:?}, in-process {local:?}")
            });
        }
        out.num("server.engine.assess_us", stats::median(&engine_us), "us");
        Ok(())
    }
}

pub fn run(kind: &'static Kind, cfg: &RunCfg) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    match procfs::pin_to_one_cpu() {
        Some(cpu) => eprintln!("generator and daemon share CPU {cpu}"),
        None => eprintln!("warning: could not pin to one CPU; round trips will be bimodal"),
    }
    let traced = cfg.traced;
    let (served, first_setup_us) = time_us(|| Served::start(kind, cfg.seed));
    let mut served = served?;
    let pid = served.daemon.pid();
    let seconds = if traced { cfg.seconds / 4.0 } else { cfg.seconds };
    let phase =
        closed_loop(&mut served.conns, kind.warmup, seconds, &|| procfs::cpu_seconds(Some(pid)));
    if phase.generator_cpu_share >= 0.5 {
        return Err(io::Error::other(format!(
            "the generator took {:.2} of a core: it, not the daemon, set the pace; nothing to report",
            phase.generator_cpu_share
        )));
    }
    if !traced {
        let (peak, downtime) = (procfs::peak_rss_mb(Some(pid)), served.downtime_h());
        served.finish(&mut out)?;
        let mut failed_start = None;
        let setup_s = harness::setup_median(first_setup_us / 1e6, || {
            failed_start = Served::start(kind, cfg.seed).err().or(failed_start.take());
        });
        if let Some(e) = failed_start {
            return Err(e);
        }
        out.end_to_end(&phase, setup_s, peak, downtime);
        return Ok(out);
    }

    out.client_layer(&phase, phase.generator_cpu_share);

    // The traced ops run on one connection; so does their baseline, or a
    // two-connection workload would compare queued with unqueued requests.
    let solo_index = kind.warmup + phase.ops() + kind.connections as u64;
    let solo = closed_loop(&mut served.conns[..1], solo_index, cfg.seconds / 8.0, &|| 0.0);
    out.count(&solo);
    let solo_us = stats::typical(&solo.sorted(|r| Some(r.lat_us)));
    let typical_is_hit =
        solo.records.iter().filter(|r| r.out.hit == Some(true)).count() * 2 > solo.records.len();
    let mut rec = Recorder::new();
    let first_index = solo_index + solo.ops();
    let traced = traced_ops(&mut served, &mut rec, first_index, cfg.seconds / 4.0, &mut out)?;
    out.num("trace.overhead_share", traced.plain_us / solo_us - 1.0, "share");
    out.num("obs.trace_overhead_share", traced.armed_us / traced.plain_us - 1.0, "share");
    out.num("trace.coverage_share", traced.coverage, "share");
    for (name, values) in &traced.daemon_us {
        out.num(name, stats::median(values), "us");
    }

    let requests: Vec<AssessRequest> =
        (0..256).map(|i| served.inputs.request(kind.warmup + i).0).collect();
    let answers: Vec<AssessResponse> = served.acks().take(256).map(|(_, a)| *a).collect();
    let stages = layers::serving_layers(&requests, &answers, kind.cache, &mut out)?;
    let plan = build_plan(&kind.shape.spec(), &requests[0].assignments).expect("generated plan");
    replay::compute_layer_metrics(
        kind.shape,
        requests[0].seed,
        &plan,
        cfg.seed,
        &mut rec,
        &mut out,
    );
    served.finish(&mut out)?;

    // What a round trip spends outside the stages timed in isolation:
    // reactor, queue hop, waker, syscalls, loopback.
    let value = |name: &str| out.metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    let server_side = if typical_is_hit {
        stages.get_hit_us
    } else {
        stages.get_miss_us + stages.insert_us + stages.append_us + value("server.engine.assess_us")
    };
    out.num(
        "server.transport_us",
        solo_us - stages.codec_us - value("assess.fingerprint_ns") / 1e3 - server_side,
        "us",
    );
    cfg.write_trace(&rec);
    Ok(out)
}

struct Traced {
    /// Typical round trip of unarmed and of armed requests, µs.
    plain_us: f64,
    armed_us: f64,
    /// Share of each unarmed request's span its client stages cover.
    coverage: f64,
    /// Durations of the daemon's own spans on armed requests, by metric.
    daemon_us: Vec<(&'static str, Vec<f64>)>,
}

/// The daemon span kinds the benchmark reports, and under which name.
const DAEMON_SPANS: [(&str, &str, Option<&str>); 7] = [
    ("server.request", "server.request", Some("server.request_us")),
    ("queue.wait", "server.queue_wait", Some("server.queue_wait_us")),
    ("worker.exec", "server.worker_exec", Some("server.worker_exec_us")),
    ("store.append", "server.store_append", Some("server.store_append_us")),
    ("partial.emit", "server.partial_emit", Some("server.partial_emit_us")),
    ("cache.lookup", "server.cache_lookup", None),
    ("assess.chunk", "assess.chunk", None),
];

/// The traced pass proper: requests over a raw socket so that encode,
/// write, wait and decode each get a span; one in `arm_every` also carries
/// a `TraceContext`, and the daemon's span tree for it is fetched with
/// `TraceDump` and hung under the client's wait.
fn traced_ops(
    served: &mut Served,
    rec: &mut Recorder,
    first_index: u64,
    seconds: f64,
    out: &mut Outcome,
) -> io::Result<Traced> {
    let kind = served.kind();
    let mut stream = TcpStream::connect(served.daemon.addr.as_str())?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut plain_us = Vec::new();
    let mut armed_us = Vec::new();
    let mut daemon_us: Vec<(&'static str, Vec<f64>)> =
        DAEMON_SPANS.iter().filter_map(|(_, _, metric)| Some(((*metric)?, Vec::new()))).collect();
    let is_armed = |op: u64| (op - first_index) % kind.arm_every == kind.arm_every - 1;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut index = first_index;
    while Instant::now() < deadline {
        let (request, _) = served.inputs.request(index);
        let armed = is_armed(index);
        let trace_id = index | 1 << 62;
        let frame = if kind.mix == Mix::Stream {
            Request::AssessStream { req: request, cadence: 1 }
        } else {
            Request::AssessPlan(request)
        };
        if armed {
            write_frame(&mut stream, &Request::TraceContext { trace_id, parent_span: 1 }.encode())?;
            served.other_frames += 1;
        }
        // Consecutive stages share their boundary timestamp: one clock
        // read per boundary keeps the recorder's cost per request to five
        // reads on a plain exchange, which a ~10 µs round trip can bear.
        let root = rec.start("client.request", None, index);
        let mut lap = rec.spans()[root].start_us;
        let mut stage = |rec: &mut Recorder, name| {
            let now = rec.now_us();
            let span =
                Span { name, start_us: lap, end_us: now, parent: Some(root), op: index, lane: 1 };
            lap = now;
            rec.push(span)
        };
        let bytes = frame.encode();
        stage(rec, "client.encode");
        write_frame(&mut stream, &bytes)?;
        stage(rec, "client.write");
        served.other_frames += 1;
        let (answer, wait_span) = loop {
            let payload = read_frame(&mut stream)?;
            let wait = stage(rec, "client.wait");
            let payload =
                payload.ok_or_else(|| io::Error::other("daemon closed the connection"))?;
            let decoded = Response::decode(payload.into());
            stage(rec, "client.decode");
            match decoded.map_err(|e| io::Error::other(e.to_string()))? {
                Response::Partial(_) => {}
                Response::Assess(a) => break (Some(a), wait),
                _ => break (None, wait),
            }
        };
        rec.set_end(root, lap);
        let rtt = rec.spans()[root].end_us - rec.spans()[root].start_us;
        out.check(answer.is_some_and(|a| a.rounds == kind.shape.rounds as u64), || {
            format!("traced op {index}: no full answer")
        });
        // The daemon counted this request; so must the reconciliation.
        served.conns[0].acks.extend(answer.map(|a| (index, a)));
        if armed {
            armed_us.push(rtt);
            write_frame(&mut stream, &Request::TraceDump { trace_id }.encode())?;
            served.other_frames += 1;
            let payload =
                read_frame(&mut stream)?.ok_or_else(|| io::Error::other("no TraceDump reply"))?;
            if let Ok(Response::Trace(tree)) = Response::decode(payload.into()) {
                // A stream's daemon span covers many waits; hang it under
                // the request. A plain request has exactly one wait.
                let under = if kind.mix == Mix::Stream { root } else { wait_span };
                attach_daemon_tree(rec, &tree.spans, under, index, &mut daemon_us);
            }
        } else {
            plain_us.push(rtt);
        }
        index += 1;
    }
    // Unarmed requests only: armed ones carry the daemon's tree, which
    // overlaps the client's wait by design.
    let coverage = rec.coverage(|s| s.name == "client.request" && !is_armed(s.op));
    Ok(Traced {
        plain_us: stats::typical(&plain_us),
        armed_us: stats::typical(&armed_us),
        coverage,
        daemon_us,
    })
}

/// Places a daemon span tree on the recorder's timeline under `under`.
fn attach_daemon_tree(
    rec: &mut Recorder,
    tree: &[TraceSpan],
    under: usize,
    op: u64,
    daemon_us: &mut [(&'static str, Vec<f64>)],
) {
    let mut placed: HashMap<u32, usize> = HashMap::new();
    for s in tree {
        let Some((_, name, metric)) = DAEMON_SPANS.iter().find(|(kind, _, _)| *kind == s.kind)
        else {
            continue;
        };
        let span = Span {
            name,
            start_us: rec.at_epoch_us(s.start_us),
            end_us: rec.at_epoch_us(s.end_us),
            parent: Some(placed.get(&s.parent).copied().unwrap_or(under)),
            op,
            lane: 2,
        };
        placed.insert(s.id, rec.push(span));
        if let Some((_, values)) = daemon_us.iter_mut().find(|(m, _)| Some(*m) == *metric) {
            values.push(s.end_us.saturating_sub(s.start_us) as f64);
        }
    }
}
