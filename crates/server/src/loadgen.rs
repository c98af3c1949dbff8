//! Load generator and smoke test for a running daemon.
//!
//! [`run_load`] opens several client connections and fires AssessPlan
//! requests as fast as the server answers, measuring throughput and
//! latency quantiles client-side. Two request mixes matter:
//!
//! * `distinct_seeds: true` — every request derives a fresh seed via the
//!   shared [`recloud_sampling::derive_seed`] rule, so every request is a
//!   cache miss and the measurement is worker throughput;
//! * `distinct_seeds: false` — every request is identical, so after the
//!   first miss the cache answers everything and the measurement is the
//!   serving layer's frame/dispatch overhead.
//!
//! [`smoke`] is the CI gate: Ping, a Tiny assessment, the same assessment
//! again (must be a cache hit), a MetricsDump proving the instruments
//! recorded it (the hit counted, every request counted, a non-empty
//! assess latency histogram), and a clean Shutdown.

use crate::client::Client;
use crate::protocol::{AssessRequest, Preset, MAX_ROUNDS};
use recloud_sampling::derive_seed;
use std::io;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What to throw at the server.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7070`.
    pub addr: String,
    /// Total requests across all connections.
    pub requests: usize,
    /// Concurrent client connections.
    pub connections: usize,
    /// Topology preset to assess in.
    pub preset: Preset,
    /// Route-and-check rounds per request.
    pub rounds: u32,
    /// Base master seed.
    pub seed: u64,
    /// Fresh seed per request (cache-miss mix) vs. identical requests
    /// (cache-hit mix).
    pub distinct_seeds: bool,
    /// Use the streaming assess path (`AssessStream` at `cadence` chunks
    /// per partial) instead of plain `AssessPlan`, measuring the
    /// streaming overhead against the same work.
    pub stream: bool,
    /// Chunks per `Partial` frame in stream mode.
    pub cadence: u32,
    /// Tenant id to introduce each connection as (a `Hello` frame before
    /// any load). `None` sends no Hello, so the server serves the run as
    /// the `default` tenant — and counter-exact smoke gates see only the
    /// frames they always did.
    pub tenant: Option<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7070".into(),
            requests: 1_000,
            connections: 4,
            preset: Preset::Tiny,
            rounds: 1_000,
            seed: 42,
            distinct_seeds: false,
            stream: false,
            cadence: 1,
            tenant: None,
        }
    }
}

/// What the load run measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// Successful assessments.
    pub ok: u64,
    /// Requests served from the result cache (per-response flag).
    pub cached: u64,
    /// `Busy` rejections.
    pub busy: u64,
    /// Error responses or transport failures.
    pub errors: u64,
    /// `Partial` frames received (stream mode only).
    pub partials: u64,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Successful requests per second.
    pub throughput_rps: f64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile request latency, microseconds — the tail the
    /// connection-count frontier tracks.
    pub p99_us: u64,
}

fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The first `n` host ids of a preset's topology — the canonical fixed
/// plan the load generator and smoke test assess.
pub fn first_hosts(preset: Preset, n: usize) -> Vec<u32> {
    let topology = preset.scale().build();
    topology.hosts()[..n].iter().map(|h| h.index() as u32).collect()
}

/// Runs the configured load and aggregates per-request outcomes.
pub fn run_load(config: &LoadgenConfig) -> io::Result<LoadReport> {
    let hosts = first_hosts(config.preset, 3);
    let per_conn = config.requests.div_ceil(config.connections.max(1));
    let (result_tx, result_rx) = mpsc::channel::<(u64, u64, u64, u64, u64, Vec<u64>)>();
    let started = Instant::now();
    std::thread::scope(|scope| -> io::Result<()> {
        for conn in 0..config.connections.max(1) {
            let tx = result_tx.clone();
            let hosts = hosts.clone();
            let mut client = Client::connect(&config.addr)?;
            if let Some(tenant) = &config.tenant {
                client
                    .hello(tenant)
                    .map_err(|e| io::Error::new(e.kind(), format!("hello: {e}")))?;
            }
            scope.spawn(move || {
                let (mut ok, mut cached, mut busy, mut errors) = (0u64, 0u64, 0u64, 0u64);
                let mut partials = 0u64;
                let mut latencies = Vec::with_capacity(per_conn);
                for i in 0..per_conn {
                    let stream = (conn * per_conn + i) as u64;
                    let seed = if config.distinct_seeds {
                        derive_seed(config.seed, stream)
                    } else {
                        config.seed
                    };
                    let request = AssessRequest {
                        preset: config.preset,
                        rounds: config.rounds,
                        seed,
                        k: 2,
                        n: hosts.len() as u32,
                        assignments: vec![hosts.clone()],
                    };
                    let t0 = Instant::now();
                    let outcome = if config.stream {
                        client
                            .assess_streaming(request, config.cadence.max(1), |_| {
                                partials += 1;
                                std::ops::ControlFlow::Continue(())
                            })
                            .map(|(resp, _)| resp)
                    } else {
                        client.assess(request)
                    };
                    match outcome {
                        Ok(resp) => {
                            ok += 1;
                            if resp.cached {
                                cached += 1;
                            }
                            latencies.push(t0.elapsed().as_micros() as u64);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => busy += 1,
                        Err(_) => errors += 1,
                    }
                }
                let _ = tx.send((ok, cached, busy, errors, partials, latencies));
            });
        }
        Ok(())
    })?;
    drop(result_tx);
    let mut report = LoadReport::default();
    let mut all_latencies = Vec::with_capacity(config.requests);
    while let Ok((ok, cached, busy, errors, partials, latencies)) = result_rx.recv() {
        report.ok += ok;
        report.cached += cached;
        report.busy += busy;
        report.errors += errors;
        report.partials += partials;
        all_latencies.extend(latencies);
    }
    report.sent = report.ok + report.busy + report.errors;
    report.elapsed = started.elapsed();
    report.throughput_rps = report.ok as f64 / report.elapsed.as_secs_f64().max(1e-9);
    all_latencies.sort_unstable();
    report.p50_us = quantile_us(&all_latencies, 0.50);
    report.p95_us = quantile_us(&all_latencies, 0.95);
    report.p99_us = quantile_us(&all_latencies, 0.99);
    Ok(report)
}

/// Connection-count smoke: attaches `connections` persistent clients to
/// the daemon, proves every one is live with a ping, then — while the
/// whole fleet stays connected — runs a full streaming assessment on one
/// connection and a cache-hit replay on another. A thread-per-connection
/// server would need a thread per attached client to pass; the reactor
/// serves the fleet with O(workers) threads, which the
/// `server.connections_open` gauge check pins down. Leaves the daemon
/// running — the caller owns shutdown.
pub fn smoke_fleet(addr: &str, connections: usize) -> Result<(), String> {
    let step = |what: String, e: io::Error| format!("fleet {what}: {e}");
    let mut fleet = Vec::with_capacity(connections);
    for i in 0..connections {
        let mut client = Client::connect(addr).map_err(|e| step(format!("connect #{i}"), e))?;
        client
            .set_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| step("set timeout".into(), e))?;
        fleet.push(client);
    }
    for (i, client) in fleet.iter_mut().enumerate() {
        let token = client.ping(i as u64).map_err(|e| step(format!("ping #{i}"), e))?;
        if token != i as u64 {
            return Err(format!("fleet ping #{i} echoed {token}"));
        }
    }
    // With the fleet attached, streaming still flows end to end.
    let request = AssessRequest {
        preset: Preset::Tiny,
        rounds: 2_000,
        seed: 97,
        k: 2,
        n: 3,
        assignments: vec![first_hosts(Preset::Tiny, 3)],
    };
    let mut partials = 0u64;
    let (final_frame, stopped) = fleet[0]
        .assess_streaming(request.clone(), 1, |_| {
            partials += 1;
            std::ops::ControlFlow::Continue(())
        })
        .map_err(|e| step("streaming assess".into(), e))?;
    if stopped || partials == 0 || final_frame.rounds != u64::from(request.rounds) {
        return Err(format!(
            "fleet stream answered rounds={} with {partials} partials",
            final_frame.rounds
        ));
    }
    // Another connection hits the cache the stream populated.
    let replay = fleet[connections - 1].assess(request).map_err(|e| step("replay".into(), e))?;
    if !replay.cached {
        return Err("fleet replay missed the cache the completed stream populated".into());
    }
    // The daemon itself must see the whole fleet attached at once.
    let metrics = fleet[0].metrics(0).map_err(|e| step("metrics".into(), e))?;
    match metrics.snapshot.gauge("server.connections_open") {
        Some(open) if open >= connections as i64 => Ok(()),
        open => Err(format!(
            "server.connections_open reports {open:?} with {connections} clients attached"
        )),
    }
}

/// The CI smoke sequence against a freshly started server. Returns a
/// step-by-step description on the first mismatch.
pub fn smoke(addr: &str) -> Result<(), String> {
    let step = |what: &str, e: io::Error| format!("{what}: {e}");
    let mut client = Client::connect(addr).map_err(|e| step("connect", e))?;
    client.set_timeout(Some(Duration::from_secs(30))).map_err(|e| step("set timeout", e))?;

    let token = client.ping(42).map_err(|e| step("ping", e))?;
    if token != 42 {
        return Err(format!("ping echoed {token}, want 42"));
    }

    let request = AssessRequest {
        preset: Preset::Tiny,
        rounds: 500,
        seed: 7,
        k: 2,
        n: 3,
        assignments: vec![first_hosts(Preset::Tiny, 3)],
    };
    let first = client.assess(request.clone()).map_err(|e| step("assess", e))?;
    if first.rounds != 500 || !(0.0..=1.0).contains(&first.score) {
        return Err(format!("implausible assessment {first:?}"));
    }
    let second = client.assess(request).map_err(|e| step("assess again", e))?;
    if !second.cached {
        return Err("repeated assessment was not served from cache".into());
    }
    if second.score.to_bits() != first.score.to_bits() {
        return Err("cached score differs from computed score".into());
    }

    // The metrics gate: the daemon's instruments must have seen this
    // traffic — the hit, and the ping, both assessments and this read.
    let metrics = client.metrics(64).map_err(|e| step("metrics dump", e))?;
    if metrics.snapshot.counter("server.cache_hits_total").unwrap_or(0) == 0 {
        return Err("metrics report zero server.cache_hits_total after a hit".into());
    }
    match metrics.snapshot.counter("server.requests_total") {
        Some(n) if n >= 4 => {}
        n => return Err(format!("metrics counted only {n:?} requests")),
    }
    match metrics.snapshot.histogram("server.latency_us.assess") {
        None => return Err("metrics lack the assess latency histogram".into()),
        Some(h) if h.count == 0 => {
            return Err("assess latency histogram is empty after two assessments".into());
        }
        Some(_) => {}
    }

    client.shutdown().map_err(|e| step("shutdown", e))?;
    Ok(())
}

/// The streaming CI gate against a running server (which it leaves
/// running — the caller owns shutdown):
///
/// 1. a run-to-completion stream yields monotone partials, and a plain
///    repeat of the same request is served from the cache bit-identically
///    (the completed stream populated it);
/// 2. a large stream stopped at a client-side target CIW completes with
///    fewer rounds than requested, and the daemon's metrics show the
///    cancel (`server.stream_cancelled_total`, a `stream.cancel` journal
///    event).
pub fn smoke_stream(addr: &str) -> Result<(), String> {
    let step = |what: &str, e: io::Error| format!("stream {what}: {e}");
    let mut client = Client::connect(addr).map_err(|e| step("connect", e))?;
    client.set_timeout(Some(Duration::from_secs(60))).map_err(|e| step("set timeout", e))?;

    let full = AssessRequest {
        preset: Preset::Tiny,
        rounds: 6_000,
        seed: 23,
        k: 2,
        n: 3,
        assignments: vec![first_hosts(Preset::Tiny, 3)],
    };
    let mut last_done = 0u64;
    let mut partials = 0u64;
    let (final_frame, stopped) = client
        .assess_streaming(full.clone(), 1, |p| {
            partials += 1;
            if p.rounds_done < last_done {
                return std::ops::ControlFlow::Break(());
            }
            last_done = p.rounds_done;
            std::ops::ControlFlow::Continue(())
        })
        .map_err(|e| step("assess", e))?;
    if stopped {
        return Err("streamed partials were not monotone in rounds_done".into());
    }
    if partials == 0 {
        return Err("full stream emitted no partial frames".into());
    }
    if final_frame.rounds != full.rounds as u64 {
        return Err(format!(
            "full stream answered {} rounds, want {}",
            final_frame.rounds, full.rounds
        ));
    }
    let replay = client.assess(full).map_err(|e| step("replay", e))?;
    if !replay.cached {
        return Err("completed stream did not populate the result cache".into());
    }
    if replay.score.to_bits() != final_frame.score.to_bits() {
        return Err("cached replay differs from the streamed final frame".into());
    }

    // Early stop: ask for far more rounds than a 0.02-wide interval
    // needs and break as soon as the running CIW reaches it. The drive
    // must outlast the cancel's round trip by orders of magnitude, or
    // the cancel can land after the last chunk and nothing is saved.
    let big = AssessRequest {
        preset: Preset::Medium,
        rounds: MAX_ROUNDS,
        seed: 29,
        k: 2,
        n: 3,
        assignments: vec![first_hosts(Preset::Medium, 3)],
    };
    let requested = big.rounds as u64;
    let (cut, stopped) = client
        .assess_streaming(big, 1, |p| {
            if p.ciw <= 0.02 {
                std::ops::ControlFlow::Break(())
            } else {
                std::ops::ControlFlow::Continue(())
            }
        })
        .map_err(|e| step("early-stop assess", e))?;
    if !stopped {
        return Err("the 0.02 CIW target was never reached".into());
    }
    if cut.rounds == 0 || cut.rounds >= requested {
        return Err(format!("early stop still ran {} of {requested} rounds", cut.rounds));
    }

    let metrics = client.metrics(256).map_err(|e| step("metrics dump", e))?;
    match metrics.snapshot.counter("server.stream_cancelled_total") {
        None | Some(0) => return Err("daemon did not count the stream cancel".into()),
        Some(_) => {}
    }
    if !metrics.events.iter().any(|e| e.kind == "stream.cancel") {
        return Err("journal has no stream.cancel event".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_the_right_ranks() {
        assert_eq!(quantile_us(&[], 0.5), 0);
        assert_eq!(quantile_us(&[7], 0.95), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_us(&v, 0.50), 51); // index round(99*0.5)=50
        assert_eq!(quantile_us(&v, 0.95), 95); // index round(99*0.95)=94
    }

    #[test]
    fn tiny_first_hosts_are_hosts() {
        let hosts = first_hosts(Preset::Tiny, 3);
        assert_eq!(hosts.len(), 3);
        let t = Preset::Tiny.scale().build();
        assert_eq!(hosts[0] as usize, t.hosts()[0].index());
    }
}
