//! End-to-end tests over a real TCP connection: a served answer must be
//! *bit-identical* to what the CLI assessment path computes locally for
//! the same `(preset, plan, rounds, seed)` — plus cache, metrics, search
//! and graceful-shutdown behavior.

use recloud_assess::{Assessor, SamplerKind};
use recloud_faults::FaultModel;
use recloud_server::protocol::{AssessRequest, Preset, SearchRequest};
use recloud_server::{Client, Server, ServerConfig};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Duration;

struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<recloud_server::ServeSummary>,
}

fn start(config: ServerConfig) -> Daemon {
    let server = Server::bind(("127.0.0.1", 0), config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    Daemon { addr, handle }
}

fn stop(daemon: Daemon, client: &mut Client) -> recloud_server::ServeSummary {
    client.shutdown().expect("shutdown ack");
    daemon.handle.join().expect("server thread exits cleanly")
}

fn tiny_hosts(n: usize) -> Vec<u32> {
    let t = Preset::Tiny.scale().build();
    t.hosts()[..n].iter().map(|h| h.index() as u32).collect()
}

/// Acceptance criterion: the served AssessPlan response is bit-identical
/// to the CLI-path assessment for a fixed (preset, plan, rounds, seed).
#[test]
fn served_assessment_is_bit_identical_to_local_cli_path() {
    let daemon = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut client = Client::connect(daemon.addr).unwrap();

    let hosts = tiny_hosts(3);
    let (rounds, seed, k, n) = (3_000u32, 1_234u64, 2u32, 3u32);
    let served = client
        .assess(AssessRequest {
            preset: Preset::Tiny,
            rounds,
            seed,
            k,
            n,
            assignments: vec![hosts.clone()],
        })
        .unwrap();

    // The CLI path (`recloud assess`): fresh topology, paper-default
    // fault model, extended dagger sampler, same seed everywhere.
    let topology = Preset::Tiny.scale().build();
    let model = FaultModel::paper_default(&topology, seed);
    let mut assessor = Assessor::with_sampler(&topology, model, SamplerKind::ExtendedDagger);
    let spec = recloud_apps::ApplicationSpec::k_of_n(k, n);
    let plan = recloud_apps::DeploymentPlan::new(
        &spec,
        vec![hosts
            .iter()
            .map(|&h| recloud_topology::ComponentId::from_index(h as usize))
            .collect()],
    );
    let local = assessor.assess(&spec, &plan, rounds as usize, seed);

    assert_eq!(served.score.to_bits(), local.estimate.score.to_bits(), "score must be bit-equal");
    assert_eq!(served.variance.to_bits(), local.estimate.variance.to_bits());
    assert_eq!(served.rounds, local.estimate.rounds);
    assert_eq!(served.successes, local.estimate.successes);
    assert!(!served.cached, "first request cannot be a cache hit");

    stop(daemon, &mut client);
}

#[test]
fn repeat_requests_hit_the_cache_and_metrics_count_them() {
    let daemon = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut client = Client::connect(daemon.addr).unwrap();

    let request = AssessRequest {
        preset: Preset::Tiny,
        rounds: 1_000,
        seed: 9,
        k: 2,
        n: 3,
        assignments: vec![tiny_hosts(3)],
    };
    let first = client.assess(request.clone()).unwrap();
    assert!(!first.cached);
    let second = client.assess(request.clone()).unwrap();
    assert!(second.cached, "identical request must be served from cache");
    assert_eq!(second.score.to_bits(), first.score.to_bits());
    assert_eq!(second.successes, first.successes);

    // A different seed is a different key — never a false hit.
    let reseeded = client.assess(AssessRequest { seed: 10, ..request }).unwrap();
    assert!(!reseeded.cached);

    let stats = client.metrics(0).unwrap().snapshot;
    assert_eq!(stats.counter("server.cache_hits_total"), Some(1));
    assert_eq!(stats.counter("server.cache_misses_total"), Some(2));
    assert_eq!(stats.gauge("server.workers"), Some(2));
    assert_eq!(stats.gauge("server.queue_capacity"), Some(64));
    assert_eq!(stats.counter("server.requests_total"), Some(4));
    assert_eq!(stats.counter("server.completed_total"), Some(3));

    let summary = stop(daemon, &mut client);
    assert_eq!(summary.cache_hits, 1);
    assert_eq!(summary.protocol_errors, 0);
}

/// Satellite: a served AssessPlan increments exactly the expected
/// instruments — request counter, one cache miss then one hit, two
/// samples in the assess latency histogram — all read back through a
/// `MetricsDump` frame over TCP. The server's registry is per-instance,
/// so the counts are exact even with other tests running in parallel.
#[test]
fn metrics_dump_reports_exactly_the_served_traffic() {
    let daemon = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut client = Client::connect(daemon.addr).unwrap();

    let request = AssessRequest {
        preset: Preset::Tiny,
        rounds: 800,
        seed: 31,
        k: 2,
        n: 3,
        assignments: vec![tiny_hosts(3)],
    };
    assert!(!client.assess(request.clone()).unwrap().cached);
    assert!(client.assess(request).unwrap().cached);

    let m = client.metrics(32).unwrap();
    // Two assessments plus the MetricsDump itself (counted on decode,
    // before its own snapshot is taken).
    assert_eq!(m.snapshot.counter("server.requests_total"), Some(3));
    assert_eq!(m.snapshot.counter("server.cache_misses_total"), Some(1));
    assert_eq!(m.snapshot.counter("server.cache_hits_total"), Some(1));
    assert_eq!(m.snapshot.counter("server.cache_evictions_total"), Some(0));
    assert_eq!(m.snapshot.counter("server.busy_total"), Some(0));
    assert_eq!(m.snapshot.counter("server.decode_errors_total"), Some(0));
    assert_eq!(m.snapshot.gauge("server.queue_depth"), Some(0), "nothing left queued");
    let assess = m.snapshot.histogram("server.latency_us.assess").unwrap();
    assert_eq!(assess.count, 2, "one miss + one hit latency sample");
    assert!(assess.p50() <= assess.p99(), "quantile readout is monotone");
    assert!(assess.max > 0, "a real assessment takes measurable time");
    // The dump also carries the process-wide assess-layer instruments.
    assert!(m.snapshot.counter("assess.rounds_total").unwrap_or(0) >= 800);

    // A connection that speaks garbage is counted and journaled:
    // conn.close events carry (frames, decode_errors) per connection.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(daemon.addr).unwrap();
        let bad = [5u32.to_le_bytes().as_slice(), b"junk!"].concat();
        raw.write_all(&bad).unwrap();
        let mut buf = Vec::new();
        let _ = std::io::Read::read_to_end(&mut raw, &mut buf); // error reply, then close
    }
    // The conn.close journal record lands just after the error reply is
    // written, so poll briefly instead of racing it.
    let mut journaled = None;
    for _ in 0..200 {
        let m = client.metrics(64).unwrap();
        if let Some(e) = m.events.iter().find(|e| e.kind == "conn.close" && e.v0 == 1 && e.v1 == 1)
        {
            journaled = Some(e.clone());
            assert_eq!(m.snapshot.counter("server.decode_errors_total"), Some(1));
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(journaled.is_some(), "decode-error connection must journal a conn.close event");

    stop(daemon, &mut client);
}

#[test]
fn search_frames_round_trip_over_tcp() {
    let daemon = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut client = Client::connect(daemon.addr).unwrap();

    let search =
        SearchRequest { preset: Preset::Tiny, rounds: 500, seed: 3, k: 2, n: 3, budget_ms: 150 };
    let s = client.search_streaming(search, 1, 0, |_| {}).unwrap();
    assert_eq!(s.hosts.len(), 3);
    assert!(s.plans_assessed >= 1);
    assert!((0.0..=1.0).contains(&s.reliability));

    stop(daemon, &mut client);
}

#[test]
fn layered_specs_are_assessed_and_semantic_errors_keep_the_connection() {
    let daemon = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut client = Client::connect(daemon.addr).unwrap();

    let h = tiny_hosts(4);
    let layered = client
        .assess(AssessRequest {
            preset: Preset::Tiny,
            rounds: 500,
            seed: 2,
            k: 1,
            n: 2,
            assignments: vec![vec![h[0], h[1]], vec![h[2], h[3]]],
        })
        .unwrap();
    assert_eq!(layered.rounds, 500);

    // Semantic error (a switch id in the plan): Error frame, but the
    // connection stays usable.
    let err = client
        .assess(AssessRequest {
            preset: Preset::Tiny,
            rounds: 500,
            seed: 2,
            k: 1,
            n: 2,
            assignments: vec![vec![0, 1]], // ids 0,1 are core switches
        })
        .unwrap_err();
    assert!(err.to_string().contains("not a host"), "{err}");
    assert_eq!(client.ping(5).unwrap(), 5, "connection survives semantic errors");

    stop(daemon, &mut client);
}

#[test]
fn shutdown_drains_in_flight_work_and_concurrent_clients_agree() {
    let daemon = start(ServerConfig { workers: 2, ..ServerConfig::default() });

    // Several clients interleave assessments of the same request; every
    // response (computed or cached) must be bit-identical.
    let request = AssessRequest {
        preset: Preset::Tiny,
        rounds: 1_500,
        seed: 77,
        k: 2,
        n: 3,
        assignments: vec![tiny_hosts(3)],
    };
    let mut bits = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let request = request.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(daemon.addr).unwrap();
                    (0..5)
                        .map(|_| client.assess(request.clone()).unwrap().score.to_bits())
                        .collect()
                })
            })
            .collect();
        for h in handles {
            let scores: Vec<u64> = h.join().unwrap();
            bits.extend(scores);
        }
    });
    bits.dedup();
    assert_eq!(bits.len(), 1, "all 20 responses carry the same score bits");

    let mut client = Client::connect(daemon.addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let summary = stop(daemon, &mut client);
    assert_eq!(summary.completed, summary.received - 1 /* the shutdown frame */);
    assert_eq!(summary.busy_rejections, 0);
}
