//! End-to-end tests for the RCS1 streaming mode over real TCP: partial
//! frames are monotone, a full stream's final frame is byte-identical to
//! the plain AssessPlan answer, a client-side early stop cancels the
//! daemon's remaining work (observable in the journal and counters), and
//! — the regression the cache invariant demands — an early-stopped
//! stream never populates the result cache under the full-rounds key.

use recloud_server::engine::{build_plan, stream_search_config};
use recloud_server::loadgen::first_hosts;
use recloud_server::protocol::{AssessRequest, Preset, Response, SearchRequest, MAX_ROUNDS};
use recloud_server::{Client, Server, ServerConfig};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::ops::ControlFlow;
use std::sync::mpsc;
use std::thread::JoinHandle;

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

fn tiny_request(rounds: u32, seed: u64) -> AssessRequest {
    let hosts = first_hosts(Preset::Tiny, 3);
    AssessRequest { preset: Preset::Tiny, rounds, seed, k: 2, n: 3, assignments: vec![hosts] }
}

/// A stream whose drive outlasts a cancel's round trip by orders of
/// magnitude: a cancel sent on its first partial always lands mid-drive.
fn long_request(seed: u64) -> AssessRequest {
    let hosts = first_hosts(Preset::Medium, 3);
    let rounds = MAX_ROUNDS;
    AssessRequest { preset: Preset::Medium, rounds, seed, k: 2, n: 3, assignments: vec![hosts] }
}

/// Acceptance criterion: a run-to-completion stream emits monotonically
/// nondecreasing partials and ends with a final frame that is
/// **byte-for-byte** the non-streamed AssessResponse for the same
/// request (encoded as RCS1, so the comparison covers the whole frame).
#[test]
fn full_stream_matches_plain_assess_byte_for_byte() {
    // Two daemons so the plain request cannot be served from the cache
    // the streamed one populated (the `cached` flag would differ).
    let stream_daemon = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let plain_daemon = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut stream_client = Client::connect(stream_daemon.addr).unwrap();
    let mut plain_client = Client::connect(plain_daemon.addr).unwrap();

    let request = tiny_request(9_000, 4_242);
    let mut partials = Vec::new();
    let (streamed, stopped) = stream_client
        .assess_streaming(request.clone(), 1, |p| {
            partials.push(*p);
            ControlFlow::Continue(())
        })
        .unwrap();
    assert!(!stopped);
    assert!(partials.len() >= 2, "9k rounds span several chunks at cadence 1");
    for pair in partials.windows(2) {
        assert!(
            pair[1].rounds_done >= pair[0].rounds_done,
            "rounds_done must be monotonically nondecreasing: {partials:?}"
        );
    }
    let last = partials.last().unwrap();
    assert_eq!(last.rounds_total, 9_000);
    assert_eq!(streamed.rounds, 9_000, "full stream covers every requested round");

    let plain = plain_client.assess(request).unwrap();
    assert_eq!(
        Response::Assess(streamed).encode().as_slice(),
        Response::Assess(plain).encode().as_slice(),
        "streamed final frame must be byte-identical to the plain answer"
    );

    stop(stream_daemon, &mut stream_client);
    stop(plain_daemon, &mut plain_client);
}

/// Acceptance criterion: a client stopping at a target CIW completes
/// with fewer rounds than requested, and the daemon measurably cancels
/// the remaining work — `server.stream_cancelled_total` increments and a
/// `stream.cancel` journal event records how many rounds were saved.
///
/// Regression (cache invariant): the early-stopped partial result must
/// NOT be inserted under the full-rounds `assessment_key` — a plain
/// repeat of the same request misses the cache and runs all rounds.
#[test]
fn early_stop_cancels_work_and_never_poisons_the_cache() {
    let daemon = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut client = Client::connect(daemon.addr).unwrap();

    let request = long_request(77);
    let requested = u64::from(request.rounds);
    let mut partials = 0u64;
    let (cut, stopped) = client
        .assess_streaming(request.clone(), 1, |p| {
            partials += 1;
            if p.ciw <= 0.05 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap();
    assert!(stopped, "the loose 0.05 CIW target is reached almost immediately");
    assert!(partials >= 1);
    assert!(cut.rounds > 0, "at least one chunk ran");
    assert!(cut.rounds < requested, "cancel saved work: only {} rounds ran", cut.rounds);
    assert!(!cut.cached);

    // The worker journals the cancel before it sends the final frame,
    // so the evidence is already visible.
    let metrics = client.metrics(256).unwrap();
    assert_eq!(metrics.snapshot.counter("server.stream_cancelled_total"), Some(1));
    let event = metrics
        .events
        .iter()
        .find(|e| e.kind == "stream.cancel")
        .expect("journal records the cancel");
    assert_eq!(event.v0, cut.rounds, "journal v0 is the rounds done");
    assert_eq!(event.v1, requested - cut.rounds, "journal v1 is the rounds saved");

    // The poison check: the same full-rounds request must be a cache
    // MISS (the partial result was not stored) and run to completion.
    let full = client.assess(request).unwrap();
    assert!(!full.cached, "early-stopped stream must not populate the cache");
    assert_eq!(full.rounds, requested);
    assert!(full.successes >= cut.successes);

    stop(daemon, &mut client);
}

/// A stream whose answer is already cached degenerates cleanly: no
/// partial frames, just the cached final — and the client reports no
/// early stop.
#[test]
fn cached_stream_degenerates_to_the_final_frame() {
    let daemon = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut client = Client::connect(daemon.addr).unwrap();

    let request = tiny_request(2_000, 5);
    let plain = client.assess(request.clone()).unwrap();
    assert!(!plain.cached);

    let mut partials = 0u64;
    let (streamed, stopped) = client
        .assess_streaming(request, 1, |_| {
            partials += 1;
            ControlFlow::Continue(())
        })
        .unwrap();
    assert!(!stopped);
    assert_eq!(partials, 0, "a cache hit streams nothing");
    assert!(streamed.cached);
    assert_eq!(streamed.score.to_bits(), plain.score.to_bits());

    stop(daemon, &mut client);
}

/// Acceptance criterion: the `SearchStream` final frame carries the same
/// outcome as a non-streaming search with identical config. The
/// non-streamed side is reproduced independently here — same preset
/// topology, same paper-default fault model, same per-chain config via
/// [`stream_search_config`] — and the comparison is on the encoded RCS1
/// frames, so it covers reliability, CIW, plans assessed and the plan's
/// hosts bit-for-bit. Also pins the event stream's shape: per-chain
/// improvements are strictly increasing. The events are in-sample; the
/// final frame's reliability and CIW are the report table's, which a
/// fresh engine reproduces from the streamed hosts alone.
#[test]
fn search_stream_final_frame_matches_nonstreamed_search() {
    let daemon = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut client = Client::connect(daemon.addr).unwrap();

    let request =
        SearchRequest { preset: Preset::Tiny, rounds: 1_200, seed: 99, k: 2, n: 3, budget_ms: 0 };
    let (workers, iters) = (2u32, 40u32);
    let mut events = Vec::new();
    let streamed = client.search_streaming(request, workers, iters, |e| events.push(*e)).unwrap();

    assert!(!events.is_empty(), "the initial best of each chain always streams");
    let mut per_chain: HashMap<u32, Vec<f64>> = HashMap::new();
    for e in &events {
        assert!(e.chain < workers, "chain index within the population");
        per_chain.entry(e.chain).or_default().push(e.measure);
    }
    for measures in per_chain.values() {
        for pair in measures.windows(2) {
            assert!(pair[1] > pair[0], "per-chain improvements are strict: {measures:?}");
        }
    }

    // The answer is the report table's estimate of the streamed plan.
    let topology = Preset::Tiny.scale().build();
    let model = recloud_faults::FaultModel::paper_default(&topology, request.seed);
    let spec = recloud_apps::ApplicationSpec::k_of_n(request.k, request.n);
    let plan = build_plan(&spec, std::slice::from_ref(&streamed.hosts)).unwrap();
    let table = stream_search_config(&request, iters).table_seed();
    let report_seed = recloud_sampling::derive_seed(table, recloud_search::holdout::REPORT);
    let report = recloud_assess::Assessor::new(&topology, model.clone())
        .assess(&spec, &plan, request.rounds as usize, report_seed)
        .estimate;
    assert_eq!(streamed.reliability.to_bits(), report.score.to_bits(), "report-table score");
    assert_eq!(streamed.ciw95.to_bits(), report.ciw95().to_bits(), "report-table CIW");

    // Independent non-streamed reproduction of the identical config.
    let searcher = recloud_search::ParallelSearcher::with_sampler(
        &topology,
        model,
        recloud_assess::SamplerKind::ExtendedDagger,
    );
    let config = recloud_search::ParallelSearchConfig::new(
        workers as usize,
        stream_search_config(&request, iters),
    );
    let direct = searcher.search(&spec, &recloud_search::ReliabilityObjective, &config, None, None);
    let direct_frame = Response::Search(recloud_server::protocol::SearchResponse {
        reliability: direct.best.best_reliability,
        ciw95: direct.best.best_ciw95,
        plans_assessed: direct.combined.plans_assessed as u64,
        hosts: direct.best.best_plan.hosts_of(0).iter().map(|h| h.index() as u32).collect(),
    });
    assert_eq!(
        Response::Search(streamed).encode().as_slice(),
        direct_frame.encode().as_slice(),
        "streamed final frame must match the non-streamed search bit-for-bit"
    );

    stop(daemon, &mut client);
}

/// Shape validation guards the stream: zero chains is an Invalid error,
/// and the connection survives to serve the corrected request.
#[test]
fn search_stream_rejects_zero_workers_but_keeps_the_connection() {
    let daemon = start(ServerConfig::default());
    let mut client = Client::connect(daemon.addr).unwrap();

    let request =
        SearchRequest { preset: Preset::Tiny, rounds: 500, seed: 1, k: 2, n: 3, budget_ms: 0 };
    let err = client.search_streaming(request, 0, 10, |_| {}).unwrap_err();
    assert!(err.to_string().contains("search chains"), "{err}");
    assert_eq!(client.ping(7).unwrap(), 7, "Invalid is semantic: connection stays open");

    stop(daemon, &mut client);
}

/// A stale AssessCancel (no stream in flight) is a silent no-op: the
/// connection stays usable and no response frame is emitted for it.
#[test]
fn stale_cancel_is_a_silent_noop() {
    let daemon = start(ServerConfig::default());
    let mut client = Client::connect(daemon.addr).unwrap();

    client.cancel().unwrap();
    // The next call still works and gets *its own* answer — nothing was
    // queued up in response to the cancel.
    assert_eq!(client.ping(99).unwrap(), 99);

    stop(daemon, &mut client);
}

/// Two workers drive two jobs at once: while connection A's long stream
/// is still driving, connection B's stream delivers its first partial,
/// before A's final frame. A pool that ran its jobs one at a time would
/// finish A before it started B.
#[test]
fn two_workers_drive_two_streams_at_once() {
    let daemon = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut a = Client::connect(daemon.addr).unwrap();
    let mut b = Client::connect(daemon.addr).unwrap();
    let requested = u64::from(MAX_ROUNDS);
    let (a_driving, a_first_partial) = mpsc::channel();
    let (b_delivered, b_first_partial) = mpsc::channel();
    let ((cut_a, stopped_a), (_, stopped_b)) = std::thread::scope(|scope| {
        let stream_a = scope.spawn(move || {
            a.assess_streaming(long_request(61), 1, |_| {
                // Hold A's cancel until B has delivered a partial.
                a_driving.send(()).unwrap();
                b_first_partial.recv().unwrap();
                ControlFlow::Break(())
            })
            .unwrap()
        });
        a_first_partial.recv().unwrap();
        let b_answer = b
            .assess_streaming(long_request(62), 1, |_| {
                b_delivered.send(()).unwrap();
                ControlFlow::Break(())
            })
            .unwrap();
        (stream_a.join().unwrap(), b_answer)
    });
    assert!(stopped_a && stopped_b, "both streams were cancelled");
    assert!(cut_a.rounds < requested, "A was still driving when B's first partial arrived");
    stop(daemon, &mut b);
}
