//! End-to-end tests for the durable result store: a daemon restarted with
//! `--store` must answer previously-assessed plans from the replayed cache
//! without touching the worker pool and survive a torn tail on its log.

use recloud_server::loadgen::first_hosts;
use recloud_server::protocol::{AssessRequest, Preset, MAX_ROUNDS};
use recloud_server::{Client, Server, ServerConfig};
use std::net::SocketAddr;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
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

fn tiny_hosts(n: usize) -> Vec<u32> {
    let t = Preset::Tiny.scale().build();
    t.hosts()[..n].iter().map(|h| h.index() as u32).collect()
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("recloud-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request(seed: u64) -> AssessRequest {
    AssessRequest {
        preset: Preset::Tiny,
        rounds: 600,
        seed,
        k: 2,
        n: 3,
        assignments: vec![tiny_hosts(3)],
    }
}

/// The newest (highest-id) segment file in a store directory — the one a
/// crash mid-append would tear.
fn active_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segments.sort();
    segments.pop().expect("store has at least one segment")
}

/// Acceptance criterion: fill a daemon over TCP, drop it, tear the active
/// segment's tail (as a crash mid-append would), restart on the same store
/// — the first request is a cache hit and the worker pool never runs.
#[test]
fn warm_start_answers_from_the_replayed_log_without_the_worker_pool() {
    let dir = store_dir("warm");
    let config =
        ServerConfig { workers: 2, store_dir: Some(dir.clone()), ..ServerConfig::default() };

    let daemon = start(config.clone());
    let mut client = Client::connect(daemon.addr).unwrap();
    let cold = client.assess(request(11)).unwrap();
    assert!(!cold.cached);
    assert!(!client.assess(request(12)).unwrap().cached);
    let m = client.metrics(0).unwrap();
    assert!(m.snapshot.counter("store.appended_total").unwrap_or(0) >= 2);
    assert!(m.snapshot.gauge("store.bytes").unwrap_or(0) > 0, "appends grow the log");
    assert!(m.snapshot.gauge("server.cache_bytes").unwrap_or(0) > 0);
    stop(daemon, &mut client);

    // Simulate the torn write of an interrupted append: a length prefix
    // promising a record that never finished landing.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(active_segment(&dir)).unwrap();
        f.write_all(&[61, 0, 0, 0, 1, 0xde, 0xad]).unwrap();
    }

    let daemon = start(config);
    let mut client = Client::connect(daemon.addr).unwrap();
    let warmed = client.assess(request(11)).unwrap();
    assert!(warmed.cached, "replayed entry must be served as a hit");
    assert_eq!(warmed.score.to_bits(), cold.score.to_bits(), "replay is bit-faithful");
    assert_eq!(warmed.variance.to_bits(), cold.variance.to_bits());
    assert_eq!(warmed.rounds, cold.rounds);
    assert_eq!(warmed.successes, cold.successes);
    assert!(client.assess(request(12)).unwrap().cached);

    let m = client.metrics(0).unwrap();
    assert!(m.snapshot.counter("store.replayed_total").unwrap_or(0) >= 2);
    assert_eq!(m.snapshot.counter("server.cache_hits_total"), Some(2));
    assert_eq!(
        m.snapshot.counter("server.cache_misses_total"),
        Some(0),
        "warm start must never reach the worker pool"
    );
    stop(daemon, &mut client);
    let _ = std::fs::remove_dir_all(&dir);
}

/// PR 5 invariant, extended to the spill log: a cancelled stream's partial
/// answer must never be persisted — after a restart the same plan is a
/// miss, not a stale hit.
#[test]
fn cancelled_streams_never_reach_the_store() {
    let dir = store_dir("cancel");
    let config =
        ServerConfig { workers: 1, store_dir: Some(dir.clone()), ..ServerConfig::default() };

    let daemon = start(config.clone());
    let mut client = Client::connect(daemon.addr).unwrap();
    // The drive must outlast the cancel's round trip by orders of
    // magnitude, or the cancel can land after the last chunk.
    let long = AssessRequest {
        preset: Preset::Medium,
        rounds: MAX_ROUNDS,
        assignments: vec![first_hosts(Preset::Medium, 3)],
        ..request(41)
    };
    let (partial, stopped) = client.assess_streaming(long, 1, |_| ControlFlow::Break(())).unwrap();
    assert!(stopped, "callback break must cancel the stream");
    assert!(partial.rounds < u64::from(MAX_ROUNDS), "cancelled stream ends early");
    let m = client.metrics(0).unwrap();
    assert_eq!(m.snapshot.counter("store.appended_total"), Some(0));
    stop(daemon, &mut client);

    // An empty log replays nothing: the restarted daemon starts cold, so
    // the cancelled plan cannot be answered from a stale partial.
    let daemon = start(config);
    let mut client = Client::connect(daemon.addr).unwrap();
    let m = client.metrics(0).unwrap();
    assert_eq!(m.snapshot.counter("store.replayed_total"), Some(0));
    stop(daemon, &mut client);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A plain request is a stream that forwards no `Partial`: for one request
/// the `AssessPlan` answer and the `AssessStream` final frame are the same
/// bits, each lands in its daemon's cache and store, and the plain client
/// — which refuses any frame but the answer — sees no `Partial` although
/// the drive spans several chunks.
#[test]
fn plain_and_streamed_requests_are_one_job() {
    let long = AssessRequest { rounds: 12_000, ..request(51) };
    let mut answers = Vec::new();
    for streamed in [false, true] {
        let dir = store_dir(if streamed { "one-job-stream" } else { "one-job-plain" });
        let daemon = start(ServerConfig {
            workers: 1,
            store_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let mut client = Client::connect(daemon.addr).unwrap();
        let mut partials = 0;
        let answer = if streamed {
            let on_partial = |_: &_| {
                partials += 1;
                ControlFlow::Continue(())
            };
            client.assess_streaming(long.clone(), 1, on_partial).unwrap().0
        } else {
            client.assess(long.clone()).unwrap()
        };
        assert_eq!(partials > 1, streamed, "{partials} partials");
        assert!(!answer.cached);
        assert!(client.assess(long.clone()).unwrap().cached, "the answer reached the cache");
        let m = client.metrics(0).unwrap();
        assert_eq!(m.snapshot.counter("store.appended_total"), Some(1), "and the store");
        assert_eq!(m.snapshot.counter("server.completed_total"), Some(2));
        stop(daemon, &mut client);
        let _ = std::fs::remove_dir_all(&dir);
        answers.push(answer);
    }
    assert_eq!(answers[0].score.to_bits(), answers[1].score.to_bits());
    assert_eq!(answers[0].variance.to_bits(), answers[1].variance.to_bits());
    assert_eq!(
        (answers[0].rounds, answers[0].successes),
        (answers[1].rounds, answers[1].successes)
    );
}
