//! Reactor-specific end-to-end tests: the readiness-polled connection
//! layer must hold thousands of idle connections on O(workers) threads,
//! survive slow-loris writers on the incremental decode path, run
//! unchanged on the portable `Scan` poller, home connections to tenants
//! via `Hello`, enforce per-tenant admission budgets, compact at bind a
//! store that replay left past its thresholds, which no append would ever
//! revisit, route every worker frame back to its own connection, and
//! sleep while nothing happens.

use recloud_server::engine::{build_plan, spec_for};
use recloud_server::protocol::{
    read_frame, write_frame, AssessRequest, AssessResponse, Preset, Request, Response,
};
use recloud_server::{Client, EnginePool, PollerKind, Server, ServerConfig};
use recloud_store::StoreConfig;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::Barrier;
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

fn tiny_request(seed: u64, rounds: u32) -> AssessRequest {
    let t = Preset::Tiny.scale().build();
    let hosts = t.hosts()[..3].iter().map(|h| h.index() as u32).collect();
    AssessRequest { preset: Preset::Tiny, rounds, seed, k: 2, n: 3, assignments: vec![hosts] }
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("recloud-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Live threads in this test process. Other tests run concurrently in
/// the same process, so callers must assert on deltas with slack, never
/// exact counts.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

/// The O(workers) claim: attaching a fleet of idle connections must not
/// grow the process thread count — under the old thread-per-connection
/// server this delta was exactly the fleet size. The reactor also has to
/// keep streaming while the fleet sits attached, and account for every
/// socket in the `server.connections_open` gauge.
#[cfg(target_os = "linux")]
#[test]
fn idle_connection_fleet_adds_no_serving_threads() {
    const FLEET: usize = 128;
    let daemon = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let before = thread_count();

    let mut fleet = Vec::with_capacity(FLEET);
    for i in 0..FLEET {
        let mut c = Client::connect(daemon.addr).expect("fleet connect");
        c.set_timeout(Some(Duration::from_secs(60))).unwrap();
        assert_eq!(c.ping(i as u64).unwrap(), i as u64);
        fleet.push(c);
    }
    let after_attach = thread_count();
    assert!(
        after_attach < before + FLEET / 4,
        "attaching {FLEET} idle connections grew threads {before} -> {after_attach}; \
         the reactor must not spawn per-connection threads"
    );

    // A stream must still flow while the idle fleet is attached, and the
    // thread count observed mid-stream stays O(workers) too.
    let mut during_stream = 0usize;
    let mut partials = 0u32;
    let (answer, stopped) = fleet[0]
        .assess_streaming(tiny_request(42, 30_000), 1, |_p| {
            partials += 1;
            during_stream = during_stream.max(thread_count());
            ControlFlow::Continue(())
        })
        .expect("stream under idle fleet");
    assert!(!stopped);
    assert!(partials > 0, "stream produced no partial frames");
    assert_eq!(answer.rounds, 30_000);
    assert!(
        during_stream < before + FLEET / 4,
        "streaming under the fleet grew threads {before} -> {during_stream}"
    );

    let open = fleet[0]
        .metrics(0)
        .expect("metrics frame")
        .snapshot
        .gauge("server.connections_open")
        .unwrap_or(0);
    assert!(open >= FLEET as i64, "connections_open gauge says {open}, fleet is {FLEET}");

    let mut closer = Client::connect(daemon.addr).unwrap();
    drop(fleet);
    stop(daemon, &mut closer);
}

/// Slow-loris writer: a client that dribbles a well-formed `Ping` and a
/// well-formed `AssessPlan` one byte at a time must be served once the
/// last byte lands — the incremental decoder buffers partial frames
/// without blocking a thread on the socket — and a clean client on
/// another connection must never be wedged behind it.
#[test]
fn slow_loris_byte_at_a_time_client_is_served() {
    let daemon = start(ServerConfig { workers: 1, ..ServerConfig::default() });

    let mut stream = TcpStream::connect(daemon.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    fn dribble(stream: &mut TcpStream, req: &Request) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &req.encode()).unwrap();
        for byte in buf {
            stream.write_all(&[byte]).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    dribble(&mut stream, &Request::Ping { token: 41 });
    let payload = read_frame(&mut stream).unwrap().expect("pong for the slow writer");
    match Response::decode(payload.into()).unwrap() {
        Response::Pong { token } => assert_eq!(token, 41),
        other => panic!("expected Pong, got {other:?}"),
    }

    dribble(&mut stream, &Request::AssessPlan(tiny_request(7, 300)));
    let payload = read_frame(&mut stream).unwrap().expect("assessment for the slow writer");
    match Response::decode(payload.into()).unwrap() {
        Response::Assess(a) => assert!((0.0..=1.0).contains(&a.score)),
        other => panic!("expected AssessResult, got {other:?}"),
    }

    let mut clean = Client::connect(daemon.addr).unwrap();
    assert_eq!(clean.ping(9).unwrap(), 9, "clean client wedged behind the slow one");
    drop(stream);
    let summary = stop(daemon, &mut clean);
    assert_eq!(summary.protocol_errors, 0, "a slow writer is not a protocol offender");
}

/// The portable fallback: the full request mix — ping, uncached assess,
/// cache hit, run-to-completion stream with a bit-identical final frame —
/// served by the `Scan` poller instead of epoll.
#[test]
fn scan_poller_serves_the_full_request_mix() {
    let daemon =
        start(ServerConfig { workers: 2, poller: PollerKind::Scan, ..ServerConfig::default() });
    let mut client = Client::connect(daemon.addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    assert_eq!(client.ping(3).unwrap(), 3);
    let first = client.assess(tiny_request(11, 2_000)).unwrap();
    assert!(!first.cached);
    let second = client.assess(tiny_request(11, 2_000)).unwrap();
    assert!(second.cached, "identical repeat must be a cache hit under Scan");
    assert_eq!(first.score.to_bits(), second.score.to_bits());

    let mut partials = 0;
    let (streamed, stopped) = client
        .assess_streaming(tiny_request(12, 2_000), 1, |_p| {
            partials += 1;
            ControlFlow::Continue(())
        })
        .unwrap();
    assert!(!stopped);
    assert!(partials > 0);
    let plain = client.assess(tiny_request(12, 2_000)).unwrap();
    assert!(plain.cached, "completed stream must land in the cache");
    assert_eq!(streamed.score.to_bits(), plain.score.to_bits());

    stop(daemon, &mut client);
}

/// Tenant homing: connections that never say `Hello` serve under the
/// `default` tenant, a `Hello` homes (and a later one re-homes) the
/// connection, a malformed tenant id gets an `Error` frame without
/// killing the connection, and every tenant that did work shows up in
/// the per-tenant instrument series.
#[test]
fn hello_homes_connections_and_missing_hello_serves_as_default() {
    let daemon = start(ServerConfig { workers: 2, ..ServerConfig::default() });

    let mut anon = Client::connect(daemon.addr).unwrap();
    anon.set_timeout(Some(Duration::from_secs(60))).unwrap();
    anon.assess(tiny_request(21, 500)).unwrap();

    let mut named = Client::connect(daemon.addr).unwrap();
    named.set_timeout(Some(Duration::from_secs(60))).unwrap();
    assert_eq!(named.hello("team-b").unwrap(), "team-b");
    named.assess(tiny_request(22, 500)).unwrap();
    // A later Hello re-homes the same connection.
    assert_eq!(named.hello("team-c").unwrap(), "team-c");
    named.assess(tiny_request(23, 500)).unwrap();

    // A hostile tenant id is rejected with an Error frame, but the
    // connection survives and keeps serving under its previous tenant.
    let err = named.hello("no spaces allowed").unwrap_err();
    assert!(err.to_string().contains("tenant"), "unhelpful rejection: {err}");
    assert_eq!(named.ping(77).unwrap(), 77, "connection must survive a bad Hello");

    let snap = named.metrics(0).unwrap().snapshot;
    assert!(
        snap.counter("tenant.default.requests_total").unwrap_or(0) >= 1,
        "work without a Hello must be accounted to the default tenant"
    );
    assert_eq!(snap.counter("tenant.team-b.requests_total"), Some(1));
    assert_eq!(snap.counter("tenant.team-c.requests_total"), Some(1));
    assert!(
        snap.histogram("tenant.team-b.latency_us").map(|h| h.count).unwrap_or(0) >= 1,
        "served tenant work must record a per-tenant latency sample"
    );

    stop(daemon, &mut named);
}

/// The admission acceptance: with a per-tenant budget of one, a hog
/// tenant holding its slot with a long stream gets `Busy` on its second
/// request, while a victim tenant's request on the same daemon is
/// admitted and served.
#[test]
fn tenant_budget_isolates_a_saturating_tenant() {
    let daemon =
        start(ServerConfig { workers: 2, tenant_budget: Some(1), ..ServerConfig::default() });

    let mut hog_held = Client::connect(daemon.addr).unwrap();
    hog_held.set_timeout(Some(Duration::from_secs(60))).unwrap();
    assert_eq!(hog_held.hello("hog").unwrap(), "hog");
    let mut hog_rejected = Client::connect(daemon.addr).unwrap();
    hog_rejected.set_timeout(Some(Duration::from_secs(60))).unwrap();
    assert_eq!(hog_rejected.hello("hog").unwrap(), "hog");
    let mut victim = Client::connect(daemon.addr).unwrap();
    victim.set_timeout(Some(Duration::from_secs(60))).unwrap();
    assert_eq!(victim.hello("victim").unwrap(), "victim");

    // The hog's first request: a maximum-length stream that holds its
    // single budget slot. The callback parks on a channel after the
    // first partial so the main thread can probe admission while the
    // slot is provably held, then cancels.
    let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let holder = std::thread::spawn(move || {
        let report = hog_held
            .assess_streaming(tiny_request(31, 1_000_000), 1, |_p| {
                started_tx.send(()).ok();
                done_rx.recv_timeout(Duration::from_secs(30)).ok();
                ControlFlow::Break(())
            })
            .expect("held stream ends with a final frame");
        (hog_held, report)
    });
    started_rx.recv_timeout(Duration::from_secs(30)).expect("first partial");

    // Second hog request: over budget, must bounce as Busy...
    let err = hog_rejected.assess(tiny_request(32, 500)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "expected Busy, got {err}");
    // ...while the victim tenant is admitted and served on the spot.
    let served = victim.assess(tiny_request(33, 500)).unwrap();
    assert!((0.0..=1.0).contains(&served.score));

    done_tx.send(()).unwrap();
    let (mut hog_held, (_answer, stopped)) = holder.join().expect("holder thread");
    assert!(stopped, "the held stream was cancelled by its own callback");

    // Once the slot frees, the rejected hog connection is served again.
    let retry = hog_rejected.assess(tiny_request(32, 500)).expect("freed budget re-admits");
    assert!((0.0..=1.0).contains(&retry.score));

    let snap = victim.metrics(0).unwrap().snapshot;
    assert!(snap.counter("tenant.hog.busy_total").unwrap_or(0) >= 1);
    assert_eq!(snap.counter("tenant.victim.busy_total"), Some(0));
    assert!(snap.counter("tenant.victim.requests_total").unwrap_or(0) >= 1);

    drop(hog_rejected);
    hog_held.shutdown().expect("shutdown ack");
    drop(victim);
    daemon.handle.join().expect("server thread exits cleanly");
}

/// Bind-time compaction: a store whose size/live-ratio thresholds are
/// crossed *by replay* — no append ever revisits them — is compacted
/// before the bind returns, so the first MetricsDump already counts it.
#[test]
fn bind_compacts_a_replay_crossed_threshold() {
    let dir = store_dir("bind-compact");

    // Populate with compaction disabled (an unreachable size floor), so
    // the log carries everything into the restart untouched.
    let populate = start(ServerConfig {
        workers: 2,
        store_dir: Some(dir.clone()),
        store_config: StoreConfig { compact_min_bytes: u64::MAX, ..StoreConfig::default() },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(populate.addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
    for seed in 0..4u64 {
        client.assess(tiny_request(seed, 300)).unwrap();
    }
    stop(populate, &mut client);

    // Restart with thresholds that the replayed log already satisfies.
    // No request appends anything, so only the bind can have compacted.
    let warmed = start(ServerConfig {
        workers: 2,
        store_dir: Some(dir.clone()),
        store_config: StoreConfig { compact_min_bytes: 1, compact_live_ratio: 2.0 },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(warmed.addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
    let snap = client.metrics(0).unwrap().snapshot;
    assert!(
        snap.counter("store.replayed_total").unwrap_or(0) >= 4,
        "the threshold was supposed to be crossed by replay"
    );
    assert_eq!(
        snap.counter("store.appended_total").unwrap_or(0),
        0,
        "no append may have triggered this compaction"
    );
    assert!(snap.counter("store.compactions_total").unwrap_or(0) >= 1, "bind did not compact");

    stop(warmed, &mut client);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Workers send every frame back on one queue keyed by connection token,
/// so a frame could reach the wrong connection: 16 connections stream at
/// once, each with its own `(seed, rounds)`, and each must see only its
/// own partials — `rounds_total` its own request's, `rounds_done` never
/// falling — and a final frame equal to the engine's answer for its
/// request. Under epoll and under the scan poller.
#[test]
fn concurrent_streams_each_get_only_their_own_frames() {
    const STREAMS: u32 = 16;
    let requests: Vec<AssessRequest> =
        (0..STREAMS).map(|i| tiny_request(900 + i as u64, 6_000 + 1_000 * i)).collect();
    let mut pool = EnginePool::new();
    let expected: Vec<AssessResponse> = (requests.iter())
        .map(|req| {
            let spec = spec_for(req.k, req.n, req.assignments.len());
            let plan = build_plan(&spec, &req.assignments).unwrap();
            pool.assess(req, &spec, &plan).unwrap()
        })
        .collect();
    for poller in [PollerKind::Auto, PollerKind::Scan] {
        let daemon = start(ServerConfig { workers: 4, poller, ..ServerConfig::default() });
        let (addr, start_line) = (daemon.addr, Barrier::new(STREAMS as usize));
        let answers: Vec<AssessResponse> = std::thread::scope(|scope| {
            let streams: Vec<_> = (requests.iter())
                .map(|req| {
                    let start_line = &start_line;
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        client.set_timeout(Some(Duration::from_secs(60))).unwrap();
                        start_line.wait();
                        let mut done = 0;
                        let (answer, stopped) = client
                            .assess_streaming(req.clone(), 1, |p| {
                                assert_eq!(p.rounds_total, req.rounds as u64, "a foreign partial");
                                assert!(p.rounds_done >= done, "rounds_done fell below {done}");
                                done = p.rounds_done;
                                ControlFlow::Continue(())
                            })
                            .unwrap();
                        assert!(!stopped && done > 0, "{poller:?}: {done} rounds streamed");
                        answer
                    })
                })
                .collect();
            streams.into_iter().map(|s| s.join().unwrap()).collect()
        });
        assert_eq!(answers, expected, "{poller:?}");
        stop(daemon, &mut Client::connect(addr).unwrap());
    }
}

/// The reactor sleeps while nothing happens: with 64 idle connections
/// attached, the thread that runs it uses fewer than 5 clock ticks of CPU
/// in a second. Only that thread is read — other tests share the process.
#[cfg(target_os = "linux")]
#[test]
fn an_idle_reactor_does_not_spin() {
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let server = Server::bind(("127.0.0.1", 0), config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        tx.send(std::fs::read_link("/proc/thread-self").expect("procfs")).unwrap();
        server.run()
    });
    let task = rx.recv().unwrap();
    let tid = task.file_name().expect("<pid>/task/<tid>").to_owned();
    let stat = PathBuf::from("/proc/self/task").join(tid).join("stat");
    // utime and stime are fields 14 and 15; the command name (field 2)
    // is parenthesised and may hold spaces.
    let ticks = || {
        let stat = std::fs::read_to_string(&stat).expect("the reactor thread's stat");
        let fields = stat[stat.rfind(')').unwrap() + 2..].split(' ');
        fields.skip(11).take(2).map(|f| f.parse::<u64>().unwrap()).sum::<u64>()
    };
    let mut fleet: Vec<Client> = (0..64)
        .map(|i| {
            let mut c = Client::connect(addr).expect("fleet connect");
            assert_eq!(c.ping(i).unwrap(), i);
            c
        })
        .collect();
    let before = ticks();
    std::thread::sleep(Duration::from_secs(1));
    let spent = ticks() - before;
    assert!(spent < 5, "an idle reactor used {spent} clock ticks in one second");
    stop(Daemon { addr, handle }, &mut fleet[0]);
}
