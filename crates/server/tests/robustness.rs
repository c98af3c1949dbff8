//! Hostile-client robustness: garbage bytes, half-written frames,
//! oversized length prefixes and queue saturation must never panic the
//! server, leak a worker slot, or wedge later well-behaved clients.

use recloud_server::protocol::{
    read_frame, write_frame, AssessRequest, ErrorCode, Preset, Request, Response,
};
use recloud_server::{Client, Server, ServerConfig};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

fn start(config: ServerConfig) -> (SocketAddr, JoinHandle<recloud_server::ServeSummary>) {
    let server = Server::bind(("127.0.0.1", 0), config).expect("bind ephemeral port");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

fn tiny_request(seed: u64) -> AssessRequest {
    let t = Preset::Tiny.scale().build();
    let hosts = t.hosts()[..3].iter().map(|h| h.index() as u32).collect();
    AssessRequest { preset: Preset::Tiny, rounds: 500, seed, k: 2, n: 3, assignments: vec![hosts] }
}

/// After any abuse, the server must still answer a clean client — the
/// strongest "nothing leaked, nothing wedged" check available from the
/// outside.
fn assert_still_serving(addr: SocketAddr) {
    let mut client = Client::connect(addr).expect("server still accepts");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(client.ping(99).expect("server still answers"), 99);
    let a = client.assess(tiny_request(123)).expect("worker slot not leaked");
    assert!((0.0..=1.0).contains(&a.score));
}

#[test]
fn garbage_payload_gets_an_error_frame_and_a_dropped_connection() {
    let (addr, handle) = start(ServerConfig { workers: 1, ..ServerConfig::default() });

    let mut stream = TcpStream::connect(addr).unwrap();
    // A well-framed payload of garbage: length prefix says 16, bytes are noise.
    write_frame(&mut stream, &[0xAB; 16]).unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("error frame before drop");
    match Response::decode(reply.into()).unwrap() {
        Response::Error { message, .. } => assert!(message.contains("magic"), "{message}"),
        other => panic!("expected Error frame, got {other:?}"),
    }
    // The server then closes: the next read is EOF, not a hang.
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(read_frame(&mut stream).unwrap(), None, "connection must be dropped");

    assert_still_serving(addr);
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.protocol_errors, 1);
}

#[test]
fn half_written_frame_then_disconnect_does_not_leak_a_worker() {
    let (addr, handle) = start(ServerConfig { workers: 1, ..ServerConfig::default() });

    {
        let mut stream = TcpStream::connect(addr).unwrap();
        // Announce an 80-byte frame, send 3 bytes, vanish.
        stream.write_all(&80u32.to_le_bytes()).unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
        stream.flush().unwrap();
    } // dropped here — mid-frame disconnect

    // Truncated *inside the length prefix* as well.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&[7u8, 0]).unwrap();
        stream.flush().unwrap();
    }

    assert_still_serving(addr);
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.protocol_errors, 2, "both half-frames counted");
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocating() {
    let (addr, handle) = start(ServerConfig { workers: 1, ..ServerConfig::default() });

    let mut stream = TcpStream::connect(addr).unwrap();
    // 2 GiB claimed; the server must answer Oversized without ever
    // allocating the claimed payload.
    stream.write_all(&0x7FFF_FFFFu32.to_le_bytes()).unwrap();
    stream.flush().unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("oversized must be answered");
    match Response::decode(reply.into()).unwrap() {
        Response::Error { message, .. } => assert!(message.contains("exceeds"), "{message}"),
        other => panic!("expected Error frame, got {other:?}"),
    }
    assert_eq!(read_frame(&mut stream).unwrap(), None, "connection must be dropped");

    assert_still_serving(addr);
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().protocol_errors, 1);
}

#[test]
fn full_queue_answers_busy_and_recovers() {
    // queue_capacity = 0: every dispatchable request is Busy by
    // construction, which pins the admission-control path determinately.
    let (addr, handle) =
        start(ServerConfig { workers: 1, queue_capacity: 0, ..ServerConfig::default() });

    let mut client = Client::connect(addr).unwrap();
    match client.call(&Request::AssessPlan(tiny_request(1))).unwrap() {
        Response::Busy { queued, capacity } => {
            assert_eq!(capacity, 0);
            assert_eq!(queued, 0);
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    // Control frames bypass admission: ping and metrics still answer.
    assert_eq!(client.ping(1).unwrap(), 1);
    let stats = client.metrics(0).unwrap().snapshot;
    assert_eq!(stats.counter("server.busy_total"), Some(1));
    assert_eq!(stats.gauge("server.queue_capacity"), Some(0));

    client.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.busy_rejections, 1);
    assert_eq!(summary.completed, 0);
}

#[test]
fn empty_and_undersized_frames_are_malformed_not_fatal() {
    let (addr, handle) = start(ServerConfig { workers: 1, ..ServerConfig::default() });

    // Zero-length payload: structurally a frame, semantically malformed.
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, &[]).unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("error frame");
    assert!(matches!(Response::decode(reply.into()).unwrap(), Response::Error { .. }));

    // A truncated-but-valid-magic frame (header only, body missing).
    let mut stream = TcpStream::connect(addr).unwrap();
    let whole = Request::Ping { token: 1 }.encode();
    write_frame(&mut stream, &whole[..5]).unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("error frame");
    match Response::decode(reply.into()).unwrap() {
        Response::Error { message, .. } => assert!(message.contains("truncated"), "{message}"),
        other => panic!("expected Error frame, got {other:?}"),
    }

    assert_still_serving(addr);
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().protocol_errors, 2);
}

/// Retired kinds are answered as any unknown kind is: `Error{Malformed}`
/// naming the kind, a dropped connection, and a daemon that still serves.
#[test]
fn retired_kinds_are_answered_as_unknown_kinds() {
    let (addr, handle) = start(ServerConfig { workers: 1, ..ServerConfig::default() });

    let retired = [0x03u8, 0x04, 0x05, 0x0B, 0x84, 0x85, 0x8C];
    for kind in retired {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut payload = Request::Shutdown.encode().to_vec();
        payload[4] = kind;
        write_frame(&mut stream, &payload).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let reply = read_frame(&mut stream).unwrap().expect("error frame before drop");
        match Response::decode(reply.into()).unwrap() {
            Response::Error { code: ErrorCode::Malformed, message } => {
                assert!(message.contains(&format!("kind 0x{kind:02x}")), "{message}")
            }
            other => panic!("expected Error{{Malformed}}, got {other:?}"),
        }
        assert_eq!(read_frame(&mut stream).unwrap(), None, "connection must be dropped");
    }

    assert_still_serving(addr);
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().protocol_errors, retired.len() as u64);
}

/// Starts a long stream on a raw socket and returns once its first
/// `Partial` has arrived — the connection is mid-stream from then on.
fn mid_stream(addr: SocketAddr, seed: u64) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let req = AssessRequest { rounds: 1_000_000, ..tiny_request(seed) };
    write_frame(&mut stream, &Request::AssessStream { req, cadence: 1 }.encode()).unwrap();
    let first = read_frame(&mut stream).unwrap().expect("a first frame");
    assert!(matches!(Response::decode(first.into()).unwrap(), Response::Partial(_)));
    stream
}

/// Reads the connection to its end: the server closes it once the
/// offended stream's drive has stopped.
fn drain(mut stream: TcpStream) {
    let mut rest = Vec::new();
    let _ = std::io::Read::read_to_end(&mut stream, &mut rest);
}

/// Polls the journal for `n` `conn.close` events with the given tally.
fn wait_for_closes(client: &mut Client, frames: u64, errors: u64, n: usize) {
    for _ in 0..2_000 {
        let m = client.metrics(256).unwrap();
        let closes = m.events.iter().filter(|e| e.kind == "conn.close");
        if closes.filter(|e| (e.v0, e.v1) == (frames, errors)).count() >= n {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("no {n} conn.close events with frames={frames} errors={errors}");
}

/// A frame taken mid-stream is tallied exactly as one taken idle: it
/// counts into the connection's frames, a decodable one into
/// `server.requests_total`, and the offence — anything but a cancel —
/// into the connection's and the daemon's error counts.
#[test]
fn mid_stream_frames_reach_the_connection_tally_and_the_right_counters() {
    let (addr, handle) = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut client = Client::connect(addr).unwrap();
    let requests =
        |c: &mut Client| c.metrics(0).unwrap().snapshot.counter("server.requests_total").unwrap();

    // A decodable frame that is not a cancel: a request and an offence.
    let mut pinger = mid_stream(addr, 1);
    let quiet = requests(&mut client);
    write_frame(&mut pinger, &Request::Ping { token: 1 }.encode()).unwrap();
    drain(pinger);
    assert_eq!(requests(&mut client), quiet + 2, "the ping is a request; so is this read");
    wait_for_closes(&mut client, 2, 1, 1);

    // An undecodable frame: an offence, not a request.
    let mut babbler = mid_stream(addr, 2);
    let quiet = requests(&mut client);
    write_frame(&mut babbler, &[0xAB; 16]).unwrap();
    drain(babbler);
    assert_eq!(requests(&mut client), quiet + 1, "garbage is not a request; this read is");
    wait_for_closes(&mut client, 2, 1, 2);
    let m = client.metrics(0).unwrap().snapshot;
    assert_eq!(m.counter("server.decode_errors_total"), Some(2));
    assert_eq!(m.counter("server.stream_cancelled_total"), Some(2));

    client.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().protocol_errors, 2);
}

/// One ledger: after a hit, a miss, a `Busy`, a malformed idle frame and
/// garbage mid-stream, the summary `run` returns is the registry's
/// counters field for field.
#[test]
fn serve_summary_is_the_registry_field_for_field() {
    let (addr, handle) =
        start(ServerConfig { workers: 2, tenant_budget: Some(1), ..ServerConfig::default() });
    let mut client = Client::connect(addr).unwrap();
    assert!(!client.assess(tiny_request(1)).unwrap().cached);
    assert!(client.assess(tiny_request(1)).unwrap().cached);
    // The stream holds the default tenant's one slot: a second miss is Busy.
    let mut streamer = mid_stream(addr, 2);
    let busy = client.assess(tiny_request(3)).unwrap_err();
    assert_eq!(busy.kind(), std::io::ErrorKind::WouldBlock, "{busy}");
    let mut idle = TcpStream::connect(addr).unwrap();
    write_frame(&mut idle, &[0xAB; 16]).unwrap();
    drain(idle);
    write_frame(&mut streamer, &[0xCD; 16]).unwrap();
    drain(streamer);
    wait_for_closes(&mut client, 2, 1, 1);

    let m = client.metrics(0).unwrap().snapshot;
    client.shutdown().unwrap();
    let summary = handle.join().unwrap();
    let counter = |name: &str| m.counter(name).unwrap();
    assert_eq!(summary.received, counter("server.requests_total") + 1, "+ the shutdown frame");
    assert_eq!(summary.completed, counter("server.completed_total"));
    assert_eq!(summary.cache_hits, counter("server.cache_hits_total"));
    assert_eq!(summary.cache_misses, counter("server.cache_misses_total"));
    assert_eq!(summary.busy_rejections, counter("server.busy_total"));
    assert_eq!(summary.protocol_errors, counter("server.decode_errors_total"));
    // A hit, a miss and the cancelled stream completed; the refused miss
    // and the two offences did not.
    assert_eq!(
        (summary.completed, summary.cache_hits, summary.cache_misses),
        (3, 1, 3),
        "{summary:?}"
    );
    assert_eq!((summary.busy_rejections, summary.protocol_errors), (1, 2), "{summary:?}");
}

/// One client cannot grow the `Metrics` frame past what the daemon can
/// send: distinct tenants are capped, a `Hello` past the cap is refused
/// and leaves the connection where it was, known tenants still re-home.
#[test]
fn distinct_tenants_are_capped_so_metrics_stays_sendable() {
    use recloud_server::protocol::{MAX_FRAME_LEN, MAX_TENANTS};
    let (addr, handle) = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let refused = (0..10_000).filter(|i| client.hello(&format!("t{i}")).is_err()).count();
    assert_eq!(refused, 10_000 - MAX_TENANTS);
    let refusal = client.hello("one-more").unwrap_err().to_string();
    assert!(refusal.contains("Invalid") && refusal.contains("tenants"), "{refusal}");

    // Still homed to the last tenant that was accepted.
    client.assess(tiny_request(5)).unwrap();
    let m = client.metrics(0).expect("the snapshot still fits a frame");
    let last = format!("tenant.t{}.requests_total", MAX_TENANTS - 1);
    assert_eq!(m.snapshot.counter(&last), Some(1));
    assert!(Response::Metrics(m).encode().len() <= MAX_FRAME_LEN);
    assert_eq!(client.hello("t0").unwrap(), "t0", "a known tenant re-homes");

    client.shutdown().unwrap();
    handle.join().unwrap();
}
