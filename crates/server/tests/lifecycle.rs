//! Two edges of a connection's and a daemon's life over real TCP: a
//! fire-and-forget frame the daemon refuses must not produce a reply the
//! client would read as the answer to its next call, and an embedder's
//! `begin_shutdown` from another thread must stop a parked reactor.

use recloud_server::protocol::{
    read_frame, write_frame, Request, Response, TraceSpan, MAX_TRACE_SPANS,
};
use recloud_server::{Client, Server, ServerConfig};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn decode_errors(client: &mut Client) -> u64 {
    client.metrics(0).unwrap().snapshot.counter("server.decode_errors_total").unwrap()
}

/// `TraceContext{trace_id: 0}` and a span flood fail validation. The
/// protocol gives those frames no response at all, so the refusal is
/// counted as a protocol error and the connection stays open: the `Pong`
/// for the `Ping` pipelined behind each is the next frame on the wire.
#[test]
fn a_refused_fire_and_forget_frame_gets_no_reply() {
    let server = Server::bind(("127.0.0.1", 0), ServerConfig { workers: 1, ..Default::default() })
        .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let span = TraceSpan {
        id: 1,
        parent: 0,
        kind: "client.call".into(),
        start_us: 1,
        end_us: 2,
        v0: 0,
        v1: 0,
    };
    let flood = vec![span; MAX_TRACE_SPANS as usize + 1];
    let refused = [
        Request::TraceContext { trace_id: 0, parent_span: 1 },
        Request::TraceUpload { trace_id: 7, spans: flood },
    ];
    for (token, request) in refused.into_iter().enumerate() {
        let before = decode_errors(&mut client);
        write_frame(&mut stream, &request.encode()).unwrap();
        write_frame(&mut stream, &Request::Ping { token: token as u64 }.encode()).unwrap();
        let next = read_frame(&mut stream).unwrap().expect("the connection stays open");
        match Response::decode(next.into()).unwrap() {
            Response::Pong { token: got } => assert_eq!(got, token as u64),
            other => panic!("the ping's answer must come next, got {other:?}"),
        }
        assert_eq!(decode_errors(&mut client), before + 1, "one protocol error per refusal");
    }

    client.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().protocol_errors, 2);
}

/// The shutdown wake path on its own: no frame arrives, so nothing but
/// `begin_shutdown` can wake the reactor parked in its poller wait.
#[test]
fn begin_shutdown_from_another_thread_stops_a_parked_reactor() {
    let server = Arc::new(
        Server::bind(("127.0.0.1", 0), ServerConfig { workers: 1, ..Default::default() })
            .expect("bind ephemeral port"),
    );
    let runner = server.clone();
    let handle = std::thread::spawn(move || runner.run());
    // Let the reactor go idle and park.
    std::thread::sleep(Duration::from_millis(300));
    assert!(!handle.is_finished());

    let asked = Instant::now();
    server.begin_shutdown();
    let summary = handle.join().expect("the reactor exits cleanly");
    assert!(asked.elapsed() < Duration::from_secs(1), "run() took {:?}", asked.elapsed());
    assert_eq!(summary.received, 0);
}
