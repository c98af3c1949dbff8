//! The connection machine driven with no socket: every request frame of
//! `golden_frames.txt`, alone and in every pipelined pair, split at every
//! byte boundary, must come out exactly as when it arrives in one piece.

use super::*;
use crate::admission::Tenant;
use crate::protocol::{put_frame, PartialResponse, Request};
use recloud_obs::Registry;
use std::rc::Rc;

/// The request frames of `golden_frames.txt`, transport-framed.
fn golden_requests() -> Vec<Vec<u8>> {
    let unhex = |hex: &str| -> Vec<u8> {
        (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
    };
    let frames: Vec<Vec<u8>> = include_str!("../golden_frames.txt")
        .lines()
        .map(|line| line.split_once(' ').expect("kind hex"))
        .filter(|(kind, _)| u8::from_str_radix(kind.trim_start_matches("0x"), 16).unwrap() < 0x80)
        .map(|(_, hex)| frame(&unhex(hex)))
        .collect();
    assert!(frames.len() >= 11, "every request kind has a golden line");
    frames
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    put_frame(&mut out, payload);
    out
}

fn framed(request: &Request) -> Vec<u8> {
    frame(&request.encode())
}

/// A service that records what reaches it and answers in the daemon's
/// shapes: plain work waits, streams stream, the trace frames and a stale
/// cancel get nothing, a trace id of 0 is refused, the rest reply.
struct Mock {
    registry: Registry,
    served: Vec<Request>,
    decoded: u64,
    offences: u64,
    finished: u64,
    /// The jobs handed out, in order: their cancel flags, and whether
    /// each streams.
    workers: Vec<(Option<Arc<AtomicBool>>, bool)>,
}

impl Mock {
    fn new() -> Mock {
        let registry = Registry::new();
        Mock { registry, served: vec![], decoded: 0, offences: 0, finished: 0, workers: vec![] }
    }

    fn job(&mut self, streams: bool, cancellable: bool, now: Instant) -> Inflight {
        let cancel = cancellable.then(|| Arc::new(AtomicBool::new(false)));
        self.workers.push((cancel.clone(), streams));
        let tenant = Rc::new(Tenant::new(&self.registry, "mock"));
        let books = Books { traced: None, latency: None, started: now, tenant };
        Inflight { cancel, books }
    }
}

impl Service for Mock {
    fn serve(&mut self, _: &mut Session, request: Request, now: Instant) -> Served {
        self.served.push(request.clone());
        match request {
            Request::AssessPlan(_) => Served::Wait(self.job(false, false, now)),
            Request::AssessStream { .. } => Served::Stream(self.job(true, true, now)),
            Request::SearchStream { .. } => Served::Stream(self.job(true, false, now)),
            Request::TraceContext { trace_id: 0, .. } => Served::Reply(Response::Error {
                code: ErrorCode::Invalid,
                message: "trace id 0 is reserved".into(),
            }),
            Request::TraceContext { .. } | Request::TraceUpload { .. } | Request::AssessCancel => {
                Served::Silent
            }
            Request::Ping { token } => Served::Reply(Response::Pong { token }),
            Request::Shutdown => Served::Reply(Response::ShutdownAck { completed: 0 }),
            Request::Hello { tenant } => Served::Reply(Response::HelloAck { tenant }),
            Request::MetricsDump { .. } | Request::TraceDump { .. } => {
                Served::Reply(Response::Pong { token: 0xFEED })
            }
        }
    }

    fn finish(&mut self, _: Books, _: Instant) {
        self.finished += 1;
    }

    fn decoded(&mut self) {
        self.decoded += 1;
    }

    fn offence(&mut self) {
        self.offences += 1;
    }
}

/// Everything observable about one drive of the machine.
#[derive(Debug, PartialEq)]
struct Outcome {
    served: Vec<Request>,
    /// Every byte the machine asked the socket to write, in order.
    wire: Vec<u8>,
    tally: (u64, u64),
    counted: (u64, u64),
    finished: u64,
    cancelled: Vec<bool>,
    /// What the machine wanted once the input was in, before any job
    /// answered: (read, write, close).
    settled: (bool, bool, bool),
    /// Whether it closes once every job has answered, and again after
    /// the peer's EOF.
    done_after_jobs: bool,
    done_after_eof: bool,
}

/// Feeds `stream` in the pieces `cuts` marks, the socket taking every
/// byte the machine has pending after each piece; then answers every job
/// in order — one `Partial` if it streams, then a final frame — and
/// finally reports EOF.
fn drive(stream: &[u8], cuts: &[usize]) -> Outcome {
    let now = Instant::now();
    let mut conn = Conn::default();
    let mut svc = Mock::new();
    let mut wire = Vec::new();
    let mut take = |conn: &mut Conn| {
        wire.extend_from_slice(conn.pending());
        conn.wrote(conn.pending().len());
    };
    let mut from = 0;
    for &to in cuts.iter().chain([&stream.len()]) {
        conn.received(&stream[from..to], now, &mut svc);
        take(&mut conn);
        from = to;
    }
    let settled = (conn.wants_read(), !conn.pending().is_empty(), conn.done());
    let mut answered = 0;
    while answered < svc.workers.len() {
        if svc.workers[answered].1 {
            let partial = PartialResponse { rounds_done: 1, rounds_total: 2, score: 0.5, ciw: 0.1 };
            conn.deliver(Response::Partial(partial), now, &mut svc);
        }
        conn.deliver(Response::Pong { token: 1_000 + answered as u64 }, now, &mut svc);
        answered += 1;
        take(&mut conn);
    }
    let done_after_jobs = conn.done();
    conn.eof(&mut svc);
    take(&mut conn);
    Outcome {
        served: svc.served,
        wire,
        tally: conn.tally(),
        counted: (svc.decoded, svc.offences),
        finished: svc.finished,
        cancelled: svc
            .workers
            .iter()
            .map(|(c, _)| c.as_ref().is_some_and(|c| c.load(Ordering::Acquire)))
            .collect(),
        settled,
        done_after_jobs,
        done_after_eof: conn.done(),
    }
}

/// Drives `stream` whole, then split once at every byte boundary and fed
/// a byte at a time; every drive must match the whole one, which is
/// returned.
fn split_everywhere(stream: &[u8]) -> Outcome {
    let whole = drive(stream, &[]);
    for cut in 1..stream.len() {
        assert_eq!(drive(stream, &[cut]), whole, "split at byte {cut} of {stream:02x?}");
    }
    let bytes: Vec<usize> = (1..stream.len()).collect();
    assert_eq!(drive(stream, &bytes), whole, "byte at a time: {stream:02x?}");
    whole
}

#[test]
fn every_golden_request_survives_every_split() {
    for stream in golden_requests() {
        let whole = split_everywhere(&stream);
        assert_eq!(whole.served.len(), 1, "{whole:?}");
        assert_eq!(whole.tally, (1, 0), "{whole:?}");
        assert_eq!(whole.counted, (1, 0), "{whole:?}");
        assert!(whole.done_after_eof, "{whole:?}");
    }
}

#[test]
fn every_pipelined_pair_survives_every_split() {
    let frames = golden_requests();
    for a in &frames {
        for b in &frames {
            split_everywhere(&[a.as_slice(), b].concat());
        }
    }
}

fn stream_request() -> Request {
    let stream = golden_requests().into_iter().find(|f| f[8] == 0x08).expect("AssessStream line");
    Request::decode(Bytes::copy_from_slice(&stream[4..])).unwrap()
}

#[test]
fn a_mid_stream_cancel_stops_the_drive_and_nothing_else() {
    let stream = stream_request();
    let whole = split_everywhere(&[framed(&stream), framed(&Request::AssessCancel)].concat());
    assert_eq!(whole.served, vec![stream], "the cancel is not served");
    assert_eq!((whole.tally, whole.counted), ((2, 0), (2, 0)));
    assert_eq!(whole.cancelled, vec![true]);
    assert_eq!(whole.settled, (true, false, false), "still streaming, still reading");
    // The partial and the final frame both reach the client.
    assert_eq!(whole.wire.len(), 2 * 4 + 37 + 13, "{:02x?}", whole.wire);
}

#[test]
fn a_mid_stream_request_is_an_offence_that_silences_the_connection() {
    let stream = stream_request();
    let whole = split_everywhere(&[framed(&stream), framed(&Request::Ping { token: 5 })].concat());
    assert_eq!(whole.served, vec![stream]);
    assert_eq!((whole.tally, whole.counted), ((2, 1), (2, 1)), "a request and an offence");
    assert_eq!(whole.cancelled, vec![true]);
    assert_eq!(whole.settled, (false, false, false), "a zombie waits for its job");
    assert!(whole.wire.is_empty(), "nothing more is written: {:02x?}", whole.wire);
    assert_eq!(whole.finished, 1);
    assert!(whole.done_after_jobs);
}

#[test]
fn frames_pipelined_behind_a_plain_job_wait_for_its_answer() {
    let plan = golden_requests().into_iter().find(|f| f[8] == 0x02).expect("AssessPlan line");
    let whole = split_everywhere(&[plan, framed(&Request::Ping { token: 9 })].concat());
    assert_eq!(whole.settled, (false, false, false), "waiting, not reading");
    assert_eq!(whole.served.len(), 2, "the ping is served after the plan's answer");
    let pong = |token| frame(&Response::Pong { token }.encode());
    assert_eq!(whole.wire, [pong(1_000), pong(9)].concat(), "a plain job forwards no partial");
}

#[test]
fn a_refused_fire_and_forget_frame_gets_no_reply() {
    let refused = Request::TraceContext { trace_id: 0, parent_span: 1 };
    let ping = Request::Ping { token: 3 };
    let whole = split_everywhere(&[framed(&refused), framed(&ping)].concat());
    assert_eq!(
        whole.wire,
        frame(&Response::Pong { token: 3 }.encode()),
        "the ping's answer comes next"
    );
    assert_eq!((whole.tally, whole.counted), ((2, 1), (2, 1)));
    assert!(!whole.done_after_jobs, "the connection stays open");
}

#[test]
fn malformed_oversized_and_cut_off_frames_are_answered_or_counted_and_close() {
    let garbage = split_everywhere(&frame(&[0xAB; 16]));
    assert_eq!((garbage.tally, garbage.counted), ((1, 1), (0, 1)));
    assert_eq!(garbage.settled, (false, false, true), "the Error frame went out: close");
    assert!(matches!(
        Response::decode(Bytes::copy_from_slice(&garbage.wire[4..])),
        Ok(Response::Error { code: ErrorCode::Malformed, .. })
    ));
    let oversized = split_everywhere(&0x7FFF_FFFFu32.to_le_bytes());
    assert_eq!((oversized.tally, oversized.counted), ((0, 1), (0, 1)));
    assert!(matches!(
        Response::decode(Bytes::copy_from_slice(&oversized.wire[4..])),
        Ok(Response::Error { code: ErrorCode::Oversized, .. })
    ));
    // Half a frame, then EOF: counted, unanswered.
    let mut conn = Conn::default();
    let mut svc = Mock::new();
    conn.received(&framed(&Request::Shutdown)[..6], Instant::now(), &mut svc);
    conn.eof(&mut svc);
    assert_eq!((conn.tally(), svc.offences, conn.pending().len()), ((0, 1), 1, 0));
    assert!(conn.done());
}
