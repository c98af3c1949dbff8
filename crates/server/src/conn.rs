//! One connection as a plain state machine: bytes in, requests out to a
//! [`Service`], frames back as bytes. It owns no socket or channel and
//! reads no clock: the driver hands it socket bytes and worker frames as
//! events, writes [`Conn::pending`], reports what the socket took, and
//! passes `now` in. A test (or a simulator) can drive it byte by byte.

use crate::dispatch::{Books, Session};
use crate::protocol::{put_frame, split_frame, ErrorCode, Request, Response};
use recloud_obs::{trace, SpanCtx};
use recloud_sampling::wire::Bytes;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Buffered-outbound cap per connection: a client that lets this much
/// pile up unread is treated as gone, not allowed to grow server memory.
const OUTBOUND_CAP: usize = 16 << 20;

/// What a connection needs from the daemon ([`crate::dispatch`]).
pub(crate) trait Service {
    /// Serves one decoded request of an idle connection.
    fn serve(&mut self, session: &mut Session, request: Request, now: Instant) -> Served;
    /// Closes the books of a job whose final frame just arrived.
    fn finish(&mut self, books: Books, now: Instant);
    /// A complete frame decoded as a request (`server.requests_total`).
    fn decoded(&mut self);
    /// A frame spoke the protocol wrong (`server.decode_errors_total`).
    fn offence(&mut self);
}

/// A [`Service`]'s answer to one request: a reply now, none, or a job
/// whose final frame is the answer — plain, or streaming frames before it.
pub(crate) enum Served {
    Reply(Response),
    Silent,
    Wait(Inflight),
    Stream(Inflight),
}

/// A job admitted on a connection, not yet answered with its final frame.
pub(crate) struct Inflight {
    /// Shared with the worker's drive, which stops feeding once set.
    /// `None` for jobs that cannot stop early: plain requests, and
    /// searches (a population stopped early would answer differently).
    pub cancel: Option<Arc<AtomicBool>>,
    pub books: Books,
}

impl Inflight {
    /// Asks the drive to stop; a no-op for jobs that cannot.
    fn cancel(&self) {
        if let Some(cancel) = &self.cancel {
            cancel.store(true, Ordering::Release);
        }
    }
}

/// Where a connection is in its life.
#[derive(Default)]
enum State {
    /// Reading and serving requests.
    #[default]
    Idle,
    /// A plain job in flight. Pipelined bytes stay buffered and decode
    /// once the final frame is out, so replies keep the request order.
    Waiting(Inflight),
    /// A streamed job in flight. Frames keep decoding, because the client
    /// may cancel; any other frame is a protocol error that stops the
    /// drive, unanswered — the stream's frames own the socket.
    Streaming(Inflight),
    /// The client is gone while a job is in flight: nothing more is
    /// written, and the connection closes once the final frame drains.
    Zombie(Inflight),
    /// Close once the outbound buffer has flushed.
    Closing,
    /// Close now.
    Closed,
}

/// One connection's state machine.
#[derive(Default)]
pub(crate) struct Conn {
    /// Bytes received; `inbound[in_pos..]` is not yet consumed as frames.
    inbound: Vec<u8>,
    in_pos: usize,
    /// Encoded frames; `outbound[out_pos..]` is not yet taken by the socket.
    outbound: Vec<u8>,
    out_pos: usize,
    /// Complete frames taken, and protocol errors — journalled at close.
    frames: u64,
    errors: u64,
    session: Session,
    state: State,
}

impl Conn {
    /// The machine of the connection the driver names `token`: each job
    /// it admits carries the token, and the job's frames come back under it.
    pub fn new(token: u64) -> Conn {
        Conn { session: Session::new(token), ..Conn::default() }
    }

    /// Whether the driver should read the socket: idle, or for a cancel
    /// mid-stream. Never while a plain job is in flight — its client's
    /// pipelined frames wait in the kernel buffer, and a level-triggered
    /// poller would spin on bytes nobody reads.
    pub fn wants_read(&self) -> bool {
        matches!(self.state, State::Idle | State::Streaming(_))
    }

    /// Whether the connection is finished and the driver should close it.
    pub fn done(&self) -> bool {
        match self.state {
            State::Closed => true,
            State::Closing => self.pending().is_empty(),
            _ => false,
        }
    }

    pub fn tally(&self) -> (u64, u64) {
        (self.frames, self.errors)
    }

    /// The encoded bytes the socket has not taken yet.
    pub fn pending(&self) -> &[u8] {
        &self.outbound[self.out_pos..]
    }

    /// The socket took the first `n` pending bytes.
    pub fn wrote(&mut self, n: usize) {
        self.out_pos += n;
        if self.out_pos == self.outbound.len() {
            self.outbound.clear();
            self.out_pos = 0;
        }
    }

    /// Bytes the socket produced: buffer them and serve every frame they
    /// complete.
    pub fn received(&mut self, bytes: &[u8], now: Instant, svc: &mut impl Service) {
        self.inbound.drain(..self.in_pos);
        self.in_pos = 0;
        self.inbound.extend_from_slice(bytes);
        self.process(now, svc);
    }

    /// The peer closed its write side. Idle, buffered bytes that never
    /// completed a frame are a protocol error (counted, unanswered —
    /// nobody is left to read it) and what is already encoded still goes
    /// out; with a job in flight the client is gone.
    pub fn eof(&mut self, svc: &mut impl Service) {
        match self.state {
            State::Idle => {
                if self.in_pos < self.inbound.len() {
                    self.offence(svc);
                }
                self.state = State::Closing;
            }
            State::Closing | State::Closed => {}
            _ => self.broken(),
        }
    }

    /// The client is gone — a socket error, or a client that stopped
    /// reading or speaking the protocol: drop what was never sent, cancel
    /// the drive, and drain any job in flight as a zombie.
    pub fn broken(&mut self) {
        self.outbound.clear();
        self.out_pos = 0;
        self.state = match std::mem::replace(&mut self.state, State::Closed) {
            State::Waiting(job) | State::Streaming(job) | State::Zombie(job) => {
                job.cancel();
                State::Zombie(job)
            }
            _ => State::Closed,
        };
    }

    /// One step of the daemon's shutdown: stop serving, cancel any drive,
    /// and once the flush grace has expired drop what slow readers left
    /// unread. A job in flight still answers with its final frame.
    pub fn shutdown(&mut self, grace_expired: bool) {
        match &self.state {
            State::Idle | State::Closing if grace_expired => self.broken(),
            State::Idle => self.state = State::Closing,
            State::Waiting(job) | State::Streaming(job) | State::Zombie(job) => job.cancel(),
            State::Closing | State::Closed => {}
        }
    }

    /// A frame the worker sent for the job in flight: a `Partial` or
    /// `SearchEvent` is forwarded (recording `partial.emit` when traced),
    /// anything else is the job's final frame.
    pub fn deliver(&mut self, response: Response, now: Instant, svc: &mut impl Service) {
        if !matches!(response, Response::Partial(_) | Response::SearchEvent(_)) {
            return self.finish(response, now, svc);
        }
        let job = self.job().expect("a worker frame with no job in flight");
        let traced = job.books.traced.map(|ctx| (ctx, trace::now_us()));
        self.send(&response);
        if let Some((SpanCtx { trace_id, span }, t0)) = traced {
            let sent = !matches!(self.state, State::Zombie(_)) as u64;
            let t1 = trace::now_us();
            trace::tracer().record(trace_id, span, "partial.emit", t0, t1, sent, 0);
        }
    }

    fn job(&self) -> Option<&Inflight> {
        match &self.state {
            State::Waiting(job) | State::Streaming(job) | State::Zombie(job) => Some(job),
            _ => None,
        }
    }

    /// The job's final frame: answer if the client can still hear it,
    /// close the books, and go back to decoding what the client pipelined
    /// meanwhile.
    fn finish(&mut self, last: Response, now: Instant, svc: &mut impl Service) {
        let (job, next) = match std::mem::replace(&mut self.state, State::Idle) {
            State::Zombie(job) => (job, State::Closed),
            State::Waiting(job) | State::Streaming(job) => (job, State::Idle),
            _ => unreachable!("finish without a job in flight"),
        };
        self.state = next;
        self.send(&last);
        svc.finish(job.books, now);
        self.process(now, svc);
    }

    /// Encodes a frame onto the outbound buffer, unless the client is
    /// gone; past [`OUTBOUND_CAP`] unread bytes it is.
    fn send(&mut self, response: &Response) {
        if matches!(self.state, State::Zombie(_) | State::Closed) {
            return;
        }
        // Reclaim the flushed prefix once it dominates the buffer.
        if self.out_pos > 4096 && self.out_pos * 2 >= self.outbound.len() {
            self.outbound.drain(..self.out_pos);
            self.out_pos = 0;
        }
        put_frame(&mut self.outbound, &response.encode());
        if self.outbound.len() - self.out_pos > OUTBOUND_CAP {
            self.broken();
        }
    }

    /// One protocol error: the connection's tally and the daemon's.
    fn offence(&mut self, svc: &mut impl Service) {
        self.errors += 1;
        svc.offence();
    }

    /// The one place a complete frame leaves the inbound buffer, and so
    /// the one definition of the tallies: every complete frame counts into
    /// `frames`; one that decodes is a request; one that does not — or an
    /// oversized length prefix, never consumed — is a protocol error and
    /// comes back as the `Error` reply an idle connection is owed. `None`
    /// while no frame is complete.
    fn take(&mut self, svc: &mut impl Service) -> Option<Result<Request, Response>> {
        let (code, message) = match split_frame(&self.inbound[self.in_pos..]) {
            Ok(None) => return None,
            Err(message) => (ErrorCode::Oversized, message),
            Ok(Some(payload)) => {
                let payload = Bytes::copy_from_slice(payload);
                self.in_pos += 4 + payload.len();
                self.frames += 1;
                match Request::decode(payload) {
                    Ok(request) => {
                        svc.decoded();
                        return Some(Ok(request));
                    }
                    Err(e) => (ErrorCode::Malformed, e.to_string()),
                }
            }
        };
        self.offence(svc);
        Some(Err(Response::Error { code, message }))
    }

    /// Serves complete frames while the state reads them.
    fn process(&mut self, now: Instant, svc: &mut impl Service) {
        loop {
            let streaming = match self.state {
                State::Idle => false,
                State::Streaming(_) => true,
                _ => return,
            };
            match (self.take(svc), streaming) {
                (None, _) => return,
                (Some(Ok(request)), false) => self.serve(request, now, svc),
                (Some(Ok(Request::AssessCancel)), true) => {
                    if let State::Streaming(job) = &self.state {
                        job.cancel();
                    }
                }
                // An idle connection's undecodable frame: answer, then close.
                (Some(Err(reply)), false) => {
                    self.send(&reply);
                    self.state = State::Closing;
                }
                // Mid-stream, and not a cancel: a decodable request is an
                // offence on top of being a request; an undecodable frame
                // was counted as one when it was taken.
                (Some(offence), true) => {
                    if offence.is_ok() {
                        self.offence(svc);
                    }
                    self.broken();
                }
            }
        }
    }

    /// Hands one request to the service and applies its answer. Two rules
    /// are the connection's: a frame the protocol never answers
    /// (TraceContext, TraceUpload) is never answered — the one answer the
    /// service gives it, a refusal, counts as an offence instead, so a
    /// client that pipelined its next call reads that call's reply next;
    /// and `Shutdown` is the connection's last request.
    fn serve(&mut self, request: Request, now: Instant, svc: &mut impl Service) {
        let unanswered =
            matches!(request, Request::TraceContext { .. } | Request::TraceUpload { .. });
        let last = matches!(request, Request::Shutdown);
        match svc.serve(&mut self.session, request, now) {
            Served::Reply(_) if unanswered => self.offence(svc),
            Served::Reply(reply) => self.send(&reply),
            Served::Silent => {}
            Served::Wait(job) => self.state = State::Waiting(job),
            Served::Stream(job) => self.state = State::Streaming(job),
        }
        if last && matches!(self.state, State::Idle) {
            self.state = State::Closing;
        }
    }
}

#[cfg(test)]
mod tests;
