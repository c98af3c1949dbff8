//! A blocking RCS1 client: one TCP connection, synchronous call/response
//! — plus the streaming assess call, which multiplexes partial frames
//! into a caller-supplied callback.

use crate::protocol::{
    read_frame, write_frame, AssessRequest, AssessResponse, MetricsResponse, PartialResponse,
    Request, Response, SearchEventResponse, SearchRequest, SearchResponse, TraceResponse,
    TraceSpan,
};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::ops::ControlFlow;
use std::time::Duration;

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A connected client. Each call writes one request frame and blocks for
/// the matching response frame.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Bounds how long a single call may block (e.g. for smoke tests
    /// that must not hang a CI pipeline).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// One raw round-trip.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &request.encode())?;
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| bad_data("server closed the connection mid-call"))?;
        Response::decode(payload.into()).map_err(|e| bad_data(e.to_string()))
    }

    /// Pings the server; returns the echoed token.
    pub fn ping(&mut self, token: u64) -> io::Result<u64> {
        match self.call(&Request::Ping { token })? {
            Response::Pong { token } => Ok(token),
            other => Err(bad_data(format!("expected Pong, got {other:?}"))),
        }
    }

    /// Assesses one plan. `Busy` and `Error` frames surface as `Err`.
    pub fn assess(&mut self, request: AssessRequest) -> io::Result<AssessResponse> {
        match self.call(&Request::AssessPlan(request))? {
            Response::Assess(a) => Ok(a),
            Response::Busy { queued, capacity } => {
                Err(io::Error::new(io::ErrorKind::WouldBlock, format!("busy {queued}/{capacity}")))
            }
            Response::Error { code, message } => {
                Err(bad_data(format!("server error {code:?}: {message}")))
            }
            other => Err(bad_data(format!("expected AssessResult, got {other:?}"))),
        }
    }

    /// Streaming assessment: sends an `AssessStream` request and invokes
    /// `on_partial` for every `Partial` frame the server emits (one every
    /// `cadence` chunks). When the callback returns
    /// [`ControlFlow::Break`], an `AssessCancel` is sent and the server
    /// stops feeding chunks; the stream still ends with a final frame —
    /// over fewer rounds when cancelled, bit-identical to the plain
    /// [`Client::assess`] answer when run to completion.
    ///
    /// Returns the final answer plus `stopped_early`: whether this client
    /// asked the server to stop.
    pub fn assess_streaming(
        &mut self,
        request: AssessRequest,
        cadence: u32,
        mut on_partial: impl FnMut(&PartialResponse) -> ControlFlow<()>,
    ) -> io::Result<(AssessResponse, bool)> {
        write_frame(&mut self.stream, &Request::AssessStream { req: request, cadence }.encode())?;
        let mut cancelled = false;
        loop {
            let payload = read_frame(&mut self.stream)?
                .ok_or_else(|| bad_data("server closed the connection mid-stream"))?;
            match Response::decode(payload.into()).map_err(|e| bad_data(e.to_string()))? {
                Response::Partial(p) => {
                    // Once cancelled, drain remaining partials silently —
                    // the cancel races against frames already in flight.
                    if !cancelled && on_partial(&p).is_break() {
                        cancelled = true;
                        write_frame(&mut self.stream, &Request::AssessCancel.encode())?;
                    }
                }
                Response::Assess(a) => return Ok((a, cancelled)),
                Response::Busy { queued, capacity } => {
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        format!("busy {queued}/{capacity}"),
                    ));
                }
                Response::Error { code, message } => {
                    return Err(bad_data(format!("server error {code:?}: {message}")));
                }
                other => return Err(bad_data(format!("unexpected mid-stream frame {other:?}"))),
            }
        }
    }

    /// Streaming parallel search: sends a `SearchStream` request
    /// (`workers` annealing chains; `iters > 0` makes the answer a pure
    /// function of the request, `iters == 0` uses the request's wall-clock
    /// budget) and invokes `on_event` for every `SearchEvent` frame — one
    /// per best-plan improvement in any chain — before returning the
    /// final search result. A search cannot be cancelled without changing
    /// its answer, so unlike [`Client::assess_streaming`] the callback
    /// has no break path.
    pub fn search_streaming(
        &mut self,
        request: SearchRequest,
        workers: u32,
        iters: u32,
        mut on_event: impl FnMut(&SearchEventResponse),
    ) -> io::Result<SearchResponse> {
        write_frame(
            &mut self.stream,
            &Request::SearchStream { req: request, workers, iters }.encode(),
        )?;
        loop {
            let payload = read_frame(&mut self.stream)?
                .ok_or_else(|| bad_data("server closed the connection mid-stream"))?;
            match Response::decode(payload.into()).map_err(|e| bad_data(e.to_string()))? {
                Response::SearchEvent(e) => on_event(&e),
                Response::Search(s) => return Ok(s),
                Response::Busy { queued, capacity } => {
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        format!("busy {queued}/{capacity}"),
                    ));
                }
                Response::Error { code, message } => {
                    return Err(bad_data(format!("server error {code:?}: {message}")));
                }
                other => return Err(bad_data(format!("unexpected mid-stream frame {other:?}"))),
            }
        }
    }

    /// Introduces this connection as `tenant` for admission accounting:
    /// every later request on it counts against that tenant's in-flight
    /// budget and metrics series. Returns the tenant id the server
    /// acknowledged. A connection that never says hello serves as the
    /// `default` tenant; a second hello re-homes the connection.
    pub fn hello(&mut self, tenant: &str) -> io::Result<String> {
        match self.call(&Request::Hello { tenant: tenant.to_string() })? {
            Response::HelloAck { tenant } => Ok(tenant),
            Response::Error { code, message } => {
                Err(bad_data(format!("server error {code:?}: {message}")))
            }
            other => Err(bad_data(format!("expected HelloAck, got {other:?}"))),
        }
    }

    /// Sends a bare `AssessCancel` frame. No response is defined for it;
    /// outside a stream the server treats it as a silent no-op.
    /// [`Client::assess_streaming`] sends it automatically when its
    /// callback breaks — this is only for exercising the stale path.
    pub fn cancel(&mut self) -> io::Result<()> {
        write_frame(&mut self.stream, &Request::AssessCancel.encode())
    }

    /// Arms tracing for this connection's next request: the server will
    /// record its work as a span tree under `parent_span` in `trace_id`.
    /// Fire-and-forget — the server sends no response frame.
    pub fn set_trace(&mut self, trace_id: u64, parent_span: u32) -> io::Result<()> {
        write_frame(&mut self.stream, &Request::TraceContext { trace_id, parent_span }.encode())
    }

    /// Ships this client's completed spans to the server, which absorbs
    /// them into the trace and marks it finished. Fire-and-forget.
    pub fn trace_upload(&mut self, trace_id: u64, spans: Vec<TraceSpan>) -> io::Result<()> {
        write_frame(&mut self.stream, &Request::TraceUpload { trace_id, spans }.encode())
    }

    /// Fetches a trace's assembled span tree (`trace_id` 0 asks for the
    /// most recently finished trace).
    pub fn trace_dump(&mut self, trace_id: u64) -> io::Result<TraceResponse> {
        match self.call(&Request::TraceDump { trace_id })? {
            Response::Trace(t) => Ok(t),
            Response::Error { code, message } => {
                Err(bad_data(format!("server error {code:?}: {message}")))
            }
            other => Err(bad_data(format!("expected TraceResult, got {other:?}"))),
        }
    }

    /// Fetches the server's full instrument snapshot plus the newest
    /// `journal_tail` journal events (see `Request::MetricsDump`).
    pub fn metrics(&mut self, journal_tail: u32) -> io::Result<MetricsResponse> {
        match self.call(&Request::MetricsDump { journal_tail })? {
            Response::Metrics(m) => Ok(m),
            other => Err(bad_data(format!("expected MetricsResult, got {other:?}"))),
        }
    }

    /// Asks the server to drain and exit; returns its lifetime completed
    /// count.
    pub fn shutdown(&mut self) -> io::Result<u64> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownAck { completed } => Ok(completed),
            other => Err(bad_data(format!("expected ShutdownAck, got {other:?}"))),
        }
    }
}
