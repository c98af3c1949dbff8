//! Dispatch: what the daemon does with one decoded request. One `match`
//! over [`Request`] decides between answering now, queueing a job
//! (through [`Admission`]) and not answering at all.

use crate::admission::{Admission, Tenant};
use crate::conn::{Inflight, Served, Service};
use crate::engine::{build_plan, shape_for, spec_for};
use crate::protocol::{
    validate_shape, AssessRequest, ErrorCode, Request, Response, TraceResponse, TraceSpan,
    DEFAULT_TENANT,
};
use crate::server::{Job, JobKind, Server, ServerInstruments};
use recloud_assess::assessment_key;
use recloud_obs::{trace, SpanCtx, SpanRecord};
use std::rc::Rc;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

/// What a connection carries from one request to the next.
#[derive(Default)]
pub(crate) struct Session {
    /// The driver's token for the connection; every job carries it.
    token: u64,
    /// Armed by a TraceContext frame; consumed by the next request.
    trace: Option<(u64, u32)>,
    /// Set by `Hello` (a later Hello re-homes the connection); `None`
    /// until first work, then pinned to [`DEFAULT_TENANT`].
    tenant: Option<Rc<Tenant>>,
}

impl Session {
    pub fn new(token: u64) -> Session {
        Session { token, ..Session::default() }
    }
}

/// The books of one admitted job, closed when its final frame arrives.
pub(crate) struct Books {
    /// The open `server.request` span of a traced request.
    pub traced: Option<SpanCtx>,
    /// Index into the per-kind latency histograms.
    pub latency: Option<usize>,
    pub started: Instant,
    pub tenant: Rc<Tenant>,
}

/// A request's answer: the job to admit, with the tenant it counts
/// against, or what the connection gets right away.
type Answer = Result<(JobKind, Rc<Tenant>), Served>;

fn reply<T>(response: Response) -> Result<T, Served> {
    Err(Served::Reply(response))
}

/// The daemon side of every connection on the reactor thread.
pub(crate) struct Dispatch<'a> {
    srv: &'a Server,
    admission: Admission<'a>,
    jobs: Sender<Job>,
    /// Reads the time a reply-now request finished, for its latency sample.
    clock: fn() -> Instant,
}

impl<'a> Dispatch<'a> {
    pub fn new(srv: &'a Server, jobs: Sender<Job>, clock: fn() -> Instant) -> Dispatch<'a> {
        Dispatch { srv, admission: Admission::new(srv), jobs, clock }
    }

    /// The connection's tenant, pinned to [`DEFAULT_TENANT`] on first
    /// work, with this request counted against it.
    fn work_of(&mut self, session: &mut Session) -> Rc<Tenant> {
        let tenant =
            session.tenant.get_or_insert_with(|| self.admission.tenant(DEFAULT_TENANT)).clone();
        tenant.requests_total.inc();
        tenant
    }

    /// An assess-family request, plain and streamed alike: build the plan
    /// and probe the cache (a `cache.lookup` span, `v0` = hit, when
    /// traced). A hit is the answer — for a stream, a degenerate one: the
    /// final frame with no partials, the answer being known in full; a
    /// miss is the job to admit.
    fn assess(
        &mut self,
        req: AssessRequest,
        cadence: Option<u32>,
        tenant: &Tenant,
        traced: Option<SpanCtx>,
        now: Instant,
    ) -> Result<JobKind, Served> {
        let spec = spec_for(req.k, req.n, req.assignments.len());
        let plan = match build_plan(&spec, &req.assignments) {
            Ok(plan) => plan,
            Err(message) => return reply(Response::Error { code: ErrorCode::Invalid, message }),
        };
        let shape = shape_for(req.k, req.n, req.assignments.len());
        let key = assessment_key(req.preset.tag(), &shape, &plan, req.rounds as u64, req.seed);
        let t0 = traced.map(|_| trace::now_us());
        let hit = self.srv.cache.lock().unwrap().get(key);
        if let (Some(SpanCtx { trace_id, span }), Some(t0)) = (traced, t0) {
            let (t1, v0) = (trace::now_us(), hit.is_some() as u64);
            trace::tracer().record(trace_id, span, "cache.lookup", t0, t1, v0, 0);
        }
        if let Some(hit) = hit {
            self.srv.obs.cache_hits.inc();
            self.srv.obs.completed.inc();
            tenant.latency_us.record(micros_since(now, (self.clock)()));
            return reply(Response::Assess(hit));
        }
        self.srv.obs.cache_misses.inc();
        let cancel = Arc::new(AtomicBool::new(false));
        Ok(JobKind::Assess { req, spec, plan, key, cadence, cancel })
    }

    /// An exchange is over: its latency sample, and its trace closed —
    /// finished server-side too, so TraceDump{0} finds it even when the
    /// client never uploads its own spans.
    fn closed(&self, latency: Option<usize>, micros: u64, traced: Option<SpanCtx>) {
        if let Some(i) = latency {
            self.srv.obs.latency[i].record(micros);
        }
        if let Some(ctx) = traced {
            trace::tracer().end(ctx.trace_id, ctx.span);
            trace::tracer().finish(ctx.trace_id);
        }
    }

    /// Admits a job and queues it: the job in flight, or the refusal
    /// (`Busy`, or a worker pool that is gone).
    fn enqueue(
        &mut self,
        kind: JobKind,
        tenant: Rc<Tenant>,
        conn: u64,
        traced: Option<SpanCtx>,
        latency: Option<usize>,
        now: Instant,
    ) -> Result<Served, Response> {
        self.admission.admit(&tenant)?;
        let (streaming, cancel) = match &kind {
            JobKind::Assess { cadence, cancel, .. } => {
                (cadence.is_some(), cadence.map(|_| cancel.clone()))
            }
            JobKind::StreamSearch { .. } => (true, None),
        };
        // The queue.wait span opens here and closes when a worker dequeues
        // the job — admission wait becomes visible in the tree.
        let queue_span = traced
            .map(|ctx| trace::tracer().start(ctx.trace_id, ctx.span, "queue.wait"))
            .unwrap_or(0);
        if self.jobs.send(Job { kind, conn, trace: traced, queue_span }).is_err() {
            self.admission.unadmit(&tenant);
            let message = "worker pool is gone".into();
            return Err(Response::Error { code: ErrorCode::Internal, message });
        }
        let books = Books { traced, latency, started: now, tenant };
        let job = Inflight { cancel, books };
        Ok(if streaming { Served::Stream(job) } else { Served::Wait(job) })
    }
}

impl Service for Dispatch<'_> {
    /// Validates, then serves. The trace frames are connection-side:
    /// TraceContext arms the session's next request, TraceUpload absorbs
    /// the client's spans, TraceDump answers from the tracer; `Hello`
    /// (re-)homes the session's tenant. Every other request consumes the
    /// armed context and runs under a `server.request` span parented
    /// beneath the client's.
    fn serve(&mut self, session: &mut Session, request: Request, now: Instant) -> Served {
        let latency = ServerInstruments::latency_index(&request);
        let srv = self.srv;
        let valid = validate_shape(&request);
        let connection_side = matches!(
            request,
            Request::TraceContext { .. }
                | Request::TraceUpload { .. }
                | Request::TraceDump { .. }
                | Request::Hello { .. }
        );
        let traced = match (&valid, connection_side) {
            (Ok(()), false) => session.trace.take().map(|(trace_id, parent)| SpanCtx {
                trace_id,
                span: trace::tracer().start(trace_id, parent, "server.request"),
            }),
            _ => None,
        };
        let answer: Answer = match valid.map(|()| request) {
            Err(message) => reply(Response::Error { code: ErrorCode::Invalid, message }),
            Ok(Request::TraceContext { trace_id, parent_span }) => {
                trace::tracer().begin(trace_id, 0);
                session.trace = Some((trace_id, parent_span));
                Err(Served::Silent)
            }
            Ok(Request::TraceUpload { trace_id, spans }) => {
                let records: Vec<SpanRecord> = spans
                    .iter()
                    .map(|s| SpanRecord {
                        id: s.id,
                        parent: s.parent,
                        kind: recloud_obs::intern_kind(&s.kind),
                        start_us: s.start_us,
                        end_us: s.end_us,
                        v0: s.v0,
                        v1: s.v1,
                    })
                    .collect();
                trace::tracer().absorb(trace_id, &records);
                trace::tracer().finish(trace_id);
                Err(Served::Silent)
            }
            Ok(Request::TraceDump { trace_id }) => reply(Response::Trace(trace_dump(trace_id))),
            Ok(Request::Hello { tenant }) => reply(match self.admission.hello(&tenant) {
                Ok(state) => {
                    session.tenant = Some(state);
                    Response::HelloAck { tenant }
                }
                Err(message) => Response::Error { code: ErrorCode::Invalid, message },
            }),
            Ok(Request::Ping { token }) => reply(Response::Pong { token }),
            Ok(Request::MetricsDump { journal_tail }) => {
                reply(Response::Metrics(srv.metrics(journal_tail)))
            }
            Ok(Request::Shutdown) => {
                let completed = srv.obs.completed.value();
                srv.begin_shutdown();
                reply(Response::ShutdownAck { completed })
            }
            // A cancel with no stream in flight on this connection: the
            // race it guards against (final frame already sent when the
            // client decided to stop) makes it inherently best-effort, so
            // it is a silent no-op.
            Ok(Request::AssessCancel) => Err(Served::Silent),
            Ok(Request::AssessPlan(req)) => {
                let tenant = self.work_of(session);
                self.assess(req, None, &tenant, traced, now).map(|job| (job, tenant))
            }
            Ok(Request::AssessStream { req, cadence }) => {
                let tenant = self.work_of(session);
                self.assess(req, Some(cadence), &tenant, traced, now).map(|job| (job, tenant))
            }
            Ok(Request::SearchStream { req, workers, iters }) => {
                Ok((JobKind::StreamSearch { req, workers, iters }, self.work_of(session)))
            }
        };
        let served = match answer {
            Ok((kind, tenant)) => {
                match self.enqueue(kind, tenant, session.token, traced, latency, now) {
                    Ok(job) => return job,
                    Err(refusal) => Served::Reply(refusal),
                }
            }
            Err(served) => served,
        };
        // Answered now: the exchange is over.
        self.closed(latency, micros_since(now, (self.clock)()), traced);
        served
    }

    fn finish(&mut self, books: Books, now: Instant) {
        books.tenant.release();
        let micros = micros_since(books.started, now);
        books.tenant.latency_us.record(micros);
        self.closed(books.latency, micros, books.traced);
    }

    fn decoded(&mut self) {
        self.srv.obs.requests_total.inc();
    }

    fn offence(&mut self) {
        self.srv.obs.decode_errors.inc();
    }
}

fn micros_since(start: Instant, end: Instant) -> u64 {
    end.saturating_duration_since(start).as_micros() as u64
}

/// A trace's spans as a `Trace` frame; id 0 names the newest finished
/// trace, an unknown id answers empty.
fn trace_dump(trace_id: u64) -> TraceResponse {
    let id = if trace_id == 0 { trace::tracer().latest_finished().unwrap_or(0) } else { trace_id };
    match trace::tracer().spans(id) {
        Some((spans, dropped)) => TraceResponse {
            trace_id: id,
            dropped,
            spans: spans
                .iter()
                .map(|s| TraceSpan {
                    id: s.id,
                    parent: s.parent,
                    kind: s.kind.to_string(),
                    start_us: s.start_us,
                    end_us: s.end_us,
                    v0: s.v0,
                    v1: s.v1,
                })
                .collect(),
        },
        None => TraceResponse::default(),
    }
}
