//! The placement-as-a-service daemon.
//!
//! Thread topology (all scoped — no detached threads; O(workers) total,
//! independent of connection count):
//!
//! ```text
//!                 ┌─────────────────── reactor thread ──────────────────┐
//!  TCP clients ──▶│ driver: accept, readiness poll, socket reads/writes │
//!   (thousands,   │ conn: one sans-I/O machine per connection           │
//!    nonblocking) │ dispatch + admission: answer now, or enqueue a job  │
//!                 └─────────────────────────────────────────────────────┘
//!        │ admission (tenant budget, then queue depth < capacity)
//!        ▼
//!   bounded job queue (one shared mpsc receiver + atomic depth)
//!        │                          ▲ completion queue of (token, frame)
//!        ▼                          │ + reactor waker
//!   worker pool (scoped): EnginePool per worker ─────┘
//! ```
//!
//! Workers never touch sockets: they queue each frame under the job's
//! connection token on the one completion queue and ring the armed
//! [`Waker`]; the reactor hands it to that connection as an event, so a
//! partial frame forwards after one wake byte, not a poll interval.
//! Shutdown is graceful by construction: [`Server::begin_shutdown`] (a
//! `Shutdown` frame, or an embedder) flips a flag and rings the same
//! waker; the reactor stops accepting, cancels streaming drives, drains
//! every admitted job to its final frame, flushes, and only then drops
//! the job sender so the worker pool exits — the scope joins every thread
//! before [`Server::run`] returns.

use crate::cache::ResultCache;
use crate::driver::Driver;
use crate::engine::EnginePool;
use crate::protocol::{
    AssessRequest, AssessResponse, ErrorCode, MetricsResponse, PartialResponse, Request, Response,
    SearchEventResponse, SearchRequest,
};
use crate::reactor::{PollerKind, Waker};
use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_assess::PartialEstimate;
use recloud_obs::{trace, Counter, Gauge, Histogram, KindId, Registry, SpanCtx};
use recloud_store::{Entry as StoreEntry, Op as StoreOp, Store, StoreConfig};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// Tunables of one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Assessment worker threads.
    pub workers: usize,
    /// Admission-control bound on queued-but-unstarted jobs; at this
    /// depth new work is answered with `Busy`.
    pub queue_capacity: usize,
    /// Result-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Durable result store directory. `Some` makes every uncached
    /// assessment append to the spill log and replays the log into the
    /// cache on bind, before any connection is accepted — the daemon's
    /// one warm start.
    pub store_dir: Option<PathBuf>,
    /// Durable-store tuning (auto-compaction thresholds); only
    /// consulted when `store_dir` is set.
    pub store_config: StoreConfig,
    /// Per-tenant in-flight budget: a tenant with this many admitted,
    /// unfinished jobs gets `Busy` while every other tenant is
    /// unaffected. `None` disables per-tenant admission (the global
    /// queue bound still applies).
    pub tenant_budget: Option<usize>,
    /// Readiness backend; `Auto` uses epoll on Linux. Tests force
    /// `Scan` to cover the portable fallback.
    pub poller: PollerKind,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(8);
        ServerConfig {
            workers,
            queue_capacity: 64,
            cache_capacity: 4_096,
            store_dir: None,
            store_config: StoreConfig::default(),
            tenant_budget: None,
            poller: PollerKind::Auto,
        }
    }
}

/// Final counter snapshot returned by [`Server::run`]: six of the
/// server registry's counters under the names embedders print. There is
/// one ledger — a `MetricsDump` taken at the same instant reads the same
/// numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests decoded, all kinds (`server.requests_total`).
    pub received: u64,
    /// Jobs completed by workers plus cache hits (`server.completed_total`).
    pub completed: u64,
    /// Assessments answered from the result cache
    /// (`server.cache_hits_total`).
    pub cache_hits: u64,
    /// Assessments that had to run (`server.cache_misses_total`).
    pub cache_misses: u64,
    /// Requests turned away with `Busy` (`server.busy_total`).
    pub busy_rejections: u64,
    /// Frames that spoke the protocol wrong: undecodable, oversized, cut
    /// off by EOF, or anything but a cancel mid-stream
    /// (`server.decode_errors_total`).
    pub protocol_errors: u64,
}

/// Request kinds that get their own latency histogram. `Shutdown` is
/// excluded — its "latency" is the drain, not a serving cost — and so is
/// `AssessCancel`, which has no reply frame. A `stream` sample is the
/// whole exchange, first partial to final frame.
const LATENCY_KINDS: [&str; 5] = ["ping", "assess", "metrics", "stream", "search_stream"];

/// Per-server observability handles, backed by a private
/// [`Registry`] so concurrent servers (and tests) see isolated,
/// exactly-attributable numbers. [`Server::metrics`] merges this
/// registry with the process-wide one, so a `MetricsDump` frame also
/// carries the assess/search-layer instruments.
pub(crate) struct ServerInstruments {
    pub(crate) registry: Registry,
    pub(crate) requests_total: Arc<Counter>,
    /// Jobs a worker finished without error, plus cache hits.
    pub(crate) completed: Arc<Counter>,
    pub(crate) cache_hits: Arc<Counter>,
    pub(crate) cache_misses: Arc<Counter>,
    pub(crate) cache_evictions: Arc<Counter>,
    pub(crate) busy_rejections: Arc<Counter>,
    pub(crate) decode_errors: Arc<Counter>,
    pub(crate) queue_depth: Arc<Gauge>,
    /// Streams whose drive was cancelled before every chunk ran (client
    /// cancel, client hangup, or shutdown).
    pub(crate) stream_cancelled: Arc<Counter>,
    /// Operations (`Put` + `Evict`) appended to the durable store.
    pub(crate) store_appended: Arc<Counter>,
    /// Operations replayed from the store into the cache at bind.
    pub(crate) store_replayed: Arc<Counter>,
    /// Compaction passes the store ran (after replay at bind, and when
    /// an append crosses the thresholds).
    pub(crate) store_compactions: Arc<Counter>,
    /// On-disk bytes of the store's log.
    pub(crate) store_bytes: Arc<Gauge>,
    /// Accounting bytes resident in the result cache.
    pub(crate) cache_bytes: Arc<Gauge>,
    /// Connections currently registered with the reactor (streaming,
    /// idle and zombie alike).
    pub(crate) connections_open: Arc<Gauge>,
    /// Wall-clock per served request, admission wait included, indexed
    /// like [`LATENCY_KINDS`].
    pub(crate) latency: [Arc<Histogram>; LATENCY_KINDS.len()],
    /// Journal event emitted when a connection closes: `v0` = complete
    /// frames it sent, `v1` = protocol errors it produced.
    pub(crate) conn_close: KindId,
    /// Journal event emitted when a stream's drive is cancelled: `v0` =
    /// rounds done, `v1` = rounds the cancel saved.
    pub(crate) stream_cancel: KindId,
}

impl ServerInstruments {
    fn new(config: &ServerConfig) -> Self {
        let registry = Registry::new();
        // Set once: the configuration a stats reader needs beside the
        // queue-depth gauge.
        registry.gauge("server.workers").set(config.workers as i64);
        registry.gauge("server.queue_capacity").set(config.queue_capacity as i64);
        let latency =
            LATENCY_KINDS.map(|kind| registry.histogram(&format!("server.latency_us.{kind}")));
        let conn_close = registry.journal().kind_id("conn.close");
        let stream_cancel = registry.journal().kind_id("stream.cancel");
        ServerInstruments {
            requests_total: registry.counter("server.requests_total"),
            completed: registry.counter("server.completed_total"),
            cache_hits: registry.counter("server.cache_hits_total"),
            cache_misses: registry.counter("server.cache_misses_total"),
            cache_evictions: registry.counter("server.cache_evictions_total"),
            busy_rejections: registry.counter("server.busy_total"),
            decode_errors: registry.counter("server.decode_errors_total"),
            queue_depth: registry.gauge("server.queue_depth"),
            stream_cancelled: registry.counter("server.stream_cancelled_total"),
            store_appended: registry.counter("store.appended_total"),
            store_replayed: registry.counter("store.replayed_total"),
            store_compactions: registry.counter("store.compactions_total"),
            store_bytes: registry.gauge("store.bytes"),
            cache_bytes: registry.gauge("server.cache_bytes"),
            connections_open: registry.gauge("server.connections_open"),
            latency,
            conn_close,
            stream_cancel,
            registry,
        }
    }

    /// Index into [`ServerInstruments::latency`] for a decoded request,
    /// `None` for kinds without a latency histogram.
    pub(crate) fn latency_index(request: &Request) -> Option<usize> {
        match request {
            Request::Ping { .. } => Some(0),
            Request::AssessPlan(_) => Some(1),
            Request::MetricsDump { .. } => Some(2),
            Request::AssessStream { .. } => Some(3),
            Request::SearchStream { .. } => Some(4),
            // Connection-side bookkeeping and setup, not served work.
            Request::Shutdown
            | Request::AssessCancel
            | Request::TraceDump { .. }
            | Request::TraceContext { .. }
            | Request::TraceUpload { .. }
            | Request::Hello { .. } => None,
        }
    }
}

pub(crate) enum JobKind {
    /// AssessPlan and AssessStream alike (a plain request has no
    /// `cadence`, and nobody else holds its cancel flag).
    Assess {
        req: AssessRequest,
        spec: ApplicationSpec,
        plan: DeploymentPlan,
        key: u128,
        /// Forward one `Partial` every this many fed chunks.
        cadence: Option<u32>,
        /// The engine checks it between chunks and stops once it is set.
        cancel: Arc<AtomicBool>,
    },
    /// A streamed parallel search. No cancel flag: stopping an annealing
    /// population early would change its answer, so the drive always runs
    /// its full budget (the reactor merely stops forwarding events when
    /// the client goes away).
    StreamSearch { req: SearchRequest, workers: u32, iters: u32 },
}

pub(crate) struct Job {
    pub(crate) kind: JobKind,
    /// The token of the connection the job's frames go back to.
    pub(crate) conn: u64,
    /// Trace context of a traced request — `span` is the server-side
    /// request span the worker's spans hang under.
    pub(crate) trace: Option<SpanCtx>,
    /// Open `queue.wait` span the worker closes on dequeue (0 = none).
    pub(crate) queue_span: u32,
}

/// A worker's frame for the connection the driver names with the token.
pub(crate) type Completion = (u64, Response);

/// A dequeued job's one way back: each frame goes onto the completion
/// queue under the job's connection token and rings the reactor's waker.
/// Dropped before its final frame (`run_job` panicked), it answers
/// `Error{Internal}` itself, so the connection is never left waiting.
struct Reply<'a> {
    conn: u64,
    done: &'a Sender<Completion>,
    waker: &'a Waker,
    finished: bool,
}

impl Reply<'_> {
    /// A frame before the final one (`Partial`, `SearchEvent`).
    fn send(&self, response: Response) {
        let _ = self.done.send((self.conn, response));
        // Forward now instead of at the reactor's next poll tick.
        self.waker.wake();
    }

    /// The job's final frame; nothing follows it.
    fn finish(mut self, response: Response) {
        self.finished = true;
        self.send(response);
    }
}

impl Drop for Reply<'_> {
    fn drop(&mut self) {
        if !self.finished {
            let message = "worker dropped the job".into();
            self.send(Response::Error { code: ErrorCode::Internal, message });
        }
    }
}

/// One bound daemon; [`Server::run`] serves until a `Shutdown` frame.
pub struct Server {
    pub(crate) listener: TcpListener,
    local_addr: SocketAddr,
    pub(crate) config: ServerConfig,
    pub(crate) obs: ServerInstruments,
    pub(crate) cache: Mutex<ResultCache>,
    /// The durable spill log (`--store`); every uncached assessment is
    /// appended, evictions become tombstones.
    pub(crate) store: Option<Mutex<Store>>,
    /// Queued-but-unstarted jobs: admission bumps it, a worker's dequeue
    /// drops it.
    pub(crate) depth: AtomicUsize,
    pub(crate) shutdown: AtomicBool,
    /// The reactor's one wake path: workers ring it when a frame is
    /// queued, [`Server::begin_shutdown`] when the flag goes up.
    pub(crate) waker: Waker,
}

impl Server {
    /// Binds the daemon (port 0 picks an ephemeral port — read it back
    /// with [`Server::local_addr`]).
    ///
    /// With [`ServerConfig::store_dir`] set, the spill log is opened
    /// (recovering its longest valid prefix) and replayed into the LRU
    /// cache *before* the bind returns — a restarted daemon accepts its
    /// first connection already warm. A log that replay leaves past its
    /// compaction thresholds is compacted once, here: no append would
    /// revisit them. A failed compaction only logs a warning.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        assert!(config.workers >= 1, "need at least one worker");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let obs = ServerInstruments::new(&config);
        let mut cache = ResultCache::new(config.cache_capacity);
        let store = match &config.store_dir {
            Some(dir) => {
                let (mut store, recovery) = Store::open(dir, config.store_config)?;
                for op in &recovery.ops {
                    match op {
                        StoreOp::Put(e) => _ = cache.insert(e.key, entry_response(e)),
                        StoreOp::Evict(key) => _ = cache.remove(*key),
                    }
                    obs.store_replayed.inc();
                }
                if store.should_compact() {
                    match store.compact() {
                        Ok(_) => obs.store_compactions.inc(),
                        Err(e) => eprintln!("warning: store compaction after replay failed: {e}"),
                    }
                }
                obs.store_bytes.set(store.bytes() as i64);
                Some(store)
            }
            None => None,
        };
        obs.cache_bytes.set(cache.bytes() as i64);
        Ok(Server {
            listener,
            local_addr,
            config,
            obs,
            cache: Mutex::new(cache),
            store: store.map(Mutex::new),
            depth: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            waker: Waker::new()?,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves until shut down; blocks the calling thread (which becomes
    /// the reactor). Every admitted job completes and answers before
    /// this returns. Thread count is `workers + 1`, independent of how
    /// many connections attach.
    pub fn run(&self) -> ServeSummary {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let (done_tx, done_rx) = mpsc::channel::<Completion>();
        // The workers share one receiver; it drops with the last of them,
        // so a send to a pool that is gone fails instead of queueing.
        let job_rx = Arc::new(Mutex::new(job_rx));
        std::thread::scope(|scope| {
            for _ in 0..self.config.workers {
                let (jobs, done) = (Arc::clone(&job_rx), done_tx.clone());
                scope.spawn(move || self.worker_loop(&jobs, done));
            }
            drop((job_rx, done_tx));
            Driver::new(self, job_tx, done_rx).run();
            // Driver drop released the job sender → workers drain the
            // queue and exit; the scope joins them.
        });
        self.summary()
    }

    /// Flips the shutdown flag and wakes the reactor, from any thread.
    /// Usually triggered by a `Shutdown` frame; public for embedders.
    pub fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::AcqRel) {
            // Arming first makes the wake unconditional: a parked reactor
            // wakes at once, a busy one finds the byte at its next wait.
            self.waker.arm();
            self.waker.wake();
        }
    }

    /// A job left the queue (a worker took it, or it never got on).
    pub(crate) fn dequeued(&self) {
        self.depth.fetch_sub(1, Ordering::AcqRel);
        self.obs.queue_depth.add(-1);
    }

    fn summary(&self) -> ServeSummary {
        ServeSummary {
            received: self.obs.requests_total.value(),
            completed: self.obs.completed.value(),
            cache_hits: self.obs.cache_hits.value(),
            cache_misses: self.obs.cache_misses.value(),
            busy_rejections: self.obs.busy_rejections.value(),
            protocol_errors: self.obs.decode_errors.value(),
        }
    }

    /// Builds a `MetricsDump` answer: the server's own instruments
    /// merged with the process-wide (assess/search) registry, plus the
    /// newest `journal_tail` events across both journals in timestamp
    /// order.
    pub(crate) fn metrics(&self, journal_tail: u32) -> MetricsResponse {
        let mut snapshot = self.obs.registry.snapshot();
        snapshot.merge(&recloud_obs::global().snapshot());
        let n = journal_tail as usize;
        let mut events = self.obs.registry.journal().tail(n);
        events.extend(recloud_obs::global().journal().tail(n));
        events.sort_by(|a, b| (a.ts_micros, a.seq).cmp(&(b.ts_micros, b.seq)));
        if events.len() > n {
            events.drain(..events.len() - n);
        }
        MetricsResponse { snapshot, events }
    }

    fn worker_loop(&self, jobs: &Mutex<Receiver<Job>>, done: Sender<Completion>) {
        let mut pool = EnginePool::new();
        loop {
            // A statement of its own, so the guard drops before the job
            // runs: held across it, the workers would run one at a time.
            let Ok(job) = jobs.lock().unwrap().recv() else { break };
            self.dequeued();
            let reply = Reply { conn: job.conn, done: &done, waker: &self.waker, finished: false };
            // A traced job: close its queue.wait span and run the work
            // under a worker.exec span, so the driver's per-chunk spans
            // (read off the thread-local context) attach underneath.
            let exec = job.trace.map(|ctx| {
                trace::tracer().end(ctx.trace_id, job.queue_span);
                SpanCtx {
                    trace_id: ctx.trace_id,
                    span: trace::tracer().start(ctx.trace_id, ctx.span, "worker.exec"),
                }
            });
            let response = match exec {
                Some(ctx) => {
                    trace::with_current_span(ctx, || self.run_job(&job.kind, &reply, &mut pool))
                }
                None => self.run_job(&job.kind, &reply, &mut pool),
            };
            if let Some(ctx) = exec {
                trace::tracer().end(ctx.trace_id, ctx.span);
            }
            if !matches!(response, Response::Error { .. }) {
                self.obs.completed.inc();
            }
            reply.finish(response);
        }
    }

    /// Executes one dequeued job on this worker's engine pool; streamed
    /// frames go out through `reply`, the final one is returned.
    fn run_job(&self, kind: &JobKind, reply: &Reply, pool: &mut EnginePool) -> Response {
        match kind {
            JobKind::Assess { req, spec, plan, key, cadence, cancel } => {
                // A plain request is a stream that forwards nothing.
                let mut forward = |p: &PartialEstimate| {
                    if cadence.is_some() {
                        reply.send(Response::Partial(PartialResponse {
                            rounds_done: p.rounds_done,
                            rounds_total: p.rounds_total,
                            score: p.r,
                            ciw: p.ciw,
                        }));
                    }
                };
                let every = cadence.unwrap_or(1);
                match pool.assess_streaming(req, spec, plan, every, cancel, &mut forward) {
                    Ok((resp, completed)) => {
                        if completed {
                            // Only completed drives reach the cache —
                            // and therefore the durable store: a spill
                            // log must never launder a cancelled
                            // partial result into a future hit.
                            self.cache_finished_assessment(*key, resp);
                        } else {
                            // A cancelled drive covers fewer rounds
                            // than `key` declares — caching it would
                            // poison every future full-rounds lookup,
                            // so the partial result stays out.
                            self.obs.stream_cancelled.inc();
                            self.obs.registry.journal().record(
                                self.obs.stream_cancel,
                                resp.rounds,
                                (req.rounds as u64).saturating_sub(resp.rounds),
                                0.0,
                                0.0,
                            );
                        }
                        Response::Assess(resp)
                    }
                    Err(message) => Response::Error { code: ErrorCode::Invalid, message },
                }
            }
            JobKind::StreamSearch { req, workers, iters } => {
                let sink = |e: SearchEventResponse| reply.send(Response::SearchEvent(e));
                match pool.search_streaming(req, *workers, *iters, &sink) {
                    Ok(resp) => Response::Search(resp),
                    Err(message) => Response::Error { code: ErrorCode::Invalid, message },
                }
            }
        }
    }

    /// One uncached assessment finished: insert it into the LRU cache
    /// and mirror the transition into the durable store — a `Put` for
    /// the new entry, an `Evict` tombstone when the insert pushed out a
    /// victim. Lock order is cache before store, matching every other
    /// path that takes both.
    fn cache_finished_assessment(&self, key: u128, resp: AssessResponse) {
        let evicted = {
            let mut cache = self.cache.lock().unwrap();
            let evicted = cache.insert(key, resp);
            self.obs.cache_bytes.set(cache.bytes() as i64);
            evicted
        };
        if evicted.is_some() {
            self.obs.cache_evictions.inc();
        }
        if let Some(store) = &self.store {
            let t0 = recloud_obs::current_span().map(|_| trace::now_us());
            let mut store = store.lock().unwrap();
            let mut ops_appended = 0;
            let compactions_before = store.compactions();
            match store.append(&StoreOp::Put(response_entry(key, &resp))) {
                Ok(_) => ops_appended += 1,
                Err(e) => eprintln!("warning: store append failed: {e}"),
            }
            if let Some(victim) = evicted {
                match store.append(&StoreOp::Evict(victim)) {
                    Ok(_) => ops_appended += 1,
                    Err(e) => eprintln!("warning: store append failed: {e}"),
                }
            }
            let compacted = store.compactions() - compactions_before;
            if compacted > 0 {
                self.obs.store_compactions.add(compacted);
            }
            self.obs.store_appended.add(ops_appended);
            self.obs.store_bytes.set(store.bytes() as i64);
            if let (Some(SpanCtx { trace_id, span }), Some(t0)) = (recloud_obs::current_span(), t0)
            {
                let t1 = trace::now_us();
                trace::tracer().record(
                    trace_id,
                    span,
                    "store.append",
                    t0,
                    t1,
                    ops_appended,
                    compacted,
                );
            }
        }
    }
}

/// A store entry rehydrated as the response it will answer with. The
/// `cached` flag is transient serving state, not part of the entry;
/// `ResultCache::get` forces it true on every hit anyway.
fn entry_response(e: &StoreEntry) -> AssessResponse {
    AssessResponse {
        score: e.score,
        variance: e.variance,
        rounds: e.rounds,
        successes: e.successes,
        cached: false,
    }
}

fn response_entry(key: u128, resp: &AssessResponse) -> StoreEntry {
    StoreEntry {
        key,
        score: resp.score,
        variance: resp.variance,
        rounds: resp.rounds,
        successes: resp.successes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::Poller;
    use std::time::Duration;

    /// A reply handle dropped before its final frame — unwound out of a
    /// panicking job, or dropped plainly — queues exactly one
    /// `Error{Internal}` for its token, after whatever it sent; one that
    /// sent its final frame queues nothing more.
    #[test]
    fn a_dropped_reply_answers_internal_once_and_a_finished_one_nothing_more() {
        let waker = Waker::new().unwrap();
        let (done, completions) = mpsc::channel();
        let partial = PartialResponse { rounds_done: 1, rounds_total: 2, score: 0.5, ciw: 0.1 };
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let reply = Reply { conn: 7, done: &done, waker: &waker, finished: false };
            reply.send(Response::Partial(partial));
            panic!("the job's drive failed");
        }));
        assert!(panicked.is_err());
        drop(Reply { conn: 8, done: &done, waker: &waker, finished: false });
        let reply = Reply { conn: 9, done: &done, waker: &waker, finished: false };
        reply.finish(Response::Pong { token: 3 });
        let queued: Vec<Completion> = std::iter::from_fn(|| completions.try_recv().ok()).collect();
        let internal = |token| {
            let message = "worker dropped the job".to_string();
            (token, Response::Error { code: ErrorCode::Internal, message })
        };
        assert_eq!(
            queued,
            [
                (7, Response::Partial(partial)),
                internal(7),
                internal(8),
                (9, Response::Pong { token: 3 })
            ]
        );
    }

    /// `begin_shutdown` rings the reactor's waker whether or not the
    /// reactor armed it: the byte is what ends a parked poller wait.
    #[cfg(target_os = "linux")]
    #[test]
    fn begin_shutdown_rings_the_waker_armed_or_not() {
        let srv = Server::bind(("127.0.0.1", 0), ServerConfig::default()).unwrap();
        let mut poller = Poller::new(PollerKind::Auto);
        poller.register(srv.waker.fd(), 1);
        let mut ready = Vec::new();
        srv.waker.wake();
        poller.wait(&mut ready, Duration::ZERO);
        assert!(ready.is_empty(), "an unarmed wake writes nothing");
        srv.begin_shutdown();
        poller.wait(&mut ready, Duration::from_secs(1));
        assert_eq!(ready, [1]);
    }
}
