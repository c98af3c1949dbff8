//! The placement-as-a-service daemon.
//!
//! Thread topology (all scoped — no detached threads; O(workers) total,
//! independent of connection count):
//!
//! ```text
//!                 ┌───────────────────────────────────────────┐
//!  TCP clients ──▶│ reactor thread: accept, readiness-polled  │
//!   (thousands,   │ frame I/O, decode, validate, cache lookup,│
//!    nonblocking) │ per-tenant + global admission, timer tick │
//!                 └───────────────────────────────────────────┘
//!        │ admission control (tenant budget, then depth < capacity)
//!        ▼
//!   bounded MPMC job queue (recloud::sync::channel + atomic depth)
//!        │                          ▲ reply channel + reactor waker
//!        ▼                          │
//!   worker pool (scoped): EnginePool per worker ─────┘
//! ```
//!
//! The reactor (see [`crate::reactor`]) drives one state machine per
//! connection: incremental frame decode from a per-connection inbound
//! buffer, buffered nonblocking writes, streaming `Partial` /
//! `SearchEvent` fan-out, and mid-stream cancel detection — so an idle
//! streaming client costs a few hundred bytes of buffer, not a thread.
//! Workers never touch sockets; they send responses down the job's
//! reply channel and nudge the reactor through an armed waker, which
//! keeps partial-frame forwarding latency at "one wake byte", not a
//! poll-interval.
//!
//! Backpressure is explicit and now two-level: a request is admitted
//! only when its tenant is under its in-flight budget (`Hello` names
//! the tenant; connections that never say Hello serve as `default`)
//! and the global queue depth compare-exchange succeeds; otherwise the
//! client gets `Busy` immediately instead of unbounded queueing — the
//! reCloud analogue of the paper's observation that assessment cost,
//! not connection count, is the scarce resource.
//!
//! Shutdown is graceful by construction: the `Shutdown` frame flips a
//! flag and self-connects to unblock the poller; the reactor stops
//! accepting, cancels streaming drives, drains every admitted job to
//! its final frame, flushes, and only then drops the job sender so the
//! worker pool exits — the scope guarantees every thread is joined
//! before [`Server::run`] returns.

use crate::cache::ResultCache;
use crate::client::Client;
use crate::engine::{build_plan, shape_for, spec_for, EnginePool};
use crate::protocol::{
    validate_shape, AssessRequest, AssessResponse, CacheSegmentResponse, CompareRequest, ErrorCode,
    MetricsResponse, PartialResponse, Request, Response, SearchEventResponse, SearchRequest,
    TraceResponse, TraceSpan, DEFAULT_TENANT, MAX_FRAME_LEN, MAX_SYNC_ENTRIES, MAX_TENANTS,
};
use crate::reactor::{raw_fd, Poller, PollerKind, Waker};
use recloud::sync::{self, Receiver, Sender, TryRecvError};
use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_assess::{assessment_key, PartialEstimate};
use recloud_obs::{trace, Counter, Gauge, Histogram, KindId, Registry, SpanCtx, SpanRecord};
use recloud_store::{Entry as StoreEntry, Op as StoreOp, Store, StoreConfig};
use std::cell::Cell;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    /// Poll interval for connection reads — bounds how long shutdown
    /// waits on an idle connection.
    pub read_timeout: Duration,
    /// Durable result store directory. `Some` makes every uncached
    /// assessment append to the spill log and replays the log into the
    /// cache on bind, before any connection is accepted.
    pub store_dir: Option<PathBuf>,
    /// Peer daemon address to warm-start from: on bind, a `CacheSync`
    /// request pulls the peer's hottest cache entries and adopts the
    /// missing ones (best effort — an unreachable peer is a warning,
    /// not a bind failure).
    pub peer: Option<String>,
    /// Durable-store tuning (segment rotation, auto-compaction
    /// thresholds); only consulted when `store_dir` is set.
    pub store_config: StoreConfig,
    /// Per-tenant in-flight budget: a tenant with this many admitted,
    /// unfinished jobs gets `Busy` while every other tenant is
    /// unaffected. `None` disables per-tenant admission (the global
    /// queue bound still applies).
    pub tenant_budget: Option<usize>,
    /// Periodic auto-compaction: when the store's size/live-ratio
    /// compaction thresholds hold continuously for this long, the
    /// reactor's timer tick compacts — catching stores that crossed
    /// the threshold via replay or eviction patterns no append revisits.
    pub compact_after: Option<Duration>,
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
            read_timeout: Duration::from_millis(50),
            store_dir: None,
            peer: None,
            store_config: StoreConfig::default(),
            tenant_budget: None,
            compact_after: None,
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
const LATENCY_KINDS: [&str; 7] =
    ["ping", "assess", "compare", "metrics", "stream", "search_stream", "sync"];

/// Per-server observability handles, backed by a private
/// [`Registry`] so concurrent servers (and tests) see isolated,
/// exactly-attributable numbers. [`Server::metrics`] merges this
/// registry with the process-wide one, so a `MetricsDump` frame also
/// carries the assess/search-layer instruments.
struct ServerInstruments {
    registry: Registry,
    requests_total: Arc<Counter>,
    /// Jobs a worker finished without error, plus cache hits.
    completed: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    busy_rejections: Arc<Counter>,
    decode_errors: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    /// Streams whose drive was cancelled before every chunk ran (client
    /// cancel, client hangup, or shutdown).
    stream_cancelled: Arc<Counter>,
    /// Operations (`Put` + `Evict`) appended to the durable store.
    store_appended: Arc<Counter>,
    /// Operations replayed from the store into the cache at bind.
    store_replayed: Arc<Counter>,
    /// Entries adopted from a `--peer` CacheSync pull at bind.
    store_synced: Arc<Counter>,
    /// CacheSync requests this daemon answered for peers.
    sync_served: Arc<Counter>,
    /// Compaction passes the store ran (size-triggered and manual).
    store_compactions: Arc<Counter>,
    /// On-disk bytes across the store's segments.
    store_bytes: Arc<Gauge>,
    /// Accounting bytes resident in the result cache.
    cache_bytes: Arc<Gauge>,
    /// Connections currently registered with the reactor (streaming,
    /// idle and zombie alike).
    connections_open: Arc<Gauge>,
    /// Wall-clock per served request, admission wait included, indexed
    /// like [`LATENCY_KINDS`].
    latency: [Arc<Histogram>; LATENCY_KINDS.len()],
    /// Journal event emitted when a connection closes: `v0` = complete
    /// frames it sent, `v1` = protocol errors it produced.
    conn_close: KindId,
    /// Journal event emitted when a stream's drive is cancelled: `v0` =
    /// rounds done, `v1` = rounds the cancel saved.
    stream_cancel: KindId,
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
            store_synced: registry.counter("store.synced_total"),
            sync_served: registry.counter("store.sync_served_total"),
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
    fn latency_index(request: &Request) -> Option<usize> {
        match request {
            Request::Ping { .. } => Some(0),
            Request::AssessPlan(_) => Some(1),
            Request::ComparePlans(_) => Some(2),
            Request::MetricsDump { .. } => Some(3),
            Request::AssessStream { .. } => Some(4),
            Request::SearchStream { .. } => Some(5),
            Request::CacheSync { .. } => Some(6),
            // Trace frames are connection-side bookkeeping (two of the
            // three don't even reply) — no latency histogram. Hello is
            // likewise per-connection setup, not served work.
            Request::Shutdown
            | Request::AssessCancel
            | Request::TraceDump { .. }
            | Request::TraceContext { .. }
            | Request::TraceUpload { .. }
            | Request::Hello { .. } => None,
        }
    }
}

enum JobKind {
    /// AssessPlan and AssessStream alike: a plain request is a stream
    /// that forwards no `Partial` (`cadence` is `None`) and whose cancel
    /// flag nobody holds.
    Assess {
        req: AssessRequest,
        spec: ApplicationSpec,
        plan: DeploymentPlan,
        key: u128,
        /// Forward one `Partial` every this many fed chunks.
        cadence: Option<u32>,
        /// Shared with the reactor; the engine checks it between chunks
        /// and stops feeding once set.
        cancel: Arc<AtomicBool>,
    },
    Compare {
        req: CompareRequest,
        spec: ApplicationSpec,
        plans: Vec<DeploymentPlan>,
    },
    /// A streamed parallel search. No cancel flag: stopping an annealing
    /// population early would change its answer, so the drive always runs
    /// its full budget (the connection thread merely stops forwarding
    /// events when the client goes away).
    StreamSearch {
        req: SearchRequest,
        workers: u32,
        iters: u32,
    },
}

struct Job {
    kind: JobKind,
    reply: Sender<Response>,
    /// Trace context of a traced request — `span` is the server-side
    /// request span the worker's spans hang under.
    trace: Option<SpanCtx>,
    /// Open `queue.wait` span the worker closes on dequeue (0 = none).
    queue_span: u32,
}

/// One bound daemon; [`Server::run`] serves until a `Shutdown` frame.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: ServerConfig,
    obs: ServerInstruments,
    cache: Mutex<ResultCache>,
    /// The durable spill log (`--store`); every uncached assessment is
    /// appended, evictions become tombstones.
    store: Option<Mutex<Store>>,
    depth: AtomicUsize,
    shutdown: AtomicBool,
}

impl Server {
    /// Binds the daemon (port 0 picks an ephemeral port — read it back
    /// with [`Server::local_addr`]).
    ///
    /// With [`ServerConfig::store_dir`] set, the spill log is opened
    /// (recovering its longest valid prefix) and replayed into the LRU
    /// cache *before* the bind returns — a restarted daemon accepts its
    /// first connection already warm. With [`ServerConfig::peer`] set,
    /// a `CacheSync` pull against the peer then adopts whatever hot
    /// entries this daemon is still missing; an unreachable peer only
    /// logs a warning.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        assert!(config.workers >= 1, "need at least one worker");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let obs = ServerInstruments::new(&config);
        let mut cache = ResultCache::new(config.cache_capacity);
        let mut store = match &config.store_dir {
            Some(dir) => {
                let (store, recovery) = Store::open(dir, config.store_config)?;
                for op in &recovery.ops {
                    match op {
                        StoreOp::Put(e) => {
                            cache.insert(e.key, entry_response(e));
                        }
                        StoreOp::Evict(key) => {
                            cache.remove(*key);
                        }
                    }
                    obs.store_replayed.inc();
                }
                obs.store_bytes.set(store.bytes() as i64);
                Some(store)
            }
            None => None,
        };
        if let Some(peer) = &config.peer {
            match pull_from_peer(peer, &mut cache, store.as_mut()) {
                Ok(adopted) => obs.store_synced.add(adopted),
                Err(e) => eprintln!("warning: cache sync with peer {peer} failed: {e}"),
            }
            if let Some(store) = &store {
                obs.store_bytes.set(store.bytes() as i64);
            }
        }
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
        let (job_tx, job_rx) = sync::channel::<Job>();
        let waker = Waker::new().expect("loopback waker pair");
        std::thread::scope(|scope| {
            for _ in 0..self.config.workers {
                let rx = job_rx.clone();
                let waker = &waker;
                scope.spawn(move || self.worker_loop(rx, waker));
            }
            drop(job_rx);
            Reactor::new(self, &waker, job_tx).run();
            // Reactor drop released the last job sender → workers drain
            // the queue and exit; the scope joins them.
        });
        self.summary()
    }

    /// Flips the shutdown flag and unblocks the accept loop. Usually
    /// triggered by a `Shutdown` frame; public for embedding tests.
    pub fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::AcqRel) {
            // A throwaway self-connection is the portable way to wake a
            // blocking accept() without platform-specific polling.
            let _ = TcpStream::connect(self.local_addr);
        }
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
    fn metrics(&self, journal_tail: u32) -> MetricsResponse {
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

    fn worker_loop(&self, rx: Receiver<Job>, waker: &Waker) {
        let mut pool = EnginePool::new();
        while let Ok(job) = rx.recv() {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            self.obs.queue_depth.add(-1);
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
                Some(ctx) => trace::with_current_span(ctx, || self.run_job(&job, &mut pool, waker)),
                None => self.run_job(&job, &mut pool, waker),
            };
            if let Some(ctx) = exec {
                trace::tracer().end(ctx.trace_id, ctx.span);
            }
            if !matches!(response, Response::Error { .. }) {
                self.obs.completed.inc();
            }
            let _ = job.reply.send(response);
            // Nudge the reactor so the final frame forwards immediately
            // instead of waiting out the poll tick.
            waker.wake();
        }
    }

    /// Executes one dequeued job on this worker's engine pool.
    fn run_job(&self, job: &Job, pool: &mut EnginePool, waker: &Waker) -> Response {
        match &job.kind {
            JobKind::Assess { req, spec, plan, key, cadence, cancel } => {
                let reply = &job.reply;
                let mut forward = |p: &PartialEstimate| {
                    let _ = reply.send(Response::Partial(PartialResponse {
                        rounds_done: p.rounds_done,
                        rounds_total: p.rounds_total,
                        score: p.r,
                        ciw: p.ciw,
                    }));
                    waker.wake();
                };
                let streamed = match cadence {
                    Some(every) => {
                        pool.assess_streaming(req, spec, plan, *every, cancel, &mut forward)
                    }
                    None => pool.assess_streaming(req, spec, plan, 1, cancel, &mut |_| {}),
                };
                match streamed {
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
            JobKind::Compare { req, spec, plans } => match pool.compare(req, spec, plans) {
                Ok(resp) => Response::Compare(resp),
                Err(message) => Response::Error { code: ErrorCode::Invalid, message },
            },
            JobKind::StreamSearch { req, workers, iters } => {
                let reply = &job.reply;
                let sink = |e: SearchEventResponse| {
                    let _ = reply.send(Response::SearchEvent(e));
                    waker.wake();
                };
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
            let span_start = recloud_obs::current_span().map(|_| trace::now_us());
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
            if let (Some(ctx), Some(start_us)) = (recloud_obs::current_span(), span_start) {
                trace::tracer().record(
                    ctx.trace_id,
                    ctx.span,
                    "store.append",
                    start_us,
                    trace::now_us(),
                    ops_appended,
                    compacted,
                );
            }
        }
    }

    /// Cache probe, recorded as a `cache.lookup` span (`v0` = hit) when
    /// the request is traced.
    fn cache_lookup(&self, key: u128, traced: Option<SpanCtx>) -> Option<AssessResponse> {
        let start = traced.map(|_| trace::now_us());
        let hit = self.cache.lock().unwrap().get(key);
        if let (Some(ctx), Some(start_us)) = (traced, start) {
            trace::tracer().record(
                ctx.trace_id,
                ctx.span,
                "cache.lookup",
                start_us,
                trace::now_us(),
                hit.is_some() as u64,
                0,
            );
        }
        hit
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

/// Pulls the peer's hottest cache entries over one CacheSync exchange
/// and adopts every fingerprint this cache is missing, oldest first so
/// the peer's recency order is reproduced locally. Adopted entries are
/// also appended to the durable store (when there is one) — after a
/// sync, a restart no longer needs the peer. Returns how many entries
/// were adopted.
fn pull_from_peer(
    peer: &str,
    cache: &mut ResultCache,
    mut store: Option<&mut Store>,
) -> std::io::Result<u64> {
    let mut client = Client::connect(peer)?;
    let entries = client.cache_sync(MAX_SYNC_ENTRIES)?;
    let mut adopted = 0;
    for e in entries.iter().rev() {
        if cache.contains(e.key) {
            continue;
        }
        let resp = AssessResponse {
            score: e.score,
            variance: e.variance,
            rounds: e.rounds,
            successes: e.successes,
            cached: false,
        };
        let evicted = cache.insert(e.key, resp);
        if let Some(store) = store.as_deref_mut() {
            store.append(&StoreOp::Put(response_entry(e.key, &resp)))?;
            if let Some(victim) = evicted {
                store.append(&StoreOp::Evict(victim))?;
            }
        }
        adopted += 1;
    }
    Ok(adopted)
}

/// Spec, plan and cache key for an assess-family request; `Err` carries
/// the ready-to-send Invalid response.
fn prepare_assess(
    req: &AssessRequest,
) -> Result<(ApplicationSpec, DeploymentPlan, u128), Response> {
    let spec = spec_for(req.k, req.n, req.assignments.len());
    let plan = build_plan(&spec, &req.assignments)
        .map_err(|message| Response::Error { code: ErrorCode::Invalid, message })?;
    let key = assessment_key(
        req.preset.tag(),
        &shape_for(req.k, req.n, req.assignments.len()),
        &plan,
        req.rounds as u64,
        req.seed,
    );
    Ok((spec, plan, key))
}

enum TakenFrame {
    Frame(Vec<u8>),
    /// Length prefix beyond `MAX_FRAME_LEN` — carries the claimed length
    /// for the error message.
    Oversized(usize),
    Incomplete,
}

/// Extracts one complete length-prefixed frame from an incremental byte
/// buffer. The reactor reads sockets nonblocking, so frames arrive in
/// arbitrary fragments and partial bytes stay buffered across polls.
fn take_frame(buf: &mut Vec<u8>) -> TakenFrame {
    if buf.len() < 4 {
        return TakenFrame::Incomplete;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return TakenFrame::Oversized(len);
    }
    if buf.len() < 4 + len {
        return TakenFrame::Incomplete;
    }
    let payload = buf[4..4 + len].to_vec();
    buf.drain(..4 + len);
    TakenFrame::Frame(payload)
}

/// Poller token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the reactor waker's read end.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: u64 = 2;
/// Buffered-outbound cap per connection. A client that lets this much
/// pile up unread is treated as gone (its stream is cancelled, the
/// buffer dropped) instead of growing server memory without bound.
const OUTBOUND_CAP: usize = 16 << 20;
/// How long shutdown keeps flushing already-buffered final frames to
/// slow readers before dropping them.
const SHUTDOWN_FLUSH_GRACE: Duration = Duration::from_secs(5);

/// Per-tenant serving state, created on first sight of a tenant id
/// (from a `Hello` frame, or [`DEFAULT_TENANT`] for connections that
/// never send one). The instruments live in the server registry, so a
/// `MetricsDump` carries per-tenant series without any wire change;
/// `inflight` is the count the admission budget bounds — touched only
/// by the reactor thread, hence `Cell`, not an atomic.
struct TenantState {
    requests_total: Arc<Counter>,
    busy_total: Arc<Counter>,
    latency_us: Arc<Histogram>,
    inflight: Cell<usize>,
}

/// A job admitted on a connection and not yet answered with its final
/// frame.
struct Inflight {
    reply: Receiver<Response>,
    /// Streaming jobs keep reading the socket (for a mid-stream
    /// `AssessCancel`) and forward `Partial`/`SearchEvent` frames;
    /// non-streaming jobs leave pipelined bytes buffered until the
    /// final frame goes out, exactly like the blocking server did.
    streaming: bool,
    /// Cancel flag shared with the worker's drive. `None` for
    /// non-streaming jobs; search streams carry one that their drive
    /// never reads (stopping a population early would change its
    /// answer) so a mid-stream cancel frame stays a legal no-op.
    cancel: Option<Arc<AtomicBool>>,
    traced: Option<SpanCtx>,
    latency_idx: Option<usize>,
    started: Instant,
    tenant: Rc<TenantState>,
}

/// One connection's state machine: incremental inbound decode, buffered
/// nonblocking writes, at most one in-flight job.
struct Conn {
    stream: TcpStream,
    token: u64,
    /// Bytes read but not yet consumed as frames.
    inbound: Vec<u8>,
    /// Encoded frames not yet accepted by the socket; `out_pos` is the
    /// flushed prefix.
    outbound: Vec<u8>,
    out_pos: usize,
    /// Frames decoded on this connection (journalled at close).
    frames: u64,
    /// Decode errors this connection produced (journalled at close).
    decode_errors: u64,
    /// Armed by a TraceContext frame; consumed by the next request.
    trace_ctx: Option<(u64, u32)>,
    /// Set by `Hello` (a later Hello re-homes the connection); `None`
    /// until first work, then pinned to [`DEFAULT_TENANT`].
    tenant: Option<Rc<TenantState>>,
    /// Read side still produces bytes (no EOF or error seen).
    peer_open: bool,
    /// Write side still accepts frames.
    writable: bool,
    /// Close once the outbound buffer flushes and no job is in flight.
    closing: bool,
    /// Interest bits currently registered with the poller.
    want_read: bool,
    want_write: bool,
    inflight: Option<Inflight>,
}

impl Conn {
    fn new(stream: TcpStream, token: u64) -> Conn {
        Conn {
            stream,
            token,
            inbound: Vec::new(),
            outbound: Vec::new(),
            out_pos: 0,
            frames: 0,
            decode_errors: 0,
            trace_ctx: None,
            tenant: None,
            peer_open: true,
            writable: true,
            closing: false,
            want_read: true,
            want_write: false,
            inflight: None,
        }
    }

    fn flushed(&self) -> bool {
        self.out_pos >= self.outbound.len()
    }

    /// The client is gone for writing purposes: drop the buffer and
    /// cancel any streaming drive (the worker still finishes cleanly
    /// and the connection drains as a zombie to its final frame).
    fn mark_unwritable(&mut self) {
        self.writable = false;
        self.outbound.clear();
        self.out_pos = 0;
        if let Some(inflight) = &self.inflight {
            if let Some(cancel) = &inflight.cancel {
                cancel.store(true, Ordering::Release);
            }
        }
    }
}

/// Encodes a response onto the connection's outbound buffer (transport
/// length prefix + payload), enforcing [`OUTBOUND_CAP`].
fn buffer_frame(conn: &mut Conn, response: &Response) {
    if !conn.writable {
        return;
    }
    let payload = response.encode();
    debug_assert!(payload.len() <= MAX_FRAME_LEN, "oversized response frame");
    conn.outbound.reserve(4 + payload.len());
    conn.outbound.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    conn.outbound.extend_from_slice(payload.as_slice());
    if conn.outbound.len() - conn.out_pos > OUTBOUND_CAP {
        conn.mark_unwritable();
        return;
    }
    // Reclaim the flushed prefix once it dominates the buffer.
    if conn.out_pos > 4096 && conn.out_pos * 2 >= conn.outbound.len() {
        conn.outbound.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
}

/// Writes as much buffered outbound as the socket accepts right now.
fn flush_outbound(conn: &mut Conn) -> bool {
    if !conn.writable || conn.flushed() {
        return false;
    }
    let mut work = false;
    while conn.out_pos < conn.outbound.len() {
        match (&conn.stream).write(&conn.outbound[conn.out_pos..]) {
            Ok(0) => {
                conn.mark_unwritable();
                break;
            }
            Ok(n) => {
                conn.out_pos += n;
                work = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.mark_unwritable();
                break;
            }
        }
    }
    if conn.flushed() {
        conn.outbound.clear();
        conn.out_pos = 0;
    }
    if !conn.writable && conn.inflight.is_none() {
        conn.closing = true;
    }
    work
}

/// The event loop that owns every connection. Single-threaded: all
/// per-connection and per-tenant state is plain (`Rc`/`Cell`) data, and
/// the only cross-thread traffic is the job queue in, reply channels
/// out, and the waker bytes workers send back.
struct Reactor<'a> {
    srv: &'a Server,
    waker: &'a Waker,
    job_tx: Sender<Job>,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    tenants: HashMap<String, Rc<TenantState>>,
    next_token: u64,
    ready: Vec<u64>,
    /// Scratch for [`Reactor::sweep_replies`]: the tokens with a job in
    /// flight, reused like `ready` so a sweep does not allocate.
    waiting: Vec<u64>,
    /// Since when the store's compaction thresholds have held
    /// continuously (timed auto-compaction).
    compact_held_since: Option<Instant>,
    /// When the shutdown drain began (bounds the flush grace).
    shutdown_seen: Option<Instant>,
}

impl<'a> Reactor<'a> {
    fn new(srv: &'a Server, waker: &'a Waker, job_tx: Sender<Job>) -> Reactor<'a> {
        Reactor {
            srv,
            waker,
            job_tx,
            poller: Poller::new(srv.config.poller),
            conns: HashMap::new(),
            tenants: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            ready: Vec::new(),
            waiting: Vec::new(),
            compact_held_since: None,
            shutdown_seen: None,
        }
    }

    fn run(mut self) {
        self.srv.listener.set_nonblocking(true).expect("nonblocking listener");
        self.poller.register(raw_fd(&self.srv.listener), TOKEN_LISTENER);
        self.poller.register(self.waker.fd(), TOKEN_WAKER);
        let tick = self.srv.config.read_timeout;
        let mut did_work = true;
        loop {
            // Arm before sweeping: a worker reply that lands between
            // this sweep and the wait leaves a wake byte the wait will
            // see — never a lost wakeup.
            self.waker.arm();
            did_work |= self.sweep_replies();
            self.poller.set_idle(!did_work);
            let timeout = if did_work { Duration::ZERO } else { tick };
            let mut ready = std::mem::take(&mut self.ready);
            self.poller.wait(&mut ready, timeout);
            did_work = false;
            for &token in &ready {
                match token {
                    TOKEN_LISTENER => did_work |= self.accept_ready(),
                    TOKEN_WAKER => self.waker.drain(),
                    token => did_work |= self.conn_ready(token),
                }
            }
            self.ready = ready;
            did_work |= self.sweep_replies();
            if self.srv.shutdown.load(Ordering::Acquire) && self.drain_shutdown() {
                return;
            }
            self.compaction_tick();
        }
    }

    /// Accepts every pending connection (level-triggered: drain until
    /// `WouldBlock`). Under shutdown, late connectors — including the
    /// throwaway self-connection `begin_shutdown` makes to unblock the
    /// poller — are accepted and dropped.
    fn accept_ready(&mut self) -> bool {
        let mut any = false;
        loop {
            match self.srv.listener.accept() {
                Ok((stream, _)) => {
                    any = true;
                    if self.srv.shutdown.load(Ordering::Acquire) {
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    self.poller.register(raw_fd(&stream), token);
                    self.srv.obs.connections_open.add(1);
                    self.conns.insert(token, Conn::new(stream, token));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        any
    }

    /// One connection's socket reported ready (or the scan backend is
    /// probing it): flush, read, drain worker replies, decide its fate.
    fn conn_ready(&mut self, token: u64) -> bool {
        let Some(mut conn) = self.conns.remove(&token) else { return false };
        let mut work = flush_outbound(&mut conn);
        work |= self.pump_read(&mut conn);
        work |= self.drain_reply(&mut conn);
        work |= flush_outbound(&mut conn);
        self.settle(conn);
        work
    }

    /// Drains worker replies on every connection with an in-flight job.
    fn sweep_replies(&mut self) -> bool {
        let mut waiting = std::mem::take(&mut self.waiting);
        waiting.clear();
        waiting.extend(self.conns.iter().filter(|(_, c)| c.inflight.is_some()).map(|(&t, _)| t));
        let mut work = false;
        for &token in &waiting {
            let Some(mut conn) = self.conns.remove(&token) else { continue };
            work |= self.drain_reply(&mut conn);
            work |= flush_outbound(&mut conn);
            self.settle(conn);
        }
        self.waiting = waiting;
        work
    }

    /// Decides a connection's fate after any activity: close it once it
    /// is `closing` with nothing left to send and no job in flight,
    /// otherwise sync the poller's interest bits with what the state
    /// machine is actually waiting for and keep it. Interest is a
    /// wakeup hint, not a correctness gate — the scan backend reports
    /// every token and relies on these same state checks.
    fn settle(&mut self, mut conn: Conn) {
        if conn.inflight.is_none() && conn.closing && (conn.flushed() || !conn.writable) {
            self.close_conn(conn);
            return;
        }
        let want_read = self.wants_read(&conn);
        let want_write = conn.writable && !conn.flushed();
        if (want_read, want_write) != (conn.want_read, conn.want_write) {
            self.poller.set_interest(raw_fd(&conn.stream), conn.token, want_read, want_write);
            conn.want_read = want_read;
            conn.want_write = want_write;
        }
        self.conns.insert(conn.token, conn);
    }

    fn close_conn(&mut self, conn: Conn) {
        self.srv.obs.registry.journal().record(
            self.srv.obs.conn_close,
            conn.frames,
            conn.decode_errors,
            0.0,
            0.0,
        );
        self.srv.obs.connections_open.add(-1);
        self.poller.deregister(raw_fd(&conn.stream), conn.token);
    }

    /// Whether the state machine reads `conn`'s socket now. Not while a
    /// non-streaming job is in flight: the blocking server did not read
    /// the socket there either (a pipelined frame waits in the kernel
    /// buffer), and with a level-triggered poller a readable-but-ignored
    /// socket would spin the loop.
    fn wants_read(&self, conn: &Conn) -> bool {
        conn.peer_open
            && !conn.closing
            && conn.inflight.as_ref().map_or(true, |inflight| inflight.streaming)
    }

    /// Reads whatever the socket has and advances the frame state
    /// machine. Re-checks `wants_read` every iteration — dispatching a
    /// non-streaming job mid-buffer stops the reading, like the
    /// blocking server blocking on the worker reply did.
    fn pump_read(&mut self, conn: &mut Conn) -> bool {
        let mut work = false;
        let mut scratch = [0u8; 4096];
        loop {
            if !self.wants_read(conn) {
                break;
            }
            match (&conn.stream).read(&mut scratch) {
                Ok(0) => {
                    work = true;
                    self.peer_eof(conn);
                    break;
                }
                Ok(n) => {
                    work = true;
                    conn.inbound.extend_from_slice(&scratch[..n]);
                    self.process_inbound(conn);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    work = true;
                    conn.peer_open = false;
                    if conn.inflight.is_some() {
                        conn.mark_unwritable();
                    } else {
                        conn.closing = true;
                    }
                    break;
                }
            }
        }
        work
    }

    /// Peer closed its write side. Buffered bytes that never completed
    /// a frame are a half-frame protocol error (counted, but no error
    /// reply — nobody is left to read it); EOF during a stream cancels
    /// the drive and the connection drains as a zombie until the
    /// worker's final frame lands.
    fn peer_eof(&mut self, conn: &mut Conn) {
        conn.peer_open = false;
        if conn.inflight.is_some() {
            conn.mark_unwritable();
        } else {
            if !conn.inbound.is_empty() {
                self.count_protocol_error(conn);
            }
            conn.closing = true;
        }
    }

    /// One protocol error on this connection: its own tally (journalled
    /// at close) and the daemon's.
    fn count_protocol_error(&self, conn: &mut Conn) {
        conn.decode_errors += 1;
        self.srv.obs.decode_errors.inc();
    }

    /// The one place a complete frame leaves the inbound buffer, whatever
    /// the connection is doing, and so the one definition of the tallies:
    /// every complete frame counts into the connection's `frames`; one
    /// that decodes counts into `server.requests_total`; one that does not
    /// — or a length prefix past [`MAX_FRAME_LEN`] — is a protocol error
    /// and comes back as the `Error` reply an idle connection is owed.
    /// `None` while the buffer holds no complete frame.
    fn take_request(&self, conn: &mut Conn) -> Option<Result<Request, Response>> {
        let (code, message) = match take_frame(&mut conn.inbound) {
            TakenFrame::Incomplete => return None,
            TakenFrame::Oversized(len) => {
                (ErrorCode::Oversized, format!("frame length {len} exceeds {MAX_FRAME_LEN}"))
            }
            TakenFrame::Frame(payload) => {
                conn.frames += 1;
                match Request::decode(payload.into()) {
                    Ok(request) => {
                        self.srv.obs.requests_total.inc();
                        return Some(Ok(request));
                    }
                    Err(e) => (ErrorCode::Malformed, e.to_string()),
                }
            }
        };
        self.count_protocol_error(conn);
        Some(Err(Response::Error { code, message }))
    }

    /// Consumes complete frames from the inbound buffer. Idle
    /// connections handle requests and answer an undecodable frame with
    /// its `Error` before closing; a streaming in-flight job accepts only
    /// `AssessCancel` — anything else, decodable or not, is a protocol
    /// error that stops the drive, unanswered because the stream's frames
    /// own the socket; a non-streaming one leaves the bytes buffered.
    fn process_inbound(&mut self, conn: &mut Conn) {
        while !conn.closing {
            let mid_stream = match &conn.inflight {
                Some(inflight) if inflight.streaming => true,
                Some(_) => return,
                None => false,
            };
            let Some(taken) = self.take_request(conn) else { return };
            match taken {
                Ok(request) if !mid_stream => self.handle_request(conn, request),
                Ok(Request::AssessCancel) => {
                    if let Some(cancel) = conn.inflight.as_ref().and_then(|i| i.cancel.as_ref()) {
                        cancel.store(true, Ordering::Release);
                    }
                }
                Err(reply) if !mid_stream => {
                    buffer_frame(conn, &reply);
                    conn.closing = true;
                }
                // Mid-stream, and not a cancel: a decodable request is an
                // offence on top of being a request; an undecodable frame
                // was counted as one when it was taken.
                offence => {
                    if offence.is_ok() {
                        self.count_protocol_error(conn);
                    }
                    conn.peer_open = false;
                    conn.mark_unwritable();
                    return;
                }
            }
        }
    }

    /// Handles one decoded idle-state request, timing it into the
    /// per-kind latency histogram when it completes synchronously
    /// (enqueued jobs record at final-reply time instead, preserving
    /// the blocking server's whole-exchange samples).
    fn handle_request(&mut self, conn: &mut Conn, request: Request) {
        let latency_idx = ServerInstruments::latency_index(&request);
        let started = Instant::now();
        let enqueued = self.handle_request_inner(conn, request, latency_idx, started);
        if !enqueued {
            if let Some(i) = latency_idx {
                self.srv.obs.latency[i].record(started.elapsed().as_micros() as u64);
            }
        }
    }

    /// The trace frames are connection-side: TraceContext arms the
    /// connection's next request (fire-and-forget), TraceUpload absorbs
    /// the client's spans (fire-and-forget), TraceDump answers from the
    /// tracer. `Hello` (re-)homes the connection's tenant. Any other
    /// request consumes the armed context and runs under a
    /// `server.request` span parented beneath the client's. Returns
    /// true when the request became an in-flight job.
    fn handle_request_inner(
        &mut self,
        conn: &mut Conn,
        request: Request,
        latency_idx: Option<usize>,
        started: Instant,
    ) -> bool {
        if let Err(message) = validate_shape(&request) {
            buffer_frame(conn, &Response::Error { code: ErrorCode::Invalid, message });
            return false;
        }
        match request {
            Request::TraceContext { trace_id, parent_span } => {
                trace::tracer().begin(trace_id, 0);
                conn.trace_ctx = Some((trace_id, parent_span));
                false
            }
            Request::TraceUpload { trace_id, spans } => {
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
                false
            }
            Request::TraceDump { trace_id } => {
                let id = if trace_id == 0 {
                    trace::tracer().latest_finished().unwrap_or(0)
                } else {
                    trace_id
                };
                let resp = match trace::tracer().spans(id) {
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
                };
                buffer_frame(conn, &Response::Trace(resp));
                false
            }
            Request::Hello { tenant } => {
                // Only Hello mints tenants past the first, so only Hello is
                // capped: a connection that never says it always has
                // `default` to serve under.
                if !self.tenants.contains_key(&tenant) && self.tenants.len() >= MAX_TENANTS {
                    let message = format!(
                        "this daemon already serves {MAX_TENANTS} tenants; {tenant:?} would be one more"
                    );
                    buffer_frame(conn, &Response::Error { code: ErrorCode::Invalid, message });
                    return false;
                }
                let state = self.tenant_state(&tenant);
                conn.tenant = Some(state);
                buffer_frame(conn, &Response::HelloAck { tenant });
                false
            }
            other => {
                let traced = conn.trace_ctx.take().map(|(trace_id, parent)| SpanCtx {
                    trace_id,
                    span: trace::tracer().start(trace_id, parent, "server.request"),
                });
                let enqueued = self.handle_work(conn, other, traced, latency_idx, started);
                if !enqueued {
                    if let Some(ctx) = traced {
                        trace::tracer().end(ctx.trace_id, ctx.span);
                        // Finish server-side too: TraceDump{0} finds the
                        // trace even when the client never uploads its
                        // own spans.
                        trace::tracer().finish(ctx.trace_id);
                    }
                }
                enqueued
            }
        }
    }

    /// Handles one non-trace request, possibly under a traced context
    /// (`traced.span` is the open `server.request` span). Returns true
    /// when the request was admitted as a job.
    fn handle_work(
        &mut self,
        conn: &mut Conn,
        request: Request,
        traced: Option<SpanCtx>,
        latency_idx: Option<usize>,
        started: Instant,
    ) -> bool {
        let (kind, cancel) = match request {
            Request::Ping { token } => {
                buffer_frame(conn, &Response::Pong { token });
                return false;
            }
            Request::MetricsDump { journal_tail } => {
                let resp = Response::Metrics(self.srv.metrics(journal_tail));
                buffer_frame(conn, &resp);
                return false;
            }
            Request::Shutdown => {
                let completed = self.srv.obs.completed.value();
                buffer_frame(conn, &Response::ShutdownAck { completed });
                self.srv.begin_shutdown();
                conn.closing = true;
                return false;
            }
            // A cancel with no stream in flight on this connection: the
            // race it guards against (final frame already sent when the
            // client decided to stop) makes it inherently best-effort,
            // so it is a silent no-op with no response frame.
            Request::AssessCancel => return false,
            // Served reactor-side straight out of the cache — a peer
            // warming up must not cost this daemon any worker time.
            Request::CacheSync { max_entries } => {
                let entries = self.srv.cache.lock().unwrap().recent(max_entries as usize);
                self.srv.obs.sync_served.inc();
                buffer_frame(conn, &Response::CacheSegment(CacheSegmentResponse { entries }));
                return false;
            }
            Request::AssessPlan(req) => {
                let Some(job) = self.assess_job(conn, req, None, traced, started) else {
                    return false;
                };
                job
            }
            Request::AssessStream { req, cadence } => {
                let Some(job) = self.assess_job(conn, req, Some(cadence), traced, started) else {
                    return false;
                };
                job
            }
            Request::SearchStream { req, workers, iters } => {
                self.conn_tenant(conn).requests_total.inc();
                // Search streams accept a mid-stream AssessCancel frame
                // without protocol error, but ignore it: the flag below
                // is never read by the search drive.
                (
                    JobKind::StreamSearch { req, workers, iters },
                    Some(Arc::new(AtomicBool::new(false))),
                )
            }
            Request::ComparePlans(req) => {
                self.conn_tenant(conn).requests_total.inc();
                let spec = spec_for(req.k, req.n, 1);
                let mut plans = Vec::with_capacity(req.plans.len());
                for hosts in &req.plans {
                    match build_plan(&spec, std::slice::from_ref(hosts)) {
                        Ok(plan) => plans.push(plan),
                        Err(message) => {
                            buffer_frame(
                                conn,
                                &Response::Error { code: ErrorCode::Invalid, message },
                            );
                            return false;
                        }
                    }
                }
                (JobKind::Compare { req, spec, plans }, None)
            }
            // Trace frames and Hello never reach here — the caller
            // consumes them.
            Request::TraceDump { .. }
            | Request::TraceContext { .. }
            | Request::TraceUpload { .. }
            | Request::Hello { .. } => return false,
        };
        self.admit(conn, kind, cancel, traced, latency_idx, started)
    }

    /// The assess-family front half, plain and streamed alike: count the
    /// tenant's request, build the plan, probe the cache. A hit is
    /// answered on the spot — for a stream, a degenerate one: the final
    /// frame with no partials, the answer being known in full — and
    /// `None` comes back, as it does for a plan that cannot be built;
    /// a miss comes back as the job to admit, with the cancel flag the
    /// reactor keeps when the request streams.
    fn assess_job(
        &mut self,
        conn: &mut Conn,
        req: AssessRequest,
        cadence: Option<u32>,
        traced: Option<SpanCtx>,
        started: Instant,
    ) -> Option<(JobKind, Option<Arc<AtomicBool>>)> {
        let tenant = self.conn_tenant(conn);
        tenant.requests_total.inc();
        let (spec, plan, key) = match prepare_assess(&req) {
            Ok(parts) => parts,
            Err(response) => {
                buffer_frame(conn, &response);
                return None;
            }
        };
        if let Some(hit) = self.srv.cache_lookup(key, traced) {
            self.srv.obs.cache_hits.inc();
            self.srv.obs.completed.inc();
            tenant.latency_us.record(started.elapsed().as_micros() as u64);
            buffer_frame(conn, &Response::Assess(hit));
            return None;
        }
        self.srv.obs.cache_misses.inc();
        let cancel = Arc::new(AtomicBool::new(false));
        let held = cadence.map(|_| cancel.clone());
        Some((JobKind::Assess { req, spec, plan, key, cadence, cancel }, held))
    }

    /// Two-level admission: the connection's tenant budget answers
    /// `Busy` without touching the shared queue, then the global depth
    /// compare-exchange bounds total queued work (the same CAS the
    /// blocking server used). Returns true when the job was enqueued.
    fn admit(
        &mut self,
        conn: &mut Conn,
        kind: JobKind,
        cancel: Option<Arc<AtomicBool>>,
        traced: Option<SpanCtx>,
        latency_idx: Option<usize>,
        started: Instant,
    ) -> bool {
        let tenant = self.conn_tenant(conn);
        if let Some(budget) = self.srv.config.tenant_budget {
            if tenant.inflight.get() >= budget {
                self.srv.obs.busy_rejections.inc();
                tenant.busy_total.inc();
                buffer_frame(
                    conn,
                    &Response::Busy {
                        queued: tenant.inflight.get() as u32,
                        capacity: budget as u32,
                    },
                );
                return false;
            }
        }
        let capacity = self.srv.config.queue_capacity;
        let admitted = self
            .srv
            .depth
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |d| {
                if d < capacity {
                    Some(d + 1)
                } else {
                    None
                }
            })
            .is_ok();
        if !admitted {
            self.srv.obs.busy_rejections.inc();
            tenant.busy_total.inc();
            buffer_frame(
                conn,
                &Response::Busy {
                    queued: self.srv.depth.load(Ordering::Relaxed) as u32,
                    capacity: capacity as u32,
                },
            );
            return false;
        }
        self.srv.obs.queue_depth.add(1);
        let (reply_tx, reply_rx) = sync::channel::<Response>();
        // The queue.wait span opens here and closes when a worker
        // dequeues the job — admission wait becomes visible in the tree.
        let queue_span = traced
            .map(|ctx| trace::tracer().start(ctx.trace_id, ctx.span, "queue.wait"))
            .unwrap_or(0);
        if self.job_tx.send(Job { kind, reply: reply_tx, trace: traced, queue_span }).is_err() {
            self.srv.depth.fetch_sub(1, Ordering::AcqRel);
            self.srv.obs.queue_depth.add(-1);
            buffer_frame(
                conn,
                &Response::Error {
                    code: ErrorCode::Internal,
                    message: "worker pool is gone".into(),
                },
            );
            return false;
        }
        tenant.inflight.set(tenant.inflight.get() + 1);
        conn.inflight = Some(Inflight {
            reply: reply_rx,
            // Exactly the streaming jobs hand the reactor a cancel flag.
            streaming: cancel.is_some(),
            cancel,
            traced,
            latency_idx,
            started,
            tenant,
        });
        true
    }

    /// Pulls everything the worker has sent for this connection's
    /// in-flight job: partials and search events forward immediately
    /// (recording `partial.emit` when traced); the final frame
    /// completes the exchange.
    fn drain_reply(&mut self, conn: &mut Conn) -> bool {
        let mut work = false;
        loop {
            let (traced, cancel) = match &conn.inflight {
                Some(inflight) => (inflight.traced, inflight.cancel.clone()),
                None => return work,
            };
            match conn.inflight.as_ref().expect("checked above").reply.try_recv() {
                Ok(mid @ (Response::Partial(_) | Response::SearchEvent(_))) => {
                    work = true;
                    let start = traced.map(|_| trace::now_us());
                    if conn.writable {
                        buffer_frame(conn, &mid);
                        flush_outbound(conn);
                    }
                    if !conn.writable {
                        // Client gone: cancel the drive, keep draining
                        // so the worker finishes cleanly.
                        if let Some(cancel) = &cancel {
                            cancel.store(true, Ordering::Release);
                        }
                    }
                    if let (Some(ctx), Some(start_us)) = (traced, start) {
                        trace::tracer().record(
                            ctx.trace_id,
                            ctx.span,
                            "partial.emit",
                            start_us,
                            trace::now_us(),
                            conn.writable as u64,
                            0,
                        );
                    }
                }
                Ok(response) => {
                    work = true;
                    self.finish_inflight(conn, Some(response));
                }
                Err(TryRecvError::Empty) => return work,
                Err(TryRecvError::Disconnected) => {
                    work = true;
                    self.finish_inflight(conn, None);
                }
            }
        }
    }

    /// The job's final frame (or a dropped reply channel): complete the
    /// exchange exactly as the blocking server did — send the reply if
    /// the client can still hear it, record the per-kind and per-tenant
    /// latency, close the request trace — then release the tenant's
    /// budget slot and resume decoding pipelined frames.
    fn finish_inflight(&mut self, conn: &mut Conn, response: Option<Response>) {
        let inflight = conn.inflight.take().expect("finish without inflight");
        let response = response.unwrap_or(Response::Error {
            code: ErrorCode::Internal,
            message: "worker dropped the job".into(),
        });
        if conn.writable {
            buffer_frame(conn, &response);
        }
        inflight.tenant.inflight.set(inflight.tenant.inflight.get().saturating_sub(1));
        let micros = inflight.started.elapsed().as_micros() as u64;
        inflight.tenant.latency_us.record(micros);
        if let Some(i) = inflight.latency_idx {
            self.srv.obs.latency[i].record(micros);
        }
        if let Some(ctx) = inflight.traced {
            trace::tracer().end(ctx.trace_id, ctx.span);
            trace::tracer().finish(ctx.trace_id);
        }
        if !conn.writable || !conn.peer_open {
            conn.closing = true;
        } else {
            // Frames the client pipelined behind the job decode now.
            self.process_inbound(conn);
        }
    }

    /// The connection's tenant, defaulting (and pinning) to
    /// [`DEFAULT_TENANT`] for connections that never sent a `Hello`.
    fn conn_tenant(&mut self, conn: &mut Conn) -> Rc<TenantState> {
        if let Some(tenant) = &conn.tenant {
            return tenant.clone();
        }
        let tenant = self.tenant_state(DEFAULT_TENANT);
        conn.tenant = Some(tenant.clone());
        tenant
    }

    fn tenant_state(&mut self, name: &str) -> Rc<TenantState> {
        if let Some(tenant) = self.tenants.get(name) {
            return tenant.clone();
        }
        let registry = &self.srv.obs.registry;
        let tenant = Rc::new(TenantState {
            requests_total: registry.counter(&format!("tenant.{name}.requests_total")),
            busy_total: registry.counter(&format!("tenant.{name}.busy_total")),
            latency_us: registry.histogram(&format!("tenant.{name}.latency_us")),
            inflight: Cell::new(0),
        });
        self.tenants.insert(name.to_string(), tenant.clone());
        tenant
    }

    /// Runs every loop iteration once the shutdown flag is up: stop
    /// serving, cancel streaming drives, retire idle connections, and
    /// keep flushing until every admitted job has answered with its
    /// final frame — slow readers get [`SHUTDOWN_FLUSH_GRACE`], then
    /// their unflushed buffers are dropped. Returns true once no
    /// connections remain.
    fn drain_shutdown(&mut self) -> bool {
        self.accept_ready();
        let grace_expired = match self.shutdown_seen {
            Some(t) => t.elapsed() > SHUTDOWN_FLUSH_GRACE,
            None => {
                self.shutdown_seen = Some(Instant::now());
                false
            }
        };
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else { continue };
            match &conn.inflight {
                Some(inflight) => {
                    if let Some(cancel) = &inflight.cancel {
                        cancel.store(true, Ordering::Release);
                    }
                }
                None => conn.closing = true,
            }
            flush_outbound(&mut conn);
            if grace_expired && conn.inflight.is_none() {
                conn.mark_unwritable();
            }
            self.settle(conn);
        }
        self.conns.is_empty()
    }

    /// Timed auto-compaction: the store's size/live-ratio thresholds
    /// must hold continuously for `compact_after` before the reactor
    /// compacts — one deliberate pass, not a compaction storm. This is
    /// what finally compacts stores that crossed the threshold through
    /// replay or eviction patterns no further append revisits.
    fn compaction_tick(&mut self) {
        let (Some(hold), Some(store)) = (self.srv.config.compact_after, self.srv.store.as_ref())
        else {
            return;
        };
        let mut store = store.lock().unwrap();
        if !store.should_compact() {
            self.compact_held_since = None;
            return;
        }
        let since = *self.compact_held_since.get_or_insert_with(Instant::now);
        if since.elapsed() < hold {
            return;
        }
        self.compact_held_since = None;
        match store.compact() {
            Ok(_) => {
                self.srv.obs.store_compactions.add(1);
                self.srv.obs.store_bytes.set(store.bytes() as i64);
            }
            Err(e) => eprintln!("warning: timed store compaction failed: {e}"),
        }
    }
}
