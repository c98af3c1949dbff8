//! End-to-end tests for the distributed tracing layer: a streamed
//! assessment over real TCP yields ONE connected causal span tree that
//! spans both sides of the connection (client-allocated ids joining
//! server-recorded spans via the shared trace id), `TraceDump { 0 }`
//! resolves to the most recently finished trace, and — property-checked
//! over random workloads — the tracer never stores a dangling parent or
//! a child interval that escapes its parent.

use recloud_obs::trace::{self, CLIENT_ID_BASE};
use recloud_obs::{SpanRecord, Tracer};
use recloud_sampling::prop_assert;
use recloud_sampling::proptest::forall;
use recloud_server::protocol::{AssessRequest, Preset, TraceSpan};
use recloud_server::{Client, Server, ServerConfig};
use recloud_store::StoreConfig;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::ops::ControlFlow;
use std::path::PathBuf;
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

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("recloud-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_request(rounds: u32, seed: u64) -> AssessRequest {
    AssessRequest {
        preset: Preset::Tiny,
        rounds,
        seed,
        k: 2,
        n: 3,
        assignments: vec![recloud_server::loadgen::first_hosts(Preset::Tiny, 3)],
    }
}

/// Mirrors the CLI's remote-assess client flow: begin a client trace,
/// arm the connection, stream the request recording per-Partial spans,
/// then upload the client's side of the tree. The client records into a
/// PRIVATE tracer — in production the client is a different process; in
/// this in-process test the global tracer belongs to the daemon side.
fn traced_stream(addr: SocketAddr, trace_id: u64, request: AssessRequest) -> (Client, u64) {
    let tracer = Tracer::new();
    tracer.begin(trace_id, CLIENT_ID_BASE);
    let root = tracer.start(trace_id, 0, "client.request");
    let connect_start = trace::now_us();
    let mut client = Client::connect(addr).expect("connect");
    tracer.record(trace_id, root, "client.connect", connect_start, trace::now_us(), 0, 0);
    client.set_trace(trace_id, root).expect("arm trace");
    let mut partials = 0u64;
    let (_a, stopped) = client
        .assess_streaming(request, 1, |p| {
            partials += 1;
            let at = trace::now_us();
            tracer.record(trace_id, root, "client.partial", at, at, p.rounds_done, partials);
            ControlFlow::Continue(())
        })
        .expect("streamed assess");
    assert!(!stopped);
    tracer.end(trace_id, root);
    let (spans, _dropped) = tracer.spans(trace_id).expect("client trace exists");
    let wire: Vec<TraceSpan> = spans
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
        .collect();
    client.trace_upload(trace_id, wire).expect("upload client spans");
    (client, partials)
}

/// Walks parent links from `id` to a root, returning the root id (or
/// panicking on a cycle / missing link, which the tests treat as a
/// disconnected tree).
fn root_of(by_id: &HashMap<u32, &TraceSpan>, mut id: u32) -> u32 {
    for _ in 0..by_id.len() + 1 {
        let s = by_id.get(&id).unwrap_or_else(|| panic!("span {id} referenced but absent"));
        if s.parent == 0 {
            return id;
        }
        id = s.parent;
    }
    panic!("parent cycle at span {id}");
}

/// Acceptance criterion for the PR: a streamed assessment over TCP
/// produces a single connected causal tree — every span (client and
/// server side) reaches the client's `client.request` root, and every
/// pipeline stage the request crossed is present: connect, queue wait,
/// cache lookup, worker execution, per-chunk kernel spans, store
/// append, partial emission.
#[test]
fn streamed_assessment_yields_one_connected_causal_tree() {
    let dir = store_dir("tree");
    let daemon =
        start(ServerConfig { workers: 1, store_dir: Some(dir.clone()), ..ServerConfig::default() });
    let trace_id = trace::now_us() | 1;
    let (mut client, partials) = traced_stream(daemon.addr, trace_id, tiny_request(9_000, 4_242));
    assert!(partials >= 2, "9k rounds stream several partials at cadence 1");

    let dump = client.trace_dump(trace_id).expect("trace dump");
    assert_eq!(dump.trace_id, trace_id);
    assert_eq!(dump.dropped, 0);

    let by_id: HashMap<u32, &TraceSpan> = dump.spans.iter().map(|s| (s.id, s)).collect();
    assert_eq!(by_id.len(), dump.spans.len(), "span ids are unique within the trace");
    let client_root =
        dump.spans.iter().find(|s| s.kind == "client.request").expect("client root was absorbed");
    assert!(client_root.id >= CLIENT_ID_BASE, "client ids come from the client base");
    assert_eq!(client_root.parent, 0);

    // ONE tree: every span, on both sides of the wire, reaches the
    // client's root.
    for s in &dump.spans {
        assert_eq!(
            root_of(&by_id, s.id),
            client_root.id,
            "span {} ({}) is disconnected from the client root",
            s.id,
            s.kind
        );
    }
    let sides: HashSet<bool> = dump.spans.iter().map(|s| s.id >= CLIENT_ID_BASE).collect();
    assert_eq!(sides.len(), 2, "the tree spans both client and server ids");

    // Every stage of the pipeline shows up, correctly parented.
    let kinds: HashMap<&str, &TraceSpan> =
        dump.spans.iter().map(|s| (s.kind.as_str(), s)).collect();
    for stage in [
        "client.connect",
        "client.partial",
        "server.request",
        "queue.wait",
        "cache.lookup",
        "worker.exec",
        "assess.chunk",
        "store.append",
        "partial.emit",
    ] {
        assert!(kinds.contains_key(stage), "missing stage {stage} in {:?}", dump.spans);
    }
    let server_request = kinds["server.request"];
    assert_eq!(server_request.parent, client_root.id, "the wire context parents the server side");
    assert_eq!(kinds["worker.exec"].parent, server_request.id);
    assert_eq!(kinds["assess.chunk"].parent, kinds["worker.exec"].id);
    assert!(kinds["assess.chunk"].v0 > 0, "chunk spans carry their round count");
    assert!(kinds["store.append"].v0 >= 1, "append span counts appended ops");
    let emits = dump.spans.iter().filter(|s| s.kind == "partial.emit").count() as u64;
    assert_eq!(emits, partials, "one emit span per partial the client saw");

    // Closed spans nest within their parents — checked per side only:
    // across the wire boundary (server.request under the client root)
    // the server stamps its end after writing the reply, racing the
    // client's own root end by a few microseconds.
    for s in &dump.spans {
        if s.parent == 0 {
            continue;
        }
        let parent = by_id[&s.parent];
        if (s.id >= CLIENT_ID_BASE) != (parent.id >= CLIENT_ID_BASE) {
            continue;
        }
        assert!(s.start_us >= parent.start_us, "{} starts before its parent", s.kind);
        if parent.end_us != 0 && s.end_us != 0 {
            assert!(s.end_us <= parent.end_us, "{} outlives its parent {}", s.kind, parent.kind);
        }
    }

    stop(daemon, &mut client);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `TraceDump { trace_id: 0 }` is "the most recently finished trace":
/// after two traced requests it returns the second, and an unknown
/// explicit id comes back empty (trace_id 0) rather than erroring.
#[test]
fn trace_dump_zero_resolves_to_latest_finished() {
    let daemon = start(ServerConfig { workers: 1, ..ServerConfig::default() });

    let first = trace::now_us() | 1;
    let (_first_client, _) = traced_stream(daemon.addr, first, tiny_request(2_000, 7));
    let second = first + 2;
    let (mut client, _) = traced_stream(daemon.addr, second, tiny_request(2_000, 8));

    let latest = client.trace_dump(0).expect("latest dump");
    assert_eq!(latest.trace_id, second, "id 0 resolves to the newest finished trace");
    assert!(!latest.spans.is_empty());

    let unknown = client.trace_dump(0xdead_beef).expect("unknown dump");
    assert_eq!(unknown.trace_id, 0, "unknown traces answer empty, not an error");
    assert!(unknown.spans.is_empty());

    stop(daemon, &mut client);
}

/// The first estimate's daemon-side time splits into named spans: a
/// traced request whose model seed differs from the one the worker's
/// engine holds records the model swap as `engine.reseed` under
/// `worker.exec`, over before any chunk starts; a request on the seed the
/// engine already holds records none.
#[test]
fn a_new_model_seed_is_traced_as_engine_reseed_before_the_first_chunk() {
    let daemon = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    // Untraced: builds the worker's Tiny engine on seed 11.
    let mut warm = Client::connect(daemon.addr).expect("connect");
    warm.assess(tiny_request(1_000, 11)).expect("warm-up assess");

    let reseeded = trace::now_us() | 1;
    let (mut client, _) = traced_stream(daemon.addr, reseeded, tiny_request(6_000, 12));
    let dump = client.trace_dump(reseeded).expect("trace dump");
    let reseeds: Vec<&TraceSpan> =
        dump.spans.iter().filter(|s| s.kind == "engine.reseed").collect();
    assert_eq!(reseeds.len(), 1, "one model swap: {:?}", dump.spans);
    let exec = dump.spans.iter().find(|s| s.kind == "worker.exec").expect("worker.exec span");
    assert_eq!(reseeds[0].parent, exec.id, "the swap runs inside the worker's execution");
    assert!(reseeds[0].v0 > 0, "the span counts the events redrawn");
    let chunks: Vec<&TraceSpan> = dump.spans.iter().filter(|s| s.kind == "assess.chunk").collect();
    assert!(!chunks.is_empty());
    for chunk in chunks {
        assert!(
            reseeds[0].end_us <= chunk.start_us,
            "reseed ends at {} after a chunk starts at {}",
            reseeds[0].end_us,
            chunk.start_us
        );
    }

    // Seed 12 again, other rounds: a cache miss on the engine's own seed.
    let held = reseeded + 2;
    traced_stream(daemon.addr, held, tiny_request(5_000, 12));
    let dump = client.trace_dump(held).expect("trace dump");
    assert!(dump.spans.iter().any(|s| s.kind == "assess.chunk"), "the request ran");
    assert!(
        dump.spans.iter().all(|s| s.kind != "engine.reseed"),
        "no swap on the held seed: {:?}",
        dump.spans
    );

    stop(daemon, &mut client);
}

/// Satellite: with aggressive store thresholds, repeated distinct
/// assessments push the spill log past `compact_min_bytes` with zero
/// live entries in the old generation... compaction triggers inside
/// `append` and surfaces as the `store.compactions_total` counter.
#[test]
fn store_auto_compaction_is_observable_in_server_metrics() {
    let dir = store_dir("compact");
    let daemon = start(ServerConfig {
        workers: 1,
        store_dir: Some(dir.clone()),
        store_config: StoreConfig {
            compact_min_bytes: 256,
            compact_live_ratio: 2.0, // always under-live: compact on every size check
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(daemon.addr).unwrap();

    for seed in 0..6 {
        let a = client.assess(tiny_request(1_000, 1_000 + seed)).unwrap();
        assert!(!a.cached);
    }
    let metrics = client.metrics(0).unwrap();
    let compactions = metrics.snapshot.counter("store.compactions_total").unwrap_or(0);
    assert!(compactions >= 1, "tiny thresholds force at least one compaction");

    stop(daemon, &mut client);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Property: over random begin/start/record/end/absorb workloads, every
/// stored span with a nonzero parent points at a span that exists, and
/// every closed child's interval nests within its closed parent's.
/// (Parents are allocated before children, so capacity overflow can
/// orphan a child into a root — never dangle a reference.)
#[test]
fn prop_span_trees_are_well_parented_and_nested() {
    forall("trace.span_nesting", |g| {
        let tracer = Tracer::new();
        let trace_id = g.u64_in(1..=u64::MAX);
        tracer.begin(trace_id, if g.any_bool() { 0 } else { CLIENT_ID_BASE });
        let mut stack = vec![tracer.start(trace_id, 0, "worker.exec")];
        for _ in 0..g.usize_in(1..700) {
            let parent = *stack.last().unwrap();
            match g.usize_in(0..4) {
                0 if stack.len() > 1 => tracer.end(trace_id, stack.pop().unwrap()),
                1 if stack.len() < 24 => stack.push(tracer.start(trace_id, parent, "assess.chunk")),
                2 => {
                    let start = trace::now_us();
                    tracer.record(
                        trace_id,
                        parent,
                        "cache.lookup",
                        start,
                        trace::now_us(),
                        g.any_u64(),
                        g.any_u64(),
                    );
                }
                _ => {
                    // A client-side upload parented under the current span.
                    let at = trace::now_us();
                    let id = CLIENT_ID_BASE + g.u32_in(1..1_000_000);
                    tracer.absorb(
                        trace_id,
                        &[SpanRecord {
                            id,
                            parent,
                            kind: "client.partial",
                            start_us: at,
                            end_us: at,
                            v0: 0,
                            v1: 0,
                        }],
                    );
                }
            }
        }
        while let Some(span) = stack.pop() {
            tracer.end(trace_id, span);
        }
        tracer.finish(trace_id);

        let (spans, dropped) = tracer.spans(trace_id).expect("trace exists");
        prop_assert!(spans.len() <= recloud_obs::trace::MAX_SPANS, "capacity bounds storage");
        let mut by_id: HashMap<u32, SpanRecord> = HashMap::new();
        for s in &spans {
            prop_assert!(s.id != 0, "stored spans have nonzero ids");
            // Absorbed ids may collide only if the generator repeats one;
            // server-allocated ids are sequential and unique.
            by_id.insert(s.id, *s);
        }
        for s in &spans {
            if s.parent == 0 {
                continue;
            }
            // The absorb arm can attach children to a parent id 0 (when a
            // start() overflowed); those became roots above. Any nonzero
            // parent must exist — overflow never drops a span that a kept
            // span references, because parents are pushed first.
            let parent = by_id.get(&s.parent);
            prop_assert!(
                parent.is_some() || dropped > 0 && s.id >= CLIENT_ID_BASE,
                "span {} ({}) dangles: parent {} missing with dropped={dropped}",
                s.id,
                s.kind,
                s.parent
            );
            let Some(parent) = parent else { continue };
            prop_assert!(
                s.start_us >= parent.start_us,
                "child {} starts at {} before parent {} at {}",
                s.id,
                s.start_us,
                parent.id,
                parent.start_us
            );
            if parent.end_us != 0 {
                prop_assert!(
                    s.end_us != 0 && s.end_us <= parent.end_us,
                    "child {} ({}..{}) escapes parent {} ({}..{})",
                    s.id,
                    s.start_us,
                    s.end_us,
                    parent.id,
                    parent.start_us,
                    parent.end_us
                );
            }
        }
        Ok(())
    });
}
