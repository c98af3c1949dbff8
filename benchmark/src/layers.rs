//! The serving layers timed in isolation, around their public calls, on
//! the workload's own requests: `server.protocol`, `server.cache`, `store`
//! and `obs`. What a round trip costs beyond these is transport.

use crate::daemon;
use crate::harness::Outcome;
use crate::replay::{ns_per_call, time_us};
use recloud_obs::{Counter, Histogram};
use recloud_server::protocol::{AssessRequest, AssessResponse, Request, Response};
use recloud_server::ResultCache;
use recloud_store::{Entry, Op, Store, StoreConfig};
use std::hint::black_box;
use std::io;

/// Stage costs `server.transport_us` subtracts from the round trip, µs.
pub struct Stages {
    /// Encode and decode of one request and one response.
    pub codec_us: f64,
    pub get_hit_us: f64,
    pub get_miss_us: f64,
    pub insert_us: f64,
    pub append_us: f64,
}

const ITERS: usize = 20_000;

pub fn serving_layers(
    requests: &[AssessRequest],
    answers: &[AssessResponse],
    cache_capacity: usize,
    out: &mut Outcome,
) -> io::Result<Stages> {
    // server.protocol: the four codec calls of one exchange.
    let frames: Vec<Request> = requests.iter().cloned().map(Request::AssessPlan).collect();
    let replies: Vec<Response> = answers.iter().copied().map(Response::Assess).collect();
    let encode_req = ns_per_call(ITERS, |i| {
        black_box(frames[i % frames.len()].encode());
    });
    let encode_resp = ns_per_call(ITERS, |i| {
        black_box(replies[i % replies.len()].encode());
    });
    let req_bytes: Vec<_> = frames.iter().map(Request::encode).collect();
    let resp_bytes: Vec<_> = replies.iter().map(Response::encode).collect();
    let decode_req = ns_per_call(ITERS, |i| {
        black_box(Request::decode(req_bytes[i % req_bytes.len()].clone()).is_ok());
    });
    let decode_resp = ns_per_call(ITERS, |i| {
        black_box(Response::decode(resp_bytes[i % resp_bytes.len()].clone()).is_ok());
    });
    out.num("server.protocol.encode_req_ns", encode_req, "ns");
    out.num("server.protocol.decode_req_ns", decode_req, "ns");
    out.num("server.protocol.encode_resp_ns", encode_resp, "ns");
    out.num("server.protocol.decode_resp_ns", decode_resp, "ns");
    // On the wire each payload follows a 4-byte length prefix.
    out.num("server.protocol.req_bytes", (req_bytes[0].len() + 4) as f64, "B");
    out.num("server.protocol.resp_bytes", (resp_bytes[0].len() + 4) as f64, "B");

    // server.cache at the workload's capacity, full.
    let answer = answers[0];
    let mut cache = ResultCache::new(cache_capacity);
    for key in 0..cache_capacity as u128 {
        cache.insert(key, answer);
    }
    let get_hit = ns_per_call(ITERS, |i| {
        black_box(cache.get((i * 7919 % cache_capacity) as u128));
    });
    let get_miss = ns_per_call(ITERS, |i| {
        black_box(cache.get(u128::MAX - i as u128));
    });
    let insert_evict = ns_per_call(ITERS, |i| {
        black_box(cache.insert((cache_capacity + i) as u128, answer));
    });
    out.num("server.cache.get_hit_ns", get_hit, "ns");
    out.num("server.cache.get_miss_ns", get_miss, "ns");
    out.num("server.cache.insert_evict_ns", insert_evict, "ns");

    // store: appends with and without a tombstone, a compaction, in a
    // scratch directory of this call's own.
    let dir = daemon::scratch_root().join(format!("store-micro-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // No compaction inside the timed appends: it gets its own number.
    let config = StoreConfig { compact_min_bytes: u64::MAX, ..StoreConfig::default() };
    let (mut store, _) = Store::open(&dir, config)?;
    let entry = |key: usize| Entry {
        key: key as u128,
        score: answer.score,
        variance: answer.variance,
        rounds: answer.rounds,
        successes: answer.successes,
    };
    let mut failed = false;
    let append = ns_per_call(ITERS, |i| failed |= store.append(&Op::Put(entry(i))).is_err());
    let append_evict = ns_per_call(ITERS, |i| {
        failed |= store.append(&Op::Put(entry(ITERS + i))).is_err();
        failed |= store.append(&Op::Evict(i as u128)).is_err();
    });
    let bytes_per_entry = store.live_bytes() as f64 / store.live_entries().max(1) as f64;
    let (compacted, compact_us) = time_us(|| store.compact());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    compacted?;
    if failed {
        return Err(io::Error::other("store append failed in the micro-benchmark"));
    }
    out.num("store.append_us", append / 1e3, "us");
    out.num("store.append_evict_us", append_evict / 1e3, "us");
    out.num("store.compact_ms", compact_us / 1e3, "ms");
    out.num("store.bytes_per_entry", bytes_per_entry, "B");

    // obs: the two instrument calls on every request's path.
    let counter = Counter::new();
    let histogram = Histogram::new();
    out.num("obs.counter_inc_ns", ns_per_call(ITERS * 10, |_| counter.inc()), "ns");
    out.num(
        "obs.histogram_record_ns",
        ns_per_call(ITERS * 10, |i| histogram.record(i as u64 % 4096)),
        "ns",
    );
    black_box((counter.value(), histogram.snapshot()));

    Ok(Stages {
        codec_us: (encode_req + decode_req + encode_resp + decode_resp) / 1e3,
        get_hit_us: get_hit / 1e3,
        get_miss_us: get_miss / 1e3,
        insert_us: insert_evict / 1e3,
        append_us: append_evict / 1e3,
    })
}
