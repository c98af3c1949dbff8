//! The codec's tests: every kind of the table round-trips its samples and
//! rejects every cut, padding and the other direction; the golden bytes
//! and the documented frame table are pinned; hostile counts, magic, kinds
//! and buckets are refused; and request shapes are validated.

use super::*;

/// Kinds that once had a frame. They decode as `BadKind` and their
/// bytes are never given to another frame.
const RETIRED_KINDS: [(u8, &str); 7] = [
    (0x03, "SearchPlacement"),
    (0x04, "ComparePlans"),
    (0x05, "Stats"),
    (0x0B, "CacheSync"),
    (0x84, "Compare"),
    (0x85, "StatsResult"),
    (0x8C, "CacheSegment"),
];

fn sample_requests() -> Vec<Request> {
    vec![
        Request::Ping { token: u64::MAX },
        Request::AssessPlan(AssessRequest {
            preset: Preset::Tiny,
            rounds: 10_000,
            seed: 42,
            k: 2,
            n: 3,
            assignments: vec![vec![72, 73, 74]],
        }),
        Request::AssessPlan(AssessRequest {
            preset: Preset::Large,
            rounds: 1,
            seed: 0,
            k: 1,
            n: 2,
            assignments: vec![vec![72, 73], vec![80, 81]],
        }),
        Request::Shutdown,
        Request::MetricsDump { journal_tail: 0 },
        Request::MetricsDump { journal_tail: 256 },
        Request::AssessStream {
            req: AssessRequest {
                preset: Preset::Tiny,
                rounds: 50_000,
                seed: 11,
                k: 2,
                n: 3,
                assignments: vec![vec![72, 73, 74]],
            },
            cadence: 4,
        },
        Request::AssessCancel,
        Request::SearchStream {
            req: SearchRequest {
                preset: Preset::Tiny,
                rounds: 2_000,
                seed: 13,
                k: 2,
                n: 3,
                budget_ms: 0,
            },
            workers: 4,
            iters: 150,
        },
        Request::TraceDump { trace_id: 0 },
        Request::TraceDump { trace_id: u64::MAX },
        Request::TraceContext { trace_id: 0xDEAD_BEEF, parent_span: 1 << 20 },
        Request::TraceUpload { trace_id: 1, spans: vec![] },
        Request::TraceUpload { trace_id: 2, spans: sample_trace_spans() },
        Request::Hello { tenant: "default".into() },
        Request::Hello { tenant: "team-a.prod_01".into() },
    ]
}

fn sample_trace_spans() -> Vec<TraceSpan> {
    vec![
        TraceSpan {
            id: (1 << 20) + 1,
            parent: 0,
            kind: "client.request".into(),
            start_us: 1_700_000_000_000_000,
            end_us: 1_700_000_000_250_000,
            v0: 0,
            v1: 0,
        },
        TraceSpan {
            id: (1 << 20) + 2,
            parent: (1 << 20) + 1,
            kind: "client.connect".into(),
            start_us: 1_700_000_000_000_100,
            end_us: 0,
            v0: u64::MAX,
            v1: 7,
        },
    ]
}

fn sample_metrics() -> MetricsResponse {
    let mut hist = HistogramSnapshot { count: 3, sum: 1_234, max: 1_000, ..Default::default() };
    hist.buckets[0] = 1;
    hist.buckets[9] = 2;
    MetricsResponse {
        snapshot: MetricsSnapshot {
            counters: vec![("server.cache_hits".into(), 40), ("server.requests_total".into(), 100)],
            gauges: vec![("server.queue_depth".into(), -1), ("x".into(), i64::MAX)],
            histograms: vec![("server.latency_us.assess".into(), hist)],
        },
        events: vec![Event {
            seq: 7,
            ts_micros: 1_700_000_000_000_000,
            thread: 3,
            kind: "anneal.best".into(),
            v0: 14,
            v1: 0,
            f0: 0.998,
            f1: 0.25,
        }],
    }
}

fn sample_responses() -> Vec<Response> {
    vec![
        Response::Pong { token: 17 },
        Response::Assess(AssessResponse {
            score: 0.987_654_321,
            variance: 1.5e-6,
            rounds: 10_000,
            successes: 9_876,
            cached: true,
        }),
        Response::Search(SearchResponse {
            reliability: 0.9999,
            ciw95: 2e-4,
            plans_assessed: 12_345,
            hosts: vec![72, 99, 104],
        }),
        Response::Busy { queued: 64, capacity: 64 },
        Response::Error { code: ErrorCode::Invalid, message: "id 9999 is not a host".into() },
        Response::Error { code: ErrorCode::Oversized, message: String::new() },
        Response::ShutdownAck { completed: 314 },
        Response::Metrics(sample_metrics()),
        Response::Metrics(MetricsResponse::default()),
        Response::Partial(PartialResponse {
            rounds_done: 5_040,
            rounds_total: 50_400,
            score: 0.991_5,
            ciw: 0.012_3,
        }),
        Response::SearchEvent(SearchEventResponse {
            chain: 2,
            iteration: 37,
            elapsed_us: 12_345,
            measure: 0.999_25,
            reliability: 0.999_25,
            temperature: 0.75,
        }),
        Response::Trace(TraceResponse { trace_id: 42, dropped: 3, spans: sample_trace_spans() }),
        Response::Trace(TraceResponse::default()),
        Response::HelloAck { tenant: "default".into() },
        Response::HelloAck { tenant: "team-a.prod_01".into() },
    ]
}

/// One direction of the protocol as bytes: its kind table, its encoded
/// samples, its own decoder (re-encoding what it decoded) and the other
/// direction's.
struct Direction {
    rows: &'static [KindRow],
    samples: Vec<Bytes>,
    recode: fn(Bytes) -> Result<Bytes, ProtoError>,
    other: fn(Bytes) -> Result<Bytes, ProtoError>,
}

/// Both directions. Encoding a sample here also checks that it decodes
/// to an equal value.
fn directions() -> [Direction; 2] {
    let request: fn(Bytes) -> _ = |b| Request::decode(b).map(|r| r.encode());
    let response: fn(Bytes) -> _ = |b| Response::decode(b).map(|r| r.encode());
    let requests = sample_requests().into_iter().map(|sample| {
        let bytes = sample.encode();
        assert_eq!(Request::decode(bytes.clone()), Ok(sample));
        bytes
    });
    let responses = sample_responses().into_iter().map(|sample| {
        let bytes = sample.encode();
        assert_eq!(Response::decode(bytes.clone()), Ok(sample));
        bytes
    });
    [
        Direction {
            rows: REQUEST_KINDS,
            samples: requests.collect(),
            recode: request,
            other: response,
        },
        Direction {
            rows: RESPONSE_KINDS,
            samples: responses.collect(),
            recode: response,
            other: request,
        },
    ]
}

/// A payload under our magic that no encoder would write.
fn raw(kind: u8, body: &[u8]) -> Bytes {
    let mut w = ByteWriter::new();
    w.put_u32_le(MAGIC);
    w.put_u8(kind);
    w.put_slice(body);
    w.freeze()
}

/// Driven by the kind table, so a frame added without a sample fails
/// here. Every row has samples, and each of them round-trips — the
/// decoded value equals the sample and re-encodes to the same bytes —
/// is `Truncated` on every strict prefix, `TrailingBytes` when padded,
/// and a `BadKind` to the other direction's decoder.
#[test]
fn every_kind_has_samples_that_roundtrip_and_reject_cuts_padding_and_the_other_direction() {
    for d in directions() {
        for row in d.rows {
            let samples: Vec<_> = d.samples.iter().filter(|s| s[4] == row.kind).collect();
            assert!(!samples.is_empty(), "0x{:02X} {} has no sample", row.kind, row.name);
            for &whole in &samples {
                assert_eq!((d.recode)(whole.clone()).as_ref(), Ok(whole), "{}", row.name);
                for cut in 0..whole.len() {
                    let cut_off = (d.recode)(whole.slice(..cut));
                    assert_eq!(cut_off, Err(ProtoError::Truncated), "{} cut={cut}", row.name);
                }
                let padded = Bytes::from([whole.as_slice(), &[0]].concat());
                assert_eq!((d.recode)(padded), Err(ProtoError::TrailingBytes(1)));
                assert_eq!((d.other)(whole.clone()), Err(ProtoError::BadKind(row.kind)));
            }
        }
        for s in &d.samples {
            assert!(d.rows.iter().any(|row| row.kind == s[4]), "sample of no row: {s:?}");
        }
    }
}

/// `golden_frames.txt` holds one `kind hex` line per kind, written by
/// the encoder of the commit before the frame table existed (PR 14)
/// from that kind's longest sample. The bytes must not move.
#[test]
fn golden_frames() {
    let unhex = |hex: &str| -> Vec<u8> {
        (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
    };
    let golden: Vec<(u8, Vec<u8>)> = include_str!("../golden_frames.txt")
        .lines()
        .map(|line| line.split_once(' ').expect("kind hex"))
        .map(|(kind, hex)| (unhex(kind.trim_start_matches("0x"))[0], unhex(hex)))
        .collect();
    let mut rows = 0;
    for d in directions() {
        for row in d.rows {
            let (_, want) = golden
                .iter()
                .find(|(kind, _)| *kind == row.kind)
                .unwrap_or_else(|| panic!("no golden line for 0x{:02X}", row.kind));
            let longest =
                d.samples.iter().filter(|s| s[4] == row.kind).rev().max_by_key(|s| s.len());
            assert_eq!(longest.unwrap().as_slice(), want.as_slice(), "{} moved", row.name);
            let back = (d.recode)(Bytes::from(want.clone()));
            assert_eq!(back.as_deref(), Ok(want.as_slice()), "{} fed back", row.name);
            rows += 1;
        }
    }
    assert_eq!(rows, golden.len(), "a golden line names no kind of the table");
}

#[test]
fn retired_kinds_are_bad_kinds_and_never_reused() {
    for (kind, name) in RETIRED_KINDS {
        for d in directions() {
            assert!(d.rows.iter().all(|row| row.kind != kind), "{name}'s byte was reused");
            // Bare, and with what used to be a valid body behind it.
            for body in [0, 60] {
                let frame = raw(kind, &vec![0; body]);
                assert_eq!((d.recode)(frame), Err(ProtoError::BadKind(kind)), "{name}");
            }
        }
    }
}

/// The frame table as `frame_table.md` and DESIGN.md carry it.
fn frame_table() -> String {
    let mut out = String::new();
    for (title, rows) in [
        ("Request kinds (client → server):", REQUEST_KINDS),
        ("Response kinds (server → client):", RESPONSE_KINDS),
    ] {
        out += &format!("{title}\n\n| kind | frame | body |\n|------|-------|------|\n");
        for row in rows {
            let body = match (row.body)() {
                body if body.is_empty() => "(empty)".to_string(),
                body => format!("`{body}`"),
            };
            out += &format!("| 0x{:02X} | {} | {body} |\n", row.kind, row.name);
        }
        out += "\n";
    }
    out += "Retired kinds (decode as `BadKind`, never reused):\n\n";
    out += "| kind | frame |\n|------|-------|\n";
    for (kind, name) in RETIRED_KINDS {
        out += &format!("| 0x{kind:02X} | {name} |\n");
    }
    out
}

/// `frame_table.md` (which the module doc includes) is the rendered
/// table, and DESIGN.md carries every row of it; on a mismatch the
/// expected block is printed for pasting.
#[test]
fn frame_table_is_the_documented_one() {
    let table = frame_table();
    assert!(include_str!("../frame_table.md") == table, "frame_table.md should be:\n{table}");
    let design = include_str!("../../../../DESIGN.md");
    for row in table.lines().filter(|row| !row.is_empty()) {
        assert!(design.lines().any(|l| l == row), "DESIGN.md lacks {row}; expected:\n{table}");
    }
}

#[test]
fn bad_magic_kind_and_preset_are_rejected() {
    let mut w = ByteWriter::new();
    w.put_u32_le(0xDEAD_BEEF);
    w.put_u8(0x01);
    w.put_u64_le(0);
    assert_eq!(Request::decode(w.freeze()), Err(ProtoError::BadMagic(0xDEAD_BEEF)));
    assert_eq!(Request::decode(raw(0x7F, &[])), Err(ProtoError::BadKind(0x7F)));
    // An AssessPlan whose preset tag does not exist.
    assert_eq!(Request::decode(raw(0x02, &[9; 25])), Err(ProtoError::BadPreset(9)));
}

/// The count rule: a `[T]` whose count the remaining bytes cannot hold
/// is `Truncated` up front, whatever `T` is — one element too many is
/// enough, and `u32::MAX` reserves nothing.
#[test]
fn a_count_the_remaining_bytes_cannot_hold_is_truncated() {
    // `fixed` zero bytes of leading fields, the count, `tail` zero bytes.
    let frame = |kind, fixed: usize, count: u32, tail: usize| {
        raw(kind, &[vec![0; fixed], count.to_le_bytes().to_vec(), vec![0; tail]].concat())
    };
    for count in [3, u32::MAX] {
        // AssessPlan: two empty host lists fit in 8 bytes, three do not.
        assert_eq!(Request::decode(frame(0x02, 21, count, 8)), Err(ProtoError::Truncated));
        // TraceUpload: two minimal spans (42 bytes each) fit in 84 bytes.
        assert_eq!(Request::decode(frame(0x0E, 8, count, 84)), Err(ProtoError::Truncated));
        // Search: two hosts fit in 8 bytes.
        assert_eq!(Response::decode(frame(0x83, 24, count, 8)), Err(ProtoError::Truncated));
        // Metrics: two minimal counters (10 bytes each) fit in 20 bytes.
        assert_eq!(Response::decode(frame(0x89, 0, count, 20)), Err(ProtoError::Truncated));
    }
    assert!(Request::decode(frame(0x02, 21, 2, 8)).is_ok(), "two empty lists do fit");
}

#[test]
fn error_frame_truncates_overlong_messages() {
    let long = "x".repeat(100_000);
    let resp = Response::Error { code: ErrorCode::Internal, message: long };
    let decoded = Response::decode(resp.encode()).unwrap();
    match decoded {
        Response::Error { message, .. } => assert_eq!(message.len(), u16::MAX as usize),
        other => panic!("wrong frame {other:?}"),
    }
}

#[test]
fn frame_transport_roundtrip_and_clean_eof() {
    let payload = Request::Ping { token: 3 }.encode();
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    assert_eq!(&wire[..4], &(payload.len() as u32).to_le_bytes());
    let mut cursor = std::io::Cursor::new(wire);
    let got = read_frame(&mut cursor).unwrap().unwrap();
    assert_eq!(got, payload.as_slice());
    assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF at boundary");
}

#[test]
fn oversized_length_prefix_is_invalid_data_without_allocation() {
    let mut wire = Vec::new();
    wire.extend_from_slice(&u32::MAX.to_le_bytes());
    wire.extend_from_slice(&[0; 8]);
    let err = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn half_written_frame_is_unexpected_eof() {
    let payload = Request::Shutdown.encode();
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    wire.truncate(wire.len() - 2);
    let err = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

#[test]
fn shape_validation_catches_bad_requests() {
    let ok = Request::AssessPlan(AssessRequest {
        preset: Preset::Tiny,
        rounds: 100,
        seed: 1,
        k: 1,
        n: 2,
        assignments: vec![vec![72, 73]],
    });
    assert!(validate_shape(&ok).is_ok());
    let mut bad_k = ok.clone();
    if let Request::AssessPlan(a) = &mut bad_k {
        a.k = 3;
    }
    assert!(validate_shape(&bad_k).unwrap_err().contains("k <= n"));
    let mut bad_rounds = ok.clone();
    if let Request::AssessPlan(a) = &mut bad_rounds {
        a.rounds = 0;
    }
    assert!(validate_shape(&bad_rounds).unwrap_err().contains("rounds"));
    let mut bad_layer = ok.clone();
    if let Request::AssessPlan(a) = &mut bad_layer {
        a.assignments = vec![vec![72]];
    }
    assert!(validate_shape(&bad_layer).unwrap_err().contains("hosts but n="));
    let mut no_layers = ok.clone();
    if let Request::AssessPlan(a) = &mut no_layers {
        a.assignments = vec![];
    }
    assert!(validate_shape(&no_layers).unwrap_err().contains("layers"));
    // Streaming: the AssessPlan rules carry over and cadence 0 is out.
    let Request::AssessPlan(a) = ok else { unreachable!() };
    let stream = Request::AssessStream { req: a.clone(), cadence: 1 };
    assert!(validate_shape(&stream).is_ok());
    let bad_cadence = Request::AssessStream { req: a.clone(), cadence: 0 };
    assert!(validate_shape(&bad_cadence).unwrap_err().contains("cadence"));
    let mut bad_k = a;
    bad_k.k = 3;
    let bad_stream = Request::AssessStream { req: bad_k, cadence: 1 };
    assert!(validate_shape(&bad_stream).unwrap_err().contains("k <= n"));
    assert!(validate_shape(&Request::AssessCancel).is_ok());
    // SearchStream: chain count and budget shape are admission-checked.
    let s = SearchRequest { preset: Preset::Tiny, rounds: 100, seed: 1, k: 2, n: 3, budget_ms: 0 };
    let ok_stream = Request::SearchStream { req: s, workers: 4, iters: 50 };
    assert!(validate_shape(&ok_stream).is_ok());
    let no_chains = Request::SearchStream { req: s, workers: 0, iters: 50 };
    assert!(validate_shape(&no_chains).unwrap_err().contains("search chains"));
    let too_many = Request::SearchStream { req: s, workers: MAX_SEARCH_CHAINS + 1, iters: 50 };
    assert!(validate_shape(&too_many).unwrap_err().contains("search chains"));
    let no_budget = Request::SearchStream { req: s, workers: 1, iters: 0 };
    assert!(validate_shape(&no_budget).unwrap_err().contains("budget"));
    let wall_clock_ok =
        Request::SearchStream { req: SearchRequest { budget_ms: 25, ..s }, workers: 1, iters: 0 };
    assert!(validate_shape(&wall_clock_ok).is_ok());
    let bad_spec =
        Request::SearchStream { req: SearchRequest { k: 4, ..s }, workers: 1, iters: 50 };
    assert!(validate_shape(&bad_spec).unwrap_err().contains("k <= n"));
    // Tracing: id 0 is reserved, upload span counts are bounded.
    assert!(validate_shape(&Request::TraceDump { trace_id: 0 }).is_ok());
    assert!(validate_shape(&Request::TraceContext { trace_id: 5, parent_span: 0 }).is_ok());
    let zero_ctx = Request::TraceContext { trace_id: 0, parent_span: 1 };
    assert!(validate_shape(&zero_ctx).unwrap_err().contains("trace id 0"));
    assert!(validate_shape(&Request::TraceUpload { trace_id: 5, spans: vec![] }).is_ok());
    let zero_upload = Request::TraceUpload { trace_id: 0, spans: vec![] };
    assert!(validate_shape(&zero_upload).unwrap_err().contains("trace id 0"));
    let span = sample_trace_spans().remove(0);
    let flood =
        Request::TraceUpload { trace_id: 5, spans: vec![span; MAX_TRACE_SPANS as usize + 1] };
    assert!(validate_shape(&flood).unwrap_err().contains("uploaded spans"));
    // Hello: tenant ids are bounded and charset-restricted (they
    // embed into instrument names).
    assert!(validate_shape(&Request::Hello { tenant: "team-a.prod_01".into() }).is_ok());
    assert!(validate_shape(&Request::Hello { tenant: "x".repeat(MAX_TENANT_LEN) }).is_ok());
    let empty = Request::Hello { tenant: String::new() };
    assert!(validate_shape(&empty).unwrap_err().contains("empty"));
    let long = Request::Hello { tenant: "x".repeat(MAX_TENANT_LEN + 1) };
    assert!(validate_shape(&long).unwrap_err().contains("exceeds"));
    for bad in ["a b", "a/b", "a\nb", "tenant!", "é"] {
        let req = Request::Hello { tenant: bad.into() };
        assert!(
            validate_shape(&req).unwrap_err().contains("A-Za-z0-9"),
            "{bad:?} must be rejected"
        );
    }
}

/// The sparse bucket encoding reconstructs the full 64-bucket layout.
#[test]
fn metrics_histograms_travel_sparse() {
    let bytes = Response::Metrics(sample_metrics()).encode();
    let Response::Metrics(m) = Response::decode(bytes).unwrap() else { unreachable!() };
    let h = m.snapshot.histogram("server.latency_us.assess").unwrap();
    assert_eq!(h.buckets[9], 2);
    assert_eq!(h.buckets.iter().sum::<u64>(), 3);
    assert_eq!(h.p50(), 1_000, "p50 bucket upper bound clamps to max");
}

#[test]
fn metrics_bad_bucket_index_is_rejected() {
    let mut w = ByteWriter::new();
    w.put_u32_le(0); // counters
    w.put_u32_le(0); // gauges
    w.put_u32_le(1); // one histogram
    "h".to_string().put(&mut w);
    w.put_bytes(1, 24); // count, sum, max
    w.put_u8(1); // one sparse bucket
    w.put_u8(64); // out of range
    w.put_u64_le(1);
    w.put_u32_le(0); // events
    assert_eq!(Response::decode(raw(0x89, &w.into_vec())), Err(ProtoError::BadBucket(64)));
}

#[test]
fn preset_names_and_tags_roundtrip() {
    for p in [Preset::Tiny, Preset::Small, Preset::Medium, Preset::Large, Preset::Xl] {
        assert_eq!(Preset::from_tag(p.tag()).unwrap(), p);
    }
    assert_eq!(Preset::from_name("tiny"), Some(Preset::Tiny));
    assert_eq!(Preset::from_name("xl"), Some(Preset::Xl));
    assert_eq!(Preset::from_name("nowhere"), None);
    assert!(Preset::from_tag(7).is_err());
}
