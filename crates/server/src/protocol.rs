//! The `recloud-server` binary wire protocol.
//!
//! Every message crosses the socket as a *length-prefixed frame*:
//!
//! ```text
//! transport := len:u32 payload        (len = payload bytes, LE)
//! payload   := magic:u32 ("RCS1") kind:u8 body
//! ```
//!
//! A frame's body is a *field list*: the definition of its struct or enum
//! variant below, nothing else. The two `frames!` invocations are the
//! kind table (byte, name, direction, body); `encode`, `decode`, the codec
//! tests and the table below all come from them, so adding a frame is one
//! row and one field list. `frame_table.md` is that table as the unit test
//! `frame_table_is_the_documented_one` renders it; DESIGN.md carries the
//! same rows.
//!
#![doc = include_str!("frame_table.md")]
//!
//! Field types: integers little-endian; `f64` as IEEE-754 bits, so a
//! reliability score crosses the wire bit-exactly and a served assessment
//! can be compared bit-for-bit against a local one; `bool` is one byte;
//! `str` is `len:u16 utf8…`; `[T]` is `n:u32 T…`; `hist` is `count:u64
//! sum:u64 max:u64 n:u8 { bucket:u8 count:u64 }…` (non-zero buckets of
//! the fixed 64-bucket layout only).
//! One rule bounds every count: a `[T]` whose `n` elements cannot fit in
//! the bytes that remain is [`ProtoError::Truncated`] before anything is
//! reserved. Decoders are checked by construction: truncation on any
//! prefix, wrong magic and unknown kinds surface as [`ProtoError`]s,
//! never panics — hostile bytes are an expected input for a network
//! daemon.
//!
//! The retired kinds decode as [`ProtoError::BadKind`] like any unknown
//! kind and are never reused. A SearchStream with `workers = 1, iters = 0`
//! is the search 0x03 ran; MetricsDump carries every number 0x85 did.
//! 0x0B and 0x8C pulled a peer daemon's cache at bind; the store replay
//! is the daemon's one warm start. 0x04 and 0x84 ranked candidate plans
//! for a client that never came; `recloud compare` ranks them in process.
//!
//! Most exchanges are one request, one response; each variant's doc says
//! what its frame means, DESIGN.md ("Wire protocol (RCS1)") why. The rest:
//! an AssessStream is answered by zero or more Partial frames and a final
//! Assess — bit-identical to the plain AssessPlan answer, which is the
//! same job with no Partial forwarded — and may be cut short by an
//! AssessCancel, after which the final frame covers the rounds done; a
//! SearchStream by SearchEvent frames and a final Search, ignoring
//! cancels (a search cannot stop early without changing its answer);
//! TraceContext, TraceUpload and a stale AssessCancel get no response at
//! all. Mid-stream, any frame but AssessCancel is a protocol error.

use recloud_obs::{Event, HistogramSnapshot, MetricsSnapshot};
use recloud_sampling::wire::{ByteReader, ByteWriter, Bytes};
use recloud_topology::Scale;
use std::fmt;
use std::io::{Read, Write};

/// Payload magic, spelling "RCS1" (reCloud Serve v1).
pub const MAGIC: u32 = 0x5243_5331;
/// Magic (4) + kind (1).
pub const HEADER_LEN: usize = 5;
/// Upper bound on a payload; a larger length prefix is rejected before any
/// allocation happens (hostile clients cannot make the server reserve
/// gigabytes with four bytes).
pub const MAX_FRAME_LEN: usize = 1 << 20;
/// Upper bound on rounds per request (admission-time sanity, ~100× the
/// paper's §4.1 default).
pub const MAX_ROUNDS: u32 = 1_000_000;
/// Upper bound on application layers per request.
pub const MAX_LAYERS: u32 = 16;
/// Upper bound on instances per layer.
pub const MAX_INSTANCES: u32 = 1_024;
/// Upper bound on parallel annealing chains per SearchStream request.
pub const MAX_SEARCH_CHAINS: u32 = 64;
/// Upper bound on per-chain iterations per SearchStream request.
pub const MAX_SEARCH_ITERS: u32 = 1_000_000;
/// Upper bound on spans per TraceUpload / TraceResult frame — covers the
/// tracer's per-trace capacity from both id bases with room to spare
/// while keeping a maximal frame well under [`MAX_FRAME_LEN`].
pub const MAX_TRACE_SPANS: u32 = 2_048;
/// Upper bound on a tenant id's byte length — tenant ids embed into
/// instrument names (`tenant.<id>.requests_total`), so they stay short
/// and charset-restricted.
pub const MAX_TENANT_LEN: usize = 64;
/// Upper bound on distinct tenants per daemon. Every tenant is three
/// instruments in every `Metrics` frame: at most 873 bytes with a
/// [`MAX_TENANT_LEN`] id and all 64 latency buckets in use, so 512 of them
/// (447 KB) plus a full 4,096-event journal tail (~290 KB) still fit
/// [`MAX_FRAME_LEN`] — no client can grow the snapshot past what the
/// daemon is able to send.
pub const MAX_TENANTS: usize = 512;
/// The tenant a connection serves under until (unless) it says Hello.
pub const DEFAULT_TENANT: &str = "default";

/// Decode failure. Any of these on a live connection is a protocol error:
/// the server answers with an [`Response::Error`] frame and drops the
/// connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// Frame shorter than its declared layout.
    Truncated,
    /// Magic mismatch — the peer is not speaking RCS1.
    BadMagic(u32),
    /// Unknown frame kind.
    BadKind(u8),
    /// Unknown topology preset tag.
    BadPreset(u8),
    /// Error-frame message was not UTF-8.
    BadString,
    /// Payload had trailing bytes after a complete frame.
    TrailingBytes(usize),
    /// Histogram bucket index outside the fixed 64-bucket layout.
    BadBucket(u8),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::BadMagic(m) => write!(f, "bad magic 0x{m:08x}"),
            ProtoError::BadKind(k) => write!(f, "bad frame kind 0x{k:02x}"),
            ProtoError::BadPreset(p) => write!(f, "unknown topology preset {p}"),
            ProtoError::BadString => write!(f, "error message is not UTF-8"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
            ProtoError::BadBucket(b) => write!(f, "histogram bucket {b} out of range"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Topology preset tags carried on the wire (the four Table 2 scales,
/// plus the extrapolated XL stress scale).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Preset {
    /// k = 8 fat-tree, 112 hosts.
    Tiny = 0,
    /// k = 16 fat-tree, 960 hosts.
    Small = 1,
    /// k = 24 fat-tree, 3 312 hosts.
    Medium = 2,
    /// k = 48 fat-tree, 27 072 hosts.
    Large = 3,
    /// k = 64 fat-tree, 64 512 hosts (beyond Table 2).
    Xl = 4,
}

impl Preset {
    /// The corresponding topology scale.
    pub fn scale(self) -> Scale {
        match self {
            Preset::Tiny => Scale::Tiny,
            Preset::Small => Scale::Small,
            Preset::Medium => Scale::Medium,
            Preset::Large => Scale::Large,
            Preset::Xl => Scale::Xl,
        }
    }

    /// Wire tag of this preset.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Parses a wire tag.
    pub fn from_tag(tag: u8) -> Result<Preset, ProtoError> {
        match tag {
            0 => Ok(Preset::Tiny),
            1 => Ok(Preset::Small),
            2 => Ok(Preset::Medium),
            3 => Ok(Preset::Large),
            4 => Ok(Preset::Xl),
            other => Err(ProtoError::BadPreset(other)),
        }
    }

    /// Parses a CLI-style name ("tiny" | "small" | "medium" | "large" |
    /// "xl").
    pub fn from_name(name: &str) -> Option<Preset> {
        match name {
            "tiny" => Some(Preset::Tiny),
            "small" => Some(Preset::Small),
            "medium" => Some(Preset::Medium),
            "large" => Some(Preset::Large),
            "xl" => Some(Preset::Xl),
            _ => None,
        }
    }
}

/// Error codes carried in [`Response::Error`] frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Bytes that do not decode as an RCS1 request.
    Malformed = 1,
    /// A well-formed request with invalid contents (bad host id, k > n…).
    Invalid = 2,
    /// Length prefix above [`MAX_FRAME_LEN`].
    Oversized = 3,
    /// The server failed internally (worker pool gone).
    Internal = 4,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<ErrorCode, ProtoError> {
        match v {
            1 => Ok(ErrorCode::Malformed),
            2 => Ok(ErrorCode::Invalid),
            3 => Ok(ErrorCode::Oversized),
            4 => Ok(ErrorCode::Internal),
            other => Err(ProtoError::BadKind(other)),
        }
    }
}

/// One RCS1 field type. A frame body is a list of these, written and read
/// in declaration order; its layout is stated nowhere else.
trait Wire: Sized {
    /// Fewest bytes a value can occupy — what `[T]`'s count rule divides
    /// the remaining bytes by.
    const MIN_LEN: usize;
    /// The type as the frame table prints it.
    #[cfg(test)]
    fn ty() -> String;
    /// Exact encoded size, so `encode` allocates once.
    fn wire_len(&self) -> usize;
    fn put(&self, w: &mut ByteWriter);
    fn get(r: &mut ByteReader) -> Result<Self, ProtoError>;
}

/// A read that ran out of bytes is a truncated frame.
fn whole<T>(read: Option<T>) -> Result<T, ProtoError> {
    read.ok_or(ProtoError::Truncated)
}

/// A fixed-size field: its table name, its width, how `$v` is written to
/// `$w` and how a value is read from `$r` (which may refuse it).
macro_rules! wire_fixed {
    ($t:ty, $name:literal, $len:literal, ($v:ident, $w:ident) => $put:expr, $r:ident => $get:expr) => {
        impl Wire for $t {
            const MIN_LEN: usize = $len;
            #[cfg(test)]
            fn ty() -> String {
                $name.into()
            }
            fn wire_len(&self) -> usize {
                $len
            }
            fn put(&self, $w: &mut ByteWriter) {
                let $v = *self;
                $put
            }
            fn get($r: &mut ByteReader) -> Result<Self, ProtoError> {
                $get
            }
        }
    };
}
wire_fixed!(u8, "u8", 1, (v, w) => w.put_u8(v), r => whole(r.get_u8()));
wire_fixed!(u32, "u32", 4, (v, w) => w.put_u32_le(v), r => whole(r.get_u32_le()));
wire_fixed!(u64, "u64", 8, (v, w) => w.put_u64_le(v), r => whole(r.get_u64_le()));
wire_fixed!(f64, "f64", 8, (v, w) => w.put_f64_le(v), r => whole(r.get_f64_le()));
wire_fixed!(i64, "i64", 8, (v, w) => w.put_u64_le(v as u64), r => Ok(u64::get(r)? as i64));
wire_fixed!(bool, "bool", 1, (v, w) => w.put_u8(v as u8), r => Ok(u8::get(r)? != 0));
wire_fixed!(Preset, "u8", 1, (v, w) => w.put_u8(v.tag()), r => Preset::from_tag(u8::get(r)?));
wire_fixed!(ErrorCode, "u8", 1, (v, w) => w.put_u8(v as u8), r => ErrorCode::from_u8(u8::get(r)?));

/// `len:u16 utf8…`, cut at `u16::MAX` bytes on the way out.
impl Wire for String {
    const MIN_LEN: usize = 2;
    #[cfg(test)]
    fn ty() -> String {
        "str".into()
    }
    fn wire_len(&self) -> usize {
        2 + self.len().min(u16::MAX as usize)
    }
    fn put(&self, w: &mut ByteWriter) {
        let bytes = &self.as_bytes()[..self.len().min(u16::MAX as usize)];
        w.put_u16_le(bytes.len() as u16);
        w.put_slice(bytes);
    }
    fn get(r: &mut ByteReader) -> Result<Self, ProtoError> {
        let len = whole(r.get_u16_le())? as usize;
        let bytes = whole(r.get_bytes(len))?;
        Ok(std::str::from_utf8(bytes.as_slice()).map_err(|_| ProtoError::BadString)?.to_string())
    }
}

/// `n:u32 T…`. The one count rule of this codec: `n` elements take at
/// least `n * T::MIN_LEN` bytes, so a count the remaining bytes cannot
/// hold is `Truncated` before anything is reserved — a frame can make the
/// decoder reserve no more than a small multiple of its own size.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;
    #[cfg(test)]
    fn ty() -> String {
        format!("[{}]", T::ty())
    }
    fn wire_len(&self) -> usize {
        4 + self.iter().map(Wire::wire_len).sum::<usize>()
    }
    fn put(&self, w: &mut ByteWriter) {
        w.put_u32_le(self.len() as u32);
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut ByteReader) -> Result<Self, ProtoError> {
        let n = u32::get(r)? as usize;
        if n.saturating_mul(T::MIN_LEN) > r.remaining() {
            return Err(ProtoError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    #[cfg(test)]
    fn ty() -> String {
        format!("{{{} {}}}", A::ty(), B::ty())
    }
    fn wire_len(&self) -> usize {
        self.0.wire_len() + self.1.wire_len()
    }
    fn put(&self, w: &mut ByteWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut ByteReader) -> Result<Self, ProtoError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// The one layout that is not a field list: only the non-zero buckets of
/// the fixed 64-bucket histogram travel, as `n:u8 { bucket:u8 count:u64 }…`.
impl Wire for HistogramSnapshot {
    const MIN_LEN: usize = 25;
    #[cfg(test)]
    fn ty() -> String {
        "hist".into()
    }
    fn wire_len(&self) -> usize {
        25 + 9 * self.buckets.iter().filter(|&&c| c != 0).count()
    }
    fn put(&self, w: &mut ByteWriter) {
        w.put_u64_le(self.count);
        w.put_u64_le(self.sum);
        w.put_u64_le(self.max);
        w.put_u8(self.buckets.iter().filter(|&&c| c != 0).count() as u8);
        for (bucket, &count) in self.buckets.iter().enumerate().filter(|&(_, &c)| c != 0) {
            w.put_u8(bucket as u8);
            w.put_u64_le(count);
        }
    }
    fn get(r: &mut ByteReader) -> Result<Self, ProtoError> {
        let mut h = HistogramSnapshot {
            count: u64::get(r)?,
            sum: u64::get(r)?,
            max: u64::get(r)?,
            ..Default::default()
        };
        for _ in 0..u8::get(r)? {
            let bucket = u8::get(r)?;
            let count = u64::get(r)?;
            *h.buckets.get_mut(bucket as usize).ok_or(ProtoError::BadBucket(bucket))? = count;
        }
        Ok(h)
    }
}

/// `name:type` per field, space-separated — a frame-table body. A field
/// that is itself a field list is spliced in, which is what makes
/// `AssessStream` read "the AssessPlan body, then `cadence`".
#[cfg(test)]
fn fields_layout(fields: &[(&str, String)]) -> String {
    let parts: Vec<String> = fields
        .iter()
        .map(|(name, ty)| match ty.strip_prefix('{').and_then(|t| t.strip_suffix('}')) {
            Some(inner) => inner.to_string(),
            None => format!("{name}:{ty}"),
        })
        .collect();
    parts.join(" ")
}

/// Gives structs the codec from their field lists: the struct definitions
/// themselves, or (`impl`) the public fields of a struct defined elsewhere.
macro_rules! wire_struct {
    (impl $name:ty { $($field:ident: $fty:ty),* $(,)? }) => {
        impl Wire for $name {
            const MIN_LEN: usize = 0 $(+ <$fty as Wire>::MIN_LEN)*;
            #[cfg(test)]
            fn ty() -> String {
                format!(
                    "{{{}}}",
                    fields_layout(&[$((stringify!($field), <$fty as Wire>::ty())),*])
                )
            }
                        fn wire_len(&self) -> usize {
                0 $(+ self.$field.wire_len())*
            }
                        fn put(&self, w: &mut ByteWriter) {
                $(self.$field.put(w);)*
            }
                        // Built in the frame's place, not copied into it: 45 -> 39 ns per Assess.
            #[inline(always)]
            fn get(r: &mut ByteReader) -> Result<Self, ProtoError> {
                Ok(Self { $($field: Wire::get(r)?),* })
            }
        }
    };
    ($($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$fmeta:meta])* pub $field:ident: $fty:ty),* $(,)?
    })*) => {$(
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $fty),*
        }
        wire_struct!(impl $name { $($field: $fty),* });
    )*};
}

/// One row of the kind table, as the frame-table renderer reads it.
#[cfg(test)]
struct KindRow {
    kind: u8,
    name: &'static str,
    body: fn() -> String,
}

/// Defines one direction of the protocol: the enum, its kind table and
/// `encode`/`decode`. A row is `kind Variant`, `kind Variant(binding:
/// Body)` or `kind Variant { field: Type, … }`; the body is written and
/// read in the order it is declared.
macro_rules! frames {
    (
        $(#[$meta:meta])*
        pub enum $name:ident, $table:ident {
            $(
                $(#[$vmeta:meta])*
                $kind:literal $variant:ident
                $(($inner:ident: $ity:ty))?
                $({ $($(#[$fmeta:meta])* $field:ident: $fty:ty),* $(,)? })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $variant $(($ity))? $({ $($(#[$fmeta])* $field: $fty),* })?),*
        }

        #[cfg(test)]
        const $table: &[KindRow] = &[$(KindRow {
            kind: $kind,
            name: stringify!($variant),
            body: || fields_layout(&[
                $((stringify!($inner), <$ity as Wire>::ty()),)?
                $($((stringify!($field), <$fty as Wire>::ty()),)*)?
            ]),
        }),*];

        impl $name {
            /// Encodes the payload (without the transport length prefix)
            /// in a single exact-size allocation.
            pub fn encode(&self) -> Bytes {
                match self {
                    $($name::$variant $(($inner))? $({ $($field),* })? => {
                        let len = HEADER_LEN
                            $(+ $inner.wire_len())? $($(+ $field.wire_len())*)?;
                        let mut w = ByteWriter::with_capacity(len);
                        w.put_u32_le(MAGIC);
                        w.put_u8($kind);
                        $($inner.put(&mut w);)?
                        $($($field.put(&mut w);)*)?
                        debug_assert_eq!(w.len(), len, "wire_len must be exact");
                        w.freeze()
                    })*
                }
            }

            /// Decodes a payload, rejecting truncation, bad magic, kinds
            /// of the other direction or of no direction, and trailing
            /// bytes.
            pub fn decode(buf: Bytes) -> Result<$name, ProtoError> {
                let mut r = ByteReader::new(buf);
                let magic = u32::get(&mut r)?;
                if magic != MAGIC {
                    return Err(ProtoError::BadMagic(magic));
                }
                let frame = match u8::get(&mut r)? {
                    $($kind => $name::$variant
                        $((<$ity as Wire>::get(&mut r)?))?
                        $({ $($field: <$fty as Wire>::get(&mut r)?),* })?,)*
                    other => return Err(ProtoError::BadKind(other)),
                };
                if r.is_exhausted() {
                    Ok(frame)
                } else {
                    Err(ProtoError::TrailingBytes(r.remaining()))
                }
            }
        }
    };
}

wire_struct! {
    /// An AssessPlan request: score one explicit deployment plan.
    ///
    /// `assignments` holds one host list per application layer; a single layer
    /// means the plain K-of-N spec, more mean [`ApplicationSpec::layered`]
    /// with `(k, n)` per layer (`recloud_apps::ApplicationSpec`).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct AssessRequest {
        /// Topology preset the plan refers to.
        pub preset: Preset,
        /// Route-and-check rounds.
        pub rounds: u32,
        /// Master seed: fault model + sampling, exactly as the CLI path.
        pub seed: u64,
        /// Per-layer requirement K.
        pub k: u32,
        /// Per-layer instance count N.
        pub n: u32,
        /// Raw host ids, one `Vec` per layer, each of length `n`.
        pub assignments: Vec<Vec<u32>>,
    }

    /// The search a SearchStream request runs server-side.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct SearchRequest {
        /// Topology preset to place into.
        pub preset: Preset,
        /// Route-and-check rounds per assessed candidate.
        pub rounds: u32,
        /// Master seed.
        pub seed: u64,
        /// Requirement K.
        pub k: u32,
        /// Instance count N.
        pub n: u32,
        /// Search budget in milliseconds.
        pub budget_ms: u32,
    }

    /// One span on the wire (inside [`Request::TraceUpload`] and
    /// [`Response::Trace`]): the tracer's record with the stage name carried
    /// as a length-prefixed string.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct TraceSpan {
        /// Span id, unique within the trace; never 0.
        pub id: u32,
        /// Parent span id; 0 marks a root span.
        pub parent: u32,
        /// Stage name, e.g. `"queue.wait"` or `"assess.chunk"`.
        pub kind: String,
        /// Absolute start, microseconds since the Unix epoch.
        pub start_us: u64,
        /// Absolute end; 0 if the span never closed.
        pub end_us: u64,
        /// First kind-specific tag (e.g. rounds for `assess.chunk`).
        pub v0: u64,
        /// Second kind-specific tag (e.g. chunk index).
        pub v1: u64,
    }
}

frames! {
    /// A client → server frame.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Request, REQUEST_KINDS {
        /// Liveness probe; echoed back in [`Response::Pong`].
        0x01 Ping {
            /// Opaque token the server echoes.
            token: u64,
        },
        /// Assess one plan.
        0x02 AssessPlan(req: AssessRequest),
        /// Drain in-flight jobs and exit.
        0x06 Shutdown,
        /// Read the full instrument snapshot (counters, gauges, latency
        /// histograms) plus the newest journal events.
        0x07 MetricsDump {
            /// How many of the newest journal events to include (0 = none).
            journal_tail: u32,
        },
        /// Assess one plan, streaming [`Response::Partial`] running estimates
        /// while the chunks accumulate; finishes with a [`Response::Assess`]
        /// bit-identical to the plain [`Request::AssessPlan`] answer.
        0x08 AssessStream {
            /// The underlying assessment, exactly as AssessPlan carries it.
            req: AssessRequest,
            /// Emit one Partial every `cadence` fed chunks (>= 1).
            cadence: u32,
        },
        /// Cancel the in-flight stream on this connection: the server stops
        /// feeding chunks and sends the final Assess frame over the rounds
        /// done so far. Outside a stream this is a silent no-op (no response).
        0x09 AssessCancel,
        /// Search for a plan with the population-based parallel annealer,
        /// streaming [`Response::SearchEvent`] best-plan improvements as they
        /// happen; finishes with a [`Response::Search`] carrying the
        /// search's held-out answer.
        0x0A SearchStream {
            /// The underlying search.
            req: SearchRequest,
            /// Annealing chains to run concurrently (>= 1).
            workers: u32,
            /// Per-chain iteration budget. Nonzero makes the search a pure
            /// function of (seed, workers, iters); 0 falls back to the
            /// wall-clock `budget_ms`.
            iters: u32,
        },
        /// Fetch a finished trace's span tree as one [`Response::Trace`].
        0x0C TraceDump {
            /// The trace to fetch; 0 asks for the most recently finished one.
            trace_id: u64,
        },
        /// Arm tracing for this connection's next request (fire-and-forget —
        /// the server sends no response). The server's request span will be
        /// parented under the client's `parent_span`.
        0x0D TraceContext {
            /// Nonzero trace id chosen by the client.
            trace_id: u64,
            /// Client-side span to parent the server's work under (0 = root).
            parent_span: u32,
        },
        /// Contribute the client's completed spans to a trace and mark it
        /// finished (fire-and-forget — the server sends no response).
        0x0E TraceUpload {
            /// The trace the spans belong to.
            trace_id: u64,
            /// Completed client-side spans, ids from the client's base.
            spans: Vec<TraceSpan>,
        },
        /// Name the tenant this connection's subsequent requests belong to;
        /// answered with [`Response::HelloAck`]. Connections that never say
        /// Hello serve under [`DEFAULT_TENANT`].
        0x0F Hello {
            /// Tenant id: non-empty, at most [`MAX_TENANT_LEN`] bytes of
            /// `[A-Za-z0-9._-]` (it embeds into instrument names). A daemon
            /// keeps at most [`MAX_TENANTS`] of them: a Hello that would mint
            /// one more is answered `Error{Invalid}` and changes nothing.
            tenant: String,
        },
    }
}

wire_struct! {
    /// The assessment answer: the estimate's determining fields, bit-exact.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct AssessResponse {
        /// Reliability score (Eq 1).
        pub score: f64,
        /// Conservative variance (Eq 2).
        pub variance: f64,
        /// Rounds checked.
        pub rounds: u64,
        /// Rounds in which the plan was reliable.
        pub successes: u64,
        /// True when served from the result cache.
        pub cached: bool,
    }

    /// The search answer.
    #[derive(Clone, Debug, PartialEq)]
    pub struct SearchResponse {
        /// Reliability of the chosen plan on the search's report table,
        /// which no choice was made on.
        pub reliability: f64,
        /// Full 95% confidence-interval width of `reliability`.
        pub ciw95: f64,
        /// Plans assessed during the search.
        pub plans_assessed: u64,
        /// Raw host ids of the chosen plan (single K-of-N component).
        pub hosts: Vec<u32>,
    }

    /// A running estimate mid-stream: the (R, CIW) pair of Eqs 1 and 3 over
    /// the rounds fed so far. `rounds_done` is monotonically nondecreasing
    /// across the partials of one stream.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct PartialResponse {
        /// Rounds accumulated so far.
        pub rounds_done: u64,
        /// Rounds the full request would run.
        pub rounds_total: u64,
        /// Running reliability estimate R (Eq 1).
        pub score: f64,
        /// Running 95% confidence-interval width (Eq 3).
        pub ciw: f64,
    }

    /// One best-plan improvement inside a streamed parallel search: a
    /// trajectory point from whichever chain just raised its own best, tagged
    /// with the chain index. `iteration` counts plans assessed by that chain.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct SearchEventResponse {
        /// Which annealing chain improved (0-based).
        pub chain: u32,
        /// Plans assessed by that chain when the improvement landed.
        pub iteration: u64,
        /// Microseconds since that chain's search started.
        pub elapsed_us: u64,
        /// The new best objective measure M (Eq 7), in-sample.
        pub measure: f64,
        /// The new best plan's reliability R (Eq 1), in-sample.
        pub reliability: f64,
        /// The temperature t (Eq 6) at the improvement.
        pub temperature: f64,
    }

    /// The TraceDump answer: one trace's assembled span tree.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct TraceResponse {
        /// The trace the spans belong to; 0 when no such trace exists (the
        /// id was never begun, was evicted, or nothing has finished yet).
        pub trace_id: u64,
        /// Spans dropped past the tracer's per-trace capacity.
        pub dropped: u64,
        /// Spans in record order (parents precede children per process, but
        /// absorbed client spans may follow server spans that reference them).
        pub spans: Vec<TraceSpan>,
    }
}

wire_struct!(impl MetricsSnapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    histograms: Vec<(String, HistogramSnapshot)>,
});
wire_struct!(impl Event {
    seq: u64, ts_micros: u64, thread: u64, kind: String, v0: u64, v1: u64, f0: f64, f1: f64,
});

wire_struct! {
    /// The MetricsDump answer: a merged snapshot of the server's private
    /// registry and the process-global one (assess/search instruments),
    /// plus up to `journal_tail` of the newest journal events.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct MetricsResponse {
        /// Every registered instrument, sorted by name.
        pub snapshot: MetricsSnapshot,
        /// Newest journal events, oldest first.
        pub events: Vec<Event>,
    }
}

frames! {
    /// A server → client frame.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Response, RESPONSE_KINDS {
        /// Ping echo.
        0x81 Pong {
            /// The request's token.
            token: u64,
        },
        /// Assessment result.
        0x82 Assess(resp: AssessResponse),
        /// Search result.
        0x83 Search(resp: SearchResponse),
        /// Admission control rejected the request; retry later.
        0x86 Busy {
            /// Jobs queued at rejection time.
            queued: u32,
            /// The queue capacity.
            capacity: u32,
        },
        /// The request failed; the connection will be dropped for protocol
        /// errors and kept for semantic ones.
        0x87 Error {
            /// Machine-readable cause.
            code: ErrorCode,
            /// Human-readable detail.
            message: String,
        },
        /// Shutdown acknowledged; the server drains and exits.
        0x88 ShutdownAck {
            /// Jobs completed over the server's lifetime.
            completed: u64,
        },
        /// Instrument snapshot + journal tail.
        0x89 Metrics(resp: MetricsResponse),
        /// A mid-stream running estimate; only appears between an
        /// AssessStream request and its final [`Response::Assess`].
        0x8A Partial(resp: PartialResponse),
        /// A best-plan improvement; only appears between a SearchStream
        /// request and its final [`Response::Search`].
        0x8B SearchEvent(resp: SearchEventResponse),
        /// A trace's span tree answering a [`Request::TraceDump`].
        0x8D Trace(resp: TraceResponse),
        /// Acknowledges a [`Request::Hello`], echoing the tenant the
        /// connection is now attributed to.
        0x8E HelloAck {
            /// The accepted tenant id.
            tenant: String,
        },
    }
}

/// The incremental splitter: the payload of the first complete transport
/// frame at the front of `buf` (the frame is `4 + payload.len()` bytes),
/// `Ok(None)` while it is still arriving, or the refusal of a length
/// prefix above [`MAX_FRAME_LEN`] — before anything is allocated.
pub fn split_frame(buf: &[u8]) -> Result<Option<&[u8]>, String> {
    let Some(prefix) = buf.first_chunk::<4>() else { return Ok(None) };
    let len = u32::from_le_bytes(*prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(format!("frame length {len} exceeds {MAX_FRAME_LEN}"));
    }
    Ok(buf.get(4..4 + len))
}

/// Appends one transport frame (length prefix + payload) to `out`.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_FRAME_LEN, "oversized frame");
    out.reserve(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Writes one transport frame and flushes.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut buf = Vec::new();
    put_frame(&mut buf, payload);
    stream.write_all(&buf)?;
    stream.flush()
}

/// Blocking read of one transport frame. Returns `Ok(None)` on a clean
/// EOF at a frame boundary; an oversized length prefix is an
/// `InvalidData` error (and no allocation happens).
pub fn read_frame(stream: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    match stream.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    split_frame(&prefix).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let mut payload = vec![0u8; u32::from_le_bytes(prefix) as usize];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Semantic validation shared by server admission and clients: bounds that
/// do not need the topology. Host-id validity is checked worker-side where
/// the topology lives.
pub fn validate_shape(req: &Request) -> Result<(), String> {
    // The engine's own bounds, then the wire's caps.
    let check_spec = |k: u32, n: u32, rounds: u32| -> Result<(), String> {
        recloud_assess::engine::check_shape(k, n, rounds as usize)?;
        if n > MAX_INSTANCES {
            return Err(format!("n={n} exceeds the {MAX_INSTANCES}-instance limit"));
        }
        if rounds > MAX_ROUNDS {
            return Err(format!("rounds must be in 1..={MAX_ROUNDS} (got {rounds})"));
        }
        Ok(())
    };
    // `1..=MAX_LAYERS` layers, each of `n` hosts.
    let check_assess = |a: &AssessRequest| -> Result<(), String> {
        check_spec(a.k, a.n, a.rounds)?;
        let (layers, n) = (&a.assignments, a.n);
        if layers.is_empty() || layers.len() > MAX_LAYERS as usize {
            return Err(format!("need 1..={MAX_LAYERS} layers (got {})", layers.len()));
        }
        match layers.iter().enumerate().find(|(_, layer)| layer.len() != n as usize) {
            Some((i, layer)) => Err(format!("layer {i} assigns {} hosts but n={n}", layer.len())),
            None => Ok(()),
        }
    };
    match req {
        Request::Ping { .. }
        | Request::Shutdown
        | Request::MetricsDump { .. }
        | Request::AssessCancel
        | Request::TraceDump { .. } => Ok(()),
        Request::TraceContext { trace_id: 0, .. } | Request::TraceUpload { trace_id: 0, .. } => {
            Err("trace id 0 is reserved for \"no trace\"".to_string())
        }
        Request::TraceContext { .. } => Ok(()),
        Request::TraceUpload { spans, .. } => {
            if spans.len() > MAX_TRACE_SPANS as usize {
                return Err(format!(
                    "need at most {MAX_TRACE_SPANS} uploaded spans (got {})",
                    spans.len()
                ));
            }
            Ok(())
        }
        Request::Hello { tenant } => {
            if tenant.is_empty() {
                return Err("tenant id must not be empty".to_string());
            }
            if tenant.len() > MAX_TENANT_LEN {
                return Err(format!(
                    "tenant id exceeds {MAX_TENANT_LEN} bytes (got {})",
                    tenant.len()
                ));
            }
            if let Some(c) = tenant
                .chars()
                .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.')))
            {
                return Err(format!("tenant id may only contain [A-Za-z0-9._-] (got {c:?})"));
            }
            Ok(())
        }
        Request::AssessPlan(a) => check_assess(a),
        Request::AssessStream { req: a, cadence } => {
            check_assess(a)?;
            if *cadence == 0 {
                return Err("stream cadence must be at least 1 chunk".to_string());
            }
            Ok(())
        }
        Request::SearchStream { req: s, workers, iters } => {
            check_spec(s.k, s.n, s.rounds)?;
            if *workers == 0 || *workers > MAX_SEARCH_CHAINS {
                return Err(format!("need 1..={MAX_SEARCH_CHAINS} search chains (got {workers})"));
            }
            if *iters > MAX_SEARCH_ITERS {
                return Err(format!("iters={iters} exceeds the {MAX_SEARCH_ITERS} limit"));
            }
            if *iters == 0 && s.budget_ms == 0 {
                return Err("need a budget: iters > 0 or budget_ms > 0".to_string());
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests;
