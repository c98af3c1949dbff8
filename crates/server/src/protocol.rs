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
//! `str` is `len:u16 utf8…`; `u128` is `lo:u64 hi:u64`; `[T]` is
//! `n:u32 T…`; `hist` is `count:u64 sum:u64 max:u64 n:u8 { bucket:u8
//! count:u64 }…` (non-zero buckets of the fixed 64-bucket layout only).
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

use recloud::wire::{ByteReader, ByteWriter, Bytes};
use recloud_obs::{Event, HistogramSnapshot, MetricsSnapshot};
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
/// Upper bound on candidate plans per ComparePlans request.
pub const MAX_PLANS: u32 = 64;
/// Upper bound on parallel annealing chains per SearchStream request.
pub const MAX_SEARCH_CHAINS: u32 = 64;
/// Upper bound on per-chain iterations per SearchStream request.
pub const MAX_SEARCH_ITERS: u32 = 1_000_000;
/// Upper bound on entries per CacheSync request — sized so a maximal
/// CacheSegment (48 bytes per entry) stays well under [`MAX_FRAME_LEN`].
pub const MAX_SYNC_ENTRIES: u32 = 16_384;
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
wire_fixed!(
    u128, "u128", 16,
    (v, w) => { w.put_u64_le(v as u64); w.put_u64_le((v >> 64) as u64) },
    r => Ok(u128::from(u64::get(r)?) | (u128::from(u64::get(r)?) << 64)) // lo, then hi
);

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

    /// A ComparePlans request: rank candidate K-of-N plans with error bounds.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct CompareRequest {
        /// Topology preset the plans refer to.
        pub preset: Preset,
        /// Route-and-check rounds per candidate.
        pub rounds: u32,
        /// Master seed (per-candidate seeds derive from it).
        pub seed: u64,
        /// Requirement K.
        pub k: u32,
        /// Instance count N.
        pub n: u32,
        /// Candidate plans, each `n` raw host ids.
        pub plans: Vec<Vec<u32>>,
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
        /// Rank candidate plans.
        0x04 ComparePlans(req: CompareRequest),
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
        /// Pull up to `max_entries` of the peer's most-recently-used cache
        /// entries as one [`Response::CacheSegment`] — the fleet
        /// warm-start path (`recloud serve --peer`).
        0x0B CacheSync {
            /// Entry budget, `1..=`[`MAX_SYNC_ENTRIES`].
            max_entries: u32,
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

    /// One ranked candidate in a [`CompareResponse`].
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct CompareEntry {
        /// Position of the plan in the request's list.
        pub input_index: u32,
        /// Reliability score.
        pub score: f64,
        /// 95% confidence-interval width.
        pub ciw95: f64,
        /// Statistically indistinguishable from the winner.
        pub tied_with_best: bool,
    }

    /// The comparison answer, best plan first.
    #[derive(Clone, Debug, PartialEq)]
    pub struct CompareResponse {
        /// Candidates sorted by descending reliability.
        pub ranking: Vec<CompareEntry>,
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

    /// One cache entry in flight inside a [`CacheSegmentResponse`]: the
    /// assessment fingerprint plus the determining [`AssessResponse`]
    /// fields (the transient `cached` flag never travels).
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct CacheEntry {
        /// Assessment fingerprint (`recloud_assess::assessment_key`).
        pub key: u128,
        /// Reliability score (Eq 1).
        pub score: f64,
        /// Conservative variance (Eq 2).
        pub variance: f64,
        /// Rounds checked.
        pub rounds: u64,
        /// Rounds in which the plan was reliable.
        pub successes: u64,
    }

    /// The CacheSync answer: the peer's most-recently-used cache entries,
    /// newest first, at most the request's `max_entries`.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct CacheSegmentResponse {
        /// Cache entries, most recently used first.
        pub entries: Vec<CacheEntry>,
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
        /// Comparison result.
        0x84 Compare(resp: CompareResponse),
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
        /// A batch of cache entries answering a [`Request::CacheSync`].
        0x8C CacheSegment(resp: CacheSegmentResponse),
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
    // `1..=max` host lists (layers, candidate plans), each of `n` hosts.
    let check_lists = |lists: &[Vec<u32>], n: u32, max: u32, many: &str, one: &str| {
        if lists.is_empty() || lists.len() > max as usize {
            return Err(format!("need 1..={max} {many} (got {})", lists.len()));
        }
        match lists.iter().enumerate().find(|(_, list)| list.len() != n as usize) {
            Some((i, list)) => Err(format!("{one} {i} assigns {} hosts but n={n}", list.len())),
            None => Ok(()),
        }
    };
    let check_assess = |a: &AssessRequest| -> Result<(), String> {
        check_spec(a.k, a.n, a.rounds)?;
        check_lists(&a.assignments, a.n, MAX_LAYERS, "layers", "layer")
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
        Request::CacheSync { max_entries } => {
            if *max_entries == 0 || *max_entries > MAX_SYNC_ENTRIES {
                return Err(format!(
                    "need 1..={MAX_SYNC_ENTRIES} sync entries (got {max_entries})"
                ));
            }
            Ok(())
        }
        Request::ComparePlans(c) => {
            check_spec(c.k, c.n, c.rounds)?;
            check_lists(&c.plans, c.n, MAX_PLANS, "candidate plans", "plan")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Kinds that once had a frame. They decode as `BadKind` and their
    /// bytes are never given to another frame.
    const RETIRED_KINDS: [(u8, &str); 3] =
        [(0x03, "SearchPlacement"), (0x05, "Stats"), (0x85, "StatsResult")];

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
            Request::ComparePlans(CompareRequest {
                preset: Preset::Medium,
                rounds: 1_000,
                seed: 9,
                k: 1,
                n: 2,
                plans: vec![vec![72, 73], vec![74, 75], vec![76, 77]],
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
            Request::CacheSync { max_entries: 1 },
            Request::CacheSync { max_entries: MAX_SYNC_ENTRIES },
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
                counters: vec![
                    ("server.cache_hits".into(), 40),
                    ("server.requests_total".into(), 100),
                ],
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
            Response::Compare(CompareResponse {
                ranking: vec![
                    CompareEntry { input_index: 1, score: 0.99, ciw95: 1e-3, tied_with_best: true },
                    CompareEntry {
                        input_index: 0,
                        score: 0.95,
                        ciw95: 2e-3,
                        tied_with_best: false,
                    },
                ],
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
            Response::CacheSegment(CacheSegmentResponse {
                entries: vec![
                    CacheEntry {
                        key: u128::MAX,
                        score: 0.999_75,
                        variance: 3.2e-7,
                        rounds: 50_000,
                        successes: 49_987,
                    },
                    CacheEntry { key: 1, score: 0.0, variance: 0.0, rounds: 1, successes: 0 },
                ],
            }),
            Response::CacheSegment(CacheSegmentResponse::default()),
            Response::Trace(TraceResponse {
                trace_id: 42,
                dropped: 3,
                spans: sample_trace_spans(),
            }),
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
            (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect()
        };
        let golden: Vec<(u8, Vec<u8>)> = include_str!("golden_frames.txt")
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
        assert!(include_str!("frame_table.md") == table, "frame_table.md should be:\n{table}");
        let design = include_str!("../../../DESIGN.md");
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
            // CacheSegment: two 48-byte entries fit in 96 bytes.
            assert_eq!(Response::decode(frame(0x8C, 0, count, 96)), Err(ProtoError::Truncated));
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
        let empty_compare = Request::ComparePlans(CompareRequest {
            preset: Preset::Tiny,
            rounds: 10,
            seed: 0,
            k: 1,
            n: 1,
            plans: vec![],
        });
        assert!(validate_shape(&empty_compare).unwrap_err().contains("candidate plans"));
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
        let s =
            SearchRequest { preset: Preset::Tiny, rounds: 100, seed: 1, k: 2, n: 3, budget_ms: 0 };
        let ok_stream = Request::SearchStream { req: s, workers: 4, iters: 50 };
        assert!(validate_shape(&ok_stream).is_ok());
        let no_chains = Request::SearchStream { req: s, workers: 0, iters: 50 };
        assert!(validate_shape(&no_chains).unwrap_err().contains("search chains"));
        let too_many = Request::SearchStream { req: s, workers: MAX_SEARCH_CHAINS + 1, iters: 50 };
        assert!(validate_shape(&too_many).unwrap_err().contains("search chains"));
        let no_budget = Request::SearchStream { req: s, workers: 1, iters: 0 };
        assert!(validate_shape(&no_budget).unwrap_err().contains("budget"));
        let wall_clock_ok = Request::SearchStream {
            req: SearchRequest { budget_ms: 25, ..s },
            workers: 1,
            iters: 0,
        };
        assert!(validate_shape(&wall_clock_ok).is_ok());
        let bad_spec =
            Request::SearchStream { req: SearchRequest { k: 4, ..s }, workers: 1, iters: 50 };
        assert!(validate_shape(&bad_spec).unwrap_err().contains("k <= n"));
        // CacheSync: the entry budget is admission-checked.
        assert!(validate_shape(&Request::CacheSync { max_entries: 1 }).is_ok());
        assert!(validate_shape(&Request::CacheSync { max_entries: MAX_SYNC_ENTRIES }).is_ok());
        let no_entries = Request::CacheSync { max_entries: 0 };
        assert!(validate_shape(&no_entries).unwrap_err().contains("sync entries"));
        let too_greedy = Request::CacheSync { max_entries: MAX_SYNC_ENTRIES + 1 };
        assert!(validate_shape(&too_greedy).unwrap_err().contains("sync entries"));
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
}
