//! From-scratch byte-buffer substrate, replacing the former `bytes` crate
//! dependency.
//!
//! The daemon's RCS1 frames, the result store's log records and the
//! assessment fingerprint are raw little-endian bytes, so their codecs
//! need three small primitives, all std-only (the parallel assessment
//! engine is not among the users: its tasks and results cross threads as
//! typed values):
//!
//! * [`Bytes`] — an immutable, cheaply cloneable byte view backed by an
//!   `Arc<[u8]>`. [`Bytes::slice`] is O(1): it bumps the refcount and
//!   narrows the window, no copy.
//! * [`ByteWriter`] — a growable little-endian writer; [`ByteWriter::freeze`]
//!   converts the accumulated bytes into a [`Bytes`] without copying.
//! * [`ByteReader`] — a cursor over a byte slice with checked and
//!   unchecked little-endian reads.
//!
//! Readers are *checked by construction*: every `get_*` first verifies the
//! remaining length, so a truncated or hostile frame can never panic the
//! decoder — it surfaces as `None` for the codec to map to its own error.

use std::fmt;
use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte view. Cloning and slicing are O(1)
/// and never copy the underlying storage.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty view.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Copies a slice into a fresh view (one copy, straight into the
    /// shared storage).
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes { data: Arc::from(src), start: 0, end: src.len() }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// O(1) sub-view sharing the same storage.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice {lo}..{hi} out of bounds for {}", self.len());
        Bytes { data: Arc::clone(&self.data), start: self.start + lo, end: self.start + hi }
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = v.into();
        let end = data.len();
        Bytes { data, start: 0, end }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(32) {
            write!(f, "\\x{b:02x}")?;
        }
        if self.len() > 32 {
            write!(f, "…+{}", self.len() - 32)?;
        }
        write!(f, "\"")
    }
}

/// A growable little-endian byte writer.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// An empty writer with `cap` bytes pre-reserved. Getting the
    /// reservation right keeps hot-path encodes to a single allocation;
    /// see the frame-size tests in the assess codec.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter { buf: Vec::with_capacity(cap) }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Current allocation size (for tests asserting single-allocation
    /// encodes).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` little-endian.
    pub fn put_u16_le(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its little-endian IEEE-754 bits.
    pub fn put_f64_le(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a raw byte slice.
    pub fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    /// Appends `count` copies of `byte`.
    pub fn put_bytes(&mut self, byte: u8, count: usize) {
        self.buf.resize(self.buf.len() + count, byte);
    }

    /// Converts the accumulated bytes into an immutable [`Bytes`] view
    /// without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Consumes the writer, returning the raw vector.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// A checked little-endian read cursor over a [`Bytes`] view.
///
/// Every `get_*` returns `None` instead of panicking when fewer bytes
/// remain than requested, which is what lets the wire codec reject
/// truncation on every possible prefix cut.
#[derive(Clone, Debug)]
pub struct ByteReader {
    bytes: Bytes,
    pos: usize,
}

impl ByteReader {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: Bytes) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether the cursor has consumed everything.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Option<&[u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.bytes.as_slice()[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16_le(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32_le(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64_le(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a little-endian IEEE-754 `f64`.
    pub fn get_f64_le(&mut self) -> Option<f64> {
        self.take(8).map(|s| f64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads `n` raw bytes as an O(1) sub-view of the backing storage.
    pub fn get_bytes(&mut self, n: usize) -> Option<Bytes> {
        if self.remaining() < n {
            return None;
        }
        let view = self.bytes.slice(self.pos..self.pos + n);
        self.pos += n;
        Some(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip_all_widths() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u16_le(0xBEEF);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(0x0123_4567_89AB_CDEF);
        w.put_f64_le(std::f64::consts::PI);
        w.put_slice(b"xyz");
        let frozen = w.freeze();
        assert_eq!(frozen.len(), 1 + 2 + 4 + 8 + 8 + 3);
        let mut r = ByteReader::new(frozen);
        assert_eq!(r.get_u8(), Some(0xAB));
        assert_eq!(r.get_u16_le(), Some(0xBEEF));
        assert_eq!(r.get_u32_le(), Some(0xDEAD_BEEF));
        assert_eq!(r.get_u64_le(), Some(0x0123_4567_89AB_CDEF));
        assert_eq!(r.get_f64_le(), Some(std::f64::consts::PI));
        assert_eq!(r.get_bytes(3).unwrap().as_slice(), b"xyz");
        assert!(r.is_exhausted());
    }

    #[test]
    fn little_endian_layout_is_exact() {
        let mut w = ByteWriter::new();
        w.put_u32_le(0x0403_0201);
        assert_eq!(w.freeze().as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn reads_past_end_return_none_and_consume_nothing() {
        let mut w = ByteWriter::new();
        w.put_u16_le(7);
        let mut r = ByteReader::new(w.freeze());
        assert_eq!(r.get_u32_le(), None);
        assert_eq!(r.remaining(), 2, "failed read must not advance");
        assert_eq!(r.get_u16_le(), Some(7));
        assert_eq!(r.get_u8(), None);
    }

    #[test]
    fn every_prefix_cut_fails_cleanly() {
        let mut w = ByteWriter::new();
        w.put_u32_le(1);
        w.put_u64_le(2);
        w.put_u32_le(3);
        let whole = w.freeze();
        for cut in 0..whole.len() {
            let mut r = ByteReader::new(whole.slice(..cut));
            // Reading the full layout from any strict prefix must fail at
            // some step, never panic.
            let ok = (|| {
                r.get_u32_le()?;
                r.get_u64_le()?;
                r.get_u32_le()
            })()
            .is_some();
            assert!(!ok, "cut={cut} should not decode");
        }
    }

    #[test]
    fn slice_is_a_view_not_a_copy() {
        let b = Bytes::from((0u8..64).collect::<Vec<_>>());
        let s = b.slice(16..32);
        assert_eq!(s.len(), 16);
        assert_eq!(s.as_slice(), &(16u8..32).collect::<Vec<_>>()[..]);
        // Sub-slicing a slice composes.
        let ss = s.slice(4..8);
        assert_eq!(ss.as_slice(), &[20, 21, 22, 23]);
        // Full-range and open-ended forms.
        assert_eq!(b.slice(..).len(), 64);
        assert_eq!(b.slice(60..).len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::from(vec![1, 2, 3]).slice(2..5);
    }

    #[test]
    fn bytes_equality_and_emptiness() {
        let a = Bytes::copy_from_slice(b"hello");
        let b = Bytes::from(b"hello".to_vec());
        assert_eq!(a, b);
        assert_eq!(a, b"hello".to_vec());
        assert!(Bytes::new().is_empty());
        assert!(ByteWriter::new().is_empty());
    }

    #[test]
    fn with_capacity_avoids_reallocation() {
        let mut w = ByteWriter::with_capacity(12);
        let cap = w.capacity();
        w.put_u32_le(1);
        w.put_u64_le(2);
        assert_eq!(w.capacity(), cap, "writes within reservation must not grow");
    }

    #[test]
    fn put_bytes_repeats() {
        let mut w = ByteWriter::new();
        w.put_bytes(0xFF, 5);
        assert_eq!(w.freeze().as_slice(), &[0xFF; 5]);
    }
}
