//! PUP (pack/unpack) byte codec.
//!
//! Charm++ serializes migratable objects through its PUP framework; this
//! module is the equivalent: a tiny, explicit little-endian codec used
//! for entry-method payloads, chare migration and checkpoints. It is
//! deliberately schema-free — each chare knows its own layout — which
//! keeps pack/unpack costs proportional to the data moved (the quantity
//! the rescale-overhead experiments measure).

use std::sync::Arc;

/// An immutable packed buffer. Cloning or sending one is a refcount
/// bump; [`Writer::finish`] copies the encoded bytes into it once.
pub type Bytes = Arc<[u8]>;

/// Errors raised while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the expected value.
    UnexpectedEnd {
        /// What was being decoded.
        what: &'static str,
    },
    /// A length prefix exceeded a sanity bound.
    LengthOverflow {
        /// What was being decoded.
        what: &'static str,
        /// The offending length.
        len: u64,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEnd { what } => {
                write!(f, "unexpected end of buffer while decoding {what}")
            }
            CodecError::LengthOverflow { what, len } => {
                write!(f, "length {len} too large while decoding {what}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Maximum element count accepted for a single sequence (1 Gi entries):
/// guards against corrupt length prefixes allocating unbounded memory.
const MAX_SEQ_LEN: u64 = 1 << 30;

/// An append-only encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Encoded length so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `i64`.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `f64`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(u8::from(v))
    }

    /// Appends a length-prefixed `f64` slice.
    ///
    /// On little-endian targets the slice is appended with one bulk
    /// memcpy rather than a per-element encode loop — pack bandwidth
    /// bounds the checkpoint/migration stages of rescale, so this is a
    /// hot path.
    pub fn f64_slice(&mut self, v: &[f64]) -> &mut Self {
        self.u64(v.len() as u64);
        #[cfg(target_endian = "little")]
        {
            // SAFETY: f64 has no padding and u8 has alignment 1, so any
            // initialized &[f64] is readable as len*8 bytes; on a
            // little-endian target the in-memory layout is exactly the
            // wire encoding.
            let raw = unsafe {
                std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), std::mem::size_of_val(v))
            };
            self.buf.extend_from_slice(raw);
        }
        #[cfg(not(target_endian = "little"))]
        {
            self.buf.reserve(v.len() * 8);
            for &x in v {
                self.buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        self
    }

    /// Appends a length-prefixed `u64` slice (bulk memcpy on
    /// little-endian targets; see [`Writer::f64_slice`]).
    pub fn u64_slice(&mut self, v: &[u64]) -> &mut Self {
        self.u64(v.len() as u64);
        #[cfg(target_endian = "little")]
        {
            // SAFETY: as in f64_slice — u64 has no padding and the
            // little-endian memory layout equals the wire encoding.
            let raw = unsafe {
                std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), std::mem::size_of_val(v))
            };
            self.buf.extend_from_slice(raw);
        }
        #[cfg(not(target_endian = "little"))]
        {
            self.buf.reserve(v.len() * 8);
            for &x in v {
                self.buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        self
    }

    /// Appends length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Finishes encoding, yielding an immutable buffer.
    pub fn finish(self) -> Bytes {
        Arc::from(self.buf)
    }
}

/// A sequential decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a buffer for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::UnexpectedEnd { what });
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        let b = self.take(8, "i64")?;
        Ok(i64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        let b = self.take(8, "f64")?;
        Ok(f64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a `bool`.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        let len = self.seq_len("f64_vec")?;
        let raw = self.take(len * 8, "f64_vec body")?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, CodecError> {
        let len = self.seq_len("u64_vec")?;
        let raw = self.take(len * 8, "u64_vec body")?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.seq_len("bytes")?;
        self.take(len, "bytes body")
    }

    /// Reads a length-prefixed UTF-8 string (lossy on invalid UTF-8).
    pub fn str(&mut self) -> Result<String, CodecError> {
        Ok(String::from_utf8_lossy(self.bytes()?).into_owned())
    }

    fn seq_len(&mut self, what: &'static str) -> Result<usize, CodecError> {
        let len = self.u64()?;
        if len > MAX_SEQ_LEN {
            return Err(CodecError::LengthOverflow { what, len });
        }
        Ok(len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7)
            .u16(300)
            .u32(70_000)
            .u64(1 << 40)
            .i64(-42)
            .f64(3.5)
            .bool(true)
            .bool(false)
            .str("hello");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 3.5);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn slices_round_trip() {
        let mut w = Writer::new();
        w.f64_slice(&[1.0, -2.5, f64::MAX])
            .u64_slice(&[1, 2, 3])
            .bytes(b"abc");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.f64_vec().unwrap(), vec![1.0, -2.5, f64::MAX]);
        assert_eq!(r.u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.bytes().unwrap(), b"abc");
    }

    #[test]
    fn bulk_slice_path_matches_per_element_encoding() {
        // The memcpy fast path must be byte-identical to put_*_le loops.
        let fs: Vec<f64> = (0..257).map(|i| i as f64 * -1.37e3).collect();
        let us: Vec<u64> = (0..257).map(|i| (i as u64) << 23).collect();
        let mut fast = Writer::new();
        fast.f64_slice(&fs).u64_slice(&us);
        let mut slow = Writer::new();
        slow.u64(fs.len() as u64);
        for &x in &fs {
            slow.f64(x);
        }
        slow.u64(us.len() as u64);
        for &x in &us {
            slow.u64(x);
        }
        assert_eq!(fast.finish().to_vec(), slow.finish().to_vec());
    }

    #[test]
    fn truncated_buffer_errors_cleanly() {
        let mut w = Writer::new();
        w.u64(5);
        let buf = w.finish();
        let mut r = Reader::new(&buf[..4]);
        assert!(matches!(
            r.u64(),
            Err(CodecError::UnexpectedEnd { what: "u64" })
        ));
    }

    #[test]
    fn corrupt_length_prefix_rejected() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // insane length prefix
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(
            r.f64_vec(),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn truncated_sequence_body_errors() {
        let mut w = Writer::new();
        w.u64(10); // claims 10 f64s but provides none
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.f64_vec(), Err(CodecError::UnexpectedEnd { .. })));
    }

    #[test]
    fn empty_collections() {
        let mut w = Writer::new();
        w.f64_slice(&[]).bytes(b"").str("");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(r.f64_vec().unwrap().is_empty());
        assert!(r.bytes().unwrap().is_empty());
        assert_eq!(r.str().unwrap(), "");
    }

    #[test]
    fn error_display_is_informative() {
        let e = CodecError::UnexpectedEnd { what: "f64" };
        assert!(e.to_string().contains("f64"));
        let e = CodecError::LengthOverflow {
            what: "bytes",
            len: 999,
        };
        assert!(e.to_string().contains("999"));
    }

    proptest! {
        #[test]
        fn arbitrary_f64_vec_round_trips(v in proptest::collection::vec(
            proptest::num::f64::ANY.prop_filter("no NaN", |x| !x.is_nan()), 0..200)) {
            let mut w = Writer::new();
            w.f64_slice(&v);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            prop_assert_eq!(r.f64_vec().unwrap(), v);
        }

        #[test]
        fn arbitrary_interleaving_round_trips(
            a in any::<u64>(), b in any::<i64>(), s in ".*", v in proptest::collection::vec(any::<u64>(), 0..50)
        ) {
            let mut w = Writer::new();
            w.u64(a).str(&s).i64(b).u64_slice(&v);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            prop_assert_eq!(r.u64().unwrap(), a);
            prop_assert_eq!(r.str().unwrap(), s);
            prop_assert_eq!(r.i64().unwrap(), b);
            prop_assert_eq!(r.u64_vec().unwrap(), v);
            prop_assert_eq!(r.remaining(), 0);
        }

        #[test]
        fn reader_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut r = Reader::new(&bytes);
            let _ = r.f64_vec();
            let mut r = Reader::new(&bytes);
            let _ = r.str();
            let mut r = Reader::new(&bytes);
            let _ = r.u64_vec();
        }
    }
}
