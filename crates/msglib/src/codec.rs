//! Minimal byte-level message framing.
//!
//! Protocol messages in this workspace are hand-framed little-endian
//! records (as GM/ARMCI headers were), not serde-serialized: the formats
//! are tiny, fixed, and on the latency-critical path. [`BufWriter`] builds
//! a message body into a caller-owned buffer; [`Reader`] consumes one.
//! Frames arrive from other processes, so every read is checked: a
//! truncated body is a [`DecodeError`], never a panic.

/// Why a message body could not be decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The body ended before the field being read.
    Truncated,
    /// A tag byte (opcode, operation code, message kind) named nothing.
    BadTag(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated message body"),
            DecodeError::BadTag(t) => write!(f, "unknown tag byte {t}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Builds a little-endian message body into a borrowed buffer. The caller
/// owns (and may pool) the `Vec`, so encoding allocates nothing once the
/// buffer is warm.
#[derive(Debug)]
pub struct BufWriter<'a>(&'a mut Vec<u8>);

impl<'a> BufWriter<'a> {
    /// Append to `buf` (existing contents are kept; callers clear first
    /// when reusing a pooled buffer).
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        BufWriter(buf)
    }

    /// Append a `u8`.
    pub fn u8(self, v: u8) -> Self {
        self.0.push(v);
        self
    }

    /// Append a little-endian `u32`.
    pub fn u32(self, v: u32) -> Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `u64`.
    pub fn u64(self, v: u64) -> Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `i64`.
    pub fn i64(self, v: i64) -> Self {
        self.u64(v as u64)
    }

    /// Append an `f64` as its IEEE-754 bits.
    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    /// Append raw bytes with a `u32` length prefix.
    pub fn bytes(self, v: &[u8]) -> Self {
        let s = self.u32(v.len() as u32);
        s.0.extend_from_slice(v);
        s
    }

    /// Append an `f64` slice with a `u32` length prefix.
    pub fn f64_slice(self, v: &[f64]) -> Self {
        v.iter().fold(self.u32(v.len() as u32), |s, &x| s.f64(x))
    }
}

/// Consumes a little-endian message body produced by [`BufWriter`]. Every
/// accessor returns [`DecodeError::Truncated`] instead of reading past the
/// end.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a message body.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Read exactly `n` raw bytes (no length prefix) — also how a
    /// fixed-stride region (e.g. an array of records) is borrowed out of
    /// the body.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        self.raw(N)?.try_into().map_err(|_| DecodeError::Truncated)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(self.u64()? as i64)
    }

    /// Read an `f64` from its IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()? as usize;
        self.raw(n)
    }

    /// Read a `u32` count of `size`-byte records and borrow them as one
    /// region.
    pub fn records(&mut self, size: usize) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()? as usize;
        self.raw(n.saturating_mul(size))
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(fill: impl FnOnce(BufWriter<'_>) -> BufWriter<'_>) -> Vec<u8> {
        let mut buf = vec![0xFF]; // stale pooled contents
        buf.clear();
        fill(BufWriter::new(&mut buf));
        buf
    }

    #[test]
    fn roundtrip_all_types() {
        let b = body(|w| w.u8(7).u32(0xDEAD_BEEF).u64(u64::MAX - 1).i64(-42).f64(3.5).bytes(b"hello"));
        let mut r = Reader::new(&b);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.i64(), Ok(-42));
        assert_eq!(r.f64(), Ok(3.5));
        assert_eq!(r.bytes(), Ok(&b"hello"[..]));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn empty_collections() {
        let b = body(|w| w.bytes(&[]).f64_slice(&[]));
        let mut r = Reader::new(&b);
        assert_eq!(r.bytes(), Ok(&[][..]));
        assert_eq!(r.records(8), Ok(&[][..]));
    }

    #[test]
    fn truncated_read_errors() {
        let b = body(|w| w.u32(1));
        let mut r = Reader::new(&b);
        assert_eq!(r.u64(), Err(DecodeError::Truncated));
        // A failed read consumes nothing.
        assert_eq!(r.u32(), Ok(1));
        // A length prefix promising more than the body holds.
        let b = body(|w| w.u32(u32::MAX).u8(0));
        assert_eq!(Reader::new(&b).bytes(), Err(DecodeError::Truncated));
        assert_eq!(Reader::new(&b).records(12), Err(DecodeError::Truncated));
    }

    #[test]
    fn nan_f64_roundtrips_bitwise() {
        let b = body(|w| w.f64(f64::NAN));
        assert!(Reader::new(&b).f64().is_ok_and(f64::is_nan));
    }

    #[test]
    fn f64_slice_is_bytewise_f64s() {
        let b = body(|w| w.f64_slice(&[1.5, -2.5]));
        let mut r = Reader::new(&b);
        assert_eq!(r.u32(), Ok(2));
        assert_eq!(r.f64(), Ok(1.5));
        assert_eq!(r.f64(), Ok(-2.5));
    }
}
