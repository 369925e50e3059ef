//! Offline stand-in for the `bytes` crate (see `crates/shims/`).
//!
//! [`Bytes`] is a cheaply cloneable, sliceable view into shared immutable
//! storage (`Arc<Vec<u8>>` + range); [`BytesMut`] is a growable write
//! buffer. [`Buf`]/[`BufMut`] provide the little-endian accessors the wire
//! codec in `ygm::codec` relies on. Only the API surface this workspace
//! uses is implemented.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Read-side cursor over a contiguous byte region.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];
    /// Consume `n` bytes.
    fn advance(&mut self, n: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    fn get_i32_le(&mut self) -> i32 {
        self.get_u32_le() as i32
    }

    fn get_i64_le(&mut self) -> i64 {
        self.get_u64_le() as i64
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

/// Write-side sink for little-endian encoding.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append `cnt` copies of the byte `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_u8(val);
        }
    }

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_i8(&mut self, v: i8) {
        self.put_u8(v as u8);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_i32_le(&mut self, v: i32) {
        self.put_u32_le(v as u32);
    }

    fn put_i64_le(&mut self, v: i64) {
        self.put_u64_le(v as u64);
    }

    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

/// Cheaply cloneable shared immutable byte slice.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Bytes::default()
    }

    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes::from(src.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Split off the first `n` bytes into a new `Bytes` (shared storage).
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "split_to out of range");
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + n,
        };
        self.start += n;
        head
    }

    /// A sub-slice view sharing the same storage.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len());
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        let end = data.len();
        Bytes {
            data: Arc::new(data),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(src: &[u8]) -> Self {
        Bytes::from(src.to_vec())
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

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:?})", self.as_slice())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of range");
        self.start += n;
    }
}

/// Growable write buffer; `split().freeze()` hands the accumulated bytes
/// off as an immutable [`Bytes`] while retaining the allocation's type.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            inner: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.inner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    pub fn reserve(&mut self, additional: usize) {
        self.inner.reserve(additional);
    }

    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Take the entire filled contents, leaving `self` empty (capacity may
    /// be retained by the allocator; semantics match `bytes`' use here).
    pub fn split(&mut self) -> BytesMut {
        BytesMut {
            inner: std::mem::take(&mut self.inner),
        }
    }

    /// Freeze into an immutable shared [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.inner)
    }

    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.inner
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.inner
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({:?})", self.as_slice())
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.inner.resize(self.inner.len() + cnt, val);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le_round_trip_through_freeze() {
        let mut w = BytesMut::new();
        w.put_u16_le(0xBEEF);
        w.put_u32_le(7);
        w.put_f32_le(1.5);
        w.put_u64_le(u64::MAX);
        let mut r = w.freeze();
        assert_eq!(r.get_u16_le(), 0xBEEF);
        assert_eq!(r.get_u32_le(), 7);
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(r.get_u64_le(), u64::MAX);
        assert!(r.is_empty());
    }

    #[test]
    fn split_to_shares_storage() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(head.as_slice(), &[1, 2]);
        assert_eq!(b.as_slice(), &[3, 4, 5]);
        let clone = b.clone();
        assert_eq!(clone.as_slice(), b.as_slice());
    }

    #[test]
    fn put_bytes_then_write_in_place() {
        let mut w = BytesMut::new();
        w.put_u8(9);
        w.put_bytes(0, 4);
        assert_eq!(w.as_slice(), &[9, 0, 0, 0, 0]);
        w[1..].copy_from_slice(&7u32.to_le_bytes());
        assert_eq!(w.as_slice(), &[9, 7, 0, 0, 0]);
        let mut v: Vec<u8> = Vec::new();
        v.put_bytes(0xAB, 2); // the trait's default body
        assert_eq!(v, vec![0xAB, 0xAB]);
    }

    #[test]
    fn bytes_mut_split_empties_source() {
        let mut w = BytesMut::new();
        w.put_slice(b"abc");
        let taken = w.split();
        assert!(w.is_empty());
        assert_eq!(taken.as_slice(), b"abc");
    }
}
