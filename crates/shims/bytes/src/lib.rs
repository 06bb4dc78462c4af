//! Offline shim for the `bytes` crate.
//!
//! Implements the subset the wire protocol uses: an immutable,
//! cheaply-cloneable [`Bytes`] view with little-endian [`Buf`] readers,
//! and a growable [`BytesMut`] with [`BufMut`] writers and `freeze()`.

#![warn(missing_docs)]

use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer with a consuming cursor.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a static slice (copies; fidelity over zero-copy here).
    pub fn from_static(s: &'static [u8]) -> Self {
        Self::from(s.to_vec())
    }

    /// Remaining length of the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-view of the remaining bytes (shares the allocation).
    ///
    /// # Panics
    /// Panics when the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
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
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Self {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Copies the remaining bytes into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership of `v`'s allocation; the bytes are not copied.
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self {
            data: Arc::new(v),
            start: 0,
            end,
        }
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

/// A growable byte buffer.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self(Vec::with_capacity(cap))
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.0.extend_from_slice(s);
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Little-endian readers over a consuming cursor.
///
/// # Panics
/// All `get_*` methods panic when fewer than the required bytes remain —
/// callers check [`Buf::remaining`] first, matching crates.io `bytes`.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Consumes `n` bytes, returning them as a new [`Bytes`].
    fn copy_to_bytes(&mut self, n: usize) -> Bytes;

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        self.copy_to_bytes(1)[0]
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let b = self.copy_to_bytes(2);
        u16::from_le_bytes([b[0], b[1]])
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let b = self.copy_to_bytes(4);
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let b = self.copy_to_bytes(8);
        u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    }

    /// Reads a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "copy_to_bytes past end");
        let out = self.slice(..n);
        self.start += n;
        out
    }
}

/// Little-endian writers.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, s: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.0.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrip() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u8(7);
        w.put_u16_le(300);
        w.put_u32_le(70_000);
        w.put_u64_le(1 << 40);
        w.put_f64_le(0.5);
        w.put_slice(b"hi");
        let mut r = w.freeze();
        assert_eq!(r.remaining(), 1 + 2 + 4 + 8 + 8 + 2);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 300);
        assert_eq!(r.get_u32_le(), 70_000);
        assert_eq!(r.get_u64_le(), 1 << 40);
        assert_eq!(r.get_f64_le(), 0.5);
        assert_eq!(r.copy_to_bytes(2).to_vec(), b"hi");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn slice_shares_and_bounds() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&*s, &[2, 3, 4]);
        assert_eq!(s.slice(1..).to_vec(), vec![3, 4]);
        assert_eq!(b.len(), 5, "original view unchanged");
    }

    #[test]
    fn from_vec_keeps_the_allocation() {
        let v = vec![9u8; 4096];
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at);
        assert_eq!(b.slice(10..).as_ptr(), at.wrapping_add(10));
        assert_eq!(b.clone().as_ptr(), at);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn overread_panics() {
        let mut b = Bytes::from(vec![1]);
        b.get_u32_le();
    }
}
