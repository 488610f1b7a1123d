//! Offline stand-in for the `bytes` crate.
//!
//! Implements a small subset: [`BytesMut`] as a growable buffer with the
//! little-endian `put_*` methods, [`Bytes`] as an immutable byte container, and [`Buf`] as a
//! cursor over `&[u8]` with the little-endian `get_*` methods.

#![forbid(unsafe_code)]

use std::ops::Deref;

/// An immutable contiguous byte buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Bytes {
    data: std::sync::Arc<[u8]>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes { data: std::sync::Arc::from(&[][..]) }
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes { data: std::sync::Arc::from(data) }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The bytes as a vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { data: std::sync::Arc::from(v.into_boxed_slice()) }
    }
}

/// A growable byte buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    /// An empty buffer with `capacity` bytes preallocated.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut { data: Vec::with_capacity(capacity) }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Removes all content, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Freezes the buffer into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Appends raw bytes.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Write-side extension methods (the `bytes::BufMut` subset the codec uses).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, bytes: &[u8]);

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
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Read-side cursor methods (the `bytes::Buf` subset the codec uses).
///
/// # Panics
///
/// Like upstream `bytes`, the `get_*` methods panic when the buffer holds too few bytes;
/// callers are expected to check [`Buf::remaining`] first.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Reads `n` bytes, advancing the cursor.
    fn take_bytes(&mut self, n: usize) -> &[u8];

    /// True when at least one byte is left.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        self.take_bytes(1)[0]
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take_bytes(2).try_into().unwrap())
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take_bytes(4).try_into().unwrap())
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take_bytes(8).try_into().unwrap())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn take_bytes(&mut self, n: usize) -> &[u8] {
        let (head, tail) = self.split_at(n);
        *self = tail;
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_and_get_roundtrip() {
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u8(7);
        buf.put_u16_le(0xBEEF);
        buf.put_u64_le(0x0102030405060708);
        let frozen = buf.freeze();
        assert_eq!(frozen.len(), 11);
        let mut cursor: &[u8] = &frozen;
        assert_eq!(cursor.get_u8(), 7);
        assert_eq!(cursor.get_u16_le(), 0xBEEF);
        assert_eq!(cursor.get_u64_le(), 0x0102030405060708);
        assert!(!cursor.has_remaining());
    }

    #[test]
    fn clear_keeps_reusing_the_buffer() {
        let mut buf = BytesMut::new();
        buf.put_u8(1);
        buf.clear();
        assert!(buf.is_empty());
        buf.put_u8(2);
        assert_eq!(&buf[..], &[2]);
    }
}
