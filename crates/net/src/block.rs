//! Contiguous value blocks.
//!
//! The value-carrying protocol messages (operation responses, relocation
//! hand-overs, replica refreshes) move concatenated per-key `f32` vectors.
//! Representing them as `Vec<f32>` forces an allocation per message and a
//! per-key `Vec` whenever values are staged individually. A [`ValueBlock`]
//! instead keeps the whole payload as one little-endian byte block behind
//! [`Bytes`]:
//!
//! * **encode** appends the block verbatim (the wire format is identical
//!   to the length-prefixed `f32` list a `Vec<f32>` field encodes to, so
//!   wire sizes are unchanged);
//! * **decode** slices the block out of the incoming buffer without
//!   copying (`Bytes::split_to` shares the allocation);
//! * **clone** is a reference-count bump, so broadcasting one payload to
//!   many receivers shares a single buffer;
//! * readers copy f32s straight from the block into their destination
//!   buffer (store slot, tracker result, caller buffer) — no intermediate
//!   `Vec<f32>` materializes anywhere.
//!
//! Blocks are built with [`ValueBlockBuilder`], which appends `f32` slices
//! into one growing buffer: a single allocation per message instead of one
//! per key.

use bytes::{Bytes, BytesMut};

/// An immutable, cheaply cloneable block of `f32` values stored as
/// little-endian bytes. Offsets and lengths in the API are in **floats**,
/// not bytes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ValueBlock {
    bytes: Bytes,
}

impl ValueBlock {
    /// An empty block (used by messages that carry no values, e.g. push
    /// responses).
    pub fn empty() -> Self {
        ValueBlock::default()
    }

    /// Builds a block by copying a float slice (tests and cold paths; hot
    /// paths use [`ValueBlockBuilder`]).
    pub fn from_f32s(vals: &[f32]) -> Self {
        let mut b = ValueBlockBuilder::with_capacity(vals.len());
        b.push_slice(vals);
        b.finish()
    }

    /// Number of floats in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len() / 4
    }

    /// Whether the block holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The backing little-endian bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes.as_slice()
    }

    /// The float at index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> f32 {
        let b = self.bytes.as_slice();
        let off = i * 4;
        f32::from_le_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]])
    }

    /// Copies `dst.len()` floats starting at float offset `off` into
    /// `dst` — the single primitive every consumer (store slot, tracker
    /// result, caller buffer) uses to read values out of a block.
    #[inline]
    pub fn copy_to(&self, off: usize, dst: &mut [f32]) {
        let src = &self.bytes.as_slice()[off * 4..(off + dst.len()) * 4];
        #[cfg(target_endian = "little")]
        le_bytes_mut(dst).copy_from_slice(src);
        #[cfg(not(target_endian = "little"))]
        for (d, c) in dst.iter_mut().zip(src.chunks_exact(4)) {
            *d = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
    }

    /// Materializes the block as a `Vec<f32>` (tests and diagnostics).
    pub fn to_vec(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.len()];
        self.copy_to(0, &mut out);
        out
    }

    /// Splits a float-count-prefixed block off the front of `buf` without
    /// copying; `floats` is the decoded count.
    pub fn split_from(buf: &mut Bytes, floats: usize) -> Self {
        ValueBlock {
            bytes: buf.split_to(floats * 4),
        }
    }
}

/// Append-only builder for a [`ValueBlock`]: one buffer per message, zero
/// allocations per key.
#[derive(Debug, Default)]
pub struct ValueBlockBuilder {
    buf: BytesMut,
}

impl ValueBlockBuilder {
    /// Creates a builder preallocated for `floats` values.
    pub fn with_capacity(floats: usize) -> Self {
        ValueBlockBuilder {
            buf: BytesMut::with_capacity(floats * 4),
        }
    }

    /// Number of floats appended so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len() / 4
    }

    /// Whether nothing was appended yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Makes room for `floats` more values: a builder that knows how much
    /// is coming allocates once instead of once per doubling.
    pub fn reserve(&mut self, floats: usize) {
        self.buf.reserve(floats * 4);
    }

    /// Appends a float slice: one bulk append where memory already holds
    /// the wire's byte order. Elsewhere floats are converted chunk-wise
    /// through a stack buffer so the byte buffer still grows by one bulk
    /// append per chunk (the per-float path does not inline across
    /// crates and is ~20× slower).
    pub fn push_slice(&mut self, vals: &[f32]) {
        #[cfg(target_endian = "little")]
        self.buf.extend_from_slice(le_bytes(vals));
        #[cfg(not(target_endian = "little"))]
        {
            const CHUNK: usize = 64;
            self.buf.reserve(vals.len() * 4);
            let mut tmp = [0u8; CHUNK * 4];
            for chunk in vals.chunks(CHUNK) {
                for (dst, &v) in tmp.chunks_exact_mut(4).zip(chunk) {
                    dst.copy_from_slice(&v.to_le_bytes());
                }
                self.buf.extend_from_slice(&tmp[..chunk.len() * 4]);
            }
        }
    }

    /// Freezes the builder into an immutable block.
    pub fn finish(self) -> ValueBlock {
        ValueBlock {
            bytes: self.buf.freeze(),
        }
    }
}

/// `vals` as the bytes a block stores: on a little-endian target a
/// float's memory is its wire encoding.
#[cfg(target_endian = "little")]
fn le_bytes(vals: &[f32]) -> &[u8] {
    // SAFETY: an `f32` is four initialized bytes without padding, `u8`
    // has alignment 1, and the length is that of `vals` in bytes; the
    // borrow is `vals`'s.
    unsafe { std::slice::from_raw_parts(vals.as_ptr().cast(), std::mem::size_of_val(vals)) }
}

/// [`le_bytes`] for writing: every bit pattern is a valid `f32`, so any
/// bytes may be stored through the view.
#[cfg(target_endian = "little")]
fn le_bytes_mut(vals: &mut [f32]) -> &mut [u8] {
    // SAFETY: as `le_bytes`; the borrow is exclusive because `vals`'s is.
    unsafe { std::slice::from_raw_parts_mut(vals.as_mut_ptr().cast(), std::mem::size_of_val(vals)) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    #[test]
    fn build_read_round_trip() {
        let mut b = ValueBlockBuilder::with_capacity(4);
        b.push_slice(&[1.0, -2.5]);
        b.push_slice(&[3.25]);
        assert_eq!(b.len(), 3);
        let block = b.finish();
        assert_eq!(block.len(), 3);
        assert_eq!(block.to_vec(), vec![1.0, -2.5, 3.25]);
        assert_eq!(block.get(1), -2.5);
        let mut out = [0.0f32; 2];
        block.copy_to(1, &mut out);
        assert_eq!(out, [-2.5, 3.25]);
    }

    /// The bulk paths against the definition of the format: float `i`
    /// of a block is bytes `4i..4i + 4`, little-endian, whatever the
    /// slice lengths it was built from and the offset it is read at.
    #[test]
    fn bytes_are_each_floats_le_encoding() {
        let vals: Vec<f32> = (0..131).map(|i| (i as f32 - 60.5) * 1.25e-3).collect();
        for split in [0, 1, 63, 64, 65, 131] {
            let mut b = ValueBlockBuilder::default();
            b.push_slice(&vals[..split]);
            b.push_slice(&vals[split..]);
            let block = b.finish();
            let want: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(block.as_bytes(), &want[..], "split at {split}");
            let mut out = vec![f32::NAN; vals.len() - split];
            block.copy_to(split, &mut out);
            assert_eq!(out, &vals[split..]);
            assert!((0..vals.len()).all(|i| block.get(i) == vals[i]));
        }
    }

    #[test]
    fn empty_block() {
        let block = ValueBlock::empty();
        assert!(block.is_empty());
        assert_eq!(block.len(), 0);
        assert_eq!(block, ValueBlock::from_f32s(&[]));
    }

    #[test]
    fn clone_shares_bytes() {
        let block = ValueBlock::from_f32s(&[7.0; 64]);
        let copy = block.clone();
        assert_eq!(copy, block);
        assert_eq!(copy.as_bytes().as_ptr(), block.as_bytes().as_ptr());
    }

    #[test]
    fn split_from_is_zero_copy() {
        let mut buf = BytesMut::new();
        buf.put_f32_le(1.5);
        buf.put_f32_le(2.5);
        buf.put_u8(9); // trailing byte stays in the buffer
        let mut bytes = buf.freeze();
        let backing = bytes.as_slice().as_ptr();
        let block = ValueBlock::split_from(&mut bytes, 2);
        assert_eq!(block.to_vec(), vec![1.5, 2.5]);
        assert_eq!(block.as_bytes().as_ptr(), backing);
        assert_eq!(bytes.len(), 1);
    }
}
