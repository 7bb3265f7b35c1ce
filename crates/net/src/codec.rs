//! Length-prefixed binary encoding.
//!
//! The original Lapse uses protocol buffers over ZeroMQ. This reproduction
//! defines a compact fixed-layout encoding with the same role: every
//! protocol message can be serialized to bytes and parsed back. The
//! threaded transport passes messages by value for speed (it is an
//! in-process "cluster"), but the codec keeps the wire format honest:
//! round-trip tests in the protocol crate encode and decode every message
//! kind, and [`crate::wire::WireSize`] implementations must agree with the
//! encoded length. A message is a tag byte and a list of [`WireField`]s.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::block::ValueBlock;
use crate::id::{Key, NodeId};

/// Error produced when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// A tag byte did not correspond to any known variant.
    UnknownTag(u8),
    /// A length field exceeded a sanity bound.
    LengthOutOfRange(u64),
    /// A batch envelope contained another batch envelope. Batches are a
    /// transport-level framing layer, not a recursive structure; rejecting
    /// the tag before recursing also bounds decode stack depth against
    /// crafted `15,1,15,1,…` inputs.
    NestedBatch,
    /// A byte that encodes an enumerated value (a flag, an operation
    /// kind) held none of its values.
    InvalidValue(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            CodecError::LengthOutOfRange(n) => write!(f, "length {n} out of range"),
            CodecError::NestedBatch => write!(f, "batch envelope nested inside a batch"),
            CodecError::InvalidValue(b) => write!(f, "byte {b} is not a value of its field"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Sanity bound on decoded collection lengths (1 Gi entries). Public so
/// protocol crates can apply the same bound to their own length prefixes
/// (e.g. the batch-envelope message count).
pub const MAX_LEN: u64 = 1 << 30;

/// Types encodable to / decodable from the wire format.
pub trait WireCodec: Sized {
    /// Appends the serialized form to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Parses one value from the front of `buf`.
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError>;
}

// ---- primitives used by protocol crates ----

/// Encodes a byte (message tags).
pub fn put_u8(buf: &mut BytesMut, v: u8) {
    buf.put_u8(v);
}

/// Decodes a byte.
pub fn get_u8(buf: &mut Bytes) -> Result<u8, CodecError> {
    if buf.remaining() < 1 {
        return Err(CodecError::UnexpectedEof);
    }
    Ok(buf.get_u8())
}

/// Encodes a `u32` (little endian; length prefixes).
pub fn put_u32(buf: &mut BytesMut, v: u32) {
    buf.put_u32_le(v);
}

/// Decodes a `u32`.
pub fn get_u32(buf: &mut Bytes) -> Result<u32, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::UnexpectedEof);
    }
    Ok(buf.get_u32_le())
}

/// Decodes the `u32` length prefix of a list of `elem_bytes`-wide
/// elements: bounded by [`MAX_LEN`], and the elements must already be in
/// `buf` (so the caller may allocate for them).
fn get_len(buf: &mut Bytes, elem_bytes: usize) -> Result<usize, CodecError> {
    let n = get_u32(buf)? as u64;
    if n > MAX_LEN {
        return Err(CodecError::LengthOutOfRange(n));
    }
    let n = n as usize;
    if buf.remaining() < n * elem_bytes {
        return Err(CodecError::UnexpectedEof);
    }
    Ok(n)
}

/// One field of a wire message. A message's size, encoder and decoder
/// are its field list read three ways (`wire_len` summed, `put` in order,
/// `get` in order), so they cannot disagree; protocol crates implement
/// the trait for their own field types out of these.
pub trait WireField: Sized {
    /// Encoded length in bytes.
    fn wire_len(&self) -> usize;
    /// Appends the encoded form to `buf`.
    fn put(&self, buf: &mut BytesMut);
    /// Parses one value from the front of `buf`.
    fn get(buf: &mut Bytes) -> Result<Self, CodecError>;
    /// `(keys, floats)` the field carries — what the simulator's cost
    /// model charges a message for. Scalars carry neither.
    #[inline]
    fn load(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Little endian.
impl WireField for u64 {
    #[inline]
    fn wire_len(&self) -> usize {
        8
    }
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self);
    }
    #[inline]
    fn get(buf: &mut Bytes) -> Result<Self, CodecError> {
        if buf.remaining() < 8 {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(buf.get_u64_le())
    }
}

/// One byte, 0 or 1; anything else is [`CodecError::InvalidValue`].
impl WireField for bool {
    #[inline]
    fn wire_len(&self) -> usize {
        1
    }
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
    #[inline]
    fn get(buf: &mut Bytes) -> Result<Self, CodecError> {
        match get_u8(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::InvalidValue(b)),
        }
    }
}

/// A `u16`, little endian.
impl WireField for NodeId {
    #[inline]
    fn wire_len(&self) -> usize {
        2
    }
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u16_le(self.0);
    }
    #[inline]
    fn get(buf: &mut Bytes) -> Result<Self, CodecError> {
        if buf.remaining() < 2 {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(NodeId(buf.get_u16_le()))
    }
}

/// A `u32` count, then the keys as `u64`s.
impl WireField for Vec<Key> {
    #[inline]
    fn wire_len(&self) -> usize {
        4 + self.len() * 8
    }
    fn put(&self, buf: &mut BytesMut) {
        put_u32(buf, self.len() as u32);
        for k in self {
            buf.put_u64_le(k.0);
        }
    }
    fn get(buf: &mut Bytes) -> Result<Self, CodecError> {
        let n = get_len(buf, 8)?;
        Ok((0..n).map(|_| Key(buf.get_u64_le())).collect())
    }
    #[inline]
    fn load(&self) -> (u64, u64) {
        (self.len() as u64, 0)
    }
}

/// A `u32` count, then the floats.
impl WireField for Vec<f32> {
    #[inline]
    fn wire_len(&self) -> usize {
        4 + self.len() * 4
    }
    fn put(&self, buf: &mut BytesMut) {
        put_u32(buf, self.len() as u32);
        for &v in self {
            buf.put_f32_le(v);
        }
    }
    fn get(buf: &mut Bytes) -> Result<Self, CodecError> {
        let n = get_len(buf, 4)?;
        Ok((0..n).map(|_| buf.get_f32_le()).collect())
    }
    #[inline]
    fn load(&self) -> (u64, u64) {
        (0, self.len() as u64)
    }
}

/// Byte-identical to the `Vec<f32>` of the same values; decoding shares
/// the input allocation (zero-copy).
impl WireField for ValueBlock {
    #[inline]
    fn wire_len(&self) -> usize {
        4 + self.len() * 4
    }
    fn put(&self, buf: &mut BytesMut) {
        put_u32(buf, self.len() as u32);
        buf.extend_from_slice(self.as_bytes());
    }
    fn get(buf: &mut Bytes) -> Result<Self, CodecError> {
        let n = get_len(buf, 4)?;
        Ok(ValueBlock::split_from(buf, n))
    }
    #[inline]
    fn load(&self) -> (u64, u64) {
        (0, self.len() as u64)
    }
}

/// Encodes an envelope (src, dst, payload) into a framed buffer:
/// `len(u32) | src(u16) | dst(u16) | payload…`.
pub fn encode_framed<M: WireCodec>(src: NodeId, dst: NodeId, payload: &M) -> BytesMut {
    let mut body = BytesMut::new();
    src.put(&mut body);
    dst.put(&mut body);
    payload.encode(&mut body);
    let mut framed = BytesMut::with_capacity(4 + body.len());
    framed.put_u32_le(body.len() as u32);
    framed.extend_from_slice(&body);
    framed
}

/// Decodes one framed envelope, returning `(src, dst, payload)`.
pub fn decode_framed<M: WireCodec>(buf: &mut Bytes) -> Result<(NodeId, NodeId, M), CodecError> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(CodecError::UnexpectedEof);
    }
    let mut body = buf.split_to(len);
    let src = NodeId::get(&mut body)?;
    let dst = NodeId::get(&mut body)?;
    let payload = M::decode(&mut body)?;
    Ok((src, dst, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = BytesMut::new();
        put_u32(&mut buf, 7);
        (u64::MAX - 3).put(&mut buf);
        put_u8(&mut buf, 0xAB);
        NodeId(513).put(&mut buf);
        true.put(&mut buf);
        vec![Key(1), Key(u64::MAX)].put(&mut buf);
        vec![1.5f32, -2.25].put(&mut buf);
        ValueBlock::from_f32s(&[0.5]).put(&mut buf);
        let mut b = buf.freeze();
        assert_eq!(get_u32(&mut b).unwrap(), 7);
        assert_eq!(u64::get(&mut b).unwrap(), u64::MAX - 3);
        assert_eq!(get_u8(&mut b).unwrap(), 0xAB);
        assert_eq!(NodeId::get(&mut b).unwrap(), NodeId(513));
        assert!(bool::get(&mut b).unwrap());
        assert_eq!(
            Vec::<Key>::get(&mut b).unwrap(),
            vec![Key(1), Key(u64::MAX)]
        );
        assert_eq!(Vec::<f32>::get(&mut b).unwrap(), vec![1.5, -2.25]);
        assert_eq!(
            <ValueBlock as WireField>::get(&mut b).unwrap(),
            ValueBlock::from_f32s(&[0.5])
        );
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = BytesMut::new();
        vec![Key(1), Key(2)].put(&mut buf);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut b = full.slice(..cut);
            assert!(Vec::<Key>::get(&mut b).is_err(), "cut={cut} should fail");
        }
    }

    #[test]
    fn absurd_length_rejected() {
        let mut buf = BytesMut::new();
        put_u32(&mut buf, u32::MAX);
        let mut b = buf.freeze();
        // Not enough bytes follow, and even the length itself is suspect.
        assert!(Vec::<Key>::get(&mut b).is_err());
    }

    #[test]
    fn wire_byte_helpers_match_encoding() {
        fn check(field: impl WireField) {
            let mut buf = BytesMut::new();
            field.put(&mut buf);
            assert_eq!(buf.len(), field.wire_len());
        }
        check(7u64);
        check(true);
        check(NodeId(3));
        check(vec![Key(3), Key(4), Key(5)]);
        check(vec![0.5f32; 7]);
        check(ValueBlock::from_f32s(&[0.5; 7]));
    }

    #[derive(Debug, PartialEq)]
    struct Ping(u64);

    impl WireCodec for Ping {
        fn encode(&self, buf: &mut BytesMut) {
            put_u8(buf, 1);
            self.0.put(buf);
        }
        fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
            match get_u8(buf)? {
                1 => Ok(Ping(u64::get(buf)?)),
                t => Err(CodecError::UnknownTag(t)),
            }
        }
    }

    #[test]
    fn framed_round_trip() {
        let framed = encode_framed(NodeId(1), NodeId(2), &Ping(42));
        let mut bytes = framed.freeze();
        let (src, dst, msg): (NodeId, NodeId, Ping) = decode_framed(&mut bytes).unwrap();
        assert_eq!(src, NodeId(1));
        assert_eq!(dst, NodeId(2));
        assert_eq!(msg, Ping(42));
    }

    #[test]
    fn framed_unknown_tag() {
        let mut body = BytesMut::new();
        NodeId(0).put(&mut body);
        NodeId(1).put(&mut body);
        put_u8(&mut body, 99);
        let mut framed = BytesMut::new();
        framed.put_u32_le(body.len() as u32);
        framed.extend_from_slice(&body);
        let mut bytes = framed.freeze();
        let res: Result<(NodeId, NodeId, Ping), _> = decode_framed(&mut bytes);
        assert_eq!(res.unwrap_err(), CodecError::UnknownTag(99));
    }
}
