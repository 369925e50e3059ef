//! Binary wire codec for messages exchanged between ranks.
//!
//! YGM serializes C++ lambdas and their captured arguments into flat byte
//! buffers. Rust closures are not serializable, so this simulated runtime
//! splits the concept: the *function* part is a handler registered under a
//! `Tag` on every rank (see [`crate::comm::Comm::register`]), and the
//! *argument* part is a value implementing [`Wire`], encoded with the
//! little-endian codec in this module.
//!
//! The codec is deliberately simple and allocation-free on the encode path:
//! values append themselves to a [`BytesMut`] and decode themselves from a
//! shrinking byte slice. Variable-length collections are prefixed with a
//! `u32` element count.
//!
//! `Vec<T>` goes through the bulk slice path, [`Wire::encode_slice`] and
//! [`Wire::decode_vec`]. Their default bodies loop over the elements. The
//! primitive numeric types override them: encode grows the buffer once
//! for the whole slice and writes each element's little-endian bytes into
//! its `chunks_exact_mut` chunk; decode checks the length once and reads
//! `chunks_exact` chunks. The bytes are identical to encoding element by
//! element, so feature vectors (`Vec<f32>`, `Vec<u8>`) and id lists cost
//! one bounds check and one copy per message, not one per element.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// A value that can be encoded to and decoded from the rank-to-rank wire
/// format.
///
/// Implementations must round-trip: `decode(encode(x)) == x` and consume
/// exactly the bytes they produced. The runtime frames each message, so
/// implementations never need to encode their own total length.
pub trait Wire: Sized {
    /// Append the encoded representation of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Decode a value from the front of `buf`, consuming exactly the bytes
    /// produced by [`Wire::encode`].
    fn decode(buf: &mut Bytes) -> Self;
    /// Exact number of bytes [`Wire::encode`] will append. Used to charge the
    /// virtual network clock and to pre-reserve buffer space.
    fn wire_size(&self) -> usize;

    /// Append every element of `items` back to back, producing exactly the
    /// bytes of calling [`Wire::encode`] on each in turn.
    fn encode_slice(items: &[Self], buf: &mut BytesMut) {
        for item in items {
            item.encode(buf);
        }
    }

    /// Decode `n` consecutive values written by [`Wire::encode_slice`].
    fn decode_vec(n: usize, buf: &mut Bytes) -> Vec<Self> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::decode(buf));
        }
        out
    }
}

macro_rules! impl_wire_prim {
    ($t:ty, $put:ident, $get:ident, $sz:expr) => {
        impl Wire for $t {
            #[inline]
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            #[inline]
            fn decode(buf: &mut Bytes) -> Self {
                buf.$get()
            }
            #[inline]
            fn wire_size(&self) -> usize {
                $sz
            }
            fn encode_slice(items: &[Self], buf: &mut BytesMut) {
                let start = buf.len();
                buf.put_bytes(0, items.len() * $sz);
                for (dst, v) in buf[start..].chunks_exact_mut($sz).zip(items) {
                    dst.copy_from_slice(&v.to_le_bytes());
                }
            }
            fn decode_vec(n: usize, buf: &mut Bytes) -> Vec<Self> {
                let len = n.checked_mul($sz).expect("element count overflows");
                assert!(buf.remaining() >= len, "buffer underflow");
                let out = buf.chunk()[..len]
                    .chunks_exact($sz)
                    .map(|c| <$t>::from_le_bytes(c.try_into().expect("exact chunk")))
                    .collect();
                buf.advance(len);
                out
            }
        }
    };
}

impl_wire_prim!(u8, put_u8, get_u8, 1);
impl_wire_prim!(u16, put_u16_le, get_u16_le, 2);
impl_wire_prim!(u32, put_u32_le, get_u32_le, 4);
impl_wire_prim!(u64, put_u64_le, get_u64_le, 8);
impl_wire_prim!(i32, put_i32_le, get_i32_le, 4);
impl_wire_prim!(i64, put_i64_le, get_i64_le, 8);
impl_wire_prim!(f32, put_f32_le, get_f32_le, 4);
impl_wire_prim!(f64, put_f64_le, get_f64_le, 8);

impl Wire for bool {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> Self {
        buf.get_u8() != 0
    }
    #[inline]
    fn wire_size(&self) -> usize {
        1
    }
}

impl Wire for usize {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self as u64);
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> Self {
        buf.get_u64_le() as usize
    }
    #[inline]
    fn wire_size(&self) -> usize {
        8
    }
}

impl Wire for () {
    #[inline]
    fn encode(&self, _buf: &mut BytesMut) {}
    #[inline]
    fn decode(_buf: &mut Bytes) -> Self {}
    #[inline]
    fn wire_size(&self) -> usize {
        0
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        T::encode_slice(self, buf);
    }
    fn decode(buf: &mut Bytes) -> Self {
        let n = buf.get_u32_le() as usize;
        T::decode_vec(n, buf)
    }
    fn wire_size(&self) -> usize {
        4 + self.iter().map(Wire::wire_size).sum::<usize>()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
            None => buf.put_u8(0),
        }
    }
    fn decode(buf: &mut Bytes) -> Self {
        if buf.get_u8() != 0 {
            Some(T::decode(buf))
        } else {
            None
        }
    }
    fn wire_size(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::wire_size)
    }
}

macro_rules! impl_wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, buf: &mut BytesMut) {
                $(self.$idx.encode(buf);)+
            }
            fn decode(buf: &mut Bytes) -> Self {
                ($($name::decode(buf),)+)
            }
            fn wire_size(&self) -> usize {
                0 $(+ self.$idx.wire_size())+
            }
        }
    };
}

impl_wire_tuple!(A: 0);
impl_wire_tuple!(A: 0, B: 1);
impl_wire_tuple!(A: 0, B: 1, C: 2);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// Compact causal trace context carried on every simulated wire frame.
///
/// Minted exactly once, when a send buffer is flushed into a frame; the
/// reliable-delivery layer stores the context alongside the frame bytes and
/// reuses it verbatim on retransmits and duplicates, so a redelivered frame
/// can never forge a new causal edge. `wire_size` is what an MPI transport
/// would pay per frame for the context; the simulation keeps the context
/// out of the byte counters so enabling tracing never perturbs the virtual
/// clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Rank that flushed the frame.
    pub origin: u32,
    /// Span id of the sender's enclosing barrier-to-barrier phase (the
    /// phase counter at flush time — deterministic under SPMD).
    pub parent_span: u64,
    /// Logical per-(origin, dest) flush sequence number, assigned at mint
    /// time and frozen across retransmits.
    pub send_seq: u64,
}

impl Wire for TraceCtx {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.origin);
        buf.put_u64_le(self.parent_span);
        buf.put_u64_le(self.send_seq);
    }
    fn decode(buf: &mut Bytes) -> Self {
        TraceCtx {
            origin: buf.get_u32_le(),
            parent_span: buf.get_u64_le(),
            send_seq: buf.get_u64_le(),
        }
    }
    fn wire_size(&self) -> usize {
        20
    }
}

/// Encode `value` into a fresh buffer. Mostly useful in tests.
pub fn encode_to_bytes<T: Wire>(value: &T) -> Bytes {
    let mut buf = BytesMut::with_capacity(value.wire_size());
    value.encode(&mut buf);
    buf.freeze()
}

/// Decode a value from `bytes`, asserting full consumption.
pub fn decode_from_bytes<T: Wire>(bytes: Bytes) -> T {
    let mut b = bytes;
    let v = T::decode(&mut b);
    debug_assert!(b.is_empty(), "codec did not consume the full buffer");
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let enc = encode_to_bytes(&v);
        assert_eq!(enc.len(), v.wire_size(), "wire_size must match encoding");
        let dec: T = decode_from_bytes(enc);
        assert_eq!(dec, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-42i32);
        round_trip(i64::MIN);
        round_trip(3.5f32);
        round_trip(-0.25f64);
        round_trip(true);
        round_trip(false);
        round_trip(12345usize);
        round_trip(());
    }

    #[test]
    fn vec_round_trip() {
        round_trip(Vec::<u32>::new());
        round_trip(vec![1u32, 2, 3, u32::MAX]);
        round_trip(vec![1.0f32, -2.5, f32::INFINITY]);
        round_trip(vec![vec![1u8, 2], vec![], vec![3]]);
    }

    #[test]
    fn option_round_trip() {
        round_trip(Option::<u32>::None);
        round_trip(Some(9u64));
        round_trip(Some(vec![1u16, 2]));
    }

    #[test]
    fn tuple_round_trip() {
        round_trip((1u32,));
        round_trip((1u32, 2.5f32));
        round_trip((1u32, 2.5f32, true));
        round_trip((1u32, 2.5f32, true, vec![7u8]));
        round_trip((1u32, 2u32, 3u32, 4u32, 5u32));
        round_trip((1u32, 2u32, 3u32, 4u32, 5u32, 6u32));
    }

    #[test]
    fn nan_distance_encodes() {
        // NaN != NaN so compare bit patterns instead of using round_trip.
        let enc = encode_to_bytes(&f32::NAN);
        let dec: f32 = decode_from_bytes(enc);
        assert!(dec.is_nan());
    }

    #[test]
    fn wire_size_matches_for_nested() {
        let v = vec![(1u32, vec![1.0f32, 2.0]), (2u32, vec![])];
        assert_eq!(encode_to_bytes(&v).len(), v.wire_size());
    }

    #[test]
    fn trace_ctx_round_trips() {
        round_trip(TraceCtx::default());
        round_trip(TraceCtx {
            origin: 3,
            parent_span: 17,
            send_seq: u64::MAX,
        });
    }

    #[test]
    fn trace_ctx_wire_size_is_fixed() {
        // The frame-header cost an MPI transport would pay per frame.
        assert_eq!(TraceCtx::default().wire_size(), 20);
        let ctx = TraceCtx {
            origin: 1,
            parent_span: 2,
            send_seq: 3,
        };
        assert_eq!(encode_to_bytes(&ctx).len(), 20);
    }
}
