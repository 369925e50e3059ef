//! Property tests for `ygm::codec::Wire`: round-trips and exact
//! `wire_size` accounting for every implementation, plus frame-level
//! length accounting with the `FRAME_HEADER_BYTES` header the runtime
//! prepends — including zero-length payloads (`()` messages) and the
//! largest routable tag (`MAX_TAGS - 1`).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use proptest::prelude::*;
use ygm::codec::{decode_from_bytes, encode_to_bytes};
use ygm::{Wire, FRAME_HEADER_BYTES, MAX_TAGS};

/// Encode, assert the byte count matches `wire_size` exactly, decode back.
fn round_trip<T: Wire + PartialEq + std::fmt::Debug + Clone>(value: &T) {
    let enc = encode_to_bytes(value);
    assert_eq!(
        enc.len(),
        value.wire_size(),
        "wire_size disagrees with encoded length for {value:?}"
    );
    let back: T = decode_from_bytes(enc);
    assert_eq!(&back, value);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn primitives_round_trip(
        a in any::<u8>(), b in any::<u16>(), c in any::<u32>(), d in any::<u64>(),
        e in any::<i32>(), f in any::<i64>(), g in any::<bool>(), h in any::<u64>(),
    ) {
        round_trip(&a);
        round_trip(&b);
        round_trip(&c);
        round_trip(&d);
        round_trip(&e);
        round_trip(&f);
        round_trip(&g);
        round_trip(&(h as usize));
    }

    /// Floats round-trip bit-exactly — including NaN payloads and signed
    /// zeros, which `PartialEq` would conflate.
    #[test]
    fn floats_round_trip_bit_exactly(bits32 in any::<u32>(), bits64 in any::<u64>()) {
        let x = f32::from_bits(bits32);
        let enc = encode_to_bytes(&x);
        prop_assert_eq!(enc.len(), x.wire_size());
        let back: f32 = decode_from_bytes(enc);
        prop_assert_eq!(back.to_bits(), bits32);

        let y = f64::from_bits(bits64);
        let enc = encode_to_bytes(&y);
        prop_assert_eq!(enc.len(), y.wire_size());
        let back: f64 = decode_from_bytes(enc);
        prop_assert_eq!(back.to_bits(), bits64);
    }

    #[test]
    fn collections_and_options_round_trip(
        v in prop::collection::vec(any::<u32>(), 0..40),
        nested in prop::collection::vec(prop::collection::vec(any::<u16>(), 0..8), 0..8),
        o in prop::option::of(any::<u64>()),
        oo in prop::option::of(prop::option::of(any::<u8>())),
        t in (any::<u32>(), any::<bool>(), prop::collection::vec(any::<i64>(), 0..6)),
    ) {
        round_trip(&v);
        round_trip(&nested);
        round_trip(&o);
        round_trip(&oo);
        round_trip(&t);
    }

    /// Decoding consumes *exactly* the bytes encoding produced: two values
    /// concatenated into one buffer decode back-to-back with nothing left.
    #[test]
    fn decode_consumes_exactly(
        first in prop::collection::vec((any::<u32>(), any::<u64>()), 0..12),
        second in prop::option::of(any::<i64>()),
    ) {
        let mut buf = BytesMut::new();
        first.encode(&mut buf);
        second.encode(&mut buf);
        prop_assert_eq!(buf.len(), first.wire_size() + second.wire_size());
        let mut bytes: Bytes = buf.freeze();
        let a = <Vec<(u32, u64)> as Wire>::decode(&mut bytes);
        prop_assert_eq!(bytes.len(), second.wire_size());
        let b = <Option<i64> as Wire>::decode(&mut bytes);
        prop_assert_eq!(a, first);
        prop_assert_eq!(b, second);
        prop_assert!(bytes.is_empty(), "decode left {} stray bytes", bytes.len());
    }

    /// Frame accounting mirrors `Comm::async_send`: each frame is a `u16`
    /// tag + `u32` payload-length header followed by the payload, and a
    /// whole stream of frames parses back losslessly. Covers zero-length
    /// payloads (tag-only `()` messages) and the largest routable tag.
    #[test]
    fn frame_stream_accounting(
        msgs in prop::collection::vec(
            ((0u16..MAX_TAGS as u16), prop::collection::vec(any::<u32>(), 0..10)),
            0..20,
        ),
    ) {
        let mut buf = BytesMut::new();
        let mut expect_len = 0usize;
        for (tag, payload) in &msgs {
            let sz = payload.wire_size();
            buf.put_u16_le(*tag);
            buf.put_u32_le(sz as u32);
            payload.encode(&mut buf);
            expect_len += FRAME_HEADER_BYTES + sz;
        }
        prop_assert_eq!(buf.len(), expect_len);

        let mut bytes: Bytes = buf.freeze();
        for (tag, payload) in &msgs {
            let got_tag = bytes.get_u16_le();
            let got_len = bytes.get_u32_le() as usize;
            prop_assert_eq!(got_tag, *tag);
            prop_assert_eq!(got_len, payload.wire_size());
            let before = bytes.len();
            let got = <Vec<u32> as Wire>::decode(&mut bytes);
            prop_assert_eq!(before - bytes.len(), got_len);
            prop_assert_eq!(&got, payload);
        }
        prop_assert!(bytes.is_empty());
    }
}

#[test]
fn unit_payload_is_zero_length_and_frames_to_header_only() {
    round_trip(&());
    assert_eq!(().wire_size(), 0);
    let mut buf = BytesMut::new();
    buf.put_u16_le((MAX_TAGS - 1) as u16);
    buf.put_u32_le(0);
    ().encode(&mut buf);
    assert_eq!(buf.len(), FRAME_HEADER_BYTES);
    let mut bytes = buf.freeze();
    assert_eq!(bytes.get_u16_le(), (MAX_TAGS - 1) as u16);
    assert_eq!(bytes.get_u32_le(), 0);
    assert!(bytes.is_empty());
}

#[test]
fn max_tag_value_survives_the_header() {
    // The header stores the tag as a little-endian u16; MAX_TAGS - 1 is the
    // largest tag the runtime will route. Also exercise u16::MAX to prove
    // the header field itself cannot truncate.
    for tag in [(MAX_TAGS - 1) as u16, u16::MAX] {
        let mut buf = BytesMut::new();
        buf.put_u16_le(tag);
        buf.put_u32_le(0);
        let mut bytes = buf.freeze();
        assert_eq!(bytes.get_u16_le(), tag);
    }
}

/// The per-element reference encoding of a `Vec<T>`: the `u32` count,
/// then each element's own [`Wire::encode`].
fn per_element<T: Wire>(items: &[T]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_u32_le(items.len() as u32);
    for item in items {
        item.encode(&mut buf);
    }
    buf.as_slice().to_vec()
}

/// Encode `items` as a `Vec<T>` (the bulk slice path for primitives),
/// check the bytes against the per-element reference and `wire_size`,
/// and return what decoding them gives back.
fn bulk_round_trip<T: Wire + Clone>(items: &[T]) -> Vec<T> {
    let v = items.to_vec();
    let enc = encode_to_bytes(&v);
    assert_eq!(enc.as_slice(), per_element(items).as_slice());
    assert_eq!(enc.len(), v.wire_size());
    decode_from_bytes(enc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Vec<prim>` encodes byte for byte like the element-by-element loop
    /// and decodes back exactly, for every primitive the codec bulk-copies,
    /// including empty vectors.
    #[test]
    fn bulk_vec_codec_matches_per_element_encoding(
        a in prop::collection::vec(any::<u8>(), 0..40),
        b in prop::collection::vec(any::<u16>(), 0..40),
        c in prop::collection::vec(any::<u32>(), 0..40),
        d in prop::collection::vec(any::<u64>(), 0..40),
        e in prop::collection::vec(any::<i32>(), 0..40),
        f in prop::collection::vec(any::<i64>(), 0..40),
    ) {
        prop_assert_eq!(bulk_round_trip(&a), a);
        prop_assert_eq!(bulk_round_trip(&b), b);
        prop_assert_eq!(bulk_round_trip(&c), c);
        prop_assert_eq!(bulk_round_trip(&d), d);
        prop_assert_eq!(bulk_round_trip(&e), e);
        prop_assert_eq!(bulk_round_trip(&f), f);
    }

    /// Float vectors from arbitrary bit patterns (NaN payloads, signed
    /// zeros, subnormals) encode like the per-element loop and decode back
    /// bit for bit.
    #[test]
    fn bulk_float_vecs_round_trip_bit_exactly(
        bits32 in prop::collection::vec(any::<u32>(), 0..40),
        bits64 in prop::collection::vec(any::<u64>(), 0..40),
    ) {
        let xs: Vec<f32> = bits32.iter().map(|&b| f32::from_bits(b)).collect();
        let back: Vec<u32> = bulk_round_trip(&xs).iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(back, bits32);
        let ys: Vec<f64> = bits64.iter().map(|&b| f64::from_bits(b)).collect();
        let back: Vec<u64> = bulk_round_trip(&ys).iter().map(|y| y.to_bits()).collect();
        prop_assert_eq!(back, bits64);
    }
}

#[test]
fn bulk_codec_covers_special_floats_and_empty_vectors() {
    let specials = [
        -0.0f32,
        0.0,
        f32::NAN,
        f32::from_bits(0x7FC0_1234), // quiet NaN with a payload
        f32::from_bits(0xFF80_0001), // signalling NaN, sign set
        f32::MIN_POSITIVE / 2.0,     // subnormal
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    let back = bulk_round_trip(&specials);
    assert_eq!(
        back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        specials.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
    let specials64 = [-0.0f64, f64::from_bits(0x7FF8_0000_0000_BEEF), f64::MIN];
    let back = bulk_round_trip(&specials64);
    assert_eq!(
        back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        specials64.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
    assert!(bulk_round_trip::<u8>(&[]).is_empty());
    assert!(bulk_round_trip::<f32>(&[]).is_empty());
    assert!(bulk_round_trip::<i64>(&[]).is_empty());
}

/// A frame one byte short must fail loudly on decode rather than read
/// past the payload into whatever follows it.
#[test]
fn truncated_bulk_frame_panics_on_decode() {
    let enc = encode_to_bytes(&vec![1.5f32, -2.25, 3.0]);
    let short = enc.slice(0..enc.len() - 1);
    let result = std::panic::catch_unwind(|| {
        let mut b = short.clone();
        <Vec<f32> as Wire>::decode(&mut b)
    });
    assert!(result.is_err(), "decoding a truncated Vec<f32> must panic");
    let enc = encode_to_bytes(&vec![7u8; 5]);
    let short = enc.slice(0..enc.len() - 1);
    let result = std::panic::catch_unwind(|| {
        let mut b = short.clone();
        <Vec<u8> as Wire>::decode(&mut b)
    });
    assert!(result.is_err(), "decoding a truncated Vec<u8> must panic");
}
