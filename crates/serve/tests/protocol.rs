//! Protocol robustness properties: the decoder is total.
//!
//! Arbitrary bytes, corrupted valid frames, truncations at every prefix,
//! and adversarially chunked streams must all map to either a decoded
//! frame or a typed [`ProtoError`] — never a panic, a hang, or an
//! unbounded allocation.

use std::io;

use proptest::prelude::*;

use oaq_engine::{Measure, QuerySpec, Scheme, TenantId};
use oaq_serve::proto::{
    append_frame, decode_frame, encode_error, encode_request, encode_request_into, encode_response,
    read_frame, ErrorCode, ErrorFrame, Frame, FrameBuffer, ProtoError, Request, MAX_FRAME,
};

fn request_strategy() -> impl Strategy<Value = Request> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        prop::collection::vec(any::<u64>(), 8),
        prop::collection::vec(any::<u32>(), 4),
    )
        .prop_map(
            |(req_id, tenant, eta, deadline_bits, params, measure)| Request {
                req_id,
                tenant,
                eta,
                deadline_bits,
                param_bits: params.try_into().unwrap(),
                measure: measure.try_into().unwrap(),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary payloads decode to a frame or a typed error — total, no
    /// panic.
    #[test]
    fn arbitrary_bytes_never_panic(payload in prop::collection::vec(any::<u8>(), 0..256)) {
        match decode_frame(&payload) {
            Ok(_) | Err(_) => {}
        }
    }

    /// Every wire request round-trips exactly, even with hostile bit
    /// patterns in every field (semantic validation is a later layer).
    #[test]
    fn requests_round_trip(req in request_strategy()) {
        let bytes = encode_request(&req);
        prop_assert!(bytes.len() <= MAX_FRAME);
        let back = decode_frame(&bytes);
        prop_assert_eq!(back, Ok(Frame::Request(req)));
    }

    /// Truncating a valid frame at any point yields a typed error.
    #[test]
    fn truncations_are_typed(req in request_strategy(), cut_seed in any::<u64>()) {
        let bytes = encode_request(&req);
        #[allow(clippy::cast_possible_truncation)]
        let cut = (cut_seed % bytes.len() as u64) as usize;
        let r = decode_frame(&bytes[..cut]);
        prop_assert!(
            matches!(r, Err(ProtoError::Truncated { .. } | ProtoError::BadMagic(_))),
            "cut {} of {}: {:?}", cut, bytes.len(), r
        );
    }

    /// Flipping any single byte of a valid request yields either a valid
    /// frame (payload bits are opaque) or a typed error — never a panic.
    #[test]
    fn single_byte_corruption_is_typed(
        req in request_strategy(),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_request(&req);
        #[allow(clippy::cast_possible_truncation)]
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        match decode_frame(&bytes) {
            Ok(_) | Err(_) => {}
        }
    }

    /// A frame stream chopped into arbitrary chunk sizes reassembles into
    /// exactly the frames that were written, in order.
    #[test]
    fn chunked_streams_reassemble(
        reqs in prop::collection::vec(request_strategy(), 1..8),
        chunk_seed in any::<u64>(),
    ) {
        let mut wire = Vec::new();
        for r in &reqs {
            append_frame(&mut wire, |out| encode_request_into(out, r));
        }
        let mut fb = FrameBuffer::new();
        let mut decoded = Vec::new();
        let mut pos = 0usize;
        let mut seed = chunk_seed;
        while pos < wire.len() {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            #[allow(clippy::cast_possible_truncation)]
            let step = ((seed >> 33) as usize % 37) + 1;
            let end = (pos + step).min(wire.len());
            fb.push(&wire[pos..end]);
            pos = end;
            while let Some(p) = fb.next_frame().unwrap() {
                decoded.push(p.to_vec());
            }
        }
        prop_assert_eq!(decoded.len(), reqs.len());
        for (payload, want) in decoded.iter().zip(&reqs) {
            prop_assert_eq!(decode_frame(payload), Ok(Frame::Request(*want)));
        }
        prop_assert_eq!(fb.buffered(), 0);
    }

    /// The same wire fed to a `FrameBuffer` at arbitrary split points
    /// yields exactly the payloads `read_frame` reads from it whole —
    /// including frames that straddle a push and so survive compaction.
    #[test]
    fn frame_buffer_agrees_with_read_frame(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..12),
        cuts in prop::collection::vec(any::<u16>(), 0..16),
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            append_frame(&mut wire, |out| out.extend_from_slice(p));
        }
        let mut whole = io::Cursor::new(&wire);
        let mut want = Vec::new();
        while let Some(p) = read_frame(&mut whole).unwrap() {
            want.push(p);
        }
        let mut splits: Vec<usize> = cuts
            .iter()
            .map(|&c| usize::from(c) % (wire.len() + 1))
            .chain([wire.len()])
            .collect();
        splits.sort_unstable();
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        let mut from = 0;
        for to in splits {
            fb.push(&wire[from..to]);
            from = to;
            while let Some(p) = fb.next_frame().unwrap() {
                got.push(p.to_vec());
            }
        }
        prop_assert_eq!(&want, &payloads);
        prop_assert_eq!(got, want);
        prop_assert_eq!(fb.buffered(), 0);
    }

    /// Hostile measure words survive the wire structurally and then fail
    /// *semantically*, as `to_spec() == None` — the server's typed
    /// `Malformed` path, never a panic.
    #[test]
    fn hostile_measures_fail_semantically_not_structurally(
        measure in prop::collection::vec(any::<u32>(), 4),
    ) {
        let q = QuerySpec::paper_defaults(
            5e-5,
            Measure::QosAtLeast { scheme: Scheme::Oaq, y: 2 },
        )
        .build()
        .unwrap();
        let mut req = Request::from_query(1, &q.for_tenant(TenantId(3)));
        req.measure = measure.try_into().unwrap();
        let bytes = encode_request(&req);
        let Ok(Frame::Request(back)) = decode_frame(&bytes) else {
            return Err(TestCaseError::fail("structural decode must succeed"));
        };
        let decoded = Measure::decode(back.measure);
        prop_assert_eq!(back.to_spec().is_some(), decoded.is_some());
    }
}

/// Deterministic (non-property) coverage of the response and error kinds.
#[test]
fn response_and_error_payloads_round_trip() {
    let scalar = encode_response(7, &oaq_engine::QosValue::Scalar(0.25));
    assert!(matches!(decode_frame(&scalar), Ok(Frame::Response(_))));
    let err = encode_error(&ErrorFrame {
        req_id: 7,
        code: ErrorCode::Overloaded,
        aux0: 0,
        aux1: 0,
    });
    assert!(matches!(decode_frame(&err), Ok(Frame::Error(_))));
}
