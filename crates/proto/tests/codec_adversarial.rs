//! Adversarial codec tests: exhaustive tag coverage, the unknown-tag
//! boundary, byte-by-byte truncation of the technique-transition frames
//! (tags 10–14), absurd length prefixes, and the batch envelope's
//! nesting/recursion bounds (tag 15), golden frames, and flag bytes
//! outside 0/1. Complements the proptest suite with deterministic,
//! boundary-targeted cases. The tag numbers here are written out by hand
//! on purpose: they are the reference the generated table is held to.

use bytes::{Bytes, BytesMut};

use lapse_net::codec::{CodecError, WireCodec};
use lapse_net::{Key, NodeId, ValueBlock, WireSize};
use lapse_proto::messages::{
    HandOverMsg, LocalizeReqMsg, Msg, OpId, OpKind, OpMsg, OpRespMsg, RelocateMsg, ReplicaPushMsg,
    ReplicaRefreshMsg, ReplicaRegMsg, TechniqueDemoteAckMsg, TechniqueDemoteMsg,
    TechniqueDrainedMsg, TechniquePromoteAckMsg, TechniquePromoteMsg,
};

/// One sample per variant, ordered by wire tag (1..=15).
fn samples_by_tag() -> Vec<(u8, Msg)> {
    vec![
        (
            1,
            Msg::Op(OpMsg {
                op: OpId::new(NodeId(1), 42),
                kind: OpKind::Push,
                keys: vec![Key(3), Key(9)],
                vals: vec![1.0, -2.0],
                routed_by_home: true,
            }),
        ),
        (
            2,
            Msg::OpResp(OpRespMsg {
                op: OpId::new(NodeId(0), 1),
                kind: OpKind::Pull,
                keys: vec![Key(5)],
                vals: ValueBlock::from_f32s(&[0.25, 0.5]),
                owner: NodeId(3),
            }),
        ),
        (
            3,
            Msg::LocalizeReq(LocalizeReqMsg {
                op: OpId::new(NodeId(1), 8),
                keys: vec![Key(0), Key(1)],
            }),
        ),
        (
            4,
            Msg::Relocate(RelocateMsg {
                op: OpId::new(NodeId(1), 8),
                keys: vec![Key(0)],
                new_owner: NodeId(1),
            }),
        ),
        (
            5,
            Msg::HandOver(HandOverMsg {
                op: OpId::new(NodeId(1), 8),
                keys: vec![Key(0)],
                vals: ValueBlock::from_f32s(&[9.0]),
            }),
        ),
        (6, Msg::Shutdown),
        (7, Msg::ReplicaReg(ReplicaRegMsg { node: NodeId(2) })),
        (
            8,
            Msg::ReplicaPush(ReplicaPushMsg {
                node: NodeId(2),
                flush_seq: 4,
                keys: vec![Key(1), Key(2)],
                vals: vec![0.5, -1.5],
            }),
        ),
        (
            9,
            Msg::ReplicaRefresh(ReplicaRefreshMsg {
                owner: NodeId(0),
                round: 9,
                ack: 4,
                keys: vec![Key(1)],
                vals: ValueBlock::from_f32s(&[2.25]),
            }),
        ),
        (
            10,
            Msg::TechniquePromote(TechniquePromoteMsg {
                node: NodeId(3),
                keys: vec![Key(7), Key(8)],
            }),
        ),
        (
            11,
            Msg::TechniquePromoteAck(TechniquePromoteAckMsg {
                home: NodeId(0),
                epoch: 3,
                keys: vec![Key(7)],
                vals: ValueBlock::from_f32s(&[1.5, -0.5]),
            }),
        ),
        (
            12,
            Msg::TechniqueDemote(TechniqueDemoteMsg {
                node: NodeId(1),
                keys: vec![Key(7)],
            }),
        ),
        (
            13,
            Msg::TechniqueDemoteAck(TechniqueDemoteAckMsg {
                home: NodeId(0),
                epoch: 4,
                keys: vec![Key(7)],
            }),
        ),
        (
            14,
            Msg::TechniqueDrained(TechniqueDrainedMsg {
                node: NodeId(2),
                epoch: 4,
                keys: vec![Key(7)],
                vals: vec![0.75, 0.25],
            }),
        ),
        (
            15,
            Msg::Batch(vec![
                Msg::Op(OpMsg {
                    op: OpId::new(NodeId(0), 7),
                    kind: OpKind::Pull,
                    keys: vec![Key(11)],
                    vals: vec![],
                    routed_by_home: false,
                }),
                Msg::Shutdown,
                Msg::OpResp(OpRespMsg {
                    op: OpId::new(NodeId(2), 3),
                    kind: OpKind::Push,
                    keys: vec![Key(4), Key(6)],
                    vals: ValueBlock::default(),
                    owner: NodeId(1),
                }),
            ]),
        ),
    ]
}

fn encode(msg: &Msg) -> Bytes {
    let mut buf = BytesMut::new();
    msg.encode(&mut buf);
    buf.freeze()
}

#[test]
fn every_tag_round_trips_with_its_tag_byte() {
    let samples = samples_by_tag();
    // The sample list itself must be exhaustive over the tag space.
    let tags: Vec<u8> = samples.iter().map(|(t, _)| *t).collect();
    assert_eq!(tags, (1..=15).collect::<Vec<u8>>());

    for (tag, msg) in &samples {
        let bytes = encode(msg);
        assert_eq!(bytes[0], *tag, "first byte of {} is the tag", msg.label());
        assert_eq!(
            bytes.len(),
            msg.wire_bytes(),
            "wire_bytes for {}",
            msg.label()
        );
        let mut rest = bytes.clone();
        let back = Msg::decode(&mut rest).expect("decode");
        assert_eq!(&back, msg);
        assert_eq!(rest.len(), 0, "decode consumed the frame exactly");
    }
}

/// The encoding of each `samples_by_tag()` frame as the hand-written
/// encoder of commit `913c885` produced it: the generated codec is held
/// to those bytes, not just to its own decoder.
#[test]
fn encoded_bytes_match_the_golden_frames() {
    let golden: [(u8, &str); 15] = [
        (1, "0101002a0000000000000001010200000003000000000000000900000000000000020000000000803f000000c0"),
        (2, "020000010000000000000000010000000500000000000000020000000000803e0000003f0300"),
        (3, "03010008000000000000000200000000000000000000000100000000000000"),
        (4, "04010008000000000000000100000000000000000000000100"),
        (5, "05010008000000000000000100000000000000000000000100000000001041"),
        (6, "06"),
        (7, "070200"),
        (8, "08020004000000000000000200000001000000000000000200000000000000020000000000003f0000c0bf"),
        (9, "090000090000000000000004000000000000000100000001000000000000000100000000001040"),
        (10, "0a03000200000007000000000000000800000000000000"),
        (11, "0b00000300000000000000010000000700000000000000020000000000c03f000000bf"),
        (12, "0c0100010000000700000000000000"),
        (13, "0d00000400000000000000010000000700000000000000"),
        (14, "0e02000400000000000000010000000700000000000000020000000000403f0000803e"),
        (15, "0f0300000001000007000000000000000000010000000b0000000000000000000000060202000300000000000000010200000004000000000000000600000000000000000000000100"),
    ];
    for ((tag, msg), (golden_tag, hex)) in samples_by_tag().iter().zip(golden) {
        assert_eq!(*tag, golden_tag);
        let got: String = encode(msg).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(got, hex, "tag {tag} ({})", msg.label());
    }
}

/// Overwrites byte `at` of `msg`'s frame with 2 and with 255 and expects
/// the decoder to refuse each.
fn assert_flag_byte_is_strict(msg: &Msg, at: usize) {
    for bad in [2u8, 255] {
        let mut frame = encode(msg).to_vec();
        assert!(frame[at] <= 1, "byte {at} of {} is a flag", msg.label());
        frame[at] = bad;
        match Msg::decode(&mut Bytes::from(frame)) {
            Err(CodecError::InvalidValue(b)) => assert_eq!(b, bad),
            other => panic!("{}: byte {bad} at {at} gave {other:?}", msg.label()),
        }
    }
}

#[test]
fn op_kind_and_home_routed_bytes_are_zero_or_one() {
    // Tag 1: tag, op id (2 + 8), kind, routed_by_home, …
    let (_, op) = &samples_by_tag()[0];
    assert_flag_byte_is_strict(op, 11);
    assert_flag_byte_is_strict(op, 12);
}

#[test]
fn resp_kind_byte_is_zero_or_one() {
    // Tag 2: tag, op id (2 + 8), kind, …
    let (_, resp) = &samples_by_tag()[1];
    assert_flag_byte_is_strict(resp, 11);
}

#[test]
fn unknown_tag_at_both_boundaries() {
    // Tag 0 (below the dense range) and 16 (max assigned + 1): both must
    // fail with UnknownTag, not EOF or garbage decoding.
    for bad in [0u8, 16, 17, 0xFF] {
        let mut bytes = Bytes::from(vec![bad, 0, 0, 0, 0, 0, 0, 0]);
        match Msg::decode(&mut bytes) {
            Err(CodecError::UnknownTag(t)) => assert_eq!(t, bad),
            other => panic!("tag {bad}: expected UnknownTag, got {other:?}"),
        }
    }
}

#[test]
fn empty_input_is_eof() {
    let mut bytes = Bytes::new();
    assert!(matches!(
        Msg::decode(&mut bytes),
        Err(CodecError::UnexpectedEof)
    ));
}

#[test]
fn truncated_technique_frames_error_at_every_cut() {
    // Tags 10..=14 are the adaptive-management arms; cut each encoded
    // frame at every byte boundary and require a clean error (never a
    // panic, never a bogus success).
    for (tag, msg) in samples_by_tag() {
        if !(10..=14).contains(&tag) {
            continue;
        }
        let full = encode(&msg);
        for cut in 0..full.len() {
            let mut prefix = full.slice(0..cut);
            match Msg::decode(&mut prefix) {
                Err(_) => {}
                Ok(got) => panic!(
                    "tag {tag}: {}-byte prefix of a {}-byte frame decoded as {}",
                    cut,
                    full.len(),
                    got.label()
                ),
            }
        }
    }
}

#[test]
fn truncated_frames_never_succeed_for_any_tag() {
    // The same guarantee for the whole tag space, at the frame level.
    for (_, msg) in samples_by_tag() {
        let full = encode(&msg);
        for cut in 0..full.len() {
            let mut prefix = full.slice(0..cut);
            assert!(
                Msg::decode(&mut prefix).is_err(),
                "{}: truncated frame decoded successfully",
                msg.label()
            );
        }
    }
}

#[test]
fn absurd_key_count_is_length_out_of_range() {
    // TechniquePromote: tag, node (u16 LE), then the key-list length as
    // u32 LE. A length of u32::MAX (> MAX_LEN = 1 << 30) must be rejected
    // by range check, not by attempting a 32 GiB allocation.
    let frame = vec![10u8, 3, 0, 0xFF, 0xFF, 0xFF, 0xFF];
    let mut bytes = Bytes::from(frame);
    match Msg::decode(&mut bytes) {
        Err(CodecError::LengthOutOfRange(n)) => assert_eq!(n, u32::MAX as u64),
        other => panic!("expected LengthOutOfRange, got {other:?}"),
    }

    // Same probe through the drained path (tag 14: node, epoch u64, keys).
    let mut frame = vec![14u8, 2, 0];
    frame.extend_from_slice(&4u64.to_le_bytes());
    frame.extend_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
    let mut bytes = Bytes::from(frame);
    assert!(matches!(
        Msg::decode(&mut bytes),
        Err(CodecError::LengthOutOfRange(_))
    ));
}

#[test]
fn plausible_length_with_missing_payload_is_eof() {
    // A key count that passes the range check but exceeds the remaining
    // bytes must be EOF — the boundary between the two error classes.
    let mut frame = vec![12u8, 1, 0]; // TechniqueDemote { node: 1, .. }
    frame.extend_from_slice(&2u32.to_le_bytes()); // claims 2 keys
    frame.extend_from_slice(&7u64.to_le_bytes()); // provides only 1
    let mut bytes = Bytes::from(frame);
    assert!(matches!(
        Msg::decode(&mut bytes),
        Err(CodecError::UnexpectedEof)
    ));
}

#[test]
fn empty_batch_round_trips() {
    // An empty envelope is wasteful but well-formed: 1 tag byte + u32
    // zero count.
    let msg = Msg::Batch(vec![]);
    let bytes = encode(&msg);
    assert_eq!(bytes.len(), 5);
    assert_eq!(msg.wire_bytes(), 5);
    let mut rest = bytes;
    assert_eq!(Msg::decode(&mut rest).expect("decode"), msg);
    assert_eq!(rest.len(), 0);
}

#[test]
fn nested_batch_is_rejected_without_recursing() {
    // Tag 15 inside a batch: [15, count=1, 15, ...]. The decoder must
    // refuse before recursing into the inner envelope.
    let mut frame = vec![15u8];
    frame.extend_from_slice(&1u32.to_le_bytes());
    frame.push(15);
    frame.extend_from_slice(&0u32.to_le_bytes());
    let mut bytes = Bytes::from(frame);
    assert!(matches!(
        Msg::decode(&mut bytes),
        Err(CodecError::NestedBatch)
    ));
}

#[test]
#[should_panic(expected = "batch envelopes must not nest")]
fn encoding_a_nested_batch_panics() {
    // The encoder's side of the refusal above, in every profile.
    encode(&Msg::Batch(vec![Msg::Batch(vec![])]));
}

#[test]
fn deep_nesting_bomb_does_not_overflow_the_stack() {
    // 10k levels of [15, count=1, ...]: the nesting check turns what
    // would be unbounded recursion into an error at depth one.
    let mut frame = Vec::new();
    for _ in 0..10_000 {
        frame.push(15u8);
        frame.extend_from_slice(&1u32.to_le_bytes());
    }
    let mut bytes = Bytes::from(frame);
    assert!(matches!(
        Msg::decode(&mut bytes),
        Err(CodecError::NestedBatch)
    ));
}

#[test]
fn absurd_batch_count_is_length_out_of_range() {
    // Inner count of u32::MAX (> MAX_LEN = 1 << 30) must be rejected by
    // range check, not by a 4-billion-element reservation.
    let mut frame = vec![15u8];
    frame.extend_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
    let mut bytes = Bytes::from(frame);
    match Msg::decode(&mut bytes) {
        Err(CodecError::LengthOutOfRange(n)) => assert_eq!(n, u32::MAX as u64),
        other => panic!("expected LengthOutOfRange, got {other:?}"),
    }
}

#[test]
fn plausible_batch_count_with_missing_constituents_is_eof() {
    // A count that passes the range check but exceeds the remaining
    // bytes must be EOF, and truncating a constituent mid-frame must
    // never succeed (covered byte-by-byte by
    // `truncated_frames_never_succeed_for_any_tag` via the tag-15
    // sample).
    let mut frame = vec![15u8];
    frame.extend_from_slice(&3u32.to_le_bytes()); // claims 3 constituents
    frame.push(6); // provides only one (Shutdown)
    let mut bytes = Bytes::from(frame);
    assert!(matches!(
        Msg::decode(&mut bytes),
        Err(CodecError::UnexpectedEof)
    ));
}
