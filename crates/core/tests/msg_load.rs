//! The simulator's cost inputs per message. `LapseProto::msg_load`
//! returns the generated `Msg::load()`; the expected counts here are
//! written out by hand, so the virtual-time tables cannot move with an
//! edit to the message table.

use lapse_core::sim_backend::LapseProto;
use lapse_net::{Key, NodeId, ValueBlock};
use lapse_proto::messages::*;
use lapse_sim::SimProtocol;

/// One message per wire tag, each with distinct key and float counts: a
/// field dropped from (or double-counted in) a table row moves a number
/// here.
#[test]
fn msg_load_is_keys_and_floats_for_every_tag() {
    let op = OpId::new(NodeId(1), 7);
    let node = NodeId(2);
    let keys = |n: u64| (0..n).map(Key).collect::<Vec<_>>();
    let vals = |n: usize| vec![0.5f32; n];
    let block = |n: usize| ValueBlock::from_f32s(&vals(n));
    let (kind, routed_by_home) = (OpKind::Push, true);
    #[rustfmt::skip]
    let singles = vec![
        (Msg::Op(OpMsg { op, kind, keys: keys(2), vals: vals(6), routed_by_home }), (2, 6)),
        (Msg::OpResp(OpRespMsg { op, kind, keys: keys(3), vals: block(9), owner: node }), (3, 9)),
        (Msg::LocalizeReq(LocalizeReqMsg { op, keys: keys(4) }), (4, 0)),
        (Msg::Relocate(RelocateMsg { op, keys: keys(5), new_owner: node }), (5, 0)),
        (Msg::HandOver(HandOverMsg { op, keys: keys(6), vals: block(12) }), (6, 12)),
        (Msg::Shutdown, (0, 0)),
        (Msg::ReplicaReg(ReplicaRegMsg { node }), (0, 0)),
        (Msg::ReplicaPush(ReplicaPushMsg { node, flush_seq: 1, keys: keys(7), vals: vals(14) }), (7, 14)),
        (Msg::ReplicaRefresh(ReplicaRefreshMsg { owner: node, round: 1, ack: 1, keys: keys(8), vals: block(16) }), (8, 16)),
        (Msg::TechniquePromote(TechniquePromoteMsg { node, keys: keys(9) }), (9, 0)),
        (Msg::TechniquePromoteAck(TechniquePromoteAckMsg { home: node, epoch: 1, keys: keys(10), vals: block(20) }), (10, 20)),
        (Msg::TechniqueDemote(TechniqueDemoteMsg { node, keys: keys(11) }), (11, 0)),
        (Msg::TechniqueDemoteAck(TechniqueDemoteAckMsg { home: node, epoch: 1, keys: keys(12) }), (12, 0)),
        (Msg::TechniqueDrained(TechniqueDrainedMsg { node, epoch: 1, keys: keys(13), vals: vals(26) }), (13, 26)),
    ];
    let mut tags = vec![15];
    for (msg, load) in &singles {
        assert_eq!(LapseProto::msg_load(msg), *load, "{}", msg.label());
        tags.push(msg.tag());
    }
    tags.sort_unstable();
    assert_eq!(tags, (1..=15).collect::<Vec<u8>>(), "one message per tag");

    // Tag 15: a batch carries the sum of its constituents.
    let (msgs, loads): (Vec<Msg>, Vec<(u64, u64)>) = singles.into_iter().unzip();
    let sum = loads.iter().fold((0, 0), |a, l| (a.0 + l.0, a.1 + l.1));
    assert_eq!(LapseProto::msg_load(&Msg::Batch(msgs)), sum);
}
