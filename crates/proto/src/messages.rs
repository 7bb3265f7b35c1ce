//! The wire protocol.
//!
//! Fifteen message kinds implement the full protocol of Section 3, the
//! NuPS-style replication technique, and the adaptive technique-transition
//! protocol:
//!
//! * [`OpMsg`] — a grouped pull or push request travelling from a client
//!   to the home node (forward strategy), from the home node to the owner
//!   (`routed_by_home`), or directly to a cached owner (location caches).
//! * [`OpRespMsg`] — per-key responses from the answering owner back to
//!   the origin; carries the owner id so clients can update location
//!   caches without extra messages.
//! * [`LocalizeReqMsg`] — message 1 of the relocation protocol (Figure 4):
//!   requester → home.
//! * [`RelocateMsg`] — message 2: home → old owner ("instruct
//!   relocation").
//! * [`HandOverMsg`] — message 3: old owner → new owner, carrying the
//!   parameter values.
//! * [`ReplicaRegMsg`] — replica-sync 1: a node subscribes to refreshes
//!   of the replicated keys homed at the destination; the owner answers
//!   with an initial-snapshot [`ReplicaRefreshMsg`].
//! * [`ReplicaPushMsg`] — replica-sync 2: accumulated update terms from a
//!   replica holder to the owner (applied exactly once).
//! * [`ReplicaRefreshMsg`] — replica-sync 3: fresh values broadcast from
//!   the owner to every subscribed replica holder, acknowledging the
//!   receiver's propagated flushes up to `ack`.
//! * [`TechniquePromoteMsg`] / [`TechniqueDemoteMsg`] — adaptive
//!   management: a node's controller asks the home node to switch a hot
//!   relocated key to replication / votes to switch a cooled replicated
//!   key back to relocation.
//! * [`TechniquePromoteAckMsg`] / [`TechniqueDemoteAckMsg`] — the home
//!   node's epoch-fenced transition broadcasts: "these keys are now
//!   replicated (here are the authoritative values)" / "these keys are
//!   relocation-managed again".
//! * [`TechniqueDrainedMsg`] — demotion drain confirmation: a node's last
//!   accumulated deltas for a demoted batch, closing the transition at
//!   the home node.
//! * [`Msg::Shutdown`] — terminates a server loop (threaded backend only).
//! * [`Msg::Batch`] — a coalescing envelope: several messages bound for
//!   the same link, sent as one. Pure framing — receivers unpack and
//!   handle the constituents in order, so per-link FIFO is preserved —
//!   and strictly one level deep: a batch inside a batch is rejected at
//!   decode (guarding both protocol sanity and decode stack depth).
//!
//! [`Msg`] implements [`WireSize`] (used by the simulator's bandwidth
//! accounting) and [`WireCodec`] (the actual byte encoding). Both, and
//! the tags, labels and loads, expand from the one `wire_messages!`
//! table below the message structs, so a message's size, encoder and
//! decoder are the same field list; tests still assert that they agree.
//!
//! The value-carrying messages ([`OpRespMsg`], [`HandOverMsg`],
//! [`ReplicaRefreshMsg`]) move their concatenated per-key values as one
//! [`ValueBlock`]: byte-identical on the wire to the length-prefixed
//! `f32` list it replaced (so wire sizes are unchanged), zero-copy to
//! decode, and refcounted to broadcast.

use bytes::{Bytes, BytesMut};

use lapse_net::codec::{
    get_u32, get_u8, put_u32, put_u8, CodecError, WireCodec, WireField, MAX_LEN,
};
use lapse_net::{Key, NodeId, ValueBlock, WireSize};

/// Identifies one client operation. Unique per origin node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpId {
    /// Node whose worker issued the operation (responses return here).
    pub node: NodeId,
    /// Sequence number within that node.
    pub seq: u64,
}

impl OpId {
    /// Creates an op id.
    pub fn new(node: NodeId, seq: u64) -> Self {
        OpId { node, seq }
    }
}

/// Operation kind carried by [`OpMsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Read parameter values.
    Pull,
    /// Add update terms to parameter values (cumulative, Section 2.1).
    Push,
}

/// A grouped pull/push request.
#[derive(Debug, Clone, PartialEq)]
pub struct OpMsg {
    /// Operation identity; `op.node` is the origin the response goes to.
    pub op: OpId,
    /// Pull or push.
    pub kind: OpKind,
    /// Keys addressed by this message (grouped per destination).
    pub keys: Vec<Key>,
    /// For pushes: concatenated update vectors, in `keys` order. Empty for
    /// pulls.
    pub vals: Vec<f32>,
    /// True once the key's home node has routed this message to the owner.
    /// A receiver that cannot serve a key of a home-routed message knows a
    /// protocol invariant broke (it should own the key or expect it);
    /// a receiver of a *direct* message (location cache) that cannot serve
    /// simply double-forwards to the home node.
    pub routed_by_home: bool,
}

/// Per-key responses from the answering owner to the origin node.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRespMsg {
    /// The operation being answered (possibly partially).
    pub op: OpId,
    /// Kind of the answered operation.
    pub kind: OpKind,
    /// Keys answered by this message.
    pub keys: Vec<Key>,
    /// For pulls: concatenated values in `keys` order (one contiguous
    /// block, decoded without copying). Empty for pushes.
    pub vals: ValueBlock,
    /// The node that answered — the key's owner at answer time. Clients
    /// use it to refresh location caches (Section 3.3: caches are updated
    /// only by piggybacking on existing messages).
    pub owner: NodeId,
}

/// Relocation message 1: a worker requests local allocation of keys.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizeReqMsg {
    /// The localize operation; `op.node` is the requester (and future
    /// owner).
    pub op: OpId,
    /// Keys to relocate, all homed at the destination node.
    pub keys: Vec<Key>,
}

/// Relocation message 2: the home node instructs the old owner to stop
/// serving and hand the parameters over.
#[derive(Debug, Clone, PartialEq)]
pub struct RelocateMsg {
    /// The localize operation that triggered the relocation.
    pub op: OpId,
    /// Keys to hand over (grouped per old owner).
    pub keys: Vec<Key>,
    /// The requester — destination of the ensuing [`HandOverMsg`].
    pub new_owner: NodeId,
}

/// Relocation message 3: the old owner transfers the parameter values to
/// the new owner.
#[derive(Debug, Clone, PartialEq)]
pub struct HandOverMsg {
    /// The localize operation being fulfilled.
    pub op: OpId,
    /// Relocated keys.
    pub keys: Vec<Key>,
    /// Concatenated parameter values in `keys` order (one contiguous
    /// block; the new owner installs slices of it straight into the
    /// keys' store slots).
    pub vals: ValueBlock,
}

/// Replica-sync message 1: a node subscribes to refreshes of the
/// replicated keys homed at the destination node. The owner answers with
/// an initial-snapshot [`ReplicaRefreshMsg`] carrying the current values.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaRegMsg {
    /// The subscribing node (destination of future refreshes).
    pub node: NodeId,
}

/// Replica-sync message 2: update terms a replica holder accumulated
/// locally since its last flush, propagated to the owner. Each message is
/// applied to the owned values exactly once.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaPushMsg {
    /// The propagating node.
    pub node: NodeId,
    /// The sender's flush sequence number; the owner echoes it back in
    /// the `ack` field of the refresh it sends the sender, which then
    /// retires exactly this in-flight batch.
    pub flush_seq: u64,
    /// Keys with accumulated updates, all homed at the destination.
    pub keys: Vec<Key>,
    /// Concatenated update terms in `keys` order.
    pub vals: Vec<f32>,
}

/// Replica-sync message 3: fresh values from the owner to one subscribed
/// replica holder — the propagation step closing a replication round.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaRefreshMsg {
    /// The sending owner (all `keys` are homed there).
    pub owner: NodeId,
    /// The owner's propagation-round counter (strictly increasing per
    /// owner; per-link FIFO makes it strictly increasing per receiver).
    pub round: u64,
    /// The receiver's `flush_seq` this refresh answers (its deltas are
    /// included in `vals`); 0 if the refresh answers no flush of the
    /// receiver. The receiver retires exactly that in-flight batch.
    pub ack: u64,
    /// Refreshed keys.
    pub keys: Vec<Key>,
    /// Concatenated current values in `keys` order. A block, so the
    /// owner's broadcast to many subscribers shares one buffer.
    pub vals: ValueBlock,
}

/// Technique-transition message 1 (adaptive management): a node's
/// controller detected a hot relocated key and asks the home node to
/// promote it to replication. The home node coordinates the transition;
/// duplicate or stale requests are ignored.
#[derive(Debug, Clone, PartialEq)]
pub struct TechniquePromoteMsg {
    /// The requesting node.
    pub node: NodeId,
    /// Keys to promote, all homed at the destination node.
    pub keys: Vec<Key>,
}

/// Technique-transition message 2: the home node's promotion broadcast,
/// sent to every other node once the key's value has been relocated back
/// home. Carries the authoritative values so receivers can install their
/// replicas; `epoch` fences transitions (strictly increasing per home).
#[derive(Debug, Clone, PartialEq)]
pub struct TechniquePromoteAckMsg {
    /// The coordinating home node (all `keys` are homed there).
    pub home: NodeId,
    /// The home's transition epoch (strictly increasing per home; fencing
    /// witness — per-link FIFO makes it strictly increasing per receiver).
    pub epoch: u64,
    /// Promoted keys.
    pub keys: Vec<Key>,
    /// Concatenated authoritative values in `keys` order (one refcounted
    /// block shared by the whole broadcast).
    pub vals: ValueBlock,
}

/// Technique-transition message 3: a node's controller votes to demote a
/// cooled replicated key back to relocation. The home node demotes once
/// every node has voted (any promotion request clears the votes).
#[derive(Debug, Clone, PartialEq)]
pub struct TechniqueDemoteMsg {
    /// The voting node.
    pub node: NodeId,
    /// Cooled keys, all homed at the destination node.
    pub keys: Vec<Key>,
}

/// Technique-transition message 4: the home node's demotion broadcast.
/// Receivers drop their replicas and answer with a [`TechniqueDrainedMsg`]
/// carrying their final accumulated deltas; the home node keeps the keys
/// pinned (no relocation) until every node has drained.
#[derive(Debug, Clone, PartialEq)]
pub struct TechniqueDemoteAckMsg {
    /// The coordinating home node.
    pub home: NodeId,
    /// The home's transition epoch (see [`TechniquePromoteAckMsg`]).
    pub epoch: u64,
    /// Demoted keys.
    pub keys: Vec<Key>,
}

/// Technique-transition message 5: a node's drain confirmation for one
/// demotion epoch — the deltas it had accumulated for the demoted keys
/// when the [`TechniqueDemoteAckMsg`] arrived (possibly none). The home
/// node applies them and, once every node has confirmed, re-enables
/// relocation for the batch.
#[derive(Debug, Clone, PartialEq)]
pub struct TechniqueDrainedMsg {
    /// The confirming node.
    pub node: NodeId,
    /// The demotion epoch being confirmed.
    pub epoch: u64,
    /// Keys with final deltas (a subset of the epoch's demoted keys).
    pub keys: Vec<Key>,
    /// Concatenated final update terms in `keys` order.
    pub vals: Vec<f32>,
}

/// Implements [`WireField`] for a struct from its field list **in wire
/// order**: the length is the sum of the fields', the encoder writes them
/// in that order, the decoder reads them in that order (a struct literal
/// evaluates its fields as written), the load is the sum of theirs.
macro_rules! wire_fields {
    ($ty:ident { $($field:ident),* }) => {
        impl WireField for $ty {
            #[inline]
            fn wire_len(&self) -> usize {
                0 $(+ self.$field.wire_len())*
            }
            #[inline]
            fn put(&self, buf: &mut BytesMut) {
                $(self.$field.put(buf);)*
            }
            #[inline]
            fn get(buf: &mut Bytes) -> Result<Self, CodecError> {
                Ok($ty { $($field: WireField::get(buf)?),* })
            }
            #[inline]
            fn load(&self) -> (u64, u64) {
                let mut load = (0, 0);
                $(
                    let (keys, floats) = self.$field.load();
                    load.0 += keys;
                    load.1 += floats;
                )*
                load
            }
        }
    };
}

wire_fields!(OpId { node, seq });

/// One byte: 0 pull, 1 push.
impl WireField for OpKind {
    #[inline]
    fn wire_len(&self) -> usize {
        1
    }
    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        matches!(self, OpKind::Push).put(buf);
    }
    #[inline]
    fn get(buf: &mut Bytes) -> Result<Self, CodecError> {
        Ok(if bool::get(buf)? {
            OpKind::Push
        } else {
            OpKind::Pull
        })
    }
}

/// The wire protocol, declared once. A row is `tag Variant(binding:
/// Struct) => label, { fields in wire order }`; the label expression may
/// read the message through the row's binding. The table expands to
/// [`Msg`], its tag, label and load, and its [`WireSize`] and
/// [`WireCodec`] impls, so nothing about a message is written twice.
/// `Shutdown` (no payload) and `Batch` (a counted list of messages, one
/// level deep) have no struct; the macro writes their codec by hand.
macro_rules! wire_messages {
    (
        $(
            $(#[$doc:meta])*
            $tag:literal $variant:ident($m:tt: $ty:ident) => $label:expr, { $($field:ident),* };
        )*
        unit:
        $(#[$unit_doc:meta])*
        $unit_tag:literal Shutdown => $unit_label:literal;
        batch:
        $(#[$batch_doc:meta])*
        $batch_tag:literal Batch(Vec<Msg>) => $batch_label:literal;
    ) => {
        $(wire_fields!($ty { $($field),* });)*

        /// All protocol messages.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Msg {
            $($(#[$doc])* $variant($ty),)*
            $(#[$unit_doc])*
            Shutdown,
            $(#[$batch_doc])*
            Batch(Vec<Msg>),
        }

        impl Msg {
            /// Every wire tag, in table order.
            pub const TAGS: &'static [u8] = &[$($tag,)* $unit_tag, $batch_tag];

            /// The message's wire tag: the first byte of its encoding.
            pub fn tag(&self) -> u8 {
                match self {
                    $(Msg::$variant(_) => $tag,)*
                    Msg::Shutdown => $unit_tag,
                    Msg::Batch(_) => $batch_tag,
                }
            }

            /// Short label for metrics.
            pub fn label(&self) -> &'static str {
                match self {
                    $(Msg::$variant($m) => $label,)*
                    Msg::Shutdown => $unit_label,
                    Msg::Batch(_) => $batch_label,
                }
            }

            /// `(keys, floats)` the message carries: what the simulator's
            /// cost model charges for it. A batch carries the sum of its
            /// constituents.
            pub fn load(&self) -> (u64, u64) {
                match self {
                    $(Msg::$variant(m) => m.load(),)*
                    Msg::Shutdown => (0, 0),
                    Msg::Batch(msgs) => msgs
                        .iter()
                        .map(Msg::load)
                        .fold((0, 0), |(k, v), (mk, mv)| (k + mk, v + mv)),
                }
            }
        }

        impl WireSize for Msg {
            fn wire_bytes(&self) -> usize {
                // 1 byte variant tag, matching the codec below.
                1 + match self {
                    $(Msg::$variant(m) => m.wire_len(),)*
                    Msg::Shutdown => 0,
                    Msg::Batch(msgs) => 4 + msgs.iter().map(Msg::wire_bytes).sum::<usize>(),
                }
            }
        }

        impl WireCodec for Msg {
            fn encode(&self, buf: &mut BytesMut) {
                match self {
                    $(Msg::$variant(m) => {
                        put_u8(buf, $tag);
                        m.put(buf);
                    })*
                    Msg::Shutdown => put_u8(buf, $unit_tag),
                    Msg::Batch(msgs) => {
                        put_u8(buf, $batch_tag);
                        put_u32(buf, msgs.len() as u32);
                        for m in msgs {
                            assert!(
                                !matches!(m, Msg::Batch(_)),
                                "batch envelopes must not nest"
                            );
                            m.encode(buf);
                        }
                    }
                }
            }

            fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
                match get_u8(buf)? {
                    $($tag => Ok(Msg::$variant(WireField::get(buf)?)),)*
                    $unit_tag => Ok(Msg::Shutdown),
                    $batch_tag => {
                        let n = get_u32(buf)? as u64;
                        if n > MAX_LEN {
                            return Err(CodecError::LengthOutOfRange(n));
                        }
                        // Clamp the pre-allocation: `n` is attacker-controlled
                        // until the constituents actually decode.
                        let mut msgs = Vec::with_capacity(n.min(64) as usize);
                        for _ in 0..n {
                            // Reject a nested batch *before* recursing: a
                            // crafted `batch,count,batch,…` stream must not
                            // grow the stack.
                            if buf.first() == Some(&$batch_tag) {
                                return Err(CodecError::NestedBatch);
                            }
                            msgs.push(Msg::decode(buf)?);
                        }
                        Ok(Msg::Batch(msgs))
                    }
                    // The only wildcard over tags: anything the table does
                    // not name.
                    t => Err(CodecError::UnknownTag(t)),
                }
            }
        }
    };
}

wire_messages! {
    /// Pull/push request.
    1 Op(m: OpMsg) => match m.kind {
        OpKind::Pull => "op.pull",
        OpKind::Push => "op.push",
    }, { op, kind, routed_by_home, keys, vals };
    /// Pull/push response.
    2 OpResp(_: OpRespMsg) => "op.resp", { op, kind, keys, vals, owner };
    /// Relocation message 1 (requester → home).
    3 LocalizeReq(_: LocalizeReqMsg) => "reloc.localize", { op, keys };
    /// Relocation message 2 (home → old owner).
    4 Relocate(_: RelocateMsg) => "reloc.relocate", { op, keys, new_owner };
    /// Relocation message 3 (old owner → new owner).
    5 HandOver(_: HandOverMsg) => "reloc.handover", { op, keys, vals };
    /// Replica-sync message 1 (subscriber → owner).
    7 ReplicaReg(_: ReplicaRegMsg) => "repl.reg", { node };
    /// Replica-sync message 2 (replica holder → owner).
    8 ReplicaPush(_: ReplicaPushMsg) => "repl.push", { node, flush_seq, keys, vals };
    /// Replica-sync message 3 (owner → replica holder).
    9 ReplicaRefresh(_: ReplicaRefreshMsg) => "repl.refresh", { owner, round, ack, keys, vals };
    /// Technique transition 1 (controller → home): promote request.
    10 TechniquePromote(_: TechniquePromoteMsg) => "tech.promote", { node, keys };
    /// Technique transition 2 (home → all): promotion broadcast.
    11 TechniquePromoteAck(_: TechniquePromoteAckMsg) => "tech.promote_ack",
        { home, epoch, keys, vals };
    /// Technique transition 3 (controller → home): demote vote.
    12 TechniqueDemote(_: TechniqueDemoteMsg) => "tech.demote", { node, keys };
    /// Technique transition 4 (home → all): demotion broadcast.
    13 TechniqueDemoteAck(_: TechniqueDemoteAckMsg) => "tech.demote_ack", { home, epoch, keys };
    /// Technique transition 5 (node → home): demotion drain confirmation.
    14 TechniqueDrained(_: TechniqueDrainedMsg) => "tech.drained", { node, epoch, keys, vals };
    unit:
    /// Stop the receiving server loop.
    6 Shutdown => "shutdown";
    batch:
    /// Coalescing envelope: constituent messages for one link, delivered
    /// as a unit and handled in order. Never nested.
    15 Batch(Vec<Msg>) => "batch";
}

impl Msg {
    /// Keys the message names (a batch: its constituents').
    pub fn key_count(&self) -> u64 {
        self.load().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Msg> {
        vec![
            Msg::Op(OpMsg {
                op: OpId::new(NodeId(1), 42),
                kind: OpKind::Pull,
                keys: vec![Key(3), Key(9)],
                vals: vec![],
                routed_by_home: false,
            }),
            Msg::Op(OpMsg {
                op: OpId::new(NodeId(2), 7),
                kind: OpKind::Push,
                keys: vec![Key(5)],
                vals: vec![1.0, -2.0],
                routed_by_home: true,
            }),
            Msg::OpResp(OpRespMsg {
                op: OpId::new(NodeId(0), 1),
                kind: OpKind::Pull,
                keys: vec![Key(5)],
                vals: ValueBlock::from_f32s(&[0.25, 0.5]),
                owner: NodeId(3),
            }),
            Msg::LocalizeReq(LocalizeReqMsg {
                op: OpId::new(NodeId(1), 8),
                keys: vec![Key(0), Key(1), Key(2)],
            }),
            Msg::Relocate(RelocateMsg {
                op: OpId::new(NodeId(1), 8),
                keys: vec![Key(0)],
                new_owner: NodeId(1),
            }),
            Msg::HandOver(HandOverMsg {
                op: OpId::new(NodeId(1), 8),
                keys: vec![Key(0)],
                vals: ValueBlock::from_f32s(&[9.0, 8.0]),
            }),
            Msg::ReplicaReg(ReplicaRegMsg { node: NodeId(2) }),
            Msg::ReplicaPush(ReplicaPushMsg {
                node: NodeId(2),
                flush_seq: 4,
                keys: vec![Key(1), Key(2)],
                vals: vec![0.5, -1.5],
            }),
            Msg::ReplicaRefresh(ReplicaRefreshMsg {
                owner: NodeId(0),
                round: 9,
                ack: 4,
                keys: vec![Key(1)],
                vals: ValueBlock::from_f32s(&[2.25]),
            }),
            Msg::TechniquePromote(TechniquePromoteMsg {
                node: NodeId(3),
                keys: vec![Key(7), Key(8)],
            }),
            Msg::TechniquePromoteAck(TechniquePromoteAckMsg {
                home: NodeId(0),
                epoch: 3,
                keys: vec![Key(7)],
                vals: ValueBlock::from_f32s(&[1.5, -0.5]),
            }),
            Msg::TechniqueDemote(TechniqueDemoteMsg {
                node: NodeId(1),
                keys: vec![Key(7)],
            }),
            Msg::TechniqueDemoteAck(TechniqueDemoteAckMsg {
                home: NodeId(0),
                epoch: 4,
                keys: vec![Key(7)],
            }),
            Msg::TechniqueDrained(TechniqueDrainedMsg {
                node: NodeId(2),
                epoch: 4,
                keys: vec![Key(7)],
                vals: vec![0.75, 0.25],
            }),
            Msg::Shutdown,
            Msg::Batch(vec![
                Msg::Op(OpMsg {
                    op: OpId::new(NodeId(1), 43),
                    kind: OpKind::Pull,
                    keys: vec![Key(4)],
                    vals: vec![],
                    routed_by_home: false,
                }),
                Msg::OpResp(OpRespMsg {
                    op: OpId::new(NodeId(0), 2),
                    kind: OpKind::Push,
                    keys: vec![Key(6)],
                    vals: ValueBlock::from_f32s(&[]),
                    owner: NodeId(1),
                }),
            ]),
        ]
    }

    #[test]
    fn codec_round_trip() {
        for msg in samples() {
            let mut buf = BytesMut::new();
            msg.encode(&mut buf);
            let mut bytes = buf.freeze();
            let back = Msg::decode(&mut bytes).expect("decode");
            assert_eq!(back, msg);
            assert_eq!(bytes.len(), 0, "trailing bytes after {msg:?}");
        }
    }

    #[test]
    fn wire_size_matches_encoding() {
        for msg in samples() {
            let mut buf = BytesMut::new();
            msg.encode(&mut buf);
            assert_eq!(
                buf.len(),
                msg.wire_bytes(),
                "WireSize disagrees with codec for {msg:?}"
            );
        }
    }

    #[test]
    fn truncation_never_panics() {
        for msg in samples() {
            let mut buf = BytesMut::new();
            msg.encode(&mut buf);
            let full = buf.freeze();
            for cut in 0..full.len() {
                let mut b = full.slice(..cut);
                let _ = Msg::decode(&mut b); // must not panic
            }
        }
    }

    #[test]
    fn tags_are_dense_and_every_row_has_a_sample() {
        let mut tags = Msg::TAGS.to_vec();
        tags.sort_unstable();
        let dense: Vec<u8> = (1..=Msg::TAGS.len() as u8).collect();
        assert_eq!(tags, dense, "tags must be unique and dense from 1");
        // A row added to the table without a sample fails here, so the
        // round-trip, size and truncation tests above cover every row.
        let mut sampled: Vec<u8> = samples().iter().map(Msg::tag).collect();
        sampled.sort_unstable();
        sampled.dedup();
        assert_eq!(sampled, dense, "every table row needs a sample");
        for msg in samples() {
            let mut buf = BytesMut::new();
            msg.encode(&mut buf);
            assert_eq!(buf[0], msg.tag(), "{} starts with its tag", msg.label());
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(samples()[0].label(), "op.pull");
        assert_eq!(samples()[1].label(), "op.push");
        assert_eq!(Msg::Shutdown.label(), "shutdown");
    }
}
