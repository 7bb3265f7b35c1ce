//! Per-node server logic.
//!
//! [`ServerCore`] is the sans-io server half of the protocol: a pure
//! message handler invoked by the threaded runtime's server thread or by
//! the simulator's event loop. It implements
//!
//! * **operation routing** (Section 3.3): the forward strategy (home node
//!   relays requests to the current owner), serving owned keys, parking
//!   operations on keys that are relocating here, and double-forwarding
//!   requests that arrived via a stale location cache;
//! * **relocation** (Section 3.2, Figure 4): as home node it updates the
//!   owner table *immediately* and instructs the old owner; as old owner
//!   it removes the value and hands it over (or parks the instruction if
//!   the key is still in flight towards it — localization conflicts chain
//!   this way); as new owner it installs the value and drains the parked
//!   operations in arrival order;
//! * **response handling**: completing tracker operations and refreshing
//!   location caches by piggybacking on responses and relocations only
//!   (the paper sends no dedicated cache-maintenance messages);
//! * **technique transitions** (DESIGN.md §5): as home it coordinates
//!   them; one under way is the key's byte (`Promoting`, `Demoting`), and
//!   the home's one table is the drain of each demotion epoch.
//!
//! ## One in-order walk per message
//!
//! Every keyed message is handled as the client issues an operation:
//! its keys are visited **once, in the order they arrive**, under a
//! [`LatchCursor`] (one write latch at a time, kept across adjacent keys
//! of one shard), and each key is decided *and emitted* on the spot —
//! straight into the per-destination `Batches`, so outgoing messages
//! are in the incoming message's key order by construction. Values copy
//! once, store slot → outgoing [`ValueBlockBuilder`] (or message block
//! → slot for a hand-over or replica install), under the key's latch.
//!
//! Two things wait for the end of the walk. Emission: the `Batches` of a
//! message flush when its handler returns, in a fixed category order.
//! And the completions a queue drain owes **this node's** workers: they
//! go into one flat list in walk order and fire after the last latch is
//! dropped (`Drain::finish`) — one hand-over can complete
//! operations of several workers, the order their wake-ups are enqueued
//! is the order a key-by-key dispatch would produce (the simulator's
//! task schedule depends on it), and an operation's waiting localizes
//! complete together, by count, where that dispatch would have completed
//! the last of them (`CountedOps`).
//!
//! All batching uses insertion-ordered maps so message emission order is
//! deterministic and re-dispatched operations keep their arrival order.

use std::collections::BTreeSet;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use lapse_net::{Key, NodeId, ValueBlock, ValueBlockBuilder};
use lapse_trace::{EventKind, Tracer, ACTOR_SERVER};

use crate::client::MsgSink;
use crate::config::ProtoConfig;
use crate::group::OrderedGroups;
use crate::keymap::KeyMap;
use crate::messages::{
    HandOverMsg, LocalizeReqMsg, Msg, OpId, OpKind, OpMsg, OpRespMsg, RelocateMsg, ReplicaPushMsg,
    ReplicaRefreshMsg, ReplicaRegMsg, TechniqueDemoteAckMsg, TechniqueDemoteMsg,
    TechniqueDrainedMsg, TechniquePromoteAckMsg, TechniquePromoteMsg,
};
use crate::shard::{
    AccessLane, IncomingState, LatchCursor, NodeShared, Queued, QueuedOp, Shard, ShardCell,
};
use crate::storage::Residency::{Demoting, Incoming, Owned, Primary, Promoting, Replica};

/// A keys-plus-values accumulator for forwarded requests (they become
/// [`OpMsg`]s, whose push payloads stay `Vec<f32>`).
#[derive(Debug, Default)]
struct KeyVals {
    keys: Vec<Key>,
    vals: Vec<f32>,
}

/// A keys-plus-block accumulator for value-carrying emissions (responses
/// and hand-overs): one contiguous buffer per outgoing message.
#[derive(Debug, Default)]
struct KeyBlock {
    keys: Vec<Key>,
    vals: ValueBlockBuilder,
}

/// Accumulates per-destination response/forward batches while one message
/// is processed, so grouped requests produce grouped replies (the paper's
/// message grouping, Section 3.7).
#[derive(Default)]
struct Batches {
    /// Responses per (op, kind); destination is `op.node`.
    resp: OrderedGroups<(OpId, OpKind), KeyBlock>,
    /// Home-routed forwards per (owner, op, kind).
    fwd_owner: OrderedGroups<(NodeId, OpId, OpKind), KeyVals>,
    /// Double-forwards per (home, op, kind).
    fwd_home: OrderedGroups<(NodeId, OpId, OpKind), KeyVals>,
    /// Hand-overs per (new owner, op).
    handover: OrderedGroups<(NodeId, OpId), KeyBlock>,
    /// Relocate instructions, emitted in order.
    relocates: Vec<(NodeId, RelocateMsg)>,
    /// Replica refreshes, emitted in order (after everything else —
    /// replicated keys never interact with relocation traffic).
    refreshes: Vec<(NodeId, ReplicaRefreshMsg)>,
    /// Technique-transition traffic (adaptive management), emitted last:
    /// promotion/demotion broadcasts and drain confirmations.
    tech: Vec<(NodeId, Msg)>,
}

impl Batches {
    /// Forwards key `k` of `op` (`val`: its push term) from its home to
    /// the owner in the home's table `owner`, from elsewhere to the home.
    /// Returns whether it went to the home.
    fn forward(
        &mut self,
        shared: &NodeShared,
        owner: &[NodeId],
        (op, kind): (OpId, OpKind),
        k: Key,
        val: &[f32],
    ) -> bool {
        let home = shared.cfg.home(k);
        let entry = if home == shared.node {
            let owner = owner[shared.cfg.home_slot(k)];
            self.fwd_owner.entry((owner, op, kind))
        } else {
            self.fwd_home.entry((home, op, kind))
        };
        entry.keys.push(k);
        entry.vals.extend_from_slice(val);
        home != shared.node
    }

    /// Hands the owned `k` over to `dst` (new owner, relocating op) and
    /// returns the value bytes moved. A hand-over this opens makes room
    /// for `rest`, the keys it may come to carry.
    fn hand_over(
        &mut self,
        cfg: &ProtoConfig,
        shard: &mut Shard,
        k: Key,
        dst: (NodeId, OpId),
        rest: &[Key],
    ) -> u64 {
        let slot = shard.store.take(k).expect("handed-over key is owned");
        if cfg.location_caches {
            shard.loc_cache.insert(k, dst.0);
        }
        let v = shard.store.slot_slice(slot);
        let entry = self.handover.entry(dst);
        if entry.keys.is_empty() {
            entry.keys.reserve(rest.len());
            entry.vals.reserve(cfg.layout.keys_len(rest));
        }
        entry.keys.push(k);
        entry.vals.push_slice(v);
        let bytes = 4 * v.len() as u64;
        shard.store.release(slot);
        bytes
    }

    fn flush(self, node: NodeId, sink: &mut MsgSink) {
        for ((op, kind), kb) in self.resp.into_iter() {
            sink.push((
                op.node,
                Msg::OpResp(OpRespMsg {
                    op,
                    kind,
                    keys: kb.keys,
                    vals: kb.vals.finish(),
                    owner: node,
                }),
            ));
        }
        for (routed_by_home, fwd) in [(true, self.fwd_owner), (false, self.fwd_home)] {
            for ((dst, op, kind), kv) in fwd.into_iter() {
                let (keys, vals) = (kv.keys, kv.vals);
                let op = OpMsg {
                    op,
                    kind,
                    keys,
                    vals,
                    routed_by_home,
                };
                sink.push((dst, Msg::Op(op)));
            }
        }
        for (dst, reloc) in self.relocates {
            sink.push((dst, Msg::Relocate(reloc)));
        }
        for ((dst, op), kb) in self.handover.into_iter() {
            sink.push((
                dst,
                Msg::HandOver(HandOverMsg {
                    op,
                    keys: kb.keys,
                    vals: kb.vals.finish(),
                }),
            ));
        }
        for (dst, refresh) in self.refreshes {
            sink.push((dst, Msg::ReplicaRefresh(refresh)));
        }
        for (dst, msg) in self.tech {
            sink.push((dst, msg));
        }
    }
}

/// A completion a queue drain owes one of this node's workers.
#[derive(Debug)]
enum Done {
    /// A waiting localize (completed by count, see [`CountedOps`]).
    Localize,
    /// A parked push: issued here, or parked by this server after a trip
    /// via the home node (then guard-counted) — the tracker knows which.
    Push,
    /// A parked pull; its value is staged at this float offset of
    /// [`ServerScratch::vals`].
    Pull(u32),
}

/// The counted completions one message owes, per operation: the waiting
/// localizes of this node's workers, which the tracker completes by count ([`OpTracker::complete_counted`](crate::tracker::OpTracker::complete_counted)),
/// once per `(message, operation)`. The walk records each
/// ([`CountedOps::owe`]); firing reports each ([`CountedOps::fired`])
/// and learns when it has reached an operation's last one. A message
/// completes keys of very few operations (one per waiting worker), so
/// this is a short list.
#[derive(Debug, Default)]
struct CountedOps {
    /// `(op seq, keys owed, keys fired so far)`.
    ops: Vec<(u64, u32, u32)>,
}

impl CountedOps {
    /// One more counted key of operation `seq` completes in this message.
    fn owe(&mut self, seq: u64) {
        match self.ops.iter_mut().find(|(s, _, _)| *s == seq) {
            Some((_, owed, _)) => *owed += 1,
            None => self.ops.push((seq, 1, 0)),
        }
    }

    /// A counted key of operation `seq` fires; returns how many the
    /// message owed the operation if this was the last of them.
    fn fired(&mut self, seq: u64) -> Option<u32> {
        let (_, owed, fired) = self
            .ops
            .iter_mut()
            .find(|(s, _, _)| *s == seq)
            .expect("fired a counted key the walk did not record");
        *fired += 1;
        (*fired == *owed).then_some(*owed)
    }
}

/// What the queue drains of one message ([`Drain`]) leave for after its
/// walk; reusable per-server buffers (amortized alloc-free).
#[derive(Debug, Default)]
struct ServerScratch {
    /// Completions owed to this node's workers, in walk order (per key
    /// in queue-arrival order).
    done: Vec<(OpId, Key, Done)>,
    /// The counted ones among them, per operation.
    counted: CountedOps,
    /// Staged values of the parked pulls among them.
    vals: Vec<f32>,
}

impl ServerScratch {
    /// Fires the owed completions, in walk order. Called once the walk
    /// has dropped its last latch.
    fn fire(&mut self, shared: &NodeShared) {
        for (op, k, what) in self.done.drain(..) {
            match what {
                Done::Localize => {
                    shared.tracker.note_counted(op.seq, k, -1);
                    if let Some(n) = self.counted.fired(op.seq) {
                        shared.tracker.complete_counted(op.seq, n);
                    }
                }
                Done::Push => shared.tracker.complete_key(op.seq, k, None),
                Done::Pull(soff) => {
                    let soff = soff as usize;
                    let v = &self.vals[soff..soff + shared.cfg.layout.len(k)];
                    shared.tracker.complete_key(op.seq, k, Some(v));
                }
            }
        }
    }
}

/// The queue drains of one message: state changes and emissions happen
/// at once, under the key's latch; completions for this node's workers
/// are left in the scratch and fire when the drains end ([`Drain::finish`]).
struct Drain<'a> {
    shared: &'a NodeShared,
    /// The home's owner table ([`ServerCore::owner`]).
    owner: &'a [NodeId],
    scratch: &'a mut ServerScratch,
    batches: &'a mut Batches,
    /// Value bytes moved into outgoing messages.
    moved_bytes: u64,
    /// Parked pushes accumulated into replicas.
    accumulated: u64,
}

impl<'a> Drain<'a> {
    /// Starts the drains of one message on an empty scratch.
    fn begin(
        shared: &'a NodeShared,
        owner: &'a [NodeId],
        scratch: &'a mut ServerScratch,
        batches: &'a mut Batches,
    ) -> Self {
        scratch.done.clear();
        scratch.counted.ops.clear();
        scratch.vals.clear();
        Drain {
            shared,
            owner,
            scratch,
            batches,
            moved_bytes: 0,
            accumulated: 0,
        }
    }

    /// Ends them, once the walk has dropped its last latch: fires the
    /// completions owed to this node's workers, in walk order, and
    /// settles the counts (`lane` is the server's).
    fn finish(self, lane: &AccessLane) {
        if self.accumulated > 0 {
            // Keep the auto-flush trigger honest about the drained
            // pushes (the issuing workers flush after completion anyway).
            let unflushed = &self.shared.replica.unflushed;
            unflushed.fetch_add(self.accumulated, Relaxed);
        }
        self.scratch.fire(self.shared);
        if self.moved_bytes > 0 {
            lane.value_bytes_moved.add(self.moved_bytes);
        }
    }

    /// Drains the incoming entry of `k`, which has just arrived in `shard`
    /// at the byte that says how: `Owned` by hand-over (parked operations
    /// are served from the store, remote origins answered, a parked
    /// relocation moves the key onward), or `Replica` by the promotion
    /// broadcast of a home that refused a localize of it meanwhile (the key
    /// is as local as it gets: parked local pushes accumulate into the
    /// replica, visible to later local reads, parked local pulls read the
    /// fresh replica view, parked remote-origin operations re-dispatch to
    /// the home). Completes the waiting localizes, then walks the parked
    /// queue in arrival order. Returns whether a parked relocation moved
    /// the key onward.
    fn key(&mut self, shard: &mut Shard, k: Key, entry: IncomingState) -> bool {
        let cfg: &ProtoConfig = &self.shared.cfg;
        let node = self.shared.node;
        for op in entry.waiting_localizes() {
            debug_assert_eq!(op.node, node);
            self.scratch.counted.owe(op.seq);
            self.scratch.done.push((op, k, Done::Localize));
        }
        let replica = shard.store.residency(k) == Replica;
        let mut moved_on = false;
        for item in entry.queue {
            match item {
                // Operations parked behind an onward relocation re-enter
                // normal routing and reach the key's current owner via
                // home; so do a remote origin's when the key arrived as
                // a replica (the home serves it).
                Queued::Op(q) if moved_on || (replica && q.op.node != node) => {
                    let op = (q.op, q.kind);
                    self.batches.forward(self.shared, self.owner, op, k, &q.val);
                }
                // Every other parked operation is served here and now:
                // a push is applied (to the replica's pending deltas if
                // that is how the key arrived) …
                Queued::Op(q) if q.kind == OpKind::Push => {
                    if replica {
                        shard.store.accumulate(k, &q.val);
                        self.accumulated += 1;
                    } else {
                        let applied = shard.store.add(k, &q.val);
                        debug_assert!(applied);
                    }
                    if q.op.node == node {
                        self.scratch.done.push((q.op, k, Done::Push));
                    } else {
                        self.batches.resp.entry((q.op, OpKind::Push)).keys.push(k);
                    }
                }
                // … a local worker's pull is staged for its completion …
                Queued::Op(q) if q.op.node == node => {
                    let vals = &mut self.scratch.vals;
                    let soff = vals.len();
                    vals.resize(soff + cfg.layout.len(k), 0.0);
                    shard.store.read_replicated(k, &mut vals[soff..]);
                    self.scratch.done.push((q.op, k, Done::Pull(soff as u32)));
                }
                // … and a remote origin's pull (of a key that arrived
                // owned: the guards above leave nothing else) answered.
                Queued::Op(q) => {
                    let v = shard.store.get(k).expect("handed-over key is owned");
                    let entry = self.batches.resp.entry((q.op, OpKind::Pull));
                    entry.keys.push(k);
                    entry.vals.push_slice(v);
                    self.moved_bytes += 4 * v.len() as u64;
                }
                Queued::Relocate { op, new_owner } => {
                    if replica {
                        // Home refuses localizes for promoting keys, so
                        // no relocate instruction can be parked here.
                        debug_assert!(false, "parked relocate for promoted {k}");
                        continue;
                    }
                    debug_assert!(!moved_on, "second parked relocate for {k}");
                    debug_assert_ne!(new_owner, node);
                    let dst = (new_owner, op);
                    self.moved_bytes += self.batches.hand_over(cfg, shard, k, dst, &[]);
                    moved_on = true;
                }
            }
        }
        moved_on
    }
}

/// One draining demotion batch at its coordinating home node: the keys
/// stay `Demoting` (no relocation) until every other node has confirmed
/// its drain and every already-flushed self batch has been delivered.
#[derive(Debug)]
struct DemoteDrain {
    /// The demoted keys of this epoch.
    keys: Vec<Key>,
    /// Nodes whose [`TechniqueDrainedMsg`] is still outstanding.
    awaiting: BTreeSet<NodeId>,
    /// Home's own flushed-but-undelivered replica batches that still
    /// carry one of `keys` (they arrive over the self link and are
    /// applied to the owned store on delivery).
    self_flushes: u64,
    /// Localizes of `keys` deferred so far: the last one's arrival tag.
    deferred: u64,
}

/// The server half of the protocol for one node.
pub struct ServerCore {
    shared: Arc<NodeShared>,
    /// This server's access counters. One writer at a time: the core is
    /// `&mut self` throughout, and the threaded backend only reaches it
    /// under the node's role lock.
    lane: Arc<AccessLane>,
    /// Current owner of every key homed at this node, indexed by
    /// `ProtoConfig::home_slot`. Only the server logic touches it, so no
    /// lock is needed (one logical server thread per node, Figure 2).
    owner: Vec<NodeId>,
    /// Nodes subscribed to replica refreshes from this owner, in
    /// registration order (replication technique).
    replica_subs: Vec<NodeId>,
    /// Propagation-round counter, bumped per refresh broadcast.
    replica_round: u64,
    /// Last refresh round received per owner; per-link FIFO makes the
    /// sequence strictly increasing (asserted in debug builds).
    replica_rounds_in: KeyMap<NodeId, u64>,
    /// Technique-transition epoch of this home (adaptive management),
    /// bumped per promotion/demotion broadcast.
    tech_epoch: u64,
    /// Last transition epoch seen per coordinating home; per-link FIFO
    /// makes the sequence strictly increasing (the fencing witness,
    /// asserted in debug builds).
    tech_epochs_in: KeyMap<NodeId, u64>,
    /// Draining demotion batches by epoch.
    demote_draining: KeyMap<u64, DemoteDrain>,
    /// What the queue drains of the message being handled owe.
    scratch: ServerScratch,
    /// Flight-recorder lane for this server thread (`None` when tracing
    /// is off, so the disabled path costs one pointer test).
    tracer: Option<Tracer>,
}

impl ServerCore {
    /// Creates the server core; initially every home key is owned by its
    /// home node (this node).
    pub fn new(shared: Arc<NodeShared>) -> Self {
        let slots = shared.cfg.home_slots(shared.node);
        let owner = vec![shared.node; slots];
        let tracer = shared.trace.tracer(
            shared.node.0,
            ACTOR_SERVER,
            format!("n{}/server", shared.node.0),
        );
        ServerCore {
            lane: shared.claim_lane(),
            shared,
            owner,
            replica_subs: Vec::new(),
            replica_round: 0,
            replica_rounds_in: KeyMap::default(),
            tech_epoch: 0,
            tech_epochs_in: KeyMap::default(),
            demote_draining: KeyMap::default(),
            scratch: ServerScratch::default(),
            tracer,
        }
    }

    /// Whether no technique transition is in progress here: no demotion
    /// drains, and no key is `Promoting` or `Demoting` (diagnostics/tests).
    pub fn transitions_idle(&self) -> bool {
        let busy = |s: &ShardCell| s.read().store.any(&[Promoting, Demoting]);
        self.demote_draining.is_empty() && !self.shared.shards.iter().any(busy)
    }

    /// The node this server runs on.
    pub fn node(&self) -> NodeId {
        self.shared.node
    }

    /// The shared node state.
    pub fn shared(&self) -> &Arc<NodeShared> {
        &self.shared
    }

    /// The counter lane this server writes.
    pub fn lane(&self) -> &AccessLane {
        &self.lane
    }

    /// Current owner of `key` according to this home node (diagnostics
    /// and tests; `key` must be homed here).
    pub fn owner_of(&self, key: Key) -> NodeId {
        debug_assert_eq!(self.shared.cfg.home(key), self.shared.node);
        self.owner[self.shared.cfg.home_slot(key)]
    }

    /// Handles one incoming message, appending outgoing messages to
    /// `sink` in a deterministic order.
    pub fn handle(&mut self, msg: Msg, sink: &mut MsgSink) {
        if let Msg::Batch(msgs) = msg {
            return self.handle_batch(msgs, sink);
        }
        if let Some(t) = &self.tracer {
            t.record(EventKind::MsgRecv, msg.tag() as u64, msg.key_count());
        }
        let mut batches = Batches::default();
        match msg {
            Msg::Op(m) => self.handle_op(m, &mut batches),
            Msg::OpResp(m) => self.handle_resp(m),
            Msg::LocalizeReq(m) => self.handle_localize(m, &mut batches),
            Msg::Relocate(m) => self.handle_relocate(m, &mut batches),
            Msg::HandOver(m) => self.handle_handover(m, &mut batches),
            Msg::ReplicaReg(m) => self.handle_replica_reg(m, &mut batches),
            Msg::ReplicaPush(m) => self.handle_replica_push(m, &mut batches),
            Msg::ReplicaRefresh(m) => self.handle_replica_refresh(m),
            Msg::TechniquePromote(m) => self.handle_technique_promote(m, &mut batches),
            Msg::TechniquePromoteAck(m) => self.handle_technique_promote_ack(m, &mut batches),
            Msg::TechniqueDemote(m) => self.handle_technique_demote(m, &mut batches),
            Msg::TechniqueDemoteAck(m) => self.handle_technique_demote_ack(m, &mut batches),
            Msg::TechniqueDrained(m) => self.handle_technique_drained(m, &mut batches),
            Msg::Shutdown => {}
            Msg::Batch(_) => unreachable!("batch envelopes are unpacked above"),
        }
        batches.flush(self.shared.node, sink);
    }

    /// Handles one batch envelope: its constituents, strictly in arrival
    /// order (per-link FIFO is untouched), each as a message of its own.
    /// Every constituent flushes its own `Batches` — the category flush
    /// order (responses before relocates before refreshes before
    /// technique traffic) is a per-message contract; merging it across,
    /// say, a promotion ack and a replica push would reorder a refresh
    /// ahead of the promotion broadcast it depends on. What consecutive
    /// messages send to one destination is merged again per link, by the
    /// sender's coalescer.
    pub fn handle_batch(&mut self, mut msgs: Vec<Msg>, sink: &mut MsgSink) {
        self.handle_burst(&mut msgs, sink);
    }

    /// [`ServerCore::handle_batch`] for a caller that keeps its ingest
    /// buffer: drains `msgs` and leaves its capacity behind.
    pub fn handle_burst(&mut self, msgs: &mut Vec<Msg>, sink: &mut MsgSink) {
        if let Some(t) = &self.tracer {
            t.record(EventKind::MsgBatch, 0, msgs.len() as u64);
        }
        for msg in msgs.drain(..) {
            debug_assert!(
                !matches!(msg, Msg::Batch(_)),
                "nested batch envelope delivered"
            );
            self.handle(msg, sink);
        }
    }

    // ---- operations ------------------------------------------------------

    /// An operation message: each key is served if this node owns it,
    /// parked if it is relocating here, and otherwise forwarded — to the
    /// owner if this node is the key's home, to the home if the sender's
    /// location cache was stale (double-forward, Figure 5d).
    fn handle_op(&mut self, m: OpMsg, batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        let node = self.shared.node;
        let local = m.op.node == node;
        debug_assert!(
            m.kind == OpKind::Pull || cfg.layout.keys_len(&m.keys) == m.vals.len(),
            "push payload length mismatch"
        );
        // Under adaptive management, ops routed before a promotion
        // broadcast reached their issuer legitimately arrive here for
        // now-replicated (`Primary`) keys; the owning home serves them,
        // and served pushes are re-broadcast as a refresh so replicas
        // converge without waiting for an unrelated flush.
        let refresh = !self.replica_subs.is_empty();
        let mut fresh_keys: Vec<Key> = Vec::new();
        let mut fresh = ValueBlockBuilder::default();
        let (mut stale_forwards, mut resp_bytes) = (0u64, 0u64);
        let mut val_off = 0usize;
        let mut cursor = LatchCursor::new(&self.shared.shards);
        for &k in &m.keys {
            let len = match m.kind {
                OpKind::Push => cfg.layout.len(k),
                OpKind::Pull => 0,
            };
            let val = &m.vals[val_off..val_off + len];
            val_off += len;
            debug_assert!(
                self.shared.adaptive.is_some() || !cfg.replicated(k),
                "op message for replicated key {k} (replicated access is always local)"
            );
            let shard = cursor.write(self.shared.shard_index(k));
            let held = shard.store.residency(k);
            if let Owned | Demoting | Primary = held {
                // Serve as owner.
                match m.kind {
                    OpKind::Push => {
                        let applied = shard.store.add(k, val);
                        debug_assert!(applied);
                        if refresh && held == Primary {
                            fresh_keys.push(k);
                            fresh.push_slice(shard.store.get(k).expect("just updated"));
                        }
                        if local {
                            self.shared.tracker.complete_key(m.op.seq, k, None);
                        } else {
                            batches.resp.entry((m.op, m.kind)).keys.push(k);
                        }
                    }
                    OpKind::Pull => {
                        let v = shard.store.get(k).expect("contains implies get");
                        if local {
                            self.shared.tracker.complete_key(m.op.seq, k, Some(v));
                        } else {
                            let entry = batches.resp.entry((m.op, m.kind));
                            entry.keys.push(k);
                            entry.vals.push_slice(v);
                            resp_bytes += 4 * v.len() as u64;
                        }
                    }
                }
            } else if let Incoming | Promoting = held {
                // Relocating towards this node: park until the
                // hand-over (Section 3.2).
                let (op, kind, val) = (m.op, m.kind, val.to_vec());
                shard.park(k, Queued::Op(QueuedOp { op, kind, val }));
            } else if batches.forward(&self.shared, &self.owner, (m.op, m.kind), k, val) {
                // Direct delivery based on a stale location cache:
                // forwarded to the home node (double-forward, Figure 5d).
                debug_assert!(
                    !m.routed_by_home,
                    "home-routed op for {k} reached a non-owner"
                );
                stale_forwards += 1;
            } else {
                // Acted as home: forwarded to the current owner.
                debug_assert_ne!(
                    self.owner[cfg.home_slot(k)],
                    node,
                    "home believes it owns {k} but the store disagrees"
                );
            }
        }
        drop(cursor);
        if stale_forwards > 0 {
            self.lane.loc_cache_stale_forwards.add(stale_forwards);
        }
        if resp_bytes > 0 {
            self.lane.value_bytes_moved.add(resp_bytes);
        }
        if !fresh_keys.is_empty() {
            self.broadcast_refresh(fresh_keys, fresh.finish(), None, batches);
        }
    }

    fn handle_resp(&mut self, m: OpRespMsg) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        debug_assert_eq!(m.op.node, self.shared.node, "response at wrong node");
        if cfg.location_caches {
            for &k in &m.keys {
                let mut shard = self.shared.shard_for(k).write();
                shard.loc_cache.insert(k, m.owner);
            }
        }
        // One tracker lock completes the whole grouped response; pull
        // values copy straight from the decoded block into the result
        // buffer.
        self.shared
            .tracker
            .complete_resp(m.op.seq, &m.keys, &m.vals);
    }

    // ---- relocation (Figure 4) --------------------------------------------

    /// Message 1, at the home node: update the owner table immediately and
    /// instruct each old owner. Under adaptive management the key's byte
    /// decides first: a `Primary` or `Promoting` key refuses relocation —
    /// the requester's parked localize completes when the promotion
    /// broadcast drains its incoming entry — and a `Demoting` one defers
    /// it until the demotion has drained.
    fn handle_localize(&mut self, m: LocalizeReqMsg, batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        let adaptive = self.shared.adaptive.is_some();
        let requester = m.op.node;
        let mut per_old: OrderedGroups<NodeId, Vec<Key>> = OrderedGroups::new();
        for &k in &m.keys {
            debug_assert_eq!(cfg.home(k), self.shared.node, "localize at wrong home");
            if adaptive {
                let cell = self.shared.shard_for(k);
                let held = cell.read().store.residency(k);
                match held {
                    Primary | Promoting => continue,
                    Demoting => {
                        let mut shard = cell.write();
                        let epoch = shard.demotion_epoch(k);
                        let drain = self.demote_draining.get_mut(&epoch).expect("a drain");
                        // Stale if the requester has not drained: it sent
                        // the request before it learned of the demotion
                        // (FIFO link), and the promotion broadcast already
                        // completed it there. Relocating for it would hand
                        // the key to a node that no longer expects it.
                        if !drain.awaiting.contains(&requester) {
                            drain.deferred += 1;
                            shard.defer(k, drain.deferred, m.op);
                        }
                        continue;
                    }
                    _ => {}
                }
            }
            let slot = cfg.home_slot(k);
            let old = self.owner[slot];
            self.owner[slot] = requester;
            self.lane.relocations.add(1);
            if let Some(t) = &self.tracer {
                t.record(EventKind::RelocStart, k.0, old.0 as u64);
            }
            per_old.entry(old).push(k);
        }
        for (old, keys) in per_old.into_iter() {
            let reloc = RelocateMsg {
                op: m.op,
                keys,
                new_owner: requester,
            };
            if old == self.shared.node {
                // Home is the current owner: handle locally rather than
                // sending a message to ourselves, so a relocation costs at
                // most three messages as in the paper.
                self.handle_relocate(reloc, batches);
            } else {
                batches.relocates.push((old, reloc));
            }
        }
    }

    /// Message 2, at the old owner: stop serving, remove the value, hand
    /// it over. If the key is still relocating towards this node, the
    /// instruction is parked and executed right after the hand-over
    /// arrives (localization conflicts, Section 3.2).
    ///
    /// A value is copied once, from its store slot into the hand-over
    /// block, under its shard's latch; keys and values append in message
    /// key order (a key that is parked or degenerate adds nothing).
    fn handle_relocate(&mut self, m: RelocateMsg, batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        let dst = (m.new_owner, m.op);
        let (mut moved_bytes, mut degenerate, mut unexpected) = (0u64, 0u32, 0u64);
        let mut cursor = LatchCursor::new(&self.shared.shards);
        for (i, &k) in m.keys.iter().enumerate() {
            let shard = cursor.write(self.shared.shard_index(k));
            let held = shard.store.residency(k);
            if held == Owned && m.new_owner == self.shared.node {
                // Degenerate self-relocation (the requester already
                // owned the key when the home processed its request):
                // the value stays in place; complete the localize.
                self.shared.tracker.note_counted(m.op.seq, k, -1);
                degenerate += 1;
            } else if held == Owned {
                // The hand-over's first key makes room for all that may
                // follow, allocated once.
                moved_bytes += batches.hand_over(cfg, shard, k, dst, &m.keys[i..]);
                if let Some(t) = &self.tracer {
                    t.record(EventKind::RelocHandOver, k.0, m.new_owner.0 as u64);
                }
            } else if let Incoming | Promoting = held {
                let (op, new_owner) = (m.op, m.new_owner);
                shard.park(k, Queued::Relocate { op, new_owner });
            } else {
                // Absent, replicated, or pinned by a draining demotion.
                if let Some(t) = &self.tracer {
                    // Flush the recorder before the debug assertion so
                    // the events leading up to the violation survive
                    // the panic in debug builds.
                    t.record(EventKind::RelocUnexpected, k.0, m.new_owner.0 as u64);
                    t.recorder().dump("unexpected relocate");
                }
                debug_assert!(
                    false,
                    "relocate for {k} which is neither owned nor expected"
                );
                unexpected += 1;
            }
        }
        drop(cursor);
        if degenerate > 0 {
            self.shared.tracker.complete_counted(m.op.seq, degenerate);
        }
        if unexpected > 0 {
            self.lane.unexpected_relocates.add(unexpected);
        }
        if moved_bytes > 0 {
            self.lane.value_bytes_moved.add(moved_bytes);
        }
    }

    /// Message 3, at the new owner: install the values straight from the
    /// message block into the keys' store slots, complete waiting
    /// localizes, and drain parked operations in arrival order
    /// ([`Drain`]).
    fn handle_handover(&mut self, m: HandOverMsg, batches: &mut Batches) {
        let ServerCore {
            shared,
            lane,
            owner,
            scratch,
            tracer,
            ..
        } = &mut *self;
        let cfg: &ProtoConfig = &shared.cfg;
        debug_assert_eq!(
            cfg.layout.keys_len(&m.keys),
            m.vals.len(),
            "handover payload length mismatch"
        );
        let mut drain = Drain::begin(shared, owner, scratch, batches);
        // Adaptive: the `Promoting` keys this relocation brings home, whose
        // promotions finish once the drains are done.
        let mut finish: Vec<Key> = Vec::new();
        let mut block_off = 0usize;
        let mut cursor = LatchCursor::new(&shared.shards);
        for &k in &m.keys {
            let len = cfg.layout.len(k);
            let shard = cursor.write(shared.shard_index(k));
            let arrived = shard.store.residency(k);
            // Install: block bytes copy directly into the key's slot.
            let entry = shard.hand_in(k, |dst| m.vals.copy_to(block_off, dst));
            block_off += len;
            if let Some(t) = tracer.as_ref() {
                t.record(EventKind::RelocInstall, k.0, len as u64);
            }
            let moved_on = drain.key(shard, k, entry);
            match arrived {
                // A pre-promotion relocation chain is still playing
                // out; the promote coordinator's relocation-to-home
                // chases it, so expect the key to come back.
                Promoting if moved_on => shard.expect_promotion(k),
                Promoting => finish.push(k),
                _ => {}
            }
        }
        drop(cursor);
        drain.finish(lane);
        if !m.keys.is_empty() {
            lane.handovers.add(m.keys.len() as u64);
        }
        if !finish.is_empty() {
            self.finish_promotion(&finish, batches);
        }
    }

    // ---- replication (NuPS §2) --------------------------------------------

    /// Replica-sync message 1: register a subscriber and answer with an
    /// initial snapshot of every replicated key homed here — its
    /// `Primary` keys, ascending: one latch per shard that can hold a
    /// replicated key, whose bytes are read only if it holds one.
    fn handle_replica_reg(&mut self, m: ReplicaRegMsg, batches: &mut Batches) {
        debug_assert_ne!(m.node, self.shared.node, "self-registration");
        if self.replica_subs.contains(&m.node) {
            return;
        }
        self.replica_subs.push(m.node);
        let mut keys = Vec::new();
        let mut vals = ValueBlockBuilder::default();
        for &s in &self.shared.replica_shards {
            let shard = self.shared.shards[s as usize].read();
            for (key, _) in shard.store.replicated_keys().filter(|&(_, r)| r == Primary) {
                keys.push(key);
                vals.push_slice(shard.store.get(key).expect("a primary key is owned"));
            }
        }
        if keys.is_empty() {
            return;
        }
        self.replica_round += 1;
        batches.refreshes.push((
            m.node,
            ReplicaRefreshMsg {
                owner: self.shared.node,
                round: self.replica_round,
                ack: 0, // a snapshot, not an answer to any flush
                keys,
                vals: vals.finish(),
            },
        ));
    }

    /// Broadcasts fresh values of `keys` (one refcounted block, `keys`
    /// order) to every subscribed replica holder, closing one
    /// propagation round. `ack` names the pusher whose flush this
    /// refresh acknowledges, and the flush sequence it retires.
    fn broadcast_refresh(
        &mut self,
        keys: Vec<Key>,
        block: ValueBlock,
        ack: Option<(NodeId, u64)>,
        batches: &mut Batches,
    ) {
        if keys.is_empty() || self.replica_subs.is_empty() {
            return;
        }
        self.lane.value_bytes_moved.add(4 * block.len() as u64);
        self.replica_round += 1;
        for &sub in &self.replica_subs {
            batches.refreshes.push((
                sub,
                ReplicaRefreshMsg {
                    owner: self.shared.node,
                    round: self.replica_round,
                    ack: match ack {
                        Some((n, s)) if n == sub => s,
                        _ => 0,
                    },
                    keys: keys.clone(),
                    vals: block.clone(),
                },
            ));
        }
    }

    /// Replica-sync message 2, at the owner: apply the accumulated update
    /// terms exactly once, then broadcast the fresh values to every
    /// subscriber (the propagation step closing this round). The refresh
    /// sent back to the pusher acknowledges exactly `m.flush_seq`, so the
    /// deltas it shipped are retired only once the owner has really
    /// applied them — flushes of concurrent workers that overtake each
    /// other on the wire cannot retire one another's deltas.
    ///
    /// For the owner's own flushes a shard's deltas are applied and
    /// retired under **one** latch hold: the owned store is the owner's
    /// replica view, so a local reader must never see a shard's deltas
    /// retired while some are still unapplied (dropped writes) or vice
    /// versa (double count). A flush lists its keys ascending, so the
    /// cursor meets each shard once and retires as it enters.
    ///
    /// A push implies a subscription. A node registers once, from the
    /// worker that first touches a replicated key, so another worker's
    /// flush can reach this owner before that worker's [`ReplicaRegMsg`]
    /// does. A push from a node that is not subscribed yet therefore
    /// subscribes it first — its snapshot, taken before the push applies,
    /// goes out ahead of the refresh that acknowledges the push — and the
    /// registration that follows is a no-op. Unsubscribed, the pusher would
    /// get no acknowledgement, and the later snapshot would already include
    /// the batch it still holds in flight: counted twice, for ever.
    fn handle_replica_push(&mut self, m: ReplicaPushMsg, batches: &mut Batches) {
        let node = self.shared.node;
        let own_flush = m.node == node;
        if !own_flush && !self.replica_subs.contains(&m.node) {
            self.handle_replica_reg(ReplicaRegMsg { node: m.node }, batches);
        }
        let cfg: &ProtoConfig = &self.shared.cfg;
        let adaptive = self.shared.adaptive.is_some();
        debug_assert_eq!(
            cfg.layout.keys_len(&m.keys),
            m.vals.len(),
            "replica push payload mismatch"
        );
        // The broadcast payload, built once in `m.keys` order; every
        // subscriber's refresh clones the same block (a reference-count
        // bump, not a copy). Under adaptive management, keys demoted
        // since the flush left its sender still apply here (the home
        // owns them while `Demoting`) but are excluded — the subscribers
        // have dropped (or are about to drop) their replicas.
        let broadcast = !self.replica_subs.is_empty();
        let (mut bkeys, mut block) = if broadcast {
            (
                Vec::with_capacity(m.keys.len()),
                ValueBlockBuilder::with_capacity(m.vals.len()),
            )
        } else {
            Default::default()
        };
        let mut applied_keys = 0u64;
        // Straggler deltas (adaptive, threaded backend): a worker records
        // a flush's in-flight batch under the latch before its message is
        // actually enqueued on the link, so a demotion drain can complete
        // — and the key relocate away — with that flush still undelivered.
        // The home then no longer owns the key; the delta is forwarded to
        // the current owner below instead of being dropped.
        let mut stragglers: Vec<(Key, &[f32])> = Vec::new();
        let mut pinned: Vec<u64> = Vec::new();
        let mut val_off = 0usize;
        debug_assert!(m.keys.is_sorted(), "replica round does not ascend");
        let mut cursor = LatchCursor::new(&self.shared.shards);
        for &k in &m.keys {
            debug_assert!(
                adaptive || cfg.replicated(k),
                "replica push for unreplicated {k}"
            );
            debug_assert_eq!(cfg.home(k), node, "replica push at wrong owner");
            let len = cfg.layout.len(k);
            let delta = &m.vals[val_off..val_off + len];
            val_off += len;
            let idx = self.shared.shard_index(k);
            let entered = !cursor.holds(idx);
            let shard = cursor.write(idx);
            if entered && own_flush {
                shard.store.retire(node, m.flush_seq);
            }
            if !shard.store.add(k, delta) {
                debug_assert!(adaptive, "owner lost replicated key {k}");
                stragglers.push((k, delta));
                continue;
            }
            applied_keys += 1;
            match shard.store.residency(k) {
                Primary if broadcast => {
                    bkeys.push(k);
                    block.push_slice(shard.store.get(k).expect("just updated"));
                }
                // A delivered self flush releases its hold on a key pinned
                // by a draining demotion (its delta was just applied).
                Demoting if own_flush => {
                    let epoch = shard.demotion_epoch(k);
                    let drain = self.demote_draining.get_mut(&epoch).expect("a drain");
                    drain.self_flushes -= 1;
                    pinned.push(epoch);
                }
                _ => {}
            }
        }
        drop(cursor);
        if applied_keys > 0 {
            self.lane.replica_pushes_applied.add(applied_keys);
        }
        for (k, delta) in stragglers {
            let owner = self.owner[cfg.home_slot(k)];
            // Fire-and-forget tracked push: the abandoned entry is
            // reclaimed when the owner's acknowledgement completes it,
            // so nothing leaks and nobody is woken.
            let tracker = &self.shared.tracker;
            let seq = tracker.begin(crate::tracker::TrackedKind::Push, 0, None);
            tracker.add_keys(seq, false, false, std::iter::once((k, 0, 0)));
            tracker.seal(seq);
            tracker.abandon(seq);
            let entry = batches
                .fwd_owner
                .entry((owner, OpId::new(node, seq), OpKind::Push));
            entry.keys.push(k);
            entry.vals.extend_from_slice(delta);
        }
        if broadcast {
            self.broadcast_refresh(bkeys, block.finish(), Some((m.node, m.flush_seq)), batches);
        }
        // An epoch listed twice completes once: a completed drain is gone.
        for epoch in pinned {
            self.maybe_complete_demotion(epoch, batches);
        }
    }

    /// Replica-sync message 3, at a replica holder: install the fresh
    /// values and retire the acknowledged deltas. Install and retirement
    /// happen under one latch hold per shard (the refresh echoes the
    /// flush's ascending key list): the refreshed values already include
    /// the acknowledged deltas, so a reader must never see both (double
    /// count) or neither (dropped writes).
    fn handle_replica_refresh(&mut self, m: ReplicaRefreshMsg) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        fence(&mut self.replica_rounds_in, m.owner, m.round, "round");
        debug_assert_eq!(
            cfg.layout.keys_len(&m.keys),
            m.vals.len(),
            "refresh payload mismatch"
        );
        let mut val_off = 0usize;
        debug_assert!(m.keys.is_sorted(), "replica round does not ascend");
        let mut cursor = LatchCursor::new(&self.shared.shards);
        for &k in &m.keys {
            debug_assert_eq!(cfg.home(k), m.owner, "refresh from non-owner");
            let len = cfg.layout.len(k);
            let idx = self.shared.shard_index(k);
            let entered = m.ack > 0 && !cursor.holds(idx);
            let shard = cursor.write(idx);
            if entered {
                // An acked flush's keys are exactly the refreshed keys,
                // so every shard holding a part of it is entered here.
                shard.store.retire(m.owner, m.ack);
            }
            // Per-link FIFO fences refreshes against transition
            // broadcasts: a refresh for a key this node demoted (or
            // has not promoted yet) cannot arrive.
            debug_assert!(
                shard.store.residency(k) == Replica,
                "refresh for unreplicated {k}"
            );
            // Fresh values copy straight from the message block into
            // the key's slot.
            shard
                .store
                .refresh_with(k, |dst| m.vals.copy_to(val_off, dst));
            val_off += len;
        }
        drop(cursor);
        self.lane.replica_refreshes.add(m.keys.len() as u64);
    }

    // ---- technique transitions (adaptive management) ----------------------

    /// Transition message 1, at the home node: promote hot keys to
    /// replication. A key whose value already sits at home promotes
    /// immediately; otherwise the home first relocates it to itself
    /// (reusing the relocation protocol with itself as requester) and the
    /// promotion finishes when the hand-over arrives (the key is
    /// `Promoting` until then). Requests for keys `Primary`, `Promoting`
    /// or `Demoting` are dropped (the controller re-sends after its TTL);
    /// any promotion interest clears stale demotion votes.
    fn handle_technique_promote(&mut self, m: TechniquePromoteMsg, batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        debug_assert!(
            self.shared.adaptive.is_some(),
            "technique transition without adaptive variant"
        );
        if let Some(t) = &self.tracer {
            t.record(EventKind::TechPromote, m.node.0 as u64, m.keys.len() as u64);
        }
        let mut finish: Vec<Key> = Vec::new();
        let mut per_old: OrderedGroups<NodeId, Vec<Key>> = OrderedGroups::new();
        let mut started = 0u64;
        for &k in &m.keys {
            debug_assert_eq!(
                cfg.home(k),
                self.shared.node,
                "promote request at wrong home"
            );
            let slot = cfg.home_slot(k);
            let owner = self.owner[slot];
            let mut shard = self.shared.shard_for(k).write();
            match shard.store.residency(k) {
                Primary => shard.clear_votes(k),
                Promoting | Demoting => {}
                Owned => finish.push(k),
                // The hand-over finishes it: of the relocation under way for
                // a home worker's localize, or of one home started now (the
                // owner table updates, the old owner is told, work parks).
                held => {
                    let home = self.shared.node;
                    debug_assert!(owner != home || held == Incoming, "home owns {k}: {held:?}");
                    shard.expect_promotion(k);
                    if owner != home {
                        self.owner[slot] = home;
                        started += 1;
                        per_old.entry(owner).push(k);
                    }
                }
            }
        }
        if started > 0 {
            self.lane.relocations.add(started);
        }
        for (old, keys) in per_old.into_iter() {
            batches.relocates.push((
                old,
                RelocateMsg {
                    // Synthetic op: nothing waits on it (the promotion has
                    // no requesting worker); hand-over batching only.
                    op: OpId::new(self.shared.node, 0),
                    keys,
                    new_owner: self.shared.node,
                },
            ));
        }
        if !finish.is_empty() {
            self.finish_promotion(&finish, batches);
        }
    }

    /// Finishes promotions for keys whose value is at home: makes them
    /// `Owned` → `Primary` here and broadcasts the epoch-fenced
    /// [`TechniquePromoteAckMsg`] with the authoritative values to every
    /// other node.
    fn finish_promotion(&mut self, keys: &[Key], batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        let mut block = ValueBlockBuilder::default();
        for &k in keys {
            let mut shard = self.shared.shard_for(k).write();
            block.push_slice(shard.store.promote(k));
            shard.loc_cache.remove(&k);
        }
        self.lane.tech_promotions.add(keys.len() as u64);
        self.tech_epoch += 1;
        if let Some(t) = &self.tracer {
            t.record(
                EventKind::TechPromoteAck,
                self.tech_epoch,
                keys.len() as u64,
            );
        }
        let vals = block.finish();
        self.lane.value_bytes_moved.add(vals.len() as u64 * 4);
        for n in 0..cfg.nodes {
            let dst = NodeId(n);
            if dst != self.shared.node {
                batches.tech.push((
                    dst,
                    Msg::TechniquePromoteAck(TechniquePromoteAckMsg {
                        home: self.shared.node,
                        epoch: self.tech_epoch,
                        keys: keys.to_vec(),
                        vals: vals.clone(),
                    }),
                ));
            }
        }
        // The home's own controller bookkeeping (it may have requested).
        if let Some(ad) = &self.shared.adaptive {
            ad.transition_applied(keys);
        }
    }

    /// Transition message 2, at every other node: install the replicas.
    /// If a refused localize left the key incoming here, drain its parked
    /// work as a replica arrival ([`Drain::key`]) — not a single update is
    /// lost or applied twice.
    fn handle_technique_promote_ack(&mut self, m: TechniquePromoteAckMsg, batches: &mut Batches) {
        debug_assert_ne!(m.home, self.shared.node, "self-addressed promote broadcast");
        fence(&mut self.tech_epochs_in, m.home, m.epoch, "tech epoch");

        let ServerCore {
            shared,
            lane,
            owner,
            scratch,
            ..
        } = &mut *self;
        let cfg: &ProtoConfig = &shared.cfg;
        debug_assert_eq!(
            cfg.layout.keys_len(&m.keys),
            m.vals.len(),
            "promote payload mismatch"
        );
        let mut drain = Drain::begin(shared, owner, scratch, batches);
        let mut block_off = 0usize;
        let mut cursor = LatchCursor::new(&shared.shards);
        for &k in &m.keys {
            debug_assert_eq!(cfg.home(k), m.home, "promote broadcast from non-home");
            let len = cfg.layout.len(k);
            let shard = cursor.write(shared.shard_index(k));
            let parked = shard.promote_in(k, |dst| m.vals.copy_to(block_off, dst));
            block_off += len;
            shard.loc_cache.remove(&k);
            if let Some(entry) = parked {
                // A localize raced the promotion and was refused at
                // home; complete it and drain everything parked behind
                // it.
                drain.key(shard, k, entry);
            }
        }
        drop(cursor);
        drain.finish(lane);
        if let Some(ad) = &shared.adaptive {
            ad.transition_applied(&m.keys);
        }
    }

    /// Transition message 3, at the home node: a demotion vote. The key
    /// demotes once every node (including this one — its controller votes
    /// over the self link) has voted; promotion interest clears votes.
    fn handle_technique_demote(&mut self, m: TechniqueDemoteMsg, batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        debug_assert!(
            self.shared.adaptive.is_some(),
            "technique transition without adaptive variant"
        );
        let (mut demote, nodes) = (Vec::new(), cfg.nodes as usize);
        for &k in &m.keys {
            debug_assert_eq!(cfg.home(k), self.shared.node, "demote vote at wrong home");
            // Only a `Primary` key collects votes.
            let mut shard = self.shared.shard_for(k).write();
            if shard.store.residency(k) == Primary && shard.vote_demotion(k, m.node) == nodes {
                demote.push(k);
            }
        }
        if !demote.is_empty() {
            self.start_demotion(demote, batches);
        }
    }

    /// Starts a demotion batch: the keys go `Primary` → `Demoting` (the
    /// home's own accumulated deltas apply directly — it is the owner) and
    /// the epoch-fenced [`TechniqueDemoteAckMsg`] goes out. A `Demoting`
    /// key does not relocate until every node has drained and every
    /// already-flushed self batch has been delivered, so no delta can
    /// chase a key that has moved away.
    fn start_demotion(&mut self, keys: Vec<Key>, batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        self.tech_epoch += 1;
        let epoch = self.tech_epoch;
        if let Some(t) = &self.tracer {
            t.record(EventKind::TechDemote, epoch, keys.len() as u64);
        }
        let mut self_flushes = 0u64;
        for &k in &keys {
            let mut shard = self.shared.shard_for(k).write();
            shard.start_demotion(k, epoch);
            // The home's own pending delta applies directly: it owns the key.
            self_flushes += shard.store.drop_deltas(k, |slot, delta| {
                slot.iter_mut().zip(delta).for_each(|(v, d)| *v += d)
            });
            shard.loc_cache.remove(&k);
        }
        self.lane.tech_demotions.add(keys.len() as u64);
        let awaiting: BTreeSet<NodeId> = (0..cfg.nodes)
            .map(NodeId)
            .filter(|&n| n != self.shared.node)
            .collect();
        for &dst in &awaiting {
            batches.tech.push((
                dst,
                Msg::TechniqueDemoteAck(TechniqueDemoteAckMsg {
                    home: self.shared.node,
                    epoch,
                    keys: keys.clone(),
                }),
            ));
        }
        if let Some(ad) = &self.shared.adaptive {
            ad.transition_applied(&keys);
        }
        self.demote_draining.insert(
            epoch,
            DemoteDrain {
                keys,
                awaiting,
                self_flushes,
                deferred: 0,
            },
        );
        // Single-node clusters (and batches with no outstanding self
        // flushes and no peers) complete immediately.
        self.maybe_complete_demotion(epoch, batches);
    }

    /// Transition message 4, at every other node: drop the replica state
    /// and confirm with the final accumulated deltas. Pending deltas ship
    /// in the [`TechniqueDrainedMsg`]; already-flushed batches are on the
    /// wire to the home (which owns the key and applies them regardless
    /// of technique), so their records drop from the in-flight overlay.
    fn handle_technique_demote_ack(&mut self, m: TechniqueDemoteAckMsg, batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        debug_assert_ne!(m.home, self.shared.node, "self-addressed demote broadcast");
        fence(&mut self.tech_epochs_in, m.home, m.epoch, "tech epoch");

        let mut drained_keys: Vec<Key> = Vec::new();
        let mut drained_vals: Vec<f32> = Vec::new();
        for &k in &m.keys {
            debug_assert_eq!(cfg.home(k), m.home, "demote broadcast from non-home");
            let mut shard = self.shared.shard_for(k).write();
            let held = shard.store.drop_replica(k);
            debug_assert!(held, "demote broadcast for unreplicated {k}");
            shard.store.drop_deltas(k, |_, delta| {
                drained_keys.push(k);
                drained_vals.extend_from_slice(delta);
            });
            shard.loc_cache.remove(&k);
        }
        if let Some(ad) = &self.shared.adaptive {
            ad.transition_applied(&m.keys);
        }
        batches.tech.push((
            m.home,
            Msg::TechniqueDrained(TechniqueDrainedMsg {
                node: self.shared.node,
                epoch: m.epoch,
                keys: drained_keys,
                vals: drained_vals,
            }),
        ));
    }

    /// Transition message 5, at the home node: apply a node's final
    /// deltas (the home owns every `Demoting` key) and
    /// mark the node drained; the batch completes — re-enabling
    /// relocation and replaying deferred localizes — once every node has
    /// confirmed and the home's own flushed batches have been delivered.
    fn handle_technique_drained(&mut self, m: TechniqueDrainedMsg, batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        let mut off = 0usize;
        let mut applied_keys = 0u64;
        for &k in &m.keys {
            debug_assert_eq!(cfg.home(k), self.shared.node, "drain at wrong home");
            let len = cfg.layout.len(k);
            let mut shard = self.shared.shard_for(k).write();
            let applied = shard.store.add(k, &m.vals[off..off + len]);
            debug_assert!(applied, "home lost demoting key {k}");
            off += len;
            applied_keys += 1;
        }
        debug_assert_eq!(off, m.vals.len(), "drain payload mismatch");
        if applied_keys > 0 {
            self.lane.replica_pushes_applied.add(applied_keys);
        }
        if let Some(drain) = self.demote_draining.get_mut(&m.epoch) {
            let removed = drain.awaiting.remove(&m.node);
            debug_assert!(removed, "duplicate drain confirmation from {}", m.node);
            if let Some(t) = &self.tracer {
                t.record(EventKind::TechDrained, m.epoch, m.node.0 as u64);
            }
            self.maybe_complete_demotion(m.epoch, batches);
        } else {
            debug_assert!(false, "drain confirmation for unknown epoch {}", m.epoch);
        }
    }

    /// Completes a demotion batch once fully drained: its keys go
    /// `Demoting` → `Owned`, and the localizes deferred meanwhile replay in
    /// the order they arrived, across the batch's keys.
    fn maybe_complete_demotion(&mut self, epoch: u64, batches: &mut Batches) {
        match self.demote_draining.get(&epoch) {
            Some(d) if d.awaiting.is_empty() && d.self_flushes == 0 => {}
            _ => return,
        }
        let drain = self.demote_draining.remove(&epoch).expect("checked above");
        let mut replay: Vec<(u64, OpId, Key)> = Vec::new();
        for &k in &drain.keys {
            let deferred = self.shared.shard_for(k).write().finish_demotion(k);
            replay.extend(deferred.into_iter().map(|(tag, op)| (tag, op, k)));
        }
        replay.sort_unstable_by_key(|&(tag, ..)| tag);
        for (_, op, k) in replay {
            self.handle_localize(LocalizeReqMsg { op, keys: vec![k] }, batches);
        }
    }
}

/// Records `seq` as the latest of `from`'s refresh rounds or transition
/// epochs, which per-link FIFO keeps strictly increasing (asserted in debug
/// builds: a violation means a stale message could overwrite a newer one).
fn fence(last: &mut KeyMap<NodeId, u64>, from: NodeId, seq: u64, what: &str) {
    let prev = last.insert(from, seq).unwrap_or(0);
    debug_assert!(seq > prev, "{what} {seq} from {from} after {prev}");
}
