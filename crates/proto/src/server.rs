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
//!   (the paper sends no dedicated cache-maintenance messages).
//!
//! ## Lock-once dispatch (the value plane)
//!
//! Every grouped message is processed in the same three phases as the
//! client issue path: keys are pre-grouped by shard (reusable scratch, no
//! steady-state allocation), each shard latch is acquired **once per
//! message**, and batch emission replays the per-key decisions in the
//! message's **original key order** so outgoing messages are identical —
//! in content and order — to the historical per-key path (the
//! bit-identical experiment outputs depend on this). Outgoing value
//! payloads are assembled into [`ValueBlockBuilder`]s: one buffer per
//! message, zero per-key `Vec`s; hand-over installs copy message-block
//! bytes straight into the store arena.
//!
//! All batching uses insertion-ordered maps so message emission order is
//! deterministic and re-dispatched operations keep their arrival order.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use lapse_net::{Key, NodeId, ValueBlock, ValueBlockBuilder};
use lapse_trace::{EventKind, Recorder, Ring, ACTOR_SERVER};

use crate::client::MsgSink;
use crate::config::ProtoConfig;
use crate::group::{OrderedGroups, ShardGroups};
use crate::messages::{
    HandOverMsg, LocalizeReqMsg, Msg, OpId, OpKind, OpMsg, OpRespMsg, RelocateMsg, ReplicaPushMsg,
    ReplicaRefreshMsg, ReplicaRegMsg, TechniqueDemoteAckMsg, TechniqueDemoteMsg,
    TechniqueDrainedMsg, TechniquePromoteAckMsg, TechniquePromoteMsg,
};
use crate::shard::{AccessLane, IncomingState, NodeShared, Queued, QueuedOp, Shard};

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
        for ((dst, op, kind), kv) in self.fwd_owner.into_iter() {
            sink.push((
                dst,
                Msg::Op(OpMsg {
                    op,
                    kind,
                    keys: kv.keys,
                    vals: kv.vals,
                    routed_by_home: true,
                }),
            ));
        }
        for ((dst, op, kind), kv) in self.fwd_home.into_iter() {
            sink.push((
                dst,
                Msg::Op(OpMsg {
                    op,
                    kind,
                    keys: kv.keys,
                    vals: kv.vals,
                    routed_by_home: false,
                }),
            ));
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

/// Per-key decision of one operation message, replayed in original key
/// order during batch emission.
#[derive(Debug, Clone, Copy, Default)]
enum OpAction {
    /// Handled entirely during the shard phase (local completion, park).
    #[default]
    Done,
    /// Acknowledge a served push to a remote origin.
    RespPush,
    /// Answer a served pull to a remote origin; value staged in scratch.
    RespPull {
        /// Offset into the scratch value buffer (floats).
        soff: u32,
    },
    /// The key's value went into the hand-over block for the new owner
    /// (relocate messages).
    HandOver,
    /// Forward to the current owner (this node is the home).
    FwdOwner(NodeId),
    /// Double-forward to the home (stale location cache, Figure 5d).
    FwdHome(NodeId),
}

/// Per-key replay action of a hand-over's queue drain. Ordered sub-steps
/// of one key occupy a contiguous span of the action list. Tracker
/// completions are replayed here too — not in the shard phase — because
/// one hand-over can complete operations of **several** workers, and the
/// order their wake notifications are enqueued must match a key-by-key
/// dispatch in message order (the simulator's task schedule depends on
/// it): a parked pull or push completes where the replay reaches it, and
/// an operation's waiting localizes ([`CountedOps`]) complete together
/// where the replay reaches the last of them — the place a key-by-key
/// dispatch would have completed the operation.
#[derive(Debug, Default)]
enum HoAction {
    /// Nothing to emit.
    #[default]
    None,
    /// Complete a waiting localize of this node.
    LocalizeDone(OpId),
    /// Complete a parked push issued by this node.
    LocalPush(OpId),
    /// Complete a parked pull issued by this node; value staged in
    /// scratch.
    LocalPull(OpId, u32),
    /// Acknowledge a parked push of a remote origin.
    RespPush(OpId),
    /// Answer a parked pull of a remote origin; value staged in scratch.
    RespPull(OpId, u32),
    /// Re-dispatch an operation parked behind an onward relocation.
    Redispatch {
        op: OpId,
        kind: OpKind,
        val: Vec<f32>,
        /// Forward to the owner (home here) or double-forward to home.
        to_owner: bool,
        dst: NodeId,
    },
    /// Hand the key onward to its next owner (parked relocation).
    Onward(OpId, NodeId, u32),
}

/// The counted completions one message owes, per operation: the waiting
/// localizes of this node's workers, which the tracker completes by count ([`OpTracker::complete_counted`](crate::tracker::OpTracker::complete_counted)),
/// once per `(message, operation)`. The shard phase records each
/// ([`CountedOps::owe`]); the replay reports each
/// ([`CountedOps::replayed`]) and learns when it has reached an
/// operation's last one. A message completes keys of very few operations
/// (one per waiting worker), so this is a short list.
#[derive(Debug, Default)]
struct CountedOps {
    /// `(op seq, keys owed, keys replayed so far)`.
    ops: Vec<(u64, u32, u32)>,
}

impl CountedOps {
    fn clear(&mut self) {
        self.ops.clear();
    }

    /// One more counted key of operation `seq` completes in this message.
    fn owe(&mut self, seq: u64) {
        match self.ops.iter_mut().find(|(s, _, _)| *s == seq) {
            Some((_, owed, _)) => *owed += 1,
            None => self.ops.push((seq, 1, 0)),
        }
    }

    /// The replay reached a counted key of operation `seq`; returns how
    /// many the message owed the operation if this was the last of them.
    fn replayed(&mut self, seq: u64) -> Option<u32> {
        let (_, owed, replayed) = self
            .ops
            .iter_mut()
            .find(|(s, _, _)| *s == seq)
            .expect("replayed a counted key the shard phase did not record");
        *replayed += 1;
        (*replayed == *owed).then_some(*owed)
    }
}

/// Reusable per-server buffers for the shard-grouped message phases.
#[derive(Debug, Default)]
struct ServerScratch {
    groups: ShardGroups,
    /// Per-key `(value offset, value length)` into the message payload.
    items: Vec<(u32, u32)>,
    /// Per-key replay decision (operation messages).
    actions: Vec<OpAction>,
    /// Constituent-message index per flattened key of an operation run
    /// (batched ingest; a run of one has all zeros).
    flat_msg: Vec<u32>,
    /// First flattened index of each constituent message of a run.
    msg_starts: Vec<u32>,
    /// Flat replay actions of a hand-over's queue drains.
    ho_actions: Vec<HoAction>,
    /// Counted completions those drains owe, per operation.
    counted: CountedOps,
    /// Per-key `(start, end)` span into `ho_actions`.
    spans: Vec<(u32, u32)>,
    /// Staged values (served pulls, onward hand-overs of a drain, fresh
    /// replica values), copied on into the outgoing message block.
    vals: Vec<f32>,
}

/// One draining demotion batch at its coordinating home node: the keys
/// stay pinned (no relocation) until every other node has confirmed its
/// drain and every already-flushed self batch has been delivered.
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
    replica_rounds_in: HashMap<NodeId, u64>,
    /// Technique-transition epoch of this home (adaptive management),
    /// bumped per promotion/demotion broadcast.
    tech_epoch: u64,
    /// Last transition epoch seen per coordinating home; per-link FIFO
    /// makes the sequence strictly increasing (the fencing witness,
    /// asserted in debug builds).
    tech_epochs_in: HashMap<NodeId, u64>,
    /// Keys whose promotion awaits the relocation-to-home hand-over.
    pending_promote: HashSet<Key>,
    /// Demotion votes per key homed here; a key demotes once every node
    /// has voted, and any promotion interest clears its votes.
    demote_votes: HashMap<Key, BTreeSet<NodeId>>,
    /// Draining demotion batches by epoch.
    demote_draining: HashMap<u64, DemoteDrain>,
    /// Keys pinned by a draining demotion → their epoch.
    demote_pinned: HashMap<Key, u64>,
    /// Localize requests for pinned keys, deferred in arrival order and
    /// replayed when their key's drain completes.
    deferred_localizes: Vec<(OpId, Key)>,
    /// Reusable dispatch buffers (amortized alloc-free).
    scratch: ServerScratch,
    /// Reusable accumulator of consecutive [`Msg::Op`] constituents
    /// during batched ingest.
    op_run: Vec<OpMsg>,
    /// Flight-recorder lane for this server thread (`None` when tracing
    /// is off, so the disabled path costs one pointer test).
    tracer: Option<ServerTracer>,
}

/// The server's flight-recorder lane plus the recorder it belongs to.
struct ServerTracer {
    rec: Arc<Recorder>,
    ring: Arc<Ring>,
}

impl ServerTracer {
    #[inline]
    fn event(&self, kind: EventKind, a: u64, b: u64) {
        self.rec.record(&self.ring, kind, a, b);
    }

    /// Records that the server consumed `msg`.
    #[inline]
    fn recv(&self, msg: &Msg) {
        self.event(EventKind::MsgRecv, msg.tag() as u64, msg.key_count());
    }
}

impl ServerCore {
    /// Creates the server core; initially every home key is owned by its
    /// home node (this node).
    pub fn new(shared: Arc<NodeShared>) -> Self {
        let slots = shared.cfg.home_slots(shared.node);
        let owner = vec![shared.node; slots];
        let tracer = shared.trace.on().then(|| ServerTracer {
            rec: Arc::clone(&shared.trace),
            ring: shared.trace.lane(
                shared.node.0,
                ACTOR_SERVER,
                format!("n{}/server", shared.node.0),
            ),
        });
        ServerCore {
            lane: shared.claim_lane(),
            shared,
            owner,
            replica_subs: Vec::new(),
            replica_round: 0,
            replica_rounds_in: HashMap::new(),
            tech_epoch: 0,
            tech_epochs_in: HashMap::new(),
            pending_promote: HashSet::new(),
            demote_votes: HashMap::new(),
            demote_draining: HashMap::new(),
            demote_pinned: HashMap::new(),
            deferred_localizes: Vec::new(),
            scratch: ServerScratch::default(),
            op_run: Vec::new(),
            tracer,
        }
    }

    /// Whether no technique transition is in progress at this node (all
    /// promotions finished, all demotions drained; diagnostics/tests).
    pub fn transitions_idle(&self) -> bool {
        self.pending_promote.is_empty()
            && self.demote_draining.is_empty()
            && self.demote_pinned.is_empty()
            && self.deferred_localizes.is_empty()
    }

    /// The transition epoch of this home node (diagnostics/tests).
    pub fn tech_epoch(&self) -> u64 {
        self.tech_epoch
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
            t.recv(&msg);
        }
        let mut batches = Batches::default();
        match msg {
            Msg::Op(m) => self.handle_op_run(std::slice::from_ref(&m), &mut batches),
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

    /// Handles one batch envelope: constituents are processed strictly in
    /// arrival order (per-link FIFO is untouched), but runs of
    /// **consecutive operation messages** dispatch together so each shard
    /// latch is taken once per run instead of once per message. Every
    /// non-operation constituent flushes its own `Batches` — the
    /// category flush order (responses before relocates before refreshes
    /// before technique traffic) is a per-message contract; merging it
    /// across, say, a promotion ack and a replica push would reorder a
    /// refresh ahead of the promotion broadcast it depends on.
    pub fn handle_batch(&mut self, mut msgs: Vec<Msg>, sink: &mut MsgSink) {
        self.handle_burst(&mut msgs, sink);
    }

    /// [`ServerCore::handle_batch`] for a caller that keeps its ingest
    /// buffer: drains `msgs` and leaves its capacity behind.
    pub fn handle_burst(&mut self, msgs: &mut Vec<Msg>, sink: &mut MsgSink) {
        if let Some(t) = &self.tracer {
            t.event(EventKind::MsgBatch, 0, msgs.len() as u64);
        }
        let mut run = std::mem::take(&mut self.op_run);
        debug_assert!(run.is_empty());
        for msg in msgs.drain(..) {
            if let (Some(t), Msg::Op(_)) = (&self.tracer, &msg) {
                // An operation joining a run bypasses `handle`, which
                // records every other message.
                t.recv(&msg);
            }
            match msg {
                Msg::Op(m) => run.push(m),
                other => {
                    debug_assert!(
                        !matches!(other, Msg::Batch(_)),
                        "nested batch envelope delivered"
                    );
                    self.flush_op_run(&mut run, sink);
                    self.handle(other, sink);
                }
            }
        }
        self.flush_op_run(&mut run, sink);
        self.op_run = run;
    }

    /// Dispatches the accumulated operation run (if any) as one grouped
    /// round and clears it.
    fn flush_op_run(&mut self, run: &mut Vec<OpMsg>, sink: &mut MsgSink) {
        if run.is_empty() {
            return;
        }
        let mut batches = Batches::default();
        self.handle_op_run(run, &mut batches);
        batches.flush(self.shared.node, sink);
        run.clear();
    }

    // ---- operations ------------------------------------------------------

    /// Dispatches a run of operation messages that arrived back-to-back
    /// on this server's endpoint. A run of one is exactly the historical
    /// per-message path (the simulator and the hand-driven test clusters
    /// only ever pass runs of one, so their outputs are bit-identical);
    /// longer runs — unpacked batch envelopes and ingest bursts — share
    /// the plan/shard/emit phases so each shard latch is acquired once
    /// per **run** instead of once per message. Within a shard, flattened
    /// order preserves message arrival order and per-message key order,
    /// so every per-key state transition happens exactly as it would have
    /// one message at a time.
    fn handle_op_run(&mut self, msgs: &[OpMsg], batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        let policy = cfg.policy();

        // Plan phase: flatten the run's keys, group by shard, record
        // payload spans (per-message value offsets).
        let ServerScratch {
            groups,
            items,
            actions,
            flat_msg,
            msg_starts,
            vals,
            ..
        } = &mut self.scratch;
        groups.clear();
        items.clear();
        actions.clear();
        flat_msg.clear();
        msg_starts.clear();
        vals.clear();
        let mut flat = 0u32;
        for (mi, m) in msgs.iter().enumerate() {
            msg_starts.push(flat);
            let mut val_off = 0u32;
            for &k in m.keys.iter() {
                let len = match m.kind {
                    OpKind::Push => cfg.layout.len(k) as u32,
                    OpKind::Pull => 0,
                };
                flat_msg.push(mi as u32);
                items.push((val_off, len));
                actions.push(OpAction::Done);
                groups.push(cfg.shard_of(k), flat);
                val_off += len;
                flat += 1;
            }
            debug_assert_eq!(
                val_off as usize,
                m.vals.len(),
                "push payload length mismatch"
            );
        }

        // Shard phase: one latch per shard per run; route every key (see
        // module docs for the cases).
        let mut stale_forwards = 0u64;
        // Under adaptive management, ops routed before a promotion
        // broadcast reached their issuer legitimately arrive here for
        // now-replicated keys; the owning home serves them, and served
        // pushes are re-broadcast as refreshes so replicas converge.
        // Tagged with the constituent index: refresh rounds stay
        // per-message.
        let mut repl_fresh: Vec<(u32, Key, u32)> = Vec::new();
        for (shard_idx, idxs) in groups.iter() {
            let mut shard = self.shared.shards[shard_idx].write();
            for &f in idxs {
                let mi = flat_msg[f as usize] as usize;
                let m = &msgs[mi];
                let k = m.keys[(f - msg_starts[mi]) as usize];
                let (off, len) = items[f as usize];
                let val = &m.vals[off as usize..(off + len) as usize];
                debug_assert!(
                    policy.adaptive() || !policy.replicated(k),
                    "op message for replicated key {k} (replicated access is always local)"
                );
                if shard.store.contains(k) {
                    // Serve as owner.
                    match m.kind {
                        OpKind::Push => {
                            let applied = shard.store.add(k, val);
                            debug_assert!(applied);
                            if policy.adaptive()
                                && shard.techniques.replicated(k)
                                && !self.replica_subs.is_empty()
                            {
                                let fresh = shard.store.get(k).expect("just updated");
                                let soff = vals.len() as u32;
                                vals.extend_from_slice(fresh);
                                repl_fresh.push((mi as u32, k, soff));
                            }
                            if m.op.node == self.shared.node {
                                self.shared.tracker.complete_key(m.op.seq, k, None);
                            } else {
                                actions[f as usize] = OpAction::RespPush;
                            }
                        }
                        OpKind::Pull => {
                            let v = shard.store.get(k).expect("contains implies get");
                            if m.op.node == self.shared.node {
                                self.shared.tracker.complete_key(m.op.seq, k, Some(v));
                            } else {
                                let soff = vals.len() as u32;
                                vals.extend_from_slice(v);
                                actions[f as usize] = OpAction::RespPull { soff };
                            }
                        }
                    }
                } else if let Some(inc) = shard.incoming.get_mut(&k) {
                    // Relocating towards this node: park until the
                    // hand-over (Section 3.2).
                    inc.queue.push_back(Queued::Op(QueuedOp {
                        op: m.op,
                        kind: m.kind,
                        val: val.to_vec(),
                    }));
                } else if cfg.home(k) == self.shared.node {
                    // Act as home: forward to the current owner.
                    let owner = self.owner[cfg.home_slot(k)];
                    debug_assert_ne!(
                        owner, self.shared.node,
                        "home believes it owns {k} but the store disagrees"
                    );
                    actions[f as usize] = OpAction::FwdOwner(owner);
                } else {
                    // Direct delivery based on a stale location cache:
                    // forward to the home node (double-forward, Figure 5d).
                    debug_assert!(
                        !m.routed_by_home,
                        "home-routed op for {k} reached a non-owner"
                    );
                    stale_forwards += 1;
                    actions[f as usize] = OpAction::FwdHome(cfg.home(k));
                }
            }
        }
        if stale_forwards > 0 {
            self.lane.loc_cache_stale_forwards.add(stale_forwards);
        }

        // Emit phase: replay decisions per message, in original key
        // order, so grouped replies are identical to the per-key dispatch
        // path. Two constituents carrying the same (op, kind) merge into
        // one response — the origin's tracker completes grouped keys
        // regardless of how they were split across messages.
        let mut resp_bytes = 0u64;
        for (mi, m) in msgs.iter().enumerate() {
            let start = msg_starts[mi];
            for (ki, &k) in m.keys.iter().enumerate() {
                let f = (start + ki as u32) as usize;
                let (off, len) = items[f];
                match actions[f] {
                    OpAction::Done => {}
                    OpAction::HandOver => unreachable!("hand-over action in op dispatch"),
                    OpAction::RespPush => {
                        batches.resp.entry((m.op, m.kind)).keys.push(k);
                    }
                    OpAction::RespPull { soff } => {
                        let vlen = cfg.layout.len(k);
                        let entry = batches.resp.entry((m.op, OpKind::Pull));
                        entry.keys.push(k);
                        entry
                            .vals
                            .push_slice(&vals[soff as usize..soff as usize + vlen]);
                        resp_bytes += 4 * vlen as u64;
                    }
                    OpAction::FwdOwner(owner) => {
                        let entry = batches.fwd_owner.entry((owner, m.op, m.kind));
                        entry.keys.push(k);
                        entry
                            .vals
                            .extend_from_slice(&m.vals[off as usize..(off + len) as usize]);
                    }
                    OpAction::FwdHome(home) => {
                        let entry = batches.fwd_home.entry((home, m.op, m.kind));
                        entry.keys.push(k);
                        entry
                            .vals
                            .extend_from_slice(&m.vals[off as usize..(off + len) as usize]);
                    }
                }
            }
        }
        if resp_bytes > 0 {
            self.lane.value_bytes_moved.add(resp_bytes);
        }

        // Adaptive: broadcast refreshes for replicated keys that were
        // just pushed directly (drained in-flight traffic), so replica
        // holders see the update without waiting for an unrelated flush.
        // One broadcast per constituent message that served such pushes:
        // refresh rounds bump exactly as on the per-message path.
        if !repl_fresh.is_empty() {
            for mi in 0..msgs.len() as u32 {
                let mut keys = Vec::new();
                let mut block = ValueBlockBuilder::default();
                for &(fmi, k, soff) in &repl_fresh {
                    if fmi != mi {
                        continue;
                    }
                    let vlen = self.shared.cfg.layout.len(k);
                    keys.push(k);
                    block.push_slice(&self.scratch.vals[soff as usize..soff as usize + vlen]);
                }
                if !keys.is_empty() {
                    self.broadcast_refresh(keys, block.finish(), None, batches);
                }
            }
        }
    }

    fn handle_resp(&mut self, m: OpRespMsg) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        debug_assert_eq!(m.op.node, self.shared.node, "response at wrong node");
        if cfg.location_caches {
            for &k in &m.keys {
                cfg.policy()
                    .note_owner(&mut self.shared.shard_for(k).write(), k, m.owner);
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
    /// instruct each old owner. Under adaptive management, keys that are
    /// currently replicated (or promoting) refuse relocation — the
    /// requester's parked localize completes when the promotion broadcast
    /// drains its incoming entry — and keys pinned by a draining demotion
    /// are deferred until the drain completes.
    fn handle_localize(&mut self, m: LocalizeReqMsg, batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        let policy = cfg.policy();
        let requester = m.op.node;
        let mut per_old: OrderedGroups<NodeId, Vec<Key>> = OrderedGroups::new();
        for &k in &m.keys {
            debug_assert_eq!(cfg.home(k), self.shared.node, "localize at wrong home");
            if policy.adaptive() {
                if self.pending_promote.contains(&k)
                    || self.shared.shard_for(k).read().techniques.replicated(k)
                {
                    continue;
                }
                if let Some(&epoch) = self.demote_pinned.get(&k) {
                    let drain = self
                        .demote_draining
                        .get(&epoch)
                        .expect("pinned key without drain state");
                    if drain.awaiting.contains(&requester) {
                        // Stale: issued before the requester learned of
                        // the demotion (its drain confirmation has not
                        // arrived on this FIFO link yet), so the request
                        // already completed at the requester when the
                        // promotion broadcast drained its incoming entry.
                        // Relocating for it would hand the key to a node
                        // that no longer expects it.
                        continue;
                    }
                    self.deferred_localizes.push((m.op, k));
                    continue;
                }
            }
            let slot = cfg.home_slot(k);
            let old = self.owner[slot];
            self.owner[slot] = requester;
            self.lane.relocations.add(1);
            if let Some(t) = &self.tracer {
                t.event(EventKind::RelocStart, k.0, old.0 as u64);
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
    /// A value is copied once, from its arena slot into the hand-over
    /// block, under its shard's latch. Shards are visited in grouping
    /// order and the block must be in message key order, so the block
    /// gets room for every key up front and each value is written at its
    /// key's offset; the gaps of keys that turned out not to be handed
    /// over (parked, degenerate) are closed afterwards.
    fn handle_relocate(&mut self, m: RelocateMsg, batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        let policy = cfg.policy();
        let ServerScratch {
            groups,
            items,
            actions,
            ..
        } = &mut self.scratch;
        groups.clear();
        items.clear();
        actions.clear();
        let mut total = 0u32;
        for (i, &k) in m.keys.iter().enumerate() {
            let len = cfg.layout.len(k) as u32;
            items.push((total, len));
            actions.push(OpAction::Done);
            groups.push(cfg.shard_of(k), i as u32);
            total += len;
        }

        let dst = (m.new_owner, m.op);
        // Float offset of this message's values in the hand-over block
        // for `dst`, once the first of them is written.
        let mut base: Option<usize> = None;
        let (mut handed, mut degenerate, mut unexpected) = (0usize, 0u32, 0u64);
        for (shard_idx, idxs) in groups.iter() {
            let mut shard = self.shared.shards[shard_idx].write();
            for &i in idxs {
                let k = m.keys[i as usize];
                if m.new_owner == self.shared.node && shard.store.contains(k) {
                    // Degenerate self-relocation (the requester already
                    // owned the key when the home processed its request):
                    // the value stays in place; complete the localize.
                    self.shared.tracker.note_counted(m.op.seq, k, -1);
                    degenerate += 1;
                } else if let Some(slot) = shard.store.take(k) {
                    policy.note_owner(&mut shard, k, m.new_owner);
                    let block = &mut batches.handover.entry(dst).vals;
                    let base = *base.get_or_insert_with(|| block.extend_zeroed(total as usize));
                    block.write_at(
                        base + items[i as usize].0 as usize,
                        shard.store.slot_slice(slot),
                    );
                    shard.store.release(slot);
                    actions[i as usize] = OpAction::HandOver;
                    handed += 1;
                } else if let Some(inc) = shard.incoming.get_mut(&k) {
                    inc.queue.push_back(Queued::Relocate {
                        op: m.op,
                        new_owner: m.new_owner,
                    });
                } else {
                    if let Some(t) = &self.tracer {
                        // Flush the recorder before the debug assertion so
                        // the events leading up to the violation survive
                        // the panic in debug builds.
                        t.event(EventKind::RelocUnexpected, k.0, m.new_owner.0 as u64);
                        t.rec.dump("unexpected relocate");
                    }
                    debug_assert!(
                        false,
                        "relocate for {k} which is neither owned nor expected"
                    );
                    unexpected += 1;
                }
            }
        }
        if degenerate > 0 {
            self.shared.tracker.complete_counted(m.op.seq, degenerate);
        }
        if unexpected > 0 {
            self.lane.unexpected_relocates.add(unexpected);
        }
        let Some(base) = base else {
            return;
        };

        // Emit phase: the hand-over's keys in original key order.
        let entry = batches.handover.entry(dst);
        if let Some(t) = &self.tracer {
            for (i, &k) in m.keys.iter().enumerate() {
                if matches!(actions[i], OpAction::HandOver) {
                    t.event(EventKind::RelocHandOver, k.0, m.new_owner.0 as u64);
                }
            }
        }
        let mut end = base + total as usize;
        if handed == m.keys.len() {
            entry.keys.extend_from_slice(&m.keys);
        } else {
            end = base;
            for (i, &k) in m.keys.iter().enumerate() {
                if matches!(actions[i], OpAction::HandOver) {
                    let (off, len) = (items[i].0 as usize, items[i].1 as usize);
                    entry.keys.push(k);
                    entry.vals.copy_within(base + off, len, end);
                    end += len;
                }
            }
            entry.vals.truncate(end);
        }
        self.lane.value_bytes_moved.add(4 * (end - base) as u64);
    }

    /// Message 3, at the new owner: install the values straight from the
    /// message block into the store arena, complete waiting localizes,
    /// and drain parked operations in arrival order.
    fn handle_handover(&mut self, m: HandOverMsg, batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        let policy = cfg.policy();
        let ServerScratch {
            groups,
            items,
            ho_actions,
            counted,
            spans,
            vals,
            ..
        } = &mut self.scratch;
        groups.clear();
        items.clear();
        ho_actions.clear();
        counted.clear();
        spans.clear();
        vals.clear();
        let mut block_off = 0u32;
        for (i, &k) in m.keys.iter().enumerate() {
            let len = cfg.layout.len(k) as u32;
            items.push((block_off, len));
            spans.push((0, 0));
            groups.push(cfg.shard_of(k), i as u32);
            block_off += len;
        }
        debug_assert_eq!(
            block_off as usize,
            m.vals.len(),
            "handover payload length mismatch"
        );

        let mut installed = 0u64;
        for (shard_idx, idxs) in groups.iter() {
            let mut shard = self.shared.shards[shard_idx].write();
            for &i in idxs {
                let k = m.keys[i as usize];
                let (off, _) = items[i as usize];
                // Install: block bytes copy directly into the arena slot.
                shard
                    .store
                    .insert_with(k, |dst| m.vals.copy_to(off as usize, dst));
                installed += 1;
                if let Some(t) = &self.tracer {
                    t.event(EventKind::RelocInstall, k.0, items[i as usize].1 as u64);
                }
                let Some(entry) = shard.incoming.remove(&k) else {
                    debug_assert!(false, "hand-over for {k} without incoming entry");
                    continue;
                };
                let start = ho_actions.len() as u32;
                for op in entry.waiting_localizes() {
                    debug_assert_eq!(op.node, self.shared.node);
                    counted.owe(op.seq);
                    ho_actions.push(HoAction::LocalizeDone(op));
                }
                // Drain parked work in arrival order, recording state
                // changes now (under the latch) and emissions/completions
                // for the in-order replay below. A parked Relocate moves
                // the key onward; operations parked after it are
                // re-dispatched through normal routing and will reach the
                // key's current owner via home.
                let mut moved_on = false;
                for item in entry.queue {
                    match item {
                        Queued::Op(q) => {
                            if !moved_on {
                                ho_actions.push(serve_parked(&self.shared, &mut shard, k, q, vals));
                            } else {
                                let (to_owner, dst) = if cfg.home(k) == self.shared.node {
                                    (true, self.owner[cfg.home_slot(k)])
                                } else {
                                    (false, cfg.home(k))
                                };
                                ho_actions.push(HoAction::Redispatch {
                                    op: q.op,
                                    kind: q.kind,
                                    val: q.val,
                                    to_owner,
                                    dst,
                                });
                            }
                        }
                        Queued::Relocate { op, new_owner } => {
                            debug_assert!(!moved_on, "second parked relocate for {k}");
                            debug_assert_ne!(new_owner, self.shared.node);
                            let slot = shard
                                .store
                                .take(k)
                                .expect("parked relocate found missing key");
                            policy.note_owner(&mut shard, k, new_owner);
                            let soff = vals.len() as u32;
                            vals.extend_from_slice(shard.store.slot_slice(slot));
                            shard.store.release(slot);
                            ho_actions.push(HoAction::Onward(op, new_owner, soff));
                            moved_on = true;
                        }
                    }
                }
                if moved_on && self.pending_promote.contains(&k) {
                    // A pre-promotion relocation chain is still playing
                    // out; the promote coordinator's relocation-to-home
                    // chases it, so expect the key to come back.
                    shard.incoming.insert(k, IncomingState::default());
                }
                spans[i as usize] = (start, ho_actions.len() as u32);
            }
        }
        if installed > 0 {
            self.lane.handovers_in.add(installed);
        }

        // Emit phase: replay each key's recorded emissions in original
        // key order (and per key in queue-arrival order).
        let moved_bytes = replay_drain(
            &self.shared,
            &m.keys,
            spans,
            ho_actions,
            counted,
            vals,
            batches,
        );
        if moved_bytes > 0 {
            self.lane.value_bytes_moved.add(moved_bytes);
        }

        // Adaptive: promotions that were waiting for this relocation to
        // bring their key home can now finish (unless the drain moved the
        // key onward — then a later hand-over finishes them).
        if !self.pending_promote.is_empty() {
            let finish: Vec<Key> = m
                .keys
                .iter()
                .copied()
                .filter(|&k| {
                    self.pending_promote.contains(&k)
                        && self.shared.shard_for(k).read().store.contains(k)
                })
                .collect();
            if !finish.is_empty() {
                self.finish_promotion(&finish, batches);
            }
        }
    }

    // ---- replication (NuPS §2) --------------------------------------------

    /// Replica-sync message 1: register a subscriber and answer with an
    /// initial snapshot of every replicated key homed here.
    fn handle_replica_reg(&mut self, m: ReplicaRegMsg, batches: &mut Batches) {
        debug_assert_ne!(m.node, self.shared.node, "self-registration");
        if self.replica_subs.contains(&m.node) {
            return;
        }
        self.replica_subs.push(m.node);
        let cfg: &ProtoConfig = &self.shared.cfg;
        let policy = cfg.policy();
        let mut keys = Vec::new();
        let mut vals = ValueBlockBuilder::default();
        if policy.adaptive() {
            // The dynamic tables name the replicated set directly (one
            // latch per shard), instead of probing every home key.
            for key in self.shared.replicated_keys() {
                if cfg.home(key) != self.shared.node {
                    continue; // a replica held here, homed elsewhere
                }
                let shard = self.shared.shard_for(key).read();
                let v = shard.store.get(key).expect("owner stores replicated key");
                keys.push(key);
                vals.push_slice(v);
            }
        } else {
            for key in cfg.home_keys(self.shared.node) {
                // The static hot set answers from the configuration
                // alone — no latch for the (typically vast) tail.
                if !policy.replicated(key) {
                    continue;
                }
                let shard = self.shared.shard_for(key).read();
                let v = shard.store.get(key).expect("owner stores replicated key");
                keys.push(key);
                vals.push_slice(v);
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
    /// sent back to the pusher acknowledges exactly `m.flush_seq`, so its
    /// in-flight batch is retired only once the owner has really applied
    /// it — flushes of concurrent workers that overtake each other on the
    /// wire cannot retire one another's batches.
    fn handle_replica_push(&mut self, m: ReplicaPushMsg, batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        let policy = cfg.policy();
        let own_flush = m.node == self.shared.node;
        let adaptive = policy.adaptive();
        let broadcast = !self.replica_subs.is_empty();
        // Under adaptive management, keys demoted since the flush left
        // its sender still apply here (the home owns them while pinned)
        // but are excluded from the refresh broadcast — the subscribers
        // have dropped (or are about to drop) their replicas.
        let mut included: Vec<bool> = Vec::new();
        // Group by shard so each shard's deltas are applied — and, for the
        // owner's own flushes, its in-flight batch retired — under one
        // latch: the owned store is the owner's replica view, so a local
        // reader must never see a shard's batch retired while some of its
        // deltas are still unapplied (dropped writes) or vice versa
        // (double count).
        let ServerScratch {
            groups,
            items,
            vals,
            ..
        } = &mut self.scratch;
        groups.clear();
        items.clear();
        vals.clear();
        let mut val_off = 0u32;
        for (i, &k) in m.keys.iter().enumerate() {
            debug_assert!(
                adaptive || policy.replicated(k),
                "replica push for unreplicated {k}"
            );
            debug_assert_eq!(cfg.home(k), self.shared.node, "replica push at wrong owner");
            let len = cfg.layout.len(k) as u32;
            items.push((val_off, len));
            groups.push(cfg.shard_of(k), i as u32);
            val_off += len;
        }
        if adaptive && broadcast {
            included.resize(m.keys.len(), false);
        }
        debug_assert_eq!(
            val_off as usize,
            m.vals.len(),
            "replica push payload mismatch"
        );
        if broadcast {
            // Stage the fresh values at the same offsets as the incoming
            // deltas, so the broadcast block is in `m.keys` order.
            vals.resize(val_off as usize, 0.0);
        }
        let mut applied_keys = 0u64;
        // Straggler deltas (adaptive, threaded backend): a worker records
        // a flush's in-flight batch under the latch before its message is
        // actually enqueued on the link, so a demotion drain can complete
        // — and the key relocate away — with that flush still undelivered.
        // The home then no longer owns the key; the delta is forwarded to
        // the current owner below instead of being dropped.
        let mut stragglers: Vec<(Key, u32, u32)> = Vec::new();
        for (shard_idx, idxs) in groups.iter() {
            let mut shard = self.shared.shards[shard_idx].write();
            for &i in idxs {
                let k = m.keys[i as usize];
                let (off, len) = items[i as usize];
                let applied = shard
                    .store
                    .add(k, &m.vals[off as usize..(off + len) as usize]);
                if !applied {
                    debug_assert!(adaptive, "owner lost replicated key {k}");
                    stragglers.push((k, off, len));
                    if broadcast && adaptive {
                        included[i as usize] = false;
                    }
                    continue;
                }
                if broadcast {
                    let fresh = shard.store.get(k).expect("just updated");
                    vals[off as usize..(off + len) as usize].copy_from_slice(fresh);
                    if adaptive {
                        included[i as usize] = shard.techniques.replicated(k);
                    }
                }
                applied_keys += 1;
            }
            if own_flush {
                shard.replica.retire(self.shared.node, m.flush_seq);
            }
        }
        if applied_keys > 0 {
            self.lane.replica_pushes_applied.add(applied_keys);
        }
        for (k, off, len) in stragglers {
            let owner = self.owner[cfg.home_slot(k)];
            // Fire-and-forget tracked push: the abandoned entry is
            // reclaimed when the owner's acknowledgement completes it,
            // so nothing leaks and nobody is woken.
            let seq = self
                .shared
                .tracker
                .begin(crate::tracker::TrackedKind::Push, 0, None);
            self.shared
                .tracker
                .add_keys(seq, false, false, std::iter::once((k, 0, 0)));
            self.shared.tracker.seal(seq);
            self.shared.tracker.abandon(seq);
            let entry =
                batches
                    .fwd_owner
                    .entry((owner, OpId::new(self.shared.node, seq), OpKind::Push));
            entry.keys.push(k);
            entry
                .vals
                .extend_from_slice(&m.vals[off as usize..(off + len) as usize]);
        }
        if broadcast {
            // Build the broadcast payload once; every subscriber's
            // refresh clones the same block (a reference-count bump, not
            // a copy). Under adaptive management only keys that are still
            // replicated broadcast (possibly none).
            let (bkeys, block) = if adaptive {
                let mut keys: Vec<Key> = Vec::new();
                let mut blk = ValueBlockBuilder::default();
                for (i, &k) in m.keys.iter().enumerate() {
                    if included[i] {
                        let (off, len) = items[i];
                        keys.push(k);
                        blk.push_slice(&vals[off as usize..(off + len) as usize]);
                    }
                }
                (keys, blk.finish())
            } else {
                let mut blk = ValueBlockBuilder::with_capacity(vals.len());
                blk.push_slice(vals);
                (m.keys.clone(), blk.finish())
            };
            self.broadcast_refresh(bkeys, block, Some((m.node, m.flush_seq)), batches);
        }
        // A delivered self flush releases its hold on keys pinned by a
        // draining demotion (their deltas were applied above). Done last:
        // completing a drain replays deferred localizes, which reuse the
        // dispatch scratch this handler has finished with.
        if own_flush && adaptive && !self.demote_pinned.is_empty() {
            let mut touched: Vec<u64> = Vec::new();
            for &k in &m.keys {
                if let Some(&epoch) = self.demote_pinned.get(&k) {
                    let drain = self
                        .demote_draining
                        .get_mut(&epoch)
                        .expect("pinned key without drain state");
                    debug_assert!(drain.self_flushes > 0, "self-flush underflow for {k}");
                    drain.self_flushes -= 1;
                    if !touched.contains(&epoch) {
                        touched.push(epoch);
                    }
                }
            }
            for epoch in touched {
                self.maybe_complete_demotion(epoch, batches);
            }
        }
    }

    /// Replica-sync message 3, at a replica holder: install the fresh
    /// values and retire the acknowledged in-flight batch. Install and
    /// retirement happen under one latch per shard: the refreshed values
    /// already include the acknowledged deltas, so a reader must never
    /// see both (double count) or neither (dropped writes).
    fn handle_replica_refresh(&mut self, m: ReplicaRefreshMsg) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        let policy = cfg.policy();
        // Rounds from one owner arrive strictly increasing (per-link
        // FIFO); a violation means refreshes were reordered and stale
        // values could overwrite fresh ones.
        let last_round = self.replica_rounds_in.entry(m.owner).or_insert(0);
        debug_assert!(
            m.round > *last_round,
            "refresh round {} from {} after round {last_round}",
            m.round,
            m.owner
        );
        *last_round = m.round;
        let ServerScratch { groups, items, .. } = &mut self.scratch;
        groups.clear();
        items.clear();
        let mut val_off = 0u32;
        for (i, &k) in m.keys.iter().enumerate() {
            debug_assert!(
                policy.adaptive() || policy.replicated(k),
                "refresh for unreplicated {k}"
            );
            debug_assert_eq!(cfg.home(k), m.owner, "refresh from non-owner");
            let len = cfg.layout.len(k) as u32;
            items.push((val_off, len));
            groups.push(cfg.shard_of(k), i as u32);
            val_off += len;
        }
        debug_assert_eq!(val_off as usize, m.vals.len(), "refresh payload mismatch");
        let mut refreshed = 0u64;
        for (shard_idx, idxs) in groups.iter() {
            let mut shard = self.shared.shards[shard_idx].write();
            for &i in idxs {
                let k = m.keys[i as usize];
                let (off, len) = items[i as usize];
                // Per-link FIFO fences refreshes against transition
                // broadcasts: a refresh for a key this node demoted (or
                // has not promoted yet) cannot arrive.
                debug_assert!(
                    policy.replicated_in(k, &shard),
                    "refresh for unreplicated {k}"
                );
                // Fresh values copy straight from the message block into
                // the replica view.
                shard
                    .replica
                    .refresh_with(k, len as usize, |dst| m.vals.copy_to(off as usize, dst));
                refreshed += 1;
            }
            if m.ack > 0 {
                // An acked batch's keys are exactly the refreshed keys, so
                // every shard holding a part of it is visited here.
                shard.replica.retire(m.owner, m.ack);
            }
        }
        if refreshed > 0 {
            self.lane.replica_refreshes.add(refreshed);
            // Serving-epoch publication: the replica tier just caught up
            // with owner state as of the current epoch (snapshot plane
            // staleness bound, see `crate::serving`).
            self.shared.serving.note_refresh();
        }
    }

    // ---- technique transitions (adaptive management) ----------------------

    /// Transition message 1, at the home node: promote hot keys to
    /// replication. A key whose value already sits at home promotes
    /// immediately; otherwise the home first relocates it to itself
    /// (reusing the relocation protocol with itself as requester) and the
    /// promotion finishes when the hand-over arrives. Requests for keys
    /// already replicated, already promoting, or draining a demotion are
    /// dropped (the controller re-sends after its TTL); any promotion
    /// interest clears stale demotion votes.
    fn handle_technique_promote(&mut self, m: TechniquePromoteMsg, batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        debug_assert!(
            cfg.policy().adaptive(),
            "technique transition without adaptive variant"
        );
        if let Some(t) = &self.tracer {
            t.event(EventKind::TechPromote, m.node.0 as u64, m.keys.len() as u64);
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
            self.demote_votes.remove(&k);
            if self.pending_promote.contains(&k) || self.demote_pinned.contains_key(&k) {
                continue;
            }
            let slot = cfg.home_slot(k);
            let owner = self.owner[slot];
            let mut shard = self.shared.shard_for(k).write();
            if shard.techniques.replicated(k) {
                continue;
            }
            if owner == self.shared.node {
                if shard.store.contains(k) {
                    drop(shard);
                    finish.push(k);
                } else {
                    // Already relocating here (a home worker's localize);
                    // the hand-over finishes the promotion.
                    debug_assert!(
                        shard.incoming.contains_key(&k),
                        "home owns {k} without value or pending hand-over"
                    );
                    drop(shard);
                    self.pending_promote.insert(k);
                }
                continue;
            }
            // Relocate the key home first: owner-table update now,
            // instruct the old owner, park everything else meanwhile.
            shard.incoming.entry(k).or_default();
            drop(shard);
            self.owner[slot] = self.shared.node;
            self.pending_promote.insert(k);
            started += 1;
            per_old.entry(owner).push(k);
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

    /// Finishes promotions for keys whose value is at home: flips the
    /// local technique table and broadcasts the epoch-fenced
    /// [`TechniquePromoteAckMsg`] with the authoritative values to every
    /// other node.
    fn finish_promotion(&mut self, keys: &[Key], batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        let mut block = ValueBlockBuilder::default();
        for &k in keys {
            self.pending_promote.remove(&k);
            self.demote_votes.remove(&k);
            let mut shard = self.shared.shard_for(k).write();
            let promoted = shard.techniques.promote(k);
            debug_assert!(promoted, "double promotion of {k}");
            let v = shard
                .store
                .get(k)
                .expect("promotion finishing without the value at home");
            block.push_slice(v);
            shard.loc_cache.remove(&k);
        }
        self.lane.tech_promotions.add(keys.len() as u64);
        self.tech_epoch += 1;
        if let Some(t) = &self.tracer {
            t.event(
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

    /// Transition message 2, at every other node: install the replicas
    /// and flip the local technique table. If a refused localize left an
    /// incoming entry here, drain it: waiting localizes complete, parked
    /// local pushes accumulate into the replica (visible to subsequent
    /// local reads), parked local pulls serve from the fresh replica
    /// view, and parked remote-origin operations re-dispatch to the
    /// owning home — not a single update is lost or applied twice.
    fn handle_technique_promote_ack(&mut self, m: TechniquePromoteAckMsg, batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        debug_assert_ne!(m.home, self.shared.node, "self-addressed promote broadcast");
        // Epoch fencing: transitions from one home arrive strictly
        // increasing (per-link FIFO); a violation means a stale broadcast
        // could overwrite a newer technique decision.
        let last = self.tech_epochs_in.entry(m.home).or_insert(0);
        debug_assert!(
            m.epoch > *last,
            "transition epoch {} from {} after epoch {last}",
            m.epoch,
            m.home
        );
        *last = m.epoch;

        let ServerScratch {
            groups,
            items,
            ho_actions,
            counted,
            spans,
            vals,
            ..
        } = &mut self.scratch;
        groups.clear();
        items.clear();
        ho_actions.clear();
        counted.clear();
        spans.clear();
        vals.clear();
        let mut block_off = 0u32;
        for (i, &k) in m.keys.iter().enumerate() {
            debug_assert_eq!(cfg.home(k), m.home, "promote broadcast from non-home");
            let len = cfg.layout.len(k) as u32;
            items.push((block_off, len));
            spans.push((0, 0));
            groups.push(cfg.shard_of(k), i as u32);
            block_off += len;
        }
        debug_assert_eq!(block_off as usize, m.vals.len(), "promote payload mismatch");

        let mut accumulated = 0u64;
        for (shard_idx, idxs) in groups.iter() {
            let mut shard = self.shared.shards[shard_idx].write();
            for &i in idxs {
                let k = m.keys[i as usize];
                let (off, len) = items[i as usize];
                let promoted = shard.techniques.promote(k);
                debug_assert!(promoted, "promote broadcast for already-promoted {k}");
                shard
                    .replica
                    .refresh_with(k, len as usize, |dst| m.vals.copy_to(off as usize, dst));
                shard.loc_cache.remove(&k);
                let start = ho_actions.len() as u32;
                if let Some(entry) = shard.incoming.remove(&k) {
                    // A localize raced the promotion and was refused at
                    // home; complete it (the key is as local as it gets)
                    // and drain everything parked behind it.
                    for op in entry.waiting_localizes() {
                        debug_assert_eq!(op.node, self.shared.node);
                        counted.owe(op.seq);
                        ho_actions.push(HoAction::LocalizeDone(op));
                    }
                    for item in entry.queue {
                        match item {
                            Queued::Op(q) => {
                                if q.op.node == self.shared.node {
                                    match q.kind {
                                        OpKind::Push => {
                                            shard.replica.accumulate(k, &q.val);
                                            accumulated += 1;
                                            ho_actions.push(HoAction::LocalPush(q.op));
                                        }
                                        OpKind::Pull => {
                                            let vlen = cfg.layout.len(k);
                                            let soff = vals.len() as u32;
                                            vals.resize(soff as usize + vlen, 0.0);
                                            let ok = shard.read_replicated(
                                                k,
                                                &mut vals[soff as usize..soff as usize + vlen],
                                            );
                                            debug_assert!(ok, "promoted {k} without replica view");
                                            ho_actions.push(HoAction::LocalPull(q.op, soff));
                                        }
                                    }
                                } else {
                                    // Remote-origin operations re-route to
                                    // the owning home.
                                    ho_actions.push(HoAction::Redispatch {
                                        op: q.op,
                                        kind: q.kind,
                                        val: q.val,
                                        to_owner: false,
                                        dst: m.home,
                                    });
                                }
                            }
                            Queued::Relocate { .. } => {
                                // Home refuses localizes for promoting
                                // keys, so no relocate instruction can be
                                // parked here.
                                debug_assert!(false, "parked relocate for promoted {k}");
                            }
                        }
                    }
                }
                spans[i as usize] = (start, ho_actions.len() as u32);
            }
        }
        if accumulated > 0 {
            // Keep the auto-flush trigger honest about the drained
            // pushes (the issuing workers flush after completion anyway).
            self.shared
                .replica
                .unflushed
                .fetch_add(accumulated, Relaxed);
        }

        let moved_bytes = replay_drain(
            &self.shared,
            &m.keys,
            spans,
            ho_actions,
            counted,
            vals,
            batches,
        );
        if moved_bytes > 0 {
            self.lane.value_bytes_moved.add(moved_bytes);
        }
        if let Some(ad) = &self.shared.adaptive {
            ad.transition_applied(&m.keys);
        }
    }

    /// Transition message 3, at the home node: a demotion vote. The key
    /// demotes once every node (including this one — its controller votes
    /// over the self link) has voted; promotion interest clears votes.
    fn handle_technique_demote(&mut self, m: TechniqueDemoteMsg, batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        debug_assert!(
            cfg.policy().adaptive(),
            "technique transition without adaptive variant"
        );
        let mut demote: Vec<Key> = Vec::new();
        for &k in &m.keys {
            debug_assert_eq!(cfg.home(k), self.shared.node, "demote vote at wrong home");
            if self.pending_promote.contains(&k) || self.demote_pinned.contains_key(&k) {
                continue;
            }
            if !self.shared.shard_for(k).read().techniques.replicated(k) {
                continue;
            }
            let votes = self.demote_votes.entry(k).or_default();
            votes.insert(m.node);
            if votes.len() == cfg.nodes as usize {
                demote.push(k);
            }
        }
        if !demote.is_empty() {
            self.start_demotion(demote, batches);
        }
    }

    /// Starts a demotion batch: flips the home's technique table (its own
    /// accumulated deltas apply directly — it is the owner), broadcasts
    /// the epoch-fenced [`TechniqueDemoteAckMsg`], and pins the keys —
    /// relocation stays disabled until every node has drained and every
    /// already-flushed self batch has been delivered, so no delta can
    /// chase a key that has moved away.
    fn start_demotion(&mut self, keys: Vec<Key>, batches: &mut Batches) {
        let cfg: &ProtoConfig = &self.shared.cfg;
        self.tech_epoch += 1;
        let epoch = self.tech_epoch;
        if let Some(t) = &self.tracer {
            t.event(EventKind::TechDemote, epoch, keys.len() as u64);
        }
        let mut self_flushes = 0u64;
        for &k in &keys {
            self.demote_votes.remove(&k);
            let mut shard = self.shared.shard_for(k).write();
            let was = shard.techniques.demote(k);
            debug_assert!(was, "demotion of unreplicated {k}");
            debug_assert!(
                !shard.replica.values.contains_key(&k),
                "home holds a replica of its own key {k}"
            );
            if let Some(delta) = shard.replica.pending.remove(&k) {
                let applied = shard.store.add(k, &delta);
                debug_assert!(applied, "home lost demoted key {k}");
            }
            self_flushes += shard
                .replica
                .in_flight
                .iter()
                .filter(|(o, _, b)| *o == self.shared.node && b.contains_key(&k))
                .count() as u64;
            shard.loc_cache.remove(&k);
            drop(shard);
            self.demote_pinned.insert(k, epoch);
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
        let last = self.tech_epochs_in.entry(m.home).or_insert(0);
        debug_assert!(
            m.epoch > *last,
            "transition epoch {} from {} after epoch {last}",
            m.epoch,
            m.home
        );
        *last = m.epoch;

        let mut drained_keys: Vec<Key> = Vec::new();
        let mut drained_vals: Vec<f32> = Vec::new();
        for &k in &m.keys {
            debug_assert_eq!(cfg.home(k), m.home, "demote broadcast from non-home");
            let mut shard = self.shared.shard_for(k).write();
            let was = shard.techniques.demote(k);
            debug_assert!(was, "demote broadcast for unreplicated {k}");
            shard.replica.values.remove(&k);
            if let Some(delta) = shard.replica.pending.remove(&k) {
                drained_keys.push(k);
                drained_vals.extend_from_slice(&delta);
            }
            for (o, _, batch) in shard.replica.in_flight.iter_mut() {
                if *o == m.home {
                    batch.remove(&k);
                }
            }
            shard.replica.in_flight.retain(|(_, _, b)| !b.is_empty());
            shard.loc_cache.remove(&k);
            debug_assert!(
                !shard.incoming.contains_key(&k),
                "replicated {k} had a relocation in flight"
            );
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
    /// deltas (the home owns every demoted key while it is pinned) and
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
            debug_assert!(applied, "home lost pinned key {k}");
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
                t.event(EventKind::TechDrained, m.epoch, m.node.0 as u64);
            }
            self.maybe_complete_demotion(m.epoch, batches);
        } else {
            debug_assert!(false, "drain confirmation for unknown epoch {}", m.epoch);
        }
    }

    /// Completes a demotion batch once fully drained: unpins its keys and
    /// replays localizes deferred while they were pinned (in arrival
    /// order).
    fn maybe_complete_demotion(&mut self, epoch: u64, batches: &mut Batches) {
        let done = self
            .demote_draining
            .get(&epoch)
            .is_some_and(|d| d.awaiting.is_empty() && d.self_flushes == 0);
        if !done {
            return;
        }
        let drain = self.demote_draining.remove(&epoch).expect("checked above");
        for k in &drain.keys {
            let pinned = self.demote_pinned.remove(k);
            debug_assert_eq!(pinned, Some(epoch), "pin epoch mismatch for {k}");
        }
        if self.deferred_localizes.is_empty() {
            return;
        }
        let unpinned: Vec<(OpId, Key)> = {
            let keys = &drain.keys;
            let (ready, still): (Vec<_>, Vec<_>) = self
                .deferred_localizes
                .drain(..)
                .partition(|(_, k)| keys.contains(k));
            self.deferred_localizes = still;
            ready
        };
        for (op, k) in unpinned {
            self.handle_localize(LocalizeReqMsg { op, keys: vec![k] }, batches);
        }
    }
}

/// Replays recorded per-key drain actions in original key order (and per
/// key in queue-arrival order): tracker completions, response/forward
/// batching, onward hand-overs. Shared by the hand-over path and the
/// promotion-broadcast drain. Returns the value bytes moved into
/// outgoing messages.
fn replay_drain(
    shared: &NodeShared,
    keys: &[Key],
    spans: &[(u32, u32)],
    ho_actions: &mut [HoAction],
    counted: &mut CountedOps,
    vals: &[f32],
    batches: &mut Batches,
) -> u64 {
    let cfg: &ProtoConfig = &shared.cfg;
    let mut moved_bytes = 0u64;
    for (i, &k) in keys.iter().enumerate() {
        let (start, end) = spans[i];
        for j in start..end {
            match std::mem::take(&mut ho_actions[j as usize]) {
                HoAction::None => {}
                HoAction::LocalizeDone(op) => {
                    shared.tracker.note_counted(op.seq, k, -1);
                    if let Some(n) = counted.replayed(op.seq) {
                        shared.tracker.complete_counted(op.seq, n);
                    }
                }
                HoAction::LocalPush(op) => {
                    // Parked by its issuer (a counted key) or by this
                    // server after a trip via the home node (identified,
                    // guard-counted): the tracker knows which.
                    shared.tracker.complete_key(op.seq, k, None);
                }
                HoAction::LocalPull(op, soff) => {
                    let vlen = cfg.layout.len(k);
                    shared.tracker.complete_key(
                        op.seq,
                        k,
                        Some(&vals[soff as usize..soff as usize + vlen]),
                    );
                }
                HoAction::RespPush(op) => {
                    batches.resp.entry((op, OpKind::Push)).keys.push(k);
                }
                HoAction::RespPull(op, soff) => {
                    let vlen = cfg.layout.len(k);
                    let entry = batches.resp.entry((op, OpKind::Pull));
                    entry.keys.push(k);
                    entry
                        .vals
                        .push_slice(&vals[soff as usize..soff as usize + vlen]);
                    moved_bytes += 4 * vlen as u64;
                }
                HoAction::Redispatch {
                    op,
                    kind,
                    val,
                    to_owner,
                    dst,
                } => {
                    let entry = if to_owner {
                        batches.fwd_owner.entry((dst, op, kind))
                    } else {
                        batches.fwd_home.entry((dst, op, kind))
                    };
                    entry.keys.push(k);
                    entry.vals.extend_from_slice(&val);
                }
                HoAction::Onward(op, new_owner, soff) => {
                    let vlen = cfg.layout.len(k);
                    let entry = batches.handover.entry((new_owner, op));
                    entry.keys.push(k);
                    entry
                        .vals
                        .push_slice(&vals[soff as usize..soff as usize + vlen]);
                    moved_bytes += 4 * vlen as u64;
                }
            }
        }
    }
    moved_bytes
}

/// Serves a parked operation now that the key is owned: applies state
/// under the latch, returns the completion/emission to replay in order.
fn serve_parked(
    shared: &NodeShared,
    shard: &mut Shard,
    k: Key,
    q: QueuedOp,
    vals: &mut Vec<f32>,
) -> HoAction {
    match q.kind {
        OpKind::Push => {
            let applied = shard.store.add(k, &q.val);
            debug_assert!(applied);
            if q.op.node == shared.node {
                HoAction::LocalPush(q.op)
            } else {
                HoAction::RespPush(q.op)
            }
        }
        OpKind::Pull => {
            let v = shard.store.get(k).expect("just served key");
            let soff = vals.len() as u32;
            vals.extend_from_slice(v);
            if q.op.node == shared.node {
                HoAction::LocalPull(q.op, soff)
            } else {
                HoAction::RespPull(q.op, soff)
            }
        }
    }
}
