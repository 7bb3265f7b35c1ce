//! Operation issue paths.
//!
//! [`ClientCore`] implements the client half of the protocol for one
//! worker thread: the shared-memory fast path for local parameters, local
//! parking of operations on keys that are relocating to this node, and
//! routing/grouping of remote operations (Sections 3.1–3.3). Both backends
//! wrap a `ClientCore` in their worker handles; the core itself performs
//! no I/O — outgoing messages are collected into a caller-provided sink.
//!
//! Each key of an operation is routed by its residency byte (`route`),
//! under the key's latch:
//!
//! 1. **Fast local path** — if the node owns the key (and the variant
//!    allows shared-memory access, [`ProtoConfig::shared_memory`]), serve
//!    under the key's latch.
//! 2. **Replica path** — if the key is replicated, serve reads from the
//!    local replica view and accumulate pushes for the next propagation
//!    round (NuPS §2); both complete at issue.
//! 3. **Local parking** — if the key is relocating *to* this node, park
//!    the operation in the relocation queue (Section 3.2).
//! 4. **Remote** — otherwise send to the key's home node (forward
//!    strategy), or directly to the cached owner when location caches are
//!    enabled (Section 3.3).
//!
//! ## One in-order walk per operation
//!
//! An operation handles its keys **in the order the caller gave them**,
//! one key at a time:
//!
//! 1. **Prepass** (no latch) — per key its value length, its offset into
//!    the caller's buffer, its shard and its ordered-async-guard bit,
//!    read without a lock and only while the worker has a remote key in
//!    flight; the adaptive sampler is fed; a key outside the key space is
//!    refused and the caller's buffer length is checked against the keys'
//!    total **before any key is touched**. Reusable scratch, no
//!    allocation in steady state.
//! 2. **Walk** — under a [`LatchCursor`] (one write latch at a time,
//!    kept across adjacent keys of one shard) each key is routed and
//!    handled on the spot: local and replica keys are served (values
//!    copied directly between the key's store slot and the caller's
//!    buffer), parked keys enqueue, remote keys append to their
//!    destination's group — so a message's keys are in the operation's
//!    key order by construction. A sync pull first tries each key as a wait-free
//!    seqlock read and asks the cursor only for the keys that could not
//!    serve.
//! 3. **Register and flush** — what is cheaper once per operation than
//!    once per key stays batched: one tracker registration for all
//!    remote keys, then the messages and the seal.
//!
//! `localize` is the same walk over fewer keys: its prepass asks of every
//! key whether it is here already — an unlatched probe where the
//! wait-free read path is on ([`NodeShared::probe_local`]) — and the walk
//! visits only the absent ones.
//!
//! The *ordered-async guard* routes a worker's operation via the home
//! node whenever that worker still has an in-flight remotely-routed
//! operation on the same key. The paper's proof of Theorem 2 models *all*
//! operations of a worker on one parameter as routed "to the home node
//! and from there to the owner". A literal fast local path can violate
//! that model: an async operation may still be in flight towards the home
//! node when the parameter is relocated *to* the issuing worker's own
//! node, and a later local access would then overtake it. The guard
//! enforces the proof's routing model and thereby per-worker program
//! order (sequential consistency property 1): every remote key counts
//! into the worker's [`GuardMap`] when it is registered and out when it
//! completes.
//!
//! The map is an atomic count per key plus a total of the keys whose count
//! is not zero; no lock. Only the issuing worker raises them, counting
//! keys in after the walk; whichever thread completes a key counts it out
//! (release). The prepass loads the total (acquire) and reads a key's
//! count only when the total is not zero, so a worker with nothing in
//! flight — every worker of a blocked or all-local workload — reads its
//! guard bits with one load. A zero is safe: only the worker raises a
//! count, so it cannot hide a registration of its own (a count stays
//! above zero, and the total counts its key, until the key completes),
//! and a decrement seen early un-forces only a key whose remote operation
//! has completed — which the acquire orders before the local access.

use std::iter::once;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use lapse_net::{Key, NodeId};
use lapse_trace::{
    EventKind, Tracer, ACTOR_WORKER0, CLASS_LOCALIZE, CLASS_PULL, CLASS_PUSH, PHASE_EMIT,
    PHASE_PLAN, PHASE_SHARD,
};

use crate::adaptive::controller_tick;
use crate::config::ProtoConfig;
use crate::group::OrderedGroups;
use crate::messages::{
    LocalizeReqMsg, Msg, OpId, OpKind, OpMsg, ReplicaPushMsg, ReplicaRegMsg, TechniqueDemoteMsg,
    TechniquePromoteMsg,
};
use crate::shard::{
    AccessLane, LaneCounter, LatchCursor, NodeShared, OptRead, Queued, QueuedOp, Shard,
};
use crate::storage::Residency::{Absent, Demoting, Incoming, Owned, Primary, Promoting, Replica};
use crate::tracker::{GuardMap, TrackedKind};

/// Sink for outgoing messages produced while issuing an operation.
pub type MsgSink = Vec<(NodeId, Msg)>;

/// Result of issuing an operation.
#[derive(Debug)]
pub enum IssueHandle {
    /// Completed at issue: sync pulls have filled the caller's buffer;
    /// async pulls carry their values here.
    Ready(Option<Vec<f32>>),
    /// In flight; wait for the tracker op, then finish.
    Pending(u64),
}

impl IssueHandle {
    /// The tracker sequence number, if pending.
    pub fn seq(&self) -> Option<u64> {
        match self {
            IssueHandle::Ready(_) => None,
            IssueHandle::Pending(seq) => Some(*seq),
        }
    }
}

/// Where one key of an operation goes ([`route`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Serve through shared memory from the owned store.
    OwnedLocal,
    /// Serve from the local replica view (reads) or accumulate locally
    /// for the next propagation round (pushes).
    Replica,
    /// Park on the inbound-relocation queue until the hand-over arrives.
    Park,
    /// Send over the network to this node.
    Remote(NodeId),
}

/// Routes one key of an operation by its residency byte. `forced` is the
/// ordered-async guard (module doc): a guard-forced key travels via its
/// home, so that it shares one FIFO path with the operation in flight.
/// Otherwise a remote key goes to its cached owner when location caches
/// are on (a hit counts into `lane`, the issuing worker's), else home.
#[inline]
fn route(cfg: &ProtoConfig, key: Key, shard: &Shard, forced: bool, lane: &AccessLane) -> Route {
    if !forced {
        match shard.store.residency(key) {
            Primary | Replica => return Route::Replica,
            Owned | Demoting if cfg.shared_memory() => return Route::OwnedLocal,
            Incoming | Promoting => return Route::Park,
            Owned | Demoting | Absent => {}
        }
        if cfg.location_caches {
            if let Some(&owner) = shard.loc_cache.get(&key) {
                lane.loc_cache_hits.add(1);
                return Route::Remote(owner);
            }
        }
    }
    Route::Remote(cfg.home(key))
}

/// Per-destination accumulator for one remote operation.
#[derive(Default)]
struct RemoteGroup {
    keys: Vec<Key>,
    vals: Vec<f32>,
}

/// One key of an operation, as the prepass leaves it for the walk.
#[derive(Debug)]
struct KeyPlan {
    key: Key,
    /// Index of the key's shard ([`NodeShared::shard_index`]).
    shard: u32,
    /// Value length in floats.
    len: u32,
    /// Offset into the caller's value buffer (floats).
    off: u32,
    /// Ordered-async guard forces the remote path.
    forced: bool,
}

/// Reusable per-worker buffers of the issue paths.
#[derive(Debug, Default)]
struct IssueScratch {
    plan: Vec<KeyPlan>,
    /// Indices into `plan` of the keys the walk routed over the network,
    /// in key order: registered with the tracker and the guard map once,
    /// after the walk.
    remote: Vec<u32>,
    /// Staging for async local reads (reused, never per-key allocated).
    replica_buf: Vec<f32>,
}

/// The client half of the protocol for one worker.
pub struct ClientCore {
    shared: Arc<NodeShared>,
    /// This worker's access counters (written by its thread only).
    lane: Arc<AccessLane>,
    /// Worker slot on this node (wake routing).
    slot: u16,
    /// Keys with in-flight remote operations of this worker.
    guard: GuardMap,
    /// Issue-phase scratch buffers (amortized alloc-free).
    scratch: IssueScratch,
    /// Flight-recorder lane of this worker (`None` when tracing is off,
    /// so untraced issue paths carry no instrumentation beyond this
    /// option check).
    tracer: Option<Tracer>,
}

/// Records one multi-phase op's lifecycle in a worker's lane: an issue
/// instant at `t0` and its prepass (`t0..t1`), walk (`t1..t2`) and
/// register-and-flush (`t2..t3`) spans — under the trace format's phase
/// names `plan`, `shard` and `emit`.
fn trace_op(t: &Tracer, class: u64, keys: u64, t0: u64, t1: u64, t2: u64, t3: u64) {
    let (plan, shard, emit) = (
        t1.saturating_sub(t0),
        t2.saturating_sub(t1),
        t3.saturating_sub(t2),
    );
    t.record_at(EventKind::OpIssue, t0, class, keys);
    t.record_at(EventKind::OpPhase, t1, class << 32 | PHASE_PLAN, plan);
    t.record_at(EventKind::OpPhase, t2, class << 32 | PHASE_SHARD, shard);
    t.record_at(EventKind::OpPhase, t3, class << 32 | PHASE_EMIT, emit);
}

/// Subscribes the node to replica refreshes on its first replicated
/// access: one [`ReplicaRegMsg`] to every other node (owners without
/// replicated home keys simply record the subscription).
fn ensure_registered(shared: &NodeShared, sink: &mut MsgSink) {
    // Load-first so the steady state is a read-only check; the swap
    // (a contended RMW) runs at most once per worker.
    if shared.replica.registered.load(Relaxed) || shared.replica.registered.swap(true, Relaxed) {
        return;
    }
    for n in 0..shared.cfg.nodes {
        let dst = NodeId(n);
        if dst != shared.node {
            sink.push((dst, Msg::ReplicaReg(ReplicaRegMsg { node: shared.node })));
        }
    }
}

/// The end of a phase of a traced multi-phase operation (`t0` is its
/// start, `None` when the operation records no phases).
fn phase_end(tracer: &Option<Tracer>, t0: Option<u64>) -> Option<u64> {
    t0.map(|_| tracer.as_ref().expect("t0 set with tracer").now())
}

impl ClientCore {
    /// Creates the client core for worker `slot` of the node.
    pub fn new(shared: Arc<NodeShared>, slot: u16) -> Self {
        let node = shared.node.0;
        let tracer = shared
            .trace
            .as_ref()
            .map(|rec| rec.tracer(node, ACTOR_WORKER0 + slot, format!("n{node}/w{slot}")));
        ClientCore {
            lane: shared.claim_lane(),
            guard: GuardMap::new(shared.cfg.keys),
            shared,
            slot,
            scratch: IssueScratch::default(),
            tracer,
        }
    }

    /// The node this client runs on.
    pub fn node(&self) -> NodeId {
        self.shared.node
    }

    /// The shared node state.
    pub fn shared(&self) -> &Arc<NodeShared> {
        &self.shared
    }

    /// The counter lane this worker writes.
    pub fn lane(&self) -> &AccessLane {
        &self.lane
    }

    fn cfg(&self) -> &ProtoConfig {
        &self.shared.cfg
    }

    /// Number of keys this worker currently guards (keys with in-flight
    /// remotely-routed operations; the guard map's total, one load).
    /// Zero at quiescence — the
    /// ordered-async-guard balance invariant (each remote registration
    /// increments a key's count once, each completion decrements it).
    pub fn guarded_keys(&self) -> usize {
        self.guard.keys()
    }

    /// Opens the trace record of a pull or push. A one-key operation
    /// records its issue instant and nothing else (four events an
    /// operation would quarter the window an event ring covers); any
    /// other gets its start time back and records its phases when it
    /// ends (`trace_op`).
    fn trace_begin(&self, class: u64, keys: usize) -> Option<u64> {
        let t = self.tracer.as_ref()?;
        if keys == 1 {
            t.record(EventKind::OpIssue, class, 1);
            return None;
        }
        Some(t.now())
    }

    /// Prepass of a pull or push (`op` names it), before any latch:
    /// refuses a key outside the key space, fills the plan scratch with
    /// per-key lengths, buffer offsets, shards and guard bits (read only
    /// while the worker has something in flight), feeds the adaptive
    /// access sampler, and checks the caller's buffer of `buf` floats
    /// against the keys' total length — hard, and before any key is
    /// touched: a short buffer must not apply half a push and then fail a
    /// slice index under a latch, a long one must not be silently
    /// truncated. Then subscribes to replica refreshes if a key may be
    /// replicated and runs a due controller tick. Returns the total value
    /// length.
    fn prepass(&mut self, op: &str, keys: &[Key], buf: Option<usize>, sink: &mut MsgSink) -> u32 {
        let ClientCore {
            shared,
            lane,
            guard,
            scratch,
            ..
        } = self;
        let cfg = &shared.cfg;
        let adaptive = shared.adaptive.is_some();
        scratch.plan.clear();
        scratch.remote.clear();
        let mut any_replicated = false;
        let mut sampled = 0u64;
        let mut off = 0u32;
        // No key's count is read while the total says none is in flight
        // (module doc: reading zero is safe).
        let guarded = guard.keys() > 0;
        for &k in keys {
            shared.check_key(op, k);
            let len = cfg.layout.len(k) as u32;
            let forced = guarded && guard.count(k) > 0;
            any_replicated |= adaptive || cfg.replicated(k);
            if let Some(ad) = &shared.adaptive {
                sampled += ad.sample(k, &cfg.adaptive) as u64;
            }
            scratch.plan.push(KeyPlan {
                key: k,
                shard: shared.shard_index(k) as u32,
                len,
                off,
                forced,
            });
            off += len;
        }
        if sampled > 0 {
            lane.sketch_samples.add(sampled);
        }
        if let Some(buf) = buf {
            assert_eq!(
                buf,
                off as usize,
                "value buffer of {buf} floats for {} keys of {off} floats in total",
                keys.len()
            );
        }
        if any_replicated {
            ensure_registered(shared, sink);
        }
        self.tick_adaptive(sink);
        off
    }

    /// Runs the adaptive controller if a tick is pending: turns the
    /// sketch into promotion requests and demotion votes, grouped per
    /// home node, and appends them to `sink`. Called in band from the
    /// issue paths (so ticks fire mid-epoch) and from the backends'
    /// `advance_clock`. A no-op under the static variants.
    pub fn tick_adaptive(&self, sink: &mut MsgSink) {
        let Some(ad) = &self.shared.adaptive else {
            return;
        };
        if !ad.take_tick() {
            return;
        }
        self.run_controller(sink);
    }

    /// Runs one controller tick unconditionally (`advance_clock` path and
    /// tests; [`ClientCore::tick_adaptive`] gates on the sample counter).
    pub fn run_controller(&self, sink: &mut MsgSink) {
        let Some(ad) = &self.shared.adaptive else {
            return;
        };
        let replicated = self.shared.replicated_keys();
        let decision = {
            let mut inner = ad.inner.lock();
            controller_tick(&mut inner, &replicated, &self.cfg().adaptive)
        };
        // Group a decision's keys per home node and emit one request
        // message each, in deterministic (first-appearance) order.
        let emit = |keys: Vec<Key>,
                    counter: &LaneCounter,
                    msg: &dyn Fn(Vec<Key>) -> Msg,
                    sink: &mut MsgSink| {
            if keys.is_empty() {
                return;
            }
            counter.add(keys.len() as u64);
            let mut per_home: OrderedGroups<NodeId, Vec<Key>> = OrderedGroups::new();
            for k in keys {
                per_home.entry(self.cfg().home(k)).push(k);
            }
            for (home, keys) in per_home.into_iter() {
                sink.push((home, msg(keys)));
            }
        };
        let node = self.shared.node;
        emit(
            decision.promote,
            &self.lane.tech_promote_reqs,
            &|keys| Msg::TechniquePromote(TechniquePromoteMsg { node, keys }),
            sink,
        );
        emit(
            decision.demote,
            &self.lane.tech_demote_reqs,
            &|keys| Msg::TechniqueDemote(TechniqueDemoteMsg { node, keys }),
            sink,
        );
    }

    /// Propagates all accumulated replicated pushes of this node to the
    /// owners (one [`ReplicaPushMsg`] per owner); the shipped deltas stay
    /// visible until the owners' refreshes acknowledge them. A no-op when
    /// nothing is pending or the variant replicates nothing.
    pub fn flush_replicas(&self, sink: &mut MsgSink) {
        // Every propagation tick advances the node's serving epoch.
        self.shared.serving.tick();
        if self.shared.replica_shards.is_empty() {
            return;
        }
        let mut groups: OrderedGroups<NodeId, RemoteGroup> = OrderedGroups::new();
        // fetch_add so concurrent flushes of two workers get distinct
        // sequence numbers (acks match deltas exactly by sequence number).
        let flush_seq = self.shared.replica.flush_seq.fetch_add(1, Relaxed) + 1;
        // Take the accumulation count before shipping: pushes counted here
        // are all pending now, and a concurrent worker's later increments
        // survive for the next auto-flush check (one racing in between
        // merely triggers one extra, empty, flush).
        self.shared.replica.unflushed.swap(0, Relaxed);
        for &s in &self.shared.replica_shards {
            // A shard without pending deltas is skipped without latching.
            let cell = &self.shared.shards[s as usize];
            if cell.has_pending() {
                cell.write().store.flush_deltas(flush_seq, |k, delta| {
                    let owner = self.cfg().home(k);
                    let group = groups.entry(owner);
                    group.keys.push(k);
                    group.vals.extend_from_slice(delta);
                    owner
                });
            }
        }
        for (owner, group) in groups.into_iter() {
            self.lane.replica_flushes.add(1);
            sink.push((
                owner,
                Msg::ReplicaPush(ReplicaPushMsg {
                    node: self.shared.node,
                    flush_seq,
                    keys: group.keys,
                    vals: group.vals,
                }),
            ));
        }
    }

    /// Issues a pull of `keys`.
    ///
    /// Sync use: pass the output buffer (of total value length);
    /// locally-served keys are written immediately, and after the handle
    /// completes, [`ClientCore::finish_pull`] fills in the rest. Async
    /// use: pass `None`; all values are delivered through the handle /
    /// [`ClientCore::take_pull`].
    ///
    /// # Panics
    /// Panics, before any key is touched, on a key outside the key space
    /// or if the output buffer's length is not the total value length of
    /// `keys`.
    pub fn pull(
        &mut self,
        keys: &[Key],
        mut out: Option<&mut [f32]>,
        sink: &mut MsgSink,
    ) -> IssueHandle {
        let t0 = self.trace_begin(CLASS_PULL, keys.len());
        let is_async = out.is_none();
        let total = self.prepass("pull", keys, out.as_deref().map(<[f32]>::len), sink);
        let t1 = phase_end(&self.tracer, t0);
        // Async pulls register every key so the result buffer is in key
        // order (reserved up front, offsets fixed by the prepass); sync
        // pulls register lazily (a fully-local sync pull never touches
        // the tracker).
        let mut seq: Option<u64> = if is_async {
            let s = begin(&self.shared, self.slot, &self.guard, TrackedKind::Pull);
            self.shared.tracker.reserve(s, total);
            Some(s)
        } else {
            None
        };

        let ClientCore {
            shared,
            lane,
            slot,
            guard,
            scratch,
            tracer,
        } = &mut *self;
        let IssueScratch {
            plan,
            remote,
            replica_buf,
        } = scratch;
        let cfg = &shared.cfg;
        let tracker = &shared.tracker;
        let wait_free = cfg.wait_free_reads;
        let (mut n_local, mut n_replica, mut n_queued) = (0u64, 0u64, 0u64);
        let mut bytes_moved = 0u64;
        let mut groups: OrderedGroups<NodeId, RemoteGroup> = OrderedGroups::new();
        let mut cursor = LatchCursor::new(&shared.shards);
        for (i, p) in plan.iter().enumerate() {
            let (off, len) = (p.off as usize, p.len as usize);
            // Wait-free first (both backends): a validated seqlock
            // read serves an owned or replicated key of a sync pull
            // without the latch. Not tried against the shard the cursor
            // holds (the read could only spin on this walk's own write
            // section), nor for async pulls, whose values go through
            // the tracker. A read that does not serve leaves the key to
            // the latched route below; floats it copied are overwritten.
            if wait_free && !cursor.holds(p.shard as usize) {
                if let Some(buf) = out.as_deref_mut() {
                    let dst = &mut buf[off..off + len];
                    let shard = p.shard as usize;
                    let served = match shared.try_optimistic_read_at(shard, p.key, p.forced, dst) {
                        Some(OptRead::Owned) => Some(&mut n_local),
                        Some(OptRead::Replica) => Some(&mut n_replica),
                        Some(OptRead::Absent) | None => None,
                    };
                    if let Some(n) = served {
                        *n += 1;
                        bytes_moved += 4 * len as u64;
                        continue;
                    }
                }
            }
            let shard = cursor.write(p.shard as usize);
            match route(cfg, p.key, shard, p.forced, lane) {
                // The key's local view: the owned value, or a replica's.
                to @ (Route::OwnedLocal | Route::Replica) => {
                    match to {
                        Route::Replica => n_replica += 1,
                        _ => n_local += 1,
                    }
                    bytes_moved += 4 * len as u64;
                    let dst = match &mut out {
                        Some(buf) => &mut buf[off..off + len],
                        None => {
                            replica_buf.clear();
                            replica_buf.resize(len, 0.0);
                            &mut replica_buf[..]
                        }
                    };
                    shard.store.read_replicated(p.key, dst);
                    if is_async {
                        let s = seq.expect("async op registered");
                        tracker.add_keys(s, true, false, once((p.key, p.len, p.off)));
                        tracker.complete_key(s, p.key, Some(replica_buf));
                    }
                }
                Route::Park => {
                    let s =
                        *seq.get_or_insert_with(|| begin(shared, *slot, guard, TrackedKind::Pull));
                    tracker.add_keys(s, is_async, false, once((p.key, p.len, p.off)));
                    let op = OpId::new(shared.node, s);
                    let (kind, val) = (OpKind::Pull, Vec::new());
                    shard.park(p.key, Queued::Op(QueuedOp { op, kind, val }));
                    n_queued += 1;
                }
                Route::Remote(dst) => {
                    groups.entry(dst).keys.push(p.key);
                    remote.push(i as u32);
                }
            }
        }
        drop(cursor);
        if n_local > 0 {
            lane.pull_local.add(n_local);
        }
        if n_replica > 0 {
            lane.pull_replica.add(n_replica);
        }
        if n_queued > 0 {
            lane.pull_queued.add(n_queued);
        }
        if bytes_moved > 0 {
            lane.value_bytes_moved.add(bytes_moved);
        }
        let t2 = phase_end(tracer, t0);

        if !remote.is_empty() {
            let s = *seq.get_or_insert_with(|| begin(shared, *slot, guard, TrackedKind::Pull));
            register_remotes(shared, guard, s, OpKind::Pull, is_async, plan, remote);
            lane.pull_remote.add(remote.len() as u64);
        }
        // An untracked pull was served here, every key of it.
        let handle = match seq {
            Some(s) => self.flush(s, OpKind::Pull, groups, sink),
            None => IssueHandle::Ready(None),
        };
        if let (Some(t), Some(t0), Some(t1), Some(t2)) = (self.tracer.as_ref(), t0, t1, t2) {
            trace_op(t, CLASS_PULL, keys.len() as u64, t0, t1, t2, t.now());
        }
        handle
    }

    /// Issues a push of `keys` with concatenated update terms `vals`.
    /// Pushes are cumulative: the owner adds each term to the current
    /// value (Section 2.1).
    ///
    /// # Panics
    /// Panics, before any key is touched, on a key outside the key space
    /// or if `vals.len()` is not the total value length of `keys`.
    pub fn push(&mut self, keys: &[Key], vals: &[f32], sink: &mut MsgSink) -> IssueHandle {
        let t0 = self.trace_begin(CLASS_PUSH, keys.len());
        self.prepass("push", keys, Some(vals.len()), sink);
        let t1 = phase_end(&self.tracer, t0);
        let mut seq: Option<u64> = None;

        let ClientCore {
            shared,
            lane,
            slot,
            guard,
            scratch,
            tracer,
        } = &mut *self;
        let IssueScratch { plan, remote, .. } = scratch;
        let cfg = &shared.cfg;
        let tracker = &shared.tracker;
        let (mut n_local, mut n_replica, mut n_queued) = (0u64, 0u64, 0u64);
        let mut groups: OrderedGroups<NodeId, RemoteGroup> = OrderedGroups::new();
        let mut cursor = LatchCursor::new(&shared.shards);
        for (i, p) in plan.iter().enumerate() {
            let val = &vals[p.off as usize..(p.off + p.len) as usize];
            let shard = cursor.write(p.shard as usize);
            match route(cfg, p.key, shard, p.forced, lane) {
                Route::OwnedLocal => {
                    let applied = shard.store.add(p.key, val);
                    debug_assert!(applied);
                    n_local += 1;
                }
                Route::Replica => {
                    shard.store.accumulate(p.key, val);
                    n_replica += 1;
                }
                Route::Park => {
                    let s =
                        *seq.get_or_insert_with(|| begin(shared, *slot, guard, TrackedKind::Push));
                    tracker.add_keys(s, false, false, once((p.key, 0, 0)));
                    let op = OpId::new(shared.node, s);
                    let (kind, val) = (OpKind::Push, val.to_vec());
                    shard.park(p.key, Queued::Op(QueuedOp { op, kind, val }));
                    n_queued += 1;
                }
                Route::Remote(dst) => {
                    let group = groups.entry(dst);
                    group.keys.push(p.key);
                    group.vals.extend_from_slice(val);
                    remote.push(i as u32);
                }
            }
        }
        drop(cursor);
        if n_local > 0 {
            lane.push_local.add(n_local);
        }
        if n_replica > 0 {
            lane.push_replica.add(n_replica);
        }
        if n_queued > 0 {
            lane.push_queued.add(n_queued);
            lane.value_allocs_heap.add(n_queued);
        }
        let t2 = phase_end(tracer, t0);

        if !remote.is_empty() {
            let s = *seq.get_or_insert_with(|| begin(shared, *slot, guard, TrackedKind::Push));
            register_remotes(shared, guard, s, OpKind::Push, false, plan, remote);
            lane.push_remote.add(remote.len() as u64);
        }
        if n_replica > 0 {
            let unflushed = shared.replica.unflushed.fetch_add(n_replica, Relaxed) + n_replica;
            if unflushed >= cfg.replica_flush_every {
                self.flush_replicas(sink);
            }
        }
        let handle = match seq {
            Some(s) => self.flush(s, OpKind::Push, groups, sink),
            None => IssueHandle::Ready(None),
        };
        if let (Some(t), Some(t0), Some(t1), Some(t2)) = (self.tracer.as_ref(), t0, t1, t2) {
            trace_op(t, CLASS_PUSH, keys.len() as u64, t0, t1, t2, t.now());
        }
        handle
    }

    /// Issues a localize of `keys`: requests that all of them be relocated
    /// to this node (Table 2). Keys whose technique does not relocate —
    /// all of them under the classic variants, replicated keys under the
    /// replication/hybrid variants — are skipped.
    ///
    /// Most keys of a pre-localize are already here (the sentence or the
    /// negative-sample buffer before it shared them), so every key is
    /// **probed first** ([`NodeShared::probe_local`]: no latch where the
    /// wait-free read path is on) and only the absent ones are walked
    /// under the latch cursor. Under the latch the check is repeated — a
    /// key may have arrived since the probe — and a key that is still
    /// absent is handed to the shard's incoming state, which completes it
    /// by count when the hand-over arrives; the tracker hears of them
    /// once, at the seal.
    ///
    /// # Panics
    /// Panics, before any key is touched, on a key outside the key space.
    pub fn localize(&mut self, keys: &[Key], sink: &mut MsgSink) -> IssueHandle {
        let t0 = self.tracer.as_ref().map(Tracer::now);
        let ClientCore {
            shared,
            lane,
            slot,
            guard,
            scratch,
            tracer,
        } = &mut *self;
        let cfg = &shared.cfg;
        scratch.plan.clear();
        for &k in keys {
            shared.check_key("localize", k);
            if !cfg.relocates(k) {
                continue;
            }
            let shard = shared.shard_index(k);
            if !shared.probe_local(shard, k) {
                scratch.plan.push(KeyPlan {
                    key: k,
                    shard: shard as u32,
                    len: 0,
                    off: 0,
                    forced: false,
                });
            }
        }
        let t1 = phase_end(tracer, t0);

        let tracker = &shared.tracker;
        let mut seq: Option<u64> = None;
        let mut n_waiting = 0u32;
        // Requests per home node, in key order.
        let mut groups: OrderedGroups<NodeId, Vec<Key>> = OrderedGroups::new();
        let mut cursor = LatchCursor::new(&shared.shards);
        for p in &scratch.plan {
            let shard = cursor.write(p.shard as usize);
            if shard.store.residency(p.key).held() {
                // Arrived (or was promoted to replication) since the
                // probe: nothing to do.
                continue;
            }
            let s = *seq.get_or_insert_with(|| begin(shared, *slot, guard, TrackedKind::Localize));
            tracker.note_counted(s, p.key, 1);
            n_waiting += 1;
            // Piggyback on a relocation already in flight; a new one needs a request.
            let (entry, fresh) = shard.expect(p.key);
            entry.push_localize(OpId::new(shared.node, s));
            if fresh {
                groups.entry(cfg.home(p.key)).push(p.key);
            }
        }
        drop(cursor);
        let t2 = phase_end(tracer, t0);
        let handle = match seq {
            None => IssueHandle::Ready(None),
            Some(s) => {
                let mut n_sent = 0u64;
                for (home, keys) in groups.into_iter() {
                    n_sent += keys.len() as u64;
                    sink.push((
                        home,
                        Msg::LocalizeReq(LocalizeReqMsg {
                            op: OpId::new(shared.node, s),
                            keys,
                        }),
                    ));
                }
                if n_sent > 0 {
                    lane.localize_sent.add(n_sent);
                }
                if tracker.seal_counted(s, n_waiting) {
                    tracker.discard(s);
                    IssueHandle::Ready(None)
                } else {
                    IssueHandle::Pending(s)
                }
            }
        };
        if let (Some(t), Some(t0), Some(t1), Some(t2)) = (tracer.as_ref(), t0, t1, t2) {
            trace_op(t, CLASS_LOCALIZE, keys.len() as u64, t0, t1, t2, t.now());
        }
        handle
    }

    /// Reads `key` only if it is currently stored on this node (owned, or
    /// replicated here); returns whether `out` was filled. Used by the
    /// word-vector workload to sample negatives without network traffic
    /// (Appendix A). A variant without shared-memory access refuses every
    /// key; the others read through [`NodeShared::read_local`].
    ///
    /// # Panics
    /// As [`NodeShared::read_local`]: with `out` untouched, on a key
    /// outside the key space or an `out` of the wrong length.
    pub fn pull_if_local(&self, key: Key, out: &mut [f32]) -> bool {
        if !self.cfg().shared_memory() {
            return false;
        }
        match self.shared.read_local(key, out).tier {
            OptRead::Owned => self.lane.pull_local.add(1),
            OptRead::Replica => self.lane.pull_replica.add(1),
            OptRead::Absent => return false,
        }
        true
    }

    /// Assembles a completed sync pull into the caller's buffer and
    /// releases the tracker entry.
    pub fn finish_pull(&self, seq: u64, out: &mut [f32]) {
        if let Some(t) = self.tracer.as_ref() {
            t.record(EventKind::OpComplete, CLASS_PULL, seq);
        }
        let res = self.shared.tracker.take(seq);
        for (out_off, res_off, len) in res.assembly {
            out[out_off as usize..(out_off + len) as usize]
                .copy_from_slice(&res.result[res_off as usize..(res_off + len) as usize]);
        }
    }

    /// Takes the values of a completed async pull (in key order).
    pub fn take_pull(&self, seq: u64) -> Vec<f32> {
        if let Some(t) = self.tracer.as_ref() {
            t.record(EventKind::OpComplete, CLASS_PULL, seq);
        }
        self.shared.tracker.take(seq).result
    }

    /// Releases the tracker entry of a completed push/localize.
    pub fn finish_ack(&self, seq: u64) {
        let kind = self.shared.tracker.discard(seq);
        if let Some(t) = self.tracer.as_ref() {
            // Push and localize acks share this release path; the tracker
            // entry says which one finished.
            let class = match kind {
                Some(TrackedKind::Localize) => CLASS_LOCALIZE,
                _ => CLASS_PUSH,
            };
            t.record(EventKind::OpComplete, class, seq);
        }
    }

    /// Sends the remote groups of tracked operation `seq` and seals it.
    fn flush(
        &self,
        seq: u64,
        kind: OpKind,
        groups: OrderedGroups<NodeId, RemoteGroup>,
        sink: &mut MsgSink,
    ) -> IssueHandle {
        for (dst, group) in groups.into_iter() {
            sink.push((
                dst,
                Msg::Op(OpMsg {
                    op: OpId::new(self.shared.node, seq),
                    kind,
                    keys: group.keys,
                    vals: group.vals,
                    routed_by_home: false,
                }),
            ));
        }
        // Done at the seal if every key completed during issue (e.g. a
        // queued key drained concurrently); a pull stays pending even
        // so: its caller still assembles the values.
        if self.shared.tracker.seal(seq) && kind == OpKind::Push {
            self.shared.tracker.discard(seq);
            return IssueHandle::Ready(None);
        }
        IssueHandle::Pending(seq)
    }
}

/// After the walk, once per operation: registers the keys it routed over
/// the network (`remote`: indices into `plan`, in key order) with the
/// tracker under one tracker lock — a pull's with the place of their
/// values, `pinned` to the caller's offsets for an async one — counting
/// each into the worker's guard map on the way.
fn register_remotes(
    shared: &NodeShared,
    guard: &GuardMap,
    seq: u64,
    kind: OpKind,
    pinned: bool,
    plan: &[KeyPlan],
    remote: &[u32],
) {
    let dests = remote.iter().map(|&i| {
        let p = &plan[i as usize];
        guard.count_in(p.key);
        match kind {
            OpKind::Pull => (p.key, p.len, p.off),
            OpKind::Push => (p.key, 0, 0),
        }
    });
    shared.tracker.add_keys(seq, pinned, true, dests);
}

/// Begins a tracked operation for worker `slot`.
fn begin(shared: &NodeShared, slot: u16, guard: &GuardMap, kind: TrackedKind) -> u64 {
    shared.tracker.begin(kind, slot, Some(guard.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::layout::Layout;

    /// Node 0 of two over 16 keys, under `variant`.
    fn node(variant: Variant, tune: impl FnOnce(&mut ProtoConfig)) -> Arc<NodeShared> {
        let mut c = ProtoConfig::new(2, 16, Layout::Uniform(1));
        c.variant = variant;
        tune(&mut c);
        NodeShared::new(Arc::new(c), NodeId(0), Arc::new(|| 0))
    }

    #[test]
    fn cache_hits_are_counted_into_the_lane_that_routed() {
        let node = node(Variant::Lapse, |c| c.location_caches = true);
        let cfg = &node.cfg;
        let (mine, other) = (node.claim_lane(), node.claim_lane());
        let key = Key(12); // homed at node 1
        node.shard_for(key).write().loc_cache.insert(key, NodeId(1));
        let shard = node.shard_for(key).read();
        assert_eq!(
            route(cfg, key, &shard, false, &mine),
            Route::Remote(NodeId(1))
        );
        // Guard-forced: via home, the cache is not consulted.
        assert_eq!(
            route(cfg, key, &shard, true, &mine),
            Route::Remote(cfg.home(key))
        );
        assert_eq!(
            (mine.loc_cache_hits.get(), other.loc_cache_hits.get()),
            (1, 0)
        );
        assert_eq!(node.stats().loc_cache_hits, 1);
    }

    #[test]
    fn adaptive_routes_a_promoted_key_by_its_byte() {
        let node = node(Variant::Adaptive, |c| c.latches = 4);
        let cfg = &node.cfg;
        let lane = node.claim_lane();
        // Statically everything relocates; replication is dynamic, and
        // any shard can come to hold a replica.
        assert!(cfg.relocates(Key(5)) && !cfg.replicated(Key(5)));
        assert!(node.adaptive.is_some());
        assert_eq!(node.replica_shards, [0, 1, 2, 3]);
        let to = |k: Key| route(cfg, k, &node.shard_for(k).read(), false, &lane);
        assert_eq!(to(Key(5)), Route::OwnedLocal);
        // A promotion rewrites the key's byte, not the config.
        node.shard_for(Key(5)).write().store.promote(Key(5));
        assert_eq!(to(Key(5)), Route::Replica);
        assert_eq!(to(Key(6)), Route::OwnedLocal);
        assert_eq!(node.replicated_keys(), vec![Key(5)]);
    }

    /// Which shards a replica flush walks: none where nothing replicates,
    /// those of the hot set under `Hybrid`.
    #[test]
    fn replica_shards_are_the_replicated_keys_shards() {
        for variant in [Variant::Classic, Variant::ClassicFastLocal, Variant::Lapse] {
            assert!(node(variant, |c| c.latches = 4).replica_shards.is_empty());
        }
        let hybrid = |hot: u64| {
            let node = node(Variant::Hybrid, |c| {
                (c.latches, c.hot_set) = (4, crate::config::HotSet::Prefix(hot));
            });
            node.replica_shards.clone()
        };
        assert_eq!(hybrid(0), Vec::<u32>::new());
        assert_eq!(hybrid(5), [0, 1]);
        assert_eq!(
            node(Variant::Replication, |c| c.latches = 4).replica_shards,
            [0, 1, 2, 3]
        );
    }
}
