//! Operation issue paths.
//!
//! [`ClientCore`] implements the client half of the protocol for one
//! worker thread: the shared-memory fast path for local parameters, local
//! parking of operations on keys that are relocating to this node, and
//! routing/grouping of remote operations (Sections 3.1–3.3). Both backends
//! wrap a `ClientCore` in their worker handles; the core itself performs
//! no I/O — outgoing messages are collected into a caller-provided sink.
//!
//! Routing per key is decided by the management-technique
//! [`Policy`](crate::technique::Policy) ([`IssueRoute`]):
//!
//! 1. **Fast local path** — if the node owns the key (and the variant
//!    allows shared-memory access), serve under the key's latch.
//! 2. **Replica path** — if the key is replicated, serve reads from the
//!    local replica view and accumulate pushes for the next propagation
//!    round (NuPS §2); both complete at issue.
//! 3. **Local parking** — if the key is relocating *to* this node, park
//!    the operation in the relocation queue (Section 3.2).
//! 4. **Remote** — otherwise send to the key's home node (forward
//!    strategy), or directly to the cached owner when location caches are
//!    enabled (Section 3.3).
//!
//! ## Lock-once issue (the value plane)
//!
//! A grouped operation runs in three phases so that every lock on its
//! path is taken **once per operation**, not once per key:
//!
//! 1. **Plan** — compute per-key lengths, buffer offsets, and the
//!    ordered-async-guard bit under a single guard-map lock; group key
//!    indices by shard into reusable scratch buffers (no allocation in
//!    steady state).
//! 2. **Shard** — for each touched shard, acquire its latch once and
//!    route all of the operation's keys in that shard: local and replica
//!    keys are served immediately (values copied directly between the
//!    store arena and the caller's buffer — no intermediate `Vec`),
//!    parked keys enqueue, remote keys record their destination.
//! 3. **Emit** — walk the keys in their **original order**, appending
//!    remote keys to per-destination groups; this keeps message contents
//!    and emission order identical to the historical per-key path, which
//!    the bit-identical experiment outputs depend on. All guard-map
//!    increments for remote keys happen under one final lock.
//!
//! `localize` runs the same phases over fewer keys: it first asks of every
//! key whether it is here already — an unlatched probe where the
//! wait-free read path is on ([`NodeShared::probe_local`]) — and plans
//! only the absent ones.
//!
//! The *ordered-async guard* (see
//! [`ProtoConfig::ordered_async_guard`](crate::config::ProtoConfig::ordered_async_guard))
//! forces the remote path whenever this worker still has an in-flight
//! remote operation on the same key, which keeps per-worker program order
//! intact (the routing model under which the paper proves Theorem 2).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::iter::once;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use lapse_net::{Key, NodeId};
use lapse_trace::{
    EventKind, Recorder, Ring, ACTOR_WORKER0, CLASS_LOCALIZE, CLASS_PULL, CLASS_PUSH, PHASE_EMIT,
    PHASE_PLAN, PHASE_SHARD,
};

use crate::adaptive::controller_tick;
use crate::config::ProtoConfig;
use crate::group::{OrderedGroups, ShardGroups};
use crate::messages::{
    LocalizeReqMsg, Msg, OpId, OpKind, OpMsg, ReplicaPushMsg, ReplicaRegMsg, TechniqueDemoteMsg,
    TechniquePromoteMsg,
};
use crate::shard::{AccessLane, IncomingState, LaneCounter, NodeShared, OptRead, Queued, QueuedOp};
use crate::technique::IssueRoute;
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

/// Per-destination accumulator for one remote operation.
#[derive(Default)]
struct RemoteGroup {
    keys: Vec<Key>,
    vals: Vec<f32>,
}

/// What the shard phase decided for one planned key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Planned {
    /// Handled during the shard phase (served, parked, or skipped).
    Done,
    /// Ship remotely to this destination during the emit phase.
    Remote(NodeId),
}

/// One key of an issue plan.
#[derive(Debug)]
struct KeyPlan {
    key: Key,
    /// Value length in floats.
    len: u32,
    /// Offset into the caller's value buffer (floats).
    off: u32,
    /// Ordered-async guard forces the remote path.
    forced: bool,
    route: Planned,
}

/// Reusable per-worker buffers for the three issue phases.
#[derive(Debug, Default)]
struct IssueScratch {
    plan: Vec<KeyPlan>,
    groups: ShardGroups,
    /// Staging for async replica reads (reused, never per-key allocated).
    replica_buf: Vec<f32>,
}

/// Attempts to serve every key of one shard group of a sync pull via the
/// wait-free seqlock path. Returns whether the whole group was served;
/// on failure the caller takes the latch and re-routes the group
/// (partially copied output regions are overwritten by the latched
/// serve, so nothing torn can leak). Statistics are committed only on
/// success, keeping the counters identical to the latched path.
fn pull_group_optimistic(
    shared: &NodeShared,
    plan: &[KeyPlan],
    items: &[u32],
    buf: &mut [f32],
    n_local: &mut u64,
    n_replica: &mut u64,
    bytes_moved: &mut u64,
) -> bool {
    let (mut local, mut replica, mut bytes) = (0u64, 0u64, 0u64);
    for &i in items {
        let p = &plan[i as usize];
        let (off, len) = (p.off as usize, p.len as usize);
        match shared.try_optimistic_read(p.key, p.forced, &mut buf[off..off + len]) {
            Some(OptRead::Owned) => {
                local += 1;
                bytes += 4 * len as u64;
            }
            Some(OptRead::Replica) => {
                replica += 1;
                bytes += 4 * len as u64;
            }
            Some(OptRead::Absent) | None => return false,
        }
    }
    *n_local += local;
    *n_replica += replica;
    *bytes_moved += bytes;
    true
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
    tracer: Option<WorkerTracer>,
}

/// One worker's flight-recorder handle: the shared recorder plus the
/// worker's own event lane.
struct WorkerTracer {
    rec: Arc<Recorder>,
    ring: Arc<Ring>,
}

impl WorkerTracer {
    /// Records one grouped op's lifecycle: an issue instant at `t0` and
    /// the plan (`t0..t1`), shard (`t1..t2`), and emit (`t2..t3`) phase
    /// spans, with the durations fed to the per-class phase histograms.
    fn op(&self, class: u64, keys: u64, t0: u64, t1: u64, t2: u64, t3: u64) {
        let (plan, shard, emit) = (
            t1.saturating_sub(t0),
            t2.saturating_sub(t1),
            t3.saturating_sub(t2),
        );
        self.rec
            .record_at(&self.ring, EventKind::OpIssue, t0, class, keys);
        self.rec.record_at(
            &self.ring,
            EventKind::OpPhase,
            t1,
            class << 32 | PHASE_PLAN,
            plan,
        );
        self.rec.record_at(
            &self.ring,
            EventKind::OpPhase,
            t2,
            class << 32 | PHASE_SHARD,
            shard,
        );
        self.rec.record_at(
            &self.ring,
            EventKind::OpPhase,
            t3,
            class << 32 | PHASE_EMIT,
            emit,
        );
        self.rec.record_op_phases(class, plan, shard, emit);
    }
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

impl ClientCore {
    /// Creates the client core for worker `slot` of the node.
    pub fn new(shared: Arc<NodeShared>, slot: u16) -> Self {
        let tracer = shared.trace.on().then(|| WorkerTracer {
            ring: shared.trace.lane(
                shared.node.0,
                ACTOR_WORKER0 + slot,
                format!("n{}/w{}", shared.node.0, slot),
            ),
            rec: Arc::clone(&shared.trace),
        });
        ClientCore {
            lane: shared.claim_lane(),
            shared,
            slot,
            guard: Arc::new(Mutex::new(HashMap::new())),
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
    /// remotely-routed operations). Zero at quiescence — the
    /// ordered-async-guard balance invariant (each remote registration
    /// increments a key's count once, each completion decrements it).
    pub fn guarded_keys(&self) -> usize {
        self.guard.lock().len()
    }

    /// Plan phase: clears the scratch, computes per-key offsets and guard
    /// bits (one guard-map lock for the whole operation), groups key
    /// indices by shard, and feeds the adaptive access sampler. Returns
    /// `(total value length, any possibly-replicated key)`.
    fn plan(&mut self, keys: &[Key]) -> (u32, bool) {
        let ClientCore {
            shared,
            lane,
            guard,
            scratch,
            ..
        } = self;
        let cfg = &shared.cfg;
        let policy = cfg.policy();
        scratch.plan.clear();
        scratch.groups.clear();
        let mut any_replicated = false;
        let mut sampled = 0u64;
        // One guard-map lock per operation (hoisted out of the per-key
        // loop). Lock order inside the loop: guard map → adaptive
        // sketch (`AdaptiveShared::inner`); the sketch is a leaf lock —
        // nothing acquires the guard map (or any latch) while holding
        // it — so holding the guard map across the loop cannot deadlock
        // with completions.
        let g = cfg.ordered_async_guard.then(|| guard.lock());
        let mut off = 0u32;
        for (i, &k) in keys.iter().enumerate() {
            let len = cfg.layout.len(k) as u32;
            let forced = g
                .as_ref()
                .is_some_and(|g| g.get(&k).is_some_and(|&n| n > 0));
            any_replicated |= policy.may_replicate(k);
            if let Some(ad) = &shared.adaptive {
                sampled += ad.sample(k, &cfg.adaptive) as u64;
            }
            scratch.plan.push(KeyPlan {
                key: k,
                len,
                off,
                forced,
                route: Planned::Done,
            });
            scratch.groups.push(cfg.shard_of(k), i as u32);
            off += len;
        }
        if sampled > 0 {
            lane.sketch_samples.add(sampled);
        }
        (off, any_replicated)
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

    /// Emit-phase epilogue: records all guard-map increments for the
    /// remote keys of the plan under a single lock.
    fn guard_remotes(&self) {
        if !self.cfg().ordered_async_guard {
            return;
        }
        let mut g = self.guard.lock();
        for p in &self.scratch.plan {
            if matches!(p.route, Planned::Remote(_)) {
                *g.entry(p.key).or_insert(0) += 1;
            }
        }
    }

    /// Propagates all accumulated replicated pushes of this node to the
    /// owners (one [`ReplicaPushMsg`] per owner), moving them to the
    /// in-flight set until the owners' refreshes acknowledge them. A
    /// no-op when nothing is pending or the variant replicates nothing.
    pub fn flush_replicas(&self, sink: &mut MsgSink) {
        // Serving-epoch tick (snapshot read plane): every propagation
        // tick advances the node's serving epoch, under all variants.
        // With no replica tier at all the replica epoch trivially keeps
        // up — nothing can be stale.
        let any_replication = self.cfg().policy().any_replication();
        self.shared.serving.tick(!any_replication);
        if !any_replication {
            return;
        }
        let mut groups: OrderedGroups<NodeId, RemoteGroup> = OrderedGroups::new();
        // fetch_add so concurrent flushes of two workers get distinct
        // sequence numbers (gaps for empty flushes are harmless — acks
        // match batches exactly by sequence number).
        let flush_seq = self.shared.replica.flush_seq.fetch_add(1, Relaxed) + 1;
        // Atomically take the accumulation count before draining: pushes
        // counted here are all in the pending sets this flush is about to
        // drain, while a concurrent worker's later increments survive for
        // the next auto-flush threshold check (an increment racing in
        // between merely triggers one extra empty — free — flush).
        self.shared.replica.unflushed.swap(0, Relaxed);
        for &s in &self.shared.replica_shards {
            // Pending deltas imply the hint (recomputed at every write
            // commit), so untouched shards are skipped without latching.
            let cell = &self.shared.shards[s as usize];
            if !cell.maybe_replica_deltas() {
                continue;
            }
            let mut shard = cell.write();
            if shard.replica.pending.is_empty() {
                continue;
            }
            let pending = std::mem::take(&mut shard.replica.pending);
            let mut per_owner: OrderedGroups<NodeId, std::collections::BTreeMap<Key, Vec<f32>>> =
                OrderedGroups::new();
            for (k, delta) in pending {
                let owner = self.cfg().home(k);
                let group = groups.entry(owner);
                group.keys.push(k);
                group.vals.extend_from_slice(&delta);
                per_owner.entry(owner).insert(k, delta);
            }
            for (owner, batch) in per_owner.into_iter() {
                shard.replica.in_flight.push((owner, flush_seq, batch));
            }
        }
        if groups.is_empty() {
            return;
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
    pub fn pull(
        &mut self,
        keys: &[Key],
        mut out: Option<&mut [f32]>,
        sink: &mut MsgSink,
    ) -> IssueHandle {
        if keys.len() == 1 {
            return self.pull1(keys[0], out, sink);
        }
        let t0 = self.tracer.as_ref().map(|t| t.rec.now());
        let is_async = out.is_none();
        let (total, any_replicated) = self.plan(keys);
        if any_replicated {
            ensure_registered(&self.shared, sink);
        }
        self.tick_adaptive(sink);
        let t1 = t0.map(|_| self.tracer.as_ref().expect("t0 set with tracer").rec.now());
        // Async pulls register every key so the result buffer is in key
        // order (reserved up front, offsets fixed by the plan); sync pulls
        // register lazily (a fully-local sync pull never touches the
        // tracker).
        let mut seq: Option<u64> = if is_async {
            let s = begin(&self.shared, self.slot, &self.guard, TrackedKind::Pull);
            self.shared.tracker.reserve(s, total);
            Some(s)
        } else {
            None
        };

        // Shard phase: one latch acquisition per touched shard.
        let ClientCore {
            shared,
            lane,
            slot,
            guard,
            scratch,
            tracer,
        } = &mut *self;
        let policy = shared.cfg.policy();
        let tracker = &shared.tracker;
        let (mut n_local, mut n_replica, mut n_queued) = (0u64, 0u64, 0u64);
        let mut bytes_moved = 0u64;
        let wait_free = shared.cfg.wait_free_reads;
        for (shard_idx, items) in scratch.groups.iter() {
            // Wait-free fast path (threaded backend): serve the whole
            // group without the latch when every key is a validated
            // owned/replica read. Async pulls stay latched — their
            // tracker registration is a side effect that cannot be
            // rolled back if a later key of the group bails.
            if wait_free {
                if let Some(buf) = out.as_deref_mut() {
                    if pull_group_optimistic(
                        shared,
                        &scratch.plan,
                        items,
                        buf,
                        &mut n_local,
                        &mut n_replica,
                        &mut bytes_moved,
                    ) {
                        continue;
                    }
                }
            }
            let mut shard = shared.shards[shard_idx].write();
            for &i in items {
                let p = &mut scratch.plan[i as usize];
                let (off, len) = (p.off as usize, p.len as usize);
                match policy.issue_route(p.key, &shard, p.forced, lane) {
                    IssueRoute::OwnedLocal => {
                        let v = shard.store.get(p.key).expect("routed to owned store");
                        n_local += 1;
                        bytes_moved += 4 * len as u64;
                        match &mut out {
                            Some(buf) => buf[off..off + len].copy_from_slice(v),
                            None => {
                                let s = seq.expect("async op registered");
                                tracker.add_keys(s, true, false, once((p.key, p.len, p.off)));
                                tracker.complete_key(s, p.key, Some(v));
                            }
                        }
                    }
                    IssueRoute::Replica => {
                        n_replica += 1;
                        bytes_moved += 4 * len as u64;
                        match &mut out {
                            Some(buf) => {
                                let dst = &mut buf[off..off + len];
                                let ok = shard.read_replicated(p.key, dst);
                                debug_assert!(ok, "replicated key {} without replica state", p.key);
                            }
                            None => {
                                scratch.replica_buf.clear();
                                scratch.replica_buf.resize(len, 0.0);
                                let ok = shard.read_replicated(p.key, &mut scratch.replica_buf);
                                debug_assert!(ok, "replicated key {} without replica state", p.key);
                                let s = seq.expect("async op registered");
                                tracker.add_keys(s, true, false, once((p.key, p.len, p.off)));
                                tracker.complete_key(s, p.key, Some(&scratch.replica_buf));
                            }
                        }
                    }
                    IssueRoute::Park => {
                        let s = *seq
                            .get_or_insert_with(|| begin(shared, *slot, guard, TrackedKind::Pull));
                        tracker.add_keys(s, is_async, false, once((p.key, p.len, p.off)));
                        let inc = shard.incoming.get_mut(&p.key).expect("routed to queue");
                        inc.queue.push_back(Queued::Op(QueuedOp {
                            op: OpId::new(shared.node, s),
                            kind: OpKind::Pull,
                            val: Vec::new(),
                        }));
                        n_queued += 1;
                    }
                    IssueRoute::Remote(dst) => p.route = Planned::Remote(dst),
                }
            }
        }
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
        let t2 = t0.map(|_| tracer.as_ref().expect("t0 set with tracer").rec.now());

        // Emit phase: remote keys in original key order, so grouped
        // message contents and emission order match the per-key path.
        let mut groups: OrderedGroups<NodeId, RemoteGroup> = OrderedGroups::new();
        let mut n_remote = 0u64;
        for p in &scratch.plan {
            if let Planned::Remote(dst) = p.route {
                groups.entry(dst).keys.push(p.key);
                n_remote += 1;
            }
        }
        if n_remote > 0 {
            let s = *seq.get_or_insert_with(|| begin(shared, *slot, guard, TrackedKind::Pull));
            tracker.add_keys(
                s,
                is_async,
                true,
                scratch.plan.iter().filter_map(|p| {
                    matches!(p.route, Planned::Remote(_)).then_some((p.key, p.len, p.off))
                }),
            );
            lane.pull_remote.add(n_remote);
            self.guard_remotes();
        }
        let handle = self.flush(seq, OpKind::Pull, 0, groups, sink);
        if let (Some(t), Some(t0), Some(t1), Some(t2)) = (self.tracer.as_ref(), t0, t1, t2) {
            t.op(CLASS_PULL, keys.len() as u64, t0, t1, t2, t.rec.now());
        }
        handle
    }

    /// Issues a push of `keys` with concatenated update terms `vals`.
    /// Pushes are cumulative: the owner adds each term to the current
    /// value (Section 2.1).
    pub fn push(&mut self, keys: &[Key], vals: &[f32], sink: &mut MsgSink) -> IssueHandle {
        debug_assert_eq!(
            vals.len(),
            self.cfg().layout.keys_len(keys),
            "push value length mismatch"
        );
        if keys.len() == 1 {
            return self.push1(keys[0], vals, sink);
        }
        let t0 = self.tracer.as_ref().map(|t| t.rec.now());
        let (_, any_replicated) = self.plan(keys);
        if any_replicated {
            ensure_registered(&self.shared, sink);
        }
        self.tick_adaptive(sink);
        let t1 = t0.map(|_| self.tracer.as_ref().expect("t0 set with tracer").rec.now());
        let mut seq: Option<u64> = None;

        let ClientCore {
            shared,
            lane,
            slot,
            guard,
            scratch,
            tracer,
        } = &mut *self;
        let policy = shared.cfg.policy();
        let tracker = &shared.tracker;
        let (mut n_local, mut n_replica, mut n_queued) = (0u64, 0u64, 0u64);
        let mut accumulated = 0u64;
        let mut park_allocs = 0u64;
        for (shard_idx, items) in scratch.groups.iter() {
            let mut shard = shared.shards[shard_idx].write();
            for &i in items {
                let p = &mut scratch.plan[i as usize];
                let val = &vals[p.off as usize..(p.off + p.len) as usize];
                match policy.issue_route(p.key, &shard, p.forced, lane) {
                    IssueRoute::OwnedLocal => {
                        let applied = shard.store.add(p.key, val);
                        debug_assert!(applied);
                        n_local += 1;
                    }
                    IssueRoute::Replica => {
                        shard.replica.accumulate(p.key, val);
                        n_replica += 1;
                        accumulated += 1;
                    }
                    IssueRoute::Park => {
                        let s = *seq
                            .get_or_insert_with(|| begin(shared, *slot, guard, TrackedKind::Push));
                        tracker.note_counted(s, p.key, 1);
                        let inc = shard.incoming.get_mut(&p.key).expect("routed to queue");
                        inc.queue.push_back(Queued::Op(QueuedOp {
                            op: OpId::new(shared.node, s),
                            kind: OpKind::Push,
                            val: val.to_vec(),
                        }));
                        n_queued += 1;
                        park_allocs += 1;
                    }
                    IssueRoute::Remote(dst) => p.route = Planned::Remote(dst),
                }
            }
        }
        if n_local > 0 {
            lane.push_local.add(n_local);
        }
        if n_replica > 0 {
            lane.push_replica.add(n_replica);
        }
        if n_queued > 0 {
            lane.push_queued.add(n_queued);
        }
        if park_allocs > 0 {
            lane.value_allocs_heap.add(park_allocs);
        }
        let t2 = t0.map(|_| tracer.as_ref().expect("t0 set with tracer").rec.now());

        let mut groups: OrderedGroups<NodeId, RemoteGroup> = OrderedGroups::new();
        let mut n_remote = 0u64;
        for p in &scratch.plan {
            if let Planned::Remote(dst) = p.route {
                let group = groups.entry(dst);
                group.keys.push(p.key);
                group
                    .vals
                    .extend_from_slice(&vals[p.off as usize..(p.off + p.len) as usize]);
                n_remote += 1;
            }
        }
        if n_remote > 0 {
            let s = *seq.get_or_insert_with(|| begin(shared, *slot, guard, TrackedKind::Push));
            tracker.add_keys(
                s,
                false,
                true,
                scratch
                    .plan
                    .iter()
                    .filter_map(|p| matches!(p.route, Planned::Remote(_)).then_some((p.key, 0, 0))),
            );
            lane.push_remote.add(n_remote);
            self.guard_remotes();
        }
        if accumulated > 0 {
            let unflushed = self
                .shared
                .replica
                .unflushed
                .fetch_add(accumulated, Relaxed)
                + accumulated;
            if unflushed >= self.cfg().replica_flush_every {
                self.flush_replicas(sink);
            }
        }
        // Parked keys complete with their hand-over, by count.
        let handle = self.flush(seq, OpKind::Push, n_queued as u32, groups, sink);
        if let (Some(t), Some(t0), Some(t1), Some(t2)) = (self.tracer.as_ref(), t0, t1, t2) {
            t.op(CLASS_PUSH, keys.len() as u64, t0, t1, t2, t.rec.now());
        }
        handle
    }

    /// Single-key pull fast path: bypasses the plan-phase scratch
    /// (`ShardGroups` clear/regroup, ~15 ns of fixed overhead per op —
    /// see EXPERIMENTS.md §value plane) and routes the one key directly.
    /// Bookkeeping — adaptive sampling, guard bits, tracker traffic,
    /// statistics, and emitted messages — is identical to the general
    /// path for a one-key operation.
    fn pull1(&mut self, key: Key, mut out: Option<&mut [f32]>, sink: &mut MsgSink) -> IssueHandle {
        if let Some(t) = self.tracer.as_ref() {
            t.rec.record(&t.ring, EventKind::OpIssue, CLASS_PULL, 1);
        }
        let is_async = out.is_none();
        let len = self.cfg().layout.len(key) as u32;
        let forced =
            self.cfg().ordered_async_guard && self.guard.lock().get(&key).is_some_and(|&n| n > 0);
        if let Some(ad) = &self.shared.adaptive {
            if ad.sample(key, &self.cfg().adaptive) {
                self.lane.sketch_samples.add(1);
            }
        }
        if self.cfg().policy().may_replicate(key) {
            ensure_registered(&self.shared, sink);
        }
        self.tick_adaptive(sink);
        let mut seq: Option<u64> = if is_async {
            let s = begin(&self.shared, self.slot, &self.guard, TrackedKind::Pull);
            self.shared.tracker.reserve(s, len);
            Some(s)
        } else {
            None
        };
        // Wait-free fast path (sync only; async registration above is a
        // side effect, but a single optimistic read either fully serves
        // the op or leaves nothing half-done).
        if !is_async {
            if let Some(buf) = out.as_deref_mut() {
                match self.shared.try_optimistic_read(key, forced, buf) {
                    Some(OptRead::Owned) => {
                        self.lane.pull_local.add(1);
                        self.lane.value_bytes_moved.add(4 * len as u64);
                        return IssueHandle::Ready(None);
                    }
                    Some(OptRead::Replica) => {
                        self.lane.pull_replica.add(1);
                        self.lane.value_bytes_moved.add(4 * len as u64);
                        return IssueHandle::Ready(None);
                    }
                    Some(OptRead::Absent) | None => {}
                }
            }
        }
        let ClientCore {
            shared,
            lane,
            slot,
            guard,
            scratch,
            ..
        } = &mut *self;
        let policy = shared.cfg.policy();
        let tracker = &shared.tracker;
        let mut remote: Option<NodeId> = None;
        {
            let mut shard = shared.shard_for(key).write();
            match policy.issue_route(key, &shard, forced, lane) {
                IssueRoute::OwnedLocal => {
                    let v = shard.store.get(key).expect("routed to owned store");
                    lane.pull_local.add(1);
                    lane.value_bytes_moved.add(4 * len as u64);
                    match &mut out {
                        Some(buf) => buf.copy_from_slice(v),
                        None => {
                            let s = seq.expect("async op registered");
                            tracker.add_keys(s, true, false, once((key, len, 0)));
                            tracker.complete_key(s, key, Some(v));
                        }
                    }
                }
                IssueRoute::Replica => {
                    lane.pull_replica.add(1);
                    lane.value_bytes_moved.add(4 * len as u64);
                    match &mut out {
                        Some(buf) => {
                            let ok = shard.read_replicated(key, buf);
                            debug_assert!(ok, "replicated key {key} without replica state");
                        }
                        None => {
                            scratch.replica_buf.clear();
                            scratch.replica_buf.resize(len as usize, 0.0);
                            let ok = shard.read_replicated(key, &mut scratch.replica_buf);
                            debug_assert!(ok, "replicated key {key} without replica state");
                            let s = seq.expect("async op registered");
                            tracker.add_keys(s, true, false, once((key, len, 0)));
                            tracker.complete_key(s, key, Some(&scratch.replica_buf));
                        }
                    }
                }
                IssueRoute::Park => {
                    let s =
                        *seq.get_or_insert_with(|| begin(shared, *slot, guard, TrackedKind::Pull));
                    tracker.add_keys(s, is_async, false, once((key, len, 0)));
                    let inc = shard.incoming.get_mut(&key).expect("routed to queue");
                    inc.queue.push_back(Queued::Op(QueuedOp {
                        op: OpId::new(shared.node, s),
                        kind: OpKind::Pull,
                        val: Vec::new(),
                    }));
                    lane.pull_queued.add(1);
                }
                IssueRoute::Remote(dst) => remote = Some(dst),
            }
        }
        let mut groups: OrderedGroups<NodeId, RemoteGroup> = OrderedGroups::new();
        if let Some(dst) = remote {
            let s = *seq.get_or_insert_with(|| begin(shared, *slot, guard, TrackedKind::Pull));
            tracker.add_keys(s, is_async, true, once((key, len, 0)));
            lane.pull_remote.add(1);
            if shared.cfg.ordered_async_guard {
                *guard.lock().entry(key).or_insert(0) += 1;
            }
            groups.entry(dst).keys.push(key);
        }
        self.flush(seq, OpKind::Pull, 0, groups, sink)
    }

    /// Single-key push fast path; see [`ClientCore::pull1`].
    fn push1(&mut self, key: Key, val: &[f32], sink: &mut MsgSink) -> IssueHandle {
        if let Some(t) = self.tracer.as_ref() {
            t.rec.record(&t.ring, EventKind::OpIssue, CLASS_PUSH, 1);
        }
        let forced =
            self.cfg().ordered_async_guard && self.guard.lock().get(&key).is_some_and(|&n| n > 0);
        if let Some(ad) = &self.shared.adaptive {
            if ad.sample(key, &self.cfg().adaptive) {
                self.lane.sketch_samples.add(1);
            }
        }
        if self.cfg().policy().may_replicate(key) {
            ensure_registered(&self.shared, sink);
        }
        self.tick_adaptive(sink);
        let mut seq: Option<u64> = None;
        let ClientCore {
            shared,
            lane,
            slot,
            guard,
            ..
        } = &mut *self;
        let policy = shared.cfg.policy();
        let tracker = &shared.tracker;
        let mut remote: Option<NodeId> = None;
        let mut accumulated = false;
        let mut parked = 0u32;
        {
            let mut shard = shared.shard_for(key).write();
            match policy.issue_route(key, &shard, forced, lane) {
                IssueRoute::OwnedLocal => {
                    let applied = shard.store.add(key, val);
                    debug_assert!(applied);
                    lane.push_local.add(1);
                }
                IssueRoute::Replica => {
                    shard.replica.accumulate(key, val);
                    lane.push_replica.add(1);
                    accumulated = true;
                }
                IssueRoute::Park => {
                    let s =
                        *seq.get_or_insert_with(|| begin(shared, *slot, guard, TrackedKind::Push));
                    tracker.note_counted(s, key, 1);
                    parked = 1;
                    let inc = shard.incoming.get_mut(&key).expect("routed to queue");
                    inc.queue.push_back(Queued::Op(QueuedOp {
                        op: OpId::new(shared.node, s),
                        kind: OpKind::Push,
                        val: val.to_vec(),
                    }));
                    lane.push_queued.add(1);
                    lane.value_allocs_heap.add(1);
                }
                IssueRoute::Remote(dst) => remote = Some(dst),
            }
        }
        let mut groups: OrderedGroups<NodeId, RemoteGroup> = OrderedGroups::new();
        if let Some(dst) = remote {
            let s = *seq.get_or_insert_with(|| begin(shared, *slot, guard, TrackedKind::Push));
            tracker.add_keys(s, false, true, once((key, 0, 0)));
            lane.push_remote.add(1);
            if shared.cfg.ordered_async_guard {
                *guard.lock().entry(key).or_insert(0) += 1;
            }
            let group = groups.entry(dst);
            group.keys.push(key);
            group.vals.extend_from_slice(val);
        }
        if accumulated {
            let unflushed = self.shared.replica.unflushed.fetch_add(1, Relaxed) + 1;
            if unflushed >= self.cfg().replica_flush_every {
                self.flush_replicas(sink);
            }
        }
        self.flush(seq, OpKind::Push, parked, groups, sink)
    }

    /// Issues a localize of `keys`: requests that all of them be relocated
    /// to this node (Table 2). Keys whose technique does not relocate —
    /// all of them under the classic variants, replicated keys under the
    /// replication/hybrid variants — are skipped.
    ///
    /// Most keys of a pre-localize are already here (the sentence or the
    /// negative-sample buffer before it shared them), so every key is
    /// **probed first** ([`NodeShared::probe_local`]: no latch where the
    /// wait-free read path is on) and only the absent ones are planned,
    /// grouped by shard and write-latched. Under the latch the check is
    /// repeated — a key may have arrived since the probe — and a key that
    /// is still absent is handed to the shard's incoming state, which
    /// completes it by count when the hand-over arrives; the tracker
    /// hears of them once, at the seal.
    pub fn localize(&mut self, keys: &[Key], sink: &mut MsgSink) -> IssueHandle {
        let t0 = self.tracer.as_ref().map(|t| t.rec.now());
        let ClientCore {
            shared,
            lane,
            slot,
            guard,
            scratch,
            tracer,
        } = &mut *self;
        let cfg = &shared.cfg;
        let policy = cfg.policy();
        scratch.plan.clear();
        scratch.groups.clear();
        for &k in keys {
            if !policy.relocation_enabled(k) || shared.probe_local(k) {
                continue;
            }
            let idx = scratch.plan.len();
            scratch.plan.push(KeyPlan {
                key: k,
                len: 0,
                off: 0,
                forced: false,
                route: Planned::Done,
            });
            scratch.groups.push(cfg.shard_of(k), idx as u32);
        }
        let t1 = t0.map(|_| tracer.as_ref().expect("t0 set with tracer").rec.now());

        let tracker = &shared.tracker;
        let mut seq: Option<u64> = None;
        let (mut n_waiting, mut n_sent) = (0u32, 0u64);
        for (shard_idx, items) in scratch.groups.iter() {
            let mut shard = shared.shards[shard_idx].write();
            for &i in items {
                let p = &mut scratch.plan[i as usize];
                if policy.replicated_in(p.key, &shard) || shard.store.contains(p.key) {
                    // Arrived (or was promoted to replication) since the
                    // probe: nothing to do.
                    continue;
                }
                let s =
                    *seq.get_or_insert_with(|| begin(shared, *slot, guard, TrackedKind::Localize));
                tracker.note_counted(s, p.key, 1);
                n_waiting += 1;
                let op = OpId::new(shared.node, s);
                match shard.incoming.entry(p.key) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        // A relocation towards this node is already in
                        // flight; piggyback on it.
                        e.get_mut().push_localize(op);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(IncomingState::default()).push_localize(op);
                        p.route = Planned::Remote(cfg.home(p.key));
                        n_sent += 1;
                    }
                }
            }
        }
        if n_sent > 0 {
            lane.localize_sent.add(n_sent);
        }
        let t2 = t0.map(|_| tracer.as_ref().expect("t0 set with tracer").rec.now());
        // Emit phase: requests per home node, in original key order.
        let mut groups: OrderedGroups<NodeId, Vec<Key>> = OrderedGroups::new();
        for p in &scratch.plan {
            if let Planned::Remote(home) = p.route {
                groups.entry(home).push(p.key);
            }
        }
        let handle = match seq {
            None => IssueHandle::Ready(None),
            Some(s) => {
                for (home, keys) in groups.into_iter() {
                    sink.push((
                        home,
                        Msg::LocalizeReq(LocalizeReqMsg {
                            op: OpId::new(shared.node, s),
                            keys,
                        }),
                    ));
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
            t.op(CLASS_LOCALIZE, keys.len() as u64, t0, t1, t2, t.rec.now());
        }
        handle
    }

    /// Reads `key` only if it is currently stored on this node (owned, or
    /// replicated here); returns whether `out` was filled. Used by the
    /// word-vector workload to sample negatives without network traffic
    /// (Appendix A).
    pub fn pull_if_local(&self, key: Key, out: &mut [f32]) -> bool {
        let policy = self.cfg().policy();
        if !policy.shared_memory() {
            return false;
        }
        // Wait-free fast path: a validated optimistic snapshot answers
        // the local-or-not question and copies the value in one pass.
        match self.shared.try_optimistic_read(key, false, out) {
            Some(OptRead::Owned) => {
                self.lane.pull_local.add(1);
                return true;
            }
            Some(OptRead::Replica) => {
                self.lane.pull_replica.add(1);
                return true;
            }
            Some(OptRead::Absent) => return false,
            None => {}
        }
        let shard = self.shared.shard_for(key).read();
        if policy.replicated_in(key, &shard) {
            let ok = shard.read_replicated(key, out);
            debug_assert!(ok, "replicated key {key} without replica state");
            self.lane.pull_replica.add(1);
            return ok;
        }
        match shard.store.get(key) {
            Some(v) => {
                out.copy_from_slice(v);
                self.lane.pull_local.add(1);
                true
            }
            None => false,
        }
    }

    /// Assembles a completed sync pull into the caller's buffer and
    /// releases the tracker entry.
    pub fn finish_pull(&self, seq: u64, out: &mut [f32]) {
        if let Some(t) = self.tracer.as_ref() {
            t.rec
                .record(&t.ring, EventKind::OpComplete, CLASS_PULL, seq);
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
            t.rec
                .record(&t.ring, EventKind::OpComplete, CLASS_PULL, seq);
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
            t.rec.record(&t.ring, EventKind::OpComplete, class, seq);
        }
    }

    /// Sends an operation's remote groups and seals it, registering its
    /// `counted` keys (parked pushes) in the same step.
    fn flush(
        &self,
        seq: Option<u64>,
        kind: OpKind,
        counted: u32,
        groups: OrderedGroups<NodeId, RemoteGroup>,
        sink: &mut MsgSink,
    ) -> IssueHandle {
        match seq {
            None => {
                debug_assert!(groups.is_empty());
                IssueHandle::Ready(None)
            }
            Some(s) => {
                for (dst, group) in groups.into_iter() {
                    sink.push((
                        dst,
                        Msg::Op(OpMsg {
                            op: OpId::new(self.shared.node, s),
                            kind,
                            keys: group.keys,
                            vals: group.vals,
                            routed_by_home: false,
                        }),
                    ));
                }
                if self.shared.tracker.seal_counted(s, counted) {
                    // All keys completed during issue (e.g. a queued key
                    // drained concurrently).
                    match kind {
                        OpKind::Pull => IssueHandle::Pending(s), // caller still assembles
                        OpKind::Push => {
                            self.shared.tracker.discard(s);
                            IssueHandle::Ready(None)
                        }
                    }
                } else {
                    IssueHandle::Pending(s)
                }
            }
        }
    }
}

/// Begins a tracked operation for worker `slot`.
fn begin(shared: &NodeShared, slot: u16, guard: &GuardMap, kind: TrackedKind) -> u64 {
    shared.tracker.begin(kind, slot, Some(guard.clone()))
}
