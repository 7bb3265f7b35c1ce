//! The latched shared node state.
//!
//! Figure 2 of the paper: each node runs one server thread and several
//! worker threads in one process, and workers access the local parameter
//! store **directly via shared memory**, synchronizing with the server
//! thread through latches. [`NodeShared`] is that shared state: a vector
//! of latch-guarded [`Shard`]s, each covering a contiguous key range and
//! holding
//!
//! * the shard's slice of the local parameter store — one slot per key of
//!   the range, one byte that is the key's whole state on this node, and
//!   the not-yet-propagated deltas of its replicated keys
//!   ([`crate::storage`]),
//! * the queues of operations addressed to keys currently relocating *to*
//!   this node (Section 3.2: the requester queues local and forwarded
//!   accesses until the hand-over arrives) — private to the [`Shard`]
//!   transitions that also set the key's byte to or from `Incoming` or
//!   `Promoting`,
//! * at a key's home, its demotion votes while it is `Primary`, and its
//!   drain epoch and deferred localizes while it is `Demoting` — private
//!   to the [`Shard`] transitions of adaptive management, and
//! * the shard's slice of the optional location cache (Section 3.3).
//!
//! The paper's default of 1000 latches per node is kept
//! (`ProtoConfig::latches`).
//!
//! ## Seqlock read fast path
//!
//! Each shard's latch **is** its sequence word ([`ShardCell`]): one
//! `AtomicU64` holds the shard's write generation and two bits, "a guard
//! holds the latch" and "that guard writes". Writers serialize on it
//! ([`ShardCell::write`]: one compare-and-swap in, one store out), but
//! local pulls of owned and replicated keys can run as wait-free
//! optimistic reads ([`NodeShared::try_optimistic_read`]) — copy the value
//! without any lock, then re-check the word and retry (bounded, falling
//! back to the latch) if a writer intervened. Both backends turn it on
//! (`ProtoConfig::wait_free_reads`); on the simulator, which runs one
//! task at a time, every such read validates first time.

use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use lapse_net::{Key, NodeId};
use lapse_trace::{EventKind, Recorder, Tracer, ACTOR_LATCH};

use crate::adaptive::AdaptiveShared;
use crate::config::{ProtoConfig, Variant};
use crate::keymap::{Entry, KeyMap};
use crate::messages::{OpId, OpKind};
use crate::serving::ServingState;
use crate::storage::{Residency, ShardStore};
use crate::tracker::{ClockFn, OpTracker};

/// Optimistic-read retry budget before falling back to the latch.
const SEQLOCK_RETRIES: usize = 4;

/// [`ShardCell`] word bit: a guard holds the latch.
const LOCKED: u64 = 1;
/// [`ShardCell`] word bit: the guard holding the latch is a writer's
/// (set only together with [`LOCKED`]).
const WRITING: u64 = 2;
/// One write generation in a [`ShardCell`] word (the two bits below it
/// are [`LOCKED`] and [`WRITING`]).
const GENERATION: u64 = 4;
/// Failed attempts of a contended latch acquisition between two
/// `yield_now`s.
const LATCH_SPINS: u32 = 64;

/// An operation parked while its key relocates to this node.
#[derive(Debug)]
pub struct QueuedOp {
    /// The operation a completion must be routed to.
    pub op: OpId,
    /// Pull or push.
    pub kind: OpKind,
    /// Push payload (empty for pulls).
    pub val: Vec<f32>,
}

/// One entry of a relocation queue.
#[derive(Debug)]
pub enum Queued {
    /// A parked pull/push.
    Op(QueuedOp),
    /// A parked "instruct relocation": the key must move on to
    /// `new_owner` as soon as it arrives here (localization conflict,
    /// Section 3.2).
    Relocate {
        /// The localize operation that requested the onward move.
        op: OpId,
        /// Next owner.
        new_owner: NodeId,
    },
}

/// State of one key currently relocating to this node.
///
/// Almost every entry lives for one round trip and holds exactly one
/// waiting localize — the one whose request started the relocation — so
/// that one is stored inline: creating the entry allocates nothing, and
/// only a second waiter or a parked operation does.
#[derive(Debug, Default)]
pub struct IncomingState {
    /// Parked work, in arrival order.
    pub queue: VecDeque<Queued>,
    /// The first local localize operation waiting for the hand-over.
    first_localize: Option<OpId>,
    /// Further waiters, in arrival order (several workers may localize
    /// the same key concurrently; only the first sends a message).
    more_localizes: Vec<OpId>,
}

impl IncomingState {
    /// Adds a local localize operation waiting for the hand-over.
    pub fn push_localize(&mut self, op: OpId) {
        match self.first_localize {
            None => self.first_localize = Some(op),
            Some(_) => self.more_localizes.push(op),
        }
    }

    /// The waiting localize operations, in arrival order.
    pub fn waiting_localizes(&self) -> impl Iterator<Item = OpId> + '_ {
        self.first_localize
            .into_iter()
            .chain(self.more_localizes.iter().copied())
    }
}

/// The home's bookkeeping of a key in a technique transition; its byte
/// says which fields speak.
#[derive(Debug, Default)]
struct Transit {
    /// `Primary`: the nodes that have voted the key cold.
    votes: BTreeSet<NodeId>,
    /// `Demoting`: the epoch of the drain that pins it.
    epoch: u64,
    /// `Demoting`: localizes deferred until then, tagged by arrival.
    deferred: Vec<(u64, OpId)>,
}

/// One latch-guarded shard of node state, in whole blocks and declaration
/// order (see [`ShardCell`]).
#[derive(Debug)]
#[repr(C, align(128))]
pub struct Shard {
    /// The shard's slice of the local parameter store.
    pub store: ShardStore,
    /// The parked work of exactly the `Incoming` and `Promoting` keys:
    /// only the transitions below, which set the key's byte too, touch it.
    incoming: KeyMap<Key, IncomingState>,
    /// Location cache (used only when `ProtoConfig::location_caches`).
    pub loc_cache: KeyMap<Key, NodeId>,
    /// The transition bookkeeping of exactly the `Demoting` keys and the
    /// `Primary` keys with votes: only the transitions below touch it.
    transit: BTreeMap<Key, Transit>,
}

impl Shard {
    /// `Absent` → `Incoming`: a relocation of `key` to this node starts (a
    /// `localize`); for a key already incoming or promoting, its entry
    /// again. The flag says whether it is new.
    pub fn expect(&mut self, key: Key) -> (&mut IncomingState, bool) {
        match self.incoming.entry(key) {
            Entry::Occupied(e) => (e.into_mut(), false),
            Entry::Vacant(e) => {
                self.store.mark_incoming(key);
                (e.insert(IncomingState::default()), true)
            }
        }
    }

    /// Parks `item` behind the relocation of `key`, which is `Incoming`.
    pub fn park(&mut self, key: Key, item: Queued) {
        let entry = self.incoming.get_mut(&key);
        entry.expect("park: not incoming").queue.push_back(item);
    }

    /// `Absent`/`Incoming` → `Promoting`, at `key`'s home: a promotion
    /// waits for the hand-over that brings the key home, and work parks as
    /// for `Incoming`.
    pub fn expect_promotion(&mut self, key: Key) {
        self.store.mark_promoting(key);
        self.incoming.entry(key).or_default();
    }

    /// `Incoming`/`Promoting` → `Owned`: the hand-over of `key` arrives,
    /// `fill` writes its value. Returns the work parked behind it, to drain.
    pub fn hand_in(&mut self, key: Key, fill: impl FnOnce(&mut [f32])) -> IncomingState {
        self.store.arrive_with(key, Residency::Owned, fill);
        self.incoming.remove(&key).expect("an incoming key's entry")
    }

    /// `Absent`/`Incoming` → `Replica`: a promotion broadcast installs the
    /// home's value of `key`. Returns the work parked behind a localize
    /// the home refused meanwhile, to drain.
    pub fn promote_in(&mut self, key: Key, fill: impl FnOnce(&mut [f32])) -> Option<IncomingState> {
        let parked = self.incoming.remove(&key);
        if parked.is_some() {
            self.store.arrive_with(key, Residency::Replica, fill);
        } else {
            debug_assert!(!self.store.residency(key).held(), "promoted {key} twice");
            self.store.refresh_with(key, fill);
        }
        parked
    }

    /// `node` votes the `Primary` key cold; returns how many nodes have.
    pub(crate) fn vote_demotion(&mut self, key: Key, node: NodeId) -> usize {
        let votes = &mut self.transit.entry(key).or_default().votes;
        votes.insert(node);
        votes.len()
    }

    /// Forgets the demotion votes of the `Primary` key.
    pub(crate) fn clear_votes(&mut self, key: Key) {
        self.transit.remove(&key);
    }

    /// `Primary` → `Demoting`: `key` is pinned until the drain of `epoch`
    /// completes; its votes go.
    pub(crate) fn start_demotion(&mut self, key: Key, epoch: u64) {
        self.store.demote(key);
        self.transit.insert(key, Transit::default());
        self.pinned(key).epoch = epoch;
    }

    /// The drain bookkeeping of `key`, which is `Demoting`.
    fn pinned(&mut self, key: Key) -> &mut Transit {
        let held = self.store.residency(key);
        assert_eq!(held, Residency::Demoting, "drain of {key}");
        self.transit.get_mut(&key).expect("a demoting key's drain")
    }

    /// The epoch of the drain that pins `key`, which is `Demoting`.
    pub(crate) fn demotion_epoch(&mut self, key: Key) -> u64 {
        self.pinned(key).epoch
    }

    /// Defers localize `op` of the `Demoting` key until its drain
    /// completes; `tag` orders it among that drain's deferred localizes.
    pub(crate) fn defer(&mut self, key: Key, tag: u64, op: OpId) {
        self.pinned(key).deferred.push((tag, op));
    }

    /// `Demoting` → `Owned`: the drain of `key` has completed. Returns the
    /// localizes deferred meanwhile, tagged.
    pub(crate) fn finish_demotion(&mut self, key: Key) -> Vec<(u64, OpId)> {
        self.store.unpin(key);
        self.transit.remove(&key).expect("a drain").deferred
    }
}

/// One access counter of an [`AccessLane`].
///
/// A bump is a relaxed load and a relaxed store — no `lock` prefix — so
/// it is exact only while the lane has one writer (see [`AccessLane`]).
/// The storage is still an `AtomicU64`: a reader on another thread sees
/// a stale value, never a torn one.
#[derive(Debug, Default)]
pub struct LaneCounter(AtomicU64);

impl LaneCounter {
    /// Adds `n`. Only the lane's one writer may call this.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.store(
            self.0.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }

    /// The current count (possibly stale on a thread other than the
    /// writer's).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declares every per-core counter once: the [`AccessLane`] that counts
/// them, the plain [`AccessStats`] snapshot that reports them, and the
/// two conversions between (lane → snapshot, snapshot sum). A run's
/// `ClusterStats` is the sum of every lane of every node and reads
/// these counters through it, under these names: a counter added here
/// is reported with nothing else to write.
macro_rules! access_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// One core's block of counters: the accesses of Table 5 and the
        /// workload table of the paper, which sit on every parameter
        /// access, and a worker's waits.
        ///
        /// Every `ClientCore`, `ServerCore` and `SnapshotReader` claims
        /// a lane of its own from its node when it is built
        /// ([`NodeShared::claim_lane`]) and is the only writer of that
        /// lane, so bumps need no atomic read-modify-write and two
        /// cores never write the same cache line:
        ///
        /// * a `ClientCore` is owned by its worker thread (the threaded
        ///   worker also counts its own coalescer's envelopes and its
        ///   own waits there);
        /// * a `ServerCore`, and the coalescer beside it, is only run
        ///   under the node's role lock, whose release/acquire orders
        ///   the plain stores of one holder before the loads of the
        ///   next (on the simulator one task runs at a time);
        /// * a `SnapshotReader` reads through `&mut self`.
        ///
        /// Aligned to 128 bytes: a lane shares neither a line nor an
        /// adjacent-line-prefetch pair with anything else.
        #[derive(Debug, Default)]
        #[repr(align(128))]
        pub struct AccessLane {
            $($(#[$doc])* pub $name: LaneCounter,)*
        }

        impl AccessLane {
            /// The lane's counts as plain numbers.
            pub fn snapshot(&self) -> AccessStats {
                AccessStats { $($name: self.$name.get(),)* }
            }
        }

        /// A snapshot of a node's access counters, summed over its lanes
        /// ([`NodeShared::stats`]). Exact once the writers have stopped
        /// (joined threads, a quiescent test cluster); a mid-run
        /// snapshot may lag each writer by its latest bumps.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct AccessStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl std::ops::AddAssign for AccessStats {
            fn add_assign(&mut self, other: Self) {
                $(self.$name += other.$name;)*
            }
        }
    };
}

access_counters! {
    /// Pull keys served via the shared-memory fast path.
    pull_local,
    /// Pull keys parked in a relocation queue on the issuing node.
    pull_queued,
    /// Pull keys routed over the network.
    pull_remote,
    /// Push keys served via the shared-memory fast path.
    push_local,
    /// Push keys parked in a relocation queue on the issuing node.
    push_queued,
    /// Push keys routed over the network.
    push_remote,
    /// Keys this node asked to localize (messages actually sent).
    localize_sent,
    /// Keys relocated by this node acting as home (paper: "relocations").
    relocations,
    /// Keys received via hand-over.
    handovers,
    /// Remote keys routed to a location-cache entry instead of the home
    /// node (cache hits; only meaningful with `location_caches` on).
    loc_cache_hits,
    /// Operations double-forwarded due to a stale location cache.
    loc_cache_stale_forwards,
    /// Relocate messages for keys this node neither owned nor expected
    /// (protocol-invariant violations; must stay 0).
    unexpected_relocates,
    /// Pull keys served by the replication technique (local replica view).
    pull_replica,
    /// Push keys accumulated by the replication technique.
    push_replica,
    /// Replica flushes this node propagated (ReplicaPush messages sent).
    replica_flushes,
    /// Replicated push keys applied at this node acting as owner.
    replica_pushes_applied,
    /// Replicated keys refreshed on this node by owner broadcasts.
    replica_refreshes,
    /// Accesses sampled into this node's adaptive sketch.
    sketch_samples,
    /// Promotion requests this node's controller sent.
    tech_promote_reqs,
    /// Demotion votes this node's controller sent.
    tech_demote_reqs,
    /// Keys this node promoted to replication, acting as home.
    tech_promotions,
    /// Keys this node demoted back to relocation, acting as home.
    tech_demotions,
    /// Bytes of parameter values moved through this node's value plane:
    /// local/replica pull serves into caller buffers plus value payloads
    /// assembled into outgoing responses, hand-overs, and refreshes
    /// (counted once per broadcast). Incremented once per operation or
    /// message, never per key.
    value_bytes_moved,
    /// Per-value heap allocations on the hot paths (e.g. parked-operation
    /// payload copies). The stores allocate nothing after construction,
    /// and owned local serves contribute **zero** here — the property
    /// the value-plane stress test pins down.
    value_allocs_heap,
    /// Batch envelopes this node sent (sender-side coalescing; threaded
    /// backend only — the simulator never coalesces).
    net_batches,
    /// Constituent messages carried inside those envelopes.
    net_batched_msgs,
    /// Snapshot-plane reads served wait-free (owned or replica tier).
    snapshot_reads,
    /// Snapshot-plane reads that fell back to the latched path.
    snapshot_fallbacks,
    /// Waits for an operation that found it complete at the first check:
    /// it ran to completion on the issuing worker's own thread (threaded
    /// backend; 0 on the simulator, like the three below). Every wait
    /// counts as exactly one of `wake_immediate`, `wake_spins`,
    /// `wake_parks`.
    wake_immediate,
    /// Waits that ended while the worker polled: another thread held the
    /// destination's role and finished the operation within the spin
    /// budget.
    wake_spins,
    /// Waits that outlasted the spin budget, so that the worker went on
    /// to sleep and the completing thread had to wake it.
    wake_parks,
    /// Nanoseconds the worker spent waiting after a failed first check,
    /// polling and asleep: the "remote wait" term of an epoch's
    /// attribution.
    wait_ns,
}

impl AccessStats {
    /// Total pull keys.
    pub fn pull_total(&self) -> u64 {
        self.pull_local + self.pull_queued + self.pull_remote + self.pull_replica
    }

    /// Pull keys that never left the node (fast path + replica view +
    /// parked locally).
    pub fn pull_local_total(&self) -> u64 {
        self.pull_local + self.pull_queued + self.pull_replica
    }
}

/// The words that pace a node's replica propagation. Every worker of the
/// node writes them (replicated pushes, flushes), so they sit in a block
/// of their own, away from both the read-only [`NodeShared`] header and
/// the single-writer lanes.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct ReplicaCtl {
    /// Whether this node has subscribed to replica refreshes yet
    /// (flipped by the first replicated access).
    pub registered: AtomicBool,
    /// Replicated pushes accumulated since the last flush (the automatic
    /// flush trigger, see `ProtoConfig::replica_flush_every`).
    pub unflushed: AtomicU64,
    /// Flush sequence numbers for this node's replica propagation.
    pub flush_seq: AtomicU64,
}

/// The lanes claimed on a node so far. Behind a mutex that only core
/// construction and [`NodeShared::stats`] take, in a block of its own so
/// that a claim made mid-run writes nothing next to the header.
#[derive(Debug)]
#[repr(align(128))]
struct LaneRegistry(Mutex<Vec<Arc<AccessLane>>>);

impl LaneRegistry {
    /// Room for a node's usual handful of cores (workers, server,
    /// readers), so that claims made as threads start do not reallocate.
    const INITIAL_LANES: usize = 16;

    fn new() -> Self {
        LaneRegistry(Mutex::new(Vec::with_capacity(Self::INITIAL_LANES)))
    }
}

/// A latched, seqlock-read shard slot.
///
/// The latch and the seqlock are one word, `seq = generation << 2 |
/// WRITING | LOCKED`. All mutation goes through [`ShardCell::write`]: one
/// compare-and-swap from an unlocked word to `| LOCKED | WRITING`
/// (acquire), and on guard drop one release store of the next generation
/// with both bits clear — the crossbeam-style seqlock write protocol, with
/// the latch folded in. [`ShardCell::read`] sets `LOCKED` only and its
/// drop restores the word, so read-only guard holders exclude writers but
/// never invalidate concurrent optimistic readers. Optimistic readers
/// load the word (acquire), retry while `WRITING` is set, copy racily out
/// of *stable* memory only (see `ShardStore::read_racy`), and accept the
/// snapshot iff the word without `LOCKED` is unchanged afterwards.
/// Everything a read needs is the key's residency byte and, for a
/// replicated key, its count of deltas held (`ShardStore::has_deltas`).
///
/// Aligned to 128 bytes and laid out in declaration order: the store's
/// header opens the cell's first block, which only a transition between
/// replicated and not, and the shard's first delta, write; the sequence
/// word opens the block after
/// the shard's, which it shares with nothing — not with the next shard's
/// state either (contiguous range sharding puts the Zipf-hot keys in
/// neighbouring shards).
#[repr(C, align(128))]
pub struct ShardCell {
    shard: UnsafeCell<Shard>,
    /// The latch and the seqlock: `generation << 2 | WRITING | LOCKED`.
    seq: AtomicU64,
    /// Flight-recorder hookup for latch-wait spans (`None` when tracing
    /// is off: acquisitions skip instrumentation entirely). Boxed so
    /// that a cell fills three 128-byte blocks, not four.
    trace: Option<Box<LatchTrace>>,
}

/// Per-cell flight-recorder handle: the node's shared latch lane plus
/// this cell's shard index.
struct LatchTrace {
    tracer: Tracer,
    shard_idx: u64,
}

// SAFETY: every `&mut Shard` is created under a write guard, whose
// compare-and-swap set `LOCKED` on an unlocked word (so no other guard is
// live until its drop clears it); `&Shard` access is either under a guard
// (read guards set `LOCKED` too, so no writer is live) or follows the
// seqlock protocol, which touches only realloc-free memory and validates
// the word before trusting any observation. The other fields are atomics
// or, like the trace handle, never written after construction.
unsafe impl Sync for ShardCell {}

impl ShardCell {
    /// Attaches the node's latch-wait lane (called once at node
    /// construction, before the cell is shared).
    fn set_trace(&mut self, tracer: Tracer, shard_idx: u64) {
        self.trace = Some(Box::new(LatchTrace { tracer, shard_idx }));
    }

    /// Acquires the latch by setting `bits` (`LOCKED`, plus `WRITING` for
    /// a writer) on an unlocked word, and returns the word it found: the
    /// guard's drop stores that word's successor. The uncontended case is
    /// one load and one compare-and-swap, inlined here; anything else goes
    /// to [`ShardCell::lock_contended`]. On the sim backend at most one
    /// thread runs at a time, so the first attempt always succeeds and no
    /// latch-wait event is recorded — traces stay bit-deterministic.
    #[inline]
    fn lock(&self, bits: u64) -> u64 {
        let s = self.seq.load(Ordering::Relaxed);
        if s & LOCKED == 0
            && self
                .seq
                .compare_exchange(s, s | bits, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            return s;
        }
        self.lock_contended(bits)
    }

    /// [`ShardCell::lock`] once the first attempt failed: retries,
    /// spinning [`LATCH_SPINS`] times between `yield_now`s (a preempted
    /// holder gets the CPU back), and records a latch-wait span when
    /// tracing is on. The attempt is written out here and in `lock`
    /// rather than shared: sharing it through an `Option` changes how
    /// LLVM lays out every guard site (checked on the benchmark binary).
    #[cold]
    #[inline(never)]
    fn lock_contended(&self, bits: u64) -> u64 {
        let traced = self.trace.as_deref();
        let t0 = traced.map(|t| t.tracer.now());
        let mut spins = 0;
        let s = loop {
            let s = self.seq.load(Ordering::Relaxed);
            if s & LOCKED == 0
                && self
                    .seq
                    .compare_exchange(s, s | bits, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                break s;
            }
            spins += 1;
            if spins < LATCH_SPINS {
                std::hint::spin_loop();
            } else {
                spins = 0;
                std::thread::yield_now();
            }
        };
        if let (Some(t), Some(t0)) = (traced, t0) {
            let t1 = t.tracer.now();
            let waited = t1.saturating_sub(t0);
            t.tracer
                .record_at(EventKind::LatchWait, t1, t.shard_idx, waited);
        }
        s
    }

    /// Takes the latch for read-only access: sets `LOCKED` but not
    /// `WRITING`, and the guard's drop restores the word, so concurrent
    /// optimistic readers stay valid.
    ///
    /// The guard is `Deref` only and [`Shard`] has no interior
    /// mutability, so a write through it — which optimistic readers
    /// could not notice, the sequence being unchanged — does not compile:
    ///
    /// ```compile_fail,E0596
    /// # use std::sync::Arc;
    /// # use lapse_net::{Key, NodeId};
    /// # use lapse_proto::{Layout, NodeShared, ProtoConfig};
    /// let cfg = Arc::new(ProtoConfig::new(1, 4, Layout::Uniform(1)));
    /// let node = NodeShared::new(cfg, NodeId(0), Arc::new(|| 0));
    /// node.shard_for(Key(0)).read().store.add(Key(0), &[1.0]);
    /// ```
    ///
    /// The same line through [`ShardCell::write`] does (so the failure
    /// above is the borrow, nothing else):
    ///
    /// ```
    /// # use std::sync::Arc;
    /// # use lapse_net::{Key, NodeId};
    /// # use lapse_proto::{Layout, NodeShared, ProtoConfig};
    /// let cfg = Arc::new(ProtoConfig::new(1, 4, Layout::Uniform(1)));
    /// let node = NodeShared::new(cfg, NodeId(0), Arc::new(|| 0));
    /// assert!(node.shard_for(Key(0)).write().store.add(Key(0), &[1.0]));
    /// ```
    #[inline]
    pub fn read(&self) -> ShardReadGuard<'_> {
        let unlocked = self.lock(LOCKED);
        // SAFETY: the latch excludes all writers (they hold it for their
        // whole critical section), so a shared borrow is safe.
        ShardReadGuard {
            shard: unsafe { &*self.shard.get() },
            seq: &self.seq,
            unlocked,
        }
    }

    /// Takes the latch for mutation, entering a seqlock write critical
    /// section (`LOCKED | WRITING` set now, the next generation stored on
    /// drop).
    #[inline]
    pub fn write(&self) -> ShardWriteGuard<'_> {
        let unlocked = self.lock(LOCKED | WRITING);
        // `WRITING` before any store of the section: an optimistic reader
        // that sees one of them sees the bit (or a later word) when it
        // validates.
        fence(Ordering::Release);
        ShardWriteGuard {
            cell: self,
            unlocked,
        }
    }

    /// Whether the shard holds pending replica deltas: a validated read
    /// without the latch, or `true` when none validated.
    #[inline]
    pub(crate) fn has_pending(&self) -> bool {
        !matches!(self.optimistic(|s| Some(s.store.pending())), Some(0))
    }

    /// Committed write generation of this shard (`seq >> 2`): advances
    /// once per write critical section — the write-guard-drop component
    /// of the serving-epoch publication (see [`crate::serving`]).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.seq.load(Ordering::Acquire) >> 2
    }

    /// Begins an optimistic read: the current word (acquire).
    #[inline]
    fn seq_enter(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Ends an optimistic read: true iff no writer intervened since
    /// `seq_enter` returned `s1` (and `s1` had `WRITING` clear). A read
    /// guard taken or dropped meanwhile flips `LOCKED` only, which both
    /// sides of the comparison have set.
    #[inline]
    fn seq_validate(&self, s1: u64) -> bool {
        fence(Ordering::Acquire);
        self.seq.load(Ordering::Relaxed) | LOCKED == s1 | LOCKED
    }

    /// Runs `observe` on the shard **without the latch**, under the
    /// seqlock read protocol, and returns what it saw only if no writer
    /// was inside the shard at any point of the observation — a
    /// validated snapshot, exactly what a latched reader would have seen
    /// at that instant. `None` when `observe` gives up (it met state the
    /// racy path cannot read) or the retry budget ran out under writer
    /// pressure: the caller takes the latch.
    ///
    /// `observe` may run concurrently with a writer and may run more
    /// than once. It must touch only memory that writers never
    /// reallocate (the store's residency bytes, slab and delta counts) and
    /// must treat everything it reads as possibly torn until this function
    /// returns `Some`.
    #[inline]
    fn optimistic<R>(&self, mut observe: impl FnMut(&Shard) -> Option<R>) -> Option<R> {
        for _ in 0..SEQLOCK_RETRIES {
            let s1 = self.seq_enter();
            if s1 & WRITING != 0 {
                std::hint::spin_loop();
                continue;
            }
            // SAFETY: a shared borrow that may alias a writer's `&mut`.
            // `observe` keeps to realloc-free memory (see above), so it
            // can read torn values but never follow a dangling pointer,
            // and `seq_validate` rejects whatever a writer overlapped.
            let shard = unsafe { &*self.shard.get() };
            let outcome = observe(shard)?;
            if self.seq_validate(s1) {
                return Some(outcome);
            }
        }
        None
    }
}

/// Read-only latch guard for a [`ShardCell`] (no generation bump).
pub struct ShardReadGuard<'a> {
    shard: &'a Shard,
    seq: &'a AtomicU64,
    /// The word before the guard set `LOCKED`, restored on drop.
    unlocked: u64,
}

impl Deref for ShardReadGuard<'_> {
    type Target = Shard;
    #[inline]
    fn deref(&self) -> &Shard {
        self.shard
    }
}

impl Drop for ShardReadGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        // Nobody else writes a locked word, so the one this guard found
        // is still the one to restore.
        self.seq.store(self.unlocked, Ordering::Release);
    }
}

/// Mutating latch guard for a [`ShardCell`]: a seqlock write critical
/// section. Dropping it unlocks with the next generation (one release
/// store).
pub struct ShardWriteGuard<'a> {
    cell: &'a ShardCell,
    /// The word before the guard set `LOCKED | WRITING`.
    unlocked: u64,
}

impl Deref for ShardWriteGuard<'_> {
    type Target = Shard;
    #[inline]
    fn deref(&self) -> &Shard {
        // SAFETY: the latch is held for the guard's whole lifetime.
        unsafe { &*self.cell.shard.get() }
    }
}

impl DerefMut for ShardWriteGuard<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut Shard {
        // SAFETY: the latch is held exclusively; optimistic readers
        // tolerate the race via the sequence protocol.
        unsafe { &mut *self.cell.shard.get() }
    }
}

impl Drop for ShardWriteGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        let next = self.unlocked.wrapping_add(GENERATION);
        self.cell.seq.store(next, Ordering::Release);
    }
}

/// The one write latch a key walk holds.
///
/// Every keyed path of the protocol — an operation a client issues, a
/// message a server handles — visits its keys once, in the order they
/// arrive, and asks the cursor for each key's shard. The cursor keeps
/// the write guard of the shard it handed out last: a key in the same
/// shard reuses it (adjacent keys share one acquisition), a key
/// elsewhere drops it **before** the next latch is taken. A walk
/// therefore never holds two shard latches, whatever its key order, so
/// no two walks can deadlock on them; what a walk may take *under* the
/// held latch is a tracker shard (DESIGN.md §4).
pub struct LatchCursor<'a> {
    shards: &'a [ShardCell],
    held: Option<(usize, ShardWriteGuard<'a>)>,
}

impl<'a> LatchCursor<'a> {
    /// A cursor over `shards`, holding nothing yet.
    pub fn new(shards: &'a [ShardCell]) -> Self {
        LatchCursor { shards, held: None }
    }

    /// Whether the cursor holds the latch of shard `idx` (an optimistic
    /// read of that shard could only spin against the walk's own write
    /// section).
    #[inline]
    pub fn holds(&self, idx: usize) -> bool {
        matches!(self.held, Some((held, _)) if held == idx)
    }

    /// Shard `idx`, write-latched until the walk asks for another.
    #[inline]
    pub fn write(&mut self, idx: usize) -> &mut Shard {
        if !self.holds(idx) {
            // Release first: the old guard must be gone before the new
            // latch is waited for.
            self.held = None;
            self.held = Some((idx, self.shards[idx].write()));
        }
        &mut self.held.as_mut().expect("a guard is held").1
    }
}

/// Outcome of a validated optimistic read
/// ([`NodeShared::try_optimistic_read`]), or of the latched read that
/// stands in for one that could not be validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptRead {
    /// Served from the owned store (the latched `OwnedLocal` route).
    Owned,
    /// Served from the replicated view (the latched `Replica` route).
    Replica,
    /// The key is validated to be neither owned nor replicated here —
    /// the operation needs the network or a queue, not this fast path.
    Absent,
}

impl OptRead {
    /// The tier a key in residency `r` is read from.
    fn of(r: Residency) -> Self {
        match r {
            Residency::Owned | Residency::Demoting => OptRead::Owned,
            Residency::Primary | Residency::Replica => OptRead::Replica,
            Residency::Absent | Residency::Incoming | Residency::Promoting => OptRead::Absent,
        }
    }
}

/// What [`NodeShared::read_local`] found, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalRead {
    /// The tier that held the key, or [`OptRead::Absent`].
    pub tier: OptRead,
    /// Whether the seqlock served the read (else the shard latch did).
    pub wait_free: bool,
}

/// Refuses `op` of `key` outside the key space of `keys` keys.
#[cold]
#[inline(never)]
fn outside_key_space(op: &str, key: Key, keys: u64) -> ! {
    panic!("{op} of {key}: the key space has {keys} keys")
}

/// The shared state of one node, accessed by its worker threads (fast
/// local path) and its server logic.
///
/// **Read-only header.** The fields every operation loads — `cfg`,
/// `node`, `shards`, `tracker`, `trace` — are never written after
/// construction. Everything that is written lives in a 128-byte-aligned
/// block of its own: the replica control words, the serving epoch, the
/// adaptive sampler, the lane registry (and, behind it, one
/// [`AccessLane`] per core). That alignment also pushes the header a
/// full block away from the `Arc` counts in front of it, which no
/// operation path touches either (cores borrow their `Arc<NodeShared>`,
/// they do not clone it per operation).
pub struct NodeShared {
    /// Cluster-wide configuration.
    pub cfg: Arc<ProtoConfig>,
    /// This node.
    pub node: NodeId,
    /// Latch-guarded, seqlock-instrumented shards, indexed by
    /// [`NodeShared::shard_index`].
    pub shards: Vec<ShardCell>,
    /// Width of a shard's key range (`ProtoConfig::keys_per_shard`,
    /// divided out once).
    keys_per_shard: u64,
    /// Client operation tracker (shared so async tokens can reclaim
    /// their entries on drop).
    pub tracker: Arc<OpTracker>,
    /// The shards that can hold replica deltas, ascending: those with a
    /// statically replicated key in their range, every shard under
    /// [`Variant::Adaptive`] (any key can be promoted), none under the
    /// variants that replicate nothing. What a replica flush walks.
    pub replica_shards: Vec<u32>,
    /// Counter lanes claimed by this node's cores.
    lanes: LaneRegistry,
    /// Replica-propagation control words (replication technique).
    pub replica: ReplicaCtl,
    /// Online access statistics + transition controller of the adaptive
    /// technique (`Some` only under [`Variant::Adaptive`]).
    pub adaptive: Option<AdaptiveShared>,
    /// Serving-epoch publication of the snapshot read plane.
    pub serving: ServingState,
    /// Flight recorder shared by every core and lane of this node's
    /// run (the disabled recorder when tracing is off — see
    /// `ProtoConfig::trace`).
    pub trace: Arc<Recorder>,
}

impl NodeShared {
    /// Creates the node state with every home key owned and zero-valued.
    pub fn new(cfg: Arc<ProtoConfig>, node: NodeId, clock: ClockFn) -> Arc<Self> {
        Self::with_init(cfg, node, clock, |_| None)
    }

    /// Creates the node state, initializing owned values via `init`
    /// (`None` means zeros). `init` is called once for every key homed at
    /// this node.
    pub fn with_init(
        cfg: Arc<ProtoConfig>,
        node: NodeId,
        clock: ClockFn,
        init: impl FnMut(Key) -> Option<Vec<f32>>,
    ) -> Arc<Self> {
        Self::with_init_traced(cfg, node, clock, Recorder::disabled(), init)
    }

    /// [`NodeShared::with_init`] plus an explicit flight recorder: when
    /// it is enabled, every shard cell gets the node's latch-wait lane
    /// and the cores built over this state record protocol events.
    pub fn with_init_traced(
        cfg: Arc<ProtoConfig>,
        node: NodeId,
        clock: ClockFn,
        trace: Arc<Recorder>,
        mut init: impl FnMut(Key) -> Option<Vec<f32>>,
    ) -> Arc<Self> {
        if let Err(e) = cfg.validate() {
            panic!("invalid ProtoConfig: {e}");
        }
        let shard_count = cfg.shard_count();
        let adaptive = cfg.variant == Variant::Adaptive;
        let mut shards = Vec::with_capacity(shard_count);
        let mut replica_shards = Vec::new();
        for s in 0..shard_count {
            let (start, end) = cfg.shard_range(s);
            let mut shard = Shard {
                store: ShardStore::dense(&cfg.layout, start, end),
                incoming: KeyMap::default(),
                loc_cache: KeyMap::default(),
                transit: BTreeMap::new(),
            };
            // Initially every key is owned by its home node (Section 3.5),
            // as `Primary` if it is statically replicated; replicated keys
            // homed elsewhere start as local replicas of the same
            // deterministic initial values. Either way the value goes into
            // the key's slot, which is zero already.
            let mut replicates = adaptive;
            for k in start..end {
                let key = Key(k);
                let replicated = cfg.replicated(key);
                replicates |= replicated;
                let at_home = cfg.home(key) == node;
                if !(at_home || replicated) {
                    continue;
                }
                let (v, want) = (init(key), cfg.layout.len(key));
                if let Some(got) = v.as_ref().map(Vec::len).filter(|&got| got != want) {
                    panic!("init value of {key} has {got} floats: its layout has {want}");
                }
                let fill = |dst: &mut [f32]| {
                    if let Some(v) = &v {
                        dst.copy_from_slice(v);
                    }
                };
                if at_home {
                    shard.store.insert_with(key, fill);
                    if replicated {
                        shard.store.promote(key);
                    }
                } else {
                    shard.store.refresh_with(key, fill);
                }
            }
            if replicates {
                shard.store.hold_deltas();
                replica_shards.push(s as u32);
            }
            shards.push(ShardCell {
                shard: UnsafeCell::new(shard),
                seq: AtomicU64::new(0),
                trace: None,
            });
        }
        if let Some(tracer) = trace.tracer(node.0, ACTOR_LATCH, format!("n{}/latch", node.0)) {
            for (idx, cell) in shards.iter_mut().enumerate() {
                cell.set_trace(tracer.clone(), idx as u64);
            }
        }
        let adaptive = adaptive.then(|| AdaptiveShared::new(&cfg.adaptive));
        Arc::new(NodeShared {
            cfg: cfg.clone(),
            node,
            shards,
            keys_per_shard: cfg.keys_per_shard(),
            tracker: Arc::new(OpTracker::new(clock)),
            replica_shards,
            lanes: LaneRegistry::new(),
            replica: ReplicaCtl::default(),
            adaptive,
            serving: ServingState::default(),
            trace,
        })
    }

    /// Claims a counter lane for a core being built on this node. A
    /// lane whose previous owner was dropped is handed out again (its
    /// counts carry over — they are only ever summed), so a node holds
    /// as many lanes as it ever had cores alive at once.
    pub fn claim_lane(&self) -> Arc<AccessLane> {
        let mut lanes = self.lanes.0.lock();
        // `get_mut` succeeds only for a lane nobody else holds, and its
        // acquire load pairs with the previous owner's release on drop:
        // the new owner's first bump sees the old owner's last one.
        for lane in lanes.iter_mut() {
            if Arc::get_mut(lane).is_some() {
                return Arc::clone(lane);
            }
        }
        let lane = Arc::new(AccessLane::default());
        lanes.push(Arc::clone(&lane));
        lane
    }

    /// This node's access counters, summed over its lanes.
    pub fn stats(&self) -> AccessStats {
        let mut total = AccessStats::default();
        for lane in self.lanes.0.lock().iter() {
            total += lane.snapshot();
        }
        total
    }

    /// The index of `key`'s shard in [`NodeShared::shards`]: one
    /// division. Equal to `ProtoConfig::shard_of` for every key of the
    /// key space; a key beyond it indexes past the shards (a bounds-check
    /// panic where it is used) instead of aliasing into the last one.
    #[inline]
    pub fn shard_index(&self, key: Key) -> usize {
        (key.0 / self.keys_per_shard) as usize
    }

    /// The latch-guarded shard cell containing `key`.
    #[inline]
    pub fn shard_for(&self, key: Key) -> &ShardCell {
        &self.shards[self.shard_index(key)]
    }

    /// Reads an owned value, if present (test/diagnostic helper; takes the
    /// latch).
    pub fn read_value(&self, key: Key) -> Option<Vec<f32>> {
        self.shard_for(key)
            .read()
            .store
            .get(key)
            .map(|v| v.to_vec())
    }

    /// Reads the local replicated view of a key (owned value or last
    /// refresh, plus unpropagated local deltas), if any — test/diagnostic
    /// helper; takes the latch.
    pub fn read_replica(&self, key: Key) -> Option<Vec<f32>> {
        let mut out = vec![0.0; self.cfg.layout.len(key)];
        (self.read_latched(key, &mut out) != OptRead::Absent).then_some(out)
    }

    /// Number of keys this node currently owns.
    pub fn owned_keys(&self) -> usize {
        self.shards.iter().map(|s| s.read().store.len()).sum()
    }

    /// The keys this node currently manages by replication, ascending
    /// (takes each latch once; reads the bytes of shards that hold some).
    pub fn replicated_keys(&self) -> Vec<Key> {
        let mut keys = Vec::new();
        for s in &self.shards {
            keys.extend(s.read().store.replicated_keys().map(|(k, _)| k));
        }
        keys
    }

    /// Wait-free optimistic read of `key`'s local value into `out`.
    ///
    /// Returns `None` when the attempt must fall back to the latched
    /// path: the fast path is disabled (`ProtoConfig::wait_free_reads`
    /// off, guard-forced key, or a message-only variant), the key is
    /// replicated and holds unpropagated replica deltas, or the retry
    /// budget ran out under writer pressure. A `Some` outcome
    /// is a **validated snapshot**: the sequence number was even and
    /// unchanged across the whole observation, so the routing decision
    /// and the copied floats are exactly what a latched reader would
    /// have produced at that instant.
    /// Callers are responsible for the access-statistics increments of
    /// the corresponding latched route.
    pub fn try_optimistic_read(&self, key: Key, forced: bool, out: &mut [f32]) -> Option<OptRead> {
        self.try_optimistic_read_at(self.shard_index(key), key, forced, out)
    }

    /// [`NodeShared::try_optimistic_read`] at `key`'s shard index
    /// `shard`, for a caller that has computed it already.
    #[inline]
    pub(crate) fn try_optimistic_read_at(
        &self,
        shard: usize,
        key: Key,
        forced: bool,
        out: &mut [f32],
    ) -> Option<OptRead> {
        if forced || !self.wait_free() {
            return None;
        }
        self.optimistic_read_at(shard, key, out)
    }

    /// The gate of the wait-free read path: `ProtoConfig::wait_free_reads`
    /// on a variant with shared-memory access.
    fn wait_free(&self) -> bool {
        self.cfg.wait_free_reads && self.cfg.shared_memory()
    }

    /// The seqlock read loop at `key`'s shard index `shard`. Every
    /// wait-free read of a value calls this one function, so the loop is
    /// compiled once, with `observe` inlined into it. The key's byte
    /// decides, under every variant: a promotion or demotion flips it
    /// under the write latch, so a validated read sees one side of it.
    fn optimistic_read_at(&self, shard: usize, key: Key, out: &mut [f32]) -> Option<OptRead> {
        let cell = &self.shards[shard];
        cell.optimistic(|shard| match shard.store.read_racy(key, out) {
            // The key's replicated view adds its deltas: under the latch.
            r if r.replicated() && shard.store.has_deltas(key) => None,
            r => Some(OptRead::of(r)),
        })
    }

    /// Refuses `key`, as `op`'s, if it is outside the key space.
    #[inline]
    pub(crate) fn check_key(&self, op: &str, key: Key) {
        if key.0 >= self.cfg.keys {
            outside_key_space(op, key, self.cfg.keys);
        }
    }

    /// The node's one local read, shared by `pull_if_local` and the
    /// serving plane ([`crate::serving::SnapshotReader`]): `key`'s
    /// freshest local view into `out` — the replica view (owned value
    /// included) of a replicated key, the owned value otherwise — or
    /// [`OptRead::Absent`] with `out` untouched when this node holds no
    /// value of it: [`NodeShared::try_optimistic_read`] (its gate and
    /// seqlock copy), then the shard latch for what that cannot serve.
    ///
    /// # Panics
    /// Panics, with `out` untouched, if `key` is outside the key space or
    /// `out.len()` is not the length of `key`'s value — on either path.
    pub fn read_local(&self, key: Key, out: &mut [f32]) -> LocalRead {
        self.check_key("read", key);
        let validated = self.try_optimistic_read(key, false, out);
        LocalRead {
            wait_free: validated.is_some(),
            tier: validated.unwrap_or_else(|| self.read_latched(key, out)),
        }
    }

    /// [`NodeShared::read_local`]'s latched half, out of line (as is the
    /// key-space panic) so that the wait-free half inlines into callers.
    #[cold]
    fn read_latched(&self, key: Key, out: &mut [f32]) -> OptRead {
        let shard = self.shard_for(key).read();
        shard.store.check_len(key, out);
        let tier = OptRead::of(shard.store.residency(key));
        if tier != OptRead::Absent {
            shard.store.read_replicated(key, out);
        }
        tier
    }

    /// Whether a `localize` of `key` (of shard `shard`, its
    /// [`NodeShared::shard_index`]) would find nothing to do on this
    /// node: the key's slot holds it ([`Residency::held`] — owned here or,
    /// under adaptive management, currently replicated). `localize` asks
    /// this of every key first and write-latches only the rest, at the
    /// index it probed with.
    ///
    /// Where the wait-free read path is on, the byte is read under the
    /// seqlock — same gate and same protocol as
    /// [`NodeShared::try_optimistic_read`], and no value is copied.
    /// Otherwise (a message-only variant, the path switched off, a writer
    /// that outlasts the retries) it is read under the latch, through
    /// [`ShardCell::read`], which bumps no sequence number.
    ///
    /// Either way the answer is one a latched check could have given at
    /// some instant during the call: `true` linearises the `localize` of
    /// that key there, as the no-op it would have been; a key that
    /// leaves right after was localized and then taken by a later
    /// request. `false` decides nothing — the caller checks again under
    /// the write latch.
    pub fn probe_local(&self, shard: usize, key: Key) -> bool {
        let cell = &self.shards[shard];
        let racy = || cell.optimistic(|shard| Some(shard.store.residency_racy(key)));
        let state = self.wait_free().then(racy).flatten();
        Residency::held(state.unwrap_or_else(|| cell.read().store.residency(key)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;

    fn clock() -> ClockFn {
        Arc::new(|| 0)
    }

    #[test]
    fn initial_ownership_matches_home() {
        let cfg = Arc::new(ProtoConfig::new(3, 30, Layout::Uniform(2)));
        let nodes: Vec<_> = (0..3)
            .map(|n| NodeShared::new(cfg.clone(), NodeId(n), clock()))
            .collect();
        let total: usize = nodes.iter().map(|n| n.owned_keys()).sum();
        assert_eq!(total, 30);
        for n in &nodes {
            for k in 0..30 {
                let key = Key(k);
                let owned = n.read_value(key).is_some();
                assert_eq!(owned, cfg.home(key) == n.node, "key {key} node {}", n.node);
            }
        }
    }

    #[test]
    fn with_init_sets_values() {
        let cfg = Arc::new(ProtoConfig::new(1, 4, Layout::Uniform(2)));
        let n = NodeShared::with_init(cfg, NodeId(0), clock(), |k| Some(vec![k.0 as f32, 0.5]));
        assert_eq!(n.read_value(Key(3)).unwrap(), vec![3.0, 0.5]);
    }

    /// The caller's `init` closure is input: a value of the wrong length
    /// is refused by key, before its slot is written.
    #[test]
    #[should_panic(expected = "init value of k2 has 3 floats: its layout has 2")]
    fn a_wrong_length_init_value_is_refused_by_key() {
        let cfg = Arc::new(ProtoConfig::new(1, 4, Layout::Uniform(2)));
        let init = |k: Key| Some(vec![1.0; 2 + usize::from(k == Key(2))]);
        NodeShared::with_init(cfg, NodeId(0), clock(), init);
    }

    /// Every way of building a node passes through
    /// `ProtoConfig::validate` first and fails with the error's text —
    /// not with the division by zero further down.
    #[test]
    #[should_panic(expected = "invalid ProtoConfig: latches = 0")]
    fn a_node_refuses_an_invalid_configuration_by_name() {
        let mut cfg = ProtoConfig::new(2, 10, Layout::Uniform(1));
        cfg.latches = 0;
        NodeShared::new(Arc::new(cfg), NodeId(0), clock());
    }

    #[test]
    fn a_nodes_shard_index_is_the_configurations_for_every_key() {
        // Many keys per shard with a ragged last one; more latches than keys.
        for (keys, latches) in [(10_000, 16), (5, 1_000)] {
            let mut cfg = ProtoConfig::new(2, keys, Layout::Uniform(1));
            cfg.latches = latches;
            let cfg = Arc::new(cfg);
            let n = NodeShared::new(cfg.clone(), NodeId(0), clock());
            assert_eq!(n.shards.len(), cfg.shard_count());
            for k in (0..keys).map(Key) {
                assert_eq!(n.shard_index(k), cfg.shard_of(k), "{keys} keys, key {k}");
            }
            // A key past the key space does not alias into the last shard.
            assert!(n.shard_index(Key(keys + cfg.keys_per_shard())) >= n.shards.len());
        }
    }

    #[test]
    fn the_cursor_shares_a_latch_between_neighbours_and_never_holds_two() {
        let mut cfg = ProtoConfig::new(1, 8, Layout::Uniform(1));
        cfg.latches = 4; // shards of two keys
        let n = NodeShared::new(Arc::new(cfg), NodeId(0), clock());
        let written = |s: usize| n.shards[s].generation();
        let mut cursor = LatchCursor::new(&n.shards);
        assert!(!cursor.holds(0));
        for k in [Key(0), Key(1)] {
            assert!(cursor.write(n.shard_index(k)).store.add(k, &[1.0]));
        }
        // Both keys under one write section, which is still open.
        assert!(cursor.holds(0));
        assert_eq!(written(0), 0);
        // Moving on closes it before the next opens: shard 0 can be
        // latched again while the cursor sits on shard 2.
        cursor.write(2);
        assert!(cursor.holds(2) && !cursor.holds(0));
        assert_eq!(written(0), 1);
        drop(n.shards[0].write());
        // Coming back is a second acquisition.
        cursor.write(0);
        drop(cursor);
        assert_eq!((written(0), written(2)), (3, 1));
        assert_eq!(n.read_value(Key(1)), Some(vec![1.0]));
    }

    fn one_shard() -> Arc<NodeShared> {
        let mut cfg = ProtoConfig::new(1, 4, Layout::Uniform(1));
        cfg.latches = 1;
        NodeShared::new(Arc::new(cfg), NodeId(0), clock())
    }

    #[test]
    fn a_read_guard_keeps_the_generation_and_optimistic_reads_valid() {
        let n = one_shard();
        let cell = &n.shards[0];
        let before = cell.generation();
        // Held across a whole optimistic read...
        let guard = cell.read();
        assert_eq!(cell.generation(), before);
        assert_eq!(cell.optimistic(|_| Some(())), Some(()));
        drop(guard);
        // ...or taken and dropped in the middle of one: `LOCKED` came and
        // went, the generation did not move, the read validates first time.
        let mut attempts = 0;
        let spanning = cell.optimistic(|_| {
            attempts += 1;
            drop(cell.read());
            Some(())
        });
        assert_eq!((spanning, attempts), (Some(()), 1));
        assert_eq!(cell.generation(), before);
    }

    #[test]
    fn a_write_guard_advances_the_generation_by_exactly_one() {
        let n = one_shard();
        let cell = &n.shards[0];
        let before = cell.generation();
        let guard = cell.write();
        assert_eq!(cell.generation(), before, "not committed yet");
        assert_eq!(cell.optimistic(|_| Some(())), None, "a writer is inside");
        drop(guard);
        assert_eq!(cell.generation(), before + 1);
        // A write section inside an optimistic read fails its first
        // validation; the retry sees a quiet shard.
        let mut attempts = 0;
        let read = cell.optimistic(|_| {
            attempts += 1;
            if attempts == 1 {
                drop(cell.write());
            }
            Some(())
        });
        assert_eq!((read, attempts), (Some(()), 2));
        assert_eq!(cell.generation(), before + 2);
    }

    #[test]
    fn stats_sum_over_lanes_and_dropped_lanes_are_reused() {
        let cfg = Arc::new(ProtoConfig::new(1, 4, Layout::Uniform(1)));
        let n = NodeShared::new(cfg, NodeId(0), clock());
        let (a, b) = (n.claim_lane(), n.claim_lane());
        assert!(!Arc::ptr_eq(&a, &b));
        a.pull_local.add(5);
        a.pull_queued.add(2);
        b.pull_remote.add(3);
        b.pull_local.add(1);
        let s = n.stats();
        assert_eq!((s.pull_local, s.pull_queued, s.pull_remote), (6, 2, 3));
        assert_eq!(s.pull_total(), 11);
        assert_eq!(s.pull_local_total(), 8);
        // A dropped core's lane keeps its counts and goes to the next
        // claimer; lanes still held are never handed out twice.
        let a_addr = Arc::as_ptr(&a);
        drop(a);
        let c = n.claim_lane();
        assert_eq!(Arc::as_ptr(&c), a_addr);
        assert!(!Arc::ptr_eq(&c, &b));
        c.pull_local.add(1);
        assert_eq!(n.stats().pull_local, 7);
        assert!(!Arc::ptr_eq(&n.claim_lane(), &c));
        // The registry a mid-run claim locks is private, so the layout
        // test outside the crate cannot see it: whole blocks of its own.
        assert_eq!(std::mem::align_of::<LaneRegistry>(), 128);
        assert_eq!(std::mem::size_of::<LaneRegistry>() % 128, 0);
    }
}
