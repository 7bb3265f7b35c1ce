//! Protocol configuration.

use lapse_net::{Key, NodeId};

use crate::layout::Layout;

/// Which parameter-server architecture a cluster runs (Section 4.6 of the
/// paper compares the first three; `Replication` and `Hybrid` add the
/// management techniques of the NuPS follow-up).
///
/// What a variant means is read in one place, the three predicates of
/// [`ProtoConfig`]: [`shared_memory`](ProtoConfig::shared_memory),
/// [`relocates`](ProtoConfig::relocates) and
/// [`replicated`](ProtoConfig::replicated). What manages a key *now* is
/// data, its [`Residency`](crate::storage::Residency) byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Classic PS à la PS-Lite: static allocation, *all* parameter access
    /// (even node-local) goes through the server via messages.
    Classic,
    /// Classic PS with fast local access: static allocation, but keys
    /// homed on the worker's own node are accessed through shared memory.
    ClassicFastLocal,
    /// Lapse: dynamic parameter allocation plus fast local access.
    Lapse,
    /// NuPS-style all-replica management (NuPS §2): every node holds a
    /// replica of every key; reads are served locally, pushes accumulate
    /// locally and propagate to the owner in rounds.
    Replication,
    /// NuPS-style hybrid management: the hot keys named by
    /// [`ProtoConfig::hot_set`] are replicated, the long tail is managed
    /// by relocation as under [`Variant::Lapse`].
    Hybrid,
    /// Adaptive management: every key starts under relocation, and the
    /// per-node controllers (fed by an online space-saving sketch of the
    /// access stream, see [`AdaptiveConfig`]) promote hot keys to
    /// replication and demote cooled keys back to relocation **while
    /// training runs** — hybrid management without a pre-declared hot
    /// set. A key's current technique is its residency byte
    /// ([`Residency`](crate::storage::Residency)); transitions are
    /// coordinated by the key's home node and epoch-fenced.
    Adaptive,
}

impl Variant {
    /// Short display name used by the experiment harness.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Classic => "Classic PS",
            Variant::ClassicFastLocal => "Classic PS + fast local",
            Variant::Lapse => "Lapse",
            Variant::Replication => "Replication",
            Variant::Hybrid => "Hybrid (replicate hot)",
            Variant::Adaptive => "Adaptive (online hot detection)",
        }
    }
}

/// Knobs of the adaptive management technique ([`Variant::Adaptive`]).
///
/// Per node, every `sample_every`-th accessed key of the pull/push plan
/// phase feeds a space-saving sketch; every `tick_every` samples the
/// controller runs: sketch entries whose decayed estimate reaches
/// `promote_count` become promotion requests to their home nodes, and
/// currently-replicated keys whose local estimate has fallen to
/// `demote_count` or below become demotion votes (the home node demotes
/// once every node has voted). The spread between the two thresholds is
/// the hysteresis that keeps borderline keys from thrashing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Sample every n-th planned key into the sketch (1 = every access).
    pub sample_every: u64,
    /// Run the controller every n-th sample (per node).
    pub tick_every: u64,
    /// Space-saving sketch capacity (tracked keys per node).
    pub sketch_capacity: usize,
    /// Promote when a key's decayed estimate (minus its overestimation
    /// error) reaches this many samples.
    pub promote_count: u64,
    /// Vote to demote a replicated key when its local estimate falls to
    /// this many samples or below.
    pub demote_count: u64,
    /// Upper bound on promotion requests per controller tick (churn cap).
    pub max_promotes_per_tick: usize,
    /// Re-send a promotion request after this many ticks without a
    /// transition (requests can be dropped while a demotion of the same
    /// key is still draining).
    pub request_ttl_ticks: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            sample_every: 4,
            tick_every: 512,
            sketch_capacity: 1024,
            promote_count: 24,
            demote_count: 1,
            max_promotes_per_tick: 64,
            request_ttl_ticks: 8,
        }
    }
}

/// Which keys count as "hot" — replicated under [`Variant::Hybrid`].
///
/// Skewed workloads in this repo map popular entities to low ids within
/// each id space (the corpus/graph generators sample Zipf ranks), so hot
/// sets are id prefixes; [`HotSet::Explicit`] names arbitrary key sets
/// (e.g. an oracle hot set computed from measured access frequencies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HotSet {
    /// Keys `0..n`.
    Prefix(u64),
    /// Keys whose id *within each block of `block` keys* is below `hot`.
    /// Covers workloads that pack several id spaces into one key space
    /// (e.g. Word2Vec input vectors at `w` and output vectors at
    /// `vocab + w`: `block = vocab` replicates the hot words of both).
    Blocks {
        /// Block width (the size of one id space).
        block: u64,
        /// Hot ids per block.
        hot: u64,
    },
    /// A strictly ascending key set (membership is a binary search): build
    /// it with [`HotSet::explicit`]; [`ProtoConfig::validate`] refuses others.
    Explicit(Vec<Key>),
}

impl HotSet {
    /// An explicit hot set from arbitrary keys (sorted and deduplicated).
    pub fn explicit(mut keys: Vec<Key>) -> Self {
        keys.sort_unstable();
        keys.dedup();
        HotSet::Explicit(keys)
    }

    /// Whether `key` is in the hot set.
    #[inline]
    pub fn contains(&self, key: Key) -> bool {
        match *self {
            HotSet::Prefix(n) => key.0 < n,
            HotSet::Blocks { block, hot } => key.0 % block.max(1) < hot,
            HotSet::Explicit(ref keys) => keys.binary_search(&key).is_ok(),
        }
    }

    /// Whether the hot set contains no keys at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        match *self {
            HotSet::Prefix(n) => n == 0,
            HotSet::Blocks { hot, .. } => hot == 0,
            HotSet::Explicit(ref keys) => keys.is_empty(),
        }
    }
}

/// Why a [`ProtoConfig`] cannot be run ([`ProtoConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `nodes` is 0: nobody is home to any key.
    NoNodes,
    /// `keys` is 0: there is nothing to serve.
    NoKeys,
    /// `latches` is 0: the key space cannot be cut into shards.
    NoLatches,
    /// A shard's values do not fit the store's `u32` slot offsets.
    ShardSlabTooLarge {
        /// The first shard that is too large.
        shard: usize,
        /// The floats its slab would hold.
        floats: u64,
    },
    /// Entry `i` of an explicit hot set is not above entry `i - 1`, or is
    /// past the key space.
    HotSetKey(usize),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::NoNodes => write!(f, "nodes = 0: a cluster needs at least one node"),
            ConfigError::NoKeys => write!(f, "keys = 0: a cluster needs at least one key"),
            ConfigError::NoLatches => write!(f, "latches = 0: a node needs at least one latch"),
            ConfigError::ShardSlabTooLarge { shard, floats } => write!(
                f,
                "shard {shard} would hold {floats} floats, past the 2^32 a slot offset \
                 addresses: raise `latches` or shorten the values"
            ),
            ConfigError::HotSetKey(i) => write!(f, "hot_set entry {i} is out of order or range"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full protocol configuration shared by all nodes of one cluster.
///
/// Every node keeps a copy of its own (`NodeShared::cfg`), read on every
/// operation. Aligned to 128 bytes, like the other blocks an operation
/// reads (DESIGN.md §7): a copy shares no line, nor an adjacent-line
/// prefetch pair, with another allocation.
#[derive(Debug, Clone)]
#[repr(align(128))]
pub struct ProtoConfig {
    /// Number of nodes.
    pub nodes: u16,
    /// Size of the key space; keys are `0..keys`.
    pub keys: u64,
    /// Value length per key.
    pub layout: Layout,
    /// PS architecture variant.
    pub variant: Variant,
    /// Enable per-node location caches (Section 3.3). Off by default, as
    /// in the paper's experiments.
    pub location_caches: bool,
    /// Number of latches (= state shards) per node; the paper's default of
    /// 1000 worked well in their experiments (Section 3.7).
    pub latches: usize,
    /// Hot keys replicated under [`Variant::Hybrid`] (ignored by the
    /// other variants; [`Variant::Replication`] replicates everything,
    /// [`Variant::Adaptive`] discovers its hot set online).
    pub hot_set: HotSet,
    /// Knobs of the adaptive management technique (used only by
    /// [`Variant::Adaptive`]).
    pub adaptive: AdaptiveConfig,
    /// Replicated pushes accumulated on a node before it propagates them
    /// to the owners automatically (a worker's `advance_clock` flushes
    /// earlier). Counted per node across all workers.
    pub replica_flush_every: u64,
    /// Serve local pulls of owned and replicated keys as wait-free
    /// seqlock reads (see [`ShardCell`](crate::shard::ShardCell)) instead
    /// of taking the shard latch. On in [`ProtoConfig::new`]; a latched
    /// baseline turns it off, and so does `LAPSE_NO_SEQLOCK` on either
    /// backend. On the simulator, one task at a time, every such read
    /// validates first time and serves what the latched route would.
    pub wait_free_reads: bool,
    /// Unread. Snapshot reads take the wait-free path under
    /// `wait_free_reads`, as every local read does
    /// ([`NodeShared::read_local`](crate::shard::NodeShared::read_local)).
    /// The field stays only because the frozen benchmark assigns it.
    pub snapshot_reads: bool,
    /// Coalesce outgoing messages bound for the same destination into
    /// [`Msg::Batch`](crate::messages::Msg::Batch) envelopes at op/tick
    /// flush boundaries. On in [`ProtoConfig::new`]. Off is a count cap
    /// of one message (`coalesce_max_msgs` is then not read): every
    /// message leaves in an envelope of its own. Only
    /// [`Coalescer::new`](crate::coalesce::Coalescer::new) reads it, and
    /// only the threaded backend builds a coalescer: the simulator
    /// delivers message by message, so that its cost model charges per
    /// message and its schedules and outputs stay bit-identical.
    pub coalesce: bool,
    /// Maximum constituent messages per batch envelope.
    pub coalesce_max_msgs: usize,
    /// Soft byte cap per batch envelope: a batch is cut as soon as its
    /// accumulated wire size reaches this bound (a single oversized
    /// message still travels, alone).
    pub coalesce_max_bytes: usize,
    /// Enable the flight recorder (`lapse-trace`): protocol cores and
    /// backends record op-lifecycle, message, relocation, technique,
    /// snapshot-tier, and latch-wait events into per-lane ring buffers.
    /// Read by the cluster runners only, which build the run's recorder
    /// from it and hand it to each node
    /// ([`NodeShared::trace`](crate::shard::NodeShared::trace)). Off by
    /// default; when off no recorder exists and every instrumented site
    /// tests a `None` tracer. Deterministic on the sim backend
    /// (virtual-time stamps + a single-running-thread sequence order),
    /// so traces diff byte-for-byte across seeded runs.
    pub trace: bool,
}

impl ProtoConfig {
    /// The shipped configuration of `nodes` nodes and keys `0..keys`:
    /// Lapse, location caches off, 1000 latches, wait-free reads and
    /// message coalescing on, tracing off.
    pub fn new(nodes: u16, keys: u64, layout: Layout) -> Self {
        ProtoConfig {
            nodes,
            keys,
            layout,
            variant: Variant::Lapse,
            location_caches: false,
            latches: 1000,
            hot_set: HotSet::Prefix(0),
            adaptive: AdaptiveConfig::default(),
            replica_flush_every: 64,
            wait_free_reads: true,
            snapshot_reads: false,
            coalesce: true,
            coalesce_max_msgs: 64,
            coalesce_max_bytes: 1 << 20,
            trace: false,
        }
    }

    /// Checks what every node built over this configuration relies on:
    /// the divisions of [`ProtoConfig::range_width`] and
    /// [`ProtoConfig::keys_per_shard`] have a divisor, every shard's
    /// slab stays within the store's `u32` slot offsets, and an explicit
    /// hot set is a strictly ascending list of keys.
    /// [`NodeShared`](crate::shard::NodeShared) construction calls this
    /// first, so both backends and hand-built worlds pass through it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::NoNodes);
        }
        if self.keys == 0 {
            return Err(ConfigError::NoKeys);
        }
        if self.latches == 0 {
            return Err(ConfigError::NoLatches);
        }
        for shard in 0..self.shard_count() {
            let (start, end) = self.shard_range(shard);
            let floats = self.layout.total_len(start, end);
            if floats > u64::from(u32::MAX) {
                return Err(ConfigError::ShardSlabTooLarge { shard, floats });
            }
        }
        if let HotSet::Explicit(hot) = &self.hot_set {
            let bad = |i: usize| hot[i].0 >= self.keys || (i > 0 && hot[i] <= hot[i - 1]);
            if let Some(i) = (0..hot.len()).find(|&i| bad(i)) {
                return Err(ConfigError::HotSetKey(i));
            }
        }
        Ok(())
    }

    /// Whether workers access node-local parameters through shared
    /// memory: every variant but [`Variant::Classic`], whose every access
    /// goes through the server as a message.
    #[inline]
    pub fn shared_memory(&self) -> bool {
        self.variant != Variant::Classic
    }

    /// Whether `localize` can ever relocate `key`: not under the classic
    /// variants, and not a statically replicated key. Under
    /// [`Variant::Adaptive`] this is a pre-filter only: a key promoted
    /// meanwhile is held here, and skipped for that.
    #[inline]
    pub fn relocates(&self, key: Key) -> bool {
        match self.variant {
            Variant::Classic | Variant::ClassicFastLocal | Variant::Replication => false,
            Variant::Lapse | Variant::Adaptive => true,
            Variant::Hybrid => !self.hot_set.contains(key),
        }
    }

    /// Whether `key` is statically replicated on every node: every key
    /// under [`Variant::Replication`], the [`hot_set`](ProtoConfig::hot_set)
    /// under [`Variant::Hybrid`]. Always false under [`Variant::Adaptive`],
    /// whose replicated set is in the keys' residency bytes.
    #[inline]
    pub fn replicated(&self, key: Key) -> bool {
        match self.variant {
            Variant::Replication => true,
            Variant::Hybrid => self.hot_set.contains(key),
            _ => false,
        }
    }

    /// Keys per home range: node `i` is home to keys
    /// `[i·⌈K/N⌉, (i+1)·⌈K/N⌉)`.
    #[inline]
    pub fn range_width(&self) -> u64 {
        self.keys.div_ceil(self.nodes as u64)
    }

    /// The (static) home node of `key`: contiguous ranges of
    /// [`ProtoConfig::range_width`] keys. The home node of a key never
    /// changes (Section 3.5); only ownership moves.
    ///
    /// Hard assert (not `debug_assert`): an out-of-range key that reaches
    /// the routing layer otherwise maps to a location slot of a *different*
    /// key, and a node can end up forwarding the request to itself forever.
    /// One predictable branch here is cheap insurance on a path that is
    /// already worth microseconds.
    #[inline]
    pub fn home(&self, key: Key) -> NodeId {
        assert!(key.0 < self.keys, "key {key} out of range");
        NodeId(((key.0 / self.range_width()).min(self.nodes as u64 - 1)) as u16)
    }

    /// Dense index of `key` within its home node's location table.
    #[inline]
    pub fn home_slot(&self, key: Key) -> usize {
        (key.0 % self.range_width()) as usize
    }

    /// Number of location-table slots node `node` needs as a home.
    pub fn home_slots(&self, node: NodeId) -> usize {
        let w = self.range_width();
        let start = node.idx() as u64 * w;
        let end = ((node.idx() as u64 + 1) * w).min(self.keys);
        end.saturating_sub(start) as usize
    }

    /// Keys homed at `node`, in increasing order.
    pub fn home_keys(&self, node: NodeId) -> Vec<Key> {
        (0..self.keys)
            .map(Key)
            .filter(|&k| self.home(k) == node)
            .collect()
    }

    /// Keys per latch/shard: shards are contiguous key ranges of this
    /// width, so that a shard's store holds contiguous keys.
    #[inline]
    pub fn keys_per_shard(&self) -> u64 {
        self.keys.div_ceil(self.latches as u64).max(1)
    }

    /// The latch/shard index for `key` on any node. For callers without
    /// a node at hand: a node has divided once already and indexes with
    /// [`NodeShared::shard_index`](crate::shard::NodeShared::shard_index).
    #[inline]
    pub fn shard_of(&self, key: Key) -> usize {
        ((key.0 / self.keys_per_shard()) as usize).min(self.latches - 1)
    }

    /// Number of shards actually used (≤ `latches` when keys are few).
    pub fn shard_count(&self) -> usize {
        self.keys.div_ceil(self.keys_per_shard()).max(1) as usize
    }

    /// Key range `[start, end)` covered by shard `s`.
    pub fn shard_range(&self, s: usize) -> (u64, u64) {
        let per = self.keys_per_shard();
        let start = s as u64 * per;
        let end = ((s as u64 + 1) * per).min(self.keys);
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nodes: u16, keys: u64) -> ProtoConfig {
        ProtoConfig::new(nodes, keys, Layout::Uniform(2))
    }

    #[test]
    fn range_home_covers_all_nodes() {
        let c = cfg(4, 103);
        let mut seen = [0u64; 4];
        for k in 0..103 {
            seen[c.home(Key(k)).idx()] += 1;
        }
        assert_eq!(seen.iter().sum::<u64>(), 103);
        assert!(seen.iter().all(|&s| s > 0));
        // Range partition: consecutive keys share homes.
        assert_eq!(c.home(Key(0)), c.home(Key(1)));
    }

    #[test]
    fn home_slevery_key_unique_slot() {
        let c = cfg(3, 32);
        for node in 0..3u16 {
            let keys = c.home_keys(NodeId(node));
            let slots: Vec<usize> = keys.iter().map(|&k| c.home_slot(k)).collect();
            let mut sorted = slots.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), slots.len(), "slot collision on node {node}");
            assert!(
                slots.iter().all(|&s| s < c.home_slots(NodeId(node))),
                "slot out of bounds on node {node}: {slots:?} vs {}",
                c.home_slots(NodeId(node))
            );
        }
    }

    #[test]
    fn shards_partition_key_space() {
        let mut c = cfg(2, 10_000);
        c.latches = 16;
        let mut count = 0;
        for s in 0..c.shard_count() {
            let (start, end) = c.shard_range(s);
            for k in start..end {
                assert_eq!(c.shard_of(Key(k)), s);
                count += 1;
            }
        }
        assert_eq!(count, 10_000);
    }

    #[test]
    fn more_latches_than_keys() {
        let c = ProtoConfig::new(2, 5, Layout::Uniform(1));
        assert_eq!(c.shard_count(), 5);
        for k in 0..5 {
            assert!(c.shard_of(Key(k)) < c.shard_count());
        }
    }

    #[test]
    fn validate_refuses_no_nodes() {
        assert_eq!(cfg(3, 32).validate(), Ok(()));
        assert_eq!(cfg(0, 32).validate(), Err(ConfigError::NoNodes));
    }

    #[test]
    fn validate_refuses_no_keys() {
        assert_eq!(cfg(3, 0).validate(), Err(ConfigError::NoKeys));
    }

    #[test]
    fn validate_refuses_no_latches() {
        let mut c = cfg(3, 32);
        c.latches = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoLatches));
    }

    #[test]
    fn validate_refuses_a_shard_past_u32_slot_offsets() {
        // Four keys of 2³¹ floats on two latches: 2³² floats a shard, one
        // more than a `u32` offset reaches. Four latches halve the shards.
        let mut c = ProtoConfig::new(1, 4, Layout::Uniform(1 << 31));
        c.latches = 2;
        let too_large = ConfigError::ShardSlabTooLarge {
            shard: 0,
            floats: 1 << 32,
        };
        assert_eq!(c.validate(), Err(too_large));
        assert!(too_large
            .to_string()
            .contains("shard 0 would hold 4294967296 floats"));
        c.latches = 4;
        assert_eq!(c.validate(), Ok(()));
        // The second tier alone is too long; the first shard is fine.
        c.layout = Layout::TwoTier {
            split: 2,
            first: 1,
            rest: u32::MAX,
        };
        c.latches = 2;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::ShardSlabTooLarge { shard: 1, .. })
        ));
    }

    #[test]
    fn hot_set_membership() {
        let prefix = HotSet::Prefix(3);
        assert!(prefix.contains(Key(0)) && prefix.contains(Key(2)));
        assert!(!prefix.contains(Key(3)));
        let blocks = HotSet::Blocks { block: 10, hot: 2 };
        assert!(blocks.contains(Key(1)) && blocks.contains(Key(11)));
        assert!(!blocks.contains(Key(2)) && !blocks.contains(Key(19)));
    }

    #[test]
    fn explicit_hot_set_sorts_and_binary_searches() {
        let set = HotSet::explicit(vec![Key(9), Key(2), Key(40), Key(2)]);
        assert!(set.contains(Key(2)) && set.contains(Key(9)) && set.contains(Key(40)));
        assert!(!set.contains(Key(3)) && !set.contains(Key(41)));
        assert!(!set.is_empty());
        assert!(HotSet::explicit(Vec::new()).is_empty());
        // Sorted representation regardless of input order.
        match set {
            HotSet::Explicit(keys) => assert_eq!(keys, vec![Key(2), Key(9), Key(40)]),
            _ => unreachable!(),
        }
    }
}
