//! A relocated key costs its bytes, not its bookkeeping: no heap
//! allocation **per key** on the relocation path.
//!
//! A hand-cranked three-node round (requester, home and old owner are
//! three different nodes: `LocalizeReq`, `Relocate`, `HandOver`) of 512
//! keys may allocate what a round of 32 keys does — the per-message
//! buffers: key lists, the hand-over block, sinks and queues — plus a
//! small constant for those buffers growing to their larger size, and
//! nothing that grows with the number of keys. In steady state: the keys
//! have bounced between the two nodes before, so scratch buffers, shard
//! tables and tracker tables are warm.
//!
//! The same holds for the replicated residency of a key's slot: a node
//! that replicates every key is built from a few blocks per shard, a
//! promotion broadcast installs its values without a buffer per key, and
//! a replica round — pushes, a flush, the owner's refresh — keeps its
//! deltas in buffers that outlive it.
//!
//! And a node of an untraced run carries no flight-recorder state: no
//! recorder, no lane, nothing allocated for tracing at all.
//!
//! This file is a test binary of its own because it replaces the global
//! allocator with a counting one (counts are per thread, so the test
//! harness's other threads do not show).

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::sync::Arc;

use lapse_net::{Key, NodeId};
use lapse_proto::messages::{Msg, TechniquePromoteMsg};
use lapse_proto::testkit::{IssueOp, TestCluster};
use lapse_proto::{HotSet, Layout, NodeShared, ProtoConfig, Variant};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Fresh blocks only: `ALLOCS` without the reallocations.
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
    /// Bytes asked for: each fresh block's size, each reallocation's new
    /// size.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // `try_with`: an allocation during thread teardown is not ours.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

fn count_block(bytes: usize) {
    count_one(bytes);
    let _ = BLOCKS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are plain thread-local `Cell`s with no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        count_block(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        count_block(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KEYS_PER_NODE: u64 = 2_048;
const DIM: u32 = 16; // 64-byte values, the benchmark's

/// The shipped threaded configuration: the probe reads without a latch.
fn cfg() -> ProtoConfig {
    let mut c = ProtoConfig::new(3, 3 * KEYS_PER_NODE, Layout::Uniform(DIM));
    c.wait_free_reads = true;
    c
}

/// Allocations of one round trip of `keys` (all homed at node 2): node 0
/// localizes them away from node 1, then node 1 takes them back.
fn round_trip(cluster: &mut TestCluster, keys: &[Key]) -> u64 {
    let before = ALLOCS.with(Cell::get);
    cluster.localize_now(NodeId(0), 0, keys);
    cluster.localize_now(NodeId(1), 0, keys);
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_512_key_round_allocates_what_a_32_key_round_does() {
    let mut cluster = TestCluster::new(cfg(), 1);
    // Every fourth key of node 2's home range: one key per shard or so.
    let keys: Vec<Key> = (0..512).map(|i| Key(2 * KEYS_PER_NODE + 4 * i)).collect();
    let (small, large) = (&keys[..32], &keys[..]);
    // Park the keys at node 1, then warm both rounds up.
    cluster.localize_now(NodeId(1), 0, large);
    for _ in 0..3 {
        round_trip(&mut cluster, large);
        round_trip(&mut cluster, small);
    }
    let large_allocs = round_trip(&mut cluster, large);
    let small_allocs = round_trip(&mut cluster, small);
    assert_eq!(cluster.in_flight_ops(), 0);
    cluster.check_ownership_invariant();

    // Six messages a round trip either way. The larger round's buffers
    // double a few more times on the way up (a `Vec<Key>` goes 4, 8, …,
    // 512 instead of 4, …, 32: four more steps each); the allowance is
    // for that — a twentieth of an allocation per extra key, where one
    // allocation per key and message would be three.
    let extra_keys = 2 * (large.len() - small.len()) as u64;
    let allowance = 48;
    println!(
        "allocations per round trip: {large_allocs} (2 × 512 keys), {small_allocs} (2 × 32 keys)"
    );
    assert!(
        large_allocs <= small_allocs + allowance,
        "{large_allocs} allocations for 2 × 512 keys against {small_allocs} for 2 × 32: \
         {:.2} per extra key",
        (large_allocs - small_allocs) as f64 / extra_keys as f64
    );
    // And the counter does count.
    assert!(small_allocs >= 12, "a round trip is six messages");
}

/// A node of the all-replica variant holds a value for every key of the
/// key space — its own third owned, the rest as replicas — in the slots
/// its stores preallocate: building it allocates a few blocks per shard,
/// not one per replica.
#[test]
fn a_replication_node_is_built_from_blocks_per_shard_not_per_replica() {
    const LATCHES: u64 = 16;
    let mut c = cfg();
    c.variant = Variant::Replication;
    c.latches = LATCHES as usize;
    let c = Arc::new(c);
    let before = ALLOCS.with(Cell::get);
    let node = NodeShared::new(c, NodeId(0), Arc::new(|| 0));
    let allocs = ALLOCS.with(Cell::get) - before;
    println!("allocations building a 3 × {KEYS_PER_NODE}-key replication node: {allocs}");
    // A store is three blocks (offsets, slab, residency bytes); the rest
    // is the node's own fixed furniture. 4 096 replicas would show.
    assert!(
        allocs <= 4 * LATCHES + 32,
        "{allocs} allocations for {LATCHES} shards"
    );
    assert_eq!(node.owned_keys() as u64, KEYS_PER_NODE);
    for k in [0, KEYS_PER_NODE, 3 * KEYS_PER_NODE - 1].map(Key) {
        assert_eq!(node.read_replica(k), Some(vec![0.0; DIM as usize]), "{k}");
    }
}

/// An untraced node has no recorder and allocates nothing for tracing:
/// what building it allocates is the node's own furniture for 8 keys in
/// one shard, a few KB.
#[test]
fn an_untraced_node_allocates_no_trace_state() {
    let mut c = ProtoConfig::new(1, 8, Layout::Uniform(DIM));
    c.latches = 1;
    let before = BYTES.with(Cell::get);
    let node = NodeShared::new(Arc::new(c), NodeId(0), Arc::new(|| 0));
    let bytes = BYTES.with(Cell::get) - before;
    println!("bytes allocated building an untraced 8-key node: {bytes}");
    assert!(node.trace.is_none());
    assert!(bytes <= 16 * 1024, "{bytes} bytes for an 8-key node");
}

/// Allocations at node 0 when node 2, as home, promotes `keys` and its
/// `TechniquePromoteAck` broadcast is installed there.
fn promote_ack_install(cluster: &mut TestCluster, keys: &[Key]) -> u64 {
    let (requester, home) = (NodeId(1), NodeId(2));
    let promote = TechniquePromoteMsg {
        node: requester,
        keys: keys.to_vec(),
    };
    cluster.inject(requester, home, Msg::TechniquePromote(promote));
    cluster.drain_link(requester, home);
    assert_eq!(cluster.pending(home, NodeId(0)), 1, "one broadcast");
    let before = ALLOCS.with(Cell::get);
    cluster.deliver_one(home, NodeId(0));
    let allocs = ALLOCS.with(Cell::get) - before;
    cluster.run_until_quiet();
    allocs
}

/// A promotion broadcast's values go from the message block straight
/// into the keys' slots, and a key's technique is its residency byte:
/// installing 512 replicas allocates what installing 32 does.
#[test]
fn a_512_key_promotion_install_allocates_no_buffer_per_key() {
    let mut c = cfg();
    c.variant = Variant::Adaptive;
    c.latches = 16; // 384 keys a shard: each batch below spans one or two
    let mut cluster = TestCluster::new(c, 1);
    let batch = |from: u64, n: u64| -> Vec<Key> {
        (0..n).map(|i| Key(2 * KEYS_PER_NODE + from + i)).collect()
    };
    // Warm the server's scratch up with a batch of the larger size.
    promote_ack_install(&mut cluster, &batch(0, 512));
    let large_allocs = promote_ack_install(&mut cluster, &batch(512, 512));
    let small_allocs = promote_ack_install(&mut cluster, &batch(1024, 32));
    for k in batch(512, 512) {
        assert!(cluster.replicated_on(NodeId(0), k));
        assert_eq!(
            cluster.replica_view(NodeId(0), k),
            Some(vec![0.0; DIM as usize])
        );
    }
    cluster.check_ownership_invariant();

    // Nothing is allocated per key: no value buffer, and no technique
    // table whose tree nodes 480 more keys would grow by some 80.
    let allowance = 16;
    println!("allocations per install: {large_allocs} (512 keys), {small_allocs} (32 keys)");
    assert!(
        large_allocs <= small_allocs + allowance,
        "{large_allocs} allocations for 512 keys against {small_allocs} for 32"
    );
}

/// Blocks node 1 allocates in one replica round of `keys` (homed at node
/// 0): its pushes, its flush, the owner's refresh installed.
fn replica_round(cluster: &mut TestCluster, keys: &[Key]) -> u64 {
    let vals = vec![0.5; keys.len() * DIM as usize];
    let before = BLOCKS.with(Cell::get);
    cluster.issue(NodeId(1), 0, IssueOp::Push(keys, &vals), None);
    cluster.flush_replicas(NodeId(1));
    cluster.run_until_quiet();
    BLOCKS.with(Cell::get) - before
}

/// A replicated push accumulates into its shard's delta buffers, a flush
/// ships from them and a refresh retires them in place: once a round has
/// grown those buffers, one of 64 keys allocates the blocks one of 4 does
/// — its messages' — and nothing per key.
#[test]
fn a_64_key_replica_round_allocates_the_blocks_of_a_4_key_round() {
    let mut c = cfg();
    (c.variant, c.hot_set) = (Variant::Hybrid, HotSet::Prefix(64));
    let mut cluster = TestCluster::new(c, 1);
    let keys: Vec<Key> = (0..64).map(Key).collect();
    replica_round(&mut cluster, &keys);
    let small = replica_round(&mut cluster, &keys[..4]);
    let large = replica_round(&mut cluster, &keys);
    println!("blocks per replica round: {large} (64 keys), {small} (4 keys)");
    assert!(cluster.replica_deltas_settled());
    assert_eq!(
        cluster.replica_view(NodeId(1), Key(3)),
        Some(vec![1.5; DIM as usize])
    );
    assert_eq!(large, small, "blocks for 64 keys against 4");
}
