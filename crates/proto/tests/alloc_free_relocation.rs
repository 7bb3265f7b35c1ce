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
//! This file is a test binary of its own because it replaces the global
//! allocator with a counting one (counts are per thread, so the test
//! harness's other threads do not show).

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

use lapse_net::{Key, NodeId};
use lapse_proto::testkit::TestCluster;
use lapse_proto::{Layout, ProtoConfig};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: an allocation during thread teardown is not ours.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a plain thread-local `Cell` with no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        count_one();
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
