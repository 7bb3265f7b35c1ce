//! Protocol scenario tests.
//!
//! These tests hand-deliver messages through the sans-io cluster of
//! `lapse_proto::testkit` to pin down the protocol behaviours Section 3 of
//! the paper describes: the three-message relocation, operation parking
//! during relocations, localization conflicts, double-forwarding on stale
//! location caches — and the Theorem 3 counterexample showing location
//! caches break sequential consistency for asynchronous operations.

use lapse_net::{Key, NodeId};
use lapse_proto::client::IssueHandle;
use lapse_proto::testkit::{IssueOp, TestCluster};
use lapse_proto::{ConfigError, HotSet, Layout, NodeShared, ProtoConfig, Variant};

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);
const N3: NodeId = NodeId(3);

fn cfg(nodes: u16, keys: u64) -> ProtoConfig {
    let mut c = ProtoConfig::new(nodes, keys, Layout::Uniform(2));
    c.latches = 4; // exercise multi-shard paths even with few keys
    c
}

/// With 3 nodes and 12 keys under range partitioning, keys 0..4 are homed
/// at n0, 4..8 at n1, 8..12 at n2.
fn home_key(node: u16) -> Key {
    Key(node as u64 * 4)
}

// ---------------------------------------------------------------------------
// basics
// ---------------------------------------------------------------------------

#[test]
fn remote_push_then_pull_round_trips() {
    let mut c = TestCluster::new(cfg(3, 12), 1);
    let k = home_key(1); // homed and owned at n1
    c.push_now(N0, 0, &[k], &[1.5, 2.5]);
    assert_eq!(c.pull_now(N2, 0, &[k]), vec![1.5, 2.5]);
    assert_eq!(c.value_of(k), vec![1.5, 2.5]);
    c.check_ownership_invariant();
}

#[test]
fn fast_local_access_sends_no_messages() {
    let mut c = TestCluster::new(cfg(3, 12), 1);
    let k = home_key(0); // local to n0
    let mut sink = Vec::new();
    let h = c.nodes[0].clients[0].push(&[k], &[1.0, 1.0], &mut sink);
    assert!(matches!(h, IssueHandle::Ready(None)));
    assert!(sink.is_empty(), "local push must not produce messages");
    let mut out = [0.0; 2];
    let h = c.nodes[0].clients[0].pull(&[k], Some(&mut out), &mut sink);
    assert!(matches!(h, IssueHandle::Ready(None)));
    assert!(sink.is_empty(), "local pull must not produce messages");
    assert_eq!(out, [1.0, 1.0]);
    assert_eq!(c.nodes[0].shared.stats().pull_local, 1);
}

#[test]
fn classic_variant_routes_everything_through_messages() {
    let mut base = cfg(2, 8);
    base.variant = Variant::Classic;
    let mut c = TestCluster::new(base, 1);
    let k = Key(0); // homed at n0 — but classic still messages itself
    let mut sink = Vec::new();
    let h = c.nodes[0].clients[0].push(&[k], &[2.0, 0.0], &mut sink);
    assert!(h.seq().is_some(), "classic push is never immediate");
    assert_eq!(sink.len(), 1);
    assert_eq!(
        sink[0].0, N0,
        "classic local access messages its own server"
    );
    c.send_all(N0, sink);
    c.run_until_quiet();
    assert_eq!(c.value_of(k), vec![2.0, 0.0]);
    // Localize is a no-op for classic PSs.
    let mut sink = Vec::new();
    let h = c.nodes[0].clients[0].localize(&[Key(4)], &mut sink);
    assert!(matches!(h, IssueHandle::Ready(None)));
    assert!(sink.is_empty());
}

#[test]
fn classic_fast_local_serves_home_keys_locally() {
    let mut base = cfg(2, 8);
    base.variant = Variant::ClassicFastLocal;
    let mut c = TestCluster::new(base, 1);
    // Home key: no messages.
    let mut sink = Vec::new();
    let h = c.nodes[0].clients[0].push(&[Key(0)], &[1.0, 0.0], &mut sink);
    assert!(matches!(h, IssueHandle::Ready(None)));
    assert!(sink.is_empty());
    // Remote key: exactly request + response.
    assert_eq!(c.pull_now(N0, 0, &[Key(4)]), vec![0.0, 0.0]);
    assert_eq!(c.pending_total(), 0);
}

#[test]
fn pull_mixing_local_and_remote_keys_assembles_correctly() {
    let mut c = TestCluster::with_init(cfg(3, 12), 1, |k| Some(vec![k.0 as f32, -(k.0 as f32)]));
    let keys = [Key(0), Key(5), Key(9), Key(1)]; // local, n1, n2, local
    let got = c.pull_now(N0, 0, &keys);
    let expect: Vec<f32> = keys
        .iter()
        .flat_map(|k| [k.0 as f32, -(k.0 as f32)])
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn grouped_pull_sends_one_message_per_home() {
    let mut c = TestCluster::new(cfg(3, 12), 1);
    let mut sink = Vec::new();
    let mut out = vec![0.0; 8];
    // Two keys homed at n1, two at n2 → exactly two messages.
    let h =
        c.nodes[0].clients[0].pull(&[Key(4), Key(5), Key(8), Key(9)], Some(&mut out), &mut sink);
    assert!(h.seq().is_some());
    assert_eq!(sink.len(), 2, "message grouping per home node");
    c.send_all(N0, sink);
    c.run_until_quiet();
}

// ---------------------------------------------------------------------------
// relocation
// ---------------------------------------------------------------------------

#[test]
fn localize_relocates_ownership_with_three_messages() {
    let mut c = TestCluster::with_init(cfg(3, 12), 1, |k| Some(vec![k.0 as f32, 7.0]));
    let k = home_key(2); // homed and owned at n2
    let mut sink = Vec::new();
    let h = c.nodes[0].clients[0].localize(&[k], &mut sink);
    let seq = h.seq().expect("localize is pending");
    assert_eq!(sink.len(), 1, "message 1: requester → home");
    c.send_all(N0, sink);

    // Message 1: n0 → n2 (home); home == owner here, so the home handles
    // the relocate inline and emits only the hand-over.
    assert_eq!(c.pending(N0, N2), 1);
    c.deliver_one(N0, N2);
    assert_eq!(c.pending(N2, N0), 1, "hand-over: old owner → requester");
    c.deliver_one(N2, N0);

    assert!(c.nodes[0].shared.tracker.is_done(seq));
    c.nodes[0].clients[0].finish_ack(seq);
    assert_eq!(c.value_of(k), vec![k.0 as f32, 7.0], "value preserved");
    assert!(c.nodes[0].shared.read_value(k).is_some(), "n0 owns it now");
    c.check_ownership_invariant();

    // Subsequent access from n0 is local.
    let mut sink = Vec::new();
    let mut out = [0.0; 2];
    let h = c.nodes[0].clients[0].pull(&[k], Some(&mut out), &mut sink);
    assert!(matches!(h, IssueHandle::Ready(None)));
    assert!(sink.is_empty());

    // Access from another node is forwarded by the home to the new owner:
    // n1 → n2 (home) → n0 (owner) → n1 — three messages.
    let mut sink = Vec::new();
    let mut out = [0.0; 2];
    let h = c.nodes[1].clients[0].pull(&[k], Some(&mut out), &mut sink);
    let seq = h.seq().unwrap();
    c.send_all(N1, sink);
    let mut hops: u64 = 0;
    c.run_until_quiet_counting(&mut hops);
    assert_eq!(hops, 3, "forward strategy costs three messages");
    assert!(c.nodes[1].shared.tracker.is_done(seq));
    c.nodes[1].clients[0].finish_pull(seq, &mut out);
    assert_eq!(out, [k.0 as f32, 7.0]);
}

#[test]
fn full_relocation_between_three_distinct_roles() {
    // Key homed at n1, relocated first to n2, then accessed from n0:
    // exercises the full 3-message relocation (all roles distinct).
    let mut c = TestCluster::with_init(cfg(3, 12), 1, |k| Some(vec![1.0 + k.0 as f32, 0.0]));
    let k = home_key(1);
    c.localize_now(N2, 0, &[k]);
    assert!(c.nodes[2].shared.read_value(k).is_some());
    c.check_ownership_invariant();

    // Now relocate n2 → n0 (home n1 in the middle): exactly 3 messages.
    let mut sink = Vec::new();
    let h = c.nodes[0].clients[0].localize(&[k], &mut sink);
    let seq = h.seq().unwrap();
    c.send_all(N0, sink);
    assert_eq!(c.pending(N0, N1), 1, "message 1 requester→home");
    c.deliver_one(N0, N1);
    assert_eq!(c.pending(N1, N2), 1, "message 2 home→old owner");
    c.deliver_one(N1, N2);
    assert_eq!(c.pending(N2, N0), 1, "message 3 old owner→requester");
    c.deliver_one(N2, N0);
    assert!(c.nodes[0].shared.tracker.is_done(seq));
    c.nodes[0].clients[0].finish_ack(seq);
    assert_eq!(c.value_of(k), vec![1.0 + k.0 as f32, 0.0]);
    c.check_ownership_invariant();
}

#[test]
fn ops_issued_during_relocation_park_and_drain_in_order() {
    let mut c = TestCluster::new(cfg(3, 12), 2);
    let k = home_key(2);
    // Start a relocation to n0 but do not deliver anything yet.
    let h_loc = c.issue(N0, 0, IssueOp::Localize(&[k]), None);
    // Another worker on n0 pushes and pulls while the key is in flight:
    // both park locally, no messages.
    let before = c.pending_total();
    let h_push = c.issue(N0, 1, IssueOp::Push(&[k], &[1.0, 2.0]), None);
    let mut out = [0.0f32; 2];
    let h_pull = c.issue(N0, 1, IssueOp::Pull(&[k]), Some(&mut out));
    assert_eq!(
        c.pending_total(),
        before,
        "parked ops must not hit the network"
    );
    assert_eq!(c.nodes[0].shared.stats().push_queued, 1);
    assert_eq!(c.nodes[0].shared.stats().pull_queued, 1);
    assert!(!c.op_done(N0, &h_push));
    assert!(!c.op_done(N0, &h_pull));

    // Deliver the relocation; parked ops drain in order: push before pull.
    c.run_until_quiet();
    assert!(c.op_done(N0, &h_loc));
    assert!(c.op_done(N0, &h_push));
    assert!(c.op_done(N0, &h_pull));
    let seq = h_pull.seq().unwrap();
    c.nodes[0].clients[0].finish_pull(seq, &mut out);
    assert_eq!(out, [1.0, 2.0], "pull observes the parked push");
    c.check_ownership_invariant();
}

#[test]
fn remote_op_racing_relocation_is_parked_at_new_owner() {
    let mut c = TestCluster::new(cfg(3, 12), 1);
    let k = home_key(1); // home n1, owner n1
                         // n0 localizes k; deliver message 1 so the home reroutes, but hold the
                         // hand-over.
    let _h = c.issue(N0, 0, IssueOp::Localize(&[k]), None);
    c.deliver_one(N0, N1); // home processes localize, emits hand-over (home==owner)
    assert_eq!(c.pending(N1, N0), 1, "hand-over in flight");

    // n2 pushes to k; the home forwards to the *new* owner n0 where the
    // push parks until the hand-over arrives.
    let h_push = c.issue(N2, 0, IssueOp::Push(&[k], &[5.0, 5.0]), None);
    c.deliver_one(N2, N1); // home forwards
    assert_eq!(c.pending(N1, N0), 2, "forwarded op behind hand-over");
    // Deliver the forwarded push FIRST? FIFO on (n1,n0) forbids that: the
    // hand-over is at the head. Deliver in order.
    c.deliver_one(N1, N0); // hand-over: install + drain
    c.deliver_one(N1, N0); // forwarded push: now served at n0
    c.run_until_quiet();
    assert!(c.op_done(N2, &h_push));
    assert_eq!(c.value_of(k), vec![5.0, 5.0]);
    c.check_ownership_invariant();
}

#[test]
fn localization_conflict_transfers_key_once_per_request() {
    // n0 and n1 both localize a key owned by its home n2. The home
    // processes n0 first: key goes to n0; n1's request arrives while the
    // key is still in flight to n0, so the relocate parks at n0 and the
    // key moves on to n1 afterwards.
    let mut c = TestCluster::with_init(cfg(3, 12), 1, |k| Some(vec![k.0 as f32, 9.0]));
    let k = home_key(2);
    let h0 = c.issue(N0, 0, IssueOp::Localize(&[k]), None);
    let h1 = c.issue(N1, 0, IssueOp::Localize(&[k]), None);

    c.deliver_one(N0, N2); // home: owner←n0, hand-over → n0 (in flight)
    c.deliver_one(N1, N2); // home: owner←n1, relocate → n0 (parks there)
                           // Deliver the relocate to n0 BEFORE the hand-over? Different links:
                           // relocate travels n2→n0 behind the hand-over (FIFO) — same link here
                           // since home==old owner. Order is hand-over, then relocate.
    assert_eq!(c.pending(N2, N0), 2);
    c.deliver_one(N2, N0); // hand-over: n0 owns, localize h0 done
    assert!(c.op_done(N0, &h0));
    assert!(c.nodes[0].shared.read_value(k).is_some());
    c.deliver_one(N2, N0); // relocate: n0 hands over to n1
    assert_eq!(c.pending(N0, N1), 1);
    c.deliver_one(N0, N1);
    assert!(c.op_done(N1, &h1));
    assert_eq!(c.value_of(k), vec![k.0 as f32, 9.0]);
    assert!(
        c.nodes[1].shared.read_value(k).is_some(),
        "n1 ends up owning"
    );
    c.check_ownership_invariant();
    assert_eq!(c.nodes[0].shared.stats().unexpected_relocates, 0);
}

#[test]
fn relocate_parks_when_key_still_in_flight() {
    // Like the conflict test, but the second localize is processed by the
    // home while the first hand-over has not even been sent: the parked
    // relocate must chain correctly.
    let mut c = TestCluster::new(cfg(4, 16), 1);
    let k = Key(12); // homed at n3
    let h0 = c.issue(N0, 0, IssueOp::Localize(&[k]), None);
    let h1 = c.issue(N1, 0, IssueOp::Localize(&[k]), None);
    let h2 = c.issue(N2, 0, IssueOp::Localize(&[k]), None);
    // Home handles all three requests back to back.
    c.deliver_one(N0, N3);
    c.deliver_one(N1, N3);
    c.deliver_one(N2, N3);
    // Chain: hand-over→n0; relocate(n1)→n0; then n0 hands to n1 which has
    // a parked relocate to n2... all resolved at quiescence.
    c.run_until_quiet();
    assert!(c.op_done(N0, &h0));
    assert!(c.op_done(N1, &h1));
    assert!(c.op_done(N2, &h2));
    assert!(
        c.nodes[2].shared.read_value(k).is_some(),
        "last requester wins"
    );
    c.check_ownership_invariant();
    for n in &c.nodes {
        assert_eq!(n.shared.stats().unexpected_relocates, 0);
    }
}

#[test]
fn op_arriving_at_old_owner_before_relocate_is_served_there() {
    let mut c = TestCluster::new(cfg(3, 12), 1);
    let k = home_key(1);
    // n2 pushes; the forwarded op reaches owner n1 (home==owner, served on
    // arrival). Then n0 localizes. FIFO guarantees the push is processed
    // before the relocate at n1, so nothing is lost.
    let h_push = c.issue(N2, 0, IssueOp::Push(&[k], &[3.0, 0.0]), None);
    let _h_loc = c.issue(N0, 0, IssueOp::Localize(&[k]), None);
    // Deliver localize first at the home — the push still arrives at n1
    // (home==owner) afterwards and must be forwarded to n0... but FIFO per
    // link (n2→n1) only constrains the push relative to other n2→n1
    // traffic, so this interleaving is legal.
    c.deliver_one(N0, N1); // home: owner←n0, hand-over → n0
    c.deliver_one(N2, N1); // push arrives at n1: no longer owner, not home? n1 IS home → forward to n0
    c.run_until_quiet();
    assert!(c.op_done(N2, &h_push));
    assert_eq!(c.value_of(k), vec![3.0, 0.0]);
    c.check_ownership_invariant();
}

// ---------------------------------------------------------------------------
// location caches
// ---------------------------------------------------------------------------

fn cached_cfg(nodes: u16, keys: u64) -> ProtoConfig {
    let mut c = cfg(nodes, keys);
    c.location_caches = true;
    c
}

#[test]
fn warm_cache_contacts_owner_directly() {
    let mut c = TestCluster::with_init(cached_cfg(4, 16), 1, |k| Some(vec![k.0 as f32, 0.0]));
    let k = Key(8); // homed at n2
                    // Relocate to n3 so home != owner.
    c.localize_now(N3, 0, &[k]);
    // Cold access from n0: 3 messages (forward via home).
    let mut hops: u64 = 0;
    let mut out = [0.0f32; 2];
    let h = c.issue(N0, 0, IssueOp::Pull(&[k]), Some(&mut out));
    c.run_until_quiet_counting(&mut hops);
    assert_eq!(hops, 3);
    c.nodes[0].clients[0].finish_pull(h.seq().unwrap(), &mut out);
    // Warm access: directly to n3 and back — 2 messages.
    let mut hops: u64 = 0;
    let h = c.issue(N0, 0, IssueOp::Pull(&[k]), Some(&mut out));
    c.run_until_quiet_counting(&mut hops);
    assert_eq!(hops, 2, "warm cache: direct to owner");
    c.nodes[0].clients[0].finish_pull(h.seq().unwrap(), &mut out);
    assert_eq!(out, [8.0, 0.0]);
}

/// Location-cache observability: hits and stale double-forwards are
/// counted — cold accesses and cache-off configurations count nothing.
#[test]
fn loc_cache_counters_observe_hits_and_staleness() {
    let mut c = TestCluster::with_init(cached_cfg(4, 16), 1, |k| Some(vec![k.0 as f32, 0.0]));
    let k = Key(8); // homed at n2
    c.localize_now(N3, 0, &[k]);
    let hits = |c: &TestCluster| c.nodes[0].shared.stats().loc_cache_hits;
    // Cold access: routed via home — no hit counted.
    let _ = c.pull_now(N0, 0, &[k]);
    assert_eq!(hits(&c), 0, "cold access is not a cache hit");
    // Warm accesses: each one routed straight to the cached owner.
    let _ = c.pull_now(N0, 0, &[k]);
    c.push_now(N0, 0, &[k], &[1.0, 1.0]);
    assert_eq!(hits(&c), 2, "warm accesses count as hits");
    // A stale entry still counts as a hit at the issuer — the cost shows
    // up as a double-forward at the stale destination.
    c.localize_now(N1, 0, &[k]);
    let _ = c.pull_now(N0, 0, &[k]);
    assert_eq!(hits(&c), 3);
    assert_eq!(c.nodes[3].shared.stats().loc_cache_stale_forwards, 1);

    // Caches off: nothing is ever counted.
    let mut c = TestCluster::with_init(cfg(4, 16), 1, |k| Some(vec![k.0 as f32, 0.0]));
    c.localize_now(N3, 0, &[Key(8)]);
    let _ = c.pull_now(N0, 0, &[Key(8)]);
    let _ = c.pull_now(N0, 0, &[Key(8)]);
    assert_eq!(c.nodes[0].shared.stats().loc_cache_hits, 0);
}

#[test]
fn stale_cache_double_forwards() {
    let mut c = TestCluster::with_init(cached_cfg(4, 16), 1, |k| Some(vec![k.0 as f32, 0.0]));
    let k = Key(8); // homed at n2
    c.localize_now(N3, 0, &[k]);
    // Warm n0's cache (entry: owner=n3).
    let _ = c.pull_now(N0, 0, &[k]);
    // Move the key to n1; n0's cache is now stale.
    c.localize_now(N1, 0, &[k]);
    // Stale access: n0 → n3 (stale) → n2 (home) → n1 (owner) → n0 = 4.
    let mut hops: u64 = 0;
    let mut out = [0.0f32; 2];
    let h = c.issue(N0, 0, IssueOp::Pull(&[k]), Some(&mut out));
    c.run_until_quiet_counting(&mut hops);
    assert_eq!(hops, 4, "stale cache: double-forward");
    assert_eq!(c.nodes[3].shared.stats().loc_cache_stale_forwards, 1);
    c.nodes[0].clients[0].finish_pull(h.seq().unwrap(), &mut out);
    assert_eq!(out, [8.0, 0.0]);
}

/// The Theorem 3 counterexample: with location caches and asynchronous
/// operations, a cache refresh between two operations of one worker routes
/// them along different paths and the second overtakes the first —
/// breaking read-your-writes (and hence sequential, causal, and
/// client-centric consistency). The schedule:
///
/// 1. key `k` (home n2) is owned by n3; n0's cache holds `k → n3`;
/// 2. a pull P0 is served by n3 but its *response is held*;
/// 3. `k` relocates to n1 (n0's cache is now stale);
/// 4. O1 = async push(+1) from n0 leaves towards the stale owner n3;
/// 5. P0's response arrives and refreshes n0's cache to `k → n1`;
/// 6. O2 = pull from the same worker goes directly to n1 and is served
///    *before* O1 finishes double-forwarding — O2 reads 0 after the worker
///    pushed 1.
#[test]
fn theorem3_caches_break_async_ordering() {
    let mut base = cfg(4, 16);
    base.location_caches = true;
    let mut c = TestCluster::new(base, 2);
    let k = Key(8); // homed at n2

    // (1) owner n3, warm cache at n0.
    c.localize_now(N3, 0, &[k]);
    let _ = c.pull_now(N0, 0, &[k]);

    // (2) P0 from worker 1: served at n3, response held on n3→n0.
    let mut p0_out = [0.0f32; 2];
    let p0 = c.issue(N0, 1, IssueOp::Pull(&[k]), Some(&mut p0_out));
    c.deliver_one(N0, N3);
    assert_eq!(c.pending(N3, N0), 1, "P0 response held");

    // (3) k relocates to n1.
    let loc = c.issue(N1, 0, IssueOp::Localize(&[k]), None);
    c.deliver_one(N1, N2); // home: owner ← n1
    c.deliver_one(N2, N3); // relocate to old owner n3
    c.deliver_one(N3, N1); // hand-over
    assert!(c.op_done(N1, &loc));

    // (4) O1: async push from worker 0 towards stale owner n3. Held.
    let o1 = c.issue(N0, 0, IssueOp::Push(&[k], &[1.0, 0.0]), None);
    assert_eq!(c.pending(N0, N3), 1);

    // (5) P0's response refreshes n0's cache to k → n1.
    c.deliver_one(N3, N0);
    assert!(c.op_done(N0, &p0));
    c.nodes[0].clients[1].finish_pull(p0.seq().unwrap(), &mut p0_out);

    // (6) O2: pull from worker 0. (The ordered-async guard reroutes it via
    // the home node, but that cannot help: O1 is still parked at n3.)
    let mut o2_out = [9.0f32; 2];
    let o2 = c.issue(N0, 0, IssueOp::Pull(&[k]), Some(&mut o2_out));
    let seq = o2.seq().expect("remote pull");
    // Deliver O2's whole path while O1 is still held on n0→n3.
    c.deliver_one(N0, N2); // guard route: via home n2
    c.deliver_one(N2, N1); // forwarded to owner n1
    c.deliver_one(N1, N0); // response
    assert!(c.op_done(N0, &o2));
    c.nodes[0].clients[0].finish_pull(seq, &mut o2_out);
    assert_eq!(
        o2_out,
        [0.0, 0.0],
        "read-your-writes broken: O2 overtook the worker's own O1"
    );
    assert!(!c.op_done(N0, &o1), "O1 still in flight");

    // Drain: no update is lost even though ordering broke.
    c.run_until_quiet();
    assert!(c.op_done(N0, &o1));
    assert_eq!(c.value_of(k), vec![1.0, 0.0]);
    c.check_ownership_invariant();
}

/// Control for the Theorem 3 test: with caches OFF the same operation
/// pattern cannot reorder, because every operation of the worker travels
/// via the home node on one FIFO path (Theorem 2).
#[test]
fn theorem2_no_caches_preserves_async_ordering() {
    let mut c = TestCluster::new(cfg(4, 16), 2);
    let k = Key(8); // homed at n2
    c.localize_now(N1, 0, &[k]); // owner n1, home n2

    // O1: async push (held on n0→n2), O2: pull right behind it.
    let o1 = c.issue(N0, 0, IssueOp::Push(&[k], &[1.0, 0.0]), None);
    let mut out = [9.0f32; 2];
    let o2 = c.issue(N0, 0, IssueOp::Pull(&[k]), Some(&mut out));
    assert_eq!(c.pending(N0, N2), 2, "both ops on the home FIFO");
    c.run_until_quiet();
    assert!(c.op_done(N0, &o1));
    assert!(c.op_done(N0, &o2));
    c.nodes[0].clients[0].finish_pull(o2.seq().unwrap(), &mut out);
    assert_eq!(out, [1.0, 0.0], "program order preserved without caches");
    c.check_ownership_invariant();
}

// ---------------------------------------------------------------------------
// ordered-async guard
// ---------------------------------------------------------------------------

/// Mechanism test for the ordered-async guard: while a worker has a
/// remotely-routed operation in flight on `k`, its next operation on `k`
/// must not use the fast local path, even if the key has meanwhile become
/// local. (The hazard needs the outstanding op on a different link than
/// the relocation, which requires location caches; note that with caches
/// on, rerouting cannot restore full ordering — see the Theorem 3 test —
/// but the guard still closes the *local-overtake* window, and under
/// per-worker-connection transports like the original Lapse it is what
/// makes the cache-free Theorem 2 routing model sound.)
#[test]
fn guard_suppresses_fast_path_while_op_outstanding() {
    let mut base = cfg(4, 16);
    base.location_caches = true;
    let mut c = TestCluster::new(base, 2);
    let k = Key(4); // homed at n1

    // Move the key to n3 and warm worker 0's cache (k → n3).
    c.localize_now(N3, 0, &[k]);
    let _ = c.pull_now(N0, 0, &[k]);

    // Worker 0: async push(+1) → direct to cached owner n3. Hold it.
    let h_push = c.issue(N0, 0, IssueOp::Push(&[k], &[1.0, 0.0]), None);
    assert_eq!(c.pending(N0, N3), 1, "push waiting on the n0→n3 link");

    // Worker 1 localizes k; its request travels n0→n1 (home) — a
    // different link, so it can complete while the push is held.
    let h_loc = c.issue(N0, 1, IssueOp::Localize(&[k]), None);
    c.deliver_one(N0, N1); // home: owner ← n0, relocate → n3
    c.deliver_one(N1, N3); // old owner hands over
    c.deliver_one(N3, N0); // hand-over: k now local at n0
    assert!(c.op_done(N0, &h_loc));
    assert!(c.nodes[0].shared.read_value(k).is_some());
    assert!(!c.op_done(N0, &h_push), "push still in flight");

    // Worker 0 pulls k: the guard routes it remotely, behind its push.
    let mut out = [0.0f32; 2];
    let h_pull = c.issue(N0, 0, IssueOp::Pull(&[k]), Some(&mut out));
    assert!(
        h_pull.seq().is_some(),
        "guard must suppress the fast local path"
    );
    c.run_until_quiet();
    c.nodes[0].clients[0].finish_pull(h_pull.seq().unwrap(), &mut out);
    assert!(c.op_done(N0, &h_push));
    assert_eq!(c.value_of(k), vec![1.0, 0.0], "no update lost");
    c.check_ownership_invariant();
}

/// The guard map's count follows completions: a completed remote key
/// counts out, and the worker's next pull of it — local by now — is
/// served on the spot, while a key still in flight stays forced remote.
/// The guard is the worker's own: another worker of the node pulls the
/// in-flight key locally. Once nothing is in flight the count is zero,
/// and the worker's pulls of local keys are served without the guard.
#[test]
fn completed_remote_keys_leave_the_guard_and_in_flight_ones_stay_forced() {
    let mut base = cfg(4, 16);
    base.location_caches = true;
    let mut c = TestCluster::new(base, 2);
    let (k, j) = (Key(4), Key(5)); // both homed at n1
    let mut out = [0.0f32; 2];
    let mut local_pull_by = |c: &mut TestCluster, slot: usize, key: Key| {
        let h = c.issue(N0, slot, IssueOp::Pull(&[key]), Some(&mut out));
        matches!(h, IssueHandle::Ready(_))
    };

    // Both keys live on n3, and worker 0's cache knows it.
    c.localize_now(N3, 0, &[k, j]);
    let _ = c.pull_now(N0, 0, &[k, j]);
    // Two async pushes straight to n3, held on that link.
    let h_k = c.issue(N0, 0, IssueOp::Push(&[k], &[1.0, 0.0]), None);
    let h_j = c.issue(N0, 0, IssueOp::Push(&[j], &[2.0, 0.0]), None);
    assert_eq!(c.pending(N0, N3), 2);
    assert_eq!(c.nodes[0].clients[0].guarded_keys(), 2);

    // Worker 1 brings both keys to n0 meanwhile, over other links.
    let h_loc = c.issue(N0, 1, IssueOp::Localize(&[k, j]), None);
    c.deliver_one(N0, N1); // home: owner ← n0, relocate → n3
    c.deliver_one(N1, N3); // old owner hands over
    c.deliver_one(N3, N0);
    assert!(c.op_done(N0, &h_loc));
    assert!(c.nodes[0].shared.read_value(k).is_some());
    assert!(c.nodes[0].shared.read_value(j).is_some());
    assert_eq!(c.pending(N0, N3), 2, "the pushes are still held");

    // The push of k goes n3 → home n1 → owner n0 and completes there.
    c.deliver_one(N0, N3);
    c.deliver_one(N3, N1);
    c.deliver_one(N1, N0);
    assert!(c.op_done(N0, &h_k) && !c.op_done(N0, &h_j));
    assert_eq!(c.nodes[0].clients[0].guarded_keys(), 1);
    assert!(
        local_pull_by(&mut c, 0, k),
        "k's remote op completed: served locally"
    );
    assert!(
        !local_pull_by(&mut c, 0, j),
        "j's push is in flight: forced remote"
    );
    assert!(
        local_pull_by(&mut c, 1, j),
        "worker 1 has nothing in flight on j: served locally"
    );

    c.run_until_quiet();
    assert!(c.op_done(N0, &h_j));
    assert_eq!(c.nodes[0].clients[0].guarded_keys(), 0);
    assert!(local_pull_by(&mut c, 0, j) && local_pull_by(&mut c, 0, k));
    assert_eq!(c.pending_total(), 0, "local pulls sent nothing");
    assert_eq!(c.value_of(k), vec![1.0, 0.0]);
    assert_eq!(c.value_of(j), vec![2.0, 0.0]);
}

// ---------------------------------------------------------------------------
// duplicate keys & larger ops
// ---------------------------------------------------------------------------

#[test]
fn duplicate_keys_in_one_push_apply_twice() {
    let mut c = TestCluster::new(cfg(3, 12), 1);
    let k = home_key(1);
    c.push_now(N0, 0, &[k, k], &[1.0, 0.0, 2.0, 0.0]);
    assert_eq!(c.value_of(k), vec![3.0, 0.0]);
}

#[test]
fn duplicate_keys_in_one_pull_both_filled() {
    let mut c = TestCluster::with_init(cfg(3, 12), 1, |k| Some(vec![k.0 as f32, 1.0]));
    let k = home_key(2);
    let got = c.pull_now(N0, 0, &[k, k]);
    assert_eq!(got, vec![k.0 as f32, 1.0, k.0 as f32, 1.0]);
}

#[test]
fn grouped_localize_across_homes() {
    let mut c = TestCluster::new(cfg(3, 12), 1);
    let keys = [Key(4), Key(5), Key(8), Key(9)]; // two homes
    let mut sink = Vec::new();
    let h = c.nodes[0].clients[0].localize(&keys, &mut sink);
    assert_eq!(sink.len(), 2, "one LocalizeReq per home");
    c.send_all(N0, sink);
    c.run_until_quiet();
    assert!(c.op_done(N0, &h));
    for k in keys {
        assert!(c.nodes[0].shared.read_value(k).is_some());
    }
    c.check_ownership_invariant();
}

#[test]
fn localize_of_already_local_key_is_free() {
    let mut c = TestCluster::new(cfg(3, 12), 1);
    let k = home_key(0);
    let mut sink = Vec::new();
    let h = c.nodes[0].clients[0].localize(&[k], &mut sink);
    assert!(matches!(h, IssueHandle::Ready(None)));
    assert!(sink.is_empty());
}

#[test]
fn concurrent_localizes_from_same_node_share_one_request() {
    let mut c = TestCluster::new(cfg(3, 12), 2);
    let k = home_key(1);
    let h0 = c.issue(N0, 0, IssueOp::Localize(&[k]), None);
    let before = c.pending_total();
    let h1 = c.issue(N0, 1, IssueOp::Localize(&[k]), None);
    assert_eq!(c.pending_total(), before, "second localize piggybacks");
    c.run_until_quiet();
    assert!(c.op_done(N0, &h0));
    assert!(c.op_done(N0, &h1));
    c.check_ownership_invariant();
}

// ---------------------------------------------------------------------------
// replication technique (NuPS §2)
// ---------------------------------------------------------------------------

fn replication_cfg(nodes: u16, keys: u64) -> ProtoConfig {
    let mut c = cfg(nodes, keys);
    c.variant = Variant::Replication;
    c.replica_flush_every = 1_000_000; // flush explicitly in tests
    c
}

#[test]
fn replicated_ops_complete_locally_without_op_messages() {
    let mut c = TestCluster::new(replication_cfg(3, 12), 1);
    let k = home_key(1); // homed at n1, replicated everywhere
    let mut sink = Vec::new();
    let h = c.nodes[0].clients[0].push(&[k], &[1.0, 2.0], &mut sink);
    assert!(matches!(h, IssueHandle::Ready(None)));
    // Only the one-time registration messages, no Op traffic.
    assert!(sink
        .iter()
        .all(|(_, m)| matches!(m, lapse_proto::Msg::ReplicaReg(_))));
    let mut out = [0.0; 2];
    let mut sink = Vec::new();
    let h = c.nodes[0].clients[0].pull(&[k], Some(&mut out), &mut sink);
    assert!(matches!(h, IssueHandle::Ready(None)));
    assert!(sink.is_empty(), "second replicated access sends nothing");
    assert_eq!(
        out,
        [1.0, 2.0],
        "read-your-writes through the pending overlay"
    );
    assert_eq!(c.nodes[0].shared.stats().pull_replica, 1);
    assert_eq!(c.nodes[0].shared.stats().push_replica, 1);
}

#[test]
fn replica_flush_applies_pushes_to_owner_exactly_once() {
    let mut c = TestCluster::new(replication_cfg(3, 12), 1);
    let k = home_key(1);
    c.issue(N0, 0, IssueOp::Push(&[k], &[1.0, 0.5]), None);
    c.issue(N2, 0, IssueOp::Push(&[k], &[2.0, 0.25]), None);
    c.flush_replicas(N0);
    c.flush_replicas(N2);
    c.run_until_quiet();
    assert_eq!(
        c.value_of(k),
        vec![3.0, 0.75],
        "owner sums both pushes once"
    );
    // A later flush with nothing pending must not re-apply anything.
    c.flush_replicas(N0);
    c.run_until_quiet();
    assert_eq!(c.value_of(k), vec![3.0, 0.75]);
    c.check_ownership_invariant();
}

#[test]
fn refresh_propagates_fresh_values_to_registered_replicas() {
    let mut c = TestCluster::new(replication_cfg(3, 12), 1);
    let k = home_key(1);
    // Both n0 and n2 touch the key (registering as subscribers).
    c.issue(N0, 0, IssueOp::Push(&[k], &[1.0, 0.0]), None);
    let mut out = [0.0; 2];
    c.issue(N2, 0, IssueOp::Pull(&[k]), Some(&mut out));
    c.run_until_quiet();
    // n2's replica is still the initial value: nothing propagated yet.
    assert_eq!(out, [0.0, 0.0]);
    c.flush_replicas(N0);
    c.run_until_quiet();
    // The owner's refresh reached every subscriber.
    assert_eq!(c.replica_view(N2, k).unwrap(), vec![1.0, 0.0]);
    assert_eq!(c.replica_view(N0, k).unwrap(), vec![1.0, 0.0]);
    assert!(c.nodes[2].shared.stats().replica_refreshes >= 1);
}

#[test]
fn replica_reads_never_go_backwards_across_flush() {
    let mut c = TestCluster::new(replication_cfg(2, 8), 1);
    let k = Key(4); // homed at n1; n0 holds a replica
    let read = |c: &TestCluster| c.replica_view(N0, k).unwrap()[0];
    c.issue(N0, 0, IssueOp::Push(&[k], &[1.0, 0.0]), None);
    assert_eq!(read(&c), 1.0);
    // Flush moves the delta in-flight; the local view must keep it.
    c.flush_replicas(N0);
    assert_eq!(read(&c), 1.0, "in-flight deltas stay visible");
    c.run_until_quiet();
    assert_eq!(read(&c), 1.0, "refresh retires the in-flight batch");
    // No delta is left after the ack.
    assert!(c.nodes[0].shared.shard_for(k).read().store.deltas_settled());
}

#[test]
fn owner_local_pushes_propagate_through_self_flush() {
    let mut c = TestCluster::new(replication_cfg(2, 8), 1);
    let k = Key(4); // homed at n1
                    // The owner itself pushes: accumulates and self-propagates.
    c.issue(N1, 0, IssueOp::Push(&[k], &[5.0, 0.0]), None);
    // n0 registers by reading.
    let mut out = [0.0; 2];
    c.issue(N0, 0, IssueOp::Pull(&[k]), Some(&mut out));
    c.run_until_quiet();
    c.flush_replicas(N1);
    c.run_until_quiet();
    assert_eq!(c.value_of(k), vec![5.0, 0.0], "self flush applied at owner");
    assert_eq!(c.replica_view(N0, k).unwrap(), vec![5.0, 0.0]);
    c.check_ownership_invariant();
}

/// A node registers for refreshes once, from the worker that first
/// touches a replicated key; another worker of the node can flush before
/// that registration is delivered. The owner treats the push as the
/// registration: it sends its snapshot first, then the refresh that
/// acknowledges the push, and the late registration changes nothing. The
/// replica view ends equal to the owner's value, with no batch left in
/// flight.
#[test]
fn a_flush_that_overtakes_its_nodes_registration_is_acknowledged() {
    let mut c = TestCluster::new(replication_cfg(2, 8), 2);
    let k = Key(0); // homed at n0
                    // n1's worker 0 pushes first: its sink carries the registration.
                    // Hold it back.
    let mut held = Vec::new();
    c.nodes[1].clients[0].push(&[k], &[3.0, 0.0], &mut held);
    assert!(held
        .iter()
        .any(|(_, m)| matches!(m, lapse_proto::Msg::ReplicaReg(_))));
    // Worker 1 pushes and flushes both pushes; that reaches the owner
    // first.
    c.issue(N1, 1, IssueOp::Push(&[k], &[4.0, 0.0]), None);
    let mut sink = Vec::new();
    c.nodes[1].clients[1].flush_replicas(&mut sink);
    c.send_all(N1, sink);
    c.run_until_quiet();
    // The registration arrives last.
    c.send_all(N1, held);
    c.run_until_quiet();
    assert_eq!(c.value_of(k), vec![7.0, 0.0]);
    assert_eq!(
        c.replica_view(N1, k).unwrap(),
        vec![7.0, 0.0],
        "replica view against the owner's value"
    );
    assert!(c.replica_deltas_settled(), "a batch left in flight");
}

#[test]
fn auto_flush_triggers_at_threshold() {
    let mut base = replication_cfg(2, 8);
    base.replica_flush_every = 3;
    let mut c = TestCluster::new(base, 1);
    let k = Key(4);
    c.issue(N0, 0, IssueOp::Push(&[k], &[1.0, 0.0]), None);
    c.issue(N0, 0, IssueOp::Push(&[k], &[1.0, 0.0]), None);
    assert_eq!(c.nodes[0].shared.stats().replica_flushes, 0);
    c.issue(N0, 0, IssueOp::Push(&[k], &[1.0, 0.0]), None);
    assert_eq!(
        c.nodes[0].shared.stats().replica_flushes,
        1,
        "third accumulated push crosses the threshold"
    );
    c.run_until_quiet();
    assert_eq!(c.value_of(k), vec![3.0, 0.0]);
}

// ---------------------------------------------------------------------------
// hybrid technique (replicate hot keys, relocate the tail)
// ---------------------------------------------------------------------------

fn hybrid_cfg(nodes: u16, keys: u64, hot: u64) -> ProtoConfig {
    let mut c = cfg(nodes, keys);
    c.variant = Variant::Hybrid;
    c.hot_set = lapse_proto::HotSet::Prefix(hot);
    c.replica_flush_every = 1_000_000;
    c
}

#[test]
fn hybrid_replicates_hot_keys_and_relocates_the_tail() {
    let mut c = TestCluster::new(hybrid_cfg(3, 12, 4), 1);
    let hot = Key(0); // homed at n0, replicated
    let tail = Key(8); // homed at n2, relocatable
                       // Hot key: local access from any node, no relocation.
    c.issue(N1, 0, IssueOp::Push(&[hot], &[1.0, 0.0]), None);
    c.flush_replicas(N1);
    c.run_until_quiet();
    assert_eq!(c.value_of(hot), vec![1.0, 0.0]);
    assert_eq!(c.nodes[0].server.owner_of(hot), N0, "hot keys never move");
    // Localizing a hot key is a no-op.
    let mut sink = Vec::new();
    let h = c.nodes[1].clients[0].localize(&[hot], &mut sink);
    assert!(matches!(h, IssueHandle::Ready(None)));
    assert!(sink.is_empty());
    // Tail key: relocates exactly as under Lapse.
    c.localize_now(N0, 0, &[tail]);
    assert!(c.nodes[0].shared.read_value(tail).is_some());
    assert_eq!(c.nodes[2].server.owner_of(tail), N0);
    c.check_ownership_invariant();
}

#[test]
fn hybrid_mixed_op_splits_by_technique() {
    let mut c = TestCluster::new(hybrid_cfg(3, 12, 4), 1);
    let hot = Key(1);
    let tail = Key(9);
    // One push touching both a replicated and a relocatable key.
    c.push_now(N1, 0, &[hot, tail], &[1.0, 1.0, 2.0, 2.0]);
    c.flush_replicas(N1);
    c.run_until_quiet();
    assert_eq!(c.value_of(hot), vec![1.0, 1.0]);
    assert_eq!(c.value_of(tail), vec![2.0, 2.0]);
    let stats = c.nodes[1].shared.stats();
    assert_eq!(stats.push_replica, 1);
    assert_eq!(stats.push_remote, 1);
    c.check_ownership_invariant();
}

// ---------------------------------------------------------------------------
// value plane: guard balance and allocation accounting
// ---------------------------------------------------------------------------

/// The ordered-async guard counts remote keys in at issue and out at
/// completion, without a lock. After mixed sync/async traffic
/// — including guard-forced rerouting of later ops on the same keys —
/// every worker's guard count must balance back to zero.
#[test]
fn guard_counts_balance_after_mixed_sync_async_traffic() {
    let mut c = TestCluster::new(cfg(3, 12), 2);
    let remote = [home_key(1), home_key(2), Key(9)];
    // Async pulls and pushes on remote keys, not yet delivered: both
    // workers of n0 guard their keys.
    let p0 = c.issue(N0, 0, IssueOp::Pull(&remote), None);
    let p1 = c.issue(N0, 1, IssueOp::Pull(&remote), None);
    let q0 = c.issue(N0, 0, IssueOp::Push(&remote, &[0.5; 6]), None);
    assert_eq!(c.nodes[0].clients[0].guarded_keys(), 3);
    assert_eq!(c.nodes[0].clients[1].guarded_keys(), 3);
    // A second op of worker 0 on the same keys is guard-forced onto the
    // remote path (no new guarded keys, higher counts).
    let q1 = c.issue(N0, 0, IssueOp::Push(&remote, &[0.25; 6]), None);
    assert_eq!(c.nodes[0].clients[0].guarded_keys(), 3);
    // Mix in a sync-style pull served locally (no guard interaction).
    let mut out = [0.0f32; 2];
    let h = c.issue(N0, 0, IssueOp::Pull(&[home_key(0)]), Some(&mut out));
    assert!(matches!(h, IssueHandle::Ready(_)));
    c.run_until_quiet();
    for (h, slot) in [(p0, 0), (p1, 1)] {
        if let IssueHandle::Pending(seq) = h {
            let _ = c.nodes[0].clients[slot].take_pull(seq);
        }
    }
    for (h, slot) in [(q0, 0), (q1, 0)] {
        if let IssueHandle::Pending(seq) = h {
            c.nodes[0].clients[slot].finish_ack(seq);
        }
    }
    for node in &c.nodes {
        for client in &node.clients {
            assert_eq!(
                client.guarded_keys(),
                0,
                "guard map must balance to zero at quiescence"
            );
        }
    }
    c.check_ownership_invariant();
}

/// The owned-local sync pull path must be allocation-free: no per-value
/// heap allocation is recorded, while the value-plane byte counter
/// advances by exactly the bytes served.
#[test]
fn owned_local_sync_pull_allocates_nothing() {
    let mut c = TestCluster::new(cfg(3, 12), 1);
    let keys = [Key(0), Key(1), Key(2), Key(3)]; // all homed at n0
    let mut out = [0.0f32; 8];
    // Warm the issue scratch (first use may grow reusable buffers).
    let h = c.issue(N0, 0, IssueOp::Pull(&keys), Some(&mut out));
    assert!(matches!(h, IssueHandle::Ready(_)));

    let stats = c.nodes[0].shared.stats();
    let heap_before = stats.value_allocs_heap;
    let bytes_before = stats.value_bytes_moved;
    for _ in 0..100 {
        let h = c.issue(N0, 0, IssueOp::Pull(&keys), Some(&mut out));
        assert!(matches!(h, IssueHandle::Ready(_)), "stayed local");
    }
    let stats = c.nodes[0].shared.stats();
    assert_eq!(
        stats.value_allocs_heap, heap_before,
        "owned-local sync pulls must not allocate per value"
    );
    // 100 ops × 4 keys × 2 floats × 4 bytes.
    assert_eq!(
        stats.value_bytes_moved - bytes_before,
        100 * 4 * 2 * 4,
        "value-plane byte accounting"
    );
    assert_eq!(c.pending_total(), 0, "no messages for local pulls");
}

/// `HotSet::contains` binary-searches an explicit set, so a hand-built one
/// that is not strictly ascending would miss keys and `Hybrid` would
/// replicate the wrong set: it is refused by name, as is a key past the
/// key space, and no node is built from it.
#[test]
fn an_explicit_hot_set_out_of_order_or_range_is_refused_by_name() {
    let mut c = cfg(2, 12);
    c.variant = Variant::Hybrid;
    c.hot_set = HotSet::Explicit(vec![Key(9), Key(2)]);
    assert_eq!(c.validate(), Err(ConfigError::HotSetKey(1)));
    let build = |c: &ProtoConfig| {
        let c = std::sync::Arc::new(c.clone());
        std::panic::catch_unwind(|| NodeShared::new(c, NodeId(0), std::sync::Arc::new(|| 0)))
    };
    let msg = *build(&c).err().unwrap().downcast::<String>().unwrap();
    assert_eq!(
        msg,
        "invalid ProtoConfig: hot_set entry 1 is out of order or range"
    );
    c.hot_set = HotSet::Explicit(vec![Key(2), Key(9), Key(12)]);
    assert_eq!(c.validate(), Err(ConfigError::HotSetKey(2)));
    assert!(build(&c).is_err());
    c.hot_set = HotSet::explicit(vec![Key(9), Key(2)]);
    assert_eq!(c.validate(), Ok(()));
    assert!(c.hot_set.contains(Key(2)) && c.hot_set.contains(Key(9)));
}
