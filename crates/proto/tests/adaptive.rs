//! Deterministic tests of the adaptive technique-transition protocol.
//!
//! The sans-io harness delivers messages by hand, so every transition
//! race the protocol must survive — localizes refused mid-promotion,
//! parked operations drained by the promotion broadcast, deltas chasing
//! a demotion, localizes deferred while a demotion drains — is pinned
//! down as a plain unit test.

use lapse_net::{Key, NodeId};
use lapse_proto::client::IssueHandle;
use lapse_proto::messages::{LocalizeReqMsg, Msg, TechniqueDemoteMsg, TechniquePromoteMsg};
use lapse_proto::shard::OptRead;
use lapse_proto::storage::Residency;
use lapse_proto::testkit::{IssueOp, TestCluster};
use lapse_proto::{Layout, OpId, ProtoConfig, Variant};

fn adaptive(nodes: u16) -> ProtoConfig {
    let mut cfg = ProtoConfig::new(nodes, 8, Layout::Uniform(2));
    cfg.variant = Variant::Adaptive;
    cfg.latches = 4;
    cfg
}

fn cluster(nodes: u16) -> TestCluster {
    TestCluster::new(adaptive(nodes), 2)
}

/// Injects `node`'s demotion vote for `keys` and delivers it to their home.
fn vote(c: &mut TestCluster, node: NodeId, keys: &[Key]) {
    let home = c.cfg.home(keys[0]);
    let keys = keys.to_vec();
    c.inject(
        node,
        home,
        Msg::TechniqueDemote(TechniqueDemoteMsg { node, keys }),
    );
    c.drain_link(node, home);
}

fn promote(c: &mut TestCluster, requester: NodeId, key: Key) {
    let home = c.cfg.home(key);
    c.inject(
        requester,
        home,
        Msg::TechniquePromote(TechniquePromoteMsg {
            node: requester,
            keys: vec![key],
        }),
    );
    c.run_until_quiet();
}

/// Votes for demotion from every node and drives the demotion to
/// completion.
fn demote(c: &mut TestCluster, key: Key) {
    for n in 0..c.cfg.nodes {
        vote(c, NodeId(n), &[key]);
    }
    c.run_until_quiet();
}

#[test]
fn promotion_of_home_owned_key_replicates_everywhere() {
    let mut c = cluster(3);
    let k = Key(0); // homed at node 0, still owned there
    promote(&mut c, NodeId(2), k);
    for n in 0..3 {
        assert!(c.replicated_on(NodeId(n), k), "table not flipped on n{n}");
    }
    // The owner keeps the value; replicas hold views.
    assert_eq!(c.value_of(k), vec![0.0, 0.0]);
    assert_eq!(c.replica_view(NodeId(1), k), Some(vec![0.0, 0.0]));
    assert!(c.transitions_idle());
    c.check_ownership_invariant();

    // Both remote nodes push via their replicas; the owner converges
    // after the propagation round.
    c.push_now(NodeId(1), 0, &[k], &[1.0, 2.0]);
    c.push_now(NodeId(2), 1, &[k], &[4.0, 8.0]);
    for n in 0..3 {
        c.flush_replicas(NodeId(n));
    }
    c.run_until_quiet();
    assert_eq!(c.value_of(k), vec![5.0, 10.0]);
    assert_eq!(c.replica_view(NodeId(2), k), Some(vec![5.0, 10.0]));
}

#[test]
fn promotion_relocates_remotely_owned_key_home_first() {
    let mut c = cluster(2);
    let k = Key(1); // homed at node 0
    c.localize_now(NodeId(1), 0, &[k]);
    c.push_now(NodeId(1), 0, &[k], &[3.0, 3.0]); // local at n1 now
    promote(&mut c, NodeId(1), k);
    // The value moved back home and carries the pre-promotion pushes.
    assert!(c.replicated_on(NodeId(0), k) && c.replicated_on(NodeId(1), k));
    assert_eq!(c.value_of(k), vec![3.0, 3.0]);
    assert_eq!(c.replica_view(NodeId(1), k), Some(vec![3.0, 3.0]));
    assert_eq!(
        c.nodes[0].server.owner_of(k),
        NodeId(0),
        "promoted key owned at home"
    );
    assert!(c.transitions_idle());
    c.check_ownership_invariant();
    let promotions: u64 = c.nodes[0].shared.stats().tech_promotions;
    assert_eq!(promotions, 1);
}

#[test]
fn localize_racing_promotion_completes_via_broadcast_drain() {
    let mut c = cluster(2);
    let k = Key(0); // homed at node 0, owned at home
    let home = NodeId(0);
    let n1 = NodeId(1);

    // Home promotes; the broadcast to n1 stays undelivered.
    c.inject(
        n1,
        home,
        Msg::TechniquePromote(TechniquePromoteMsg {
            node: n1,
            keys: vec![k],
        }),
    );
    c.drain_link(n1, home);
    assert!(c.replicated_on(home, k) && !c.replicated_on(n1, k));

    // n1, not yet knowing, localizes k and parks a push and a pull
    // behind the expected relocation.
    let h_loc = c.issue(n1, 0, IssueOp::Localize(&[k]), None);
    let h_push = c.issue(n1, 0, IssueOp::Push(&[k], &[2.0, 4.0]), None);
    let h_pull = c.issue(n1, 1, IssueOp::Pull(&[k]), None);
    assert!(!c.op_done(n1, &h_loc));

    // Home refuses the localize (the key is replicated now)...
    c.drain_link(n1, home);
    assert!(!c.op_done(n1, &h_loc), "refusal sends nothing back");

    // ...and the promotion broadcast drains everything parked at n1.
    c.drain_link(home, n1);
    assert!(c.op_done(n1, &h_loc), "localize completed by the broadcast");
    assert!(c.op_done(n1, &h_push), "parked push accumulated");
    assert!(
        c.op_done(n1, &h_pull),
        "parked pull served from the replica"
    );
    if let IssueHandle::Pending(seq) = h_pull {
        // The parked pull sees the parked push that preceded it
        // (read-your-writes across the transition).
        let v = c.nodes[n1.idx()].clients[1].take_pull(seq);
        assert_eq!(v, vec![2.0, 4.0]);
    }
    for h in [h_loc, h_push] {
        if let IssueHandle::Pending(seq) = h {
            c.nodes[n1.idx()].clients[0].finish_ack(seq);
        }
    }

    // The accumulated push reaches the owner with the next round.
    c.flush_replicas(n1);
    c.run_until_quiet();
    assert_eq!(c.value_of(k), vec![2.0, 4.0]);
    assert!(c.transitions_idle());
    c.check_ownership_invariant();
    assert_eq!(c.in_flight_ops(), 0);
}

#[test]
fn demotion_drains_pending_deltas_without_loss() {
    let mut c = cluster(2);
    let k = Key(0);
    promote(&mut c, NodeId(1), k);
    // n1 accumulates a delta that has not been flushed when the
    // demotion lands.
    c.push_now(NodeId(1), 0, &[k], &[1.0, 1.0]);
    demote(&mut c, k);
    assert!(!c.replicated_on(NodeId(0), k) && !c.replicated_on(NodeId(1), k));
    // The drain confirmation carried the delta to the owner.
    assert_eq!(c.value_of(k), vec![1.0, 1.0]);
    assert!(c.transitions_idle());
    c.check_ownership_invariant();
    let demotions: u64 = c.nodes[0].shared.stats().tech_demotions;
    assert_eq!(demotions, 1);
    // Relocation works again after the drain.
    c.localize_now(NodeId(1), 1, &[k]);
    assert_eq!(c.nodes[0].server.owner_of(k), NodeId(1));
    c.check_ownership_invariant();
}

#[test]
fn demotion_defers_localizes_until_drained() {
    let mut c = cluster(3);
    let k = Key(0);
    let home = NodeId(0);
    promote(&mut c, NodeId(1), k);

    // All three nodes vote; home demotes and pins the key.
    for n in 0..3 {
        vote(&mut c, NodeId(n), &[k]);
    }
    assert_eq!(c.residency(home, k), Residency::Demoting);

    // n2 learns of the demotion and immediately localizes; n1 has not
    // drained yet, so the home defers the relocation.
    c.drain_link(home, NodeId(2));
    let h = c.issue(NodeId(2), 0, IssueOp::Localize(&[k]), None);
    c.drain_link(NodeId(2), home);
    assert!(!c.op_done(NodeId(2), &h), "localize deferred while pinned");
    assert_eq!(c.nodes[home.idx()].server.owner_of(k), home);

    // n1 drains; the deferred localize replays and relocates the key.
    c.run_until_quiet();
    assert!(c.op_done(NodeId(2), &h));
    if let IssueHandle::Pending(seq) = h {
        c.nodes[2].clients[0].finish_ack(seq);
    }
    assert_eq!(c.nodes[home.idx()].server.owner_of(k), NodeId(2));
    assert!(c.transitions_idle());
    c.check_ownership_invariant();
    assert_eq!(c.in_flight_ops(), 0);
}

/// Localizes deferred across the keys of one demotion batch replay in the
/// order they arrived, not key by key; one from a node whose drain
/// confirmation has not arrived is stale and dropped.
#[test]
fn deferred_localizes_replay_in_arrival_order_across_a_batch() {
    let mut c = TestCluster::recording(adaptive(4), 2);
    let (home, stale, n2, n3) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    let (a, b) = (Key(0), Key(1));
    assert!(c.cfg.home(a) == home && c.cfg.home(b) == home);
    let keys = vec![a, b];
    c.inject(
        stale,
        home,
        Msg::TechniquePromote(TechniquePromoteMsg { node: stale, keys }),
    );
    c.run_until_quiet();
    // Every node votes both keys cold, `b` first: one batch, `[b, a]`.
    for n in 0..4 {
        vote(&mut c, NodeId(n), &[b, a]);
    }
    // n2 and n3 drain; `stale` has not heard of the demotion yet.
    for n in [n2, n3] {
        c.drain_link(home, n);
        c.drain_link(n, home);
    }
    assert_eq!(
        (c.residency(home, a), c.residency(home, b)),
        (Residency::Demoting, Residency::Demoting)
    );
    let op = OpId::new(stale, 99);
    c.inject(
        stale,
        home,
        Msg::LocalizeReq(LocalizeReqMsg { op, keys: vec![a] }),
    );
    c.drain_link(stale, home);
    // `a`, `b`, `a` arrive while both keys drain.
    let issued = [(n2, 0, a), (n2, 1, b), (n3, 0, a)];
    let handles: Vec<IssueHandle> = issued
        .iter()
        .map(|&(n, slot, k)| c.issue(n, slot, IssueOp::Localize(&[k]), None))
        .collect();
    c.drain_link(n2, home);
    c.drain_link(n3, home);
    assert!(handles
        .iter()
        .zip(&issued)
        .all(|(h, &(n, ..))| !c.op_done(n, h)));
    assert_eq!(c.nodes[0].server.owner_of(a), home, "deferred while pinned");

    // `stale` drains: the batch completes, and the replay hands `a` to n2
    // before `b`, then moves it on to n3.
    c.recorded();
    c.run_until_quiet();
    let log = c.recorded();
    let handed = |dst: NodeId| -> Vec<Vec<Key>> {
        let handovers = log
            .delivered
            .iter()
            .filter(|(src, d, _)| *src == home && *d == dst);
        handovers
            .filter_map(|(.., m)| match m {
                Msg::HandOver(h) => Some(h.keys.clone()),
                _ => None,
            })
            .collect()
    };
    assert_eq!(handed(n2), [vec![a], vec![b]]);
    assert!(handed(stale).is_empty(), "a stale localize relocated");
    let owners = (c.nodes[0].server.owner_of(a), c.nodes[0].server.owner_of(b));
    assert_eq!(owners, (n3, n2));
    for (h, &(n, slot, _)) in handles.iter().zip(&issued) {
        assert!(c.op_done(n, h));
        if let IssueHandle::Pending(seq) = *h {
            c.nodes[n.idx()].clients[slot].finish_ack(seq);
        }
    }
    assert!(c.transitions_idle());
    c.check_ownership_invariant();
    assert_eq!(c.in_flight_ops(), 0);
}

const DEMOTING: Key = Key(0);
const PROMOTING: Key = Key(2);

/// Two nodes, both transitions under way at the home, node 0: `DEMOTING`
/// (its value `[1, 2]`) waits for node 1's drain, `PROMOTING` for node 1's
/// hand-over.
fn mid_transitions(wait_free_reads: bool) -> TestCluster {
    let mut cfg = adaptive(2);
    cfg.wait_free_reads = wait_free_reads;
    let mut c = TestCluster::new(cfg, 1);
    let (home, n1) = (NodeId(0), NodeId(1));
    c.push_now(home, 0, &[DEMOTING], &[1.0, 2.0]);
    c.localize_now(n1, 0, &[PROMOTING]);
    promote(&mut c, n1, DEMOTING);
    vote(&mut c, home, &[DEMOTING]);
    vote(&mut c, n1, &[DEMOTING]);
    let keys = vec![PROMOTING];
    c.inject(
        n1,
        home,
        Msg::TechniquePromote(TechniquePromoteMsg { node: n1, keys }),
    );
    c.drain_link(n1, home);
    assert_eq!(c.residency(home, DEMOTING), Residency::Demoting);
    assert_eq!(c.residency(home, PROMOTING), Residency::Promoting);
    c
}

/// The home's wait-free read takes a transition's byte as it is: a
/// `Demoting` key serves as owned, without a write section, and a
/// `Promoting` one is not here yet.
#[test]
fn wait_free_reads_at_the_home_see_demoting_owned_and_promoting_absent() {
    let mut c = mid_transitions(true);
    let shared = &c.nodes[0].shared;
    let generation = shared.shard_for(DEMOTING).generation();
    let mut out = [0.0; 2];
    let read = shared.try_optimistic_read(DEMOTING, false, &mut out);
    assert_eq!((read, out), (Some(OptRead::Owned), [1.0, 2.0]));
    assert_eq!(shared.shard_for(DEMOTING).generation(), generation);
    let read = shared.try_optimistic_read(PROMOTING, false, &mut out);
    assert_eq!(read, Some(OptRead::Absent));

    c.run_until_quiet();
    assert!(c.transitions_idle());
    let n1 = NodeId(1);
    assert!(c.replicated_on(n1, PROMOTING) && !c.replicated_on(n1, DEMOTING));
    c.check_ownership_invariant();
}

/// A home worker's operations route by the byte too: a `Demoting` key is
/// served in place, and a `Promoting` one parks until its hand-over.
#[test]
fn home_workers_serve_demoting_keys_and_park_on_promoting_ones() {
    let mut c = mid_transitions(false);
    let home = NodeId(0);
    let push = c.issue(home, 0, IssueOp::Push(&[DEMOTING], &[1.0, 1.0]), None);
    assert!(matches!(push, IssueHandle::Ready(_)), "served in place");
    let pull = c.issue(home, 0, IssueOp::Pull(&[PROMOTING]), None);
    assert_eq!(c.pending_total(), 2, "the parked pull sent nothing");
    assert!(!c.op_done(home, &pull));
    c.run_until_quiet();
    assert!(c.op_done(home, &pull));
    if let IssueHandle::Pending(seq) = pull {
        assert_eq!(c.nodes[0].clients[0].take_pull(seq), vec![0.0, 0.0]);
    }
    assert_eq!(c.value_of(DEMOTING), vec![2.0, 3.0]);
    assert!(c.transitions_idle());
    c.check_ownership_invariant();
    assert_eq!(c.in_flight_ops(), 0);
}

#[test]
fn promote_demote_cycles_preserve_sums() {
    let mut c = cluster(2);
    let k = Key(2); // homed at node 0
    let mut expect = [0.0f32; 2];
    for round in 0..4 {
        let delta = [(round + 1) as f32, 1.0];
        c.push_now(NodeId(1), 0, &[k], &delta);
        expect[0] += delta[0];
        expect[1] += delta[1];
        promote(&mut c, NodeId(1), k);
        let delta2 = [0.5, (round + 1) as f32];
        c.push_now(NodeId(0), 1, &[k], &delta2);
        expect[0] += delta2[0];
        expect[1] += delta2[1];
        demote(&mut c, k);
        for n in 0..2 {
            c.flush_replicas(NodeId(n));
        }
        c.run_until_quiet();
    }
    assert_eq!(c.value_of(k), expect.to_vec());
    assert!(c.transitions_idle());
    c.check_ownership_invariant();
    assert_eq!(c.in_flight_ops(), 0);
}

/// On the threaded backend a worker can record a flush's in-flight batch
/// before its message reaches the link, so a demotion can fully drain —
/// and the key relocate away — with that flush still in transit. The
/// home no longer owns the key when the straggler arrives; it must
/// forward the delta to the current owner, not drop it.
#[test]
fn straggler_flush_after_drain_forwards_to_owner() {
    use lapse_proto::messages::ReplicaPushMsg;
    let mut c = cluster(2);
    let k = Key(0); // homed at node 0
    promote(&mut c, NodeId(1), k);
    demote(&mut c, k);
    // Post-drain, n1 localizes k away from the home.
    c.localize_now(NodeId(1), 0, &[k]);
    assert_eq!(c.nodes[0].server.owner_of(k), NodeId(1));
    // The straggler flush (recorded before the drain, delivered after).
    c.inject(
        NodeId(1),
        NodeId(0),
        Msg::ReplicaPush(ReplicaPushMsg {
            node: NodeId(1),
            flush_seq: 99,
            keys: vec![k],
            vals: vec![2.5, 1.5],
        }),
    );
    c.run_until_quiet();
    // The delta reached the key's current owner exactly once.
    assert_eq!(c.value_of(k), vec![2.5, 1.5]);
    assert_eq!(c.in_flight_ops(), 0, "fire-and-forget push leaked");
    c.check_ownership_invariant();
}

#[test]
fn controller_end_to_end_promotes_hot_key() {
    let mut cfg = ProtoConfig::new(2, 8, Layout::Uniform(1));
    cfg.variant = Variant::Adaptive;
    cfg.latches = 4;
    cfg.adaptive.sample_every = 1;
    cfg.adaptive.tick_every = 8;
    cfg.adaptive.promote_count = 4;
    let mut c = TestCluster::new(cfg, 1);
    // Node 1 hammers key 0 (homed at node 0): the sampler fills the
    // sketch, the in-band tick requests promotion, the home promotes.
    for _ in 0..16 {
        c.push_now(NodeId(1), 0, &[Key(0)], &[1.0]);
    }
    c.run_until_quiet();
    assert!(
        c.replicated_on(NodeId(0), Key(0)) && c.replicated_on(NodeId(1), Key(0)),
        "hot key not promoted by the controller"
    );
    // Cold keys stay relocation-managed.
    assert!(!c.replicated_on(NodeId(0), Key(5)));
    // No updates lost across the transition.
    for n in 0..2 {
        c.flush_replicas(NodeId(n));
    }
    c.run_until_quiet();
    assert_eq!(c.value_of(Key(0)), vec![16.0]);
    let reqs: u64 = c.nodes[1].shared.stats().tech_promote_reqs;
    assert!(reqs >= 1, "controller sent no promotion request");
    let samples: u64 = c.nodes[1].shared.stats().sketch_samples;
    assert!(samples >= 16, "sampler fed no accesses");
    c.check_ownership_invariant();
}

#[test]
fn controller_demotes_cooled_key() {
    let mut cfg = ProtoConfig::new(2, 8, Layout::Uniform(1));
    cfg.variant = Variant::Adaptive;
    cfg.latches = 4;
    cfg.adaptive.demote_count = 0;
    let mut c = TestCluster::new(cfg, 1);
    promote(&mut c, NodeId(1), Key(0));
    assert!(c.replicated_on(NodeId(1), Key(0)));
    // No traffic at all: every controller tick votes the key cold.
    c.run_controller(NodeId(0));
    c.run_controller(NodeId(1));
    c.run_until_quiet();
    assert!(
        !c.replicated_on(NodeId(0), Key(0)) && !c.replicated_on(NodeId(1), Key(0)),
        "cooled key not demoted"
    );
    assert!(c.transitions_idle());
    c.check_ownership_invariant();
}
