//! Deterministic tests of the adaptive technique-transition protocol.
//!
//! The sans-io harness delivers messages by hand, so every transition
//! race the protocol must survive — localizes refused mid-promotion,
//! parked operations drained by the promotion broadcast, deltas chasing
//! a demotion, localizes deferred while a demotion drains — is pinned
//! down as a plain unit test.

use lapse_net::{Key, NodeId};
use lapse_proto::client::IssueHandle;
use lapse_proto::messages::{Msg, TechniqueDemoteMsg, TechniquePromoteMsg};
use lapse_proto::testkit::{IssueOp, TestCluster};
use lapse_proto::{Layout, ProtoConfig, Variant};

fn cluster(nodes: u16) -> TestCluster {
    let mut cfg = ProtoConfig::new(nodes, 8, Layout::Uniform(2));
    cfg.variant = Variant::Adaptive;
    cfg.latches = 4;
    TestCluster::new(cfg, 2)
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
    let home = c.cfg.home(key);
    for n in 0..c.cfg.nodes {
        c.inject(
            NodeId(n),
            home,
            Msg::TechniqueDemote(TechniqueDemoteMsg {
                node: NodeId(n),
                keys: vec![key],
            }),
        );
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
        c.inject(
            NodeId(n),
            home,
            Msg::TechniqueDemote(TechniqueDemoteMsg {
                node: NodeId(n),
                keys: vec![k],
            }),
        );
        c.drain_link(NodeId(n), home);
    }
    assert!(!c.replicated_on(home, k));

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
