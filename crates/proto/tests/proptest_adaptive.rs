//! Property-based fuzzing of the adaptive technique-transition protocol.
//!
//! Random workers issue pushes/pulls/localizes while **promote/demote
//! storms** — injected transition requests standing in for arbitrarily
//! aggressive controllers — race the traffic, and messages are delivered
//! in random (per-link-FIFO-respecting) orders. At quiescence:
//!
//! * every operation has completed,
//! * the owner's final value of every key equals the **exact sum of all
//!   pushes** (integer-valued terms, so f32 addition is exact: any lost,
//!   double-applied, or misrouted update is an exact mismatch),
//! * every key has exactly one owner, home tables agree, and replicated
//!   keys are owned at home,
//! * the dynamic technique tables agree across nodes,
//! * no replica delta is left pending or in flight, and every replica
//!   view equals the owner's value,
//! * the transition machinery is idle (no stuck promotion, drain, or
//!   deferred localize).

#![allow(
    clippy::disallowed_types,
    reason = "a test file: the determinism bans guard the crate's protocol paths, not the tests that drive them"
)]

use proptest::prelude::*;
use rand::Rng as _;
use std::collections::HashMap;

use lapse_net::{Key, NodeId};
use lapse_proto::client::IssueHandle;
use lapse_proto::messages::{Msg, TechniqueDemoteMsg, TechniquePromoteMsg};
use lapse_proto::testkit::{IssueOp, TestCluster};
use lapse_proto::{Layout, ProtoConfig, Variant};
use lapse_utils::rng::derive_rng;

#[derive(Debug, Clone)]
enum Action {
    Push {
        node: u16,
        slot: u16,
        key: u64,
        delta: u32,
    },
    Pull {
        node: u16,
        slot: u16,
        key: u64,
    },
    Localize {
        node: u16,
        slot: u16,
        keys: Vec<u64>,
    },
    /// A node's controller requests promotion of a key.
    Promote {
        node: u16,
        key: u64,
    },
    /// One node votes to demote a key.
    DemoteVote {
        node: u16,
        key: u64,
    },
    /// Every node votes to demote a key (a completed cold consensus).
    DemoteStorm {
        key: u64,
    },
}

fn action_strategy(nodes: u16, keys: u64, workers: u16) -> impl Strategy<Value = Action> {
    let node = 0..nodes;
    let slot = 0..workers;
    let key = 0..keys;
    prop_oneof![
        (node.clone(), slot.clone(), key.clone(), 1u32..5).prop_map(|(node, slot, key, delta)| {
            Action::Push {
                node,
                slot,
                key,
                delta,
            }
        }),
        (node.clone(), slot.clone(), key.clone(), 1u32..5).prop_map(|(node, slot, key, delta)| {
            Action::Push {
                node,
                slot,
                key,
                delta,
            }
        }),
        (node.clone(), slot.clone(), key.clone()).prop_map(|(node, slot, key)| Action::Pull {
            node,
            slot,
            key
        }),
        (
            node.clone(),
            slot.clone(),
            proptest::collection::vec(key.clone(), 1..4)
        )
            .prop_map(|(node, slot, keys)| Action::Localize { node, slot, keys }),
        (node.clone(), key.clone()).prop_map(|(node, key)| Action::Promote { node, key }),
        (node, key.clone()).prop_map(|(node, key)| Action::DemoteVote { node, key }),
        key.prop_map(|key| Action::DemoteStorm { key }),
    ]
}

fn run_storm(nodes: u16, workers: u16, actions: &[Action], seed: u64) -> HashMap<Key, f32> {
    let keys = 12u64;
    let mut cfg = ProtoConfig::new(nodes, keys, Layout::Uniform(1));
    cfg.variant = Variant::Adaptive;
    cfg.latches = 8;
    let mut cluster = TestCluster::new(cfg, workers);
    let mut rng = derive_rng(seed, 23);

    let mut expected: HashMap<Key, f32> = HashMap::new();
    let mut pending: Vec<(u16, u16, IssueHandle, bool)> = Vec::new();

    for action in actions {
        match action {
            Action::Push {
                node,
                slot,
                key,
                delta,
            } => {
                let h = cluster.issue(
                    NodeId(*node),
                    *slot as usize,
                    IssueOp::Push(&[Key(*key)], &[*delta as f32]),
                    None,
                );
                *expected.entry(Key(*key)).or_default() += *delta as f32;
                pending.push((*node, *slot, h, false));
            }
            Action::Pull { node, slot, key } => {
                let h = cluster.issue(
                    NodeId(*node),
                    *slot as usize,
                    IssueOp::Pull(&[Key(*key)]),
                    None,
                );
                pending.push((*node, *slot, h, true));
            }
            Action::Localize { node, slot, keys } => {
                let keys: Vec<Key> = keys.iter().map(|&k| Key(k)).collect();
                let h = cluster.issue(
                    NodeId(*node),
                    *slot as usize,
                    IssueOp::Localize(&keys),
                    None,
                );
                pending.push((*node, *slot, h, false));
            }
            Action::Promote { node, key } => {
                let home = cluster.cfg.home(Key(*key));
                cluster.inject(
                    NodeId(*node),
                    home,
                    Msg::TechniquePromote(TechniquePromoteMsg {
                        node: NodeId(*node),
                        keys: vec![Key(*key)],
                    }),
                );
            }
            Action::DemoteVote { node, key } => {
                let home = cluster.cfg.home(Key(*key));
                cluster.inject(
                    NodeId(*node),
                    home,
                    Msg::TechniqueDemote(TechniqueDemoteMsg {
                        node: NodeId(*node),
                        keys: vec![Key(*key)],
                    }),
                );
            }
            Action::DemoteStorm { key } => {
                let home = cluster.cfg.home(Key(*key));
                for n in 0..nodes {
                    cluster.inject(
                        NodeId(n),
                        home,
                        Msg::TechniqueDemote(TechniqueDemoteMsg {
                            node: NodeId(n),
                            keys: vec![Key(*key)],
                        }),
                    );
                }
            }
        }
        // Deliver a random few messages between issues so operations
        // interleave with in-flight transitions in many different ways.
        for _ in 0..rng.gen_range(0..5) {
            let pick = rng.gen_range(0..64usize);
            if !cluster.deliver_random_one(|n| pick % n) {
                break;
            }
        }
        if rng.gen_range(0..8u32) == 0 {
            cluster.flush_replicas(NodeId(rng.gen_range(0..nodes)));
        }
    }

    // Drain with a random delivery order.
    let mut drain_rng = derive_rng(seed, 31);
    cluster.run_random_schedule(|n| drain_rng.gen_range(0..n));

    // Propagation rounds until no replica delta is pending or in flight
    // anywhere (a round's refresh retires the previous round's batches).
    for round in 0.. {
        if cluster.replica_deltas_settled() {
            break;
        }
        assert!(round < 8, "replica deltas never settled");
        for n in 0..nodes {
            cluster.flush_replicas(NodeId(n));
        }
        let mut r = derive_rng(seed, 47 + round);
        cluster.run_random_schedule(|n| r.gen_range(0..n));
    }

    // Every operation completed.
    for (node, slot, h, is_pull) in pending {
        let node = NodeId(node);
        assert!(cluster.op_done(node, &h), "operation never completed");
        if let IssueHandle::Pending(seq) = h {
            if is_pull {
                let _ = cluster.nodes[node.idx()].clients[slot as usize].take_pull(seq);
            } else {
                cluster.nodes[node.idx()].clients[slot as usize].finish_ack(seq);
            }
        }
    }
    assert_eq!(cluster.in_flight_ops(), 0, "tracker leak");
    assert!(cluster.transitions_idle(), "transition machinery stuck");
    cluster.check_ownership_invariant();

    // Technique tables agree across nodes; replicated keys are owned at
    // home; replica views equal the owner's value.
    for k in 0..keys {
        let key = Key(k);
        let on0 = cluster.replicated_on(NodeId(0), key);
        for n in 1..nodes {
            assert_eq!(
                cluster.replicated_on(NodeId(n), key),
                on0,
                "technique tables disagree for {key}"
            );
        }
        if on0 {
            let home = cluster.cfg.home(key);
            assert_eq!(
                cluster.nodes[home.idx()].server.owner_of(key),
                home,
                "replicated {key} not owned at home"
            );
            let owner_val = cluster.value_of(key);
            for n in 0..nodes {
                let registered = cluster.nodes[n as usize]
                    .shared
                    .replica
                    .registered
                    .load(std::sync::atomic::Ordering::Relaxed);
                if !registered {
                    continue;
                }
                let view = cluster
                    .replica_view(NodeId(n), key)
                    .unwrap_or_else(|| panic!("no replica view of {key} on n{n}"));
                assert_eq!(view, owner_val, "stale replica of {key} on n{n}");
            }
        }
    }

    let mut finals = HashMap::new();
    for k in 0..keys {
        finals.insert(Key(k), cluster.value_of(Key(k))[0]);
    }
    for (key, sum) in &expected {
        assert_eq!(
            finals[key], *sum,
            "owner value of {key} diverged from the push sum"
        );
    }
    finals
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// No update is ever lost or double-applied, no operation ever
    /// stranded, no transition ever stuck — across random interleavings
    /// of operations, relocations, and promote/demote storms.
    #[test]
    fn transition_storms_preserve_push_sums(
        seed in any::<u64>(),
        nodes in 2u16..5,
        actions in proptest::collection::vec(action_strategy(4, 12, 2), 1..70),
    ) {
        let actions: Vec<Action> = actions
            .into_iter()
            .map(|a| match a {
                Action::Push { node, slot, key, delta } =>
                    Action::Push { node: node % nodes, slot, key, delta },
                Action::Pull { node, slot, key } =>
                    Action::Pull { node: node % nodes, slot, key },
                Action::Localize { node, slot, keys } =>
                    Action::Localize { node: node % nodes, slot, keys },
                Action::Promote { node, key } =>
                    Action::Promote { node: node % nodes, key },
                Action::DemoteVote { node, key } =>
                    Action::DemoteVote { node: node % nodes, key },
                Action::DemoteStorm { key } => Action::DemoteStorm { key },
            })
            .collect();
        let r = std::panic::catch_unwind(|| run_storm(nodes, 2, &actions, seed));
        if let Err(e) = r {
            panic!("storm failed (seed={seed}, nodes={nodes}): {actions:?}\n{e:?}");
        }
    }
}
