//! Property-based fuzzing of the snapshot serving plane.
//!
//! Random workers push/pull/localize while promote/demote storms race
//! the traffic (the same adversary as `proptest_adaptive`), and one
//! [`SnapshotReader`] per node reads random keys **between message
//! deliveries** — mid-relocation, mid-promotion, mid-demotion, between
//! the install steps of a replica refresh. The plane must hold:
//!
//! * **never torn**: values use two equal lanes (`Layout::Uniform(2)`,
//!   every push adds `[d, d]`), so any read that observes a
//!   half-applied write or refresh returns unequal lanes — an exact
//!   mismatch;
//! * **never invented**: every observed lane value is a subset-sum of
//!   the pushes issued so far (integer deltas, exact f32 addition), so
//!   a double-applied or fabricated delta is also an exact mismatch;
//! * **epoch-monotonic per reader**: the pinned epoch of consecutive
//!   reads by one reader never decreases, and never runs ahead of the
//!   node's published serving epoch;
//! * **quiescent agreement**: once traffic drains and replica deltas
//!   settle, a snapshot read on the owner node equals the owner value.

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
use lapse_proto::{Layout, ProtoConfig, SnapshotReader, Variant};
use lapse_utils::rng::derive_rng;

const KEYS: u64 = 12;

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
    /// A snapshot read of `key` by `node`'s serving reader.
    Snapshot {
        node: u16,
        key: u64,
    },
    /// A propagation tick on `node` (advances its serving epoch).
    Tick {
        node: u16,
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
            slot,
            proptest::collection::vec(key.clone(), 1..4)
        )
            .prop_map(|(node, slot, keys)| Action::Localize { node, slot, keys }),
        (node.clone(), key.clone()).prop_map(|(node, key)| Action::Promote { node, key }),
        (node.clone(), key.clone()).prop_map(|(node, key)| Action::DemoteVote { node, key }),
        // Snapshot reads carry the properties under test: repeated arms
        // weight them up (the vendored prop_oneof is uniform).
        (node.clone(), key.clone()).prop_map(|(node, key)| Action::Snapshot { node, key }),
        (node.clone(), key.clone()).prop_map(|(node, key)| Action::Snapshot { node, key }),
        (node.clone(), key).prop_map(|(node, key)| Action::Snapshot { node, key }),
        node.prop_map(|node| Action::Tick { node }),
    ]
}

/// One snapshot read with the torn/invented/monotonicity checks applied.
fn checked_read(
    cluster: &TestCluster,
    readers: &mut [SnapshotReader],
    node: u16,
    key: Key,
    issued: &HashMap<Key, f32>,
) {
    let reader = &mut readers[node as usize];
    let before = reader.epoch();
    let mut out = [f32::NAN; 2];
    let read = reader.read(key, &mut out);
    let epoch_now = cluster.nodes[node as usize].shared.serving.epoch();
    if let Some(read) = read {
        assert_eq!(
            out[0], out[1],
            "torn snapshot of {key} on n{node}: lanes {out:?}"
        );
        let total = issued.get(&key).copied().unwrap_or(0.0);
        assert!(
            out[0] >= 0.0 && out[0] <= total,
            "invented value {} for {key} on n{node} (pushed so far: {total})",
            out[0]
        );
        assert!(
            read.epoch >= before,
            "epoch went backwards on n{node}: {} after {before}",
            read.epoch
        );
        assert!(
            read.epoch <= epoch_now,
            "pinned epoch {} ahead of serving epoch {epoch_now} on n{node}",
            read.epoch
        );
        assert_eq!(reader.epoch(), read.epoch, "reader epoch out of sync");
    } else {
        assert_eq!(reader.epoch(), before, "failed read moved the epoch");
    }
}

fn run_storm(nodes: u16, workers: u16, actions: &[Action], seed: u64) {
    let mut cfg = ProtoConfig::new(nodes, KEYS, Layout::Uniform(2));
    cfg.variant = Variant::Adaptive;
    cfg.latches = 8;
    cfg.snapshot_reads = true;
    let mut cluster = TestCluster::new(cfg, workers);
    let mut readers: Vec<SnapshotReader> = (0..nodes)
        .map(|n| SnapshotReader::new(cluster.nodes[n as usize].shared.clone()))
        .collect();
    let mut rng = derive_rng(seed, 57);

    let mut issued: HashMap<Key, f32> = HashMap::new();
    let mut pending: Vec<(u16, u16, IssueHandle, bool)> = Vec::new();

    for action in actions {
        match action {
            Action::Push {
                node,
                slot,
                key,
                delta,
            } => {
                let d = *delta as f32;
                let h = cluster.issue(
                    NodeId(*node),
                    *slot as usize,
                    IssueOp::Push(&[Key(*key)], &[d, d]),
                    None,
                );
                *issued.entry(Key(*key)).or_default() += d;
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
            Action::Snapshot { node, key } => {
                checked_read(&cluster, &mut readers, *node, Key(*key), &issued);
            }
            Action::Tick { node } => {
                cluster.flush_replicas(NodeId(*node));
            }
        }
        // Deliver a random few messages between actions, snapshot-reading
        // after each delivery so reads land in the middle of relocations,
        // promotions, demotions, and refresh installs.
        for _ in 0..rng.gen_range(0..5) {
            let pick = rng.gen_range(0..64usize);
            if !cluster.deliver_random_one(|n| pick % n) {
                break;
            }
            let node = rng.gen_range(0..nodes);
            let key = Key(rng.gen_range(0..KEYS));
            checked_read(&cluster, &mut readers, node, key, &issued);
        }
    }

    // Drain with a random delivery order, then settle replica deltas.
    let mut drain_rng = derive_rng(seed, 63);
    cluster.run_random_schedule(|n| drain_rng.gen_range(0..n));
    for round in 0.. {
        if cluster.replica_deltas_settled() {
            break;
        }
        assert!(round < 8, "replica deltas never settled");
        for n in 0..nodes {
            cluster.flush_replicas(NodeId(n));
        }
        let mut r = derive_rng(seed, 71 + round);
        cluster.run_random_schedule(|n| r.gen_range(0..n));
    }
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
    cluster.check_ownership_invariant();

    // Quiescent agreement: a snapshot read on the owner node returns the
    // owner value (all pushes applied, both lanes equal to the sum).
    for k in 0..KEYS {
        let key = Key(k);
        let owner = (0..nodes)
            .find(|&n| cluster.nodes[n as usize].shared.read_value(key).is_some())
            .expect("every key has an owner at quiescence");
        let reader = &mut readers[owner as usize];
        let mut out = [f32::NAN; 2];
        let read = reader
            .read(key, &mut out)
            .unwrap_or_else(|| panic!("owner snapshot read of {key} failed"));
        let expected = issued.get(&key).copied().unwrap_or(0.0);
        assert_eq!(out, [expected, expected], "quiescent value of {key}");
        assert_eq!(
            read.epoch,
            reader.epoch(),
            "quiescent read epoch out of sync"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    /// Snapshot reads never observe torn or invented values and stay
    /// epoch-monotonic per reader — across random interleavings of
    /// operations, relocations, and promote/demote storms.
    #[test]
    fn snapshot_reads_consistent_under_storms(
        seed in any::<u64>(),
        nodes in 2u16..5,
        actions in proptest::collection::vec(action_strategy(4, KEYS, 2), 1..70),
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
                Action::Snapshot { node, key } =>
                    Action::Snapshot { node: node % nodes, key },
                Action::Tick { node } => Action::Tick { node: node % nodes },
            })
            .collect();
        let r = std::panic::catch_unwind(|| run_storm(nodes, 2, &actions, seed));
        if let Err(e) = r {
            panic!("snapshot storm failed (seed={seed}, nodes={nodes}): {actions:?}\n{e:?}");
        }
    }
}
