//! Property-based protocol fuzzing.
//!
//! Random workers issue random pushes/pulls/localizes while messages are
//! delivered in random (per-link-FIFO-respecting) orders. At quiescence:
//!
//! * every operation has completed,
//! * every key has exactly one owner and the home tables agree,
//! * no update was lost (final value = sum of all pushes),
//! * per-worker monotonic reads and read-your-writes hold (caches off —
//!   the configuration for which the paper claims sequential consistency
//!   of asynchronous operations, Theorem 2).

use proptest::prelude::*;
use rand::Rng as _;
use std::collections::BTreeMap;

use lapse_net::{Key, NodeId, WorkerId};
use lapse_proto::client::IssueHandle;
use lapse_proto::consistency::{
    check_monotonic_reads, check_no_lost_updates, check_read_your_writes, WorkerLog,
};
use lapse_proto::testkit::{IssueOp, TestCluster};
use lapse_proto::{HotSet, Layout, ProtoConfig, Variant};
use lapse_utils::rng::derive_rng;

/// One scripted action of the fuzz schedule.
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
        (node.clone(), slot.clone(), key.clone()).prop_map(|(node, slot, key)| Action::Pull {
            node,
            slot,
            key
        }),
        (node, slot, proptest::collection::vec(key, 1..4))
            .prop_map(|(node, slot, keys)| Action::Localize { node, slot, keys }),
    ]
}

/// Pending pull bookkeeping: which log slot receives the value.
struct PendingPull {
    node: u16,
    slot: u16,
    key: Key,
    handle: IssueHandle,
    log_slot: usize,
}

/// Runs one fuzz schedule and returns the final values plus logs.
fn run_schedule(
    mut cfg: ProtoConfig,
    workers: u16,
    actions: &[Action],
    seed: u64,
) -> (BTreeMap<Key, f64>, Vec<WorkerLog>) {
    cfg.latches = 8;
    let keys = cfg.keys;
    let nodes = cfg.nodes;
    let mut cluster = TestCluster::new(cfg, workers);
    let mut rng = derive_rng(seed, 17);

    let log_index =
        |node: u16, slot: u16| -> usize { (node as usize) * workers as usize + slot as usize };
    let mut logs: Vec<WorkerLog> = (0..nodes)
        .flat_map(|n| (0..workers).map(move |s| WorkerLog::new(WorkerId::new(NodeId(n), s))))
        .collect();
    let mut pending_pulls: Vec<PendingPull> = Vec::new();
    let mut pending_acks: Vec<(u16, usize, IssueHandle)> = Vec::new();

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
                logs[log_index(*node, *slot)].push(Key(*key), *delta as f64);
                pending_acks.push((*node, *slot as usize, h));
            }
            Action::Pull { node, slot, key } => {
                // Async pull: the value is fetched after completion but
                // logged at this program-order position.
                let h = cluster.issue(
                    NodeId(*node),
                    *slot as usize,
                    IssueOp::Pull(&[Key(*key)]),
                    None,
                );
                let li = log_index(*node, *slot);
                logs[li].pull(Key(*key), f64::NAN); // placeholder
                let log_slot = logs[li].events.len() - 1;
                pending_pulls.push(PendingPull {
                    node: *node,
                    slot: *slot,
                    key: Key(*key),
                    handle: h,
                    log_slot,
                });
            }
            Action::Localize { node, slot, keys } => {
                let keys: Vec<Key> = keys.iter().map(|&k| Key(k)).collect();
                let h = cluster.issue(
                    NodeId(*node),
                    *slot as usize,
                    IssueOp::Localize(&keys),
                    None,
                );
                pending_acks.push((*node, *slot as usize, h));
            }
        }
        // Randomly deliver a few messages between issues, so operations
        // interleave with in-flight relocations in many different ways.
        for _ in 0..rng.gen_range(0..4) {
            let pick = rng.gen_range(0..64usize);
            if !cluster.deliver_random_one(|n| pick % n) {
                break;
            }
        }
        // Occasionally trigger a replica propagation round mid-schedule
        // (a no-op under the relocation-only variants).
        if rng.gen_range(0..8u32) == 0 {
            cluster.flush_replicas(NodeId(rng.gen_range(0..nodes)));
        }
    }

    // Drain with a random delivery order.
    let mut drain_rng = derive_rng(seed, 31);
    cluster.run_random_schedule(|n| drain_rng.gen_range(0..n));

    // Final propagation round: flush every node's accumulated replicated
    // pushes and drain again, so owners hold every update.
    for n in 0..nodes {
        cluster.flush_replicas(NodeId(n));
    }
    let mut final_rng = derive_rng(seed, 47);
    cluster.run_random_schedule(|n| final_rng.gen_range(0..n));

    // Collect pull results into the logs.
    for p in pending_pulls {
        let node = NodeId(p.node);
        assert!(cluster.op_done(node, &p.handle), "pull never completed");
        let v = match p.handle {
            IssueHandle::Pending(seq) => {
                cluster.nodes[node.idx()].clients[p.slot as usize].take_pull(seq)
            }
            IssueHandle::Ready(Some(v)) => v,
            IssueHandle::Ready(None) => unreachable!("async pull always returns values"),
        };
        assert_eq!(v.len(), 1);
        let li = (p.node as usize) * workers as usize + p.slot as usize;
        logs[li].events[p.log_slot] =
            (p.key, lapse_proto::consistency::LogEvent::Pull(v[0] as f64));
    }
    for (node, slot, h) in pending_acks {
        let node = NodeId(node);
        assert!(cluster.op_done(node, &h), "push/localize never completed");
        if let IssueHandle::Pending(seq) = h {
            cluster.nodes[node.idx()].clients[slot].finish_ack(seq);
        }
    }

    cluster.check_ownership_invariant();
    assert_eq!(cluster.in_flight_ops(), 0, "tracker leak");

    // Replication convergence: after the last propagation round, no
    // deltas are pending or in flight anywhere, and every *registered*
    // node's replica view of a replicated key equals the owner's value
    // (reads can never observe anything older than the last round).
    let policy_cfg = cluster.cfg.clone();
    for node in &cluster.nodes {
        let registered = node
            .shared
            .replica
            .registered
            .load(std::sync::atomic::Ordering::Relaxed);
        for k in 0..keys {
            let key = Key(k);
            if !policy_cfg.replicated(key) {
                continue;
            }
            assert!(
                node.shared.shard_for(key).read().store.deltas_settled(),
                "unpropagated replica deltas left on {} at quiescence",
                node.shared.node
            );
            if registered {
                let view = node
                    .shared
                    .read_replica(key)
                    .unwrap_or_else(|| panic!("no replica view of {key} on {}", node.shared.node));
                let owner = cluster.value_of(key);
                assert!(
                    (view[0] - owner[0]).abs() < 1e-3,
                    "replica of {key} on {} is {} but owner has {} after the last round",
                    node.shared.node,
                    view[0],
                    owner[0]
                );
            }
        }
    }

    let mut finals = BTreeMap::new();
    for k in 0..keys {
        let v = cluster.value_of(Key(k));
        finals.insert(Key(k), v[0] as f64);
    }
    (finals, logs)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_schedules_preserve_invariants(
        seed in any::<u64>(),
        nodes in 2u16..5,
        actions in proptest::collection::vec(action_strategy(4, 16, 2), 1..60),
    ) {
        // Clamp node indices into range (the strategy used 4 nodes max).
        let actions: Vec<Action> = actions
            .into_iter()
            .map(|a| match a {
                Action::Push { node, slot, key, delta } =>
                    Action::Push { node: node % nodes, slot, key, delta },
                Action::Pull { node, slot, key } =>
                    Action::Pull { node: node % nodes, slot, key },
                Action::Localize { node, slot, keys } =>
                    Action::Localize { node: node % nodes, slot, keys },
            })
            .collect();

        let cfg = ProtoConfig::new(nodes, 16, Layout::Uniform(1));
        let (finals, logs) = run_schedule(cfg, 2, &actions, seed);

        let lost = check_no_lost_updates(&finals, &logs);
        prop_assert!(lost.is_empty(), "lost updates: {lost:?}");
        let mono = check_monotonic_reads(&logs);
        prop_assert!(mono.is_empty(), "monotonic-read violations: {mono:?}");
        let ryw = check_read_your_writes(&logs);
        prop_assert!(ryw.is_empty(), "read-your-writes violations: {ryw:?}");
    }

    /// With location caches, ordering may degrade (Theorem 3) but updates
    /// must still never be lost, the ownership invariant must hold at
    /// quiescence, and stale caches must heal via double-forwarding.
    #[test]
    fn caches_preserve_eventual_consistency(
        seed in any::<u64>(),
        actions in proptest::collection::vec(action_strategy(4, 16, 2), 1..60),
    ) {
        let mut cfg = ProtoConfig::new(4, 16, Layout::Uniform(1));
        cfg.location_caches = true;
        let (finals, logs) = run_schedule(cfg, 2, &actions, seed);
        let lost = check_no_lost_updates(&finals, &logs);
        prop_assert!(lost.is_empty(), "lost updates with caches: {lost:?}");
    }

    /// NuPS replication convergence, across random relocation/replication
    /// interleavings (hybrid hot prefixes from none to the whole key
    /// space, mid-schedule propagation rounds, random delivery orders):
    ///
    /// * every push reaches the owner exactly once — the final owner
    ///   value is the exact sum of all pushes (`check_no_lost_updates`
    ///   catches both loss and double application),
    /// * replica reads are monotonic per worker (a read never observes a
    ///   value older than one it already saw, i.e. never older than the
    ///   last propagation round it observed) and read-your-writes holds
    ///   through the pending/in-flight overlay,
    /// * after the final round every registered replica equals the owner
    ///   (checked inside `run_schedule`).
    #[test]
    fn replication_and_hybrid_converge(
        seed in any::<u64>(),
        hot in 0u64..=16,
        actions in proptest::collection::vec(action_strategy(4, 16, 2), 1..60),
    ) {
        let mut cfg = ProtoConfig::new(4, 16, Layout::Uniform(1));
        if hot >= 16 {
            cfg.variant = Variant::Replication;
        } else {
            cfg.variant = Variant::Hybrid;
            cfg.hot_set = HotSet::Prefix(hot);
        }
        cfg.replica_flush_every = 3; // auto-flush interleaves with ops
        let (finals, logs) = run_schedule(cfg, 2, &actions, seed);

        let lost = check_no_lost_updates(&finals, &logs);
        prop_assert!(lost.is_empty(), "pushes lost or double-applied: {lost:?}");
        let mono = check_monotonic_reads(&logs);
        prop_assert!(mono.is_empty(), "replica read went backwards: {mono:?}");
        let ryw = check_read_your_writes(&logs);
        prop_assert!(ryw.is_empty(), "own accumulated push invisible: {ryw:?}");
    }

    /// Multi-key operations with larger values and a two-tier layout
    /// conserve every update as well.
    #[test]
    fn two_tier_layout_conserves_updates(
        seed in any::<u64>(),
        pushes in proptest::collection::vec((0u16..3, 0u64..12, 1u32..4), 1..40),
    ) {
        let layout = Layout::TwoTier { split: 6, first: 2, rest: 5 };
        let mut cfg = ProtoConfig::new(3, 12, layout.clone());
        cfg.latches = 8;
        let mut cluster = lapse_proto::testkit::TestCluster::new(cfg, 1);
        let mut expected = [0.0f64; 12];
        let mut rng = derive_rng(seed, 3);
        for (node, key, delta) in pushes {
            let k = Key(key);
            let len = layout.len(k);
            let vals = vec![delta as f32; len];
            cluster.push_now(NodeId(node), 0, &[k], &vals);
            expected[key as usize] += delta as f64 * len as f64;
            if rng.gen::<bool>() {
                cluster.localize_now(NodeId((node + 1) % 3), 0, &[k]);
            }
        }
        cluster.run_until_quiet();
        cluster.check_ownership_invariant();
        for key in 0..12u64 {
            let v = cluster.value_of(Key(key));
            let sum: f64 = v.iter().map(|&x| x as f64).sum();
            prop_assert!((sum - expected[key as usize]).abs() < 1e-3,
                "key {key}: {sum} vs {}", expected[key as usize]);
        }
    }
}
