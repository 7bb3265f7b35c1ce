//! What an in-order key walk has to get right.
//!
//! Every keyed path handles its keys in the order they arrive, under a
//! latch cursor that holds one shard at a time. These tests run on
//! clusters with **4 latches**, so key lists meet the cases a walk can
//! get wrong and a shard-grouped round could not: a list that comes back
//! to a shard it has left (`A₀ B₁ A₀′`, or the same key twice), a replica
//! round whose per-shard retirement depends on meeting each shard once,
//! a sync pull that mixes a wait-free read with a parked key — and the
//! caller's buffer being checked before the walk starts.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use lapse_net::{Key, NodeId};
use lapse_proto::client::IssueHandle;
use lapse_proto::messages::Msg;
use lapse_proto::shard::AccessStats;
use lapse_proto::testkit::{IssueOp, TestCluster};
use lapse_proto::{Layout, ProtoConfig, Variant};

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);

/// 3 nodes × 12 keys × 4 latches: shards hold keys 0–2, 3–5, 6–8, 9–11;
/// node 0 is home to keys 0–3, so `[0, 3, 1]` is an `A₀ B₁ A₀′` list of
/// one home and `[0, 3, 0]` the same key twice around another shard.
fn cfg() -> ProtoConfig {
    let mut c = ProtoConfig::new(3, 12, Layout::Uniform(2));
    c.latches = 4;
    c
}

fn init(k: Key) -> Option<Vec<f32>> {
    Some(vec![k.0 as f32, 100.0 + k.0 as f32])
}

const REVISITS: [[Key; 3]; 2] = [[Key(0), Key(3), Key(1)], [Key(0), Key(3), Key(0)]];

// ---------------------------------------------------------------------------
// (a) a list that revisits a shard = the same keys issued one op each
// ---------------------------------------------------------------------------

/// One step of a scenario, issued either as one operation over the whole
/// key list or as one operation per key, in list order.
#[derive(Clone, Copy)]
enum Step {
    Pull(NodeId),
    Push(NodeId),
    Localize(NodeId),
    /// Deliver everything and finish what completed.
    Quiesce,
}

/// Keys (and push terms or values) that crossed one link in messages of
/// one kind, by `(src, dst, message label)`, in delivery order.
type Traffic = BTreeMap<(u16, u16, &'static str), (Vec<Key>, Vec<f32>)>;

/// A pending sync pull: its `(step, position in the key list)` and buffer.
type PendingPull = ((usize, usize), Vec<f32>);

/// What a scenario leaves behind that a caller or a peer can observe.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Pulled values, in step order then key-list order.
    pulled: Vec<f32>,
    /// Final value and owner of every key.
    finals: Vec<(Vec<f32>, NodeId)>,
    traffic: Traffic,
    /// Per-node access counters (they count keys, not operations).
    stats: Vec<AccessStats>,
}

fn keys_and_terms(msg: &Msg) -> (&[Key], Vec<f32>) {
    match msg {
        Msg::Op(m) => (&m.keys, m.vals.clone()),
        Msg::OpResp(m) => (&m.keys, m.vals.to_vec()),
        Msg::LocalizeReq(m) => (&m.keys, Vec::new()),
        Msg::Relocate(m) => (&m.keys, Vec::new()),
        Msg::HandOver(m) => (&m.keys, m.vals.to_vec()),
        other => panic!("unexpected {} in a relocation-only scenario", other.label()),
    }
}

/// Delivers link by link, each link until it is empty, until all are:
/// three one-key messages on a link are then handled back to back, as
/// the one message that carries the three keys is.
fn quiesce(c: &mut TestCluster) {
    while c.pending_total() > 0 {
        for src in 0..3 {
            for dst in 0..3 {
                c.drain_link(NodeId(src), NodeId(dst));
            }
        }
    }
}

fn run(steps: &[Step], keys: &[Key], one_op_each: bool) -> Outcome {
    let mut c = TestCluster::recording(cfg(), 1);
    // Distinct values everywhere (every home pushes to its own keys).
    for k in (0..12).map(Key) {
        c.push_now(c.cfg.home(k), 0, &[k], &init(k).expect("init is total"));
    }
    // `(first key's position in the list, keys)` of every operation a
    // step issues.
    let ops: Vec<(usize, &[Key])> = if one_op_each {
        keys.chunks(1).enumerate().collect()
    } else {
        vec![(0, keys)]
    };
    // Pulled values by `(step, position in the list)`.
    let mut pulled: BTreeMap<(usize, usize), Vec<f32>> = BTreeMap::new();
    let mut pending: Vec<(NodeId, u64, Option<PendingPull>)> = Vec::new();
    let mut term = 0.0;
    for (at, &step) in steps.iter().enumerate() {
        for &(pos, list) in &ops {
            let handle = match step {
                Step::Pull(n) => {
                    let mut out = vec![0.0; 2 * list.len()];
                    match c.issue(n, 0, IssueOp::Pull(list), Some(&mut out)) {
                        IssueHandle::Pending(seq) => pending.push((n, seq, Some(((at, pos), out)))),
                        IssueHandle::Ready(_) => drop(pulled.insert((at, pos), out)),
                    }
                    continue;
                }
                Step::Push(n) => {
                    let vals: Vec<f32> = (0..2 * list.len())
                        .map(|_| {
                            term += 1.0;
                            term
                        })
                        .collect();
                    (n, c.issue(n, 0, IssueOp::Push(list, &vals), None))
                }
                Step::Localize(n) => (n, c.issue(n, 0, IssueOp::Localize(list), None)),
                Step::Quiesce => continue,
            };
            if let (n, IssueHandle::Pending(seq)) = handle {
                pending.push((n, seq, None));
            }
        }
        if matches!(step, Step::Quiesce) {
            quiesce(&mut c);
            for (n, seq, pull) in pending.drain(..) {
                let node = &c.nodes[n.idx()];
                assert!(node.shared.tracker.is_done(seq), "operation stranded");
                match pull {
                    Some((at, mut out)) => {
                        node.clients[0].finish_pull(seq, &mut out);
                        pulled.insert(at, out);
                    }
                    None => node.clients[0].finish_ack(seq),
                }
            }
        }
    }
    assert!(pending.is_empty(), "a scenario ends with a Quiesce");
    assert_eq!(c.in_flight_ops(), 0);
    c.check_ownership_invariant();
    let mut traffic = Traffic::new();
    for (src, dst, msg) in &c.recorded().delivered {
        let (keys, terms) = keys_and_terms(msg);
        let entry = traffic.entry((src.0, dst.0, msg.label())).or_default();
        entry.0.extend_from_slice(keys);
        entry.1.extend(terms);
    }
    Outcome {
        pulled: pulled.into_values().flatten().collect(),
        finals: (0..12)
            .map(Key)
            .map(|k| {
                let owner = c.nodes[c.cfg.home(k).idx()].server.owner_of(k);
                (c.value_of(k), owner)
            })
            .collect(),
        traffic,
        stats: c.nodes.iter().map(|n| n.shared.stats()).collect(),
    }
}

fn assert_list_equals_one_op_each(steps: &[Step]) {
    for keys in &REVISITS {
        let list = run(steps, keys, false);
        let each = run(steps, keys, true);
        assert_eq!(list, each, "key list {keys:?}");
    }
}

#[test]
fn local_pull_and_push_of_a_list_that_revisits_a_shard() {
    use Step::*;
    assert_list_equals_one_op_each(&[Push(N0), Pull(N0), Quiesce]);
}

#[test]
fn op_messages_with_a_list_that_revisits_a_shard() {
    use Step::*;
    // Node 1 routes every key to its home, node 0: one `Op` message
    // carries the whole list there, one `OpResp` brings it back.
    assert_list_equals_one_op_each(&[Push(N1), Quiesce, Pull(N1), Quiesce]);
}

#[test]
fn localize_relocate_and_handover_with_a_list_that_revisits_a_shard() {
    use Step::*;
    // Home = old owner (two messages), then three distinct roles (the
    // `Relocate` message carries the list to node 1, the `HandOver` on to
    // node 2), with a pull of the moved values at the end.
    assert_list_equals_one_op_each(&[
        Localize(N1),
        Quiesce,
        Localize(N2),
        Quiesce,
        Pull(N2),
        Quiesce,
    ]);
}

#[test]
fn parked_ops_behind_a_handover_whose_list_revisits_a_shard() {
    use Step::*;
    // The operations park behind the relocation at node 1 — local ones
    // at issue, node 2's after a trip via the home — and the hand-over's
    // drain serves them key by key.
    assert_list_equals_one_op_each(&[
        Localize(N1),
        Push(N1),
        Pull(N1),
        Push(N2),
        Pull(N2),
        Quiesce,
    ]);
    // A localization conflict: node 2 asks for the keys while they are
    // still on their way to node 1, which hands them onward.
    assert_list_equals_one_op_each(&[
        Localize(N1),
        Localize(N2),
        Push(N1),
        Quiesce,
        Pull(N0),
        Quiesce,
    ]);
}

// ---------------------------------------------------------------------------
// (b) replica rounds meet each shard once
// ---------------------------------------------------------------------------

/// 2 nodes × 24 keys × 8 latches, everything replicated: node 0 is home
/// to keys 0..12, which span four shards of three keys each.
fn replication_cfg() -> ProtoConfig {
    let mut c = ProtoConfig::new(2, 24, Layout::Uniform(1));
    c.latches = 8;
    c.variant = Variant::Replication;
    c
}

#[test]
fn a_replica_flush_spanning_four_shards_retires_every_shards_batch() {
    let mut c = TestCluster::new(replication_cfg(), 1);
    let keys = [Key(0), Key(2), Key(4), Key(6), Key(10)]; // shards 0 0 1 2 3
    let terms = [1.0, 2.0, 3.0, 4.0, 5.0];
    // A replica holder's flush (retired by the owner's acknowledging
    // refresh) and the owner's own (retired as its push is applied).
    c.push_now(N1, 0, &keys, &terms);
    c.push_now(N0, 0, &keys, &terms);
    assert!(!c.replica_deltas_settled());
    c.flush_replicas(N1);
    c.flush_replicas(N0);
    c.run_until_quiet();
    assert!(
        c.replica_deltas_settled(),
        "a shard's batch was not retired"
    );
    for (k, t) in keys.iter().zip(terms) {
        assert_eq!(c.value_of(*k), vec![2.0 * t], "owner value of {k}");
        assert_eq!(
            c.replica_view(N1, *k),
            Some(vec![2.0 * t]),
            "replica of {k}"
        );
        assert_eq!(
            c.replica_view(N0, *k),
            Some(vec![2.0 * t]),
            "owner view of {k}"
        );
    }
}

/// The order is asserted where the per-shard retirement relies on it.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "replica round does not ascend")]
fn a_replica_push_whose_keys_do_not_ascend_is_refused() {
    let mut c = TestCluster::new(replication_cfg(), 1);
    c.inject(
        N1,
        N0,
        Msg::ReplicaPush(lapse_proto::messages::ReplicaPushMsg {
            node: N1,
            flush_seq: 1,
            keys: vec![Key(0), Key(6), Key(2)], // shards 0 2 0
            vals: vec![1.0, 1.0, 1.0],
        }),
    );
    c.run_until_quiet();
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "replica round does not ascend")]
fn an_acknowledging_refresh_whose_keys_do_not_ascend_is_refused() {
    let mut c = TestCluster::new(replication_cfg(), 1);
    c.inject(
        N0,
        N1,
        Msg::ReplicaRefresh(lapse_proto::messages::ReplicaRefreshMsg {
            owner: N0,
            round: 1,
            ack: 1,
            keys: vec![Key(6), Key(0)], // shards 2 0
            vals: lapse_net::ValueBlock::from_f32s(&[1.0, 1.0]),
        }),
    );
    c.run_until_quiet();
}

// ---------------------------------------------------------------------------
// (c) a sync pull decides wait-free or latched per key
// ---------------------------------------------------------------------------

#[test]
fn a_sync_pull_mixes_a_wait_free_read_with_a_parked_key() {
    let mut cfg = cfg();
    cfg.wait_free_reads = true;
    // Node 1 owns keys 4–7: key 4 shares shard 1 with key 3, key 6 does not.
    for local in [Key(6), Key(4)] {
        let mut c = TestCluster::with_init(cfg.clone(), 1, init);
        let parked = Key(3); // at node 0; its relocation to node 1 is under way
        let localize = c.issue(N1, 0, IssueOp::Localize(&[parked]), None);
        let generation = |c: &TestCluster| c.nodes[1].shared.shard_for(local).generation();
        let before = generation(&c);
        let mut out = [0.0; 4];
        let pull = c.issue(N1, 0, IssueOp::Pull(&[local, parked]), Some(&mut out));
        let seq = pull.seq().expect("the parked key keeps the pull pending");
        // The local key is there already and read without the latch, in a
        // quiet shard or beside the incoming key alike: the one write
        // section the pull opens is the park's, and only key 4's shard
        // has it.
        assert_eq!(&out[..2], &init(local).expect("total")[..]);
        assert_eq!(generation(&c) - before, u64::from(local == Key(4)));
        let stats = c.nodes[1].shared.stats();
        assert_eq!(
            (stats.pull_local, stats.pull_queued, stats.pull_remote),
            (1, 1, 0)
        );
        // Alone, the local key's pull writes nothing, key 3 incoming or not.
        let before = generation(&c);
        let mut alone = [0.0; 2];
        let handle = c.issue(N1, 0, IssueOp::Pull(&[local]), Some(&mut alone));
        assert!(matches!(handle, IssueHandle::Ready(None)));
        assert_eq!(
            (alone.to_vec(), generation(&c)),
            (init(local).expect("total"), before)
        );
        c.run_until_quiet();
        assert!(c.op_done(N1, &pull) && c.op_done(N1, &localize));
        c.nodes[1].clients[0].finish_pull(seq, &mut out);
        c.nodes[1].clients[0].finish_ack(localize.seq().expect("pending"));
        let expect = [init(local).expect("total"), init(parked).expect("total")].concat();
        assert_eq!(out[..], expect[..], "local key {local}");
        assert_eq!(c.in_flight_ops(), 0);
    }
}

// ---------------------------------------------------------------------------
// the caller's buffer is checked before the walk
// ---------------------------------------------------------------------------

#[test]
fn a_wrong_length_buffer_panics_before_any_key_is_touched() {
    let mut c = TestCluster::with_init(cfg(), 1, init);
    // Local, local, remote (homed at node 1), local again.
    let keys = [Key(0), Key(3), Key(4), Key(1)];
    let mut sink = Vec::new();
    let panic_of = |r: std::thread::Result<IssueHandle>| -> String {
        let payload = r.expect_err("a wrong-length buffer must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("assert_eq! panics with a String")
    };
    // A short and a long push: 8 floats wanted.
    for len in [6usize, 10] {
        let vals = vec![1.0; len];
        let client = &mut c.nodes[0].clients[0];
        let msg = panic_of(catch_unwind(AssertUnwindSafe(|| {
            client.push(&keys, &vals, &mut sink)
        })));
        assert!(
            msg.contains(&format!("{len} floats")) && msg.contains("8 floats"),
            "panic names both lengths: {msg}"
        );
    }
    // A short sync-pull buffer.
    let mut out = vec![-1.0; 6];
    let client = &mut c.nodes[0].clients[0];
    let msg = panic_of(catch_unwind(AssertUnwindSafe(|| {
        client.pull(&keys, Some(&mut out), &mut sink)
    })));
    assert!(
        msg.contains("6 floats") && msg.contains("8 floats"),
        "{msg}"
    );
    assert_eq!(out, vec![-1.0; 6], "nothing was copied out");

    // Nothing happened: no value changed, nothing sent, tracked or guarded.
    for k in keys {
        assert_eq!(c.value_of(k), init(k).expect("total"), "value of {k}");
    }
    assert!(sink.is_empty(), "a message left for the remote key");
    assert_eq!(c.in_flight_ops(), 0);
    assert_eq!(c.nodes[0].clients[0].guarded_keys(), 0);
    // And the client is still good for a well-formed operation.
    c.push_now(N0, 0, &keys, &[1.0; 8]);
    assert_eq!(c.value_of(Key(4)), vec![5.0, 105.0]);
}
