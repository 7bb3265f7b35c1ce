//! Torn-read safety for the seqlock read fast path (DESIGN.md §7).
//!
//! The optimistic path reads shard memory without the latch and relies on
//! sequence validation to reject torn observations. These tests pin the
//! two halves of that contract: (1) under real concurrent writers, a
//! validated snapshot is never torn; (2) when the fast path cannot
//! validate (a write guard is live), it reports failure within its retry
//! bound and the client falls back to the latched route, which blocks
//! until the writer commits and then serves the committed value.
//!
//! `localize`'s probe ([`NodeShared::probe_local`]) reads the key's
//! residency byte under the same protocol and is held to the same
//! contract: a validated answer is one of a committed state, never the
//! middle of a writer's critical section, and a probe that cannot
//! validate answers from under the latch.
//!
//! A replica is the same slot in another residency, so the same two
//! halves are pinned for it: against a server installing refreshes
//! (Hybrid), and against one promoting and demoting the key (Adaptive).

#![allow(
    clippy::disallowed_methods,
    reason = "a test file: the determinism bans guard the crate's protocol paths, not the tests that drive them"
)]

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use lapse_net::{Key, NodeId, ValueBlock};
use lapse_proto::client::{ClientCore, IssueHandle};
use lapse_proto::messages::{
    Msg, ReplicaRefreshMsg, TechniqueDemoteAckMsg, TechniquePromoteAckMsg,
};
use lapse_proto::server::ServerCore;
use lapse_proto::shard::{NodeShared, OptRead};
use lapse_proto::testkit::{IssueOp, TestCluster};
use lapse_proto::{
    HotSet, Layout, ProtoConfig, SnapshotRead, SnapshotReader, SnapshotTier, Variant,
};

const DIM: usize = 64;
const KEYS: u64 = 8;

fn cfg() -> ProtoConfig {
    let mut c = ProtoConfig::new(1, KEYS, Layout::Uniform(DIM as u32));
    c.variant = Variant::Lapse;
    c.wait_free_reads = true;
    c
}

/// A single latched node with every value initialized to `fill`.
fn node(fill: f32) -> Arc<NodeShared> {
    NodeShared::with_init(Arc::new(cfg()), NodeId(0), Arc::new(|| 0), &mut |_| {
        Some(vec![fill; DIM])
    })
}

#[test]
fn optimistic_read_serves_owned_keys() {
    let shared = node(7.0);
    let mut buf = vec![0.0f32; DIM];
    assert_eq!(
        shared.try_optimistic_read(Key(3), false, &mut buf),
        Some(OptRead::Owned)
    );
    assert_eq!(buf, vec![7.0; DIM]);
    // Forced operations (ordered-async guard hits) must take the latched
    // path: ordering is resolved under the latch.
    assert_eq!(shared.try_optimistic_read(Key(3), true, &mut buf), None);
}

#[test]
fn bounded_retries_give_up_while_a_write_guard_is_live() {
    let shared = node(1.0);
    let mut buf = vec![0.0f32; DIM];
    let cell = shared.shard_for(Key(0));
    // Live writer: sequence is odd for the guard's whole lifetime, so
    // the optimistic read must exhaust its retries and return None
    // (never spin unboundedly, never return unvalidated data).
    let guard = cell.write();
    assert_eq!(shared.try_optimistic_read(Key(0), false, &mut buf), None);
    drop(guard);
    assert_eq!(
        shared.try_optimistic_read(Key(0), false, &mut buf),
        Some(OptRead::Owned)
    );
}

#[test]
fn pull_falls_back_to_latched_path_under_a_writer() {
    let c = TestCluster::with_init(cfg(), 1, |_| Some(vec![5.0; DIM]));
    let mut c = c;
    let shared = c.nodes[0].shared.clone();
    let (tx, rx) = mpsc::channel();
    let writer = std::thread::spawn(move || {
        let mut g = shared.shard_for(Key(2)).write();
        tx.send(()).unwrap();
        // Hold the guard long enough that the puller's optimistic
        // attempt definitely runs against an odd sequence.
        std::thread::sleep(Duration::from_millis(50));
        g.store.add(Key(2), &[4.0; DIM]);
    });
    rx.recv().unwrap();
    let mut out = vec![0.0f32; DIM];
    let mut sink = Vec::new();
    // Optimistic read fails (writer live) -> latched route blocks on the
    // latch until the guard drops -> serves the *committed* value.
    let h = c.nodes[0].clients[0].pull(&[Key(2)], Some(&mut out), &mut sink);
    writer.join().unwrap();
    assert!(matches!(h, IssueHandle::Ready(None)));
    assert!(sink.is_empty(), "single-node local pull sent messages");
    assert_eq!(out, vec![9.0; DIM]);
}

/// Two writers against one reader on values of `len` floats. Every
/// committed write adds the same constant to all elements of a key, so
/// any *consistent* snapshot has all elements equal — a torn one mixes
/// generations — and a key's value never goes back.
fn hunt_torn_snapshots(len: usize, reads: u64) {
    let mut c = ProtoConfig::new(1, KEYS, Layout::Uniform(len as u32));
    c.wait_free_reads = true;
    let shared = NodeShared::new(Arc::new(c), NodeId(0), Arc::new(|| 0));
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let shared = shared.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let delta = vec![1.0f32 + w as f32; len];
                let mut i = w as u64;
                while !stop.load(Relaxed) {
                    let k = Key(i % KEYS);
                    shared.shard_for(k).write().store.add(k, &delta);
                    i += 1;
                }
            })
        })
        .collect();
    let mut buf = vec![0.0f32; len];
    let (mut validated, mut last) = (0u64, [0.0f32; KEYS as usize]);
    for i in 0..reads {
        let k = Key(i % KEYS);
        if shared.try_optimistic_read(k, false, &mut buf) == Some(OptRead::Owned) {
            validated += 1;
            let first = buf[0];
            assert!(
                buf.iter().all(|&x| x == first),
                "len {len}: torn snapshot for {k}: {buf:?}"
            );
            assert!(
                first >= last[k.idx()],
                "len {len}: {k} went back to {first} from {last:?}"
            );
            last[k.idx()] = first;
        }
    }
    stop.store(true, Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    // The fast path must actually have served reads (nothing on this
    // node sends it to the latch: no replica deltas).
    assert!(validated > 0, "len {len}: optimistic path never validated");
}

#[test]
fn concurrent_writers_never_yield_torn_snapshots() {
    hunt_torn_snapshots(DIM, 200_000);
}

/// The copy moves a slot in chunks wider than the writer's stores, plus
/// a float-wise tail: no chunk count and no tail length lets a validated
/// read mix two generations.
#[test]
fn no_value_length_yields_a_snapshot_of_two_generations() {
    for len in [1, 3, 5, 17, 128] {
        hunt_torn_snapshots(len, 100_000);
    }
}

/// `localize`'s probe of `key`, at the shard index `localize` computes.
fn probe(shared: &NodeShared, key: Key) -> bool {
    shared.probe_local(shared.shard_index(key), key)
}

#[test]
fn probe_answers_from_the_owned_flag_and_waits_out_a_writer() {
    let shared = node(1.0);
    assert!(probe(&shared, Key(5)));
    let slot = shared.shard_for(Key(5)).write().store.take(Key(5)).unwrap();
    assert!(!probe(&shared, Key(5)), "taken key still probed local");
    {
        let mut g = shared.shard_for(Key(5)).write();
        g.store.release(slot);
        g.store.insert_with(Key(5), |dst| dst.fill(2.0));
    }
    assert!(probe(&shared, Key(5)));

    // A live writer: the optimistic probe cannot validate, so the probe
    // takes the latch, blocks until the guard drops, and answers for the
    // committed state (the key gone) — not for the state it raced with.
    let (tx, rx) = mpsc::channel();
    let writer = {
        let shared = shared.clone();
        std::thread::spawn(move || {
            let mut g = shared.shard_for(Key(5)).write();
            tx.send(()).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            let slot = g.store.take(Key(5)).unwrap();
            g.store.release(slot);
        })
    };
    rx.recv().unwrap();
    assert!(!probe(&shared, Key(5)));
    writer.join().unwrap();
}

#[test]
fn probe_never_reports_the_inside_of_a_critical_section() {
    let shared = node(0.0);
    let stop = Arc::new(AtomicBool::new(false));
    // The writer takes key 3 out and puts it back within one critical
    // section, over and over: the key is owned in every committed state,
    // and unowned only while the sequence number is odd.
    let writer = {
        let (shared, stop) = (shared.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(Relaxed) {
                let mut g = shared.shard_for(Key(3)).write();
                let slot = g.store.take(Key(3)).unwrap();
                g.store.release(slot);
                g.store.insert_with(Key(3), |dst| dst.fill(1.0));
            }
        })
    };
    for i in 0..200_000u64 {
        assert!(
            probe(&shared, Key(3)),
            "probe {i} saw the key gone: an unvalidated read of the flag"
        );
    }
    stop.store(true, Relaxed);
    writer.join().unwrap();
}

/// Node 1 of a two-node cluster of `variant` (every key hot), zero
/// valued: keys `0..KEYS / 2` are homed at node 0, so whatever node 1
/// holds of them is a replica.
fn non_home_node(variant: Variant) -> Arc<NodeShared> {
    let mut c = cfg();
    c.nodes = 2;
    c.variant = variant;
    c.hot_set = HotSet::Prefix(KEYS);
    NodeShared::new(Arc::new(c), NodeId(1), Arc::new(|| 0))
}

/// Runs `server_step(round)` for rounds 1, 2, … on a thread of its own
/// while `read(i)` is called for i = 0, 1, … — `reads` times, and then
/// until one call has returned true (the read was served): in the release
/// profile `reads` reads can be over before the server thread has run, and
/// a test that met no served read has checked nothing.
fn race(
    shared: &Arc<NodeShared>,
    reads: u64,
    mut server_step: impl FnMut(&mut ServerCore, u64) + Send + 'static,
    mut read: impl FnMut(u64) -> bool,
) {
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let (shared, stop) = (shared.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut server = ServerCore::new(shared);
            let mut round = 0;
            while !stop.load(Relaxed) {
                round += 1;
                server_step(&mut server, round);
            }
        })
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    let (mut i, mut served) = (0, false);
    while i < reads || !served {
        served |= read(i);
        i += 1;
        assert!(
            served || i % 1024 != 0 || Instant::now() < deadline,
            "no read was served in {i}"
        );
    }
    stop.store(true, Relaxed);
    server.join().unwrap();
}

#[test]
fn a_hybrid_non_home_reader_never_sees_a_torn_refresh() {
    let shared = non_home_node(Variant::Hybrid);
    let keys: Vec<Key> = (0..KEYS / 2).map(Key).collect();
    let mut buf = vec![0.0f32; DIM];
    let mut last = vec![0.0f32; keys.len()];
    // Round r refreshes every key to r in all elements: a consistent
    // snapshot has all elements equal, and never goes back a round.
    let refresh = {
        let keys = keys.clone();
        move |server: &mut ServerCore, round: u64| {
            let refresh = ReplicaRefreshMsg {
                owner: NodeId(0),
                round,
                ack: 0,
                keys: keys.clone(),
                vals: ValueBlock::from_f32s(&vec![round as f32; keys.len() * DIM]),
            };
            server.handle(Msg::ReplicaRefresh(refresh), &mut Vec::new());
        }
    };
    race(&shared, 200_000, refresh, |i| {
        let k = keys[i as usize % keys.len()];
        match shared.try_optimistic_read(k, false, &mut buf) {
            Some(OptRead::Replica) => {
                let first = buf[0];
                assert!(
                    buf.iter().all(|&x| x == first),
                    "torn replica of {k}: {buf:?}"
                );
                assert!(
                    first >= last[k.idx()],
                    "{k} went back: {first} after {last:?}"
                );
                last[k.idx()] = first;
                true
            }
            None => false,
            other => panic!("{k} is replicated here, read as {other:?}"),
        }
    });
}

/// A promote broadcast of `k` with value `round` in all elements, and
/// the demote broadcast after it: epochs `2 round - 1` and `2 round`.
fn promote_and_demote(k: Key, round: u64) -> [Msg; 2] {
    let promote = TechniquePromoteAckMsg {
        home: NodeId(0),
        epoch: 2 * round - 1,
        keys: vec![k],
        vals: ValueBlock::from_f32s(&[round as f32; DIM]),
    };
    let demote = TechniqueDemoteAckMsg {
        home: NodeId(0),
        epoch: 2 * round,
        keys: vec![k],
    };
    [
        Msg::TechniquePromoteAck(promote),
        Msg::TechniqueDemoteAck(demote),
    ]
}

#[test]
fn an_adaptive_reader_sees_what_the_home_sent_or_nothing_across_promote_and_demote() {
    // A promoted key is one byte of its shard, not a state of the shard:
    // the owned keys beside it stay wait-free.
    let mut one_shard = cfg();
    (one_shard.nodes, one_shard.variant, one_shard.latches) = (2, Variant::Adaptive, 1);
    let shared = NodeShared::new(Arc::new(one_shard), NodeId(1), Arc::new(|| 0));
    let [promote, _] = promote_and_demote(Key(1), 1);
    ServerCore::new(shared.clone()).handle(promote, &mut Vec::new());
    let mut buf = vec![0.0f32; DIM];
    let owned = shared.try_optimistic_read(Key(5), false, &mut buf);
    assert_eq!(owned, Some(OptRead::Owned), "an owned key beside a replica");
    let replica = shared.try_optimistic_read(Key(1), false, &mut buf);
    assert_eq!((replica, buf[0]), (Some(OptRead::Replica), 1.0));

    let shared = non_home_node(Variant::Adaptive);
    let k = Key(1);
    // Round r promotes the key with value r in all elements, then demotes
    // it: the slot goes Absent → Replica(r) → Absent (zeroed), over and over.
    let promote_demote = move |server: &mut ServerCore, round: u64| {
        for msg in promote_and_demote(k, round) {
            server.handle(msg, &mut Vec::new());
        }
    };
    let mut reader = SnapshotReader::new(shared.clone());
    let (mut last, mut wait_free_reads, mut wait_free_replicas) = (0.0f32, 0u64, 0u64);
    // A replica, however read, is a value the home sent: never torn, never
    // the zeroed or half-filled slot, never older than one read before.
    let mut check = |buf: &[f32]| {
        let first = buf[0];
        assert!(buf.iter().all(|&x| x == first), "torn replica: {buf:?}");
        assert!(
            first >= 1.0 && first >= last,
            "{first} after {last}: not a value sent"
        );
        last = first;
    };
    race(&shared, 200_000, promote_demote, |_| {
        // Absent, validated or latched, is `None`. The transitions flip the
        // key's byte under the write latch, so a validated read sees one
        // side of them: the reader serves replicas wait-free.
        if let Some(read) = reader.read(k, &mut buf) {
            wait_free_reads += u64::from(read.tier == SnapshotTier::Replica);
            check(&buf);
        }
        match shared.try_optimistic_read(k, false, &mut buf) {
            Some(OptRead::Replica) => {
                wait_free_replicas += 1;
                check(&buf);
            }
            None | Some(OptRead::Absent) => {}
            Some(OptRead::Owned) => panic!("{k} is homed elsewhere, read as owned"),
        }
        wait_free_reads > 0 && wait_free_replicas > 0
    });
}

/// A key's deltas are its own, not its shard's: beside a pushed replica, the
/// other replica of the shard is still read wait-free, and the pushed one
/// goes to the latch only until the owner has acknowledged its flush.
#[test]
fn only_the_replica_with_deltas_leaves_the_wait_free_path() {
    let mut c = cfg();
    (c.nodes, c.variant, c.hot_set, c.latches) = (2, Variant::Hybrid, HotSet::Prefix(2), 1);
    let (mut cluster, node, pushed, other) = (TestCluster::new(c, 1), NodeId(1), Key(0), Key(1));
    let shared = cluster.nodes[1].shared.clone();
    let cell = shared.shard_for(pushed);
    assert!(std::ptr::eq(cell, shared.shard_for(other)), "one shard");
    cluster.issue(node, 0, IssueOp::Push(&[pushed], &[1.0; DIM]), None);
    let mut buf = vec![0.0f32; DIM];
    let read = |key: Key, buf: &mut [f32]| shared.try_optimistic_read(key, false, buf);
    for stage in ["pending", "in flight"] {
        let generation = cell.generation();
        assert_eq!(read(other, &mut buf), Some(OptRead::Replica), "{stage}");
        assert_eq!(cell.generation(), generation, "{stage}: the read wrote");
        assert_eq!(read(pushed, &mut buf), None, "{stage}");
        cluster.flush_replicas(node);
    }
    cluster.run_until_quiet();
    assert_eq!(
        read(pushed, &mut buf),
        Some(OptRead::Replica),
        "acknowledged"
    );
    assert_eq!(buf, vec![1.0; DIM]);
}

/// A replica nobody refreshes is served wait-free however many ticks the
/// node's serving epoch has run past its last refresh: the seqlock copy is
/// the view the latch would serve, so waiting on a tick count changes no
/// value.
#[test]
fn a_replica_unrefreshed_for_65_ticks_is_still_read_wait_free() {
    let shared = non_home_node(Variant::Hybrid);
    let k = Key(1);
    let refresh = ReplicaRefreshMsg {
        owner: NodeId(0),
        round: 1,
        ack: 0,
        keys: vec![k],
        vals: ValueBlock::from_f32s(&[3.0; DIM]),
    };
    ServerCore::new(shared.clone()).handle(Msg::ReplicaRefresh(refresh), &mut Vec::new());
    let client = ClientCore::new(shared.clone(), 0);
    let mut sink = Vec::new();
    for _ in 0..65 {
        client.flush_replicas(&mut sink);
    }
    assert!(
        sink.is_empty(),
        "a flush with nothing pending sent {sink:?}"
    );
    let mut buf = vec![0.0f32; DIM];
    let read = SnapshotReader::new(shared.clone()).read(k, &mut buf);
    let want = SnapshotRead {
        epoch: 65,
        tier: SnapshotTier::Replica,
    };
    assert_eq!(read, Some(want));
    assert_eq!(Some(buf), shared.read_replica(k));
}

/// The panic message of `f`, which must panic.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .expect_err("the call was accepted");
    *payload.downcast::<String>().expect("a formatted panic")
}

/// A buffer longer or shorter than the value is refused by name — key,
/// its length, the value's — before a float of it is written, whether the
/// call would have been served wait-free or under the latch.
#[test]
fn wrong_length_buffers_are_refused_untouched_on_either_path() {
    for wait_free in [true, false] {
        let mut c = cfg();
        c.wait_free_reads = wait_free;
        let cluster = TestCluster::with_init(c, 1, |_| Some(vec![5.0; DIM]));
        let node = &cluster.nodes[0];
        let mut reader = SnapshotReader::new(node.shared.clone());
        for len in [DIM + 1, DIM - 1, 0] {
            let want = format!("read of k3 into a buffer of {len} floats: its value has {DIM}");
            let mut out = vec![-1.0f32; len];
            let msg = panic_message(|| {
                node.clients[0].pull_if_local(Key(3), &mut out);
            });
            assert_eq!(msg, want, "pull_if_local, wait_free {wait_free}");
            assert_eq!(out, vec![-1.0; len]);
            let msg = panic_message(|| {
                reader.read(Key(3), &mut out);
            });
            assert_eq!(msg, want, "SnapshotReader::read, wait_free {wait_free}");
            assert_eq!(out, vec![-1.0; len]);
        }
        // The right length is served, by the path the config names.
        let mut out = vec![0.0f32; DIM];
        assert!(node.clients[0].pull_if_local(Key(3), &mut out));
        assert_eq!(out, vec![5.0; DIM]);
        let tier = reader.read(Key(3), &mut out).unwrap().tier;
        let want = if wait_free {
            SnapshotTier::Owned
        } else {
            SnapshotTier::Latched
        };
        assert_eq!(tier, want);
    }
}

/// A key outside the key space is refused by name on either path: in a
/// ragged last shard (10 keys over 3 latches: the key indexes the last
/// shard) and past the last shard (64 keys over 16: it indexes none).
#[test]
fn keys_outside_the_key_space_are_refused_on_either_path() {
    for (keys, latches) in [(10, 3), (64, 16)] {
        for wait_free in [true, false] {
            let mut c = ProtoConfig::new(1, keys, Layout::Uniform(DIM as u32));
            (c.latches, c.wait_free_reads) = (latches, wait_free);
            let cluster = TestCluster::new(c, 1);
            let node = &cluster.nodes[0];
            let mut reader = SnapshotReader::new(node.shared.clone());
            let at = format!("{keys} keys over {latches} latches, wait_free {wait_free}");
            let want = format!("read of k{keys}: the key space has {keys} keys");
            let mut out = vec![-1.0f32; DIM];
            let msg = panic_message(|| {
                node.clients[0].pull_if_local(Key(keys), &mut out);
            });
            assert_eq!(msg, want, "pull_if_local, {at}");
            let msg = panic_message(|| {
                reader.read(Key(keys), &mut out);
            });
            assert_eq!(msg, want, "SnapshotReader::read, {at}");
            assert_eq!(out, vec![-1.0; DIM], "{at}");
        }
    }
}

/// An operation naming a key outside the key space is refused by name
/// before any of its keys is touched, the keys in front of it included:
/// in a ragged last shard (10 keys over 3 latches) and past the last
/// shard (64 keys over 16).
#[test]
fn an_operation_with_a_key_outside_the_key_space_touches_no_key() {
    for (keys, latches) in [(10, 3), (64, 16)] {
        let mut c = ProtoConfig::new(1, keys, Layout::Uniform(DIM as u32));
        c.latches = latches;
        let mut cluster = TestCluster::new(c, 1);
        let at = format!("{keys} keys over {latches} latches");
        let want = |op: &str| format!("{op} of k{keys}: the key space has {keys} keys");
        let ks = [Key(0), Key(1), Key(keys)];
        let vals = vec![1.0f32; ks.len() * DIM];
        let mut out = vec![0.0f32; ks.len() * DIM];
        let msg = panic_message(|| {
            cluster.issue(NodeId(0), 0, IssueOp::Pull(&ks), Some(&mut out));
        });
        assert_eq!(msg, want("pull"), "{at}");
        let msg = panic_message(|| {
            cluster.issue(NodeId(0), 0, IssueOp::Push(&ks, &vals), None);
        });
        assert_eq!(msg, want("push"), "{at}");
        let msg = panic_message(|| {
            cluster.issue(NodeId(0), 0, IssueOp::Localize(&ks), None);
        });
        assert_eq!(msg, want("localize"), "{at}");
        assert_eq!(cluster.value_of(Key(0)), vec![0.0; DIM], "{at}");
        assert_eq!(cluster.pending_total(), 0, "{at}");
    }
}
