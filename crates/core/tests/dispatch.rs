//! Run-to-completion dispatch: whoever enqueued a message drives the
//! destination's server (`lapse_core::threaded::Dispatch`).
//!
//! * the hand-off race: no message is stranded, none is handled twice,
//!   and each sender's messages are handled in the order it sent them,
//!   while a third thread keeps taking and releasing the role;
//! * the drain cap: what a visit leaves behind is counted, announced on
//!   the doorbell, and still there for the next visit;
//! * an oversubscribed cluster with the cap forced down to 2, so that
//!   the fallback server threads do real work: exact final state;
//! * a quiet cluster: a sync remote pull and a sync localize wake no
//!   thread at all and never wait — a count that repeats exactly;
//! * a busy cluster: two workers steal keys from each other while each
//!   keeps sync operations in flight at the other's node, so operations
//!   are finished by whoever held the role and the issuer waits for it:
//!   exact sums, nothing left queued, every wait counted once.

#![allow(
    clippy::disallowed_methods,
    reason = "a test file: the determinism bans guard the crate's protocol paths, not the tests that drive them"
)]

mod common;

use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{expected_state, issued_keys, stress_config, workload, KEYS, VARIANTS};
use lapse_core::cluster::run_threaded_with_drain_cap;
use lapse_core::threaded::{Dispatch, Driver, SERVER_DRAIN_CAP};
use lapse_core::{run_sim, run_threaded, ClusterStats, CostModel, PsConfig, PsWorker, Variant};
use lapse_net::{Key, NodeId, ThreadedNet};
use lapse_proto::client::{ClientCore, IssueHandle, MsgSink};
use lapse_proto::coalesce::Coalescer;
use lapse_proto::{Layout, NodeShared, ProtoConfig};
use lapse_utils::metrics::Metrics;

/// A hand-wired cluster without worker or server threads: the tests'
/// own threads are the only drivers.
struct Rig {
    cfg: Arc<ProtoConfig>,
    shareds: Vec<Arc<NodeShared>>,
    dispatch: Arc<Dispatch>,
}

impl Rig {
    /// `nodes` nodes, 8 one-float keys each (range-partitioned: node `n`
    /// is home to keys `8n..8n+8`), coalescing on as shipped.
    fn new(nodes: u16, drain_cap: usize) -> Rig {
        let mut cfg = ProtoConfig::new(nodes, nodes as u64 * 8, Layout::Uniform(1));
        cfg.coalesce = true;
        let cfg = Arc::new(cfg);
        let start = Instant::now();
        let shareds: Vec<Arc<NodeShared>> = (0..nodes)
            .map(|n| {
                let clock = Arc::new(move || start.elapsed().as_nanos() as u64);
                NodeShared::with_init(cfg.clone(), NodeId(n), clock, |_| None)
            })
            .collect();
        let net = ThreadedNet::new(nodes as usize, Metrics::new());
        let dispatch = Dispatch::new(&shareds, net, drain_cap);
        Rig {
            cfg,
            shareds,
            dispatch,
        }
    }

    /// A worker of `node` as the threaded backend builds one: client,
    /// coalescer, driver.
    fn sender(&self, node: u16) -> Sender {
        Sender {
            client: ClientCore::new(self.shareds[node as usize].clone(), 0),
            coalescer: Coalescer::new(&self.cfg),
            driver: Driver::new(self.dispatch.clone()),
            sink: Vec::new(),
        }
    }

    /// Every inbox is empty and accounted for: nothing pending, and a
    /// visit finds nothing to handle.
    fn assert_quiescent(&self) {
        let mut driver = Driver::new(self.dispatch.clone());
        for n in 0..self.shareds.len() as u16 {
            assert_eq!(self.dispatch.pending(NodeId(n)), 0, "pending at node {n}");
            assert_eq!(driver.drive_from(NodeId(n)), 0, "inbox of node {n}");
            assert_eq!(self.shareds[n as usize].tracker.in_flight(), 0);
        }
    }
}

struct Sender {
    client: ClientCore,
    coalescer: Coalescer,
    driver: Driver,
    sink: MsgSink,
}

impl Sender {
    /// Sends what the last client call emitted and drives what it
    /// reaches, like a threaded worker's send (which also counts the
    /// envelopes in its lane; this helper counts nothing).
    fn flush(&mut self) {
        let Sender {
            client,
            coalescer,
            driver,
            sink,
        } = self;
        let src = client.node();
        coalescer.pack(sink, &mut |dst, msg| driver.send(src, dst, msg));
        driver.drive();
    }

    /// Spins until tracker operation `seq` is done. Nobody is asked to
    /// help: if the dispatch strands a message, this times out.
    fn wait(&self, seq: u64) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !self.client.shared().tracker.is_done(seq) {
            assert!(Instant::now() < deadline, "operation {seq} stranded");
            std::thread::yield_now();
        }
    }
}

fn pending(handle: IssueHandle) -> u64 {
    match handle {
        IssueHandle::Pending(seq) => seq,
        IssueHandle::Ready(_) => panic!("a remote operation cannot complete at issue"),
    }
}

/// (a) Two threads deliver to node 0 while a third takes and releases
/// node 0's role in a loop. Each sender keeps a push and a pull of its
/// own key in flight on the same link: the pull must see exactly the
/// pushes sent before it (handled in per-sender order, each exactly
/// once), whichever of the three threads happened to hold the role.
#[test]
fn hand_off_race_strands_and_reorders_nothing() {
    const ROUNDS: u32 = 20_000;
    let rig = Rig::new(3, SERVER_DRAIN_CAP);
    let stop = AtomicBool::new(false);
    let visits = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let hog = scope.spawn(|| {
            let mut driver = Driver::new(rig.dispatch.clone());
            while !stop.load(SeqCst) {
                driver.drive_from(NodeId(0));
                visits.fetch_add(1, Relaxed);
            }
        });
        let senders: Vec<_> = (1..=2u16)
            .map(|node| {
                let mut s = rig.sender(node);
                scope.spawn(move || {
                    let key = [Key(node as u64)]; // homed and owned at node 0
                    for round in 1..=ROUNDS {
                        let push = pending(s.client.push(&key, &[1.0], &mut s.sink));
                        let pull = pending(s.client.pull(&key, None, &mut s.sink));
                        s.flush();
                        s.wait(push);
                        s.client.finish_ack(push);
                        s.wait(pull);
                        assert_eq!(
                            s.client.take_pull(pull),
                            [round as f32],
                            "node {node}: pull {round} overtook or missed a push"
                        );
                    }
                })
            })
            .collect();
        for s in senders {
            s.join().expect("sender panicked");
        }
        stop.store(true, SeqCst);
        hog.join().expect("role hog panicked");
    });
    assert!(visits.load(Relaxed) > 0);
    rig.assert_quiescent();
}

/// The drain cap: a visit handles at most `cap` messages, counts one
/// doorbell ring for what it leaves, and later visits find the rest, in
/// order.
#[test]
fn a_visit_stops_at_the_drain_cap_and_rings_the_doorbell() {
    let rig = Rig::new(2, 2);
    let mut s = rig.sender(1);
    let key = [Key(3)]; // homed and owned at node 0
    let rings = || rig.dispatch.doorbell_rings();

    // Five pushes queued at node 0 before anybody visits it.
    let mut acks = Vec::new();
    for _ in 0..5 {
        acks.push(pending(s.client.push(&key, &[1.0], &mut s.sink)));
        let (dst, msg) = s.sink.pop().expect("one request per push");
        s.driver.send(NodeId(1), dst, msg);
    }
    assert_eq!(rig.dispatch.pending(NodeId(0)), 5);

    // Each drive handles two pushes at node 0 and their two acks at
    // node 1 (the worklist follows node 0's output).
    assert_eq!(s.driver.drive(), 4);
    assert_eq!((rig.dispatch.pending(NodeId(0)), rings()), (3, 1));
    assert_eq!(s.driver.drive_from(NodeId(0)), 4);
    assert_eq!((rig.dispatch.pending(NodeId(0)), rings()), (1, 2));
    assert_eq!(s.driver.drive_from(NodeId(0)), 2);
    assert_eq!((rig.dispatch.pending(NodeId(0)), rings()), (0, 2));

    for seq in acks {
        s.wait(seq);
        s.client.finish_ack(seq);
    }
    let pull = pending(s.client.pull(&key, None, &mut s.sink));
    s.flush();
    s.wait(pull);
    assert_eq!(s.client.take_pull(pull), [5.0]);
    rig.assert_quiescent();
}

/// (b) 3 nodes × 3 workers on a host with fewer cores, the drain cap
/// forced down to 2 so that drivers keep leaving work to the fallback
/// server threads: every variant must still reach the exact final state
/// of the simulator and of the replayed push sums — and count every key
/// it issued exactly once, as the simulator does: nine workers and three
/// servers bump counters here at once, each in a lane of its own.
#[test]
fn oversubscribed_stress_with_a_tiny_drain_cap_keeps_exact_sums() {
    const NODES: u16 = 3;
    const WORKERS_PER_NODE: usize = 3;
    const WORKERS: u64 = NODES as u64 * WORKERS_PER_NODE as u64;
    let expect = expected_state(WORKERS);
    let (pushes, pulls) = issued_keys(WORKERS);
    let push_keys =
        |s: &ClusterStats| s.push_local + s.push_queued + s.push_remote + s.push_replica;
    let mut rings = 0;
    for variant in VARIANTS {
        let cfg = || stress_config(NODES, variant);
        let (threaded, stats, _) =
            run_threaded_with_drain_cap(cfg(), WORKERS_PER_NODE, 2, |_| None, workload);
        let (sim, sim_stats) = run_sim(
            cfg(),
            WORKERS_PER_NODE,
            CostModel::default(),
            |_| None,
            workload,
        );
        for (gid, state) in threaded.iter().enumerate() {
            assert_eq!(state, &expect, "{variant:?} worker {gid}");
        }
        assert_eq!(threaded, sim, "{variant:?}: backends disagree");
        for (backend, s) in [("threaded", &stats), ("sim", &sim_stats)] {
            assert_eq!(push_keys(s), pushes, "{variant:?} {backend}: push keys");
            // Beyond the schedule, each worker polls all keys at least
            // once; how often depends on the backend's timing.
            let polled = s.pull_total() - pulls;
            assert_eq!(polled % KEYS, 0, "{variant:?} {backend}: pull keys");
            assert!(polled >= WORKERS * KEYS, "{variant:?} {backend}");
        }
        assert_eq!(stats.tracker_in_flight, 0, "{variant:?}: leaked ops");
        assert_eq!(stats.unexpected_relocates, 0, "{variant:?}");
        rings += stats.doorbell_rings;
    }
    assert!(rings > 0, "the doorbell path never ran");
}

/// (c) On a quiet 2×1 cluster a sync remote pull and a sync localize run
/// to completion on the issuing worker's thread: the destination's
/// handler, the response's handler and the tracker completion all happen
/// before the worker comes to wait, so no doorbell rings and no worker
/// sleeps or even polls: all three waits are over at their first check.
/// A count, not a timing: it must repeat exactly.
#[test]
fn quiet_remote_ops_wake_nobody() {
    for _ in 0..20 {
        let (outs, stats) = run_threaded(
            PsConfig::new(2, 16, 1).variant(Variant::Lapse),
            1,
            |k| Some(vec![k.0 as f32]),
            |w: &mut dyn PsWorker| {
                let mut got = [0.0f32];
                if w.global_id() == 0 {
                    w.pull(&[Key(9)], &mut got); // owned by node 1
                    w.localize(&[Key(12)]); // moves from node 1
                    assert!(w.pull_if_local(Key(12), &mut [0.0]));
                }
                w.barrier();
                got[0]
            },
        );
        assert_eq!(outs[0], 9.0);
        assert_eq!(stats.relocations, 1);
        assert_eq!(
            (stats.doorbell_rings, stats.wake_parks, stats.wake_spins),
            (0, 0, 0),
            "a quiet remote op woke a thread or waited for one"
        );
        assert_eq!((stats.wake_immediate, stats.wait_ns), (2, 0));
        // Request and response; localize request and hand-over (key 12's
        // home is its owner, so no relocate message in between); the
        // two `Shutdown` envelopes `run_threaded` ends with.
        assert_eq!(stats.messages, 2 + 2 + 2);
        assert_eq!(stats.tracker_in_flight, 0);
    }
}

/// (d) The collision the benchmark's messaging workloads hit: on a busy
/// 2×1 cluster each worker keeps sync pushes and pulls in flight on keys
/// the other node owns for good, while both keep localizing — and so
/// stealing from each other — one shared pool of keys that they push to
/// as well. A request then often finds the destination's role held by
/// the other worker, who finishes the operation while the issuer waits
/// in `WakeCell::wait_until`. Whichever stage each wait ends in (that
/// depends on the host and is not asserted), pulls see exactly the
/// pushes before them, the sums are exact, nothing stays queued, and
/// every wait is counted as exactly one of immediate, spun, parked.
#[test]
fn busy_cluster_waits_are_exact_and_counted_once() {
    const ROUNDS: u64 = 1_000;
    const POOL: std::ops::Range<u64> = 8..16; // homed at node 0; both workers localize it
    let (waits, stats, dispatch) = run_threaded_with_drain_cap(
        PsConfig::new(2, 32, 1).variant(Variant::Lapse),
        1,
        SERVER_DRAIN_CAP,
        |_| None,
        |w: &mut dyn PsWorker| {
            let me = w.global_id() as u64;
            // Homed at the other node and never localized: always remote,
            // and this worker is the only one that pushes to them.
            let far = [Key((1 - me) * 16), Key((1 - me) * 16 + 1)];
            let pool: Vec<Key> = POOL.map(Key).collect();
            let mut waits = 0;
            let mut got = [0.0f32; 2];
            w.barrier();
            for round in 0..ROUNDS {
                w.push(&far, &[1.0, 2.0]);
                w.pull(&far, &mut got);
                waits += 2;
                let pushed = (round + 1) as f32;
                assert_eq!(got, [pushed, 2.0 * pushed], "worker {me}, round {round}");
                // Three pool keys, a different three each round, localized
                // and pushed to in one go: the push finds each key here
                // already, on its way (and parks behind the hand-over), or
                // still at the other node — so whether these two
                // operations wait at all is theirs to say.
                let at = (round * 5 + me * 3) as usize % (pool.len() - 2);
                let steal = &pool[at..at + 3];
                for token in [w.localize_async(steal), w.push_async(steal, &[1.0; 3])] {
                    waits += u64::from(!token.completed_at_issue());
                    w.wait(token);
                }
            }
            w.barrier();
            let token = w.pull_async(&pool);
            waits += u64::from(!token.completed_at_issue());
            let sums = w.wait_pull(token);
            w.barrier();
            // Each key of the pool got 1.0 from each worker in every round
            // whose window of three covered it.
            let mut expect = vec![0.0f32; pool.len()];
            for round in 0..ROUNDS {
                for who in 0..2 {
                    let at = (round * 5 + who * 3) as usize % (pool.len() - 2);
                    expect[at..at + 3].iter_mut().for_each(|x| *x += 1.0);
                }
            }
            assert_eq!(sums, expect, "worker {me}: push sums of the pool");
            waits
        },
    );
    assert_eq!(
        stats.wake_immediate + stats.wake_spins + stats.wake_parks,
        waits.iter().sum::<u64>(),
        "a wait was counted twice or not at all: {stats:?}"
    );
    assert_eq!(stats.wait_ns == 0, stats.wake_spins + stats.wake_parks == 0);
    assert!(
        stats.relocations > POOL.count() as u64,
        "the workers never stole a key back"
    );
    assert_eq!(stats.tracker_in_flight, 0);
    assert_eq!(stats.unexpected_relocates, 0);
    // Every envelope that was sent was taken off its inbox, the two
    // `Shutdown`s included.
    for node in 0..2 {
        assert_eq!(dispatch.pending(NodeId(node)), 0, "pending at node {node}");
    }
}
