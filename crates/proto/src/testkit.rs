//! Deterministic protocol test harness.
//!
//! Because the protocol core is sans-io, a test can instantiate a whole
//! cluster in memory and **deliver messages by hand in any order that
//! respects per-link FIFO** — the exact delivery model of the real
//! transports. This makes protocol races (operations overtaking
//! relocations, localization conflicts, stale location caches)
//! reproducible as plain unit tests instead of rare flaky schedules.
//!
//! The harness is also used by the proptest fuzzers: random op sequences
//! plus random (FIFO-respecting) delivery schedules, with ownership and
//! value-conservation invariants checked at quiescence.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

use lapse_net::{Key, NodeId};

use crate::client::{ClientCore, IssueHandle, MsgSink};
use crate::config::ProtoConfig;
use crate::messages::Msg;
use crate::server::ServerCore;
use crate::shard::NodeShared;
use crate::storage::Residency;
use crate::tracker::WakeFn;

/// One simulated node: shared state, server logic, one client per worker.
pub struct TestNode {
    /// Latched shared state.
    pub shared: Arc<NodeShared>,
    /// Server half.
    pub server: ServerCore,
    /// Client halves, one per worker slot.
    pub clients: Vec<ClientCore>,
}

/// What a recording cluster ([`TestCluster::recording`]) has observed:
/// the two orders the protocol promises to keep — what is sent, and who
/// is woken.
#[derive(Debug, Default)]
pub struct Recorded {
    /// Every delivered message as `(src, dst, message)`, in delivery
    /// order.
    pub delivered: Vec<(NodeId, NodeId, Msg)>,
    /// Every tracker wake as `(node, worker slot)`, in firing order.
    pub wakes: Vec<(NodeId, u16)>,
}

/// A hand-driven cluster.
pub struct TestCluster {
    /// Cluster configuration.
    pub cfg: Arc<ProtoConfig>,
    /// Nodes by id.
    pub nodes: Vec<TestNode>,
    /// Per-link FIFO queues: `queues[src][dst]`.
    queues: Vec<Vec<VecDeque<Msg>>>,
    /// The log of a recording cluster.
    recorded: Option<Arc<Mutex<Recorded>>>,
}

impl TestCluster {
    /// Builds a cluster with `workers_per_node` clients per node and
    /// zero-initialized values.
    pub fn new(cfg: ProtoConfig, workers_per_node: u16) -> Self {
        Self::with_init(cfg, workers_per_node, |_| None)
    }

    /// Builds a cluster with initial values from `init`.
    pub fn with_init(
        cfg: ProtoConfig,
        workers_per_node: u16,
        init: impl FnMut(Key) -> Option<Vec<f32>>,
    ) -> Self {
        Self::build(cfg, workers_per_node, init, |_| Arc::new(|_, _| {}), None)
    }

    /// Builds a zero-initialized cluster whose trackers wake through the
    /// callback `waker` makes for each node's shared state — a test that
    /// checks every wake installs its own.
    pub fn with_waker(
        cfg: ProtoConfig,
        workers_per_node: u16,
        waker: impl FnMut(&Arc<NodeShared>) -> WakeFn,
    ) -> Self {
        Self::build(cfg, workers_per_node, |_| None, waker, None)
    }

    /// Builds a zero-initialized cluster that logs every delivered
    /// message and every tracker wake ([`TestCluster::recorded`]).
    pub fn recording(cfg: ProtoConfig, workers_per_node: u16) -> Self {
        let log = Arc::new(Mutex::new(Recorded::default()));
        let waker = |shared: &Arc<NodeShared>| -> WakeFn {
            let (log, node) = (log.clone(), shared.node);
            Arc::new(move |slot, _| log.lock().wakes.push((node, slot)))
        };
        Self::build(cfg, workers_per_node, |_| None, waker, Some(log.clone()))
    }

    fn build(
        cfg: ProtoConfig,
        workers_per_node: u16,
        mut init: impl FnMut(Key) -> Option<Vec<f32>>,
        mut waker: impl FnMut(&Arc<NodeShared>) -> WakeFn,
        recorded: Option<Arc<Mutex<Recorded>>>,
    ) -> Self {
        let cfg = Arc::new(cfg);
        let n = cfg.nodes as usize;
        let mut nodes = Vec::with_capacity(n);
        for id in 0..n {
            let shared =
                NodeShared::with_init(cfg.clone(), NodeId(id as u16), Arc::new(|| 0), &mut init);
            // Tests poll `is_done`; completions need no wake-up, so the
            // waker (installed once per tracker) only ever observes.
            shared.tracker.set_waker(waker(&shared));
            let server = ServerCore::new(shared.clone());
            let clients = (0..workers_per_node)
                .map(|slot| ClientCore::new(shared.clone(), slot))
                .collect();
            nodes.push(TestNode {
                shared,
                server,
                clients,
            });
        }
        let queues = (0..n)
            .map(|_| (0..n).map(|_| VecDeque::new()).collect())
            .collect();
        TestCluster {
            cfg,
            nodes,
            queues,
            recorded,
        }
    }

    /// Takes what a recording cluster has logged so far.
    ///
    /// # Panics
    /// Panics if the cluster was not built by [`TestCluster::recording`].
    pub fn recorded(&self) -> Recorded {
        let log = self.recorded.as_ref().expect("not a recording cluster");
        std::mem::take(&mut *log.lock())
    }

    /// Enqueues all messages of an issue sink, preserving order.
    pub fn send_all(&mut self, src: NodeId, sink: MsgSink) {
        for (dst, msg) in sink {
            self.queues[src.idx()][dst.idx()].push_back(msg);
        }
    }

    /// Enqueues one hand-crafted message on the `(src, dst)` link —
    /// used by transition tests and fuzzers to stand in for a node's
    /// adaptive controller (requests are exactly what it would send).
    pub fn inject(&mut self, src: NodeId, dst: NodeId, msg: Msg) {
        self.queues[src.idx()][dst.idx()].push_back(msg);
    }

    /// Runs the adaptive controller of `node` (one tick) and enqueues its
    /// transition requests.
    pub fn run_controller(&mut self, node: NodeId) {
        let mut sink = Vec::new();
        self.nodes[node.idx()].clients[0].run_controller(&mut sink);
        self.send_all(node, sink);
    }

    /// Whether `node` currently manages `key` by replication (its
    /// residency there is `Primary` or `Replica`).
    pub fn replicated_on(&self, node: NodeId, key: Key) -> bool {
        self.residency(node, key).replicated()
    }

    /// The state of `key` on `node`.
    pub fn residency(&self, node: NodeId, key: Key) -> Residency {
        self.nodes[node.idx()]
            .shared
            .shard_for(key)
            .read()
            .store
            .residency(key)
    }

    /// Whether every node's transition machinery is idle (no key
    /// `Promoting` or `Demoting`, no demotion draining).
    pub fn transitions_idle(&self) -> bool {
        self.nodes.iter().all(|n| n.server.transitions_idle())
    }

    /// Number of undelivered messages on the `(src, dst)` link.
    pub fn pending(&self, src: NodeId, dst: NodeId) -> usize {
        self.queues[src.idx()][dst.idx()].len()
    }

    /// Total undelivered messages.
    pub fn pending_total(&self) -> usize {
        self.queues.iter().flatten().map(|q| q.len()).sum()
    }

    /// Delivers the head message of link `(src, dst)`; outgoing messages
    /// are enqueued. Panics if the link is empty.
    pub fn deliver_one(&mut self, src: NodeId, dst: NodeId) {
        let msg = self.queues[src.idx()][dst.idx()]
            .pop_front()
            .expect("deliver_one on empty link");
        if let Some(log) = &self.recorded {
            log.lock().delivered.push((src, dst, msg.clone()));
        }
        let mut sink = Vec::new();
        self.nodes[dst.idx()].server.handle(msg, &mut sink);
        self.send_all(dst, sink);
    }

    /// Delivers every message on the `(src, dst)` link (including ones
    /// enqueued onto it during delivery).
    pub fn drain_link(&mut self, src: NodeId, dst: NodeId) {
        while self.pending(src, dst) > 0 {
            self.deliver_one(src, dst);
        }
    }

    /// Delivers all messages in a fixed round-robin order until no link
    /// has pending messages.
    pub fn run_until_quiet(&mut self) {
        let mut hops = 0;
        self.run_until_quiet_counting(&mut hops);
    }

    /// Like [`TestCluster::run_until_quiet`], counting delivered messages
    /// into `hops`.
    pub fn run_until_quiet_counting(&mut self, hops: &mut u64) {
        let n = self.cfg.nodes as usize;
        loop {
            let mut delivered = false;
            for src in 0..n {
                for dst in 0..n {
                    if !self.queues[src][dst].is_empty() {
                        self.deliver_one(NodeId(src as u16), NodeId(dst as u16));
                        *hops += 1;
                        delivered = true;
                    }
                }
            }
            if !delivered {
                return;
            }
        }
    }

    /// Delivers one message from a randomly chosen non-empty link; `pick`
    /// receives the number of non-empty links and returns an index.
    /// Returns false when nothing was pending.
    pub fn deliver_random_one(&mut self, pick: impl FnOnce(usize) -> usize) -> bool {
        let links: Vec<(usize, usize)> = (0..self.queues.len())
            .flat_map(|s| (0..self.queues.len()).map(move |d| (s, d)))
            .filter(|&(s, d)| !self.queues[s][d].is_empty())
            .collect();
        if links.is_empty() {
            return false;
        }
        let (s, d) = links[pick(links.len())];
        self.deliver_one(NodeId(s as u16), NodeId(d as u16));
        true
    }

    /// Delivers messages in a seeded random (per-link FIFO) order until
    /// quiet. `pick` receives the number of non-empty links and returns
    /// the index to deliver from.
    pub fn run_random_schedule(&mut self, mut pick: impl FnMut(usize) -> usize) {
        while self.deliver_random_one(&mut pick) {}
    }

    // ---- convenience wrappers (issue + full delivery) ---------------------

    /// Issues a sync pull from `(node, slot)` and drives the cluster to
    /// quiescence; returns the pulled values.
    pub fn pull_now(&mut self, node: NodeId, slot: usize, keys: &[Key]) -> Vec<f32> {
        let mut out = vec![0.0; self.cfg.layout.keys_len(keys)];
        let mut sink = Vec::new();
        let handle = self.nodes[node.idx()].clients[slot].pull(keys, Some(&mut out), &mut sink);
        self.send_all(node, sink);
        match handle {
            IssueHandle::Ready(_) => out,
            IssueHandle::Pending(seq) => {
                self.run_until_quiet();
                assert!(
                    self.nodes[node.idx()].shared.tracker.is_done(seq),
                    "pull did not complete at quiescence"
                );
                self.nodes[node.idx()].clients[slot].finish_pull(seq, &mut out);
                out
            }
        }
    }

    /// Issues a sync push and drives the cluster to quiescence.
    pub fn push_now(&mut self, node: NodeId, slot: usize, keys: &[Key], vals: &[f32]) {
        let mut sink = Vec::new();
        let handle = self.nodes[node.idx()].clients[slot].push(keys, vals, &mut sink);
        self.send_all(node, sink);
        if let IssueHandle::Pending(seq) = handle {
            self.run_until_quiet();
            assert!(
                self.nodes[node.idx()].shared.tracker.is_done(seq),
                "push did not complete at quiescence"
            );
            self.nodes[node.idx()].clients[slot].finish_ack(seq);
        }
    }

    /// Flushes a node's accumulated replicated pushes (the replication
    /// technique's propagation tick) without delivering anything.
    pub fn flush_replicas(&mut self, node: NodeId) {
        let mut sink = Vec::new();
        self.nodes[node.idx()].clients[0].flush_replicas(&mut sink);
        self.send_all(node, sink);
    }

    /// Reads the local replicated view of `key` on `node` (owned value or
    /// last refresh, plus unpropagated deltas), if any.
    pub fn replica_view(&self, node: NodeId, key: Key) -> Option<Vec<f32>> {
        self.nodes[node.idx()].shared.read_replica(key)
    }

    /// Issues a localize and drives the cluster to quiescence.
    pub fn localize_now(&mut self, node: NodeId, slot: usize, keys: &[Key]) {
        let mut sink = Vec::new();
        let handle = self.nodes[node.idx()].clients[slot].localize(keys, &mut sink);
        self.send_all(node, sink);
        if let IssueHandle::Pending(seq) = handle {
            self.run_until_quiet();
            assert!(
                self.nodes[node.idx()].shared.tracker.is_done(seq),
                "localize did not complete at quiescence"
            );
            self.nodes[node.idx()].clients[slot].finish_ack(seq);
        }
    }

    /// Issues an operation without delivering anything; returns the handle.
    pub fn issue(
        &mut self,
        node: NodeId,
        slot: usize,
        op: IssueOp<'_>,
        out: Option<&mut [f32]>,
    ) -> IssueHandle {
        let mut sink = Vec::new();
        let handle = match op {
            IssueOp::Pull(keys) => self.nodes[node.idx()].clients[slot].pull(keys, out, &mut sink),
            IssueOp::Push(keys, vals) => {
                self.nodes[node.idx()].clients[slot].push(keys, vals, &mut sink)
            }
            IssueOp::Localize(keys) => {
                self.nodes[node.idx()].clients[slot].localize(keys, &mut sink)
            }
        };
        self.send_all(node, sink);
        handle
    }

    // ---- invariants --------------------------------------------------------

    /// At quiescence: every key is owned by exactly one node, and that
    /// node matches the home's owner table; no key is `Incoming`,
    /// `Promoting` or `Demoting` anywhere (so no relocation queue or
    /// transition is left: a key has one exactly while in such a state),
    /// `Primary` appears only at the key's home, and a `Replica` anywhere
    /// implies `Primary` at the home.
    pub fn check_ownership_invariant(&self) {
        assert_eq!(self.pending_total(), 0, "cluster not quiescent");
        for key in (0..self.cfg.keys).map(Key) {
            let home = self.cfg.home(key);
            let held: Vec<Residency> = (0..self.nodes.len())
                .map(|n| self.residency(NodeId(n as u16), key))
                .collect();
            let legal = held.iter().enumerate().all(|(n, &r)| match r {
                Residency::Incoming | Residency::Promoting | Residency::Demoting => false,
                Residency::Primary => n == home.idx(),
                Residency::Replica => held[home.idx()] == Residency::Primary,
                Residency::Absent | Residency::Owned => true,
            });
            assert!(legal, "{key} at quiescence: {held:?} (home {home})");
            let owned = |n: &usize| matches!(held[*n], Residency::Owned | Residency::Primary);
            let owners: Vec<usize> = (0..held.len()).filter(owned).collect();
            assert_eq!(owners.len(), 1, "key {key} owned by nodes {owners:?}");
            let tabled = self.nodes[home.idx()].server.owner_of(key);
            assert_eq!(tabled.idx(), owners[0], "home table stale for {key}");
        }
    }

    /// The value of `key` at its one owner.
    pub fn value_of(&self, key: Key) -> Vec<f32> {
        let mut found = None;
        for n in &self.nodes {
            if let Some(v) = n.shared.read_value(key) {
                assert!(found.is_none(), "key {key} owned twice");
                found = Some(v);
            }
        }
        found.unwrap_or_else(|| panic!("key {key} owned nowhere"))
    }

    /// Whether no node holds a replica delta that is still pending or in
    /// flight (every replicated push has reached its owner and been
    /// acknowledged).
    pub fn replica_deltas_settled(&self) -> bool {
        let mut shards = self.nodes.iter().flat_map(|n| &n.shared.shards);
        shards.all(|s| s.read().store.deltas_settled())
    }

    /// Number of in-flight tracker operations across all nodes.
    pub fn in_flight_ops(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.shared.tracker.in_flight())
            .sum()
    }

    /// True if the tracked op on `node` completed.
    pub fn op_done(&self, node: NodeId, handle: &IssueHandle) -> bool {
        match handle.seq() {
            None => true,
            Some(seq) => self.nodes[node.idx()].shared.tracker.is_done(seq),
        }
    }
}

/// Operation descriptor for [`TestCluster::issue`].
pub enum IssueOp<'a> {
    /// Pull these keys.
    Pull(&'a [Key]),
    /// Push these updates.
    Push(&'a [Key], &'a [f32]),
    /// Localize these keys.
    Localize(&'a [Key]),
}
