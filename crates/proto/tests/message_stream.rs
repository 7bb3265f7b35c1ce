//! The emission-order contract, in tier-1: **same messages, same wake
//! order**.
//!
//! The simulator's schedules — and with them every checked-in experiment
//! table — depend on two orders the protocol core produces: the order
//! (and content) of the messages it emits, and the order in which one
//! message's completions wake workers. `make bench-smoke` sees both, but
//! only outside `cargo test`. Here a seeded op mix runs on the
//! hand-cranked [`TestCluster`] — 3 nodes × 2 workers and **8 latches**,
//! so keys share shards — under a seeded random (per-link FIFO) delivery
//! schedule, and three FNV-1a hashes are pinned per scenario: every
//! delivered wire frame in delivery order, every tracker wake as
//! `(node, slot)` in firing order, and every pulled value in completion
//! order.
//!
//! The mix: multi-key and one-key sync/async pulls and pushes (key lists
//! may repeat a key or revisit a shard), overlapping localizes from all
//! nodes, and per scenario the traffic only that variant has — stale
//! location-cache forwards (Lapse with caches), replica flush/refresh
//! rounds (Hybrid), one promotion and one demotion racing the traffic
//! (Adaptive).
//!
//! The constants were generated at commit `770fb50`, **before** the keyed
//! paths were rewritten as one in-order walk (ISSUE 19), and the rewrite
//! had to reproduce them. A change that moves one of them has changed
//! what goes over the wire or who wakes first: that is a protocol change
//! and needs the smoke outputs re-examined, not just a new constant.

#![allow(
    clippy::disallowed_types,
    reason = "a test file: the determinism bans guard the crate's protocol paths, not the tests that drive them"
)]

use rand::Rng as _;
use std::collections::HashMap;

use lapse_net::codec::encode_framed;
use lapse_net::{Key, NodeId};
use lapse_proto::client::IssueHandle;
use lapse_proto::messages::{Msg, TechniqueDemoteMsg, TechniquePromoteMsg};
use lapse_proto::testkit::{IssueOp, TestCluster};
use lapse_proto::{HotSet, Layout, ProtoConfig, Variant};
use lapse_utils::rng::{derive_rng, Rng};

const NODES: u16 = 3;
const WORKERS: u16 = 2;
const KEYS: u64 = 24;
const DIM: usize = 2;
const STEPS: usize = 400;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn config(variant: Variant) -> ProtoConfig {
    let mut cfg = ProtoConfig::new(NODES, KEYS, Layout::Uniform(DIM as u32));
    cfg.variant = variant;
    cfg.latches = 8;
    cfg
}

/// What a pending operation needs once it is done.
enum Finish {
    SyncPull(Vec<f32>),
    AsyncPull,
    Ack,
}

struct Pending {
    node: NodeId,
    slot: usize,
    seq: u64,
    finish: Finish,
}

struct Driver {
    c: TestCluster,
    rng: Rng,
    pending: Vec<Pending>,
    /// Exact push sum per key (integer-valued terms).
    expected: HashMap<Key, f32>,
    values: u64,
    /// A key every fourth draw picks (the adaptive scenario's hot key).
    favourite: Option<Key>,
}

impl Driver {
    fn new(cfg: ProtoConfig, seed: u64) -> Self {
        Driver {
            c: TestCluster::recording(cfg, WORKERS),
            rng: derive_rng(seed, 1),
            pending: Vec::new(),
            expected: HashMap::new(),
            values: FNV_OFFSET,
            favourite: None,
        }
    }

    fn keys(&mut self, n: usize) -> Vec<Key> {
        (0..n)
            .map(|_| {
                let k = Key(self.rng.gen_range(0..KEYS));
                match self.favourite {
                    Some(hot) if self.rng.gen_range(0..4u32) == 0 => hot,
                    _ => k,
                }
            })
            .collect()
    }

    fn hash_values(&mut self, vals: &[f32]) {
        for v in vals {
            fnv(&mut self.values, &v.to_le_bytes());
        }
    }

    fn track(&mut self, node: NodeId, slot: usize, handle: IssueHandle, finish: Finish) {
        match handle {
            IssueHandle::Pending(seq) => self.pending.push(Pending {
                node,
                slot,
                seq,
                finish,
            }),
            IssueHandle::Ready(vals) => match finish {
                Finish::SyncPull(out) => self.hash_values(&out),
                Finish::AsyncPull => self.hash_values(&vals.expect("ready async pull has values")),
                Finish::Ack => {}
            },
        }
    }

    fn pull(&mut self, node: NodeId, slot: usize, keys: &[Key], sync: bool) {
        if sync {
            let mut out = vec![0.0; keys.len() * DIM];
            let h = self
                .c
                .issue(node, slot, IssueOp::Pull(keys), Some(&mut out));
            self.track(node, slot, h, Finish::SyncPull(out));
        } else {
            let h = self.c.issue(node, slot, IssueOp::Pull(keys), None);
            self.track(node, slot, h, Finish::AsyncPull);
        }
    }

    /// Pushes small random integer terms (sums stay exact in `f32`).
    fn push(&mut self, node: NodeId, slot: usize, keys: &[Key]) {
        let vals: Vec<f32> = (0..keys.len() * DIM)
            .map(|_| self.rng.gen_range(1..5u32) as f32)
            .collect();
        for (k, v) in keys.iter().zip(vals.chunks(DIM)) {
            *self.expected.entry(*k).or_default() += v[0];
        }
        let h = self.c.issue(node, slot, IssueOp::Push(keys, &vals), None);
        self.track(node, slot, h, Finish::Ack);
    }

    fn localize(&mut self, node: NodeId, slot: usize, keys: &[Key]) {
        let h = self.c.issue(node, slot, IssueOp::Localize(keys), None);
        self.track(node, slot, h, Finish::Ack);
    }

    /// One random operation of one random worker.
    fn issue_one(&mut self) {
        let node = NodeId(self.rng.gen_range(0..NODES));
        let slot = self.rng.gen_range(0..WORKERS) as usize;
        let many = self.rng.gen_range(2..6usize);
        match self.rng.gen_range(0..10u32) {
            kind @ 0..=3 => {
                let keys = self.keys(if kind % 2 == 0 { many } else { 1 });
                self.pull(node, slot, &keys, kind < 2);
            }
            kind @ 4..=6 => {
                let keys = self.keys(if kind == 4 { 1 } else { many });
                self.push(node, slot, &keys);
            }
            _ => {
                let n = self.rng.gen_range(1..7usize);
                let keys = self.keys(n);
                self.localize(node, slot, &keys);
            }
        }
    }

    /// Delivers up to `n` messages from randomly picked links.
    fn deliver_some(&mut self, n: usize) {
        for _ in 0..n {
            let pick = self.rng.gen_range(0..64usize);
            if !self.c.deliver_random_one(|links| pick % links) {
                break;
            }
        }
    }

    /// Finishes every completed operation, oldest first.
    fn reap(&mut self) {
        let mut i = 0;
        while i < self.pending.len() {
            let p = &self.pending[i];
            if !self.c.nodes[p.node.idx()].shared.tracker.is_done(p.seq) {
                i += 1;
                continue;
            }
            let p = self.pending.remove(i);
            let client = &self.c.nodes[p.node.idx()].clients[p.slot];
            match p.finish {
                Finish::SyncPull(mut out) => {
                    client.finish_pull(p.seq, &mut out);
                    self.hash_values(&out);
                }
                Finish::AsyncPull => {
                    let vals = client.take_pull(p.seq);
                    self.hash_values(&vals);
                }
                Finish::Ack => client.finish_ack(p.seq),
            }
        }
    }

    fn quiesce(&mut self) {
        let Driver { c, rng, .. } = self;
        c.run_random_schedule(|links| rng.gen_range(0..links));
        self.reap();
    }

    /// Propagation rounds until no replica delta is pending or in flight.
    fn settle_replicas(&mut self) {
        for round in 0.. {
            if self.c.replica_deltas_settled() {
                return;
            }
            assert!(round < 8, "replica deltas never settled");
            for n in 0..NODES {
                self.c.flush_replicas(NodeId(n));
            }
            self.quiesce();
        }
    }

    /// Quiesces, checks the protocol's own invariants, and returns the
    /// three hashes `(frames, wakes, values)`.
    fn finish(mut self) -> (u64, u64, u64) {
        self.quiesce();
        self.settle_replicas();
        assert!(self.pending.is_empty(), "operations never completed");
        assert_eq!(self.c.in_flight_ops(), 0, "tracker leak");
        assert!(self.c.transitions_idle(), "transition machinery stuck");
        self.c.check_ownership_invariant();
        for k in 0..KEYS {
            let v = self.c.value_of(Key(k));
            let sum = self.expected.get(&Key(k)).copied().unwrap_or(0.0);
            assert_eq!(v[0], sum, "value of key {k} diverged from its push sum");
            self.hash_values(&v);
        }
        let log = self.c.recorded();
        let (mut frames, mut wakes) = (FNV_OFFSET, FNV_OFFSET);
        for (src, dst, msg) in &log.delivered {
            let frame = encode_framed(*src, *dst, msg);
            fnv(&mut frames, &(frame.len() as u32).to_le_bytes());
            fnv(&mut frames, &frame);
        }
        for (node, slot) in &log.wakes {
            fnv(&mut wakes, &node.0.to_le_bytes());
            fnv(&mut wakes, &slot.to_le_bytes());
        }
        assert!(
            log.delivered.len() > 300,
            "the mix sent {} messages",
            log.delivered.len()
        );
        assert!(
            log.wakes.len() > 100,
            "the mix woke {} times",
            log.wakes.len()
        );
        (frames, wakes, self.values)
    }

    /// The plain mix: an operation, a few deliveries, a reap, per step.
    fn run_steps(&mut self, steps: usize) {
        for _ in 0..steps {
            self.issue_one();
            let n = self.rng.gen_range(0..4usize);
            self.deliver_some(n);
            self.reap();
        }
    }
}

fn report(name: &str, got: (u64, u64, u64)) {
    println!(
        "{name}: frames {:#018x}, wakes {:#018x}, values {:#018x}",
        got.0, got.1, got.2
    );
}

#[test]
fn lapse_with_location_caches() {
    let mut cfg = config(Variant::Lapse);
    cfg.location_caches = true;
    let mut d = Driver::new(cfg, 0x5eed_0001);
    d.run_steps(STEPS);
    let got = d.finish();
    report("lapse_with_location_caches", got);
    assert_eq!(got, LAPSE_CACHES);
}

#[test]
fn hybrid_with_replica_flushes() {
    let mut cfg = config(Variant::Hybrid);
    // Two hot keys per home range: replica batches span several shards
    // and several owners.
    cfg.hot_set = HotSet::Blocks { block: 8, hot: 2 };
    cfg.replica_flush_every = 16;
    // The shipped threaded configuration: sync pulls try the seqlock
    // read first and take the latch only for the keys it could not serve.
    cfg.wait_free_reads = true;
    let mut d = Driver::new(cfg, 0x5eed_0002);
    for round in 0..8 {
        d.run_steps(STEPS / 8);
        d.c.flush_replicas(NodeId(round % NODES));
    }
    let flushes: u64 =
        d.c.nodes
            .iter()
            .map(|n| n.shared.stats().replica_flushes)
            .sum();
    assert!(flushes >= 8, "only {flushes} replica flushes");
    let got = d.finish();
    report("hybrid_with_replica_flushes", got);
    assert_eq!(got, HYBRID);
}

#[test]
fn adaptive_with_one_promotion_and_one_demotion() {
    let mut d = Driver::new(config(Variant::Adaptive), 0x5eed_0003);
    let hot = Key(9); // homed at node 1
    let home = d.c.cfg.home(hot);
    d.favourite = Some(hot);
    d.run_steps(STEPS / 4);
    // A controller asks for the promotion. The key is at rest somewhere
    // (not necessarily at home): nobody expects it yet.
    d.quiesce();
    let requester = NodeId(2);
    d.c.inject(
        requester,
        home,
        Msg::TechniquePromote(TechniquePromoteMsg {
            node: requester,
            keys: vec![hot],
        }),
    );
    // The home hears of it first; its broadcast is still on the wire
    // when the other nodes push to the key over the network, localize it
    // and park operations behind the relocation the home will refuse —
    // the broadcast's drain has to complete all of them.
    d.c.drain_link(requester, home);
    for n in (0..NODES).map(NodeId).filter(|&n| n != home) {
        d.push(n, 1, &[Key(17), hot]);
        d.localize(n, 0, &[hot, Key(3)]);
        d.push(n, 1, &[hot]);
        d.pull(n, 0, &[hot], true);
        d.pull(n, 1, &[Key(4), hot], false);
    }
    d.run_steps(STEPS / 4);
    d.quiesce();
    assert!(
        (0..NODES).all(|n| d.c.replicated_on(NodeId(n), hot)),
        "promotion did not finish"
    );
    for n in 0..NODES {
        d.run_steps(STEPS / 12);
        d.c.flush_replicas(NodeId(n));
    }
    // Every node votes the key cold; the demotion drains while pushes to
    // its replicas and localizes of it keep coming.
    for n in 0..NODES {
        d.c.inject(
            NodeId(n),
            home,
            Msg::TechniqueDemote(TechniqueDemoteMsg {
                node: NodeId(n),
                keys: vec![hot],
            }),
        );
    }
    // The home pins the key once all have voted. Node 0 drains first
    // and asks for the key right away: its localize reaches the home
    // behind its drain confirmation, while node 2's is outstanding, and
    // is deferred until the drain completes.
    for n in 0..NODES {
        d.c.drain_link(NodeId(n), home);
    }
    d.c.drain_link(home, NodeId(0));
    d.localize(NodeId(0), 1, &[Key(10), hot]);
    d.c.drain_link(NodeId(0), home);
    d.reap();
    d.run_steps(STEPS / 4);
    let stats = d.c.nodes[home.idx()].shared.stats();
    let got = d.finish();
    assert_eq!(
        (stats.tech_promotions, stats.tech_demotions),
        (1, 1),
        "the scenario is one promotion and one demotion"
    );
    report("adaptive_with_one_promotion_and_one_demotion", got);
    assert_eq!(got, ADAPTIVE);
}

// `(frames, wakes, values)`, as printed by a run (`-- --nocapture`).
const LAPSE_CACHES: (u64, u64, u64) = (
    0x59e6_49e9_781a_8295,
    0x188d_d3fd_8374_aa87,
    0xb79e_e6d8_ad27_116a,
);
const HYBRID: (u64, u64, u64) = (
    0xcf77_0905_22dc_677d,
    0xa2e2_4f2d_3d3e_2e4c,
    0x226d_f07c_505e_4f6d,
);
const ADAPTIVE: (u64, u64, u64) = (
    0x3b07_5447_1e32_08c8,
    0x4ef1_c9bc_46fb_20b6,
    0xaa44_7d94_a5fa_f902,
);
