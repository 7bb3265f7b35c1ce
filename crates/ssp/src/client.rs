//! SSP client cache and worker handle.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use lapse_net::{Key, NodeId};
use lapse_proto::group::OrderedGroups;
use lapse_proto::tracker::{ClockFn, OpTracker, TrackedKind};
use lapse_sim::TaskCtx;

use lapse_core::PsWorker;

use crate::messages::SspMsg;
use crate::runner::SspProto;
use crate::SspConfig;

/// One cached parameter.
#[derive(Debug, Clone)]
struct CacheEntry {
    vals: Vec<f32>,
    /// Global-min-clock stamp of the cached value.
    clock: i64,
}

/// Per-node client state, shared by the node's workers.
pub struct SspClientShared {
    /// Configuration.
    pub cfg: Arc<SspConfig>,
    /// This node.
    pub node: NodeId,
    /// The cache, sharded like the Lapse latches.
    shards: Vec<Mutex<HashMap<Key, CacheEntry>>>,
    /// Completion tracking for synchronous fetches.
    pub tracker: OpTracker,
}

impl SspClientShared {
    /// Creates the client state of one node.
    pub fn new(cfg: Arc<SspConfig>, node: NodeId, clock: ClockFn) -> Arc<Self> {
        let shards = (0..cfg.proto.shard_count())
            .map(|_| Mutex::new(HashMap::new()))
            .collect();
        Arc::new(SspClientShared {
            cfg,
            node,
            shards,
            tracker: OpTracker::new(clock),
        })
    }

    fn shard(&self, key: Key) -> &Mutex<HashMap<Key, CacheEntry>> {
        &self.shards[self.cfg.proto.shard_of(key)]
    }

    /// Applies a server response or push: installs fresh values.
    pub fn install(&self, keys: &[Key], vals: &[f32], clock: i64) {
        let mut off = 0usize;
        for &k in keys {
            let len = self.cfg.proto.layout.len(k);
            let v = &vals[off..off + len];
            off += len;
            let mut shard = self.shard(k).lock();
            match shard.get_mut(&k) {
                Some(e) => {
                    // Never regress freshness (a slow response must not
                    // clobber a newer push).
                    if clock >= e.clock {
                        e.vals.copy_from_slice(v);
                        e.clock = clock;
                    }
                }
                None => {
                    shard.insert(
                        k,
                        CacheEntry {
                            vals: v.to_vec(),
                            clock,
                        },
                    );
                }
            }
        }
    }

    /// Handles a GetResp: installs values and completes the tracker op.
    pub fn on_get_resp(&self, op: u64, keys: &[Key], vals: &[f32], clock: i64) {
        self.install(keys, vals, clock);
        let mut off = 0usize;
        for &k in keys {
            let len = self.cfg.proto.layout.len(k);
            self.tracker
                .complete_key(op, k, Some(&vals[off..off + len]));
            off += len;
        }
    }

    /// Reads a cache entry if it satisfies the staleness bound for a
    /// reader at `reader_clock`.
    fn read_fresh(&self, key: Key, reader_clock: i64, out: &mut [f32]) -> bool {
        let shard = self.shard(key).lock();
        match shard.get(&key) {
            Some(e) if e.clock >= reader_clock - self.cfg.staleness => {
                out.copy_from_slice(&e.vals);
                true
            }
            _ => false,
        }
    }
}

/// SSP worker handle on the simulator backend. Implements [`PsWorker`],
/// so the ML workloads run unchanged against the stale baseline:
/// `pull`/`push` become cache reads / buffered updates, `advance_clock`
/// flushes, and `localize` is a no-op (SSP allocates statically).
pub struct SspWorker<'a> {
    shared: Arc<SspClientShared>,
    ctx: &'a mut TaskCtx<SspProto>,
    slot: usize,
    nodes: usize,
    workers_per_node: usize,
    /// This worker's logical clock.
    clock: i64,
    /// Buffered cumulative updates, flushed at `advance_clock`.
    update_buf: HashMap<Key, Vec<f32>>,
    /// Insertion order of `update_buf` for deterministic flushing.
    update_order: Vec<Key>,
}

impl<'a> SspWorker<'a> {
    /// Creates the worker handle.
    pub fn new(
        shared: Arc<SspClientShared>,
        ctx: &'a mut TaskCtx<SspProto>,
        slot: usize,
        nodes: usize,
        workers_per_node: usize,
    ) -> Self {
        SspWorker {
            shared,
            ctx,
            slot,
            nodes,
            workers_per_node,
            clock: 0,
            update_buf: HashMap::new(),
            update_order: Vec::new(),
        }
    }

    /// Adds the worker's own unflushed updates on top of a fetched value
    /// (read-my-writes).
    fn overlay_own_updates(&self, key: Key, out: &mut [f32]) {
        if let Some(buf) = self.update_buf.get(&key) {
            for (o, &d) in out.iter_mut().zip(buf) {
                *o += d;
            }
        }
    }

    /// Fetches `keys` synchronously from their server shards.
    fn fetch(&mut self, keys: &[Key], out: &mut [f32]) {
        let cfg = &self.shared.cfg.proto;
        let seq = self
            .shared
            .tracker
            .begin(TrackedKind::Pull, self.slot as u16, None);
        let mut groups: OrderedGroups<NodeId, Vec<Key>> = OrderedGroups::new();
        let mut out_off = 0u32;
        self.shared.tracker.add_keys(
            seq,
            false,
            false,
            keys.iter().map(|&k| {
                let len = cfg.layout.len(k) as u32;
                let item = (k, len, out_off);
                out_off += len;
                item
            }),
        );
        for &k in keys {
            groups.entry(cfg.home(k)).push(k);
        }
        for (server, keys) in groups.into_iter() {
            self.ctx.send(
                server,
                SspMsg::Get {
                    node: self.shared.node,
                    op: seq,
                    keys,
                },
            );
        }
        self.shared.tracker.seal(seq);
        let shared = self.shared.clone();
        self.ctx.wait_until(move || shared.tracker.is_done(seq));
        let res = self.shared.tracker.take(seq);
        for (dst_off, res_off, len) in res.assembly {
            out[dst_off as usize..(dst_off + len) as usize]
                .copy_from_slice(&res.result[res_off as usize..(res_off + len) as usize]);
        }
    }
}

impl PsWorker for SspWorker<'_> {
    fn node(&self) -> NodeId {
        self.shared.node
    }

    fn slot(&self) -> usize {
        self.slot
    }

    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn workers_per_node(&self) -> usize {
        self.workers_per_node
    }

    fn value_len(&self, key: Key) -> usize {
        self.shared.cfg.proto.layout.len(key)
    }

    fn pull(&mut self, keys: &[Key], out: &mut [f32]) {
        let cfg = self.shared.cfg.clone();
        // Serve what the cache can; fetch the rest in one grouped round.
        let mut missing: Vec<Key> = Vec::new();
        let mut missing_offs: Vec<usize> = Vec::new();
        let mut off = 0usize;
        for &k in keys {
            let len = cfg.proto.layout.len(k);
            self.ctx.charge(cfg.cache_access_ns + len as u64 * 2);
            if !self
                .shared
                .read_fresh(k, self.clock, &mut out[off..off + len])
            {
                missing.push(k);
                missing_offs.push(off);
            }
            off += len;
        }
        if !missing.is_empty() {
            // One fetch buffer for all missing keys, then scatter.
            let total = cfg.proto.layout.keys_len(&missing);
            let mut buf = vec![0.0f32; total];
            self.fetch(&missing, &mut buf);
            let mut boff = 0usize;
            for (i, &k) in missing.iter().enumerate() {
                let len = cfg.proto.layout.len(k);
                out[missing_offs[i]..missing_offs[i] + len].copy_from_slice(&buf[boff..boff + len]);
                boff += len;
            }
        }
        // Read-my-writes: overlay unflushed own updates.
        let mut off = 0usize;
        for &k in keys {
            let len = cfg.proto.layout.len(k);
            self.overlay_own_updates(k, &mut out[off..off + len]);
            off += len;
        }
    }

    fn push(&mut self, keys: &[Key], vals: &[f32]) {
        let cfg = &self.shared.cfg;
        let mut off = 0usize;
        for &k in keys {
            let len = cfg.proto.layout.len(k);
            self.ctx.charge(cfg.cache_access_ns / 2 + len as u64 * 2);
            match self.update_buf.get_mut(&k) {
                Some(buf) => {
                    for (b, &x) in buf.iter_mut().zip(&vals[off..off + len]) {
                        *b += x;
                    }
                }
                None => {
                    self.update_buf.insert(k, vals[off..off + len].to_vec());
                    self.update_order.push(k);
                }
            }
            off += len;
        }
    }

    fn localize(&mut self, _keys: &[Key]) {
        // SSP allocates statically; localize has no effect (the paper's
        // point in Section 2.2.2: stale PSs can only *emulate* blocking).
    }

    fn pull_async(&mut self, keys: &[Key]) -> lapse_core::OpToken {
        // SSP reads are cache reads; async degenerates to sync.
        let total = self.shared.cfg.proto.layout.keys_len(keys);
        let mut out = vec![0.0f32; total];
        self.pull(keys, &mut out);
        lapse_core::api_internals::ready_pull(out)
    }

    fn push_async(&mut self, keys: &[Key], vals: &[f32]) -> lapse_core::OpToken {
        self.push(keys, vals);
        lapse_core::api_internals::ready_push()
    }

    fn localize_async(&mut self, _keys: &[Key]) -> lapse_core::OpToken {
        lapse_core::api_internals::ready_localize()
    }

    fn wait_pull(&mut self, token: lapse_core::OpToken) -> Vec<f32> {
        lapse_core::api_internals::take_ready_pull(token)
    }

    fn wait(&mut self, _token: lapse_core::OpToken) {}

    fn pull_if_local(&mut self, key: Key, out: &mut [f32]) -> bool {
        self.ctx.charge(self.shared.cfg.cache_access_ns);
        let ok = self.shared.read_fresh(key, self.clock, out);
        if ok {
            self.overlay_own_updates(key, out);
        }
        ok
    }

    fn barrier(&mut self) {
        self.ctx.barrier();
    }

    fn charge(&mut self, ns: u64) {
        self.ctx.charge(ns);
    }

    fn now_ns(&self) -> u64 {
        self.ctx.now()
    }

    fn advance_clock(&mut self) {
        self.clock += 1;
        let cfg = &self.shared.cfg.proto;
        // Flush buffered updates, grouped per server shard, and stamp the
        // new clock. Also fold them into the local cache so later stale
        // reads of this node see them.
        let mut groups: OrderedGroups<NodeId, (Vec<Key>, Vec<f32>)> = OrderedGroups::new();
        for &k in &self.update_order {
            let buf = self.update_buf.remove(&k).expect("ordered key in buffer");
            let entry = groups.entry(cfg.home(k));
            entry.0.push(k);
            entry.1.extend_from_slice(&buf);
        }
        self.update_order.clear();
        let node = self.shared.node;
        let slot = self.slot as u16;
        let clock = self.clock;
        let mut sent_to: Vec<NodeId> = Vec::new();
        for (server, (keys, vals)) in groups.into_iter() {
            sent_to.push(server);
            self.ctx.send(
                server,
                SspMsg::Update {
                    node,
                    slot,
                    clock,
                    keys,
                    vals,
                },
            );
        }
        // Every server must learn the new clock, even those receiving no
        // updates, or the global minimum stalls.
        for s in 0..cfg.nodes {
            let server = NodeId(s);
            if !sent_to.contains(&server) {
                self.ctx.send(
                    server,
                    SspMsg::Update {
                        node,
                        slot,
                        clock,
                        keys: vec![],
                        vals: vec![],
                    },
                );
            }
        }
    }
}
