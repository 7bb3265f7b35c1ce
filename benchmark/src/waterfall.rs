//! Source B of the per-layer metrics: the hand-cranked waterfall.
//!
//! The protocol is sans-io, so the benchmark builds the parts of a
//! cluster itself — `NodeShared`, `ClientCore`, `ServerCore`,
//! `Coalescer`, `ThreadedNet`, with the flags the threaded backend ships
//! — and steps one operation at a time through each public call on one
//! thread, timing every call. Nothing waits for anything here, so what
//! the layers add up to is the CPU an operation costs; the real
//! two-thread round trip measured beside it gives the hand-off share.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lapse_core::{run_threaded, PsConfig, PsWorker, Variant};
use lapse_ml::opt::AdaGrad;
use lapse_net::codec::{decode_framed, encode_framed};
use lapse_net::{Endpoint, Key, NodeId, ThreadedNet, ValueBlock};
use lapse_proto::client::{ClientCore, MsgSink};
use lapse_proto::coalesce::Coalescer;
use lapse_proto::messages::{LocalizeReqMsg, Msg, OpId};
use lapse_proto::server::ServerCore;
use lapse_proto::storage::ShardStore;
use lapse_proto::tracker::{ClockFn, OpTracker, TrackedKind};
use lapse_proto::{Layout, NodeShared, ProtoConfig, SnapshotReader};
use lapse_utils::metrics::Metrics;

use crate::metrics::{put, Values};
use crate::serve::mf_step;
use crate::spans::{Span, SpanBuf, NO_PARENT};
use crate::stats::median;
use crate::train::{KGE_DIM, MF_RANK};
use crate::Scale;

/// Keys homed on each of the three hand-cranked nodes.
const KEYS_PER_NODE: u64 = 1024;
/// Operations whose steps are kept as spans (the rest only as samples).
const SPAN_OPS: u64 = 64;

/// Times steps and keeps their samples by name.
struct Crank {
    start: Instant,
    timer_ns: f64,
    samples: BTreeMap<&'static str, Vec<f64>>,
    spans: SpanBuf,
    op: u64,
    op_span: u32,
    /// Timer-corrected time of the current operation's on-path steps.
    op_ns: f64,
}

impl Crank {
    fn new(span_capacity: usize) -> Self {
        let start = Instant::now();
        // What one pair of clock reads costs, taken off every sample.
        let pairs: Vec<f64> = (0..20_000)
            .map(|_| {
                let a = start.elapsed();
                (start.elapsed() - a).as_nanos() as f64
            })
            .collect();
        Crank {
            start,
            timer_ns: median(&pairs),
            samples: BTreeMap::new(),
            spans: SpanBuf::with_capacity(span_capacity),
            op: 0,
            op_span: NO_PARENT,
            op_ns: 0.0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn begin_op(&mut self, name: &'static str) {
        self.op += 1;
        self.op_ns = 0.0;
        self.op_span = NO_PARENT;
        if self.op <= SPAN_OPS {
            let t = self.now_ns();
            let span = Span {
                name,
                layer: "op",
                start_ns: t,
                end_ns: t,
                parent: NO_PARENT,
                op_id: self.op,
            };
            self.op_span = self.spans.push(span).unwrap_or(NO_PARENT);
        }
    }

    /// Closes the operation and files its on-path total under `total`.
    fn end_op(&mut self, total: &'static str) {
        if self.op_span != NO_PARENT {
            let t = self.now_ns();
            self.spans.close(self.op_span, t);
        }
        let ns = self.op_ns;
        self.samples.entry(total).or_default().push(ns);
    }

    /// Times `iters` back-to-back calls of `call` as one sample of
    /// `metric` (nanoseconds per call). `on_path` steps count towards
    /// the operation's total.
    fn step_n<R>(
        &mut self,
        metric: &'static str,
        iters: u32,
        on_path: bool,
        mut call: impl FnMut() -> R,
    ) -> R {
        let t0 = self.now_ns();
        let mut out = call();
        for _ in 1..iters {
            out = call();
        }
        let t1 = self.now_ns();
        let ns = ((t1 - t0) as f64 - self.timer_ns).max(0.0) / iters as f64;
        self.samples.entry(metric).or_default().push(ns);
        if on_path {
            self.op_ns += ns;
        }
        if self.op_span != NO_PARENT {
            self.spans.push(Span {
                name: metric,
                layer: metric.split('.').next().unwrap_or(metric),
                start_ns: t0,
                end_ns: t1,
                parent: self.op_span,
                op_id: self.op,
            });
        }
        out
    }

    fn step<R>(&mut self, metric: &'static str, call: impl FnOnce() -> R) -> R {
        let mut call = Some(call);
        self.step_n(metric, 1, true, || {
            call.take().expect("a one-iteration step calls once")()
        })
    }

    fn median(&self, metric: &str) -> f64 {
        self.samples.get(metric).map_or(0.0, |s| median(s))
    }
}

/// Three nodes' worth of protocol parts, wired as the threaded backend
/// wires them.
struct World {
    shared: Vec<Arc<NodeShared>>,
    clients: Vec<ClientCore>,
    servers: Vec<ServerCore>,
    coalescers: Vec<Coalescer>,
    net: Arc<ThreadedNet<Msg>>,
    endpoints: Vec<Endpoint<Msg>>,
}

fn shipped_config(nodes: u16, dim: u32) -> ProtoConfig {
    let mut cfg = ProtoConfig::new(nodes, nodes as u64 * KEYS_PER_NODE, Layout::Uniform(dim));
    // `run_threaded`'s defaults; `ProtoConfig::new` starts them off.
    cfg.wait_free_reads = true;
    cfg.coalesce = true;
    cfg.snapshot_reads = true;
    cfg
}

fn wall_clock() -> ClockFn {
    let start = Instant::now();
    Arc::new(move || start.elapsed().as_nanos() as u64)
}

impl World {
    fn new(dim: u32) -> Self {
        let cfg = Arc::new(shipped_config(3, dim));
        let clock = wall_clock();
        let shared: Vec<Arc<NodeShared>> = (0..3)
            .map(|n| {
                let s = NodeShared::with_init(cfg.clone(), NodeId(n), clock.clone(), |k| {
                    Some(vec![k.0 as f32; dim as usize])
                });
                // Completions are polled here; nobody sleeps on them.
                s.tracker.set_waker(Arc::new(|_, _| {}));
                s
            })
            .collect();
        let net = ThreadedNet::new(3, Metrics::new());
        World {
            clients: shared
                .iter()
                .map(|s| ClientCore::new(s.clone(), 0))
                .collect(),
            servers: shared.iter().map(|s| ServerCore::new(s.clone())).collect(),
            coalescers: (0..3).map(|_| Coalescer::new(&cfg)).collect(),
            endpoints: (0..3).map(|n| net.take_endpoint(NodeId(n))).collect(),
            net,
            shared,
        }
    }

    /// Delivers `sink` (flushed by node `src`) and everything it causes,
    /// timing each layer it passes: coalescer, transport and the
    /// receiving server's handler, named by `handler`.
    fn pump(
        &mut self,
        cr: &mut Crank,
        src: NodeId,
        sink: MsgSink,
        handler: &dyn Fn(&Msg) -> &'static str,
    ) {
        let mut flushed: VecDeque<(NodeId, MsgSink)> = VecDeque::from([(src, sink)]);
        while let Some((src, mut sink)) = flushed.pop_front() {
            if sink.is_empty() {
                continue;
            }
            let mut packed: Vec<(NodeId, Msg)> = Vec::new();
            let coalescer = &mut self.coalescers[src.idx()];
            cr.step("coalesce.pack", || {
                coalescer.pack(&mut sink, &mut |dst, msg| packed.push((dst, msg)))
            });
            for (dst, msg) in packed {
                let (net, endpoint) = (&self.net, &self.endpoints[dst.idx()]);
                let incoming = cr.step("transport.send_recv_ns", || {
                    net.send(src, dst, msg);
                    endpoint.try_recv().expect("a sent message is queued")
                });
                // The server loop: unpack a batch envelope, dispatch the
                // burst as one round.
                let burst = match incoming.msg {
                    Msg::Batch(msgs) => msgs,
                    other => vec![other],
                };
                let name = handler(&burst[0]);
                let mut out = Vec::new();
                let server = &mut self.servers[dst.idx()];
                cr.step(name, || server.handle_batch(burst, &mut out));
                flushed.push_back((dst, out));
            }
        }
    }
}

fn handler_name(msg: &Msg) -> &'static str {
    match msg.label() {
        "op.pull" => "server.op_run64_ns",
        "op.push" => "server.push_run64_ns",
        "op.resp" => "server.op_resp64_ns",
        "reloc.localize" => "server.localize_req",
        "reloc.relocate" => "server.relocate",
        "reloc.handover" => "server.handover",
        other => panic!("unexpected message {other} in the waterfall"),
    }
}

/// Keys `0, 4, 8, …` of `node`'s home range.
fn keys_of(node: u64, n: usize) -> Vec<Key> {
    (0..n as u64)
        .map(|i| Key(node * KEYS_PER_NODE + i * 4))
        .collect()
}

/// Cranks `reps` remote grouped pulls and pushes of `nkeys` keys (node 0
/// asks, node 1 owns) and `reps` three-node relocations.
fn crank_remote_ops(cr: &mut Crank, dim: usize, nkeys: usize, reps: usize) {
    let mut world = World::new(dim as u32);
    let keys = keys_of(1, nkeys);
    let mut out = vec![0.0f32; nkeys * dim];
    let vals = vec![0.001f32; nkeys * dim];
    for _ in 0..reps {
        cr.begin_op("remote_pull");
        let mut sink = Vec::new();
        let client = &mut world.clients[0];
        let handle = cr.step("client.issue_remote64_ns", || {
            client.pull(&keys, Some(&mut out), &mut sink)
        });
        world.pump(cr, NodeId(0), sink, &handler_name);
        let seq = handle.seq().expect("a remote pull is pending");
        assert!(world.shared[0].tracker.is_done(seq));
        let client = &world.clients[0];
        cr.step("client.finish_pull64_ns", || {
            client.finish_pull(seq, &mut out)
        });
        cr.end_op("total.remote_pull");

        cr.begin_op("remote_push");
        let mut sink = Vec::new();
        let client = &mut world.clients[0];
        let handle = cr.step("client.issue_push64_ns", || {
            client.push(&keys, &vals, &mut sink)
        });
        world.pump(cr, NodeId(0), sink, &|m| match handler_name(m) {
            "server.op_resp64_ns" => "server.push_resp",
            name => name,
        });
        let seq = handle.seq().expect("a remote push is pending");
        assert!(world.shared[0].tracker.is_done(seq));
        let client = &world.clients[0];
        cr.step("client.finish_ack", || client.finish_ack(seq));
        cr.end_op("total.remote_push");
    }
    std::hint::black_box(&out);

    // Requester ≠ home ≠ owner: a key homed on node 2 bounces between
    // nodes 0 and 1. The first move (home → node 0) only sets the scene.
    let key = [Key(2 * KEYS_PER_NODE + 7)];
    let mut scene = Crank::new(0);
    for rep in 0..reps + 1 {
        let requester = rep % 2;
        let cr = if rep == 0 { &mut scene } else { &mut *cr };
        cr.begin_op("relocation");
        let mut sink = Vec::new();
        let client = &mut world.clients[requester];
        let handle = cr.step("client.localize_issue_ns", || {
            client.localize(&key, &mut sink)
        });
        world.pump(cr, NodeId(requester as u16), sink, &handler_name);
        let seq = handle.seq().expect("a remote localize is pending");
        assert!(world.shared[requester].tracker.is_done(seq));
        let client = &world.clients[requester];
        cr.step("client.finish_ack", || client.finish_ack(seq));
        cr.end_op("total.relocation");
    }
    assert_eq!(
        world
            .shared
            .iter()
            .map(|s| s.tracker.in_flight())
            .sum::<usize>(),
        0
    );
}

/// The layers an operation never leaves its node for.
fn crank_local_layers(cr: &mut Crank, dim: usize, reps: usize) {
    let mut world = World::new(dim as u32);
    const BATCH: u32 = 16;
    let samples = reps.div_ceil(BATCH as usize);

    // client: the 2-key local pull and push of an MF step.
    let keys = [Key(3), Key(700)];
    let mut out = vec![0.0f32; 2 * dim];
    let delta = vec![0.001f32; 2 * dim];
    let mut sink = Vec::new();
    let client = &mut world.clients[0];
    for _ in 0..samples {
        cr.step_n("client.pull_local2_ns", BATCH, false, || {
            client.pull(&keys, Some(&mut out), &mut sink)
        });
        cr.step_n("client.push_local2_ns", BATCH, false, || {
            client.push(&keys, &delta, &mut sink)
        });
    }
    assert!(sink.is_empty(), "a local op sent a message");

    // shard: the latch in both modes and the seqlock read.
    let shared = &world.shared[0];
    let mut one = vec![0.0f32; dim];
    for _ in 0..samples {
        cr.step_n("shard.read_guard_ns", BATCH, false, || {
            drop(shared.shard_for(Key(3)).read())
        });
        cr.step_n("shard.write_guard_ns", BATCH, false, || {
            drop(shared.shard_for(Key(3)).write())
        });
        cr.step_n("shard.optimistic_read_ns", BATCH, false, || {
            shared.try_optimistic_read(Key(3), false, &mut one)
        });
    }

    // serving: a snapshot read with nobody writing.
    let mut reader = SnapshotReader::new(shared.clone());
    for _ in 0..samples {
        cr.step_n("serving.read_owned_ns", BATCH, false, || {
            reader.read(Key(3), &mut one)
        });
    }

    // storage: one dense store, outside any latch.
    let layout = Layout::Uniform(dim as u32);
    let mut store = ShardStore::dense(&layout, 0, KEYS_PER_NODE);
    for k in 0..KEYS_PER_NODE {
        store.insert(Key(k), &vec![k as f32; dim]);
    }
    let mut k = 0u64;
    let mut next = || {
        k = (k + 17) % KEYS_PER_NODE;
        Key(k)
    };
    for _ in 0..samples {
        cr.step_n("storage.get_ns", BATCH, false, || {
            one.copy_from_slice(store.get(next()).expect("owned"))
        });
        cr.step_n("storage.add_ns", BATCH, false, || {
            store.add(next(), &delta[..dim])
        });
        // What a hand-over costs the two stores it touches.
        cr.step_n("storage.take_insert_ns", BATCH, false, || {
            let key = next();
            let slot = store.take(key).expect("owned");
            one.copy_from_slice(store.slot_slice(slot));
            store.release(slot);
            store.insert_with(key, |dst| dst.copy_from_slice(&one));
        });
    }

    // tracker: what a 64-key remote pull asks of it.
    let tracker = OpTracker::new(wall_clock());
    tracker.set_waker(Arc::new(|_, _| {}));
    let keys64 = keys_of(1, 64);
    let block = ValueBlock::from_f32s(&vec![0.5f32; 64 * dim]);
    for _ in 0..reps.div_ceil(4) {
        cr.step_n("tracker.roundtrip64_ns", 4, false, || {
            let seq = tracker.begin(TrackedKind::Pull, 0, None);
            let items = keys64
                .iter()
                .enumerate()
                .map(|(i, &k)| (k, dim as u32, (i * dim) as u32));
            tracker.add_keys(seq, false, true, items);
            tracker.seal(seq);
            tracker.complete_resp(seq, &keys64, &block);
            tracker.take(seq)
        });
    }

    // coalesce: eight responses for one link become one envelope.
    let resp = Msg::LocalizeReq(LocalizeReqMsg {
        op: OpId::new(NodeId(0), 1),
        keys: keys_of(1, 8),
    });
    let coalescer = &mut world.coalescers[0];
    for _ in 0..samples {
        let mut sink: MsgSink = (0..8).map(|_| (NodeId(1), resp.clone())).collect();
        let mut emitted = Vec::with_capacity(1);
        cr.step_n("coalesce.pack8", 1, false, || {
            coalescer.pack(&mut sink, &mut |dst, msg| emitted.push((dst, msg)))
        });
    }

    // ml: the update kernels at the workloads' dimensions.
    let pulled = vec![0.25f32; 2 * KGE_DIM];
    let grad = vec![0.125f32; KGE_DIM];
    let mut kdelta = vec![0.0f32; 2 * KGE_DIM];
    let ada = AdaGrad { lr: 0.1, eps: 1e-8 };
    let mut mdelta = vec![0.0f32; 2 * MF_RANK];
    for _ in 0..samples {
        cr.step_n("ml.sgd_step_ns", BATCH, false, || {
            mf_step(
                std::hint::black_box(&pulled[..2 * MF_RANK]),
                &mut mdelta,
                0.3,
                0.03,
                0.01,
            )
        });
        cr.step_n("ml.adagrad_delta_ns", BATCH, false, || {
            ada.delta(std::hint::black_box(&pulled), &grad, &mut kdelta)
        });
    }
    std::hint::black_box((&out, &one, &mdelta, &kdelta));
}

/// Round trips of one small message between two threads over the
/// transport, the receiver parked in a blocking `recv` (microseconds).
fn transport_pingpong_us(reps: usize) -> f64 {
    let net: Arc<ThreadedNet<Msg>> = ThreadedNet::new(2, Metrics::new());
    let (here, there) = (net.take_endpoint(NodeId(0)), net.take_endpoint(NodeId(1)));
    let ball = Msg::LocalizeReq(LocalizeReqMsg {
        op: OpId::new(NodeId(0), 1),
        keys: vec![Key(1)],
    });
    let mut samples = Vec::with_capacity(reps);
    std::thread::scope(|scope| {
        let echo_net = net.clone();
        scope.spawn(move || {
            while let Some(incoming) = there.recv() {
                if matches!(incoming.msg, Msg::Shutdown) {
                    return;
                }
                echo_net.send(NodeId(1), NodeId(0), incoming.msg);
            }
        });
        for _ in 0..reps {
            let msg = ball.clone();
            let t0 = Instant::now();
            net.send(NodeId(0), NodeId(1), msg);
            let back = here.recv();
            samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
            assert!(back.is_some());
        }
        net.send(NodeId(0), NodeId(1), Msg::Shutdown);
    });
    median(&samples)
}

/// Round trip of one cache line between two spinning threads
/// (nanoseconds): what the host charges for every word the reader and
/// the trainer of `serve_train` share. It moves with where the
/// hypervisor puts the two vCPUs, and the contended numbers move with it.
fn line_pingpong_ns(reps: usize) -> f64 {
    let line = AtomicU64::new(0);
    let reps = reps as u64;
    let mut round_trips = Vec::with_capacity(64);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..reps {
                while line.load(Ordering::Acquire) != 2 * i + 1 {
                    std::hint::spin_loop();
                }
                line.store(2 * i + 2, Ordering::Release);
            }
        });
        let batch = (reps / 64).max(1);
        let mut t0 = Instant::now();
        for i in 0..reps {
            line.store(2 * i + 1, Ordering::Release);
            while line.load(Ordering::Acquire) != 2 * i + 2 {
                std::hint::spin_loop();
            }
            if (i + 1) % batch == 0 {
                round_trips.push(t0.elapsed().as_nanos() as f64 / batch as f64);
                t0 = Instant::now();
            }
        }
    });
    median(&round_trips)
}

/// Synchronous one-key operations on a real 2×1 threaded cluster: median
/// round trip of a remote pull and of a localize, in microseconds.
fn threaded_rtts_us(dim: usize, reps: usize) -> (f64, f64) {
    let keys = 2 * (reps as u64 + 64);
    let (outs, _) = run_threaded(
        PsConfig::new(2, keys, dim as u32).variant(Variant::Lapse),
        1,
        |_| None,
        move |w: &mut dyn PsWorker| {
            let mut pulls = Vec::new();
            let mut localizes = Vec::new();
            if w.global_id() == 0 {
                let remote = keys / 2;
                let mut buf = vec![0.0f32; dim];
                for i in 0..(reps + 64) as u64 {
                    let t0 = Instant::now();
                    w.pull(&[Key(remote + i % 64)], &mut buf);
                    pulls.push(t0.elapsed().as_nanos() as f64 / 1e3);
                }
                // Each key moves once: every localize is a relocation.
                for i in 0..reps as u64 {
                    let t0 = Instant::now();
                    w.localize(&[Key(remote + 64 + i)]);
                    localizes.push(t0.elapsed().as_nanos() as f64 / 1e3);
                }
            }
            w.barrier();
            (pulls.split_off(pulls.len().min(64)), localizes)
        },
    );
    let (pulls, localizes) = &outs[0];
    (median(pulls), median(localizes))
}

/// Runs the waterfall at value length `dim`: its metrics, and the spans
/// of the first cranked operations.
pub fn run(scale: Scale, dim: usize) -> (Values, SpanBuf) {
    let mut values = Values::new();
    let reps = match scale {
        Scale::Full => 10_000,
        Scale::Smoke => 200,
    };
    let mut cr = Crank::new(SPAN_OPS as usize * 64);
    crank_local_layers(&mut cr, dim, reps);
    crank_remote_ops(&mut cr, dim, 64, reps);
    for name in [
        "ml.sgd_step_ns",
        "ml.adagrad_delta_ns",
        "client.pull_local2_ns",
        "client.push_local2_ns",
        "client.issue_remote64_ns",
        "client.issue_push64_ns",
        "client.finish_pull64_ns",
        "client.localize_issue_ns",
        "shard.read_guard_ns",
        "shard.write_guard_ns",
        "shard.optimistic_read_ns",
        "storage.get_ns",
        "storage.add_ns",
        "storage.take_insert_ns",
        "tracker.roundtrip64_ns",
        "transport.send_recv_ns",
        "server.op_run64_ns",
        "server.push_run64_ns",
        "server.op_resp64_ns",
        "serving.read_owned_ns",
    ] {
        put(&mut values, name, cr.median(name));
    }
    put(
        &mut values,
        "coalesce.pack_ns_per_msg",
        cr.median("coalesce.pack8") / 8.0,
    );
    // One 64-key remote pull on the wire: request plus response.
    let (enc, dec) = codec_of_pull(dim, reps.min(2_000));
    put(&mut values, "codec.encode64_ns", enc);
    put(&mut values, "codec.decode64_ns", dec);
    put(
        &mut values,
        "server.relocate_chain_ns",
        cr.median("server.localize_req")
            + cr.median("server.relocate")
            + cr.median("server.handover"),
    );
    put(
        &mut values,
        "transport.pingpong_rtt_us",
        transport_pingpong_us(reps),
    );
    put(
        &mut values,
        "host.line_pingpong_ns",
        line_pingpong_ns(20 * reps),
    );

    // The reconciliation row: the same one-key operations cranked by hand
    // (CPU of every layer) and run on a real cluster (round trip).
    let mut one = Crank::new(0);
    crank_remote_ops(&mut one, dim, 1, reps.min(4_000));
    let pull_cpu_us = one.median("total.remote_pull") / 1e3;
    let localize_cpu_us = one.median("total.relocation") / 1e3;
    let (pull_rtt_us, localize_rtt_us) = threaded_rtts_us(dim, reps.min(4_000));
    put(&mut values, "threaded.remote_pull1_rtt_us", pull_rtt_us);
    put(&mut values, "threaded.remote_pull1_cpu_us", pull_cpu_us);
    put(&mut values, "threaded.localize1_rtt_us", localize_rtt_us);
    put(&mut values, "threaded.localize1_cpu_us", localize_cpu_us);
    put(
        &mut values,
        "threaded.handoff_share",
        1.0 - pull_cpu_us / pull_rtt_us.max(f64::MIN_POSITIVE),
    );
    (values, cr.spans)
}

/// `encode_framed` / `decode_framed` of the two messages of one 64-key
/// remote pull (request and response), summed: `(encode ns, decode ns)`.
fn codec_of_pull(dim: usize, reps: usize) -> (f64, f64) {
    let mut cr = Crank::new(0);
    let mut world = World::new(dim as u32);
    let keys = keys_of(1, 64);
    let mut out = vec![0.0f32; 64 * dim];
    let mut sink = Vec::new();
    let handle = world.clients[0].pull(&keys, Some(&mut out), &mut sink);
    let (_, request) = sink.pop().expect("one request");
    let mut resp_sink = Vec::new();
    world.servers[1].handle_batch(vec![request.clone()], &mut resp_sink);
    let (_, response) = resp_sink.pop().expect("one response");
    for _ in 0..reps {
        for (name_enc, name_dec, msg) in [
            ("enc.req", "dec.req", &request),
            ("enc.resp", "dec.resp", &response),
        ] {
            let framed = cr.step_n(name_enc, 1, false, || {
                encode_framed(NodeId(0), NodeId(1), msg)
            });
            let mut bytes = framed.freeze();
            cr.step_n(name_dec, 1, false, || {
                decode_framed::<Msg>(&mut bytes).expect("own frame decodes")
            });
        }
    }
    // Leave the tracker clean.
    world.servers[0].handle_batch(vec![response], &mut Vec::new());
    world.clients[0].finish_pull(handle.seq().expect("pending"), &mut out);
    (
        cr.median("enc.req") + cr.median("enc.resp"),
        cr.median("dec.req") + cr.median("dec.resp"),
    )
}
