//! Workspace-level integration tests: the public umbrella API, cross-
//! crate flows, and failure-injection scenarios that span the transport,
//! protocol, runtime, and workloads.

use std::sync::Arc;
use std::time::Duration;

use lapse::core::{run_sim, run_threaded, CostModel, PsConfig, PsWorker};
use lapse::{Key, Variant};

// ---------------------------------------------------------------------------
// public API surface (the paper's Table 2)
// ---------------------------------------------------------------------------

#[test]
fn table2_api_surface() {
    // pull/push/localize, each sync and async, on the threaded runtime.
    let (results, _) = run_threaded(
        PsConfig::new(2, 8, 2),
        1,
        |_| None,
        |w| {
            let k = [Key(5)];
            // sync
            w.push(&k, &[1.0, 2.0]);
            w.localize(&k);
            let mut out = [0.0f32; 2];
            w.pull(&k, &mut out);
            // async
            let t1 = w.push_async(&k, &[1.0, 0.0]);
            w.wait(t1);
            let t2 = w.localize_async(&k);
            w.wait(t2);
            let t3 = w.pull_async(&k);
            let v = w.wait_pull(t3);
            w.barrier();
            v[0]
        },
    );
    assert!(results.iter().all(|&v| v >= 2.0));
}

#[test]
fn umbrella_reexports_are_usable() {
    // Typing through the umbrella crate only.
    let cfg: lapse::PsConfig = lapse::PsConfig::new(1, 4, 1).variant(lapse::Variant::Lapse);
    let (_, stats): (Vec<()>, lapse::ClusterStats) = lapse::run_threaded(
        cfg,
        1,
        |_| None,
        |w| {
            let mut out = [0.0f32];
            w.pull(&[lapse::Key(0)], &mut out);
        },
    );
    assert_eq!(stats.unexpected_relocates, 0);
}

// ---------------------------------------------------------------------------
// cross-backend equivalence
// ---------------------------------------------------------------------------

/// The same deterministic workload produces identical final values on the
/// threaded runtime and the simulator, across variants.
#[test]
fn backends_agree_on_final_state() {
    let body = |w: &mut dyn PsWorker| {
        let gid = w.global_id() as u64;
        for i in 0..50u64 {
            let k = Key((i * 3 + gid) % 16);
            w.push(&[k], &[1.0]);
            if i % 7 == 0 {
                w.localize(&[k]);
            }
        }
        w.barrier();
        let keys: Vec<Key> = (0..16).map(Key).collect();
        let mut out = vec![0.0f32; 16];
        w.pull(&keys, &mut out);
        out
    };
    for variant in [Variant::Classic, Variant::ClassicFastLocal, Variant::Lapse] {
        let cfg = || PsConfig::new(2, 16, 1).variant(variant).latches(4);
        let (threaded, _) = run_threaded(cfg(), 2, |_| None, body);
        let (simulated, _) = run_sim(cfg(), 2, CostModel::default(), |_| None, body);
        // All workers see the same totals after the barrier.
        assert_eq!(threaded[0], simulated[0], "{variant:?}");
        let total: f32 = threaded[0].iter().sum();
        assert_eq!(total, 200.0, "4 workers x 50 pushes ({variant:?})");
    }
}

// ---------------------------------------------------------------------------
// failure injection
// ---------------------------------------------------------------------------

/// Artificial per-link delays widen race windows; correctness must hold.
#[test]
fn delayed_links_do_not_lose_updates() {
    use lapse::net::transport::DelayPolicy;
    use lapse::net::ThreadedNet;
    use lapse::proto::client::{ClientCore, IssueHandle};
    use lapse::proto::messages::Msg;
    use lapse::proto::server::ServerCore;
    use lapse::proto::shard::NodeShared;
    use lapse::proto::ProtoConfig;
    use lapse::utils::metrics::Metrics;

    // A 2-node cluster over a deliberately slow, jittery network.
    let cfg = Arc::new(ProtoConfig::new(2, 8, lapse::Layout::Uniform(1)));
    let policy: DelayPolicy = Arc::new(|src, dst| {
        Duration::from_micros(((src.0 as u64 + 1) * (dst.0 as u64 + 2) * 137) % 1500)
    });
    let net: Arc<ThreadedNet<Msg>> = ThreadedNet::with_delay(2, Metrics::new(), Some(policy));
    let clock: lapse::proto::tracker::ClockFn = Arc::new(|| 0);
    let shareds: Vec<Arc<NodeShared>> = (0..2)
        .map(|n| NodeShared::new(cfg.clone(), lapse::NodeId(n), clock.clone()))
        .collect();
    for sh in &shareds {
        sh.tracker.set_waker(Arc::new(|_, _| {}));
    }

    // Server threads.
    let mut joins = Vec::new();
    for sh in &shareds {
        let node = sh.node;
        let ep = net.take_endpoint(node);
        let sh = sh.clone();
        let net2 = net.clone();
        joins.push(std::thread::spawn(move || {
            let mut server = ServerCore::new(sh);
            let mut sink = Vec::new();
            while let Some(inc) = ep.recv() {
                if matches!(inc.msg, Msg::Shutdown) {
                    return;
                }
                server.handle(inc.msg, &mut sink);
                for (dst, msg) in sink.drain(..) {
                    net2.send(node, dst, msg);
                }
            }
        }));
    }

    // One client on node 0 pushes with interleaved localizes.
    let mut client = ClientCore::new(shareds[0].clone(), 0);
    let mut pending = Vec::new();
    for i in 0..200u64 {
        let k = Key(i % 8);
        let mut sink = Vec::new();
        let h = client.push(&[k], &[1.0], &mut sink);
        for (dst, msg) in sink {
            net.send(lapse::NodeId(0), dst, msg);
        }
        if let IssueHandle::Pending(seq) = h {
            pending.push(seq);
        }
        if i % 13 == 0 {
            let mut sink = Vec::new();
            let h = client.localize(&[k], &mut sink);
            for (dst, msg) in sink {
                net.send(lapse::NodeId(0), dst, msg);
            }
            if let IssueHandle::Pending(seq) = h {
                pending.push(seq);
            }
        }
    }
    // Wait for every op to land despite the delays.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    for seq in pending {
        while !shareds[0].tracker.is_done(seq) {
            assert!(std::time::Instant::now() < deadline, "ops stuck");
            std::thread::sleep(Duration::from_millis(1));
        }
        shareds[0].tracker.discard(seq);
    }
    // Total across both nodes must equal the pushed sum.
    let total: f32 = (0..8)
        .map(|k| {
            shareds
                .iter()
                .find_map(|sh| sh.read_value(Key(k)))
                .expect("key owned somewhere")[0]
        })
        .sum();
    assert_eq!(total, 200.0);

    for n in 0..2 {
        net.send(lapse::NodeId(0), lapse::NodeId(n), Msg::Shutdown);
    }
    for j in joins {
        j.join().unwrap();
    }
}

/// Uneven key spaces (keys not divisible by nodes, more latches than
/// keys) still work.
#[test]
fn uneven_shapes_work() {
    for keys in [1u64, 3, 7, 13] {
        for nodes in [1u16, 2, 3] {
            if u64::from(nodes) > keys {
                continue;
            }
            let cfg = PsConfig::new(nodes, keys, 1).latches(1000);
            let (results, _) = run_sim(
                cfg,
                1,
                CostModel::default(),
                |_| None,
                move |w| {
                    let all: Vec<Key> = (0..keys).map(Key).collect();
                    w.localize(&all);
                    w.push(&all, &vec![1.0f32; keys as usize]);
                    w.barrier();
                    let mut out = vec![0.0f32; keys as usize];
                    w.pull(&all, &mut out);
                    out.iter().sum::<f32>()
                },
            );
            let expect = (keys * nodes as u64) as f32;
            assert!(
                results.iter().all(|&v| v == expect),
                "keys={keys} nodes={nodes}: {results:?}"
            );
        }
    }
}

/// The wire codec round-trips every message produced by a busy cluster
/// (sampling the protocol from outside).
#[test]
fn codec_round_trips_live_traffic() {
    use bytes_like_roundtrip::check_all;
    mod bytes_like_roundtrip {
        use lapse::net::codec::WireCodec;
        use lapse::proto::messages::{LocalizeReqMsg, Msg, OpId, OpKind, OpMsg};
        use lapse::{Key, NodeId};

        pub fn check_all() {
            let msgs = vec![
                Msg::Op(OpMsg {
                    op: OpId::new(NodeId(1), 99),
                    kind: OpKind::Push,
                    keys: (0..100).map(Key).collect(),
                    vals: vec![0.5; 400],
                    routed_by_home: true,
                }),
                Msg::LocalizeReq(LocalizeReqMsg {
                    op: OpId::new(NodeId(0), 1),
                    keys: vec![Key(0); 3],
                }),
            ];
            for m in msgs {
                let mut buf = bytes::BytesMut::new();
                m.encode(&mut buf);
                let mut b = buf.freeze();
                let back = Msg::decode(&mut b).expect("decode");
                assert_eq!(back, m);
            }
        }
    }
    check_all();
}
