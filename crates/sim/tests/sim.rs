//! Simulator behaviour tests, using a minimal counter protocol.

#![allow(
    clippy::disallowed_methods,
    reason = "a test file: the determinism bans guard the crate's protocol paths, not the tests that drive them"
)]

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lapse_net::{NodeId, WireSize};
use lapse_sim::{CostModel, SimCluster, SimProtocol};

/// Toy protocol: `Add` increments a per-node counter and acknowledges to
/// the sender; `Ack` raises a task notification.
#[derive(Debug)]
enum TestMsg {
    Add {
        amount: u64,
        reply_to: NodeId,
        task: usize,
    },
    Ack {
        task: usize,
    },
}

impl WireSize for TestMsg {
    fn wire_bytes(&self) -> usize {
        match self {
            TestMsg::Add { .. } => 24,
            TestMsg::Ack { .. } => 8,
        }
    }
}

struct TestServer {
    node: NodeId,
    counter: Arc<AtomicU64>,
    /// Ack plumbing installed before the run.
    acks: Arc<AckBoard>,
}

/// Wakes the simulated task that owns a completed ack.
type TaskNotifier = Box<dyn Fn(usize) + Send + Sync>;

/// Completion board: pending acks per task, plus the simulator notifier.
#[derive(Default)]
struct AckBoard {
    pending: Mutex<Vec<u64>>, // outstanding acks per task
    notify: Mutex<Option<TaskNotifier>>,
}

impl AckBoard {
    fn expect(&self, task: usize) {
        self.pending.lock()[task] += 1;
    }
    fn ack(&self, task: usize) {
        self.pending.lock()[task] -= 1;
        if let Some(n) = &*self.notify.lock() {
            n(task);
        }
    }
    fn done(&self, task: usize) -> bool {
        self.pending.lock()[task] == 0
    }
}

struct TestProto;

impl SimProtocol for TestProto {
    type Msg = TestMsg;
    type Server = TestServer;

    fn handle(server: &mut TestServer, msg: TestMsg, out: &mut Vec<(NodeId, TestMsg)>) {
        match msg {
            TestMsg::Add {
                amount,
                reply_to,
                task,
            } => {
                server.counter.fetch_add(amount, Ordering::Relaxed);
                let _ = server.node;
                out.push((reply_to, TestMsg::Ack { task }));
            }
            TestMsg::Ack { task } => {
                server.acks.ack(task);
            }
        }
    }

    fn msg_load(_msg: &TestMsg) -> (u64, u64) {
        (1, 0)
    }
}

fn build(
    nodes: u16,
    workers: usize,
    cost: CostModel,
) -> (SimCluster<TestProto>, Vec<Arc<AtomicU64>>, Arc<AckBoard>) {
    let counters: Vec<Arc<AtomicU64>> = (0..nodes).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let acks = Arc::new(AckBoard::default());
    *acks.pending.lock() = vec![0; nodes as usize * workers];
    let servers = (0..nodes)
        .map(|n| TestServer {
            node: NodeId(n),
            counter: counters[n as usize].clone(),
            acks: acks.clone(),
        })
        .collect();
    let cluster = SimCluster::new(cost, servers, workers);
    // Wire ack notifications into the scheduler.
    let shared = cluster.shared().clone();
    *acks.notify.lock() = Some(Box::new(move |task| shared.notify_task(task)));
    (cluster, counters, acks)
}

#[test]
fn sync_round_trip_costs_two_latencies() {
    let cost = CostModel::default();
    let expect_min = 2 * cost.net_latency_ns; // two hops, plus service time
    let (cluster, counters, acks) = build(2, 1, cost);
    let acks2 = acks.clone();
    let (report, times, _servers) = cluster.run(move |ctx, node, _slot| {
        if node == NodeId(0) {
            let task = ctx.id();
            acks2.expect(task);
            ctx.send(
                NodeId(1),
                TestMsg::Add {
                    amount: 7,
                    reply_to: NodeId(0),
                    task,
                },
            );
            ctx.wait_until(|| acks2.done(task));
        }
        ctx.now()
    });
    assert_eq!(counters[1].load(Ordering::Relaxed), 7);
    let t0 = times[0];
    assert!(
        t0 >= expect_min,
        "round trip {t0} < 2 latencies {expect_min}"
    );
    assert!(
        t0 < expect_min + 100_000,
        "round trip {t0} unreasonably slow"
    );
    assert_eq!(report.messages, 2);
}

#[test]
fn self_messages_use_ipc_latency() {
    let cost = CostModel::default();
    let expect_min = 2 * cost.self_latency_ns;
    let expect_max = expect_min + 50_000;
    let (cluster, counters, acks) = build(1, 1, cost);
    let acks2 = acks.clone();
    let (report, times, _servers) = cluster.run(move |ctx, node, _| {
        let task = ctx.id();
        acks2.expect(task);
        ctx.send(
            node,
            TestMsg::Add {
                amount: 1,
                reply_to: node,
                task,
            },
        );
        ctx.wait_until(|| acks2.done(task));
        ctx.now()
    });
    assert_eq!(counters[0].load(Ordering::Relaxed), 1);
    assert!(
        times[0] >= expect_min && times[0] < expect_max,
        "{}",
        times[0]
    );
    assert_eq!(report.self_messages, 2);
}

#[test]
fn charge_accumulates_virtual_time_without_wall_time() {
    let (cluster, _counters, _acks) = build(1, 2, CostModel::default());
    let wall_start = std::time::Instant::now();
    let (report, times, _servers) = cluster.run(move |ctx, _node, slot| {
        // Each worker "computes" for one virtual hour.
        for _ in 0..3600 {
            ctx.charge(1_000_000_000);
        }
        let _ = slot;
        ctx.now()
    });
    // Virtual: an hour. Wall: well under a minute.
    for t in times {
        assert_eq!(t, 3600 * 1_000_000_000);
    }
    assert_eq!(report.virtual_time_ns, 3600 * 1_000_000_000);
    assert!(wall_start.elapsed().as_secs() < 60);
}

#[test]
fn workers_advance_concurrently_in_virtual_time() {
    // Two workers each compute 1 virtual second; total virtual time must
    // be ~1 s (parallel), not 2 s (serial).
    let (cluster, _c, _a) = build(1, 2, CostModel::default());
    let (report, _times, _servers) = cluster.run(move |ctx, _n, _s| {
        for _ in 0..1000 {
            ctx.charge(1_000_000);
        }
        ctx.now()
    });
    let secs = report.virtual_time_ns as f64 / 1e9;
    assert!(
        (0.99..1.05).contains(&secs),
        "virtual time {secs}s not parallel"
    );
}

#[test]
fn barrier_aligns_workers_to_slowest() {
    let (cluster, _c, _a) = build(2, 2, CostModel::default());
    let (_report, times, _servers) = cluster.run(move |ctx, node, slot| {
        // Distinct compute amounts per worker.
        let work = (node.idx() as u64 * 2 + slot as u64 + 1) * 100_000_000;
        ctx.charge(work);
        ctx.barrier();
        ctx.now()
    });
    // After the barrier every worker resumes at the max (400 ms).
    for &t in &times {
        assert_eq!(t, 400_000_000, "barrier must release all at max time");
    }
}

#[test]
fn server_is_a_serial_resource() {
    // Many zero-latency-apart sends to the same server must serialize on
    // its per-message service time.
    let cost = CostModel {
        server_per_msg_ns: 1_000_000, // 1 ms per message, dwarfs the rest
        ..Default::default()
    };
    let sends = 50u64;
    let (cluster, counters, acks) = build(2, 1, cost.clone());
    let acks2 = acks.clone();
    let (report, _, _) = cluster.run(move |ctx, node, _| {
        if node == NodeId(0) {
            let task = ctx.id();
            for _ in 0..sends {
                acks2.expect(task);
                ctx.send(
                    NodeId(1),
                    TestMsg::Add {
                        amount: 1,
                        reply_to: NodeId(0),
                        task,
                    },
                );
            }
            ctx.wait_until(|| acks2.done(task));
        }
        ctx.now()
    });
    assert_eq!(counters[1].load(Ordering::Relaxed), sends);
    // All 50 messages serialize at the server: ≥ 50 ms of service time.
    assert!(
        report.virtual_time_ns >= sends * cost.server_per_msg_ns,
        "virtual time {} too small for serialized service",
        report.virtual_time_ns
    );
}

#[test]
fn bandwidth_serializes_egress() {
    // A huge message followed by a small one: the small one cannot arrive
    // before the big one finished transmitting (per-NIC serialization →
    // per-link FIFO).
    #[derive(Debug)]
    struct Big(Vec<f32>, usize);
    impl WireSize for Big {
        fn wire_bytes(&self) -> usize {
            self.0.len() * 4
        }
    }
    struct Recorder {
        arrivals: Arc<Mutex<Vec<usize>>>,
    }
    struct P2;
    impl SimProtocol for P2 {
        type Msg = Big;
        type Server = Recorder;
        fn handle(s: &mut Recorder, msg: Big, _out: &mut Vec<(NodeId, Big)>) {
            s.arrivals.lock().push(msg.1);
        }
        fn msg_load(_m: &Big) -> (u64, u64) {
            (0, 0)
        }
    }
    let arrivals = Arc::new(Mutex::new(Vec::new()));
    let servers = vec![
        Recorder {
            arrivals: arrivals.clone(),
        },
        Recorder {
            arrivals: arrivals.clone(),
        },
    ];
    let cluster: SimCluster<P2> = SimCluster::new(CostModel::default(), servers, 1);
    let (_report, _, _) = cluster.run(move |ctx, node, _| {
        if node == NodeId(0) {
            ctx.send(NodeId(1), Big(vec![0.0; 250_000], 1)); // 1 MB ≈ 800 µs tx
            ctx.send(NodeId(1), Big(vec![0.0; 1], 2));
        }
    });
    assert_eq!(*arrivals.lock(), vec![1, 2], "per-link FIFO violated");
}

#[test]
fn deterministic_given_same_seed_free_workload() {
    let run = || {
        let (cluster, counters, acks) = build(3, 2, CostModel::default());
        let acks2 = acks.clone();
        let (report, times, _servers) = cluster.run(move |ctx, node, slot| {
            let task = ctx.id();
            for i in 0..20u64 {
                let dst = NodeId(((node.idx() + 1 + (i as usize + slot) % 2) % 3) as u16);
                acks2.expect(task);
                ctx.send(
                    dst,
                    TestMsg::Add {
                        amount: i,
                        reply_to: node,
                        task,
                    },
                );
                ctx.charge(5_000);
                if i % 3 == 0 {
                    ctx.wait_until(|| acks2.done(task));
                }
            }
            ctx.wait_until(|| acks2.done(task));
            ctx.barrier();
            ctx.now()
        });
        let counts: Vec<u64> = counters.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        (report.virtual_time_ns, report.messages, counts, times)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "simulation must be deterministic");
}

#[test]
fn worker_panics_propagate() {
    let (cluster, _c, _a) = build(1, 1, CostModel::default());
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        cluster.run(|_ctx, _n, _s| -> () {
            panic!("workload exploded");
        });
    }));
    let err = outcome.expect_err("panic must propagate");
    let text = err
        .downcast_ref::<&str>()
        .copied()
        .map(String::from)
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        text.contains("workload exploded"),
        "unexpected payload {text}"
    );
}

#[test]
#[should_panic(expected = "simulation deadlock")]
fn forgotten_completion_is_a_deadlock() {
    let (cluster, _c, acks) = build(1, 1, CostModel::default());
    let acks2 = acks.clone();
    let _ = cluster.run(move |ctx, _n, _s| {
        let task = ctx.id();
        acks2.expect(task); // nobody will ever ack
        ctx.wait_until(|| acks2.done(task));
    });
}
