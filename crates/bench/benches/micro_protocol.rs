//! Criterion microbenchmarks of the protocol core (Section 3.2 claims):
//! a relocation costs at most three messages and little processing; op
//! dispatch and queue draining are cheap.
//!
//! With `LAPSE_SMOKE` set, the timing benchmarks are skipped and a
//! deterministic protocol exercise runs instead (fixed op sequence,
//! round-robin delivery): its output — message/hop counts, access
//! statistics, value-plane accounting, and a value checksum — must be
//! bit-identical across runs and across behaviour-preserving refactors
//! (`make bench-smoke` runs it twice and diffs).

use criterion::{criterion_group, Criterion};

use lapse_net::{Key, NodeId};
use lapse_proto::testkit::TestCluster;
use lapse_proto::{Layout, ProtoConfig};

fn cfg() -> ProtoConfig {
    let mut c = ProtoConfig::new(4, 1024, Layout::Uniform(16));
    c.latches = 64;
    c
}

fn bench_relocation(c: &mut Criterion) {
    c.bench_function("relocation_round_trip", |b| {
        let mut cluster = TestCluster::new(cfg(), 1);
        let mut flip = false;
        b.iter(|| {
            // Bounce one key between n0 and n1 (home n2 stays fixed).
            let k = [Key(600)];
            let node = if flip { NodeId(0) } else { NodeId(1) };
            flip = !flip;
            cluster.localize_now(node, 0, &k);
        });
    });
}

fn bench_remote_pull(c: &mut Criterion) {
    c.bench_function("remote_pull_forwarded", |b| {
        let mut cluster = TestCluster::new(cfg(), 1);
        b.iter(|| {
            // Key homed (and owned) at n2, pulled from n0: 2 messages.
            let v = cluster.pull_now(NodeId(0), 0, &[Key(700)]);
            criterion::black_box(v);
        });
    });
}

fn bench_remote_pull_grouped(c: &mut Criterion) {
    c.bench_function("remote_pull_grouped_64keys", |b| {
        let mut cluster = TestCluster::new(cfg(), 1);
        // 64 keys homed (and owned) at n2, pulled from n0 as one grouped
        // op: one request and one grouped response.
        let keys: Vec<Key> = (0..64).map(|i| Key(512 + i * 4)).collect();
        b.iter(|| {
            let v = cluster.pull_now(NodeId(0), 0, &keys);
            criterion::black_box(v);
        });
    });
}

fn bench_local_fast_path(c: &mut Criterion) {
    c.bench_function("local_fast_path_pull", |b| {
        let mut cluster = TestCluster::new(cfg(), 1);
        // Key 0 is homed at n0.
        let mut out = vec![0.0f32; 16];
        b.iter(|| {
            let mut sink = Vec::new();
            let h = cluster.nodes[0].clients[0].pull(&[Key(0)], Some(&mut out), &mut sink);
            assert!(sink.is_empty());
            criterion::black_box(&h);
        });
    });
}

fn bench_grouped_push(c: &mut Criterion) {
    c.bench_function("grouped_push_64keys", |b| {
        let mut cluster = TestCluster::new(cfg(), 1);
        let keys: Vec<Key> = (0..64).map(|i| Key(i * 16)).collect();
        let vals = vec![0.01f32; 64 * 16];
        b.iter(|| {
            cluster.push_now(NodeId(0), 0, &keys, &vals);
        });
    });
}

/// The threaded backend's configuration (`run_threaded` turns the
/// wait-free read path on), three nodes so that requester, home and old
/// owner of a relocated key are three different nodes, 64-byte values.
fn shipped_cfg() -> ProtoConfig {
    let mut c = ProtoConfig::new(3, 3 * 2048, Layout::Uniform(16));
    c.wait_free_reads = true;
    c
}

/// One pre-localize of Appendix A's size, hand-cranked on one thread:
/// node 0 localizes 1 000 keys of which 800 are already there and every
/// fifth is owned by node 1 and homed at node 2 — the issue at the client
/// plus the three handlers of the 200-key relocation it starts. Untimed,
/// node 1 then takes its 200 keys back.
fn bench_localize_1000(c: &mut Criterion) {
    c.bench_function("localize_1000_keys_20pct_remote", |b| {
        let mut cluster = TestCluster::new(shipped_cfg(), 1);
        let remote: Vec<Key> = (0..200).map(|i| Key(2 * 2048 + 8 * i)).collect();
        let keys: Vec<Key> = (0..1000)
            .map(|i| {
                if i % 5 == 4 {
                    remote[i / 5]
                } else {
                    Key(2 * i as u64)
                }
            })
            .collect();
        cluster.localize_now(NodeId(1), 0, &remote);
        b.iter_custom(|iters| {
            let mut timed = std::time::Duration::ZERO;
            for _ in 0..iters {
                let start = std::time::Instant::now();
                cluster.localize_now(NodeId(0), 0, &keys);
                timed += start.elapsed();
                cluster.localize_now(NodeId(1), 0, &remote);
            }
            timed
        });
    });
}

/// The last hop of a relocation alone: the new owner's server handles a
/// 256-key `HandOver` (install 256 values, complete 256 waiting
/// localizes of one operation). The two hops before it and the way back
/// are untimed.
fn bench_handover_256(c: &mut Criterion) {
    use lapse_proto::testkit::IssueOp;
    c.bench_function("handover_256_keys", |b| {
        let mut cluster = TestCluster::new(shipped_cfg(), 1);
        let keys: Vec<Key> = (0..256).map(|i| Key(2 * 2048 + 8 * i)).collect();
        cluster.localize_now(NodeId(1), 0, &keys);
        b.iter_custom(|iters| {
            let mut timed = std::time::Duration::ZERO;
            for _ in 0..iters {
                let handle = cluster.issue(NodeId(0), 0, IssueOp::Localize(&keys), None);
                cluster.deliver_one(NodeId(0), NodeId(2)); // LocalizeReq at home
                cluster.deliver_one(NodeId(2), NodeId(1)); // Relocate at old owner
                let start = std::time::Instant::now();
                cluster.deliver_one(NodeId(1), NodeId(0)); // HandOver at new owner
                timed += start.elapsed();
                assert!(cluster.op_done(NodeId(0), &handle));
                let seq = handle.seq().expect("a remote localize is pending");
                cluster.nodes[0].clients[0].finish_ack(seq);
                cluster.localize_now(NodeId(1), 0, &keys);
            }
            timed
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_relocation, bench_remote_pull, bench_remote_pull_grouped, bench_local_fast_path, bench_grouped_push, bench_localize_1000, bench_handover_256
}

/// Deterministic smoke run: a fixed mix of the benchmarked scenarios at
/// tiny scale, printing only schedule-independent counters (message
/// hops, access statistics, value-plane accounting, a value checksum).
fn smoke() {
    use lapse_proto::client::IssueHandle;
    use lapse_proto::testkit::IssueOp;
    println!("micro_protocol smoke (deterministic, LAPSE_SMOKE)");
    let mut c = ProtoConfig::new(4, 256, Layout::Uniform(8));
    c.latches = 16;
    let mut cluster = TestCluster::new(c, 2);
    let mut hops = 0u64;
    // Issues one op, drains the cluster counting delivered messages, and
    // releases the tracker entry (pulls are assembled by the caller).
    fn run_op(
        cluster: &mut TestCluster,
        hops: &mut u64,
        node: NodeId,
        slot: usize,
        op: IssueOp<'_>,
        out: Option<&mut [f32]>,
    ) {
        let is_pull = matches!(op, IssueOp::Pull(_));
        let h = cluster.issue(node, slot, op, out);
        cluster.run_until_quiet_counting(hops);
        if let IssueHandle::Pending(seq) = h {
            if is_pull {
                let _ = cluster.nodes[node.idx()].clients[slot].take_pull(seq);
            } else {
                cluster.nodes[node.idx()].clients[slot].finish_ack(seq);
            }
        }
    }

    // Relocation ping-pong with parked traffic.
    for round in 0..8u64 {
        let k = [Key(200)];
        let node = NodeId((round % 2) as u16);
        run_op(
            &mut cluster,
            &mut hops,
            node,
            0,
            IssueOp::Localize(&k),
            None,
        );
        run_op(
            &mut cluster,
            &mut hops,
            NodeId(1 - node.0),
            1,
            IssueOp::Push(&k, &[1.0; 8]),
            None,
        );
    }
    // Grouped remote pulls and pushes (keys homed at n3).
    let keys: Vec<Key> = (192..224).map(Key).collect();
    let vals = vec![0.5f32; 32 * 8];
    let mut checksum = 0.0f64;
    for _ in 0..4 {
        run_op(
            &mut cluster,
            &mut hops,
            NodeId(0),
            0,
            IssueOp::Push(&keys, &vals),
            None,
        );
        let mut pulled = vec![0.0f32; 32 * 8];
        let h = cluster.issue(NodeId(1), 1, IssueOp::Pull(&keys), Some(&mut pulled));
        cluster.run_until_quiet_counting(&mut hops);
        if let IssueHandle::Pending(seq) = h {
            cluster.nodes[1].clients[1].finish_pull(seq, &mut pulled);
        }
        checksum += pulled.iter().map(|&x| x as f64).sum::<f64>();
    }
    // Local fast path (no messages, so no hops).
    let mut out = [0.0f32; 8];
    for k in 0..16u64 {
        let _ = cluster.pull_now(NodeId(0), 0, &[Key(k)]);
    }
    let local = cluster.pull_now(NodeId(0), 1, &[Key(3)]);
    out.copy_from_slice(&local);
    cluster.check_ownership_invariant();

    let mut stats = lapse_proto::shard::AccessStats::default();
    for n in &cluster.nodes {
        stats += n.shared.stats();
    }
    println!("message hops delivered: {hops}");
    println!(
        "pull keys: local {}, remote {}",
        stats.pull_local, stats.pull_remote
    );
    println!(
        "relocations {}, handovers {}",
        stats.relocations, stats.handovers
    );
    println!("value plane: {} bytes moved", stats.value_bytes_moved);
    println!("pull checksum {checksum:.3}, local probe {:?}", &out[..2]);
    println!("in-flight ops at quiescence: {}", cluster.in_flight_ops());
}

fn main() {
    if std::env::var("LAPSE_SMOKE").is_ok() {
        smoke();
        return;
    }
    benches();
}
