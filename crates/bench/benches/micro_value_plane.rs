//! Value-plane microbenchmark: ops/sec and bytes/op for pull and push at
//! value dimensions 4 / 64 / 512, on the sans-io protocol core.
//!
//! Three paths per dimension:
//!
//! * **local pull** — the owned-local shared-memory sync path (must stay
//!   allocation-free: store slot → caller buffer, one latch, no
//!   tracker);
//! * **remote pull** — a 64-key grouped pull served by a remote owner
//!   (request → grouped response block → tracker → caller buffer);
//! * **remote push** — a 64-key grouped push applied by a remote owner.
//!
//! `bytes/op` is the deterministic value-plane accounting
//! (`value_bytes_moved` delta per operation); timings are wall-clock.
//! Component probes for the [`ValueBlock`] primitives run first so a
//! regression can be attributed to the block codec vs the protocol path.

use std::time::Instant;

use lapse_bench::banner;
use lapse_ml::opt::{AdaGrad, Sgd};
use lapse_net::{Key, NodeId, ValueBlockBuilder};
use lapse_proto::testkit::TestCluster;
use lapse_proto::{Layout, ProtoConfig};
use lapse_utils::fmt;
use lapse_utils::table::Table;

const KEYS_PER_OP: usize = 64;
const KEY_SPACE: u64 = 1024;

fn cfg(dim: u32) -> ProtoConfig {
    let mut c = ProtoConfig::new(4, KEY_SPACE, Layout::Uniform(dim));
    c.latches = 64;
    c
}

/// Times `iters` runs of `f` and returns ns per run.
fn time_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    // Warm up.
    for _ in 0..iters.min(100) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Best-of-`reps` timing: the minimum is robust against scheduler
/// interference on loaded hosts, where a single preemption inside one
/// timing window can double a nanosecond-scale mean.
fn time_ns_min(reps: u32, iters: u64, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| time_ns(iters, &mut f))
        .fold(f64::INFINITY, f64::min)
}

fn block_probes(dim: usize) -> (f64, f64) {
    let vals = vec![0.5f32; dim];
    let build = time_ns(200_000 / dim.max(1) as u64 + 1000, || {
        let mut b = ValueBlockBuilder::with_capacity(KEYS_PER_OP * dim);
        for _ in 0..KEYS_PER_OP {
            b.push_slice(&vals);
        }
        std::hint::black_box(b.finish());
    });
    let block = {
        let mut b = ValueBlockBuilder::with_capacity(KEYS_PER_OP * dim);
        for _ in 0..KEYS_PER_OP {
            b.push_slice(&vals);
        }
        b.finish()
    };
    let mut out = vec![0.0f32; dim];
    let read = time_ns(200_000 / dim.max(1) as u64 + 1000, || {
        let mut off = 0;
        for _ in 0..KEYS_PER_OP {
            std::hint::black_box(&block).copy_to(off, &mut out);
            off += dim;
        }
        std::hint::black_box(&out);
    });
    (build, read)
}

/// Scalar reference for [`Sgd::delta`]: same per-element arithmetic,
/// bounds-checked indexed form (the shape the optimizer had before the
/// kernel split). `inline(never)` keeps the comparison honest.
#[inline(never)]
fn sgd_ref(lr: f32, grad: &[f32], delta: &mut [f32]) {
    for i in 0..delta.len().min(grad.len()) {
        delta[i] = -lr * grad[i];
    }
}

/// Scalar reference for [`AdaGrad::delta`]: the fused loop with strided
/// `delta[i]` / `delta[d + i]` writes that the split-pass kernel
/// replaced. Identical per-element arithmetic.
#[inline(never)]
fn adagrad_ref(lr: f32, eps: f32, pulled: &[f32], grad: &[f32], delta: &mut [f32]) {
    let d = grad.len();
    for i in 0..d {
        let g = grad[i];
        let g2 = g * g;
        let a = pulled[d + i] + g2;
        delta[i] = -lr * g / (a + eps).sqrt();
        delta[d + i] = g2;
    }
}

/// Times the vectorized update kernels against their scalar references
/// at dimension `dim` and returns `(kernel, kernel ns/op, ref ns/op)`
/// rows. When `strict`, asserts the restructured kernels keep at least
/// 0.8x of the reference throughput — the kernel split exists to speed
/// these loops up, so falling *behind* the fused form is a regression.
fn kernel_probes(dim: usize, strict: bool) -> Vec<(String, f64, f64)> {
    let iters = (2_000_000 / dim.max(1)) as u64;
    let grad = vec![0.125f32; dim];
    let mut delta = vec![0.0f32; 2 * dim];
    let pulled = vec![0.25f32; 2 * dim];

    let sgd = Sgd { lr: 0.1 };
    let sgd_ns = time_ns_min(5, iters, || {
        sgd.delta(std::hint::black_box(&grad), &mut delta[..dim]);
        std::hint::black_box(&delta);
    });
    let sgd_ref_ns = time_ns_min(5, iters, || {
        sgd_ref(0.1, std::hint::black_box(&grad), &mut delta[..dim]);
        std::hint::black_box(&delta);
    });

    let ada = AdaGrad { lr: 0.1, eps: 1e-8 };
    let ada_ns = time_ns_min(5, iters, || {
        ada.delta(
            std::hint::black_box(&pulled),
            std::hint::black_box(&grad),
            &mut delta,
        );
        std::hint::black_box(&delta);
    });
    let ada_ref_ns = time_ns_min(5, iters, || {
        adagrad_ref(
            0.1,
            1e-8,
            std::hint::black_box(&pulled),
            std::hint::black_box(&grad),
            &mut delta,
        );
        std::hint::black_box(&delta);
    });

    let rows = vec![
        ("sgd".to_string(), sgd_ns, sgd_ref_ns),
        ("adagrad".to_string(), ada_ns, ada_ref_ns),
    ];
    if strict {
        for (name, ns, ref_ns) in &rows {
            assert!(
                *ns <= ref_ns / 0.8,
                "{name} kernel at dim {dim} slower than 0.8x its scalar \
                 reference: {ns:.1} ns vs {ref_ns:.1} ns"
            );
        }
    }
    rows
}

struct PathResult {
    local_ns: f64,
    remote_pull_ns: f64,
    remote_push_ns: f64,
    pull_bytes_per_op: u64,
}

fn measure_paths(dim: u32) -> PathResult {
    // n0 pulls keys homed (and owned) at n2.
    let remote_keys: Vec<Key> = (512..512 + KEYS_PER_OP as u64).map(Key).collect();
    let local_keys: Vec<Key> = (0..KEYS_PER_OP as u64).map(Key).collect();
    let vals = vec![0.01f32; KEYS_PER_OP * dim as usize];
    let mut out = vec![0.0f32; KEYS_PER_OP * dim as usize];

    let mut cluster = TestCluster::new(cfg(dim), 1);
    let local_ns = time_ns(20_000, || {
        let mut sink = Vec::new();
        let h = cluster.nodes[0].clients[0].pull(&local_keys, Some(&mut out), &mut sink);
        debug_assert!(sink.is_empty());
        std::hint::black_box(&h);
    });

    let mut cluster = TestCluster::new(cfg(dim), 1);
    let before = cluster.nodes.iter().map(value_bytes).sum::<u64>();
    let iters = 5_000u64;
    let remote_pull_ns = time_ns(iters, || {
        let v = cluster.pull_now(NodeId(0), 0, &remote_keys);
        std::hint::black_box(&v);
    });
    let after = cluster.nodes.iter().map(value_bytes).sum::<u64>();
    // The warm-up runs `min(iters, 100)` extra ops before the timed loop.
    let pull_ops = iters + iters.min(100);
    let pull_bytes_per_op = (after - before) / pull_ops;

    let mut cluster = TestCluster::new(cfg(dim), 1);
    let remote_push_ns = time_ns(5_000, || {
        cluster.push_now(NodeId(0), 0, &remote_keys, &vals);
    });

    PathResult {
        local_ns,
        remote_pull_ns,
        remote_push_ns,
        pull_bytes_per_op,
    }
}

fn value_bytes(node: &lapse_proto::testkit::TestNode) -> u64 {
    node.shared.stats().value_bytes_moved
}

fn main() {
    banner(
        "micro_value_plane",
        "value-plane ops/sec and bytes/op (64-key grouped ops)",
    );
    let mut table = Table::new(
        "micro_value_plane — 64-key grouped ops",
        &[
            "dim",
            "local pull ns/op",
            "Mops/s",
            "remote pull ns/op",
            "Mops/s",
            "remote push ns/op",
            "pull bytes/op",
        ],
    );
    for dim in [4u32, 64, 512] {
        let (build, read) = block_probes(dim as usize);
        println!(
            "  block probes dim {dim}: build {build:.0} ns / {KEYS_PER_OP} keys, read {read:.0} ns"
        );
        let r = measure_paths(dim);
        table.row(vec![
            format!("{dim}"),
            format!("{:.0}", r.local_ns),
            format!("{:.2}", 1e3 / r.local_ns),
            format!("{:.0}", r.remote_pull_ns),
            format!("{:.2}", 1e3 / r.remote_pull_ns),
            format!("{:.0}", r.remote_push_ns),
            format!("{}", r.pull_bytes_per_op),
        ]);
    }
    table.print();
    println!(
        "note: ops are 64-key groups; local pull must allocate nothing per key \
         (store slot → caller buffer); remote pulls move one contiguous block per response"
    );

    // Update-kernel throughput: the split-pass optimizer kernels vs their
    // scalar/fused references (assertions are skipped under LAPSE_SMOKE —
    // timing ratios are meaningless on a starved smoke machine).
    let strict = std::env::var("LAPSE_SMOKE").is_err();
    let mut ktable = Table::new(
        "update kernels — ns/op vs scalar reference",
        &["dim", "kernel", "ns/op", "ref ns/op", "speedup"],
    );
    for dim in [64usize, 512] {
        for (name, ns, ref_ns) in kernel_probes(dim, strict) {
            ktable.row(vec![
                format!("{dim}"),
                name,
                format!("{ns:.1}"),
                format!("{ref_ns:.1}"),
                format!("{:.2}x", ref_ns / ns),
            ]);
        }
    }
    ktable.print();

    // A small simulated run, to show the value-plane accounting as
    // surfaced through the simulation report (deterministic output).
    let keys: Vec<Key> = (0..256u64).map(Key).collect();
    let (_, stats) = lapse_core::run_sim(
        lapse_core::PsConfig::new(2, 256, 16).latches(64),
        2,
        lapse_core::CostModel::default(),
        |_| None,
        move |w| {
            let mut out = vec![0.0f32; 256 * 16];
            let vals = vec![0.5f32; 256 * 16];
            for _ in 0..8 {
                w.pull(&keys, &mut out);
                w.push(&keys, &vals);
            }
        },
    );
    println!(
        "sim probe (2x2, 256 keys x dim 16, 8 rounds): virtual time {}, {} msgs, {}, \
         value plane {} moved / {} heap allocs",
        fmt::duration_ns(stats.virtual_time_ns.expect("sim run has virtual time")),
        fmt::count(stats.messages),
        fmt::bytes(stats.bytes),
        fmt::bytes(stats.value_bytes_moved),
        fmt::count(stats.value_allocs_heap)
    );
}
