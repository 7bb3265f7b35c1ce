//! Serving-plane microbenchmark: open-loop SLO traffic against nodes
//! that are training at the same time, snapshot reads vs protocol-path
//! local pulls.
//!
//! Each node runs trainer threads (Zipf pull/push over the global key
//! space with periodic `advance_clock` propagation ticks) plus one
//! serving thread that issues an **open-loop** request stream over the
//! node's home keys: arrivals follow a deterministic SmallRng
//! exponential schedule that never waits for completions — when the
//! serving path falls behind, the backlog drains back-to-back and the
//! lateness shows up in the **late%** column (requests issued more than
//! one mean inter-arrival after their scheduled time). Per-request
//! latency is the service time (issue to completion), which stays
//! meaningful even when the host has fewer cores than threads and the
//! scheduler, not the serving path, owns the queueing delay. Serving
//! modes:
//!
//! * **protocol** — `PsWorker::pull` on the single key: the training
//!   path with its issue machinery, latches/tracker where needed.
//! * **snapshot** — [`SnapshotReader::read`]: the node's one local read,
//!   pinned to a serving epoch (a seqlock copy, no tracker, no message).
//!
//! Reported per variant and mode: achieved request rate, latency
//! p50/p99/p999 from a fixed-bucket histogram, and the serving counters
//! (wait-free snapshot reads / latched fallbacks). The smoke line still
//! prints `ClusterStats::snapshot_stale_waits`, always 0.
//!
//! With `LAPSE_SMOKE` set, timing is skipped and a deterministic
//! fixed-schedule run prints schedule-independent counters only (op
//! totals, serving counters, the pinned epoch, a value checksum) for the
//! double-run diff in `make bench-smoke`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lapse_bench::banner;
use lapse_core::{run_threaded, HotSet, PsConfig, Variant};
use lapse_net::Key;
use lapse_utils::rng::derive_rng;
use lapse_utils::stats::FixedHistogram;
use lapse_utils::table::Table;
use lapse_utils::zipf::Zipf;
use rand::Rng as _;

/// Value dimension (floats per key).
const DIM: u32 = 32;
/// Nodes in the serving cluster.
const NODES: u16 = 2;
/// Keys homed per node (range partition: node n homes one block).
const KEYS_PER_NODE: u64 = 512;
/// Total key space.
const KEYS: u64 = NODES as u64 * KEYS_PER_NODE;
/// Zipf skew of both the training and the serving distribution.
const ALPHA: f64 = 1.0;
/// Trainers: one push per this many operations.
const PUSH_EVERY: u64 = 16;
/// Trainers: one `advance_clock` propagation tick per this many ops.
const TICK_EVERY: u64 = 64;
/// Mean inter-arrival time of the open-loop request stream (ns).
const ARRIVAL_NS: f64 = 2_000.0;
/// Workers per node: slot 0 serves, the rest train.
const WORKERS: usize = 3;

/// All six PS variants under test.
const VARIANTS: [Variant; 6] = [
    Variant::Classic,
    Variant::ClassicFastLocal,
    Variant::Lapse,
    Variant::Replication,
    Variant::Hybrid,
    Variant::Adaptive,
];

fn config(variant: Variant) -> PsConfig {
    let mut cfg = PsConfig::new(NODES, KEYS, DIM).variant(variant).latches(16);
    if matches!(variant, Variant::Hybrid) {
        // Replicate the globally hottest ~2% of keys (low ids under the
        // skewed generators), as the NuPS harness does.
        cfg = cfg.hot_set(HotSet::Blocks {
            block: KEYS,
            hot: (KEYS / 50).max(1),
        });
    }
    if matches!(variant, Variant::Adaptive) {
        cfg = cfg.adaptive(lapse_bench::adaptive_bench_config());
    }
    cfg
}

struct ModeResult {
    /// Achieved request rate (requests per second, all serving threads).
    krps: f64,
    /// Requests issued more than one mean inter-arrival late.
    late_pct: f64,
    hist: FixedHistogram,
    stats: lapse_core::ClusterStats,
}

/// Runs trainers plus one open-loop serving thread per node for `reqs`
/// requests each; `snapshot` selects the serving path.
fn serve_while_training(variant: Variant, snapshot: bool, reqs: u64) -> ModeResult {
    // 20 ns buckets over ~1.3 ms: resolves the sub-100ns snapshot path
    // while keeping queueing excursions in range (beyond it the overflow
    // rank reports the exact maximum).
    let hist: Arc<Mutex<FixedHistogram>> = Arc::new(Mutex::new(FixedHistogram::new(20, 65536)));
    let elapsed: Arc<Mutex<f64>> = Arc::new(Mutex::new(0.0));
    let late = Arc::new(AtomicU64::new(0));
    let servers_done = Arc::new(AtomicUsize::new(0));
    let (h2, e2, l2, d2) = (
        hist.clone(),
        elapsed.clone(),
        late.clone(),
        servers_done.clone(),
    );
    let (_, stats) = run_threaded(
        config(variant),
        WORKERS,
        |_| None,
        move |w| {
            let mut rng = derive_rng(0x5E_4F1A6, w.global_id() as u64);
            let mut buf = vec![0.0f32; DIM as usize];
            if w.slot() == 0 {
                // Serving thread: open-loop Zipf stream over this node's
                // home keys (range partition: one contiguous block).
                let zipf = Zipf::new(KEYS_PER_NODE, ALPHA);
                let base = w.node().idx() as u64 * KEYS_PER_NODE;
                let mut reader = snapshot.then(|| {
                    w.snapshot_reader()
                        .expect("threaded backend has a serving plane")
                });
                // Warm up both paths, then align with the trainers.
                for _ in 0..256u64 {
                    let key = Key(base + zipf.sample(&mut rng) - 1); // ranks are 1..=n
                    match reader.as_mut() {
                        Some(r) => {
                            let read = r.read(key, &mut buf);
                            debug_assert!(read.is_some(), "home key {key} not locally readable");
                        }
                        None => w.pull(&[key], &mut buf),
                    }
                }
                w.barrier();
                let start = Instant::now();
                let mut scheduled_ns = 0.0f64;
                let mut behind = 0u64;
                let mut local = FixedHistogram::new(20, 65536);
                for _ in 0..reqs {
                    // Deterministic SmallRng exponential arrivals; the
                    // schedule never waits for the serving path (open loop),
                    // so a backlog drains back-to-back and counts as late.
                    let u: f64 = rng.gen();
                    scheduled_ns += -(1.0 - u).ln() * ARRIVAL_NS;
                    while (start.elapsed().as_nanos() as f64) < scheduled_ns {
                        std::thread::yield_now();
                    }
                    let t0 = Instant::now();
                    if t0.duration_since(start).as_nanos() as f64 > scheduled_ns + ARRIVAL_NS {
                        behind += 1;
                    }
                    let key = Key(base + zipf.sample(&mut rng) - 1); // ranks are 1..=n
                    match reader.as_mut() {
                        Some(r) => {
                            let read = r.read(key, &mut buf);
                            debug_assert!(read.is_some(), "home key {key} not locally readable");
                        }
                        None => w.pull(&[key], &mut buf),
                    }
                    local.record(t0.elapsed().as_nanos() as u64);
                }
                let secs = start.elapsed().as_secs_f64();
                std::hint::black_box(&buf);
                h2.lock().unwrap().merge(&local);
                l2.fetch_add(behind, Relaxed);
                let mut m = e2.lock().unwrap();
                if secs > *m {
                    *m = secs;
                }
                d2.fetch_add(1, Relaxed);
            } else {
                // Trainer: Zipf pull/push over the global key space with
                // periodic propagation ticks, running until every serving
                // thread has drained its schedule.
                let zipf = Zipf::new(KEYS, ALPHA);
                let delta = vec![1.0f32; DIM as usize];
                for i in 0..1024u64 {
                    let k = [Key(zipf.sample(&mut rng) - 1)]; // ranks are 1..=n
                    if i.is_multiple_of(PUSH_EVERY) {
                        w.push(&k, &delta);
                    } else {
                        w.pull(&k, &mut buf);
                    }
                    if i.is_multiple_of(TICK_EVERY) {
                        w.advance_clock();
                    }
                }
                w.barrier();
                let mut i = 0u64;
                while d2.load(Relaxed) < NODES as usize {
                    let k = [Key(zipf.sample(&mut rng) - 1)]; // ranks are 1..=n
                    if i.is_multiple_of(PUSH_EVERY) {
                        w.push(&k, &delta);
                    } else {
                        w.pull(&k, &mut buf);
                    }
                    if i.is_multiple_of(TICK_EVERY) {
                        w.advance_clock();
                    }
                    i += 1;
                }
            }
        },
    );
    let secs = *elapsed.lock().unwrap();
    let hist = hist.lock().unwrap().clone();
    ModeResult {
        krps: (NODES as u64 * reqs) as f64 / secs / 1e3,
        late_pct: 100.0 * late.load(Relaxed) as f64 / (NODES as u64 * reqs) as f64,
        hist,
        stats,
    }
}

/// Deterministic smoke run: fixed training schedules on one node, then a
/// post-barrier serving sweep of every key (no concurrent writers, so
/// counter totals and the checksum are schedule-independent). Identical
/// output across repeated runs.
fn smoke() {
    println!("micro_serving smoke (deterministic, LAPSE_SMOKE)");
    for snapshot in [false, true] {
        let workers = 4usize;
        let ops = 512u64;
        let probe: Arc<Mutex<(f64, u64)>> = Arc::new(Mutex::new((0.0, 0)));
        let p2 = probe.clone();
        let (_, stats) = run_threaded(
            PsConfig::new(1, KEYS, DIM)
                .variant(Variant::Lapse)
                .latches(16),
            workers,
            |_| None,
            move |w| {
                let zipf = Zipf::new(KEYS, ALPHA);
                let mut rng = derive_rng(0x5E_4F1A6, w.global_id() as u64);
                let mut buf = vec![0.0f32; DIM as usize];
                let delta = vec![1.0f32; DIM as usize];
                for i in 0..ops {
                    let k = [Key(zipf.sample(&mut rng) - 1)]; // ranks are 1..=n
                    if i.is_multiple_of(PUSH_EVERY) {
                        w.push(&k, &delta);
                    } else {
                        w.pull(&k, &mut buf);
                    }
                }
                // One propagation tick per worker: the serving epoch the
                // sweep pins is exactly the worker count.
                w.advance_clock();
                w.barrier();
                if w.global_id() != 0 {
                    return;
                }
                // Training is quiesced: the sweep's counters, pinned
                // epoch, and checksum are deterministic.
                let mut checksum = 0.0f64;
                let mut epoch = 0u64;
                if snapshot {
                    let mut reader = w
                        .snapshot_reader()
                        .expect("threaded backend has a serving plane");
                    for k in (0..KEYS).map(Key) {
                        let read = reader.read(k, &mut buf).expect("owned key serves locally");
                        epoch = read.epoch;
                        checksum += buf.iter().map(|&x| x as f64).sum::<f64>();
                    }
                } else {
                    for k in (0..KEYS).map(Key) {
                        w.pull(&[k], &mut buf);
                        checksum += buf.iter().map(|&x| x as f64).sum::<f64>();
                    }
                }
                *p2.lock().unwrap() = (checksum, epoch);
            },
        );
        let (checksum, epoch) = *probe.lock().unwrap();
        let mode = if snapshot { "snapshot" } else { "protocol" };
        println!(
            "{mode}: train ops {} (pull local {}, push local {}), serving {} reads / \
             {} stale waits / {} fallbacks, pinned epoch {epoch}, checksum {checksum:.0}",
            workers as u64 * ops,
            stats.pull_local,
            stats.push_local,
            stats.snapshot_reads,
            stats.snapshot_stale_waits,
            stats.snapshot_fallbacks,
        );
    }
}

fn main() {
    if std::env::var("LAPSE_SMOKE").is_ok() {
        smoke();
        return;
    }
    banner(
        "micro_serving",
        "open-loop serving under training: snapshot plane vs protocol-path pulls",
    );
    let reqs = (20_000f64 * lapse_bench::scale()) as u64;
    println!(
        "{NODES} nodes x ({} trainers + 1 server), open-loop Zipf({ALPHA}) stream, \
         mean inter-arrival {ARRIVAL_NS} ns, {reqs} requests/server, dim {DIM}\n",
        WORKERS - 1
    );
    let mut table = Table::new(
        "micro_serving — open-loop serving latency while training",
        &[
            "variant", "mode", "kreq/s", "p50 ns", "p99 ns", "p999 ns", "late%", "snapshot",
            "fallback",
        ],
    );
    let mut classic_ratio = None;
    let mut lapse_ratio = None;
    for variant in VARIANTS {
        let protocol = serve_while_training(variant, false, reqs);
        let snapshot = serve_while_training(variant, true, reqs);
        let ratio = protocol.hist.p50() as f64 / (snapshot.hist.p50() as f64).max(1.0);
        match variant {
            Variant::Classic => classic_ratio = Some(ratio),
            Variant::Lapse => lapse_ratio = Some(ratio),
            _ => {}
        }
        for (mode, r) in [("protocol", &protocol), ("snapshot", &snapshot)] {
            table.row(vec![
                variant.label().to_string(),
                mode.to_string(),
                format!("{:.0}", r.krps),
                format!("{}", r.hist.p50()),
                format!("{}", r.hist.p99()),
                format!("{}", r.hist.p999()),
                format!("{:.1}", r.late_pct),
                format!("{}", r.stats.snapshot_reads),
                format!("{}", r.stats.snapshot_fallbacks),
            ]);
        }
    }
    table.print();
    if let Some(ratio) = classic_ratio {
        println!(
            "protocol-path local pulls (Classic PS: every local read crosses the \
             server process) vs snapshot serving: {ratio:.0}x p50"
        );
    }
    if let Some(ratio) = lapse_ratio {
        println!(
            "shared-memory fast path (Lapse pull) vs snapshot serving: {ratio:.2}x p50 \
             — the snapshot plane strips the issue machinery down to a seqlock copy \
             and adds epoch pinning"
        );
    }
}
