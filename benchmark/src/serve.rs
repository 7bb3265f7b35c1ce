//! The serving side: an open-loop `SnapshotReader` stream timed from
//! each request's due time, then a closed-loop phase — and the
//! `serve_train` workload, which runs that reader beside a trainer on
//! the same keys of one node.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lapse_core::{run_threaded, ClusterStats, PsConfig, PsWorker, Variant};
use lapse_net::Key;
use lapse_proto::SnapshotReader;
use lapse_utils::rng::derive_rng;
use lapse_utils::zipf::Zipf;
use rand::Rng as _;

use crate::affinity::pin_to_nth_cpu;
use crate::stats::{Hist, WindowMedian};
use crate::traced::{ApiStats, TracedWorker};
use crate::Scale;

/// Nominal arrival rate of the open-loop stream (requests per second).
pub const NOMINAL_RATE: f64 = 500_000.0;
/// A request is late when it completes more than this after it was due.
pub const LATE_NS: u64 = 5_000;
/// Length of one closed-loop throughput window.
pub const RATE_WINDOW_S: f64 = 0.02;
/// Requests of one open-loop latency window (16 ms at the nominal rate).
pub const LATENCY_WINDOW: u32 = 8192;
/// Skew of the request keys (and of the trainer's keys in `serve_train`).
const ZIPF_ALPHA: f64 = 1.0;

/// The pre-generated arrival schedule: exponential gaps at the nominal
/// rate and Zipf(1) key ranks, cycled when a phase outlasts the table.
pub struct Schedule {
    gaps_ns: Vec<u32>,
    /// 0-based popularity rank of each request's key.
    ranks: Vec<u32>,
}

impl Schedule {
    /// `len` must be a power of two (the loops index with a mask).
    pub fn generate(seed: u64, len: usize, ranks: u64) -> Self {
        assert!(len.is_power_of_two());
        let mut rng = derive_rng(seed, 0x5C4E_D01E);
        let zipf = Zipf::new(ranks, ZIPF_ALPHA);
        let mean_gap_ns = 1e9 / NOMINAL_RATE;
        let gaps_ns = (0..len)
            .map(|_| (-(1.0 - rng.gen::<f64>()).ln() * mean_gap_ns) as u32)
            .collect();
        let ranks = (0..len)
            .map(|_| (zipf.sample(&mut rng) - 1) as u32)
            .collect();
        Schedule { gaps_ns, ranks }
    }
}

/// What the reader measured.
pub struct ReaderStats {
    /// Latency from due time to completion (open loop).
    pub due: Hist,
    /// How late the generator issued a request (start − due).
    pub lag: Hist,
    /// Service time (start to completion).
    pub service: Hist,
    /// Median latency from due time of each [`LATENCY_WINDOW`] requests
    /// of the open-loop phase.
    pub open_p50s: Vec<f64>,
    pub open_requests: u64,
    /// Seconds the open-loop phase took (the schedule's length, unless
    /// the reader fell behind).
    pub open_secs: f64,
    pub closed_reads: u64,
    pub closed_secs: f64,
    /// Closed-loop throughput of each [`RATE_WINDOW_S`] window (reads
    /// per second): a preempted window is one outlier, not a shifted
    /// mean.
    pub closed_rates: Vec<f64>,
    /// Reads that returned nothing, went back in epoch, or were torn.
    pub failed: u64,
}

/// One key the reader may request and its value length.
#[derive(Clone, Copy)]
pub struct Target {
    pub key: Key,
    pub len: u32,
}

/// Every key of `keys` that `reader` can serve on its node right now.
pub fn readable_targets(
    w: &dyn PsWorker,
    reader: &mut SnapshotReader,
    keys: std::ops::Range<u64>,
) -> Vec<Target> {
    let mut buf = Vec::new();
    keys.map(Key)
        .filter_map(|key| {
            let len = w.value_len(key);
            buf.resize(len, 0.0f32);
            reader.read(key, &mut buf).map(|_| Target {
                key,
                len: len as u32,
            })
        })
        .collect()
}

/// Checks one read: served, epoch not going back, and — where every lane
/// of a value is written with the same number — not torn.
#[inline]
fn read_ok(
    read: Option<lapse_proto::SnapshotRead>,
    last_epoch: &mut u64,
    lanes: Option<&[f32]>,
) -> bool {
    let Some(read) = read else { return false };
    let monotone = read.epoch >= *last_epoch;
    *last_epoch = read.epoch;
    monotone && lanes.is_none_or(|v| v.iter().all(|x| x.to_bits() == v[0].to_bits()))
}

/// Runs the reader: `open_requests` requests on `sched`'s arrival times,
/// then back-to-back reads for `closed_secs`. `phase_done` is called
/// after each phase (0 = open, 1 = closed). Request `k` reads the target
/// at `rank mod targets.len()`.
pub fn run_reader(
    reader: &mut SnapshotReader,
    targets: &[Target],
    sched: &Schedule,
    open_requests: u64,
    closed_secs: f64,
    equal_lanes: bool,
    mut phase_done: impl FnMut(u8),
) -> ReaderStats {
    assert!(!targets.is_empty(), "no locally readable key to serve");
    let mask = sched.ranks.len() - 1;
    let max_len = targets.iter().map(|t| t.len).max().unwrap_or(0) as usize;
    let mut buf = vec![0.0f32; max_len];
    let mut out = ReaderStats {
        due: Hist::new(),
        lag: Hist::new(),
        service: Hist::new(),
        open_p50s: Vec::with_capacity((open_requests / LATENCY_WINDOW as u64) as usize + 1),
        open_requests,
        open_secs: 0.0,
        closed_reads: 0,
        closed_secs: 0.0,
        closed_rates: Vec::with_capacity((closed_secs / RATE_WINDOW_S) as usize + 1),
        failed: 0,
    };
    let mut last_epoch = 0u64;
    let pick = |k: usize| targets[sched.ranks[k & mask] as usize % targets.len()];

    // Open loop: the schedule never waits for a completion, so a stall
    // shows as latency of every request that came due meanwhile.
    let start = Instant::now();
    let mut due_ns = 0u64;
    let mut window = WindowMedian::default();
    for k in 0..open_requests as usize {
        due_ns += sched.gaps_ns[k & mask] as u64;
        let mut now = start.elapsed().as_nanos() as u64;
        while now < due_ns {
            std::hint::spin_loop();
            now = start.elapsed().as_nanos() as u64;
        }
        let t = pick(k);
        let dst = &mut buf[..t.len as usize];
        let read = reader.read(t.key, dst);
        let end = start.elapsed().as_nanos() as u64;
        out.due.record(end - due_ns);
        window.record(end - due_ns);
        if window.count() == LATENCY_WINDOW {
            out.open_p50s.push(window.take());
        }
        out.lag.record(now - due_ns);
        out.service.record(end - now);
        if !read_ok(read, &mut last_epoch, equal_lanes.then_some(dst)) {
            out.failed += 1;
        }
    }
    if out.open_p50s.is_empty() && window.count() > 0 {
        out.open_p50s.push(window.take());
    }
    out.open_secs = start.elapsed().as_secs_f64();
    phase_done(0);

    // Closed loop: the next read goes out when the previous one is back.
    let start = Instant::now();
    let mut k = 0usize;
    let (mut window_start, mut window_first) = (0.0f64, 0usize);
    loop {
        for _ in 0..256 {
            let t = pick(k);
            k += 1;
            let dst = &mut buf[..t.len as usize];
            let read = reader.read(t.key, dst);
            if !read_ok(read, &mut last_epoch, equal_lanes.then_some(dst)) {
                out.failed += 1;
            }
        }
        out.closed_secs = start.elapsed().as_secs_f64();
        if out.closed_secs - window_start >= RATE_WINDOW_S {
            let rate = (k - window_first) as f64 / (out.closed_secs - window_start);
            out.closed_rates.push(rate);
            (window_start, window_first) = (out.closed_secs, k);
        }
        if out.closed_secs >= closed_secs {
            break;
        }
    }
    if out.closed_rates.is_empty() {
        out.closed_rates.push(k as f64 / out.closed_secs.max(1e-9));
    }
    out.closed_reads = k as u64;
    phase_done(1);
    std::hint::black_box(&buf);
    out
}

/// One MF-shaped SGD step on the pulled `[w | h]` pair: the arithmetic of
/// `MfTask::run` (which keeps its kernel private). Returns the error.
#[inline]
pub fn mf_step(pulled: &[f32], delta: &mut [f32], target: f32, lr: f32, reg: f32) -> f32 {
    let rank = pulled.len() / 2;
    let (wi, hj) = pulled.split_at(rank);
    let dot: f32 = wi.iter().zip(hj).map(|(a, b)| a * b).sum();
    let err = target - dot;
    let (dw, dh) = delta.split_at_mut(rank);
    let lr2 = lr * 2.0;
    for ((d, &h), &v) in dw.iter_mut().zip(hj).zip(wi) {
        *d = lr2 * (err * h - reg * v);
    }
    for ((d, &v), &h) in dh.iter_mut().zip(wi).zip(hj) {
        *d = lr2 * (err * v - reg * h);
    }
    err
}

/// Sizes of `serve_train`.
#[derive(Clone, Copy)]
pub struct ServeSizes {
    pub keys: u64,
    pub dim: u32,
    /// Trainer steps per epoch.
    pub examples: usize,
    pub sched_len: usize,
    /// Share of `--seconds` spent in the open-loop phase; the rest is
    /// the closed-loop phase.
    pub open_share: f64,
}

impl ServeSizes {
    pub fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => ServeSizes {
                keys: 16_384,
                dim: 16,
                examples: 50_000,
                sched_len: 1 << 20,
                open_share: 0.6,
            },
            Scale::Smoke => ServeSizes {
                keys: 1_024,
                dim: 16,
                examples: 4_000,
                sched_len: 1 << 14,
                open_share: 0.6,
            },
        }
    }
}

const LR: f32 = 0.02;
const REG: f32 = 0.001;
/// Phases of `serve_train`, published by the reader.
const OPEN: u8 = 0;
const CLOSED: u8 = 1;
const DONE: u8 = 2;

/// The trainer's inputs: `(a, b, target)` with `a < b`.
struct TrainSet {
    examples: Vec<(u32, u32, f32)>,
}

impl TrainSet {
    /// Zipf(1) key pairs — the reader's distribution, so both sides
    /// meet on the hot keys — with a planted rank-one target, so the loss
    /// has something to fall towards.
    fn generate(seed: u64, sizes: &ServeSizes) -> Self {
        let mut rng = derive_rng(seed, 0x7EA1_4E75);
        let zipf = Zipf::new(sizes.keys, ZIPF_ALPHA);
        let hidden: Vec<f32> = (0..sizes.keys)
            .map(|_| {
                let m = 0.1 + 0.25 * rng.gen::<f32>();
                if rng.gen::<bool>() {
                    m
                } else {
                    -m
                }
            })
            .collect();
        let examples = (0..sizes.examples)
            .map(|_| {
                let a = (zipf.sample(&mut rng) - 1) as u32;
                let mut b = (zipf.sample(&mut rng) - 1) as u32;
                if a == b {
                    b = (a + 1) % sizes.keys as u32;
                }
                let (a, b) = (a.min(b), a.max(b));
                let target = sizes.dim as f32 * hidden[a as usize] * hidden[b as usize];
                (a, b, target)
            })
            .collect();
        TrainSet { examples }
    }
}

/// Every lane of a key starts at the same number, and an MF step on
/// equal-lane factors gives an equal-lane delta: a consistent read has
/// equal lanes for ever, so a torn one shows.
fn initial_lane(seed: u64, key: Key, dim: u32) -> f32 {
    let mut rng = derive_rng(seed, 0x1A4E ^ key.0);
    (rng.gen::<f32>() - 0.5) / (dim as f32).sqrt()
}

/// One trainer epoch as the trainer saw it.
#[derive(Clone, Copy)]
pub struct TrainerEpoch {
    pub start_ns: u64,
    pub end_ns: u64,
    pub loss: f64,
    /// Whether the whole epoch ran while the open-loop phase did.
    pub in_open_phase: bool,
}

enum SlotOut {
    Reader(Box<ReaderStats>),
    Trainer(Box<TrainerOut>),
}

struct TrainerOut {
    warmup_loss: f64,
    warmup_end_ns: u64,
    epochs: Vec<TrainerEpoch>,
    api: Option<ApiStats>,
    steps: u64,
    store_mismatches: u64,
}

/// Result of one `serve_train` cluster run.
pub struct ServeRun {
    /// Repetition start to the barrier that opens the measurement.
    pub setup_s: f64,
    pub warmup_loss: f64,
    pub epochs: Vec<TrainerEpoch>,
    pub reader: ReaderStats,
    pub api: Option<ApiStats>,
    pub stats: ClusterStats,
    pub examples_per_epoch: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs `serve_train` once: set-up (inputs, cluster, warm-up epoch and
/// warm-up reads), then `seconds` of the open-loop and closed-loop
/// phases beside the trainer.
pub fn run_serve_train(seed: u64, scale: Scale, seconds: f64, traced: bool) -> ServeRun {
    let rep_start = Instant::now();
    let sizes = ServeSizes::of(scale);
    let sched = Arc::new(Schedule::generate(seed, sizes.sched_len, sizes.keys));
    let train = Arc::new(TrainSet::generate(seed, &sizes));
    let phase = Arc::new(AtomicU8::new(OPEN));
    let open_requests = (NOMINAL_RATE * seconds * sizes.open_share) as u64;
    let closed_secs = seconds * (1.0 - sizes.open_share);
    let dim = sizes.dim as usize;

    let cfg = PsConfig::new(1, sizes.keys, sizes.dim).variant(Variant::Lapse);
    let before_cluster_s = rep_start.elapsed().as_secs_f64();
    let (outs, stats) = run_threaded(
        cfg,
        2,
        move |key| Some(vec![initial_lane(seed, key, sizes.dim); dim]),
        move |w: &mut dyn PsWorker| {
            pin_to_nth_cpu(w.slot());
            if w.slot() == 0 {
                // The reader: warm the path, then serve.
                let mut reader = w
                    .snapshot_reader()
                    .expect("threaded backend serves snapshots");
                let targets: Vec<Target> = (0..sizes.keys)
                    .map(|k| Target {
                        key: Key(k),
                        len: sizes.dim,
                    })
                    .collect();
                let warm = run_reader(&mut reader, &targets, &sched, 4096, 0.0, true, |_| {});
                w.barrier();
                let mut stats = run_reader(
                    &mut reader,
                    &targets,
                    &sched,
                    open_requests,
                    closed_secs,
                    true,
                    |done| phase.store(if done == 0 { CLOSED } else { DONE }, Ordering::Release),
                );
                // Warm-up reads are checked like any other.
                stats.failed += warm.failed;
                w.barrier();
                SlotOut::Reader(Box::new(stats))
            } else {
                run_trainer(w, &train, &sizes, seed, &phase, traced)
            }
        },
    );

    // Results come back in worker order: slot 0 read, slot 1 trained.
    let mut outs = outs.into_iter();
    let (Some(SlotOut::Reader(reader)), Some(SlotOut::Trainer(trainer))) =
        (outs.next(), outs.next())
    else {
        unreachable!("slot 0 is the reader and slot 1 the trainer");
    };
    ServeRun {
        setup_s: before_cluster_s + trainer.warmup_end_ns as f64 / 1e9,
        warmup_loss: trainer.warmup_loss,
        epochs: trainer.epochs,
        api: trainer.api,
        stats,
        examples_per_epoch: sizes.examples as u64,
        attempted: reader.open_requests + reader.closed_reads + trainer.steps + sizes.keys,
        failed: reader.failed + trainer.store_mismatches,
        reader: *reader,
    }
}

/// The trainer of `serve_train`: a warm-up epoch, then epochs until the
/// reader is done (at least `LOSS_EPOCH`), then the store check. `shadow` repeats every push in
/// push order, so the final store must equal it bit for bit.
fn run_trainer(
    w: &mut dyn PsWorker,
    train: &TrainSet,
    sizes: &ServeSizes,
    seed: u64,
    phase: &AtomicU8,
    traced: bool,
) -> SlotOut {
    let dim = sizes.dim as usize;
    let mut shadow: Vec<f32> = (0..sizes.keys)
        .map(|k| initial_lane(seed, Key(k), sizes.dim))
        .collect();
    let mut pulled = vec![0.0f32; 2 * dim];
    let mut delta = vec![0.0f32; 2 * dim];
    let mut steps = 0u64;
    let mut epoch = |w: &mut dyn PsWorker, shadow: &mut [f32]| {
        let start_ns = w.now_ns();
        let mut loss = 0.0f64;
        for &(a, b, target) in &train.examples {
            let keys = [Key(a as u64), Key(b as u64)];
            w.pull(&keys, &mut pulled);
            let err = mf_step(&pulled, &mut delta, target, LR, REG);
            loss += (err as f64) * (err as f64);
            w.push(&keys, &delta);
            shadow[a as usize] += delta[0];
            shadow[b as usize] += delta[dim];
        }
        steps += train.examples.len() as u64;
        (start_ns, w.now_ns(), loss)
    };

    let mut epochs = Vec::new();
    let mut body = |tw: &mut dyn PsWorker| {
        let (_, warmup_end_ns, warmup_loss) = epoch(tw, &mut shadow);
        tw.barrier();
        // Until the reader is done, and long enough to have a loss to report.
        while phase.load(Ordering::Acquire) != DONE || epochs.len() < crate::LOSS_EPOCH {
            let before = phase.load(Ordering::Acquire);
            let (start_ns, end_ns, loss) = epoch(tw, &mut shadow);
            epochs.push(TrainerEpoch {
                start_ns,
                end_ns,
                loss,
                in_open_phase: before == OPEN && phase.load(Ordering::Acquire) == OPEN,
            });
        }
        tw.barrier();
        (warmup_loss, warmup_end_ns)
    };
    // Spans of the trainer's calls go to the same tracer the training
    // workloads use; the warm-up epoch passes through it untimed.
    let ((warmup_loss, warmup_end_ns), api) = if traced {
        let mut tracer = TracedWorker::new(&mut *w, 1, crate::SPAN_SAMPLE);
        let out = body(&mut tracer);
        (out, Some(tracer.finish()))
    } else {
        (body(&mut *w), None)
    };

    // Final store = initial value + every push, exactly, on every lane.
    let keys: Vec<Key> = (0..sizes.keys).map(Key).collect();
    let mut all = vec![0.0f32; sizes.keys as usize * dim];
    w.pull(&keys, &mut all);
    let store_mismatches = all
        .chunks_exact(dim)
        .zip(&shadow)
        .filter(|(lanes, want)| lanes.iter().any(|x| x.to_bits() != want.to_bits()))
        .count() as u64;
    SlotOut::Trainer(Box::new(TrainerOut {
        warmup_loss,
        warmup_end_ns,
        epochs,
        api,
        steps,
        store_mismatches,
    }))
}
