//! The three training workloads (`mf_blocked`, `kge_hiding`,
//! `w2v_hybrid`): inputs generated from the seed, the `lapse-ml` task
//! run unchanged on the threaded backend with its shipped defaults, and
//! a serving coda on the trained model.

use std::sync::Arc;
use std::time::Instant;

use lapse_core::{
    run_sim, run_threaded, ClusterStats, CostModel, HotSet, PsConfig, PsWorker, Variant,
};
use lapse_ml::data::corpus::{Corpus, CorpusConfig};
use lapse_ml::data::kg::{KgConfig, KnowledgeGraph};
use lapse_ml::data::matrix::{MatrixConfig, SparseMatrix};
use lapse_ml::kge::{KgeConfig, KgeModel, KgePal, KgeTask};
use lapse_ml::metrics::{combine_runs, EpochStats};
use lapse_ml::mf::{MfConfig, MfTask};
use lapse_ml::w2v::{W2vConfig, W2vTask};
use lapse_ml::ComputeModel;
use lapse_net::Key;

use crate::affinity::pin_to_nth_cpu;
use crate::serve::{readable_targets, run_reader, ReaderStats, Schedule, NOMINAL_RATE};
use crate::traced::{ApiStats, TracedWorker};
use crate::Scale;

/// Which training task a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    Mf,
    Kge,
    W2v,
}

/// MF rank; also the value length `ml.sgd_step_ns` is measured at.
pub const MF_RANK: usize = 16;
/// ComplEx entity dimension: `[param | accum]` makes a hand-over carry
/// 512 bytes per entity.
pub const KGE_DIM: usize = 64;
pub const W2V_DIM: usize = 16;

type Body = Arc<dyn Fn(&mut dyn PsWorker) -> Vec<EpochStats> + Send + Sync>;
type Init = Box<dyn Fn(Key) -> Option<Vec<f32>> + Send + Sync>;

/// A task partitioned for one cluster shape, ready to spawn.
struct Prepared {
    cfg: PsConfig,
    init: Init,
    body: Body,
    /// Keys the serving coda brings to node 0 and requests there. One
    /// tier and one value length per workload, so the latency the coda
    /// reports has one mode.
    serve_keys: std::ops::Range<u64>,
}

/// Generates the inputs from `seed` and partitions them for `nodes`×1
/// workers, to train `epochs` epochs.
fn prepare(task: Task, seed: u64, scale: Scale, nodes: u16, epochs: usize) -> Prepared {
    let n = nodes as usize;
    // Full sizes are small on purpose. The working set of each task stays
    // in a core's own cache, because what a neighbour of this shared host
    // does to the shared cache is not the program's doing; and an epoch
    // lasts 10 to 100 ms, so a run has hundreds of epoch times and some
    // of them fall into stretches the host left undisturbed.
    // Smoke sizes keep every code path (sub-epochs, hot set, negative
    // buffer refresh) and shrink only the data.
    let shrink = |full: u64, smoke: u64| match scale {
        Scale::Full => full,
        Scale::Smoke => smoke,
    };
    match task {
        Task::Mf => {
            let data = Arc::new(SparseMatrix::generate(MatrixConfig {
                rows: shrink(4_000, 1_000) as u32,
                cols: shrink(400, 100) as u32,
                rank: MF_RANK,
                entries: shrink(100_000, 20_000),
                noise: 0.05,
                seed,
            }));
            let cfg = MfConfig {
                rank: MF_RANK,
                lr: 0.03,
                reg: 0.01,
                epochs,
                seed,
                compute: ComputeModel::default(),
                virtual_rank: None,
            };
            let task = MfTask::new(data, cfg, n, 1);
            Prepared {
                cfg: PsConfig::new(nodes, task.num_keys(), MF_RANK as u32).variant(Variant::Lapse),
                init: Box::new(task.initializer()),
                // Row factors of worker 0's own rows.
                serve_keys: 0..shrink(1_024, 128),
                body: Arc::new(move |w| task.run(w)),
            }
        }
        Task::Kge => {
            let kg = Arc::new(KnowledgeGraph::generate(KgConfig {
                entities: shrink(1_000, 400) as u32,
                relations: 40,
                triples: shrink(1_500, 300),
                held_out: 10,
                relation_skew: 1.0,
                entity_skew: 0.8,
                clusters: 16,
                seed,
            }));
            let cfg = KgeConfig {
                model: KgeModel::ComplEx,
                dim: KGE_DIM,
                negatives: 10,
                lr: 0.1,
                eps: 1e-8,
                epochs,
                pal: KgePal::Full,
                seed,
                compute: ComputeModel::default(),
                virtual_dim: None,
            };
            let task = KgeTask::new(kg, cfg, n, 1);
            Prepared {
                cfg: PsConfig::new(nodes, task.num_keys(), 1)
                    .layout(task.layout())
                    .variant(Variant::Lapse),
                init: Box::new(task.initializer()),
                // The most popular entities: 512-byte values from the
                // owned tier. Where they are when training ends is up to
                // the worker that finished last.
                serve_keys: 0..shrink(512, 128),
                body: Arc::new(move |w| task.run(w)),
            }
        }
        Task::W2v => {
            let vocab = shrink(1_000, 300);
            let corpus = Arc::new(Corpus::generate(CorpusConfig {
                vocab: vocab as u32,
                tokens: shrink(5_000, 2_000),
                sentence_len: 14,
                topics: 12,
                topic_strength: 0.7,
                skew: 1.0,
                seed,
            }));
            let cfg = W2vConfig {
                dim: W2V_DIM,
                window: 3,
                negatives: 8,
                lr: 0.03,
                epochs,
                neg_buffer: shrink(1_000, 400) as usize,
                neg_refresh: shrink(975, 390) as usize,
                subsample_t: 1e-3,
                latency_hiding: true,
                // The held-out evaluation is not part of an epoch.
                eval_sentences: 0,
                eval_negatives: 0,
                seed,
                compute: ComputeModel::default(),
                virtual_dim: None,
            };
            let task = W2vTask::new(corpus, cfg, n, 1);
            // The NuPS hot set of the experiment harness: the top 2 % of
            // each id block (input and output vectors) is replicated.
            let hot_words = (vocab / 50).max(1);
            let hot = HotSet::Blocks {
                block: vocab,
                hot: hot_words,
            };
            Prepared {
                cfg: PsConfig::new(nodes, task.num_keys(), W2V_DIM as u32)
                    .variant(Variant::Hybrid)
                    .hot_set(hot),
                init: Box::new(task.initializer()),
                // The hot output vectors: homed on node 1, replicated
                // everywhere, so node 0 serves them from its replica tier
                // — the tier no other workload reads.
                serve_keys: vocab..vocab + hot_words,
                body: Arc::new(move |w| task.run(w)),
            }
        }
    }
}

/// How one cluster run is instrumented.
#[derive(Clone, Copy, Default)]
pub struct RunOpts {
    /// Wrap every worker in a [`TracedWorker`].
    pub traced: bool,
    /// Serve the trained model afterwards (open loop, then closed loop).
    pub coda: bool,
}

struct WorkerOut {
    epochs: Vec<EpochStats>,
    api: Option<ApiStats>,
    coda: Option<ReaderStats>,
}

/// One threaded run of a training task.
pub struct TrainRun {
    /// Repetition start to the end of the warm-up epoch.
    pub setup_s: f64,
    /// Cluster-level epochs (`combine_runs`), the warm-up epoch first.
    pub epochs: Vec<EpochStats>,
    /// One per worker when traced.
    pub api: Vec<ApiStats>,
    pub coda: Option<ReaderStats>,
    pub stats: ClusterStats,
}

/// Requests of the coda's open-loop phase and seconds of its closed-loop
/// phase: fixed work, so the coda costs every run the same.
fn coda_sizes(scale: Scale) -> (u64, f64) {
    match scale {
        Scale::Full => ((NOMINAL_RATE * 0.3) as u64, 0.2),
        Scale::Smoke => (5_000, 0.01),
    }
}

/// Sets the task up for `nodes`×1 (inputs, partitioning, cluster spawn
/// and initialisation, initial localize, one warm-up epoch) and trains
/// `measured` more epochs.
pub fn run_train(
    task: Task,
    seed: u64,
    scale: Scale,
    nodes: u16,
    measured: usize,
    opts: RunOpts,
) -> TrainRun {
    let rep_start = Instant::now();
    let Prepared {
        cfg,
        init,
        body,
        serve_keys,
    } = prepare(task, seed, scale, nodes, 1 + measured);
    let (coda_requests, coda_secs) = coda_sizes(scale);
    let sched = opts
        .coda
        .then(|| Arc::new(Schedule::generate(seed, 1 << 16, 4096)));
    let before_cluster_s = rep_start.elapsed().as_secs_f64();
    let (outs, stats) = run_threaded(cfg, 1, init, move |w: &mut dyn PsWorker| {
        pin_to_nth_cpu(w.global_id());
        let (epochs, api) = if opts.traced {
            let mut tracer = TracedWorker::new(&mut *w, 1, crate::SPAN_SAMPLE);
            let epochs = body(&mut tracer);
            (epochs, Some(tracer.finish()))
        } else {
            (body(&mut *w), None)
        };
        // Worker 0 serves a slice of the trained model; the others park
        // on the barrier, so nothing trains meanwhile.
        w.barrier();
        let coda = match &sched {
            Some(sched) if w.global_id() == 0 => {
                let mut reader = w
                    .snapshot_reader()
                    .expect("threaded backend serves snapshots");
                // Bring the served keys to this node (nothing moves for
                // keys already here, or replicated).
                let keys: Vec<Key> = serve_keys.clone().map(Key).collect();
                w.localize(&keys);
                let targets = readable_targets(&*w, &mut reader, serve_keys.clone());
                Some(run_reader(
                    &mut reader,
                    &targets,
                    sched,
                    coda_requests,
                    coda_secs,
                    false,
                    |_| {},
                ))
            }
            _ => None,
        };
        w.barrier();
        WorkerOut { epochs, api, coda }
    });
    let mut per_worker = Vec::new();
    let mut api = Vec::new();
    let mut coda = None;
    for out in outs {
        per_worker.push(out.epochs);
        api.extend(out.api);
        coda = coda.or(out.coda);
    }
    let epochs = combine_runs(&per_worker);
    TrainRun {
        setup_s: before_cluster_s + epochs[0].end_ns as f64 / 1e9,
        epochs,
        api,
        coda,
        stats,
    }
}

/// The same task and configuration under the simulator (`run_sim`), one
/// warm-up and one measured epoch: `(virtual epoch seconds, messages,
/// relocations, wall seconds)`, counts for the whole run.
pub fn run_simulated(task: Task, seed: u64, scale: Scale) -> (f64, u64, u64, f64) {
    let Prepared {
        cfg, init, body, ..
    } = prepare(task, seed, scale, 2, 2);
    let start = Instant::now();
    let (outs, stats) = run_sim(cfg, 1, CostModel::default(), init, move |w| body(w));
    let wall_s = start.elapsed().as_secs_f64();
    let epochs = combine_runs(&outs);
    (
        epochs[1].duration_ns() as f64 / 1e9,
        stats.messages,
        stats.relocations,
        wall_s,
    )
}
