//! Shared infrastructure of the experiment harness.
//!
//! Every table and figure of the paper's evaluation has one bench target
//! in `benches/` (run them all with `cargo bench`, or a single one with
//! `cargo bench --bench fig6_mf`). Each target prints the regenerated
//! series/table together with the paper's reference numbers, and
//! EXPERIMENTS.md records a paper-vs-measured comparison.
//!
//! Scaling: datasets are scaled-down stand-ins (see DESIGN.md). Two
//! environment variables adjust the cost/quality trade-off:
//!
//! * `LAPSE_SCALE` — multiplies dataset sizes (default 1.0).
//! * `LAPSE_WORKERS` — worker threads per simulated node (default 4, the
//!   paper's setting).
//! * `LAPSE_EPOCHS` — epochs measured per configuration (default 1).

use std::sync::Arc;

use lapse_core::{run_sim, AdaptiveConfig, CostModel, HotSet, PsConfig, Variant};
use lapse_ml::data::corpus::{Corpus, CorpusConfig};
use lapse_ml::data::kg::{KgConfig, KnowledgeGraph};
use lapse_ml::data::matrix::{MatrixConfig, SparseMatrix};
use lapse_ml::kge::{KgeConfig, KgeModel, KgePal, KgeTask};
use lapse_ml::metrics::{combine_runs, EpochStats};
use lapse_ml::mf::{MfConfig, MfTask};
use lapse_ml::w2v::{W2vConfig, W2vTask};
use lapse_net::Key;
use lapse_utils::table::Table;

/// One cluster shape of a scaling experiment.
#[derive(Debug, Clone, Copy)]
pub struct Parallelism {
    /// Simulated nodes.
    pub nodes: u16,
    /// Worker threads per node.
    pub workers: usize,
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.nodes, self.workers)
    }
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Dataset scale factor (`LAPSE_SCALE`).
pub fn scale() -> f64 {
    env_f64("LAPSE_SCALE", 1.0)
}

/// Workers per node (`LAPSE_WORKERS`; the paper uses 4).
pub fn workers_per_node() -> usize {
    env_usize("LAPSE_WORKERS", 4)
}

/// Measured epochs per configuration (`LAPSE_EPOCHS`).
pub fn epochs() -> usize {
    env_usize("LAPSE_EPOCHS", 1)
}

/// The paper's parallelism sweep: 1×w, 2×w, 4×w, 8×w.
pub fn levels() -> Vec<Parallelism> {
    let w = workers_per_node();
    [1u16, 2, 4, 8]
        .iter()
        .map(|&nodes| Parallelism { nodes, workers: w })
        .collect()
}

/// Scales a count by `LAPSE_SCALE`, with a floor.
pub fn scaled(base: u64) -> u64 {
    ((base as f64 * scale()) as u64).max(16)
}

// ---------------------------------------------------------------------------
// datasets (scaled stand-ins; see DESIGN.md for substitutions)
// ---------------------------------------------------------------------------

/// Stand-in for the paper's 10m×1m / 1G-entry matrix (aspect 10:1).
pub fn mf_data_10to1() -> Arc<SparseMatrix> {
    Arc::new(SparseMatrix::generate(MatrixConfig {
        rows: scaled(20_000) as u32,
        cols: scaled(2_000) as u32,
        rank: 16,
        entries: scaled(400_000),
        noise: 0.05,
        seed: 41,
    }))
}

/// Stand-in for the paper's 3.4m×3m / 1G-entry matrix (aspect ~1:1).
pub fn mf_data_square() -> Arc<SparseMatrix> {
    Arc::new(SparseMatrix::generate(MatrixConfig {
        rows: scaled(6_800) as u32,
        cols: scaled(6_000) as u32,
        rank: 16,
        entries: scaled(400_000),
        noise: 0.05,
        seed: 42,
    }))
}

/// Stand-in for DBpedia-500k.
pub fn kg_data() -> Arc<KnowledgeGraph> {
    Arc::new(KnowledgeGraph::generate(KgConfig {
        entities: scaled(20_000) as u32,
        relations: 40,
        triples: scaled(30_000),
        held_out: 500,
        relation_skew: 1.0,
        entity_skew: 0.8,
        clusters: 16,
        seed: 43,
    }))
}

/// Stand-in for the One Billion Word benchmark. The vocabulary must stay
/// reasonably large relative to the worker count: localization conflicts
/// on hot words are what limits Word2Vec's scaling (Section 4.3), and
/// shrinking the vocabulary too far would exaggerate them.
pub fn corpus_data() -> Arc<Corpus> {
    Arc::new(Corpus::generate(CorpusConfig {
        vocab: scaled(20_000) as u32,
        tokens: scaled(200_000),
        sentence_len: 14,
        topics: 12,
        topic_strength: 0.7,
        skew: 1.0,
        seed: 44,
    }))
}

/// Compute model of the harness, calibrated against the paper's Table 4
/// per-thread access rates: the testbed's 2013-era Xeon runs the
/// unvectorized SGD inner loops (with AdaGrad square roots and scattered
/// memory access) at roughly one effective f32 FLOP per nanosecond, an
/// order of magnitude below peak. This constant reproduces the paper's
/// compute-to-communication ratios, which the figure shapes depend on.
pub fn compute_model() -> lapse_ml::ComputeModel {
    lapse_ml::ComputeModel {
        flops_per_ns: 1.0,
        example_overhead_ns: 100,
    }
}

/// Default MF hyper-parameters for the harness. The model trains at the
/// given (scaled) rank but compute is charged at the paper's rank 100, so
/// the compute-to-communication ratio matches the paper's setup.
pub fn mf_config(rank: usize) -> MfConfig {
    MfConfig {
        rank,
        lr: 0.03,
        reg: 0.01,
        epochs: epochs(),
        seed: 13,
        compute: compute_model(),
        virtual_rank: Some(100),
    }
}

/// KGE hyper-parameters. `dim` is the trained (scaled) dimension;
/// `virtual_dim` the paper dimension used for compute accounting
/// (100 for ComplEx-Small and RESCAL, 4000 for ComplEx-Large).
pub fn kge_config(model: KgeModel, dim: usize, virtual_dim: usize, pal: KgePal) -> KgeConfig {
    KgeConfig {
        model,
        dim,
        negatives: 10,
        lr: 0.1,
        eps: 1e-8,
        epochs: epochs(),
        pal,
        seed: 17,
        compute: compute_model(),
        virtual_dim: Some(virtual_dim),
    }
}

/// W2V hyper-parameters, scaled down from the paper's (embedding size
/// 1000 → 16 trained, compute charged at 1000; 25 negatives → 8; the
/// 4000/3900 negative buffer kept).
pub fn w2v_config(latency_hiding: bool) -> W2vConfig {
    W2vConfig {
        dim: 16,
        window: 3,
        negatives: 8,
        lr: 0.03,
        epochs: epochs(),
        neg_buffer: 4000,
        neg_refresh: 3900,
        subsample_t: 1e-3,
        latency_hiding,
        eval_sentences: 50,
        eval_negatives: 10,
        seed: 19,
        compute: compute_model(),
        virtual_dim: Some(1000),
    }
}

// ---------------------------------------------------------------------------
// measurement runners
// ---------------------------------------------------------------------------

/// Result of measuring one configuration.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Mean epoch duration (virtual seconds).
    pub epoch_secs: f64,
    /// Cluster statistics.
    pub stats: lapse_core::ClusterStats,
    /// Combined per-epoch trace.
    pub epochs: Vec<EpochStats>,
}

fn summarize(results: Vec<Vec<EpochStats>>, stats: lapse_core::ClusterStats) -> Measured {
    let combined = combine_runs(&results);
    let mean = combined
        .iter()
        .map(|e| e.duration_ns() as f64 / 1e9)
        .sum::<f64>()
        / combined.len().max(1) as f64;
    Measured {
        epoch_secs: mean,
        stats,
        epochs: combined,
    }
}

/// Runs the MF workload under the given PS variant.
pub fn measure_mf(
    data: Arc<SparseMatrix>,
    rank: usize,
    p: Parallelism,
    variant: Variant,
) -> Measured {
    let task = MfTask::new(data, mf_config(rank), p.nodes as usize, p.workers);
    let init = task.initializer();
    let cfg = PsConfig::new(p.nodes, task.num_keys(), rank as u32)
        .variant(variant)
        .latches(1000);
    let t2 = task.clone();
    let (results, stats) = run_sim(cfg, p.workers, CostModel::default(), init, move |w| {
        t2.run(w)
    });
    summarize(results, stats)
}

/// Hot-tier fraction used by the Hybrid variant in the harness: the top
/// 2% of ids within each id block (words, entities) — the skewed
/// generators put the popular entities at low ids.
pub const NUPS_HOT_FRACTION: u64 = 50;

/// The hot set the Hybrid variant replicates for a key space made of
/// blocks of `block` ids (e.g. `vocab` for W2V input+output vectors,
/// `entities` for KGE embeddings).
pub fn nups_hot_set(block: u64) -> HotSet {
    HotSet::Blocks {
        block,
        hot: (block / NUPS_HOT_FRACTION).max(1),
    }
}

/// Oracle hot set for the W2V workload: the top words by **measured**
/// corpus frequency (same key budget as [`nups_hot_set`], but ranked by
/// actual counts instead of assuming hot ids are low — an
/// [`HotSet::Explicit`] the Blocks form cannot express in general).
pub fn oracle_hot_set_w2v(corpus: &Corpus) -> HotSet {
    let vocab = corpus.cfg.vocab as u64;
    let budget = (vocab / NUPS_HOT_FRACTION).max(1) as usize;
    let mut ranked: Vec<(u64, u32)> = corpus
        .counts
        .iter()
        .enumerate()
        .map(|(w, &c)| (c, w as u32))
        .collect();
    ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut keys = Vec::with_capacity(2 * budget);
    for &(_, w) in ranked.iter().take(budget) {
        keys.push(Key(w as u64)); // input vector
        keys.push(Key(vocab + w as u64)); // output vector
    }
    HotSet::explicit(keys)
}

/// Oracle hot set for the KGE workload: the top keys (entities and
/// relations in one ranking) by measured training-triple access counts,
/// with the same key budget as [`nups_hot_set`] over the task's key
/// space.
pub fn oracle_hot_set_kge(kg: &KnowledgeGraph) -> HotSet {
    let entities = kg.cfg.entities as u64;
    let num_keys = entities + kg.cfg.relations as u64;
    let blocks = nups_hot_set(entities);
    let budget = (0..num_keys)
        .map(Key)
        .filter(|&k| blocks.contains(k))
        .count();
    let mut counts = vec![0u64; num_keys as usize];
    for t in &kg.train {
        counts[t.s as usize] += 1;
        counts[t.o as usize] += 1;
        counts[entities as usize + t.r as usize] += 1;
    }
    let mut ranked: Vec<(u64, u64)> = counts
        .into_iter()
        .enumerate()
        .map(|(k, c)| (c, k as u64))
        .collect();
    ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    HotSet::explicit(
        ranked
            .into_iter()
            .take(budget)
            .map(|(_, k)| Key(k))
            .collect(),
    )
}

/// Adaptive-management knobs used by the experiment harness: sample
/// every 8th access, tick every 4096 samples, and promote keys whose
/// corrected sketch estimate reaches 3 in the decayed window — on the
/// harness's Zipf workloads this finds roughly the same hot mass the
/// NuPS 2% budget names, without being told.
pub fn adaptive_bench_config() -> AdaptiveConfig {
    AdaptiveConfig {
        sample_every: 8,
        tick_every: 4096,
        sketch_capacity: 2048,
        promote_count: 3,
        demote_count: 0,
        max_promotes_per_tick: 256,
        request_ttl_ticks: 8,
    }
}

/// Runs the KGE workload under the given PS variant and PAL mode.
/// `dim` is the trained dimension, `virtual_dim` the paper dimension used
/// for compute accounting. Under [`Variant::Hybrid`] the hot entity tier
/// (per [`nups_hot_set`]) is replicated.
pub fn measure_kge(
    kg: Arc<KnowledgeGraph>,
    model: KgeModel,
    dim: usize,
    virtual_dim: usize,
    pal: KgePal,
    p: Parallelism,
    variant: Variant,
) -> Measured {
    let entities = kg.cfg.entities as u64;
    measure_kge_tuned(
        kg,
        model,
        dim,
        virtual_dim,
        pal,
        p,
        variant,
        nups_hot_set(entities),
        AdaptiveConfig::default(),
        epochs(),
    )
}

/// [`measure_kge`] with explicit hot set, adaptive knobs, and epoch
/// count — the adaptive-vs-oracle comparison needs all three.
#[allow(clippy::too_many_arguments)]
pub fn measure_kge_tuned(
    kg: Arc<KnowledgeGraph>,
    model: KgeModel,
    dim: usize,
    virtual_dim: usize,
    pal: KgePal,
    p: Parallelism,
    variant: Variant,
    hot_set: HotSet,
    adaptive: AdaptiveConfig,
    epochs: usize,
) -> Measured {
    let cfg = KgeConfig {
        epochs,
        ..kge_config(model, dim, virtual_dim, pal)
    };
    let task = KgeTask::new(kg, cfg, p.nodes as usize, p.workers);
    let init = task.initializer();
    let cfg = PsConfig::new(p.nodes, task.num_keys(), 1)
        .layout(task.layout())
        .variant(variant)
        .hot_set(hot_set)
        .adaptive(adaptive)
        .latches(1000);
    let t2 = task.clone();
    let (results, stats) = run_sim(cfg, p.workers, CostModel::default(), init, move |w| {
        t2.run(w)
    });
    summarize(results, stats)
}

/// Runs the W2V workload under the given PS variant. Under
/// [`Variant::Hybrid`] the hot word tier (per [`nups_hot_set`], covering
/// input and output vectors) is replicated.
pub fn measure_w2v(
    corpus: Arc<Corpus>,
    latency_hiding: bool,
    p: Parallelism,
    variant: Variant,
) -> Measured {
    let vocab = corpus.cfg.vocab as u64;
    measure_w2v_tuned(
        corpus,
        latency_hiding,
        p,
        variant,
        nups_hot_set(vocab),
        AdaptiveConfig::default(),
        epochs(),
    )
}

/// [`measure_w2v`] with explicit hot set, adaptive knobs, and epoch
/// count.
pub fn measure_w2v_tuned(
    corpus: Arc<Corpus>,
    latency_hiding: bool,
    p: Parallelism,
    variant: Variant,
    hot_set: HotSet,
    adaptive: AdaptiveConfig,
    epochs: usize,
) -> Measured {
    let cfg = W2vConfig {
        epochs,
        ..w2v_config(latency_hiding)
    };
    let task = W2vTask::new(corpus, cfg, p.nodes as usize, p.workers);
    let init = task.initializer();
    let cfg = PsConfig::new(p.nodes, task.num_keys(), task.cfg.dim as u32)
        .variant(variant)
        .hot_set(hot_set)
        .adaptive(adaptive)
        .latches(1000);
    let t2 = task.clone();
    let (results, stats) = run_sim(cfg, p.workers, CostModel::default(), init, move |w| {
        t2.run(w)
    });
    summarize(results, stats)
}

// ---------------------------------------------------------------------------
// output
// ---------------------------------------------------------------------------

/// Prints a figure as a series table: one row per x-value, one column per
/// line. `paper_note` states the shape the paper reports, for comparison.
pub fn print_figure(
    title: &str,
    x_label: &str,
    series_names: &[&str],
    rows: &[(String, Vec<f64>)],
    paper_note: &str,
) {
    let mut headers = vec![x_label];
    headers.extend_from_slice(series_names);
    let mut table = Table::new(title, &headers);
    for (x, vals) in rows {
        let mut cells = vec![x.clone()];
        cells.extend(vals.iter().map(|v| format_secs(*v)));
        table.row(cells);
    }
    table.print();
    println!("paper: {paper_note}");
    println!();
}

/// Formats seconds with adaptive precision.
pub fn format_secs(s: f64) -> String {
    if !s.is_finite() {
        "-".to_string()
    } else if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.1}m", s * 1000.0) // milliseconds
    }
}

/// Announces a bench target on stdout.
pub fn banner(name: &str, what: &str) {
    println!("==============================================================");
    println!("{name}: {what}");
    println!(
        "(scale={}, workers/node={}, epochs={})",
        scale(),
        workers_per_node(),
        epochs()
    );
    println!("==============================================================");
}
