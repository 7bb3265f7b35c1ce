//! The four workloads: what each run does, which outputs it checks, and
//! how its metrics are derived from what was measured.

use std::collections::BTreeMap;

use lapse_core::ClusterStats;
use lapse_ml::metrics::EpochStats;

use crate::host;
use crate::metrics::{def, Better, PER_LAYER};
use crate::serve::{run_serve_train, ReaderStats, ServeRun, LATE_NS, NOMINAL_RATE, RATE_WINDOW_S};
use crate::spans::{chrome_json, self_times, SpanBuf, NO_PARENT};
use crate::stats::{best_twentieth, median, pick_percentile, quartiles};
use crate::traced::{ApiStats, Kind};
use crate::train::{run_simulated, run_train, RunOpts, Task, TrainRun, KGE_DIM, MF_RANK, W2V_DIM};
use crate::waterfall;
use crate::{Scale, LOSS_EPOCH};

/// An end-to-end run is a series of repetitions, each a fresh set-up
/// (inputs, cluster, warm-up epoch) followed by about a second of
/// measured epochs and the serving phases, repeated until `--seconds` of
/// measured work is done. Epochs are short and repetitions many, so every
/// timing has hundreds of samples spread over the whole run.
const MIN_REPS: usize = 2;
const MAX_REPS: usize = 64;
/// Repetitions `serve_train` splits `--seconds` into.
const SERVE_REPS: usize = 8;

/// Measured epochs of one repetition of a training workload: about a
/// second's worth at the full sizes.
fn epochs_per_rep(task: Task, scale: Scale) -> usize {
    match (scale, task) {
        (Scale::Smoke, _) => LOSS_EPOCH + 1,
        (Scale::Full, Task::Mf) => 80,
        (Scale::Full, Task::Kge) => 20,
        (Scale::Full, Task::W2v) => 16,
    }
}

/// How the samples of one timing become the number a run reports.
///
/// The host is a shared virtual machine: a neighbour on the sibling
/// hyperthread slows a busy thread by about 40 % for seconds at a time.
/// The samples of a run then have two modes, and the median sits in
/// whichever the neighbour made the larger — ten runs of `mf_blocked`
/// spread by 15 % on their medians and by 3 % on their best twentieths.
/// Where the workload is two threads contending by design
/// (`serve_train`), the best samples of one are those in which the other
/// was stalled, so it reports medians.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Summary {
    /// Mean of the best twentieth of the samples.
    BestTwentieth,
    Median,
}

/// Bounds on the measured epochs of the single long runs of `--trace 1`.
const MIN_EPOCHS: usize = 4;
const MAX_EPOCHS: usize = 400;

/// One reported number with the spread of the samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// What the run reports: the samples' median, or the mean of their
    /// best twentieth.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: u64,
}

/// Everything one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Metric rows by name.
    pub rows: BTreeMap<&'static str, Row>,
    /// Operations attempted (examples, requests, checked keys).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    pub violations: Vec<String>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The reported value of metric `name`, if the run got that far.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.rows.get(name).map(|row| row.value)
    }

    /// Reports a single-sample metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_row(
            name,
            Row {
                value,
                median: value,
                q1: value,
                q3: value,
                n: 1,
            },
        );
    }

    fn set_samples(&mut self, name: &str, samples: &[f64], summary: Summary) {
        let (q1, median, q3) = quartiles(samples);
        let better = def(name).map_or(Better::Lower, |d| d.better);
        if samples.len() >= 20 {
            // The shape of the distribution: two modes show here.
            let mut sorted = samples.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a metric sample"));
            let quantiles: Vec<String> = [0, 1, 5, 10, 25, 50, 75, 90, 95, 99, 100]
                .iter()
                .map(|p| {
                    let rank = (sorted.len() - 1) as f64 * f64::from(*p) / 100.0;
                    format!("p{p} {:.6e}", sorted[rank.round() as usize])
                })
                .collect();
            self.notes
                .push(format!("{name} samples: {}", quantiles.join(" ")));
        }
        self.set_row(
            name,
            Row {
                value: match summary {
                    Summary::BestTwentieth => best_twentieth(samples, better),
                    Summary::Median => median,
                },
                median,
                q1,
                q3,
                n: samples.len() as u64,
            },
        );
    }

    fn set_row(&mut self, name: &str, row: Row) {
        let d = def(name).unwrap_or_else(|| panic!("metric {name} is not in the contract"));
        if !row.value.is_finite() {
            self.violate(0, format!("{name} is not a finite number"));
        }
        self.rows.insert(d.name, row);
    }

    /// Records a failed output check covering `ops` operations.
    fn violate(&mut self, ops: u64, what: String) {
        self.failed += ops.max(1);
        self.violations.push(what);
    }
}

fn secs(e: &EpochStats) -> f64 {
    e.duration_ns() as f64 / 1e9
}

/// Median time of a run's measured epochs (all but the warm-up epoch).
fn median_epoch_s(run: &TrainRun) -> f64 {
    median(&run.epochs[1..].iter().map(secs).collect::<Vec<_>>())
}

fn loss_per_example(e: &EpochStats) -> f64 {
    e.loss / e.examples.max(1) as f64
}

/// Epochs that fit `seconds` at `epoch_s` each.
fn epochs_for(seconds: f64, epoch_s: f64) -> usize {
    ((seconds / epoch_s.max(1e-6)).ceil() as usize).clamp(MIN_EPOCHS, MAX_EPOCHS)
}

pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Outcome {
    let task = match workload {
        "mf_blocked" => Some(Task::Mf),
        "kge_hiding" => Some(Task::Kge),
        "w2v_hybrid" => Some(Task::W2v),
        "serve_train" => None,
        other => panic!("unknown workload {other}"),
    };
    let mut out = Outcome::default();
    match (task, trace) {
        (Some(task), false) => train_end_to_end(&mut out, task, seed, seconds, scale),
        (Some(task), true) => train_per_layer(&mut out, workload, task, seed, seconds, scale),
        (None, false) => serve_end_to_end(&mut out, seed, seconds, scale),
        (None, true) => serve_per_layer(&mut out, workload, seed, seconds, scale),
    }
    out
}

// ---------------------------------------------------------------------------
// training workloads
// ---------------------------------------------------------------------------

/// Output checks shared by every threaded training run.
fn check_train_run(out: &mut Outcome, task: Task, run: &TrainRun) {
    let examples: u64 = run.epochs.iter().map(|e| e.examples).sum();
    out.attempted += examples;
    for e in &run.epochs {
        if !e.loss.is_finite() {
            out.violate(e.examples, format!("epoch {} loss is not finite", e.epoch));
        }
    }
    // The loss falls from the warm-up epoch to the epoch `final_loss` is
    // read at; later epochs of a constant-rate SGD may plateau.
    for pair in run.epochs.windows(2).take(LOSS_EPOCH) {
        if loss_per_example(&pair[1]) >= loss_per_example(&pair[0]) {
            out.violate(
                pair[1].examples,
                format!(
                    "loss did not fall from epoch {} to {}: {} -> {}",
                    pair[0].epoch,
                    pair[1].epoch,
                    loss_per_example(&pair[0]),
                    loss_per_example(&pair[1])
                ),
            );
        }
    }
    check_cluster(out, &run.stats);
    if task == Task::Mf && run.stats.pull_remote + run.stats.push_remote > 0 {
        out.violate(
            run.stats.pull_remote + run.stats.push_remote,
            "mf_blocked touched a remote key".to_string(),
        );
    }
    if let Some(coda) = &run.coda {
        check_reader(out, coda);
    }
}

fn check_cluster(out: &mut Outcome, stats: &ClusterStats) {
    if stats.unexpected_relocates > 0 {
        out.violate(
            stats.unexpected_relocates,
            format!("{} unexpected relocates", stats.unexpected_relocates),
        );
    }
    if stats.tracker_in_flight > 0 {
        out.violate(
            stats.tracker_in_flight,
            format!(
                "{} operations still tracked at the end",
                stats.tracker_in_flight
            ),
        );
    }
}

fn check_reader(out: &mut Outcome, reader: &ReaderStats) {
    out.attempted += reader.open_requests + reader.closed_reads;
    if reader.failed > 0 {
        out.violate(
            reader.failed,
            format!(
                "{} snapshot reads missing, torn or back in epoch",
                reader.failed
            ),
        );
    }
}

/// Where a task is bit-reproducible, an epoch's loss sum must be the
/// same bits in every repetition of one seed.
fn check_reproducible(out: &mut Outcome, what: &str, epoch: usize, losses: &[f64], examples: u64) {
    if losses.iter().any(|l| l.to_bits() != losses[0].to_bits()) {
        out.violate(
            examples,
            format!("{what}: loss of epoch {epoch} differs between repetitions: {losses:?}"),
        );
    }
}

/// The serving metrics of a run, from the latency and throughput windows
/// of its repetitions' readers.
fn set_serving_end_to_end(out: &mut Outcome, readers: &[&ReaderStats], summary: Summary) {
    let p50s: Vec<f64> = readers
        .iter()
        .flat_map(|r| r.open_p50s.iter().copied())
        .collect();
    out.set_samples("serve_p50_ns", &p50s, summary);
    let rates: Vec<f64> = readers
        .iter()
        .flat_map(|r| r.closed_rates.iter().copied())
        .collect();
    out.set_samples("serve_reads_per_s", &rates, summary);
    let mut due = readers[0].due.clone();
    readers[1..].iter().for_each(|r| due.merge(&r.due));
    let p = pick_percentile(due.count());
    out.notes.push(format!(
        "serving: {} open-loop requests at {NOMINAL_RATE} 1/s nominal in {} windows, p{} from \
         due {:.0} ns; {} closed-loop windows of {RATE_WINDOW_S} s",
        due.count(),
        p50s.len(),
        100.0 * p,
        due.quantile(p),
        rates.len()
    ));
}

fn train_end_to_end(out: &mut Outcome, task: Task, seed: u64, seconds: f64, scale: Scale) {
    let opts = RunOpts {
        traced: false,
        coda: true,
    };
    let epochs = epochs_per_rep(task, scale);
    let mut reps: Vec<TrainRun> = Vec::new();
    let mut measured_s = 0.0;
    while reps.len() < MIN_REPS || (measured_s < seconds && reps.len() < MAX_REPS) {
        let rep = run_train(task, seed, scale, 2, epochs, opts);
        check_train_run(out, task, &rep);
        let coda = rep.coda.as_ref().expect("the coda ran");
        measured_s += rep.epochs[1..].iter().map(secs).sum::<f64>();
        measured_s += coda.open_secs + coda.closed_secs;
        reps.push(rep);
    }
    if task == Task::Mf {
        // Disjoint blocks: every epoch's loss sum repeats bit for bit.
        for e in 0..=epochs {
            let losses: Vec<f64> = reps.iter().map(|r| r.epochs[e].loss).collect();
            check_reproducible(out, "mf_blocked", e, &losses, reps[0].epochs[e].examples);
        }
    }

    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    out.set_samples("setup_s", &setups, Summary::Median);
    let epoch_s: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.epochs[1..].iter().map(secs))
        .collect();
    out.set_samples("epoch_s", &epoch_s, Summary::BestTwentieth);
    let losses: Vec<f64> = reps
        .iter()
        .map(|r| loss_per_example(&r.epochs[LOSS_EPOCH]))
        .collect();
    out.set_samples("final_loss", &losses, Summary::Median);
    // The coda's reader has its node to itself.
    let readers: Vec<&ReaderStats> = reps.iter().filter_map(|r| r.coda.as_ref()).collect();
    set_serving_end_to_end(out, &readers, Summary::BestTwentieth);
    out.set("peak_rss_mb", host::peak_rss_mb());
    out.notes.push(format!(
        "{} repetitions of {epochs} measured epochs of {} examples; {} envelopes, \
         {} relocations in the last",
        reps.len(),
        reps[0].epochs[1].examples,
        envelopes(&reps[reps.len() - 1].stats, 2),
        reps[reps.len() - 1].stats.relocations
    ));
}

/// Envelopes the protocol put on the transport: `run_threaded` counts the
/// `Shutdown` it sends each server at the end, which is not traffic.
fn envelopes(stats: &ClusterStats, nodes: u64) -> u64 {
    stats.messages.saturating_sub(nodes)
}

/// Messages the protocol sent: a batch envelope is one message on the
/// transport, its constituents are what the protocol sent.
fn constituent_msgs(stats: &ClusterStats, nodes: u64) -> u64 {
    envelopes(stats, nodes) - stats.net_batches + stats.net_batched_msgs
}

/// Counter-derived layer metrics of one traced cluster run.
fn set_cluster_layers(out: &mut Outcome, stats: &ClusterStats, nodes: u64, examples: u64) {
    let per = |n: u64| n as f64 / examples.max(1) as f64;
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let constituents = constituent_msgs(stats, nodes);
    out.set(
        "client.local_share",
        ratio(stats.pull_local_total(), stats.pull_total()),
    );
    out.set(
        "client.remote_keys_per_example",
        per(stats.pull_remote + stats.push_remote),
    );
    out.set("server.relocations_per_example", per(stats.relocations));
    out.set(
        "server.msgs_per_relocation",
        ratio(constituents, stats.relocations),
    );
    out.set(
        "coalesce.envelopes_per_example",
        per(envelopes(stats, nodes)),
    );
    out.set(
        "coalesce.msgs_per_batch",
        ratio(stats.net_batched_msgs, stats.net_batches),
    );
    out.set("codec.bytes_per_example", per(stats.bytes));
    out.set(
        "replica.pull_share",
        ratio(stats.pull_replica, stats.pull_total()),
    );
    out.set(
        "replica.flushes_per_kexample",
        1e3 * per(stats.replica_flushes),
    );
    out.set(
        "replica.refresh_keys_per_flush",
        ratio(stats.replica_refreshes, stats.replica_flushes),
    );
    out.set(
        "storage.value_bytes_per_example",
        per(stats.value_bytes_moved),
    );
    out.set(
        "storage.heap_allocs_per_kexample",
        1e3 * per(stats.value_allocs_heap),
    );
    out.set("tracker.in_flight_end", stats.tracker_in_flight as f64);
}

/// API-boundary metrics of the traced workers, merged.
fn set_api_layers(out: &mut Outcome, workers: &[ApiStats], examples: u64, overhead: f64) {
    let mut total = ApiStats::empty();
    workers.iter().for_each(|w| total.absorb(w));
    out.set("api.compute_share", total.compute_share());
    for (name, kind) in [
        ("api.pull_share", Kind::Pull),
        ("api.push_share", Kind::Push),
        ("api.localize_share", Kind::Localize),
        ("api.wait_share", Kind::Wait),
        ("api.barrier_share", Kind::Barrier),
        ("api.clock_share", Kind::Clock),
    ] {
        out.set(name, total.share(kind));
    }
    for (name, hist, scale) in [
        ("api.pull_p50_ns", &total.pull, 1.0),
        ("api.push_p50_ns", &total.push, 1.0),
        ("api.wait_p50_us", &total.wait, 1e-3),
    ] {
        out.set_row(
            name,
            Row {
                value: hist.quantile(0.5) * scale,
                median: hist.quantile(0.5) * scale,
                q1: hist.quantile(0.25) * scale,
                q3: hist.quantile(0.75) * scale,
                n: hist.count(),
            },
        );
    }
    out.set(
        "api.calls_per_example",
        total.calls.iter().sum::<u64>() as f64 / examples.max(1) as f64,
    );
    out.set("api.trace_overhead_share", overhead);
}

fn set_serving_layers(out: &mut Outcome, reader: &ReaderStats, stats: &ClusterStats) {
    out.set("serving.p99_due_ns", reader.due.quantile(0.99));
    out.set("serving.p999_due_ns", reader.due.quantile(0.999));
    out.set("serving.late_share", reader.due.share_above(LATE_NS));
    out.set("serving.generator_lag_p99_ns", reader.lag.quantile(0.99));
    out.set("serving.service_p50_ns", reader.service.quantile(0.5));
    let reads = (stats.snapshot_reads + stats.snapshot_fallbacks).max(1) as f64;
    out.set(
        "serving.fallback_share",
        stats.snapshot_fallbacks as f64 / reads,
    );
    out.set(
        "serving.stale_wait_share",
        stats.snapshot_stale_waits as f64 / reads,
    );
}

/// Writes the span file of a `--trace 1` pass and notes, per track, what
/// the kept spans say: the self time of the root spans (an epoch's
/// compute, a cranked operation's harness gaps) as a share of their
/// duration.
fn write_spans(out: &mut Outcome, workload: &str, workers: &[ApiStats], waterfall: &SpanBuf) {
    let mut tracks: Vec<(String, &SpanBuf)> = workers
        .iter()
        .enumerate()
        .map(|(i, w)| (format!("{workload}/worker{i}"), &w.spans))
        .collect();
    tracks.push(("waterfall".to_string(), waterfall));
    for (track, buf) in &tracks {
        let own = self_times(buf.spans());
        let roots = buf
            .spans()
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.parent == NO_PARENT);
        let (self_ns, total_ns) = roots.fold((0u64, 0u64), |(a, b), (s, own)| {
            (a + own, b + (s.end_ns - s.start_ns))
        });
        out.notes.push(format!(
            "spans {track}: {} kept, {} dropped, root self time {:.1} %",
            buf.spans().len(),
            buf.dropped(),
            100.0 * self_ns as f64 / total_ns.max(1) as f64
        ));
    }
    host::write_artifact(&format!("spans-{workload}.json"), &chrome_json(&tracks));
}

fn zero_per_layer(out: &mut Outcome) {
    for d in &PER_LAYER {
        out.set(d.name, 0.0);
    }
}

fn train_per_layer(
    out: &mut Outcome,
    workload: &str,
    task: Task,
    seed: u64,
    seconds: f64,
    scale: Scale,
) {
    zero_per_layer(out);
    // The single-worker baseline: the same task on one node.
    let single = run_train(task, seed, scale, 1, 2, RunOpts::default());
    check_train_run(out, task, &single);
    let epoch_1x1 = median_epoch_s(&single);

    // Half the time untraced, half traced: same sizes, same seed.
    let calibration = run_train(task, seed, scale, 2, 0, RunOpts::default());
    check_train_run(out, task, &calibration);
    let measured = epochs_for(seconds / 2.0, secs(&calibration.epochs[0]));
    let plain = run_train(task, seed, scale, 2, measured, RunOpts::default());
    check_train_run(out, task, &plain);
    let opts = RunOpts {
        traced: true,
        coda: true,
    };
    let traced = run_train(task, seed, scale, 2, measured, opts);
    check_train_run(out, task, &traced);
    let (epoch_plain, epoch_traced) = (median_epoch_s(&plain), median_epoch_s(&traced));

    let measured_examples: u64 = traced.epochs[1..].iter().map(|e| e.examples).sum();
    let all_examples: u64 = traced.epochs.iter().map(|e| e.examples).sum();
    set_api_layers(
        out,
        &traced.api,
        measured_examples,
        epoch_traced / epoch_plain - 1.0,
    );
    // Counters cover the whole run, warm-up epoch and set-up included.
    set_cluster_layers(out, &traced.stats, 2, all_examples);
    set_serving_layers(
        out,
        traced.coda.as_ref().expect("the coda ran"),
        &traced.stats,
    );
    out.set("baseline.epoch_1x1_s", epoch_1x1);
    out.set("baseline.speedup_vs_1x1", epoch_1x1 / epoch_plain);

    let (virtual_epoch_s, sim_messages, sim_relocations, sim_wall_s) =
        run_simulated(task, seed, scale);
    out.set("sim.virtual_epoch_s", virtual_epoch_s);
    out.set("sim.messages", sim_messages as f64);
    out.set("sim.relocations", sim_relocations as f64);
    out.set("sim.wall_s", sim_wall_s);
    // The simulator trained two epochs; scale the threaded run's
    // constituent messages to as many.
    let threaded_two_epochs =
        constituent_msgs(&plain.stats, 2) as f64 * 2.0 / plain.epochs.len() as f64;
    out.set(
        "sim.msgs_vs_threaded",
        sim_messages as f64 / threaded_two_epochs.max(1.0),
    );

    let dim = match task {
        Task::Mf => MF_RANK,
        Task::Kge => 2 * KGE_DIM,
        Task::W2v => W2V_DIM,
    };
    let spans = set_waterfall(out, scale, dim);
    out.set(
        "checks.failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    write_spans(out, workload, &traced.api, &spans);
    out.notes.push(format!(
        "epoch_s untraced {epoch_plain:.4}, traced {epoch_traced:.4}, 1x1 {epoch_1x1:.4} \
         ({measured} epochs each)"
    ));
}

/// Runs the hand-cranked waterfall at value length `dim` and reports
/// its metrics.
fn set_waterfall(out: &mut Outcome, scale: Scale, dim: usize) -> SpanBuf {
    let (values, spans) = waterfall::run(scale, dim);
    for (name, value) in values {
        out.set(name, value);
    }
    spans
}

// ---------------------------------------------------------------------------
// serve_train
// ---------------------------------------------------------------------------

fn check_serve_run(out: &mut Outcome, run: &ServeRun) {
    out.attempted += run.attempted;
    if run.failed > 0 {
        out.violate(
            run.failed,
            format!(
                "{} reads torn, missing or back in epoch, or keys off init + push sum",
                run.failed
            ),
        );
    }
    let per_example = |loss: f64| loss / run.examples_per_epoch as f64;
    let mut losses = vec![run.warmup_loss];
    losses.extend(run.epochs.iter().map(|e| e.loss));
    if losses.iter().any(|l| !l.is_finite()) {
        out.violate(
            run.examples_per_epoch,
            "trainer loss is not finite".to_string(),
        );
    }
    for (i, pair) in losses.windows(2).take(LOSS_EPOCH).enumerate() {
        if pair[1] >= pair[0] {
            out.violate(
                run.examples_per_epoch,
                format!(
                    "trainer loss did not fall from epoch {i} to {}: {} -> {}",
                    i + 1,
                    per_example(pair[0]),
                    per_example(pair[1])
                ),
            );
        }
    }
    check_cluster(out, &run.stats);
    if envelopes(&run.stats, 1) > 0 {
        out.violate(
            envelopes(&run.stats, 1),
            format!("serve_train sent {} messages", envelopes(&run.stats, 1)),
        );
    }
}

/// Trainer epochs that ran wholly beside the open-loop phase, seconds.
fn open_phase_epochs(run: &ServeRun) -> Vec<f64> {
    run.epochs
        .iter()
        .filter(|e| e.in_open_phase)
        .map(|e| (e.end_ns - e.start_ns) as f64 / 1e9)
        .collect()
}

fn serve_end_to_end(out: &mut Outcome, seed: u64, seconds: f64, scale: Scale) {
    let reps: Vec<ServeRun> = (0..SERVE_REPS)
        .map(|_| {
            let rep = run_serve_train(seed, scale, seconds / SERVE_REPS as f64, false);
            check_serve_run(out, &rep);
            rep
        })
        .collect();
    let epoch_s: Vec<f64> = reps.iter().flat_map(open_phase_epochs).collect();
    if epoch_s.is_empty() {
        out.violate(
            1,
            "no trainer epoch fitted beside an open-loop phase: --seconds is too short".to_string(),
        );
        return;
    }
    // One writer, so the trainer's arithmetic repeats bit for bit.
    for e in 0..LOSS_EPOCH {
        let losses: Vec<f64> = reps.iter().map(|r| r.epochs[e].loss).collect();
        check_reproducible(
            out,
            "serve_train",
            e + 1,
            &losses,
            reps[0].examples_per_epoch,
        );
    }

    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    // Reader and trainer contend for the same cache lines all the time.
    out.set_samples("setup_s", &setups, Summary::Median);
    out.set_samples("epoch_s", &epoch_s, Summary::Median);
    let losses: Vec<f64> = reps
        .iter()
        .map(|r| r.epochs[LOSS_EPOCH - 1].loss / r.examples_per_epoch as f64)
        .collect();
    out.set_samples("final_loss", &losses, Summary::Median);
    let readers: Vec<&ReaderStats> = reps.iter().map(|r| &r.reader).collect();
    set_serving_end_to_end(out, &readers, Summary::Median);
    out.set("peak_rss_mb", host::peak_rss_mb());
    out.notes.push(format!(
        "{} repetitions; {} trainer epochs of {} steps beside the open-loop phase: {:.0} steps/s",
        reps.len(),
        epoch_s.len(),
        reps[0].examples_per_epoch,
        reps[0].examples_per_epoch as f64 / median(&epoch_s)
    ));
}

fn serve_per_layer(out: &mut Outcome, workload: &str, seed: u64, seconds: f64, scale: Scale) {
    zero_per_layer(out);
    let plain = run_serve_train(seed, scale, seconds / 2.0, false);
    check_serve_run(out, &plain);
    let traced = run_serve_train(seed, scale, seconds / 2.0, true);
    check_serve_run(out, &traced);
    let (epoch_plain, epoch_traced) = (
        median(&open_phase_epochs(&plain)),
        median(&open_phase_epochs(&traced)),
    );
    let api = traced.api.as_ref().expect("the trainer was traced");
    let measured_steps = traced.epochs.len() as u64 * traced.examples_per_epoch;
    let all_steps = measured_steps + traced.examples_per_epoch;
    set_api_layers(
        out,
        std::slice::from_ref(api),
        measured_steps,
        epoch_traced / epoch_plain.max(f64::MIN_POSITIVE) - 1.0,
    );
    set_cluster_layers(out, &traced.stats, 1, all_steps);
    // The reader's numbers come from the untraced run: the tracer slows
    // the trainer it contends with.
    set_serving_layers(out, &plain.reader, &plain.stats);
    out.set(
        "serving.train_ops_per_s",
        plain.examples_per_epoch as f64 / epoch_plain.max(f64::MIN_POSITIVE),
    );
    let spans = set_waterfall(out, scale, MF_RANK);
    out.set(
        "checks.failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    write_spans(out, workload, std::slice::from_ref(api), &spans);
    out.notes.push(format!(
        "trainer epoch_s untraced {epoch_plain:.5}, traced {epoch_traced:.5}; \
         no 1x1 baseline or simulator row: the reader is not a PsWorker body"
    ));
}
