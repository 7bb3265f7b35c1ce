//! Cluster entry points for both backends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lapse_net::{Key, NodeId, ThreadedNet};
use lapse_proto::client::ClientCore;
use lapse_proto::server::ServerCore;
use lapse_proto::shard::NodeShared;
use lapse_proto::tracker::ClockFn;
use lapse_proto::{HotSet, Layout, ProtoConfig, Variant};
use lapse_sim::{CostModel, SimCluster};
use lapse_trace::Recorder;
use lapse_utils::metrics::Metrics;

use crate::api::PsWorker;
use crate::sim_backend::{LapseProto, SimBackend};
use crate::stats::ClusterStats;
use crate::threaded::{
    spawn_server, Dispatch, Driver, ThreadedBackend, WakeCell, SERVER_DRAIN_CAP,
};
use crate::worker::Worker;

/// Parameter-server configuration (builder style): every builder sets a
/// field of the protocol configuration, which the backends run as given
/// but for two environment overrides (`LAPSE_NO_SEQLOCK`, `LAPSE_TRACE`).
#[derive(Debug, Clone)]
pub struct PsConfig {
    /// The underlying protocol configuration.
    pub proto: ProtoConfig,
}

impl PsConfig {
    /// `nodes` nodes, keys `0..keys`, `value_len` floats per key, Lapse
    /// variant, caches off — the paper's default experimental setup, with
    /// the rest of [`ProtoConfig::new`]'s shipped defaults.
    pub fn new(nodes: u16, keys: u64, value_len: u32) -> Self {
        PsConfig {
            proto: ProtoConfig::new(nodes, keys, Layout::Uniform(value_len)),
        }
    }

    /// Replaces the value layout.
    pub fn layout(mut self, layout: Layout) -> Self {
        self.proto.layout = layout;
        self
    }

    /// Selects the PS architecture variant.
    pub fn variant(mut self, variant: Variant) -> Self {
        self.proto.variant = variant;
        self
    }

    /// Enables/disables location caches (Section 3.3).
    pub fn location_caches(mut self, on: bool) -> Self {
        self.proto.location_caches = on;
        self
    }

    /// Sets the latch count (Section 3.7; default 1000).
    pub fn latches(mut self, n: usize) -> Self {
        self.proto.latches = n;
        self
    }

    /// Names the hot keys replicated under [`Variant::Hybrid`].
    pub fn hot_set(mut self, hot: HotSet) -> Self {
        self.proto.hot_set = hot;
        self
    }

    /// Tunes the adaptive management technique ([`Variant::Adaptive`]).
    pub fn adaptive(mut self, cfg: lapse_proto::AdaptiveConfig) -> Self {
        self.proto.adaptive = cfg;
        self
    }

    /// Sets the automatic replica-flush threshold (accumulated replicated
    /// pushes per node before propagation; `advance_clock` flushes early).
    pub fn replica_flush_every(mut self, n: u64) -> Self {
        self.proto.replica_flush_every = n;
        self
    }

    /// Turns the seqlock read fast path of every local read (pulls,
    /// `pull_if_local`, snapshot reads) on or off (default: on). The
    /// `LAPSE_NO_SEQLOCK` environment variable turns it off whatever this
    /// says (ThreadSanitizer runs, latched baselines). On the simulator,
    /// which runs one task at a time, every optimistic read validates
    /// first time and serves what the latched route would.
    pub fn wait_free_reads(mut self, on: bool) -> Self {
        self.proto.wait_free_reads = on;
        self
    }

    /// Turns per-link message coalescing on or off (default: on). Only
    /// the threaded backend coalesces; the simulator's cost model charges
    /// per message and its schedules must stay bit-identical.
    pub fn coalesce(mut self, on: bool) -> Self {
        self.proto.coalesce = on;
        self
    }

    /// Turns the flight recorder on or off (always compiled in; default:
    /// off). `LAPSE_TRACE=1` turns it on whatever this says. On the
    /// simulator the recorder stamps virtual time, so traces are
    /// bit-deterministic across seeded runs; on the threaded backend it
    /// reuses the run's wall-clock base.
    pub fn trace(mut self, on: bool) -> Self {
        self.proto.trace = on;
        self
    }
}

/// The protocol configuration a run uses: `cfg`'s, but for the two
/// environment overrides below.
fn run_config(cfg: PsConfig) -> Arc<ProtoConfig> {
    let mut proto = cfg.proto;
    proto.wait_free_reads &= !seqlock_disabled_by_env();
    proto.trace |= trace_enabled_by_env();
    Arc::new(proto)
}

/// `LAPSE_NO_SEQLOCK=1` disables the wait-free read path everywhere —
/// the pull walk, `pull_if_local` and snapshot reads alike, as
/// `PsConfig::wait_free_reads(false)` does: ThreadSanitizer cannot
/// reason about seqlocks (intentional benign races), and the contended
/// benchmark uses it for a latched baseline.
fn seqlock_disabled_by_env() -> bool {
    std::env::var_os("LAPSE_NO_SEQLOCK").is_some_and(|v| !v.is_empty() && v != "0")
}

/// `LAPSE_TRACE=1` enables the flight recorder everywhere (opt-in, unlike
/// the kill switch above): every node records protocol events into
/// per-thread ring buffers, exported after the run.
fn trace_enabled_by_env() -> bool {
    std::env::var_os("LAPSE_TRACE").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Per-lane flight-recorder ring capacity (events; power of two). Large
/// enough to hold the tail of any smoke-scale run; overwrite-oldest keeps
/// longer runs bounded.
const TRACE_RING_CAPACITY: usize = 8192;

/// Builds the run's recorder: enabled (stamping the backend's clock) when
/// the config asks for tracing, the cheap disabled singleton otherwise.
fn build_recorder(on: bool, clock: &ClockFn) -> Arc<Recorder> {
    if on {
        Recorder::new(clock.clone(), TRACE_RING_CAPACITY)
    } else {
        Recorder::disabled()
    }
}

/// Exports the recorder after a run: stashes the Chrome trace-event JSON
/// in the stats and, when `LAPSE_TRACE_OUT` names a path, writes it there
/// (best effort — an unwritable path must not fail the run).
fn export_trace(recorder: &Recorder, stats: &mut ClusterStats) {
    if !recorder.on() {
        return;
    }
    let json = recorder.export_chrome();
    if let Some(path) = std::env::var_os("LAPSE_TRACE_OUT") {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!(
                "lapse-trace: failed to write {}: {e}",
                path.to_string_lossy()
            );
        }
    }
    stats.trace_json = Some(json);
}

fn build_shareds(
    cfg: &Arc<ProtoConfig>,
    clock: ClockFn,
    trace: &Arc<Recorder>,
    mut init: impl FnMut(Key) -> Option<Vec<f32>>,
) -> Vec<Arc<NodeShared>> {
    (0..cfg.nodes)
        .map(|n| {
            NodeShared::with_init_traced(
                cfg.clone(),
                NodeId(n),
                clock.clone(),
                trace.clone(),
                &mut init,
            )
        })
        .collect()
}

/// Runs `body` on every worker of a simulated cluster (virtual time).
///
/// Returns per-worker results (ordered by global worker id) and the
/// aggregated statistics, including the virtual run time.
pub fn run_sim<R, F>(
    cfg: PsConfig,
    workers_per_node: usize,
    cost: CostModel,
    init: impl FnMut(Key) -> Option<Vec<f32>>,
    body: F,
) -> (Vec<R>, ClusterStats)
where
    R: Send + 'static,
    F: Fn(&mut dyn PsWorker) -> R + Send + Sync + 'static,
{
    // Wait-free reads run here as on the threaded backend: one task runs
    // at a time, so every optimistic read validates first time, and the
    // cost model charges per key, not per path — outputs are the latched
    // path's. Tracing too: the recorder stamps virtual time and a global
    // sequence counter, both deterministic under the sim's
    // one-runnable-task-at-a-time execution, so seeded runs export
    // byte-identical traces.
    let proto = run_config(cfg);
    let clock_cell = Arc::new(AtomicU64::new(0));
    let clock: ClockFn = {
        let c = clock_cell.clone();
        Arc::new(move || c.load(Ordering::Relaxed))
    };
    let recorder = build_recorder(proto.trace, &clock);
    let shareds = build_shareds(&proto, clock, &recorder, init);
    let servers: Vec<ServerCore> = shareds.iter().map(|s| ServerCore::new(s.clone())).collect();
    let sim: SimCluster<LapseProto> =
        SimCluster::with_clock(cost, servers, workers_per_node, clock_cell);

    // Completion notifications wake the right simulator task.
    for (n, sh) in shareds.iter().enumerate() {
        let sim_shared = sim.shared().clone();
        let base = n * workers_per_node;
        sh.tracker.set_waker(Arc::new(move |slot, _seq| {
            sim_shared.notify_task(base + slot as usize);
        }));
    }

    let nodes = proto.nodes as usize;
    let worker_shareds = shareds.clone();
    let (report, results, _servers) = sim.run(move |ctx, node, slot| {
        let client = ClientCore::new(worker_shareds[node.idx()].clone(), slot as u16);
        let mut worker = Worker::new(client, SimBackend { ctx }, slot, nodes, workers_per_node);
        body(&mut worker)
    });

    let mut stats = ClusterStats::collect(&shareds);
    stats.messages = report.messages;
    stats.bytes = report.bytes;
    stats.self_messages = report.self_messages;
    stats.virtual_time_ns = Some(report.virtual_time_ns);
    export_trace(&recorder, &mut stats);
    (results, stats)
}

/// Runs `body` on every worker of an in-process threaded cluster (real
/// time): `workers_per_node` worker threads per node, which also drive
/// the nodes' servers (see [`Dispatch`]), and one parked fallback server
/// thread per node.
pub fn run_threaded<R, F>(
    cfg: PsConfig,
    workers_per_node: usize,
    init: impl FnMut(Key) -> Option<Vec<f32>>,
    body: F,
) -> (Vec<R>, ClusterStats)
where
    R: Send + 'static,
    F: Fn(&mut dyn PsWorker) -> R + Send + Sync + 'static,
{
    let (results, stats, _) =
        run_threaded_with_drain_cap(cfg, workers_per_node, SERVER_DRAIN_CAP, init, body);
    (results, stats)
}

/// [`run_threaded`] with the per-visit drain cap forced to `drain_cap`,
/// handing back the stopped cluster's [`Dispatch`] as well. A test hook,
/// not a setting: the dispatch tests force the cap down to 2 so that the
/// doorbell path runs on a small cluster, and check that a run left
/// nothing queued.
#[doc(hidden)]
pub fn run_threaded_with_drain_cap<R, F>(
    cfg: PsConfig,
    workers_per_node: usize,
    drain_cap: usize,
    init: impl FnMut(Key) -> Option<Vec<f32>>,
    body: F,
) -> (Vec<R>, ClusterStats, Arc<Dispatch>)
where
    R: Send + 'static,
    F: Fn(&mut dyn PsWorker) -> R + Send + Sync + 'static,
{
    let proto = run_config(cfg);
    #[allow(
        clippy::disallowed_methods,
        reason = "threaded backend timestamps real elapsed time; it never feeds message contents or ordering"
    )]
    let start = Instant::now();
    let clock: ClockFn = Arc::new(move || start.elapsed().as_nanos() as u64);
    let recorder = build_recorder(proto.trace, &clock);
    let shareds = build_shareds(&proto, clock, &recorder, init);

    let nodes = proto.nodes as usize;
    let net = if recorder.on() {
        ThreadedNet::with_trace(nodes, Metrics::new(), recorder.clone())
    } else {
        ThreadedNet::new(nodes, Metrics::new())
    };
    let dispatch = Dispatch::new(&shareds, net.clone(), drain_cap);

    // Per-worker wake cells, wired into each node's tracker.
    let wakes: Vec<Vec<Arc<WakeCell>>> = (0..nodes)
        .map(|_| {
            (0..workers_per_node)
                .map(|_| Arc::new(WakeCell::default()))
                .collect()
        })
        .collect();
    for (n, sh) in shareds.iter().enumerate() {
        let node_wakes: Vec<Arc<WakeCell>> = wakes[n].clone();
        sh.tracker.set_waker(Arc::new(move |slot, _seq| {
            node_wakes[slot as usize].notify();
        }));
    }

    let server_joins: Vec<_> = shareds
        .iter()
        .map(|sh| spawn_server(dispatch.clone(), sh.node))
        .collect();

    let barrier = Arc::new(std::sync::Barrier::new(nodes * workers_per_node));
    let body = Arc::new(body);
    let mut worker_joins = Vec::new();
    for n in 0..nodes {
        for (slot, node_wake) in wakes[n].iter().enumerate() {
            let shared = shareds[n].clone();
            let dispatch = dispatch.clone();
            let wake = node_wake.clone();
            let barrier = barrier.clone();
            let body = body.clone();
            worker_joins.push(
                std::thread::Builder::new()
                    .name(format!("lapse-worker-n{n}w{slot}"))
                    .spawn(move || {
                        let client = ClientCore::new(shared, slot as u16);
                        let cfg = &client.shared().cfg;
                        let backend = ThreadedBackend::new(cfg, dispatch, wake, barrier, start);
                        let mut worker =
                            Worker::new(client, backend, slot, nodes, workers_per_node);
                        body(&mut worker)
                    })
                    .expect("spawn worker thread"),
            );
        }
    }

    let results: Vec<R> = worker_joins
        .into_iter()
        .map(|j| j.join().expect("worker thread panicked"))
        .collect();

    // Stop the servers: one `Shutdown` per node, handled like any other
    // message by this thread or by whoever holds the node's role.
    let mut driver = Driver::new(dispatch.clone());
    for n in 0..nodes {
        driver.send(
            NodeId(0),
            NodeId(n as u16),
            lapse_proto::messages::Msg::Shutdown,
        );
    }
    driver.drive();
    for j in server_joins {
        j.join().expect("server thread panicked");
    }

    let mut stats = ClusterStats::collect(&shareds);
    stats.messages = net.total_messages();
    stats.bytes = net.total_bytes();
    stats.self_messages = net.self_messages();
    stats.doorbell_rings = dispatch.doorbell_rings();
    export_trace(&recorder, &mut stats);
    (results, stats, dispatch)
}
