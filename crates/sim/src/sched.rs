//! The event loop: virtual clock, message delivery, worker scheduling.

use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lapse_net::wire::message_bytes;
use lapse_net::{NodeId, WireSize};

use crate::cost::CostModel;
use crate::report::SimReport;
use crate::task::{HandoffState, TaskId, TaskSync, YieldReason};

/// A protocol runnable on the simulator: a message type and a per-node
/// server handler. The Lapse PS, the SSP baseline, and the low-level MF
/// baseline all implement this.
pub trait SimProtocol: 'static {
    /// Message type.
    type Msg: Send + WireSize + std::fmt::Debug;
    /// Per-node server state.
    type Server: Send;

    /// Handles one message at a node's server, appending outgoing
    /// messages (the server is modelled as a serial resource; this runs
    /// at the message's service time).
    fn handle(server: &mut Self::Server, msg: Self::Msg, out: &mut Vec<(NodeId, Self::Msg)>);

    /// `(keys, floats)` touched by the message — input to the server cost
    /// model.
    fn msg_load(msg: &Self::Msg) -> (u64, u64);
}

/// An event in the heap.
enum Event<M> {
    /// Message arrival at a node.
    Deliver { dst: NodeId, msg: M },
    /// Resume a worker task.
    Wake { task: TaskId },
}

struct HeapEntry<M> {
    time: u64,
    seq: u64,
    event: Event<M>,
}

impl<M> PartialEq for HeapEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for HeapEntry<M> {}
impl<M> PartialOrd for HeapEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for HeapEntry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// State shared between the scheduler and the worker threads. At any
/// moment at most one thread (the scheduler or one worker) is running, so
/// the mutexes are uncontended; they exist to satisfy the compiler's
/// aliasing rules cheaply.
pub struct SimShared<P: SimProtocol> {
    /// Cost model.
    pub cost: CostModel,
    heap: Mutex<BinaryHeap<Reverse<HeapEntry<P::Msg>>>>,
    seq: AtomicU64,
    /// Per-node NIC egress availability (sender-side serialization).
    egress_free: Mutex<Vec<u64>>,
    /// Effective "now" exposed to protocol code (trackers time relocation
    /// durations against this).
    clock: Arc<AtomicU64>,
    /// Task notifications raised by protocol wake callbacks.
    pending_notifies: Mutex<Vec<TaskId>>,
    /// Message / byte counters.
    messages: AtomicU64,
    bytes: AtomicU64,
    self_messages: AtomicU64,
}

impl<P: SimProtocol> SimShared<P> {
    /// Stores the current effective virtual time (scheduler and the one
    /// running worker only).
    pub(crate) fn store_clock(&self, t: u64) {
        self.clock.store(t, Ordering::Relaxed);
    }

    /// Raises a wake notification for `task` (callable from protocol wake
    /// callbacks on any of the simulator's threads).
    pub fn notify_task(&self, task: TaskId) {
        self.pending_notifies.lock().push(task);
    }

    fn push_event(&self, time: u64, event: Event<P::Msg>) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.heap
            .lock()
            .push(Reverse(HeapEntry { time, seq, event }));
    }

    /// Sends `msg` from `src` to `dst` at virtual time `at`, applying the
    /// cost model (egress serialization + latency).
    pub fn send_msg(&self, src: NodeId, dst: NodeId, msg: P::Msg, at: u64) {
        let bytes = message_bytes(&msg) as u64;
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        let arrival = if src == dst {
            self.self_messages.fetch_add(1, Ordering::Relaxed);
            at + self.cost.self_latency_ns
        } else {
            let mut egress = self.egress_free.lock();
            let start = egress[src.idx()].max(at);
            let done = start + self.cost.tx_ns(bytes as usize);
            egress[src.idx()] = done;
            done + self.cost.net_latency_ns
        };
        self.push_event(arrival, Event::Deliver { dst, msg });
    }
}

/// Builder/runner for one simulation.
pub struct SimCluster<P: SimProtocol> {
    shared: Arc<SimShared<P>>,
    servers: Vec<P::Server>,
    nodes: u16,
    workers_per_node: usize,
}

impl<P: SimProtocol> SimCluster<P> {
    /// Creates a cluster of `servers.len()` nodes.
    pub fn new(cost: CostModel, servers: Vec<P::Server>, workers_per_node: usize) -> Self {
        Self::with_clock(cost, servers, workers_per_node, Arc::new(AtomicU64::new(0)))
    }

    /// Like [`SimCluster::new`], but sharing an externally created virtual
    /// clock cell — protocol state built *before* the cluster (e.g.
    /// operation trackers that timestamp relocations) can read the same
    /// clock.
    pub fn with_clock(
        cost: CostModel,
        servers: Vec<P::Server>,
        workers_per_node: usize,
        clock: Arc<AtomicU64>,
    ) -> Self {
        let nodes = servers.len() as u16;
        assert!(nodes > 0, "simulation needs at least one node");
        assert!(workers_per_node > 0, "simulation needs at least one worker");
        let shared = Arc::new(SimShared {
            cost,
            heap: Mutex::new(BinaryHeap::new()),
            seq: AtomicU64::new(0),
            egress_free: Mutex::new(vec![0; nodes as usize]),
            clock,
            pending_notifies: Mutex::new(Vec::new()),
            messages: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            self_messages: AtomicU64::new(0),
        });
        SimCluster {
            shared,
            servers,
            nodes,
            workers_per_node,
        }
    }

    /// The shared state (for installing protocol wake callbacks before
    /// `run`).
    pub fn shared(&self) -> &Arc<SimShared<P>> {
        &self.shared
    }

    /// Runs the simulation: spawns one thread per worker, executes `body`
    /// on each, processes events until all workers finished and the
    /// network drained. Returns the report, per-worker results (ordered
    /// by task id), and the final server states.
    ///
    /// `body` receives the worker's virtual-time context, its node, and
    /// its slot on the node.
    pub fn run<R, F>(mut self, body: F) -> (SimReport, Vec<R>, Vec<P::Server>)
    where
        R: Send + 'static,
        F: Fn(&mut crate::task::TaskCtx<P>, NodeId, usize) -> R + Send + Sync + 'static,
    {
        let n_tasks = self.nodes as usize * self.workers_per_node;
        let body = Arc::new(body);
        let results: Arc<Mutex<Vec<Option<R>>>> =
            Arc::new(Mutex::new((0..n_tasks).map(|_| None).collect()));
        let mut syncs: Vec<Arc<TaskSync>> = Vec::with_capacity(n_tasks);
        let mut joins = Vec::with_capacity(n_tasks);

        for task in 0..n_tasks {
            let sync = TaskSync::new();
            syncs.push(sync.clone());
            let node = NodeId((task / self.workers_per_node) as u16);
            let slot = task % self.workers_per_node;
            let shared = self.shared.clone();
            let body = body.clone();
            let results = results.clone();
            joins.push(std::thread::spawn(move || {
                // Park until the scheduler's first wake.
                let resume = {
                    let mut state = sync.lock.lock();
                    loop {
                        if let HandoffState::RunRequested(t) = &*state {
                            let t = *t;
                            *state = HandoffState::Running;
                            break t;
                        }
                        sync.cv.wait(&mut state);
                    }
                };
                let mut ctx = crate::task::TaskCtx::new(shared, sync.clone(), task, node, resume);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    body(&mut ctx, node, slot)
                }));
                let final_time = ctx.now();
                match outcome {
                    Ok(r) => {
                        results.lock()[task] = Some(r);
                        sync.finish(final_time);
                    }
                    Err(payload) => {
                        *sync.panicked.lock() = Some(payload);
                        sync.finish(final_time);
                    }
                }
            }));
        }

        // Start every task at time 0.
        for task in 0..n_tasks {
            self.shared.push_event(0, Event::Wake { task });
        }

        // ---- event loop ----
        let mut server_free = vec![0u64; self.nodes as usize];
        let mut waiting: BTreeSet<TaskId> = BTreeSet::new();
        let mut finished = vec![false; n_tasks];
        let mut finished_count = 0usize;
        let mut barrier_waiting: Vec<(TaskId, u64)> = Vec::new();
        let mut out: Vec<(NodeId, P::Msg)> = Vec::new();
        let mut final_time = 0u64;

        while finished_count < n_tasks || self.shared.heap.lock().peek().is_some() {
            let entry = self.shared.heap.lock().pop();
            let Some(Reverse(entry)) = entry else {
                // Heap empty but tasks alive: barrier release or deadlock.
                if !barrier_waiting.is_empty() && barrier_waiting.len() == n_tasks - finished_count
                {
                    let release = barrier_waiting.iter().map(|&(_, t)| t).max().unwrap_or(0);
                    for (task, _) in barrier_waiting.drain(..) {
                        self.shared.push_event(release, Event::Wake { task });
                    }
                    continue;
                }
                let stuck: Vec<TaskId> = waiting.iter().copied().collect();
                panic!(
                    "simulation deadlock: {} unfinished tasks, waiting={stuck:?}, \
                     barrier={barrier_waiting:?}",
                    n_tasks - finished_count
                );
            };
            let now = entry.time;
            final_time = final_time.max(now);
            match entry.event {
                Event::Deliver { dst, msg } => {
                    let start = now.max(server_free[dst.idx()]);
                    let (keys, floats) = P::msg_load(&msg);
                    let done = start + self.shared.cost.server_ns(keys, floats);
                    server_free[dst.idx()] = done;
                    final_time = final_time.max(done);
                    self.shared.clock.store(done, Ordering::Relaxed);
                    P::handle(&mut self.servers[dst.idx()], msg, &mut out);
                    for (d, m) in out.drain(..) {
                        self.shared.send_msg(dst, d, m, done);
                    }
                    self.drain_notifies(&mut waiting, done, &finished);
                }
                Event::Wake { task } => {
                    if finished[task] {
                        continue;
                    }
                    self.shared.clock.store(now, Ordering::Relaxed);
                    let (reason, my_time) = syncs[task].run_until_yield(now);
                    final_time = final_time.max(my_time);
                    match reason {
                        YieldReason::Wait => {
                            waiting.insert(task);
                        }
                        YieldReason::Until(t) => {
                            self.shared.push_event(t, Event::Wake { task });
                        }
                        YieldReason::Barrier => {
                            barrier_waiting.push((task, my_time));
                        }
                        YieldReason::Finished => {
                            finished[task] = true;
                            finished_count += 1;
                        }
                    }
                    self.drain_notifies(&mut waiting, my_time, &finished);
                    // A completed task may release a pending barrier.
                    if !barrier_waiting.is_empty()
                        && barrier_waiting.len() == n_tasks - finished_count
                    {
                        let release = barrier_waiting.iter().map(|&(_, t)| t).max().unwrap_or(0);
                        for (task, _) in barrier_waiting.drain(..) {
                            self.shared.push_event(release, Event::Wake { task });
                        }
                    }
                }
            }
        }

        for join in joins {
            join.join().expect("worker thread join");
        }
        for sync in &syncs {
            if let Some(payload) = sync.panicked.lock().take() {
                std::panic::resume_unwind(payload);
            }
        }

        let report = SimReport {
            virtual_time_ns: final_time,
            messages: self.shared.messages.load(Ordering::Relaxed),
            bytes: self.shared.bytes.load(Ordering::Relaxed),
            self_messages: self.shared.self_messages.load(Ordering::Relaxed),
        };
        let results = Arc::try_unwrap(results)
            .unwrap_or_else(|_| panic!("worker result references leaked"))
            .into_inner()
            .into_iter()
            .map(|r| r.expect("worker produced no result"))
            .collect();
        (report, results, self.servers)
    }

    fn drain_notifies(&self, waiting: &mut BTreeSet<TaskId>, at: u64, finished: &[bool]) {
        let mut pending = self.shared.pending_notifies.lock();
        for task in pending.drain(..) {
            if !finished[task] && waiting.remove(&task) {
                self.shared.push_event(at, Event::Wake { task });
            }
        }
    }
}
