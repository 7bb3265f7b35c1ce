//! Threaded runtime: the real in-process parameter server.
//!
//! `w` worker threads per node, all in this process, connected by the
//! FIFO transport of `lapse-net` (Figure 2 of the paper). Workers access
//! local parameters directly through the latched shared state; remote
//! operations travel as messages.
//!
//! A node's server is a passive object that **whichever thread just
//! enqueued a message for it drives** (see [`Dispatch`]): a worker that
//! sends a request runs the destination's handler itself, then the
//! handlers of whatever that produced, so a relocation chain runs to
//! completion on the issuing worker's thread and no thread is woken on
//! the way. Each node keeps one server thread, parked on a doorbell, for
//! the work a driver leaves behind when it hits the drain cap.
//!
//! When the destination's role is held by another thread, that thread
//! finishes the operation, and the issuing worker waits for it in one
//! place, `WakeCell::wait_until`: check, spin for about what a sleep
//! costs, then park. The epoch barrier and the doorbell sleep at once —
//! nobody behind them is microseconds away.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{fence, AtomicBool, AtomicI64, AtomicU32, AtomicU64};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lapse_net::{Endpoint, NodeId, ThreadedNet};
use lapse_proto::client::{ClientCore, MsgSink};
use lapse_proto::coalesce::Coalescer;
use lapse_proto::messages::Msg;
use lapse_proto::server::ServerCore;
use lapse_proto::shard::{AccessLane, NodeShared};
use lapse_proto::{ProtoConfig, SnapshotReader};

use crate::worker::Backend;

/// How long a waiter polls before it goes to sleep: about what the sleep
/// costs (ski rental — whenever the completion arrives, polling this long
/// first costs at most twice the better of "poll" and "sleep at once").
/// On the benchmark host a park costs the sleeper 16–32 µs and the
/// notifier a futex wake, for completions that arrive within 2–8 µs when
/// another worker held the destination's role. It also bounds what a
/// waiter burns when the thread it waits for was descheduled. The gain is
/// flat between 20 and 100 µs (EXPERIMENTS.md, "before/after PR 18"), so
/// this is a constant, not a setting.
const SPIN_BUDGET: Duration = Duration::from_micros(30);

/// Where a worker waits for the completion of one of its operations:
/// check, spin, park.
///
/// Most completions arrive with nobody parked: the operation ran to
/// completion on the waiter's own thread before it came to wait, or —
/// when another thread held the destination's role and finishes the work
/// — a few microseconds later, while the waiter still polls. So `notify`
/// takes the lock only when the parked count says someone may be asleep.
///
/// No wake-up is missed. The waiter announces itself (`parked += 1`),
/// fences, then re-checks `done` under the lock before every sleep. The
/// notifier is called after the completion was published, fences, then
/// reads `parked`. The two `SeqCst` fences are ordered one way or the
/// other: if the waiter's comes first, the notifier reads `parked > 0`
/// and takes the lock, which it gets either before the waiter's check
/// (the check then sees the completion) or once the waiter sleeps (the
/// `notify_all` wakes it); if the notifier's comes first, the waiter's
/// check already sees the completion and it never sleeps. (The spin
/// stage before the announcement only reads `done`: it can end a wait
/// early, never make one miss its wake-up.)
///
/// The cell holds no counters: the waiter counts its waits in its own
/// [`AccessLane`], a block of its own that the notifiers, which read
/// `parked` on every completion, never touch. Aligned to 128 bytes, so
/// that the cells of two workers never share a line either.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct WakeCell {
    parked: AtomicU32,
    lock: Mutex<()>,
    cv: Condvar,
}

impl WakeCell {
    /// Wakes the waiter, if one is parked. Call after publishing the
    /// completion that its `done` observes.
    pub(crate) fn notify(&self) {
        fence(SeqCst);
        if self.parked.load(SeqCst) == 0 {
            return;
        }
        let _g = self.lock.lock();
        self.cv.notify_all();
    }

    /// Blocks until `done()`: polls it for [`SPIN_BUDGET`], then parks.
    /// Every wait bumps exactly one of the three stage counters of
    /// `lane`, the waiter's own.
    pub(crate) fn wait_until(&self, lane: &AccessLane, mut done: impl FnMut() -> bool) {
        if done() {
            lane.wake_immediate.add(1);
            return;
        }
        #[allow(
            clippy::disallowed_methods,
            reason = "bounds the spin stage and times the wait for a statistic; it never feeds message contents or ordering"
        )]
        let start = Instant::now();
        loop {
            std::hint::spin_loop();
            if done() {
                lane.wake_spins.add(1);
                break;
            }
            if start.elapsed() >= SPIN_BUDGET {
                lane.wake_parks.add(1);
                self.park_until(&mut done);
                break;
            }
        }
        lane.wait_ns.add(start.elapsed().as_nanos() as u64);
    }

    /// The park stage of [`WakeCell::wait_until`]: announce, fence,
    /// re-check under the lock, sleep.
    fn park_until(&self, done: &mut impl FnMut() -> bool) {
        self.parked.fetch_add(1, SeqCst);
        fence(SeqCst);
        let mut g = self.lock.lock();
        while !done() {
            self.cv.wait(&mut g);
        }
        drop(g);
        self.parked.fetch_sub(1, SeqCst);
    }
}

/// Where a node's fallback server thread sleeps until a driver leaves it
/// work (or the run ends).
#[derive(Default)]
struct Doorbell {
    rung: Mutex<bool>,
    cv: Condvar,
}

impl Doorbell {
    fn ring(&self) {
        *self.rung.lock() = true;
        self.cv.notify_one();
    }

    fn wait(&self) {
        let mut rung = self.rung.lock();
        while !*rung {
            self.cv.wait(&mut rung);
        }
        *rung = false;
    }
}

/// Upper bound on messages one thread ingests for one node per visit:
/// bounds both the latency a queued message can accrue behind a deep
/// drain and the time a worker spends on other workers' traffic.
pub const SERVER_DRAIN_CAP: usize = 256;

/// Everything that makes up one node's server. Private, and reachable
/// only through [`Dispatch::visit`]'s `try_lock`: a thread holds at most
/// one role at a time and never blocks on one, so roles cannot deadlock,
/// and the lock order below a role is `role → shard latch → tracker`
/// (what `ServerCore::handle_batch` takes).
struct Role {
    server: ServerCore,
    endpoint: Endpoint<Msg>,
    /// `None` when coalescing is off: the sink is then sent as it is.
    coalescer: Option<Coalescer>,
    burst: Vec<Msg>,
    sink: MsgSink,
}

struct NodeServer {
    role: Mutex<Role>,
    /// Envelopes sent to this node minus envelopes taken off its inbox.
    /// A sender bumps it *after* the enqueue, so it can dip below zero
    /// for a moment when the holder dequeues in between.
    pending: AtomicI64,
    /// Set under the role by whoever handles the node's `Shutdown`.
    stopped: AtomicBool,
    doorbell: Doorbell,
    /// Times a driver hit the drain cap here and rang the doorbell (a
    /// statistic).
    rings: AtomicU64,
}

/// Who runs a server: the dispatch state shared by every thread of a
/// threaded cluster.
///
/// A sender enqueues through [`ThreadedNet::send`], bumps the
/// destination's `pending` count, and then *visits* the destination:
/// `try_lock` its role, drain the inbox, handle the burst, enqueue the
/// output, unlock — and goes on to the destinations of that output, from
/// a worklist, holding one role at a time and blocking on none.
///
/// **No message is stranded.** Every sender bumps `pending` and then
/// tries the role; every holder re-reads `pending` after releasing the
/// role and goes round again while it is positive (a `SeqCst` fence sits
/// between bump and `try_lock`, and between unlock and re-read, so one of
/// the two sees the other). Suppose a message stayed in the inbox with
/// no thread left to visit. Its sender's `try_lock` failed, so some
/// thread held the role then; take the last holder. Its final re-read
/// came out `<= 0` although our sender's bump was visible, so some other
/// envelope had been dequeued before *its* sender's bump — and that
/// sender tries the role after its bump, after the last holder's unlock,
/// and gets it: a later holder, contradiction. (A holder that stops at
/// the drain cap instead rings the doorbell, and the fallback thread is
/// the later holder.)
///
/// **Per-link FIFO is untouched.** Every message still goes through the
/// destination's one channel and is handled in dequeue order under the
/// role; a server's output is enqueued *under its role* (the enqueue is a
/// non-blocking channel push), so two successive holders cannot reorder
/// what the node sends on a link.
///
/// **Helping is bounded.** A visit handles at most the drain cap; if
/// more is queued it rings the node's doorbell and leaves the rest to the
/// fallback server thread, which runs this same code.
pub struct Dispatch {
    net: Arc<ThreadedNet<Msg>>,
    nodes: Vec<NodeServer>,
    drain_cap: usize,
}

impl Dispatch {
    /// The dispatch state of a cluster: one passive server per entry of
    /// `shareds`, receiving on its endpoint of `net`. A visit handles at
    /// most `drain_cap` messages ([`SERVER_DRAIN_CAP`] outside tests).
    pub fn new(
        shareds: &[Arc<NodeShared>],
        net: Arc<ThreadedNet<Msg>>,
        drain_cap: usize,
    ) -> Arc<Self> {
        assert!(drain_cap > 0, "a visit must be allowed to handle a message");
        let nodes = shareds
            .iter()
            .map(|shared| NodeServer {
                role: Mutex::new(Role {
                    server: ServerCore::new(shared.clone()),
                    endpoint: net.take_endpoint(shared.node),
                    coalescer: shared.cfg.coalesce.then(|| Coalescer::new(&shared.cfg)),
                    burst: Vec::new(),
                    sink: Vec::new(),
                }),
                pending: AtomicI64::new(0),
                stopped: AtomicBool::new(false),
                doorbell: Doorbell::default(),
                rings: AtomicU64::new(0),
            })
            .collect();
        Arc::new(Dispatch {
            net,
            nodes,
            drain_cap,
        })
    }

    /// Envelopes sent to `node` and not yet taken off its inbox (zero on
    /// a quiescent cluster).
    pub fn pending(&self, node: NodeId) -> i64 {
        self.nodes[node.idx()].pending.load(SeqCst)
    }

    /// Times a driver hit the drain cap with more queued and left the
    /// rest to a node's fallback server thread, over all nodes.
    pub fn doorbell_rings(&self) -> u64 {
        self.nodes.iter().map(|ns| ns.rings.load(Relaxed)).sum()
    }

    /// Enqueue, then bump, then remember to visit.
    fn enqueue(&self, src: NodeId, dst: NodeId, msg: Msg, worklist: &mut Vec<NodeId>) {
        self.net.send(src, dst, msg);
        self.nodes[dst.idx()].pending.fetch_add(1, SeqCst);
        if !worklist.contains(&dst) {
            worklist.push(dst);
        }
    }

    /// Drives `node`'s server if nobody else is: handles what is queued,
    /// up to the drain cap, and adds the destinations of its output to
    /// `worklist`. Returns the number of messages handled.
    fn visit(&self, node: NodeId, worklist: &mut Vec<NodeId>) -> usize {
        let ns = &self.nodes[node.idx()];
        let mut handled = 0;
        loop {
            fence(SeqCst);
            let Some(mut role) = ns.role.try_lock() else {
                // The holder re-reads `pending` after it unlocks.
                return handled;
            };
            if ns.stopped.load(SeqCst) {
                return handled;
            }
            let Role {
                server,
                endpoint,
                coalescer,
                burst,
                sink,
            } = &mut *role;
            let mut envelopes = 0;
            let mut stop = false;
            while !stop && handled + burst.len() < self.drain_cap {
                let Some(incoming) = endpoint.try_recv() else {
                    break;
                };
                envelopes += 1;
                push_flat(incoming.msg, burst, &mut stop);
            }
            if envelopes > 0 {
                ns.pending.fetch_sub(envelopes, SeqCst);
            }
            if !burst.is_empty() {
                handled += burst.len();
                server.handle_burst(burst, sink);
                flush(coalescer, server.lane(), sink, &mut |dst, msg| {
                    self.enqueue(node, dst, msg, worklist)
                });
            }
            if stop {
                ns.stopped.store(true, SeqCst);
                drop(role);
                // Lets the fallback thread see the flag and exit.
                ns.doorbell.ring();
                return handled;
            }
            drop(role);
            fence(SeqCst);
            if ns.pending.load(SeqCst) <= 0 {
                return handled;
            }
            if handled >= self.drain_cap {
                ns.rings.fetch_add(1, Relaxed);
                ns.doorbell.ring();
                return handled;
            }
        }
    }
}

/// One thread's handle on the [`Dispatch`]: sends into the cluster and
/// drives the servers its messages reach. The worklist is the thread's
/// own scratch, reused across calls.
pub struct Driver {
    dispatch: Arc<Dispatch>,
    /// Nodes that were sent something and not yet visited by this thread.
    worklist: Vec<NodeId>,
}

impl Driver {
    /// A driver for the calling thread.
    pub fn new(dispatch: Arc<Dispatch>) -> Self {
        let worklist = Vec::with_capacity(dispatch.nodes.len());
        Driver { dispatch, worklist }
    }

    /// Enqueues `msg` on the `src → dst` link; [`Driver::drive`] then
    /// visits `dst`.
    pub fn send(&mut self, src: NodeId, dst: NodeId, msg: Msg) {
        self.dispatch.enqueue(src, dst, msg, &mut self.worklist);
    }

    /// Visits every node this thread sent to, then every node those
    /// visits sent to, until the worklist is empty. Returns the number
    /// of messages this thread handled.
    pub fn drive(&mut self) -> usize {
        let mut handled = 0;
        while let Some(node) = self.worklist.pop() {
            handled += self.dispatch.visit(node, &mut self.worklist);
        }
        handled
    }

    /// [`Driver::drive`], starting with a visit to `node` although this
    /// thread sent it nothing: what a fallback server thread does when
    /// its doorbell rings.
    pub fn drive_from(&mut self, node: NodeId) -> usize {
        self.worklist.push(node);
        self.drive()
    }
}

/// The threaded runtime under a [`Worker`](crate::worker::Worker): real
/// time passes, a send drives the servers it reaches, a wait spins, then
/// parks, on the worker's wake cell.
pub(crate) struct ThreadedBackend {
    driver: Driver,
    wake: Arc<WakeCell>,
    barrier: Arc<std::sync::Barrier>,
    start: Instant,
    /// Per-link batching of flushed sinks (`None` when coalescing is off).
    coalescer: Option<Coalescer>,
}

impl ThreadedBackend {
    pub(crate) fn new(
        cfg: &ProtoConfig,
        dispatch: Arc<Dispatch>,
        wake: Arc<WakeCell>,
        barrier: Arc<std::sync::Barrier>,
        start: Instant,
    ) -> Self {
        let coalescer = cfg.coalesce.then(|| Coalescer::new(cfg));
        ThreadedBackend {
            driver: Driver::new(dispatch),
            wake,
            barrier,
            start,
            coalescer,
        }
    }
}

impl Backend for ThreadedBackend {
    /// Sends what the last operation emitted and drives the servers it
    /// reaches: when this returns, the operation has usually completed.
    fn send(&mut self, client: &ClientCore, sink: &mut MsgSink) {
        let ThreadedBackend {
            driver, coalescer, ..
        } = self;
        let src = client.node();
        flush(coalescer, client.lane(), sink, &mut |dst, msg| {
            driver.send(src, dst, msg)
        });
        driver.drive();
    }

    fn wait_done(&mut self, client: &ClientCore, seq: u64) {
        let tracker = &client.shared().tracker;
        self.wake.wait_until(client.lane(), || tracker.is_done(seq));
    }

    fn barrier(&mut self) {
        self.barrier.wait();
    }

    fn charge(&mut self, _ns: u64) {
        // Real time passes on the threaded backend.
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn snapshot_reader(&self, client: &ClientCore) -> Option<SnapshotReader> {
        Some(SnapshotReader::new(client.shared().clone()))
    }
}

/// Sends a flushed sink, workers' and servers' alike: through the
/// coalescer when there is one, message by message when coalescing is
/// off. Drains `sink`. The pack's batching counters go to `lane`, the
/// lane of the core whose sink this is (a worker's own, or the server's
/// under its role).
fn flush(
    coalescer: &mut Option<Coalescer>,
    lane: &AccessLane,
    sink: &mut MsgSink,
    emit: &mut dyn FnMut(NodeId, Msg),
) {
    match coalescer {
        Some(c) => {
            let packed = c.pack(sink, emit);
            if packed.batches > 0 {
                lane.net_batches.add(packed.batches);
                lane.net_batched_msgs.add(packed.batched_msgs);
            }
        }
        None => sink.drain(..).for_each(|(dst, msg)| emit(dst, msg)),
    }
}

/// Appends one received envelope to the ingest burst, unpacking batch
/// envelopes into their constituents (per-link FIFO holds because the
/// drain is serial). A bare `Shutdown` sets the stop flag instead;
/// `run_threaded` sends it after every worker joined, so nothing of value
/// can be queued behind it.
fn push_flat(msg: Msg, burst: &mut Vec<Msg>, stop: &mut bool) {
    match msg {
        Msg::Shutdown => *stop = true,
        Msg::Batch(msgs) => {
            debug_assert!(
                msgs.iter().all(|m| !matches!(m, Msg::Batch(_))),
                "nested batch envelope delivered"
            );
            burst.extend(msgs);
        }
        other => burst.push(other),
    }
}

/// Spawns the fallback server thread of `node`: parked on the node's
/// doorbell, it runs the same [`Driver::drive`] as every other thread
/// when a driver hit the drain cap and left work behind, and exits once
/// the node's `Shutdown` was handled (by whichever thread).
pub(crate) fn spawn_server(dispatch: Arc<Dispatch>, node: NodeId) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("lapse-server-{node}"))
        .spawn(move || {
            let mut driver = Driver::new(dispatch.clone());
            let ns = &dispatch.nodes[node.idx()];
            while !ns.stopped.load(SeqCst) {
                ns.doorbell.wait();
                driver.drive_from(node);
            }
        })
        .expect("spawn server thread")
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "test module: the hammer's delays are wall-clock spins on purpose"
)]
mod tests {
    use super::*;

    /// One waiter against one notifier for `rounds` rounds: the waiter
    /// opens a round and waits with `wait`, the notifier sees it,
    /// `dawdle`s, then closes the round and notifies. One missed wake-up
    /// and the test hangs; one round skipped and `turn` is off.
    fn hammer(
        rounds: u64,
        cell: &WakeCell,
        wait: impl Fn(&WakeCell, &mut dyn FnMut() -> bool),
        mut dawdle: impl FnMut() + Send,
    ) {
        let turn = AtomicU64::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for round in 0..rounds {
                    while turn.load(SeqCst) != 2 * round + 1 {
                        std::hint::spin_loop();
                    }
                    dawdle();
                    turn.store(2 * round + 2, SeqCst);
                    cell.notify();
                }
            });
            for round in 0..rounds {
                turn.store(2 * round + 1, SeqCst);
                wait(cell, &mut || turn.load(SeqCst) == 2 * round + 2);
            }
        });
        assert_eq!(turn.load(SeqCst), 2 * rounds);
    }

    /// A million rounds against the park stage alone (with the spin stage
    /// in front the waiter would almost never reach the sleep this test
    /// is about): the notifier answers by spinning, so its `notify` lands
    /// while the waiter is between its check and its sleep — the window
    /// in which a wake-up could go missing.
    #[test]
    fn wake_cell_hammer_never_misses_a_wake() {
        hammer(
            1_000_000,
            &WakeCell::default(),
            |cell, done| {
                if !done() {
                    cell.park_until(&mut || done());
                }
            },
            || {},
        );
    }

    /// The whole wait against a notifier that answers after a
    /// pseudo-random 0–2× the spin budget, so completions land in the
    /// spin stage, on its boundary and in the sleep (when the two threads
    /// have a CPU each; sharing one, every wait parks). Every wait counts
    /// as exactly one of immediate, spun, parked.
    #[test]
    fn wake_cell_hammer_across_the_spin_boundary() {
        const ROUNDS: u64 = 4_000;
        let lane = AccessLane::default();
        let mut rng = lapse_utils::rng::rng_from_seed(18);
        hammer(
            ROUNDS,
            &WakeCell::default(),
            |cell, done| cell.wait_until(&lane, done),
            move || {
                let delay = SPIN_BUDGET.mul_f64(rand::Rng::gen_range(&mut rng, 0.0..2.0));
                let start = Instant::now();
                while start.elapsed() < delay {
                    std::hint::spin_loop();
                }
            },
        );
        let s = lane.snapshot();
        assert_eq!(s.wake_immediate + s.wake_spins + s.wake_parks, ROUNDS);
    }

    /// Each stage on one thread, and each under its own name in the
    /// waiter's lane: done at the first check, done at the second, and
    /// done only once the waiter announced that it parks. Another lane
    /// counts none of it.
    #[test]
    fn every_wait_counts_as_exactly_one_stage() {
        let cell = WakeCell::default();
        let (lane, other) = (AccessLane::default(), AccessLane::default());
        let report = |lane: &AccessLane| {
            let s = lane.snapshot();
            ((s.wake_immediate, s.wake_spins, s.wake_parks), s.wait_ns)
        };
        cell.wait_until(&lane, || true);
        assert_eq!(report(&lane), ((1, 0, 0), 0));
        let mut checks = 0;
        cell.wait_until(&lane, || {
            checks += 1;
            checks == 2
        });
        assert_eq!(report(&lane).0, (1, 1, 0));
        cell.wait_until(&lane, || cell.parked.load(SeqCst) > 0);
        let (stages, wait_ns) = report(&lane);
        assert_eq!(stages, (1, 1, 1));
        assert!(wait_ns >= SPIN_BUDGET.as_nanos() as u64);
        assert_eq!(cell.parked.load(SeqCst), 0);
        assert_eq!(report(&other), ((0, 0, 0), 0));
    }

    #[test]
    fn doorbell_ring_before_wait_is_not_lost() {
        let bell = Doorbell::default();
        bell.ring();
        bell.wait();
        std::thread::scope(|scope| {
            scope.spawn(|| bell.wait());
            bell.ring();
        });
    }
}
