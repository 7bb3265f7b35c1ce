//! Worker tasks and the scheduler↔worker handoff.
//!
//! Each simulated worker runs on a real OS thread so workloads can be
//! arbitrary Rust code, but **exactly one thread runs at a time**: the
//! scheduler hands control to a worker and blocks until the worker yields
//! (cooperative coroutines via condvar handoff). The worker carries its
//! own virtual clock (`my_time`), charges compute and memory costs onto
//! it, and re-synchronizes with the global event loop when it waits,
//! hits a barrier, or runs a full quantum ahead.

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

use lapse_net::NodeId;

use crate::sched::{SimProtocol, SimShared};

/// Task index within the simulation (`node * workers_per_node + slot`).
pub type TaskId = usize;

/// Why a worker handed control back to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldReason {
    /// Waiting for a notification (operation completion).
    Wait,
    /// Ran a quantum ahead; resume at the contained virtual time.
    Until(u64),
    /// Arrived at the global barrier.
    Barrier,
    /// Worker body returned (or panicked; the payload is kept in its
    /// [`TaskSync`]).
    Finished,
}

/// Handoff state of one task, protected by [`TaskSync::lock`].
#[derive(Debug)]
pub(crate) enum HandoffState {
    /// Worker may run; contains the virtual resume time.
    RunRequested(u64),
    /// Worker is executing.
    Running,
    /// Worker yielded; contains the reason and the worker's virtual time.
    Yielded(YieldReason, u64),
}

/// Shared handoff cell between the scheduler and one worker thread.
pub struct TaskSync {
    pub(crate) lock: Mutex<HandoffState>,
    pub(crate) cv: Condvar,
    pub(crate) panicked: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl TaskSync {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(TaskSync {
            // Workers start parked until the scheduler's first wake.
            lock: Mutex::new(HandoffState::Yielded(YieldReason::Until(0), 0)),
            cv: Condvar::new(),
            panicked: Mutex::new(None),
        })
    }

    /// Scheduler side: run the task until it yields. Returns the yield
    /// reason and the worker's virtual time at the yield point.
    pub(crate) fn run_until_yield(&self, resume_time: u64) -> (YieldReason, u64) {
        let mut state = self.lock.lock();
        *state = HandoffState::RunRequested(resume_time);
        self.cv.notify_all();
        loop {
            if let HandoffState::Yielded(reason, my_time) = &*state {
                return (*reason, *my_time);
            }
            self.cv.wait(&mut state);
        }
    }

    /// Worker side: park until the scheduler requests a run; returns the
    /// resume time.
    pub(crate) fn yield_and_park(&self, reason: YieldReason, my_time: u64) -> u64 {
        let mut state = self.lock.lock();
        *state = HandoffState::Yielded(reason, my_time);
        self.cv.notify_all();
        loop {
            if let HandoffState::RunRequested(t) = &*state {
                let t = *t;
                *state = HandoffState::Running;
                return t;
            }
            self.cv.wait(&mut state);
        }
    }

    /// Worker side: announce completion (never parks again).
    pub(crate) fn finish(&self, my_time: u64) {
        let mut state = self.lock.lock();
        *state = HandoffState::Yielded(YieldReason::Finished, my_time);
        self.cv.notify_all();
    }
}

/// The virtual-time context of one worker. Workload code (via the
/// backend's worker handle) uses it to charge compute time, send protocol
/// messages, wait for completions, and synchronize at barriers.
pub struct TaskCtx<P: SimProtocol> {
    shared: Arc<SimShared<P>>,
    sync: Arc<TaskSync>,
    id: TaskId,
    node: NodeId,
    my_time: u64,
    /// Virtual time at the last yield; bounds the run-ahead quantum.
    resumed_at: u64,
}

impl<P: SimProtocol> TaskCtx<P> {
    pub(crate) fn new(
        shared: Arc<SimShared<P>>,
        sync: Arc<TaskSync>,
        id: TaskId,
        node: NodeId,
        resume: u64,
    ) -> Self {
        TaskCtx {
            shared,
            sync,
            id,
            node,
            my_time: resume,
            resumed_at: resume,
        }
    }

    /// This worker's task id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The node this worker runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The worker's current virtual time (ns).
    pub fn now(&self) -> u64 {
        self.my_time
    }

    /// The shared simulator state (for send/notify glue).
    pub fn shared(&self) -> &Arc<SimShared<P>> {
        &self.shared
    }

    /// Charges `ns` of virtual compute/memory time. Yields to the
    /// scheduler when the worker has run a full quantum ahead, so in-
    /// flight messages and other nodes' servers make progress at the
    /// right virtual times.
    pub fn charge(&mut self, ns: u64) {
        self.my_time += ns;
        self.shared.store_clock(self.my_time);
        if self.my_time - self.resumed_at >= self.shared.cost.quantum_ns {
            self.do_yield(YieldReason::Until(self.my_time));
        }
    }

    /// Sends a protocol message from this worker's node at the current
    /// virtual time.
    pub fn send(&mut self, dst: NodeId, msg: P::Msg) {
        self.shared.send_msg(self.node, dst, msg, self.my_time);
    }

    /// Blocks (in virtual time) until `cond` holds. The condition is
    /// re-checked after every notification addressed to this task; the
    /// worker's clock advances to the notification's virtual time.
    pub fn wait_until(&mut self, mut cond: impl FnMut() -> bool) {
        while !cond() {
            self.do_yield(YieldReason::Wait);
        }
    }

    /// Waits at the global barrier until every live worker arrived; all
    /// workers resume at the latest arrival time.
    pub fn barrier(&mut self) {
        self.do_yield(YieldReason::Barrier);
    }

    fn do_yield(&mut self, reason: YieldReason) {
        let resume = self.sync.yield_and_park(reason, self.my_time);
        self.my_time = self.my_time.max(resume);
        self.resumed_at = self.my_time;
        self.shared.store_clock(self.my_time);
    }
}
