//! `TracedWorker`: the API-boundary tracer of the `--trace 1` pass.
//!
//! It wraps the runtime's worker and implements `PsWorker` itself, so
//! the `ml` tasks run on it unchanged. Every call made inside a measured
//! epoch is timed on the cluster clock; what is left of the epoch,
//! outside any call, is the worker's compute. Totals and histograms are
//! kept for every call, full spans for the first calls that fit the
//! preallocated buffer.

use std::cell::RefCell;

use lapse_core::{OpToken, PsWorker};
use lapse_net::{Key, NodeId};

use crate::spans::{Span, SpanBuf, NO_PARENT};
use crate::stats::Hist;

/// API call classes the epoch is split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `pull`, `pull_async` (issue) and `pull_if_local`.
    Pull,
    /// `push` and `push_async` (issue).
    Push,
    /// `localize` and `localize_async` (issue).
    Localize,
    /// `wait` and `wait_pull`: the stall on an asynchronous operation.
    Wait,
    Barrier,
    /// `advance_clock`: replica flush and controller tick.
    Clock,
}

pub const KINDS: usize = 6;

/// What one worker's tracer measured over the measured epochs.
pub struct ApiStats {
    /// Nanoseconds inside calls of each [`Kind`].
    pub ns: [u64; KINDS],
    /// Calls of each [`Kind`].
    pub calls: [u64; KINDS],
    /// Sum of the worker's measured epoch durations: the time the shares
    /// partition.
    pub worker_ns: u64,
    pub pull: Hist,
    pub push: Hist,
    pub wait: Hist,
    pub spans: SpanBuf,
}

impl ApiStats {
    /// Totals to [`ApiStats::absorb`] workers into.
    pub fn empty() -> Self {
        Self::new(0)
    }

    fn new(span_capacity: usize) -> Self {
        ApiStats {
            ns: [0; KINDS],
            calls: [0; KINDS],
            worker_ns: 0,
            pull: Hist::new(),
            push: Hist::new(),
            wait: Hist::new(),
            spans: SpanBuf::with_capacity(span_capacity),
        }
    }

    /// Adds another worker's totals and histograms (spans stay per
    /// worker: each is its own track in the span file).
    pub fn absorb(&mut self, other: &ApiStats) {
        for k in 0..KINDS {
            self.ns[k] += other.ns[k];
            self.calls[k] += other.calls[k];
        }
        self.worker_ns += other.worker_ns;
        self.pull.merge(&other.pull);
        self.push.merge(&other.push);
        self.wait.merge(&other.wait);
    }

    /// Share of the measured worker time spent in calls of `kind`.
    pub fn share(&self, kind: Kind) -> f64 {
        self.ns[kind as usize] as f64 / self.worker_ns.max(1) as f64
    }

    /// Share of the measured worker time outside any call.
    pub fn compute_share(&self) -> f64 {
        1.0 - self.ns.iter().sum::<u64>() as f64 / self.worker_ns.max(1) as f64
    }
}

/// A `PsWorker` that times the calls passing through it.
///
/// Epochs are recognised by the protocol every task in `lapse-ml`
/// follows: `now_ns()` is called exactly twice per epoch, at its start
/// and at its end. Epochs before `warmup_epochs` pass through untimed.
pub struct TracedWorker<'a> {
    inner: &'a mut dyn PsWorker,
    warmup_epochs: u64,
    /// `now_ns` takes `&self` and marks the epochs, so everything the
    /// tracer mutates sits behind one cell.
    state: RefCell<State>,
}

struct State {
    stats: ApiStats,
    /// `now_ns()` calls seen: even before an epoch start, odd inside one.
    marks: u64,
    measuring: bool,
    epoch_start_ns: u64,
    epoch_span: u32,
    next_op: u64,
}

impl<'a> TracedWorker<'a> {
    pub fn new(inner: &'a mut dyn PsWorker, warmup_epochs: u64, span_capacity: usize) -> Self {
        TracedWorker {
            inner,
            warmup_epochs,
            state: RefCell::new(State {
                stats: ApiStats::new(span_capacity),
                marks: 0,
                measuring: false,
                epoch_start_ns: 0,
                epoch_span: NO_PARENT,
                next_op: 0,
            }),
        }
    }

    pub fn finish(self) -> ApiStats {
        self.state.into_inner().stats
    }

    #[inline]
    fn timed<R>(
        &mut self,
        kind: Kind,
        name: &'static str,
        call: impl FnOnce(&mut dyn PsWorker) -> R,
    ) -> R {
        if !self.state.get_mut().measuring {
            return call(self.inner);
        }
        let start_ns = self.inner.now_ns();
        let out = call(self.inner);
        let end_ns = self.inner.now_ns();
        let took = end_ns - start_ns;
        let st = self.state.get_mut();
        st.stats.ns[kind as usize] += took;
        st.stats.calls[kind as usize] += 1;
        match kind {
            Kind::Pull => st.stats.pull.record(took),
            Kind::Push => st.stats.push.record(took),
            Kind::Wait => st.stats.wait.record(took),
            _ => {}
        }
        st.next_op += 1;
        st.stats.spans.push(Span {
            name,
            layer: "api",
            start_ns,
            end_ns,
            parent: st.epoch_span,
            op_id: st.next_op,
        });
        out
    }
}

impl PsWorker for TracedWorker<'_> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }
    fn slot(&self) -> usize {
        self.inner.slot()
    }
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn workers_per_node(&self) -> usize {
        self.inner.workers_per_node()
    }
    fn value_len(&self, key: Key) -> usize {
        self.inner.value_len(key)
    }

    fn pull(&mut self, keys: &[Key], out: &mut [f32]) {
        self.timed(Kind::Pull, "pull", |w| w.pull(keys, out))
    }
    fn push(&mut self, keys: &[Key], vals: &[f32]) {
        self.timed(Kind::Push, "push", |w| w.push(keys, vals))
    }
    fn localize(&mut self, keys: &[Key]) {
        self.timed(Kind::Localize, "localize", |w| w.localize(keys))
    }
    fn pull_async(&mut self, keys: &[Key]) -> OpToken {
        self.timed(Kind::Pull, "pull_async", |w| w.pull_async(keys))
    }
    fn push_async(&mut self, keys: &[Key], vals: &[f32]) -> OpToken {
        self.timed(Kind::Push, "push_async", |w| w.push_async(keys, vals))
    }
    fn localize_async(&mut self, keys: &[Key]) -> OpToken {
        self.timed(Kind::Localize, "localize_async", |w| w.localize_async(keys))
    }
    fn wait_pull(&mut self, token: OpToken) -> Vec<f32> {
        self.timed(Kind::Wait, "wait_pull", |w| w.wait_pull(token))
    }
    fn wait(&mut self, token: OpToken) {
        self.timed(Kind::Wait, "wait", |w| w.wait(token))
    }
    fn pull_if_local(&mut self, key: Key, out: &mut [f32]) -> bool {
        self.timed(Kind::Pull, "pull_if_local", |w| w.pull_if_local(key, out))
    }
    fn snapshot_reader(&self) -> Option<lapse_proto::SnapshotReader> {
        self.inner.snapshot_reader()
    }
    fn barrier(&mut self) {
        self.timed(Kind::Barrier, "barrier", |w| w.barrier())
    }
    fn charge(&mut self, ns: u64) {
        self.inner.charge(ns)
    }
    fn advance_clock(&mut self) {
        self.timed(Kind::Clock, "advance_clock", |w| w.advance_clock())
    }

    /// Epoch mark: the cluster clock, handed to the task unchanged.
    fn now_ns(&self) -> u64 {
        let t = self.inner.now_ns();
        let mut st = self.state.borrow_mut();
        if st.marks.is_multiple_of(2) {
            st.measuring = st.marks / 2 >= self.warmup_epochs;
            st.epoch_start_ns = t;
            if st.measuring {
                let epoch = Span {
                    name: "epoch",
                    layer: "ml",
                    start_ns: t,
                    end_ns: t,
                    parent: NO_PARENT,
                    op_id: st.marks / 2,
                };
                st.epoch_span = st.stats.spans.push(epoch).unwrap_or(NO_PARENT);
            }
        } else if st.measuring {
            st.stats.worker_ns += t - st.epoch_start_ns;
            if st.epoch_span != NO_PARENT {
                let idx = st.epoch_span;
                st.stats.spans.close(idx, t);
            }
            st.measuring = false;
        }
        st.marks += 1;
        t
    }
}
