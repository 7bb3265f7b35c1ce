//! Threaded in-process transport with per-link FIFO delivery.
//!
//! The threaded backend runs every "node" of the cluster as a set of
//! threads in one process. Each node owns one unbounded incoming channel;
//! sending is non-blocking. Because a crossbeam channel preserves the
//! insertion order of each individual producer, messages between any fixed
//! pair of nodes arrive in send order — the per-link FIFO property the
//! protocol's consistency arguments require (messages from *different*
//! senders may interleave arbitrarily, exactly as with TCP connections).
//!
//! The network counts nothing. An envelope is counted by the core that
//! sends it, in that core's own counter lane (`AccessLane::count_send`
//! in `lapse-proto`), so that no line on the send path has more than
//! one writer; a traced network records one `net` event per send.
//!
//! An optional [`DelayPolicy`] injects artificial per-link latency. It is
//! used by failure-injection tests to widen race windows (e.g. to force an
//! operation to arrive at an old owner after a relocation). The delay is
//! applied on the *sending* side by a helper thread per link so that FIFO
//! per link still holds.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

use lapse_trace::{EventKind, Recorder, Tracer, ACTOR_NET};
use lapse_utils::metrics::Metrics;

use crate::id::NodeId;
use crate::wire::{message_bytes, WireSize};

/// A delay policy for fault-injection: returns the artificial latency for
/// a `(src, dst)` link.
pub type DelayPolicy = Arc<dyn Fn(NodeId, NodeId) -> Duration + Send + Sync>;

/// Sender of one delay-injected link: carries the message plus the delay
/// left to serve before delivery.
type DelayedSender<M> = Sender<(Incoming<M>, Duration)>;

/// A message annotated with its sender.
#[derive(Debug)]
pub struct Incoming<M> {
    /// Sending node.
    pub src: NodeId,
    /// Payload.
    pub msg: M,
}

/// The in-process "cluster network": `n` endpoints with FIFO links.
pub struct ThreadedNet<M> {
    senders: Vec<Sender<Incoming<M>>>,
    receivers: Mutex<Vec<Option<Receiver<Incoming<M>>>>>,
    delay: Option<DelayPolicy>,
    /// Helper senders used when a delay policy is active: one channel per
    /// link keeps FIFO despite the sleeping.
    delayed_links: Option<Vec<Vec<DelayedSender<M>>>>,
    /// Flight-recorder lanes, one per sending node (`None` when tracing
    /// is off, so the untraced send path costs one pointer test).
    trace: Option<Vec<Tracer>>,
}

impl<M: Send + WireSize + 'static> ThreadedNet<M> {
    /// Creates a network of `n` nodes with no artificial delay.
    ///
    /// The registry argument (here and on the other constructors) is
    /// accepted for the callers that pass one and is not written: the
    /// network keeps no counters.
    pub fn new(n: usize, _metrics: Metrics) -> Arc<Self> {
        Self::build(n, None, None)
    }

    /// Creates a network of `n` nodes with per-send flight-recorder
    /// events (one `net` lane per sending node).
    pub fn with_trace(n: usize, _metrics: Metrics, trace: Arc<Recorder>) -> Arc<Self> {
        Self::build(n, None, Some(trace))
    }

    /// Creates a network of `n` nodes, optionally with injected per-link
    /// delays (fault-injection tests only; delays cost one helper thread
    /// per link).
    pub fn with_delay(n: usize, _metrics: Metrics, delay: Option<DelayPolicy>) -> Arc<Self> {
        Self::build(n, delay, None)
    }

    fn build(n: usize, delay: Option<DelayPolicy>, trace: Option<Arc<Recorder>>) -> Arc<Self> {
        assert!(n > 0, "network needs at least one node");
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        let delayed_links = delay.as_ref().map(|_| {
            (0..n)
                .map(|_src| {
                    (0..n)
                        .map(|dst| {
                            let (tx, rx) = unbounded::<(Incoming<M>, Duration)>();
                            let out = senders[dst].clone();
                            std::thread::spawn(move || {
                                // Sequential delivery preserves FIFO on
                                // this link even with varying delays.
                                for (incoming, d) in rx.iter() {
                                    if !d.is_zero() {
                                        #[allow(
                                            clippy::disallowed_methods,
                                            reason = "fault-injection delay helper; opt-in test-only path that exists to stall on purpose"
                                        )]
                                        std::thread::sleep(d);
                                    }
                                    if out.send(incoming).is_err() {
                                        break;
                                    }
                                }
                            });
                            tx
                        })
                        .collect()
                })
                .collect()
        });

        let trace = trace.map(|rec| {
            (0..n)
                .map(|src| rec.tracer(src as u16, ACTOR_NET, format!("n{src}/net")))
                .collect()
        });

        Arc::new(ThreadedNet {
            senders,
            receivers: Mutex::new(receivers),
            delay,
            delayed_links,
            trace,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// Whether the network has no nodes (never true for a constructed
    /// network).
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// Sends `msg` from `src` to `dst`. Never blocks.
    pub fn send(&self, src: NodeId, dst: NodeId, msg: M) {
        if let Some(lanes) = &self.trace {
            let bytes = message_bytes(&msg) as u64;
            lanes[src.idx()].record(EventKind::MsgSend, dst.0 as u64, bytes);
        }

        let incoming = Incoming { src, msg };
        if let (Some(policy), Some(links)) = (&self.delay, &self.delayed_links) {
            let d = policy(src, dst);
            // Ignore send errors: they occur only during shutdown.
            let _ = links[src.idx()][dst.idx()].send((incoming, d));
        } else {
            let _ = self.senders[dst.idx()].send(incoming);
        }
    }

    /// Takes the receiving endpoint of node `node`. Each endpoint can be
    /// taken exactly once (by that node's server thread).
    ///
    /// # Panics
    /// Panics if the endpoint was already taken.
    pub fn take_endpoint(&self, node: NodeId) -> Endpoint<M> {
        let rx = self.receivers.lock()[node.idx()]
            .take()
            .expect("endpoint already taken");
        Endpoint { node, rx }
    }
}

/// The receiving end of one node, held by its server thread.
pub struct Endpoint<M> {
    node: NodeId,
    rx: Receiver<Incoming<M>>,
}

impl<M> Endpoint<M> {
    /// The node this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Blocks until a message arrives; `None` when all senders are gone.
    pub fn recv(&self) -> Option<Incoming<M>> {
        self.rx.recv().ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Incoming<M>> {
        self.rx.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[derive(Debug, PartialEq)]
    struct TestMsg(u64);

    impl WireSize for TestMsg {
        fn wire_bytes(&self) -> usize {
            8
        }
    }

    #[test]
    fn per_link_fifo() {
        let net: Arc<ThreadedNet<TestMsg>> = ThreadedNet::new(2, Metrics::new());
        let ep = net.take_endpoint(NodeId(1));
        let sender = net.clone();
        let producer = thread::spawn(move || {
            for i in 0..1000 {
                sender.send(NodeId(0), NodeId(1), TestMsg(i));
            }
        });
        let mut last = None;
        for _ in 0..1000 {
            let m = ep.recv().unwrap();
            assert_eq!(m.src, NodeId(0));
            if let Some(prev) = last {
                assert!(m.msg.0 == prev + 1, "reordered: {} after {}", m.msg.0, prev);
            }
            last = Some(m.msg.0);
        }
        producer.join().unwrap();
    }

    #[test]
    fn fifo_per_sender_under_interleaving() {
        let net: Arc<ThreadedNet<TestMsg>> = ThreadedNet::new(3, Metrics::new());
        let ep = net.take_endpoint(NodeId(2));
        let mut handles = Vec::new();
        for src in 0..2u16 {
            let sender = net.clone();
            handles.push(thread::spawn(move || {
                for i in 0..500 {
                    sender.send(NodeId(src), NodeId(2), TestMsg(i));
                }
            }));
        }
        let mut last = [None::<u64>; 2];
        for _ in 0..1000 {
            let m = ep.recv().unwrap();
            let s = m.src.idx();
            if let Some(prev) = last[s] {
                assert_eq!(m.msg.0, prev + 1, "per-sender order violated");
            }
            last[s] = Some(m.msg.0);
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn delayed_link_preserves_order() {
        let policy: DelayPolicy = Arc::new(|_, _| Duration::from_micros(200));
        let net: Arc<ThreadedNet<TestMsg>> =
            ThreadedNet::with_delay(2, Metrics::new(), Some(policy));
        let ep = net.take_endpoint(NodeId(1));
        for i in 0..50 {
            net.send(NodeId(0), NodeId(1), TestMsg(i));
        }
        for i in 0..50 {
            let m = ep.recv().unwrap();
            assert_eq!(m.msg.0, i);
        }
    }

    #[test]
    #[should_panic(expected = "endpoint already taken")]
    fn endpoint_taken_once() {
        let net: Arc<ThreadedNet<TestMsg>> = ThreadedNet::new(1, Metrics::new());
        let _a = net.take_endpoint(NodeId(0));
        let _b = net.take_endpoint(NodeId(0));
    }

    #[test]
    fn self_send_is_delivered() {
        let net: Arc<ThreadedNet<TestMsg>> = ThreadedNet::new(1, Metrics::new());
        let ep = net.take_endpoint(NodeId(0));
        net.send(NodeId(0), NodeId(0), TestMsg(7));
        assert_eq!(ep.recv().unwrap().msg, TestMsg(7));
    }
}
