//! The worker handle both backends hand to workload code.
//!
//! Issuing an operation is the same on the simulator and on the threaded
//! runtime — ask the [`ClientCore`], send what it emitted, wait for the
//! sequence number, collect the result — so [`Worker`] does it once and a
//! [`Backend`] supplies only what differs: how time is charged, how a
//! sink is sent, and how a worker waits.

use lapse_net::{Key, NodeId};
use lapse_proto::client::{ClientCore, IssueHandle, MsgSink};
use lapse_proto::SnapshotReader;

use crate::api::{OpToken, PsWorker, TokenKind, TokenState};

/// What a backend supplies to a [`Worker`].
pub(crate) trait Backend {
    /// Accounts the client-side cost of an operation on `keys`, before it
    /// is issued (virtual time only).
    fn charge_issue(&mut self, _client: &ClientCore, _keys: &[Key]) {}
    /// Accounts the memory cost of reading `key` locally (virtual time
    /// only).
    fn charge_local_read(&mut self, _client: &ClientCore, _key: Key) {}
    /// Sends what an operation emitted, draining `sink`.
    fn send(&mut self, client: &ClientCore, sink: &mut MsgSink);
    /// Blocks until operation `seq` of `client`'s node completed.
    fn wait_done(&mut self, client: &ClientCore, seq: u64);
    /// See [`PsWorker::barrier`].
    fn barrier(&mut self);
    /// See [`PsWorker::charge`].
    fn charge(&mut self, ns: u64);
    /// See [`PsWorker::now_ns`].
    fn now_ns(&self) -> u64;
    /// See [`PsWorker::snapshot_reader`].
    fn snapshot_reader(&self, _client: &ClientCore) -> Option<SnapshotReader> {
        None
    }
}

/// Worker handle on backend `B`.
pub(crate) struct Worker<B> {
    client: ClientCore,
    backend: B,
    slot: usize,
    nodes: usize,
    workers_per_node: usize,
    /// What the operation being issued emits; drained by every send.
    sink: MsgSink,
}

impl<B: Backend> Worker<B> {
    pub(crate) fn new(
        client: ClientCore,
        backend: B,
        slot: usize,
        nodes: usize,
        workers_per_node: usize,
    ) -> Self {
        Worker {
            client,
            backend,
            slot,
            nodes,
            workers_per_node,
            sink: Vec::new(),
        }
    }

    /// Charges, issues and sends one operation on `keys`.
    fn issue(
        &mut self,
        keys: &[Key],
        op: impl FnOnce(&mut ClientCore, &mut MsgSink) -> IssueHandle,
    ) -> IssueHandle {
        self.backend.charge_issue(&self.client, keys);
        let handle = op(&mut self.client, &mut self.sink);
        self.backend.send(&self.client, &mut self.sink);
        handle
    }

    /// Waits for the acknowledgement of push/localize `seq`.
    fn wait_ack(&mut self, seq: u64) {
        self.backend.wait_done(&self.client, seq);
        self.client.finish_ack(seq);
    }

    /// The token of an asynchronous operation (only pulls complete at
    /// issue with values).
    fn token(&self, kind: TokenKind, handle: IssueHandle) -> OpToken {
        OpToken {
            kind,
            state: match handle {
                IssueHandle::Ready(vals) => TokenState::Ready(vals),
                IssueHandle::Pending(seq) => {
                    TokenState::Pending(seq, self.client.shared().tracker.clone())
                }
            },
        }
    }
}

impl<B: Backend> PsWorker for Worker<B> {
    fn node(&self) -> NodeId {
        self.client.node()
    }

    fn slot(&self) -> usize {
        self.slot
    }

    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn workers_per_node(&self) -> usize {
        self.workers_per_node
    }

    fn value_len(&self, key: Key) -> usize {
        self.client.shared().cfg.layout.len(key)
    }

    fn pull(&mut self, keys: &[Key], out: &mut [f32]) {
        let handle = self.issue(keys, |c, sink| c.pull(keys, Some(&mut *out), sink));
        if let IssueHandle::Pending(seq) = handle {
            self.backend.wait_done(&self.client, seq);
            self.client.finish_pull(seq, out);
        }
    }

    fn push(&mut self, keys: &[Key], vals: &[f32]) {
        if let Some(seq) = self.issue(keys, |c, sink| c.push(keys, vals, sink)).seq() {
            self.wait_ack(seq);
        }
    }

    fn localize(&mut self, keys: &[Key]) {
        if let Some(seq) = self.issue(keys, |c, sink| c.localize(keys, sink)).seq() {
            self.wait_ack(seq);
        }
    }

    fn pull_async(&mut self, keys: &[Key]) -> OpToken {
        let handle = self.issue(keys, |c, sink| c.pull(keys, None, sink));
        self.token(TokenKind::Pull, handle)
    }

    fn push_async(&mut self, keys: &[Key], vals: &[f32]) -> OpToken {
        let handle = self.issue(keys, |c, sink| c.push(keys, vals, sink));
        self.token(TokenKind::Push, handle)
    }

    fn localize_async(&mut self, keys: &[Key]) -> OpToken {
        let handle = self.issue(keys, |c, sink| c.localize(keys, sink));
        self.token(TokenKind::Localize, handle)
    }

    fn wait_pull(&mut self, mut token: OpToken) -> Vec<f32> {
        assert_eq!(token.kind, TokenKind::Pull, "wait_pull on non-pull token");
        match token.take_state() {
            TokenState::Ready(vals) => vals.expect("async pull carries values"),
            TokenState::Pending(seq, _) => {
                self.backend.wait_done(&self.client, seq);
                self.client.take_pull(seq)
            }
            TokenState::Taken => unreachable!("token waited twice"),
        }
    }

    fn wait(&mut self, mut token: OpToken) {
        assert_ne!(token.kind, TokenKind::Pull, "use wait_pull for pulls");
        match token.take_state() {
            TokenState::Ready(_) => {}
            TokenState::Pending(seq, _) => self.wait_ack(seq),
            TokenState::Taken => unreachable!("token waited twice"),
        }
    }

    fn pull_if_local(&mut self, key: Key, out: &mut [f32]) -> bool {
        self.backend.charge_local_read(&self.client, key);
        self.client.pull_if_local(key, out)
    }

    fn snapshot_reader(&self) -> Option<SnapshotReader> {
        self.backend.snapshot_reader(&self.client)
    }

    fn barrier(&mut self) {
        self.backend.barrier();
    }

    fn charge(&mut self, ns: u64) {
        self.backend.charge(ns);
    }

    fn advance_clock(&mut self) {
        // The replication technique's propagation tick: flush this node's
        // accumulated replicated pushes to the owners, and run the
        // adaptive transition controller. A no-op (and free) under the
        // relocation-only variants.
        self.client.flush_replicas(&mut self.sink);
        self.client.run_controller(&mut self.sink);
        self.backend.send(&self.client, &mut self.sink);
    }

    fn now_ns(&self) -> u64 {
        self.backend.now_ns()
    }
}
