//! Simulator backend: drives the protocol in virtual time.

use lapse_net::{Key, NodeId};
use lapse_proto::client::{ClientCore, IssueHandle};
use lapse_proto::messages::Msg;
use lapse_proto::server::ServerCore;
use lapse_sim::{SimProtocol, TaskCtx};

use crate::api::{OpToken, PsWorker, TokenKind, TokenState};

/// The Lapse protocol as a simulator protocol.
pub struct LapseProto;

impl SimProtocol for LapseProto {
    type Msg = Msg;
    type Server = ServerCore;

    fn handle(server: &mut ServerCore, msg: Msg, out: &mut Vec<(NodeId, Msg)>) {
        server.handle(msg, out);
    }

    fn msg_load(msg: &Msg) -> (u64, u64) {
        match msg {
            Msg::Op(m) => (m.keys.len() as u64, m.vals.len() as u64),
            Msg::OpResp(m) => (m.keys.len() as u64, m.vals.len() as u64),
            Msg::LocalizeReq(m) => (m.keys.len() as u64, 0),
            Msg::Relocate(m) => (m.keys.len() as u64, 0),
            Msg::HandOver(m) => (m.keys.len() as u64, m.vals.len() as u64),
            Msg::ReplicaReg(_) => (0, 0),
            Msg::ReplicaPush(m) => (m.keys.len() as u64, m.vals.len() as u64),
            Msg::ReplicaRefresh(m) => (m.keys.len() as u64, m.vals.len() as u64),
            Msg::TechniquePromote(m) => (m.keys.len() as u64, 0),
            Msg::TechniquePromoteAck(m) => (m.keys.len() as u64, m.vals.len() as u64),
            Msg::TechniqueDemote(m) => (m.keys.len() as u64, 0),
            Msg::TechniqueDemoteAck(m) => (m.keys.len() as u64, 0),
            Msg::TechniqueDrained(m) => (m.keys.len() as u64, m.vals.len() as u64),
            Msg::Shutdown => (0, 0),
            // The simulator never coalesces (`run_sim` clears the flag),
            // but the load model stays total: a batch carries the sum of
            // its constituents.
            Msg::Batch(msgs) => msgs
                .iter()
                .map(Self::msg_load)
                .fold((0, 0), |(k, v), (mk, mv)| (k + mk, v + mv)),
        }
    }
}

/// Worker handle on the simulator backend.
pub struct SimPsWorker<'a> {
    client: ClientCore,
    ctx: &'a mut TaskCtx<LapseProto>,
    slot: usize,
    nodes: usize,
    workers_per_node: usize,
}

impl<'a> SimPsWorker<'a> {
    pub(crate) fn new(
        client: ClientCore,
        ctx: &'a mut TaskCtx<LapseProto>,
        slot: usize,
        nodes: usize,
        workers_per_node: usize,
    ) -> Self {
        SimPsWorker {
            client,
            ctx,
            slot,
            nodes,
            workers_per_node,
        }
    }

    /// Charges the client-side cost of an operation on `keys`.
    fn charge_issue(&mut self, keys: &[Key]) {
        let floats = self.client.shared().cfg.layout.keys_len(keys) as u64;
        let ns = self.ctx.shared().cost.client_ns(keys.len() as u64, floats);
        self.ctx.charge(ns);
    }

    fn wait_done(&mut self, seq: u64) {
        let tracker = self.client.shared().tracker.clone();
        self.ctx.wait_until(move || tracker.is_done(seq));
    }
}

impl PsWorker for SimPsWorker<'_> {
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
        self.charge_issue(keys);
        let mut sink = Vec::new();
        let handle = self.client.pull(keys, Some(out), &mut sink);
        self.ctx.send_sink(sink);
        if let IssueHandle::Pending(seq) = handle {
            self.wait_done(seq);
            self.client.finish_pull(seq, out);
        }
    }

    fn push(&mut self, keys: &[Key], vals: &[f32]) {
        self.charge_issue(keys);
        let mut sink = Vec::new();
        let handle = self.client.push(keys, vals, &mut sink);
        self.ctx.send_sink(sink);
        if let IssueHandle::Pending(seq) = handle {
            self.wait_done(seq);
            self.client.finish_ack(seq);
        }
    }

    fn localize(&mut self, keys: &[Key]) {
        self.charge_issue(keys);
        let mut sink = Vec::new();
        let handle = self.client.localize(keys, &mut sink);
        self.ctx.send_sink(sink);
        if let IssueHandle::Pending(seq) = handle {
            self.wait_done(seq);
            self.client.finish_ack(seq);
        }
    }

    fn pull_async(&mut self, keys: &[Key]) -> OpToken {
        self.charge_issue(keys);
        let mut sink = Vec::new();
        let handle = self.client.pull(keys, None, &mut sink);
        self.ctx.send_sink(sink);
        match handle {
            IssueHandle::Ready(vals) => OpToken {
                kind: TokenKind::Pull,
                state: TokenState::Ready(vals),
            },
            IssueHandle::Pending(seq) => OpToken {
                kind: TokenKind::Pull,
                state: TokenState::Pending(seq, self.client.shared().tracker.clone()),
            },
        }
    }

    fn push_async(&mut self, keys: &[Key], vals: &[f32]) -> OpToken {
        self.charge_issue(keys);
        let mut sink = Vec::new();
        let handle = self.client.push(keys, vals, &mut sink);
        self.ctx.send_sink(sink);
        OpToken {
            kind: TokenKind::Push,
            state: match handle {
                IssueHandle::Ready(_) => TokenState::Ready(None),
                IssueHandle::Pending(seq) => {
                    TokenState::Pending(seq, self.client.shared().tracker.clone())
                }
            },
        }
    }

    fn localize_async(&mut self, keys: &[Key]) -> OpToken {
        self.charge_issue(keys);
        let mut sink = Vec::new();
        let handle = self.client.localize(keys, &mut sink);
        self.ctx.send_sink(sink);
        OpToken {
            kind: TokenKind::Localize,
            state: match handle {
                IssueHandle::Ready(_) => TokenState::Ready(None),
                IssueHandle::Pending(seq) => {
                    TokenState::Pending(seq, self.client.shared().tracker.clone())
                }
            },
        }
    }

    fn wait_pull(&mut self, mut token: OpToken) -> Vec<f32> {
        assert_eq!(token.kind, TokenKind::Pull, "wait_pull on non-pull token");
        match token.take_state() {
            TokenState::Ready(vals) => vals.expect("async pull carries values"),
            TokenState::Pending(seq, _) => {
                self.wait_done(seq);
                self.client.take_pull(seq)
            }
            TokenState::Taken => unreachable!("token waited twice"),
        }
    }

    fn wait(&mut self, mut token: OpToken) {
        assert_ne!(token.kind, TokenKind::Pull, "use wait_pull for pulls");
        match token.take_state() {
            TokenState::Ready(_) => {}
            TokenState::Pending(seq, _) => {
                self.wait_done(seq);
                self.client.finish_ack(seq);
            }
            TokenState::Taken => unreachable!("token waited twice"),
        }
    }

    fn pull_if_local(&mut self, key: Key, out: &mut [f32]) -> bool {
        let floats = self.client.shared().cfg.layout.len(key) as u64;
        let cost = &self.ctx.shared().cost;
        let ns = cost.mem_per_key_ns + (floats as f64 * cost.mem_per_float_ns) as u64;
        self.ctx.charge(ns);
        self.client.pull_if_local(key, out)
    }

    fn barrier(&mut self) {
        self.ctx.barrier();
    }

    fn charge(&mut self, ns: u64) {
        self.ctx.charge(ns);
    }

    fn advance_clock(&mut self) {
        // The replication technique's propagation tick: flush this node's
        // accumulated replicated pushes to the owners, and run the
        // adaptive transition controller. A no-op (and free) under the
        // relocation-only variants.
        let mut sink = Vec::new();
        self.client.flush_replicas(&mut sink);
        self.client.run_controller(&mut sink);
        self.ctx.send_sink(sink);
    }

    fn now_ns(&self) -> u64 {
        self.ctx.now()
    }
}
