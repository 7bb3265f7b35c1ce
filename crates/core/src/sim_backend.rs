//! Simulator backend: drives the protocol in virtual time.
//!
//! Every envelope counts where it leaves a core, as on the threaded
//! backend: a worker's in its client lane (`SimBackend::send`), a
//! server's output in the server's lane ([`LapseProto::handle`]). The
//! simulator counts the same envelopes again in its `SimReport`, and
//! `run_sim` checks that the two agree.

use lapse_net::{Key, NodeId};
use lapse_proto::client::{ClientCore, MsgSink};
use lapse_proto::messages::Msg;
use lapse_proto::server::ServerCore;
use lapse_sim::{SimProtocol, TaskCtx};

use crate::worker::Backend;

/// The Lapse protocol as a simulator protocol.
pub struct LapseProto;

impl SimProtocol for LapseProto {
    type Msg = Msg;
    type Server = ServerCore;

    fn handle(server: &mut ServerCore, msg: Msg, out: &mut Vec<(NodeId, Msg)>) {
        let sent = out.len();
        server.handle(msg, out);
        let (src, lane) = (server.node(), server.lane());
        for (dst, msg) in &out[sent..] {
            lane.count_send(src, *dst, msg);
        }
    }

    fn msg_load(msg: &Msg) -> (u64, u64) {
        msg.load()
    }
}

/// The simulator under a [`Worker`](crate::worker::Worker): time is
/// virtual and charged, sends and waits go through the task context.
pub(crate) struct SimBackend<'a> {
    pub(crate) ctx: &'a mut TaskCtx<LapseProto>,
}

impl Backend for SimBackend<'_> {
    fn charge_issue(&mut self, client: &ClientCore, keys: &[Key]) {
        let floats = client.shared().cfg.layout.keys_len(keys) as u64;
        let ns = self.ctx.shared().cost.client_ns(keys.len() as u64, floats);
        self.ctx.charge(ns);
    }

    fn charge_local_read(&mut self, client: &ClientCore, key: Key) {
        let floats = client.shared().cfg.layout.len(key) as u64;
        let cost = &self.ctx.shared().cost;
        let ns = cost.mem_per_key_ns + (floats as f64 * cost.mem_per_float_ns) as u64;
        self.ctx.charge(ns);
    }

    fn send(&mut self, client: &ClientCore, sink: &mut MsgSink) {
        let (src, lane) = (client.node(), client.lane());
        for (dst, msg) in sink.drain(..) {
            lane.count_send(src, dst, &msg);
            self.ctx.send(dst, msg);
        }
    }

    fn wait_done(&mut self, client: &ClientCore, seq: u64) {
        let tracker = &client.shared().tracker;
        self.ctx.wait_until(|| tracker.is_done(seq));
    }

    fn barrier(&mut self) {
        self.ctx.barrier();
    }

    fn charge(&mut self, ns: u64) {
        self.ctx.charge(ns);
    }

    fn now_ns(&self) -> u64 {
        self.ctx.now()
    }
}
