//! Simulator glue for the SSP baseline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lapse_core::PsWorker;
use lapse_net::{Key, NodeId};
use lapse_proto::tracker::ClockFn;
use lapse_sim::{CostModel, SimCluster, SimProtocol, SimReport};

use crate::client::{SspClientShared, SspWorker};
use crate::messages::SspMsg;
use crate::server::SspServer;
use crate::SspConfig;

/// The SSP protocol on the simulator. A node's message handler serves
/// both roles: server shard (Get/Update) and client cache (GetResp/Push).
pub struct SspProto;

/// Per-node simulator state: the server shard plus the client cache.
pub struct SspNode {
    /// The server shard of this node.
    pub server: SspServer,
    /// The client cache of this node.
    pub client: Arc<SspClientShared>,
}

impl SimProtocol for SspProto {
    type Msg = SspMsg;
    type Server = SspNode;

    fn handle(node: &mut SspNode, msg: SspMsg, out: &mut Vec<(NodeId, SspMsg)>) {
        match msg {
            SspMsg::Get { .. } | SspMsg::Update { .. } => node.server.handle(msg, out),
            SspMsg::GetResp {
                op,
                keys,
                vals,
                clock,
            } => {
                node.client.on_get_resp(op, &keys, &vals, clock);
            }
            SspMsg::Push { keys, vals, clock } => {
                node.client.install(&keys, &vals, clock);
            }
        }
    }

    fn msg_load(msg: &SspMsg) -> (u64, u64) {
        match msg {
            SspMsg::Get { keys, .. } => (keys.len() as u64, 0),
            SspMsg::GetResp { keys, vals, .. } => (keys.len() as u64, vals.len() as u64),
            SspMsg::Update { keys, vals, .. } => (keys.len() as u64, vals.len() as u64),
            SspMsg::Push { keys, vals, .. } => (keys.len() as u64, vals.len() as u64),
        }
    }
}

/// Runs `body` on every worker of a simulated SSP cluster; returns the
/// per-worker results, the simulator's report (virtual run time and the
/// messages it delivered), and the final per-node states (whose servers
/// hold the authoritative values).
pub fn run_ssp_sim<R, F>(
    cfg: SspConfig,
    workers_per_node: usize,
    cost: CostModel,
    init: impl FnMut(Key) -> Option<Vec<f32>>,
    body: F,
) -> (Vec<R>, SimReport, Vec<SspNode>)
where
    R: Send + 'static,
    F: Fn(&mut dyn PsWorker) -> R + Send + Sync + 'static,
{
    let cfg = Arc::new(cfg);
    let nodes = cfg.proto.nodes as usize;
    let clock_cell = Arc::new(AtomicU64::new(0));
    let clock: ClockFn = {
        let c = clock_cell.clone();
        Arc::new(move || c.load(Ordering::Relaxed))
    };

    let mut init = init;
    let clients: Vec<Arc<SspClientShared>> = (0..nodes)
        .map(|n| SspClientShared::new(cfg.clone(), NodeId(n as u16), clock.clone()))
        .collect();
    let servers: Vec<SspNode> = (0..nodes)
        .map(|n| SspNode {
            server: SspServer::new(cfg.clone(), NodeId(n as u16), workers_per_node, &mut init),
            client: clients[n].clone(),
        })
        .collect();

    let sim: SimCluster<SspProto> =
        SimCluster::with_clock(cost, servers, workers_per_node, clock_cell);
    for (n, client) in clients.iter().enumerate() {
        let sim_shared = sim.shared().clone();
        let base = n * workers_per_node;
        client.tracker.set_waker(Arc::new(move |slot, _seq| {
            sim_shared.notify_task(base + slot as usize);
        }));
    }

    let worker_clients = clients.clone();
    let (report, results, nodes_back) = sim.run(move |ctx, node, slot| {
        let mut worker = SspWorker::new(
            worker_clients[node.idx()].clone(),
            ctx,
            slot,
            nodes,
            workers_per_node,
        );
        body(&mut worker)
    });

    (results, report, nodes_back)
}
