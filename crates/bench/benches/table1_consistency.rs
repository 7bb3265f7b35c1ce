//! Table 1: per-key consistency guarantees, checked empirically.
//!
//! For each PS configuration, randomized operation/delivery schedules run
//! through the sans-io test cluster, and three witnesses are checked:
//! no lost updates (eventual consistency), per-worker monotonic reads and
//! read-your-writes (necessary conditions of sequential and client-
//! centric consistency under non-negative increments). For Lapse with
//! location caches the Theorem 3 counterexample is also replayed
//! deterministically — random schedules rarely hit that race, the
//! crafted one always does. The stale PS is checked for the bounded-
//! staleness behaviour that costs it sequential consistency.

use rand::Rng;
use std::collections::BTreeMap;

use lapse_bench::banner;
use lapse_core::CostModel;
use lapse_net::{Key, NodeId, WorkerId};
use lapse_proto::client::IssueHandle;
use lapse_proto::consistency::{
    check_monotonic_reads, check_no_lost_updates, check_read_your_writes, LogEvent, WorkerLog,
};
use lapse_proto::testkit::{IssueOp, TestCluster};
use lapse_proto::{Layout, ProtoConfig, Variant};
use lapse_ssp::{run_ssp_sim, SspConfig, SspMode};
use lapse_utils::rng::derive_rng;
use lapse_utils::table::Table;

const KEYS: u64 = 16;
const SEEDS: u64 = 150;
const OPS_PER_SEED: usize = 60;

/// An issued-but-unfinished op: (node, worker slot, handle, and — for
/// pulls — the (log index, log slot) to backfill with the pulled value).
type PendingOp = (NodeId, usize, IssueHandle, Option<(usize, usize)>);

/// One Table 1 row: label, config factory, and whether ops run synchronously.
type ConfigRow = (&'static str, Box<dyn Fn() -> ProtoConfig>, bool);

struct Outcome {
    lost: u64,
    mono: u64,
    ryw: u64,
}

/// Runs randomized schedules against one protocol configuration; sync
/// mode issues every op to completion before the next, async mode lets
/// them race.
fn fuzz(cfg_of: impl Fn() -> ProtoConfig, sync: bool) -> Outcome {
    let mut outcome = Outcome {
        lost: 0,
        mono: 0,
        ryw: 0,
    };
    for seed in 0..SEEDS {
        let mut rng = derive_rng(0xC0, seed);
        let mut cluster = TestCluster::new(cfg_of(), 2);
        let nodes = cluster.cfg.nodes;
        let mut logs: Vec<WorkerLog> = (0..nodes)
            .flat_map(|n| (0..2).map(move |s| WorkerLog::new(WorkerId::new(NodeId(n), s))))
            .collect();
        let mut pending: Vec<PendingOp> = Vec::new();

        for _ in 0..OPS_PER_SEED {
            let node = NodeId(rng.gen_range(0..nodes));
            let slot = rng.gen_range(0..2usize);
            let key = Key(rng.gen_range(0..KEYS));
            let li = node.idx() * 2 + slot;
            match rng.gen_range(0..4) {
                0 => {
                    let delta = rng.gen_range(1..4) as f32;
                    let h = cluster.issue(node, slot, IssueOp::Push(&[key], &[delta]), None);
                    logs[li].push(key, delta as f64);
                    pending.push((node, slot, h, None));
                }
                1 => {
                    let h = cluster.issue(node, slot, IssueOp::Pull(&[key]), None);
                    logs[li].pull(key, f64::NAN);
                    let log_slot = logs[li].events.len() - 1;
                    pending.push((node, slot, h, Some((li, log_slot))));
                }
                2 => {
                    let h = cluster.issue(node, slot, IssueOp::Localize(&[key]), None);
                    pending.push((node, slot, h, None));
                }
                _ => {
                    // Deliver a few messages (async interleaving).
                    for _ in 0..rng.gen_range(1..4) {
                        let pick = rng.gen_range(0..64usize);
                        if !cluster.deliver_random_one(|n| pick % n) {
                            break;
                        }
                    }
                }
            }
            if sync {
                cluster.run_until_quiet();
            }
        }
        let mut drain_rng = derive_rng(0xC1, seed);
        cluster.run_random_schedule(|n| drain_rng.gen_range(0..n));

        for (node, slot, h, pull_dest) in pending {
            match (h, pull_dest) {
                (IssueHandle::Pending(seq), Some((li, ls))) => {
                    let v = cluster.nodes[node.idx()].clients[slot].take_pull(seq);
                    let (k, _) = logs[li].events[ls];
                    logs[li].events[ls] = (k, LogEvent::Pull(v[0] as f64));
                }
                (IssueHandle::Ready(Some(v)), Some((li, ls))) => {
                    let (k, _) = logs[li].events[ls];
                    logs[li].events[ls] = (k, LogEvent::Pull(v[0] as f64));
                }
                (IssueHandle::Pending(seq), None) => {
                    cluster.nodes[node.idx()].clients[slot].finish_ack(seq);
                }
                _ => {}
            }
        }
        let mut finals = BTreeMap::new();
        for k in 0..KEYS {
            finals.insert(Key(k), cluster.value_of(Key(k))[0] as f64);
        }
        outcome.lost += check_no_lost_updates(&finals, &logs).len() as u64;
        outcome.mono += check_monotonic_reads(&logs).len() as u64;
        outcome.ryw += check_read_your_writes(&logs).len() as u64;
    }
    outcome
}

/// The deterministic Theorem 3 replay: returns true if read-your-writes
/// broke (it must, with caches + async).
fn theorem3_replay() -> bool {
    let mut cfg = ProtoConfig::new(4, 16, Layout::Uniform(1));
    cfg.location_caches = true;
    cfg.latches = 4;
    let mut c = TestCluster::new(cfg, 2);
    let k = Key(8);
    c.localize_now(NodeId(3), 0, &[k]);
    let _ = c.pull_now(NodeId(0), 0, &[k]);
    let p0 = c.issue(NodeId(0), 1, IssueOp::Pull(&[k]), None);
    c.deliver_one(NodeId(0), NodeId(3));
    let loc = c.issue(NodeId(1), 0, IssueOp::Localize(&[k]), None);
    c.deliver_one(NodeId(1), NodeId(2));
    c.deliver_one(NodeId(2), NodeId(3));
    c.deliver_one(NodeId(3), NodeId(1));
    assert!(c.op_done(NodeId(1), &loc));
    let o1 = c.issue(NodeId(0), 0, IssueOp::Push(&[k], &[1.0]), None);
    c.deliver_one(NodeId(3), NodeId(0));
    if let IssueHandle::Pending(seq) = p0 {
        let _ = c.nodes[0].clients[1].take_pull(seq);
    }
    let o2 = c.issue(NodeId(0), 0, IssueOp::Pull(&[k]), None);
    c.deliver_one(NodeId(0), NodeId(2));
    c.deliver_one(NodeId(2), NodeId(1));
    c.deliver_one(NodeId(1), NodeId(0));
    let broke = match o2 {
        IssueHandle::Pending(seq) => {
            let v = c.nodes[0].clients[0].take_pull(seq);
            v[0] < 1.0 // pushed 1.0 first, read less ⇒ RYW broken
        }
        IssueHandle::Ready(Some(v)) => v[0] < 1.0,
        _ => false,
    };
    c.run_until_quiet();
    if let IssueHandle::Pending(seq) = o1 {
        c.nodes[0].clients[0].finish_ack(seq);
    }
    broke
}

/// The SSP staleness demonstration: within the staleness bound, a cached
/// read may miss another worker's flushed update (which is why stale PSs
/// provide neither sequential nor causal consistency).
fn ssp_stale_reads() -> (u64, u64) {
    let mut proto = ProtoConfig::new(2, 4, Layout::Uniform(1));
    proto.latches = 4;
    let (results, _, _) = run_ssp_sim(
        SspConfig::new(proto, 1, SspMode::ClientSync),
        1,
        CostModel::default(),
        |_| None,
        |w| {
            let k = Key(1);
            let mut out = [0.0f32];
            // Warm every cache.
            w.pull(&[k], &mut out);
            // Everyone pushes 1 and flushes; a barrier orders all flushes
            // before all subsequent reads in real time.
            w.push(&[k], &[1.0]);
            w.advance_clock();
            w.barrier();
            // Within the staleness bound the cached value may still be
            // served: reads can miss other workers' flushed updates.
            w.pull(&[k], &mut out);
            out[0] < w.num_workers() as f32
        },
    );
    let stale = results.iter().filter(|&&b| b).count() as u64;
    (stale, results.len() as u64)
}

fn main() {
    banner(
        "table1_consistency",
        "consistency witnesses per PS configuration",
    );
    let mut table = Table::new(
        "Table 1 — witness violations (150 random schedules each)",
        &[
            "configuration",
            "lost updates",
            "monotonic reads",
            "read-your-writes",
        ],
    );
    let configs: Vec<ConfigRow> = vec![
        (
            "Classic sync",
            Box::new(|| {
                let mut c = ProtoConfig::new(3, KEYS, Layout::Uniform(1));
                c.variant = Variant::Classic;
                c.latches = 4;
                c
            }),
            true,
        ),
        (
            "Classic async",
            Box::new(|| {
                let mut c = ProtoConfig::new(3, KEYS, Layout::Uniform(1));
                c.variant = Variant::Classic;
                c.latches = 4;
                c
            }),
            false,
        ),
        (
            "Lapse sync",
            Box::new(|| {
                let mut c = ProtoConfig::new(3, KEYS, Layout::Uniform(1));
                c.latches = 4;
                c
            }),
            true,
        ),
        (
            "Lapse async (no caches)",
            Box::new(|| {
                let mut c = ProtoConfig::new(3, KEYS, Layout::Uniform(1));
                c.latches = 4;
                c
            }),
            false,
        ),
        (
            "Lapse async + caches",
            Box::new(|| {
                let mut c = ProtoConfig::new(3, KEYS, Layout::Uniform(1));
                c.latches = 4;
                c.location_caches = true;
                c
            }),
            false,
        ),
    ];
    for (name, cfg_of, sync) in configs {
        let o = fuzz(cfg_of, sync);
        println!(
            "  measured {name}: lost={} mono={} ryw={}",
            o.lost, o.mono, o.ryw
        );
        table.row(vec![
            name.to_string(),
            format!("{}", o.lost),
            format!("{}", o.mono),
            format!("{}", o.ryw),
        ]);
    }
    table.print();

    let broke = theorem3_replay();
    println!(
        "Theorem 3 replay (Lapse async + caches, crafted schedule): read-your-writes {}",
        if broke {
            "VIOLATED (as the paper proves)"
        } else {
            "unexpectedly held"
        }
    );
    let (stale, total) = ssp_stale_reads();
    println!(
        "Stale PS (SSP, staleness 1): {stale}/{total} workers read a value missing \
         flushed updates of others — bounded staleness ⇒ no sequential consistency"
    );
    println!(
        "paper: classic & Lapse provide sequential consistency (sync always; async without \
         caches); caches reduce async to eventual; stale PSs are not sequentially consistent"
    );
}
