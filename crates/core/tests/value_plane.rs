//! Value-plane equivalence stress test.
//!
//! Eight workers (2 nodes × 4) hammer a Zipf-skewed key set with a
//! deterministic per-worker mix of sync pushes, async pushes, pulls, and
//! localizes, under **every** PS variant. The final parameter state must
//! be *identical* across the threaded runtime and the simulator — and
//! equal to the independently replayed expected sums. Push terms are
//! small integers, so floating-point addition is exact and the check is
//! order-independent: any lost, duplicated, or misrouted value shows up
//! as an exact mismatch.
//!
//! The same run doubles as the allocation-accounting check of the value
//! plane: relocation churn and the owned-local serves of the workload
//! must not produce per-value heap allocations beyond the
//! parked-payload copies the protocol legitimately makes.

mod common;

use common::{expected_state, stress_config, workload, VARIANTS};
use lapse_core::{run_sim, run_threaded, ClusterStats, CostModel, Variant};

const NODES: u16 = 2;
const WORKERS_PER_NODE: usize = 4;
const WORKERS: u64 = NODES as u64 * WORKERS_PER_NODE as u64;

fn run_variant(variant: Variant) -> (Vec<Vec<f32>>, Vec<Vec<f32>>, ClusterStats) {
    let cfg = move || stress_config(NODES, variant);
    let (threaded, _) = run_threaded(cfg(), WORKERS_PER_NODE, |_| None, workload);
    let (sim, sim_stats) = run_sim(
        cfg(),
        WORKERS_PER_NODE,
        CostModel::default(),
        |_| None,
        workload,
    );
    (threaded, sim, sim_stats)
}

#[test]
fn final_state_identical_across_backends_for_all_variants() {
    let expect = expected_state(WORKERS);
    for variant in VARIANTS {
        let (threaded, sim, sim_stats) = run_variant(variant);
        for (gid, state) in threaded.iter().enumerate() {
            assert_eq!(state, &expect, "threaded {variant:?} worker {gid}");
        }
        for (gid, state) in sim.iter().enumerate() {
            assert_eq!(state, &expect, "sim {variant:?} worker {gid}");
        }
        assert_eq!(
            sim_stats.tracker_in_flight, 0,
            "{variant:?}: leaked tracker entries"
        );
        assert_eq!(
            sim_stats.unexpected_relocates, 0,
            "{variant:?}: protocol invariant violated"
        );
        if variant == Variant::Adaptive {
            // The knobs above make the Zipf head hot enough to promote
            // during the run (the transitions themselves are what this
            // stress exercises).
            assert!(
                sim_stats.tech_promotions > 0,
                "adaptive run promoted nothing (sketch_samples={})",
                sim_stats.sketch_samples
            );
            assert!(sim_stats.sketch_samples > 0);
        }
    }
}

/// The same stress with per-link coalescing forced on and the batch caps
/// turned adversarially small (3 messages / 256 bytes): every flush cuts
/// mid-run, so batch boundaries land at arbitrary points of the message
/// stream. Constituent order within and across envelopes must still be
/// per-link FIFO, or pushes are lost/duplicated and the exact-sum check
/// fails. Threaded only — the simulator never coalesces, and the
/// per-message expected state is already pinned by the test above.
#[test]
fn coalescing_with_tiny_caps_preserves_final_state() {
    let expect = expected_state(WORKERS);
    for variant in VARIANTS {
        let mut cfg = stress_config(NODES, variant).coalesce(true);
        cfg.proto.coalesce_max_msgs = 3;
        cfg.proto.coalesce_max_bytes = 256;
        let (threaded, stats) = run_threaded(cfg, WORKERS_PER_NODE, |_| None, workload);
        for (gid, state) in threaded.iter().enumerate() {
            assert_eq!(state, &expect, "coalesced {variant:?} worker {gid}");
        }
        assert_eq!(
            stats.unexpected_relocates, 0,
            "{variant:?}: protocol invariant violated under coalescing"
        );
    }
}

/// Batch envelopes on a delay-injected link: the transport's delayed
/// path delivers envelopes sequentially per link, so the constituents of
/// consecutive batches must arrive in exactly the order they were
/// packed, even when chunk cuts split a flush into several envelopes.
#[test]
fn delayed_link_preserves_constituent_order_under_coalescing() {
    use lapse_net::transport::DelayPolicy;
    use lapse_net::{NodeId, ThreadedNet};
    use lapse_proto::coalesce::Coalescer;
    use lapse_proto::messages::{Msg, OpId, OpKind, OpMsg};
    use lapse_proto::{Layout, ProtoConfig};
    use lapse_utils::metrics::Metrics;
    use std::sync::Arc;
    use std::time::Duration;

    let policy: DelayPolicy = Arc::new(|_, _| Duration::from_micros(150));
    let net: Arc<ThreadedNet<Msg>> = ThreadedNet::with_delay(2, Metrics::new(), Some(policy));
    let ep = net.take_endpoint(NodeId(1));

    let mut cfg = ProtoConfig::new(2, 64, Layout::Uniform(1));
    cfg.coalesce_max_msgs = 4;
    let sender = net.clone();
    let producer = std::thread::spawn(move || {
        let mut c = Coalescer::new(&cfg);
        let mut seq = 0u64;
        let mut total = 0u64;
        // Flush sinks of every size 1..=9: bare sends, single batches,
        // and multi-envelope cap cuts all interleave on the same link.
        for round in 0..200u64 {
            let n = (round % 9) + 1;
            let mut sink: Vec<(NodeId, Msg)> = (0..n)
                .map(|_| {
                    let m = Msg::Op(OpMsg {
                        op: OpId::new(NodeId(0), seq),
                        kind: OpKind::Pull,
                        keys: vec![],
                        vals: vec![],
                        routed_by_home: false,
                    });
                    seq += 1;
                    (NodeId(1), m)
                })
                .collect();
            c.pack(&mut sink, &mut |dst, msg| {
                sender.send(NodeId(0), dst, msg);
            });
            total += n;
        }
        total
    });
    let total = producer.join().expect("producer panicked");
    let mut next = 0u64;
    while next < total {
        let incoming = ep.recv().expect("sender hung up early");
        let constituents = match incoming.msg {
            Msg::Batch(msgs) => msgs,
            other => vec![other],
        };
        for m in constituents {
            match m {
                Msg::Op(op) => {
                    assert_eq!(op.op.seq, next, "constituent out of order");
                    next += 1;
                }
                other => panic!("unexpected message {other:?}"),
            }
        }
    }
}

/// Allocation accounting over the full stress run (simulator backend,
/// Lapse variant): the stores allocate nothing once built, so what is
/// left is the per-value copies of parked operations — never
/// proportional to the relocation traffic — and the value plane moves a
/// plausible number of bytes.
#[test]
fn stress_run_allocation_accounting() {
    let (_, _, stats) = run_variant(Variant::Lapse);
    assert!(stats.handovers >= 50, "the workload relocates");
    // A value allocated per hand-over would show up as at least that
    // many heap allocations; the parked pushes are a quarter of it.
    assert!(
        stats.value_allocs_heap < stats.handovers / 2,
        "relocation churn leaked to the heap: {} heap allocations for {} hand-overs",
        stats.value_allocs_heap,
        stats.handovers
    );
    assert!(stats.value_bytes_moved > 0, "value accounting is wired up");
}
