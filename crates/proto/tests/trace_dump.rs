//! Flight-recorder auto-dump on protocol-invariant violations, and the
//! op class a completion is recorded under.
//!
//! An `unexpected_relocates` violation (a `Relocate` for a key the node
//! neither owns nor expects) must flush the recorder *before* the debug
//! assertion fires, so the events leading up to the violation survive
//! the panic and land in the dump stash.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use lapse_net::{Key, NodeId};
use lapse_proto::client::ClientCore;
use lapse_proto::messages::{Msg, OpId, RelocateMsg};
use lapse_proto::server::ServerCore;
use lapse_proto::shard::NodeShared;
use lapse_proto::tracker::TrackedKind;
use lapse_proto::{Layout, ProtoConfig, Variant};
use lapse_trace::{EventKind, Recorder, CLASS_LOCALIZE, CLASS_PUSH};

/// Node 0 of a traced two-node Lapse cluster, and its recorder.
fn traced_node() -> (Arc<NodeShared>, Arc<Recorder>) {
    let mut cfg = ProtoConfig::new(2, 8, Layout::Uniform(1));
    cfg.variant = Variant::Lapse;
    cfg.latches = 2;
    let recorder = Recorder::new(Arc::new(|| 0u64), 64);
    let shared = NodeShared::with_init_traced(
        Arc::new(cfg),
        NodeId(0),
        Arc::new(|| 0u64),
        Some(recorder.clone()),
        |_| None,
    );
    (shared, recorder)
}

/// `finish_ack` releases pushes and localizes alike; the trace must still
/// say which of the two finished.
#[test]
fn a_finished_localize_is_not_recorded_as_a_push() {
    let (shared, recorder) = traced_node();
    let client = ClientCore::new(shared.clone(), 0);
    let localize = shared.tracker.begin(TrackedKind::Localize, 0, None);
    let push = shared.tracker.begin(TrackedKind::Push, 0, None);
    for seq in [localize, push] {
        assert!(shared.tracker.seal(seq), "an op without keys is done");
        client.finish_ack(seq);
    }
    let completions: Vec<(u64, u64)> = recorder
        .take_events()
        .iter()
        .filter(|e| e.kind == EventKind::OpComplete)
        .map(|e| (e.a, e.b))
        .collect();
    assert_eq!(
        completions,
        [(CLASS_LOCALIZE, localize), (CLASS_PUSH, push)]
    );
}

#[test]
fn unexpected_relocate_dumps_the_recorder() {
    let (shared, recorder) = traced_node();
    let mut server = ServerCore::new(shared.clone());
    assert!(recorder.last_dump().is_none());

    // Key 6 is homed (and owned) at node 1: node 0 neither holds its
    // value nor expects a hand-over, so this Relocate is a protocol
    // violation. In debug builds the handler asserts after dumping.
    let bogus = Msg::Relocate(RelocateMsg {
        op: OpId::new(NodeId(1), 1),
        keys: vec![Key(6)],
        new_owner: NodeId(0),
    });
    let mut sink = Vec::new();
    let result = catch_unwind(AssertUnwindSafe(|| server.handle(bogus, &mut sink)));
    if cfg!(debug_assertions) {
        assert!(result.is_err(), "debug builds assert on the violation");
    } else {
        assert!(result.is_ok());
        assert_eq!(shared.stats().unexpected_relocates, 1);
    }

    // In debug builds the panic hook re-dumps (reason "panic") after the
    // handler's own "unexpected relocate" dump; either way the stashed
    // text must carry the violation event and the lead-up.
    let dump = recorder
        .last_dump()
        .expect("violation must auto-dump the recorder");
    assert!(dump.contains("lapse-trace dump"), "{dump}");
    assert!(dump.contains("reloc.unexpected"), "{dump}");
    assert!(
        dump.contains("msg.recv"),
        "lead-up events must survive: {dump}"
    );
}
