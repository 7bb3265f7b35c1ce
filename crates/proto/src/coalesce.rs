//! Per-destination message coalescing.
//!
//! The emit phase of one client op or server message typically produces
//! several messages for the *same* link (per-key responses grouped per
//! origin, replica-refresh fan-out, technique broadcasts). The threaded
//! backend hands each flushed sink to a [`Coalescer`], which groups the
//! messages by destination — preserving first-appearance destination
//! order and per-destination message order, so per-link FIFO is exactly
//! what it was — and wraps runs of two or more into
//! [`Msg::Batch`] envelopes, cut at the configured count/byte caps.
//! Coalescing off is a count cap of one: every message then leaves bare,
//! in sink order.
//!
//! This module is the only place in the crates that constructs
//! `Msg::Batch`, and it packs already-flat sink messages. A nested batch
//! is refused wherever one could show: debug builds check each message
//! [`Coalescer::pack`] packs and each one the server's burst and the
//! threaded ingest unwrap, the encoder panics on one in every profile,
//! and the decoder rejects tag 15 inside a batch unconditionally.
//!
//! The simulator never coalesces: its cost model charges per message and
//! its schedules must stay bit-identical, so its backend sends message by
//! message and never builds a [`Coalescer`], whatever
//! [`ProtoConfig::coalesce`](crate::config::ProtoConfig) says.

use lapse_net::{NodeId, WireSize};

use crate::config::ProtoConfig;
use crate::messages::Msg;

/// Counters of one [`Coalescer::pack`] call, accumulated by the caller
/// into the node's access statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PackStats {
    /// Batch envelopes emitted.
    pub batches: u64,
    /// Constituent messages carried inside those envelopes.
    pub batched_msgs: u64,
}

/// Groups an emit-phase sink into per-destination [`Msg::Batch`]
/// envelopes. One instance per sending thread; the grouping scratch is
/// reused across flushes.
pub struct Coalescer {
    max_msgs: usize,
    max_bytes: usize,
    /// Per-destination runs in first-appearance order. A `Vec` scan, not
    /// a hash map: destinations per flush are bounded by the node count,
    /// and protocol crates avoid hash iteration (determinism lint). The
    /// run buffers are a pool: only the first [`Coalescer::active`]
    /// entries belong to the current flush, and emptied runs keep their
    /// capacity for the next one — after warm-up a flush allocates only
    /// the chunk vectors that travel inside [`Msg::Batch`] envelopes.
    groups: Vec<(NodeId, Vec<Msg>)>,
    /// Pool entries in use by the current flush.
    active: usize,
    /// Times the pool grew by a fresh run buffer (steady state: flat).
    pool_allocs: u64,
}

impl Coalescer {
    /// A coalescer with the configuration's caps; with
    /// [`ProtoConfig::coalesce`] off, a count cap of one message.
    pub fn new(cfg: &ProtoConfig) -> Self {
        Coalescer {
            max_msgs: if cfg.coalesce {
                cfg.coalesce_max_msgs.max(1)
            } else {
                1
            },
            max_bytes: cfg.coalesce_max_bytes.max(1),
            groups: Vec::new(),
            active: 0,
            pool_allocs: 0,
        }
    }

    /// Times the per-destination pool allocated a fresh run buffer.
    /// Flat across steady-state flushes — asserted by the coalesce tests.
    pub fn pool_allocs(&self) -> u64 {
        self.pool_allocs
    }

    /// Drains `sink`, emitting each destination's run as batch envelopes
    /// (runs of one, and singleton chunks left over after cap cuts, are
    /// emitted bare — a batch of one would pay 5 envelope bytes for
    /// nothing). Under a count cap of one nothing is grouped: the sink
    /// leaves message by message, in its own order. Returns what was
    /// batched, for stats accounting.
    pub fn pack(
        &mut self,
        sink: &mut Vec<(NodeId, Msg)>,
        emit: &mut dyn FnMut(NodeId, Msg),
    ) -> PackStats {
        let mut stats = PackStats::default();
        if sink.len() <= 1 || self.max_msgs == 1 {
            sink.drain(..).for_each(|(dst, msg)| emit(dst, msg));
            return stats;
        }
        for (dst, msg) in sink.drain(..) {
            debug_assert!(
                !matches!(msg, Msg::Batch(_)),
                "sink must hold flat messages"
            );
            match self.groups[..self.active]
                .iter_mut()
                .find(|(d, _)| *d == dst)
            {
                Some((_, run)) => run.push(msg),
                None => {
                    if self.active == self.groups.len() {
                        self.groups.push((dst, Vec::new()));
                        self.pool_allocs += 1;
                    }
                    let slot = &mut self.groups[self.active];
                    slot.0 = dst;
                    debug_assert!(slot.1.is_empty(), "pooled run not drained");
                    slot.1.push(msg);
                    self.active += 1;
                }
            }
        }
        for (dst, run) in &mut self.groups[..self.active] {
            let dst = *dst;
            if run.len() == 1 {
                emit(dst, run.pop().expect("run of one"));
                continue;
            }
            // Chunks move into `Msg::Batch` envelopes, so each is an
            // owned allocation; only the run buffers are pooled.
            let mut chunk: Vec<Msg> = Vec::new();
            let mut chunk_bytes = 0usize;
            for msg in run.drain(..) {
                let bytes = msg.wire_bytes();
                let cut = !chunk.is_empty()
                    && (chunk.len() >= self.max_msgs || chunk_bytes + bytes > self.max_bytes);
                if cut {
                    Self::emit_chunk(dst, std::mem::take(&mut chunk), &mut stats, emit);
                    chunk_bytes = 0;
                }
                chunk_bytes += bytes;
                chunk.push(msg);
            }
            Self::emit_chunk(dst, chunk, &mut stats, emit);
        }
        self.active = 0;
        stats
    }

    fn emit_chunk(
        dst: NodeId,
        mut chunk: Vec<Msg>,
        stats: &mut PackStats,
        emit: &mut dyn FnMut(NodeId, Msg),
    ) {
        match chunk.len() {
            0 => {}
            1 => emit(dst, chunk.pop().expect("chunk of one")),
            n => {
                stats.batches += 1;
                stats.batched_msgs += n as u64;
                emit(dst, Msg::Batch(chunk));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use crate::messages::{OpId, OpKind, OpMsg};
    use lapse_net::Key;

    fn op(seq: u64, keys: usize) -> Msg {
        Msg::Op(OpMsg {
            op: OpId::new(NodeId(0), seq),
            kind: OpKind::Pull,
            keys: (0..keys as u64).map(Key).collect(),
            vals: vec![],
            routed_by_home: false,
        })
    }

    fn coalescer(max_msgs: usize, max_bytes: usize) -> Coalescer {
        let mut cfg = ProtoConfig::new(2, 8, Layout::Uniform(1));
        cfg.coalesce_max_msgs = max_msgs;
        cfg.coalesce_max_bytes = max_bytes;
        Coalescer::new(&cfg)
    }

    fn pack(c: &mut Coalescer, sink: Vec<(NodeId, Msg)>) -> (Vec<(NodeId, Msg)>, PackStats) {
        let mut sink = sink;
        let mut out = Vec::new();
        let stats = c.pack(&mut sink, &mut |dst, msg| out.push((dst, msg)));
        assert!(sink.is_empty(), "pack must drain the sink");
        (out, stats)
    }

    #[test]
    fn single_message_travels_bare() {
        let mut c = coalescer(64, 1 << 20);
        let (out, stats) = pack(&mut c, vec![(NodeId(1), op(1, 1))]);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, Msg::Op(_)));
        assert_eq!(stats, PackStats::default());
    }

    #[test]
    fn same_destination_runs_merge_in_order() {
        let mut c = coalescer(64, 1 << 20);
        let sink = vec![
            (NodeId(1), op(1, 1)),
            (NodeId(2), op(2, 1)),
            (NodeId(1), op(3, 1)),
            (NodeId(1), op(4, 1)),
        ];
        let (out, stats) = pack(&mut c, sink);
        // Destination order = first appearance; node 2's single message
        // stays bare.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, NodeId(1));
        match &out[0].1 {
            Msg::Batch(msgs) => {
                let seqs: Vec<u64> = msgs
                    .iter()
                    .map(|m| match m {
                        Msg::Op(o) => o.op.seq,
                        other => panic!("unexpected {other:?}"),
                    })
                    .collect();
                assert_eq!(seqs, vec![1, 3, 4], "per-destination order preserved");
            }
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(out[1].0, NodeId(2));
        assert!(matches!(out[1].1, Msg::Op(_)));
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batched_msgs, 3);
    }

    #[test]
    fn count_cap_cuts_batches() {
        let mut c = coalescer(2, 1 << 20);
        let sink = (0..5).map(|s| (NodeId(1), op(s, 1))).collect();
        let (out, stats) = pack(&mut c, sink);
        // 5 messages at cap 2: [0,1] [2,3] [4] — the trailing singleton
        // travels bare.
        assert_eq!(out.len(), 3);
        assert!(matches!(&out[0].1, Msg::Batch(m) if m.len() == 2));
        assert!(matches!(&out[1].1, Msg::Batch(m) if m.len() == 2));
        assert!(matches!(out[2].1, Msg::Op(_)));
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.batched_msgs, 4);
    }

    #[test]
    fn byte_cap_cuts_batches() {
        let small = op(0, 1).wire_bytes();
        let mut c = coalescer(64, 2 * small + 1);
        let sink = (0..4).map(|s| (NodeId(1), op(s, 1))).collect();
        let (out, stats) = pack(&mut c, sink);
        assert_eq!(out.len(), 2, "got {out:?}");
        assert!(matches!(&out[0].1, Msg::Batch(m) if m.len() == 2));
        assert!(matches!(&out[1].1, Msg::Batch(m) if m.len() == 2));
        assert_eq!(stats.batched_msgs, 4);
    }

    #[test]
    fn oversized_message_still_travels() {
        let mut c = coalescer(64, 8);
        let sink = vec![(NodeId(1), op(0, 16)), (NodeId(1), op(1, 16))];
        let (out, _) = pack(&mut c, sink);
        // Each exceeds the byte cap alone; both must still be emitted,
        // each in its own bare envelope.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(_, m)| matches!(m, Msg::Op(_))));
    }

    #[test]
    fn scratch_reuse_across_flushes() {
        let mut c = coalescer(64, 1 << 20);
        let mut allocs_after_first = 0;
        for round in 0..3u64 {
            let sink = vec![
                (NodeId(1), op(round * 2, 1)),
                (NodeId(1), op(round * 2 + 1, 1)),
            ];
            let (out, stats) = pack(&mut c, sink);
            assert_eq!(out.len(), 1, "round {round}");
            assert_eq!(stats.batched_msgs, 2, "round {round}");
            if round == 0 {
                allocs_after_first = c.pool_allocs();
            } else {
                assert_eq!(
                    c.pool_allocs(),
                    allocs_after_first,
                    "run buffers reallocated on round {round}"
                );
            }
        }
    }

    #[test]
    fn pool_allocs_stay_flat_across_multi_destination_flushes() {
        let mut c = coalescer(64, 1 << 20);
        // First flush warms the pool with one run buffer per destination.
        let warm: Vec<_> = (0..4u16)
            .flat_map(|d| (0..3u64).map(move |s| (NodeId(d), op(s, 1))))
            .collect();
        let _ = pack(&mut c, warm);
        let warmed = c.pool_allocs();
        assert_eq!(warmed, 4, "one pool growth per first-seen destination");
        // Steady state: same destinations (in any order) allocate nothing.
        for round in 0..5u64 {
            let sink: Vec<_> = (0..4u16)
                .rev()
                .flat_map(|d| (0..3u64).map(move |s| (NodeId(d), op(round * 3 + s, 1))))
                .collect();
            let (out, stats) = pack(&mut c, sink);
            assert_eq!(out.len(), 4, "round {round}");
            assert_eq!(stats.batched_msgs, 12, "round {round}");
            assert_eq!(c.pool_allocs(), warmed, "pool grew on round {round}");
        }
    }
}
