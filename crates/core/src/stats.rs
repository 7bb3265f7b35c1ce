//! Aggregated run statistics.

use std::ops::Deref;
use std::sync::Arc;

use lapse_proto::shard::AccessStats;
use lapse_proto::tracker::OpTracker;
use lapse_proto::NodeShared;
use lapse_utils::stats::LogHistogram;

/// Cluster-wide statistics collected after a run, feeding the paper's
/// Table 5 (reads local/non-local, relocations, relocation times) and the
/// communication analyses.
///
/// The per-core counters are declared once, beside the lanes that count
/// them ([`AccessStats`]): a `ClusterStats` is their sum over every lane
/// of every node and reads as one through `Deref` (`stats.pull_remote`,
/// `stats.pull_total()`, `stats.messages`: every core counts the
/// envelopes it sends). Its own fields are what only the run knows.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Every lane of every node, summed.
    pub access: AccessStats,
    /// Distribution of relocation times (ns), the paper's Section 3.2
    /// definition.
    pub reloc_time: LogHistogram,
    /// Tracker entries still registered when the run ended (leaked or
    /// abandoned-but-incomplete operations; 0 for clean runs).
    pub tracker_in_flight: u64,
    /// Times a thread driving a server hit the drain cap and rang the
    /// node's fallback server thread (threaded backend; 0 on the
    /// simulator).
    pub doorbell_rings: u64,
    /// Always 0: snapshot reads no longer wait on anything. Kept only
    /// because the frozen benchmark reads it.
    pub snapshot_stale_waits: u64,
    /// Virtual run time (simulator backend only).
    pub virtual_time_ns: Option<u64>,
    /// Chrome trace-event JSON exported by the flight recorder
    /// (`PsConfig::trace` / `LAPSE_TRACE=1`); `None` when tracing was
    /// off. Load it in Perfetto or `chrome://tracing`.
    pub trace_json: Option<String>,
}

impl Deref for ClusterStats {
    type Target = AccessStats;

    fn deref(&self) -> &AccessStats {
        &self.access
    }
}

impl ClusterStats {
    /// Gathers the counters of every node's lanes and trackers; what
    /// only the run knows is the caller's to fill in.
    pub fn collect(nodes: &[Arc<NodeShared>]) -> Self {
        let mut stats = ClusterStats {
            access: AccessStats::default(),
            reloc_time: OpTracker::reloc_time_histogram(),
            tracker_in_flight: 0,
            doorbell_rings: 0,
            snapshot_stale_waits: 0,
            virtual_time_ns: None,
            trace_json: None,
        };
        for n in nodes {
            stats.access += n.stats();
            stats.reloc_time.merge(&n.tracker.reloc_time_stats());
            stats.tracker_in_flight += n.tracker.in_flight() as u64;
        }
        stats
    }

    /// Relocation-time quantile in nanoseconds (paper Section 3.2).
    /// Zero when the run relocated nothing (the underlying histogram
    /// reports `NaN` on an empty distribution).
    pub fn reloc_quantile_ns(&self, q: f64) -> u64 {
        let v = self.reloc_time.approx_quantile(q);
        if v.is_nan() {
            0
        } else {
            v as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lapse_net::wire::message_bytes;
    use lapse_net::NodeId;
    use lapse_proto::messages::Msg;
    use lapse_proto::{Layout, ProtoConfig};

    /// `collect` sums each counter over the lanes of every node and
    /// reports it under its own name — the wait stages a worker counts
    /// in its own lane, and the envelopes every core counts in its own,
    /// included.
    #[test]
    fn collect_sums_lanes_across_nodes_under_the_right_names() {
        let cfg = Arc::new(ProtoConfig::new(2, 8, Layout::Uniform(1)));
        let nodes: Vec<_> = (0..2)
            .map(|n| NodeShared::new(cfg.clone(), NodeId(n), Arc::new(|| 0)))
            .collect();
        for (n, node) in nodes.iter().enumerate() {
            for lane in [node.claim_lane(), node.claim_lane()] {
                lane.pull_local.add(1 + n as u64);
                lane.handovers.add(10);
                lane.value_allocs_heap.add(100);
                lane.snapshot_fallbacks.add(1000);
                lane.wake_spins.add(2);
                lane.wait_ns.add(500);
                lane.count_send(NodeId(n as u16), NodeId(0), &Msg::Shutdown);
            }
        }
        let s = ClusterStats::collect(&nodes);
        assert_eq!(s.pull_local, 2 * (1 + 2));
        assert_eq!(s.handovers, 40);
        assert_eq!(s.value_allocs_heap, 400);
        assert_eq!(s.snapshot_fallbacks, 4000);
        assert_eq!((s.pull_total(), s.pull_remote), (6, 0));
        let envelope = message_bytes(&Msg::Shutdown) as u64;
        assert_eq!((s.messages, s.bytes, s.self_messages), (4, 4 * envelope, 2));
        let waits = (s.wake_immediate, s.wake_spins, s.wake_parks, s.wait_ns);
        assert_eq!(waits, (0, 8, 0, 2000));
        // The run's own counters are not the lanes': `collect` leaves
        // them zero and the backend fills them in.
        assert_eq!((s.doorbell_rings, s.virtual_time_ns), (0, None));
    }
}
