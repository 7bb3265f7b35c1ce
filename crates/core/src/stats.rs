//! Aggregated run statistics.

use std::sync::Arc;

use lapse_proto::shard::AccessStats;
use lapse_proto::NodeShared;
use lapse_utils::stats::LogHistogram;

/// Cluster-wide statistics collected after a run, feeding the paper's
/// Table 5 (reads local/non-local, relocations, relocation times) and the
/// communication analyses.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Pull keys served via the shared-memory fast path.
    pub pull_local: u64,
    /// Pull keys parked locally during an inbound relocation.
    pub pull_queued: u64,
    /// Pull keys routed over the network.
    pub pull_remote: u64,
    /// Push keys served via the shared-memory fast path.
    pub push_local: u64,
    /// Push keys parked locally during an inbound relocation.
    pub push_queued: u64,
    /// Push keys routed over the network.
    pub push_remote: u64,
    /// Localize keys that produced a relocation request.
    pub localize_sent: u64,
    /// Key relocations performed (counted at the home nodes).
    pub relocations: u64,
    /// Keys received via hand-over.
    pub handovers: u64,
    /// Remote keys routed via a location-cache entry (cache hits).
    pub loc_cache_hits: u64,
    /// Stale-location-cache double-forwards.
    pub loc_cache_stale_forwards: u64,
    /// Protocol-invariant violations (must be 0).
    pub unexpected_relocates: u64,
    /// Pull keys served from the local replica view (replication).
    pub pull_replica: u64,
    /// Push keys accumulated locally by the replication technique.
    pub push_replica: u64,
    /// Replica propagation messages sent (flushes).
    pub replica_flushes: u64,
    /// Replicated push keys applied at owners.
    pub replica_pushes_applied: u64,
    /// Replicated keys refreshed by owner broadcasts.
    pub replica_refreshes: u64,
    /// Accesses sampled into the adaptive sketches (Variant::Adaptive).
    pub sketch_samples: u64,
    /// Promotion requests sent by the adaptive controllers.
    pub tech_promote_reqs: u64,
    /// Demotion votes sent by the adaptive controllers.
    pub tech_demote_reqs: u64,
    /// Keys promoted to replication at runtime (counted at homes).
    pub tech_promotions: u64,
    /// Keys demoted back to relocation at runtime (counted at homes).
    pub tech_demotions: u64,
    /// Tracker entries still registered when the run ended (leaked or
    /// abandoned-but-incomplete operations; 0 for clean runs).
    pub tracker_in_flight: u64,
    /// Bytes of parameter values moved through the value plane: local and
    /// replica pull serves plus value payloads assembled into responses,
    /// hand-overs, and refreshes (once per broadcast).
    pub value_bytes_moved: u64,
    /// Value allocations that hit the heap: per-value copies on the hot
    /// paths (parked-operation payloads). The stores allocate nothing
    /// after construction, and owned-local serves contribute zero.
    pub value_allocs_heap: u64,
    /// Distribution of relocation times (ns), the paper's Section 3.2
    /// definition.
    pub reloc_time: LogHistogram,
    /// Messages sent (both backends). With coalescing on, a batch
    /// envelope counts as **one** message.
    pub messages: u64,
    /// Bytes sent (envelope included).
    pub bytes: u64,
    /// Node-local (IPC) messages.
    pub self_messages: u64,
    /// Batch envelopes sent (threaded backend with coalescing; 0 on the
    /// simulator, which never coalesces).
    pub net_batches: u64,
    /// Constituent messages carried inside those envelopes.
    pub net_batched_msgs: u64,
    /// Snapshot-plane reads served wait-free (threaded backend; 0 on the
    /// simulator, whose serving reads stay latched).
    pub snapshot_reads: u64,
    /// Snapshot-plane reads that waited on the staleness bound.
    pub snapshot_stale_waits: u64,
    /// Snapshot-plane reads that fell back to the latched path.
    pub snapshot_fallbacks: u64,
    /// Times a thread driving a server hit the drain cap and rang the
    /// node's fallback server thread (threaded backend; 0 on the
    /// simulator).
    pub doorbell_rings: u64,
    /// Waits for an operation that found it complete at the first check:
    /// it ran to completion on the issuing worker's own thread (threaded
    /// backend; 0 on the simulator, like the three below). Every wait
    /// counts as exactly one of `wake_immediate`, `wake_spins`,
    /// `wake_parks`.
    pub wake_immediate: u64,
    /// Waits that ended while the worker polled: another thread held the
    /// destination's role and finished the operation within the spin
    /// budget.
    pub wake_spins: u64,
    /// Waits that outlasted the spin budget, so that the worker went on
    /// to sleep and the completing thread had to wake it.
    pub wake_parks: u64,
    /// Nanoseconds workers spent waiting after a failed first check,
    /// polling and asleep, summed over workers: the "remote wait" term
    /// of an epoch's attribution.
    pub wait_ns: u64,
    /// Virtual run time (simulator backend only).
    pub virtual_time_ns: Option<u64>,
    /// Chrome trace-event JSON exported by the flight recorder
    /// (`PsConfig::trace` / `LAPSE_TRACE=1`); `None` when tracing was
    /// off. Load it in Perfetto or `chrome://tracing`.
    pub trace_json: Option<String>,
}

impl ClusterStats {
    /// Gathers protocol counters from every node's shared state.
    pub fn collect(nodes: &[Arc<NodeShared>]) -> Self {
        let mut access = AccessStats::default();
        let mut reloc_time = LogHistogram::new(1_000.0, 1.05, 360);
        let mut tracker_in_flight = 0;
        for n in nodes {
            access += n.stats();
            reloc_time.merge(&n.tracker.reloc_time_stats());
            tracker_in_flight += n.tracker.in_flight() as u64;
        }
        // Exhaustive on purpose: a counter added to the lanes and not
        // reported here is a compile error, not a silent zero.
        let AccessStats {
            pull_local,
            pull_queued,
            pull_remote,
            push_local,
            push_queued,
            push_remote,
            localize_sent,
            relocations,
            handovers_in,
            loc_cache_hits,
            loc_cache_stale_forwards,
            unexpected_relocates,
            pull_replica,
            push_replica,
            replica_flushes,
            replica_pushes_applied,
            replica_refreshes,
            sketch_samples,
            tech_promote_reqs,
            tech_demote_reqs,
            tech_promotions,
            tech_demotions,
            value_bytes_moved,
            value_allocs_heap,
            net_batches,
            net_batched_msgs,
            snapshot_reads,
            snapshot_stale_waits,
            snapshot_fallbacks,
        } = access;
        ClusterStats {
            pull_local,
            pull_queued,
            pull_remote,
            push_local,
            push_queued,
            push_remote,
            localize_sent,
            relocations,
            handovers: handovers_in,
            loc_cache_hits,
            loc_cache_stale_forwards,
            unexpected_relocates,
            pull_replica,
            push_replica,
            replica_flushes,
            replica_pushes_applied,
            replica_refreshes,
            sketch_samples,
            tech_promote_reqs,
            tech_demote_reqs,
            tech_promotions,
            tech_demotions,
            tracker_in_flight,
            value_bytes_moved,
            value_allocs_heap,
            reloc_time,
            messages: 0,
            bytes: 0,
            self_messages: 0,
            net_batches,
            net_batched_msgs,
            snapshot_reads,
            snapshot_stale_waits,
            snapshot_fallbacks,
            doorbell_rings: 0,
            wake_immediate: 0,
            wake_spins: 0,
            wake_parks: 0,
            wait_ns: 0,
            virtual_time_ns: None,
            trace_json: None,
        }
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

    /// Total pull keys.
    pub fn pull_total(&self) -> u64 {
        self.pull_local + self.pull_queued + self.pull_remote + self.pull_replica
    }

    /// Pull keys that never crossed the network.
    pub fn pull_local_total(&self) -> u64 {
        self.pull_local + self.pull_queued + self.pull_replica
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lapse_net::NodeId;
    use lapse_proto::{Layout, ProtoConfig};

    /// `collect` sums each counter over the lanes of every node and
    /// reports it under its own name — including the one that is renamed
    /// on the way (`handovers`).
    #[test]
    fn collect_sums_lanes_across_nodes_under_the_right_names() {
        let cfg = Arc::new(ProtoConfig::new(2, 8, Layout::Uniform(1)));
        let nodes: Vec<_> = (0..2)
            .map(|n| NodeShared::new(cfg.clone(), NodeId(n), Arc::new(|| 0)))
            .collect();
        for (n, node) in nodes.iter().enumerate() {
            for lane in [node.claim_lane(), node.claim_lane()] {
                lane.pull_local.add(1 + n as u64);
                lane.handovers_in.add(10);
                lane.value_allocs_heap.add(100);
                lane.snapshot_fallbacks.add(1000);
            }
        }
        let s = ClusterStats::collect(&nodes);
        assert_eq!(s.pull_local, 2 * (1 + 2));
        assert_eq!(s.handovers, 40);
        assert_eq!(s.value_allocs_heap, 400);
        assert_eq!(s.snapshot_fallbacks, 4000);
        assert_eq!((s.pull_total(), s.pull_remote, s.messages), (6, 0, 0));
        // The runtime's own counters are not the lanes': `collect` leaves
        // them zero (the simulator's values) and `run_threaded` fills
        // them in (their names are tested beside `WakeCell::report`).
        let waits = (s.wake_immediate, s.wake_spins, s.wake_parks, s.wait_ns);
        assert_eq!((s.doorbell_rings, waits), (0, (0, 0, 0, 0)));
    }
}
