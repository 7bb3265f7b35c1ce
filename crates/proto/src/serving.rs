//! The snapshot serving plane: epoch-pinned local reads.
//!
//! Inference traffic is read-mostly and cares about tail latency, not
//! update semantics, so it skips the protocol path (the in-order walk,
//! the tracker, messages). A [`SnapshotReader`] serves the keys the node
//! holds — owned, or replicated here (NuPS, PAPERS.md) — through the
//! node's one local read, [`NodeShared::read_local`], and pins every read
//! to the node's **serving epoch** ([`ServingState`]), which ticks at
//! every `advance_clock` propagation tick
//! ([`ClientCore::flush_replicas`](crate::client::ClientCore)). A
//! replica-tier read serves what a trainer's pull of the key would: the
//! last refresh plus the node's unacknowledged deltas.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lapse_net::Key;
use lapse_trace::{EventKind, Tracer, ACTOR_SERVING};

use crate::shard::{AccessLane, LocalRead, NodeShared, OptRead};

/// Node-local serving-epoch publication (one per [`NodeShared`]), in a
/// block of its own: workers tick it, while every snapshot read loads
/// the read-only header beside it.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct ServingState {
    /// Serving epoch: advances at every propagation tick.
    epoch: AtomicU64,
}

impl ServingState {
    /// Current serving epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Ticks the serving epoch (one `advance_clock` propagation tick).
    pub fn tick(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }
}

/// Which path served a snapshot read (its number is the trace's
/// `snapshot.read` argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotTier {
    /// Wait-free copy out of the owned store.
    Owned = 0,
    /// Wait-free copy out of the replica tier.
    Replica = 1,
    /// Latched fallback (the wait-free gate closed, seqlock contention,
    /// or a replica with deltas the racy path cannot add).
    Latched = 2,
}

/// One completed snapshot read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotRead {
    /// The serving epoch the read is pinned to — non-decreasing across
    /// the reads of one [`SnapshotReader`].
    pub epoch: u64,
    /// The path that served it.
    pub tier: SnapshotTier,
}

/// A tracker-free, message-free reader of locally held keys.
///
/// One instance per serving thread (readers are independent; the epoch
/// monotonicity guarantee is per reader). [`SnapshotReader::read`]
/// serves owned keys and replica-tier keys; keys held on other nodes are
/// reported as [`None`] — the serving plane never generates traffic, so
/// remote keys belong to the protocol path (`pull`).
pub struct SnapshotReader {
    shared: Arc<NodeShared>,
    /// This reader's counters (`&mut self` reads: one writer).
    lane: Arc<AccessLane>,
    last_epoch: u64,
    /// Flight-recorder lane for this reader (`None` when tracing is off).
    trace: Option<Tracer>,
}

impl SnapshotReader {
    /// A reader over `shared`.
    pub fn new(shared: Arc<NodeShared>) -> Self {
        let trace = shared.trace.tracer(
            shared.node.0,
            ACTOR_SERVING,
            format!("n{}/serving", shared.node.0),
        );
        SnapshotReader {
            lane: shared.claim_lane(),
            shared,
            last_epoch: 0,
            trace,
        }
    }

    /// The epoch of the latest read (0 before the first).
    pub fn epoch(&self) -> u64 {
        self.last_epoch
    }

    /// The counter lane this reader writes.
    pub fn lane(&self) -> &AccessLane {
        &self.lane
    }

    /// Reads `key`'s local value into `out` without tracking or
    /// messaging; returns the pinned epoch and serving tier, or [`None`]
    /// when the key is not locally readable (owned elsewhere and not
    /// replicated here — protocol-path territory).
    ///
    /// The returned epoch never decreases across the reads of one
    /// reader, and the copied floats are a consistent snapshot (never
    /// torn, never a partially applied refresh).
    ///
    /// # Panics
    /// As [`NodeShared::read_local`]: with `out` untouched, on a key
    /// outside the key space or an `out` of the wrong length.
    pub fn read(&mut self, key: Key, out: &mut [f32]) -> Option<SnapshotRead> {
        let LocalRead { tier, wait_free } = self.shared.read_local(key, out);
        // A latched read is a fallback whether or not it found the key.
        let (counter, served) = match (wait_free, tier) {
            (true, OptRead::Absent) => return None,
            (true, OptRead::Owned) => (&self.lane.snapshot_reads, SnapshotTier::Owned),
            (true, OptRead::Replica) => (&self.lane.snapshot_reads, SnapshotTier::Replica),
            (false, _) => (&self.lane.snapshot_fallbacks, SnapshotTier::Latched),
        };
        counter.add(1);
        (tier != OptRead::Absent).then(|| self.pin(served, key))
    }

    /// Pins the read to the current serving epoch, monotone per reader.
    fn pin(&mut self, tier: SnapshotTier, key: Key) -> SnapshotRead {
        self.last_epoch = self.last_epoch.max(self.shared.serving.epoch());
        if let Some(t) = &self.trace {
            t.record(EventKind::SnapshotRead, tier as u64, key.0);
        }
        SnapshotRead {
            epoch: self.last_epoch,
            tier,
        }
    }
}
