//! The snapshot serving plane: epoch-versioned wait-free local reads.
//!
//! The protocol path (plan → shard → emit, tracker, latches) is built
//! for training operations; inference traffic is read-mostly and cares
//! about tail latency, not update semantics. This module serves it from
//! the state the node already holds — the owned store and the
//! replication tier (NuPS, PAPERS.md) — with **no latch, no tracker
//! entry, and no message**: a [`SnapshotReader`] copies values under the
//! PR 7 seqlock protocol and pins every read to a **serving epoch**.
//!
//! ## Epoch publication
//!
//! The node's [`ServingState`] publishes two monotone counters:
//!
//! * the **serving epoch**, ticked at every `advance_clock` propagation
//!   tick ([`ClientCore::flush_replicas`](crate::client::ClientCore));
//!   per-shard write commits additionally advance the
//!   [`ShardCell::generation`](crate::shard::ShardCell) counter at every
//!   write-guard drop, which validates the copies themselves;
//! * the **replica epoch**, stamped to the then-current serving epoch
//!   whenever a [`ReplicaRefresh`](crate::messages::Msg) installs owner
//!   state into the local replica tier (and kept current trivially when
//!   the variant replicates nothing).
//!
//! ## Bounded staleness
//!
//! Replica-tier reads are allowed to lag the owners — that is the
//! replication technique's design — but a serving plane needs a bound.
//! `MAX_STALENESS_EPOCHS` is that DSSP-style bound: when
//! `serving_epoch - replica_epoch` exceeds it, the reader first waits
//! (bounded, latch-free) for a refresh to land, then falls back to the
//! latched read path, which always serves the freshest local view.
//! Owned-tier reads are never stale: the owner's store *is* the truth.
//!
//! ## Determinism
//!
//! The snapshot plane is threaded-backend only: `run_sim` forces
//! `ProtoConfig::snapshot_reads` off (like `wait_free_reads`), so
//! simulator schedules and outputs stay bit-identical. Reads are
//! wait-free and side-effect free (counters aside),
//! so enabling the plane never changes protocol state or results — the
//! property the `micro_serving` smoke mode pins down.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lapse_net::Key;
use lapse_trace::{EventKind, Recorder, Ring, ACTOR_SERVING};

use crate::shard::{AccessLane, NodeShared, OptRead};

/// Spin iterations a stale replica-tier read waits for a refresh before
/// falling back to the latched path. Latch-free and bounded: the wait
/// must never turn a wait-free read into an unbounded stall.
const STALE_WAIT_SPINS: usize = 64;

/// Epochs a replica-tier read may lag the node's serving epoch and still
/// be served wait-free; beyond it the reader waits for a refresh and
/// then falls back to the latched path. Owned-tier reads are never stale.
const MAX_STALENESS_EPOCHS: u64 = 64;

/// Node-local serving-epoch publication (one per [`NodeShared`]), in a
/// block of its own: workers tick it and the server stamps it, while
/// every snapshot read loads the read-only header beside it.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct ServingState {
    /// Serving epoch: advances at every propagation tick.
    epoch: AtomicU64,
    /// Serving epoch as of the last replica-tier refresh.
    replica_epoch: AtomicU64,
}

impl ServingState {
    /// Current serving epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Serving epoch as of the last replica-tier refresh.
    #[inline]
    pub fn replica_epoch(&self) -> u64 {
        self.replica_epoch.load(Ordering::Acquire)
    }

    /// Ticks the serving epoch (one `advance_clock` propagation tick).
    /// `replica_current` marks the replica tier as up to date as of the
    /// new epoch — set by variants that replicate nothing, whose replica
    /// tier is vacuously fresh.
    pub fn tick(&self, replica_current: bool) {
        let e = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        if replica_current {
            self.replica_epoch.fetch_max(e, Ordering::AcqRel);
        }
    }

    /// Stamps the replica tier as refreshed at the current epoch (called
    /// by the server when a `ReplicaRefresh` installs owner state).
    pub fn note_refresh(&self) {
        let e = self.epoch.load(Ordering::Acquire);
        self.replica_epoch.fetch_max(e, Ordering::AcqRel);
    }

    /// How many epochs the replica tier lags the serving epoch.
    #[inline]
    pub fn replica_lag(&self) -> u64 {
        self.epoch().saturating_sub(self.replica_epoch())
    }
}

/// Which path served a snapshot read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotTier {
    /// Wait-free copy out of the owned store.
    Owned,
    /// Wait-free copy out of the replica tier (within the staleness
    /// bound).
    Replica,
    /// Latched fallback (stale replica view, seqlock contention, or a
    /// shard state the racy path cannot serve).
    Latched,
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

/// A latch-free, tracker-free, message-free reader of locally held keys.
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
    trace: Option<(Arc<Recorder>, Arc<Ring>)>,
}

impl SnapshotReader {
    /// A reader over `shared`.
    pub fn new(shared: Arc<NodeShared>) -> Self {
        let trace = shared.trace.on().then(|| {
            let ring = shared.trace.lane(
                shared.node.0,
                ACTOR_SERVING,
                format!("n{}/serving", shared.node.0),
            );
            (Arc::clone(&shared.trace), ring)
        });
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

    /// Reads `key`'s local value into `out` without latching, tracking,
    /// or messaging; returns the pinned epoch and serving tier, or
    /// [`None`] when the key is not locally readable (owned elsewhere
    /// and not replicated here — protocol-path territory).
    ///
    /// The returned epoch never decreases across the reads of one
    /// reader, and the copied floats are a seqlock-validated consistent
    /// snapshot (never torn, never a partially applied refresh).
    ///
    /// # Panics
    /// Panics, with `out` untouched, if `out.len()` is not the length of
    /// `key`'s value — on the wait-free path and the latched one alike.
    pub fn read(&mut self, key: Key, out: &mut [f32]) -> Option<SnapshotRead> {
        let shared = &self.shared;
        if !shared.cfg.snapshot_reads || !shared.cfg.policy().shared_memory() {
            return self.read_latched(key, out);
        }
        match shared.optimistic_read_raw(key, out) {
            Some(OptRead::Owned) => {
                self.lane.snapshot_reads.add(1);
                return Some(self.pin(SnapshotTier::Owned, key));
            }
            Some(OptRead::Replica) => {
                if shared.serving.replica_lag() <= MAX_STALENESS_EPOCHS {
                    self.lane.snapshot_reads.add(1);
                    return Some(self.pin(SnapshotTier::Replica, key));
                }
                // Too stale: wait (bounded, latch-free) for a refresh to
                // land, re-serving wait-free if it does.
                self.lane.snapshot_stale_waits.add(1);
                for _ in 0..STALE_WAIT_SPINS {
                    std::hint::spin_loop();
                    if shared.serving.replica_lag() <= MAX_STALENESS_EPOCHS {
                        match shared.optimistic_read_raw(key, out) {
                            Some(OptRead::Owned) => {
                                self.lane.snapshot_reads.add(1);
                                return Some(self.pin(SnapshotTier::Owned, key));
                            }
                            Some(OptRead::Replica) => {
                                self.lane.snapshot_reads.add(1);
                                return Some(self.pin(SnapshotTier::Replica, key));
                            }
                            _ => {}
                        }
                        break;
                    }
                }
            }
            Some(OptRead::Absent) => return None,
            None => {}
        }
        self.read_latched(key, out)
    }

    /// The latched fallback: the freshest local view, under the shard
    /// latch ([`NodeShared::latched_read`], as `pull_if_local`).
    fn read_latched(&mut self, key: Key, out: &mut [f32]) -> Option<SnapshotRead> {
        self.lane.snapshot_fallbacks.add(1);
        let held = self.shared.latched_read(key, out) != OptRead::Absent;
        held.then(|| self.pin(SnapshotTier::Latched, key))
    }

    /// Pins the read to the current serving epoch, monotone per reader.
    fn pin(&mut self, tier: SnapshotTier, key: Key) -> SnapshotRead {
        self.last_epoch = self.last_epoch.max(self.shared.serving.epoch());
        if let Some((rec, ring)) = &self.trace {
            let t = match tier {
                SnapshotTier::Owned => 0,
                SnapshotTier::Replica => 1,
                SnapshotTier::Latched => 2,
            };
            rec.record(ring, EventKind::SnapshotRead, t, key.0);
        }
        SnapshotRead {
            epoch: self.last_epoch,
            tier,
        }
    }
}
