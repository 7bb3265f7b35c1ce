//! Sans-io protocol core of the Lapse parameter server.
//!
//! This crate implements the complete protocol of Section 3 of the paper —
//! dynamic parameter allocation with home-node location management, the
//! three-message relocation protocol, forward routing, optional location
//! caches with double-forwarding, message grouping, and latched
//! shared-memory local access — as **pure logic with no I/O**. Two drivers
//! execute it:
//!
//! * the threaded runtime in `lapse-core` (real server threads, real
//!   channels), and
//! * the discrete-event simulator in `lapse-sim` (virtual time).
//!
//! Because the logic is sans-io, protocol races (operations racing
//! relocations, localization conflicts, stale location caches) are tested
//! deterministically by delivering messages by hand in a chosen order.
//!
//! Module map:
//!
//! * [`config`] — protocol configuration: PS variant, key space, home
//!   ranges, latch count, feature flags; the one place that says what a
//!   variant means (shared-memory access, which keys relocate, which are
//!   statically replicated).
//! * [`layout`] — per-key value lengths (uniform / two-tier / per-key).
//! * [`messages`] — the wire protocol: operations, responses, relocation
//!   messages; wire sizes and codec.
//! * [`storage`] — the per-shard parameter store: one slot per key,
//!   holding the value a node owns or replicates.
//! * [`shard`] — the latched shared node state: store shards, in-flight
//!   relocation queues, location caches.
//! * [`tracker`] — client-side operation tracker (per-key completion,
//!   result assembly, wake callbacks).
//! * [`client`] — operation issue paths (fast local access, per-key
//!   routing by residency byte, grouping); shared by every backend worker
//!   handle.
//! * [`coalesce`] — per-destination batching of emit-phase sinks into
//!   [`Msg::Batch`](messages::Msg) envelopes (threaded backend only).
//! * [`server`] — the per-node server logic: op routing and forwarding,
//!   relocation handling, queue draining.
//! * [`serving`] — the snapshot serving plane: epoch-pinned local
//!   reads for inference traffic (threaded backend only).
//! * [`adaptive`] — online access statistics (space-saving sketch) and
//!   the controller that drives runtime technique transitions under
//!   [`Variant::Adaptive`](config::Variant).
//! * [`keymap`] — the lookup-only hash map the protocol state keys by.
//! * [`consistency`] — sequential-consistency witnesses used by tests and
//!   the Table 1 experiment.
//! * [`strategies`] — the four location-management strategies of Table 3
//!   in isolation, for the Table 3 experiment.

pub mod adaptive;
pub mod client;
pub mod coalesce;
pub mod config;
pub mod consistency;
pub mod group;
pub mod keymap;
pub mod layout;
pub mod messages;
pub mod server;
pub mod serving;
pub mod shard;
pub mod storage;
pub mod strategies;
pub mod testkit;
pub mod tracker;

/// What each [`Variant`] means per key: [`ProtoConfig`]'s three
/// predicates, and the replica shards [`NodeShared`] derives from them.
#[cfg(test)]
#[path = "technique_tests.rs"]
mod technique;

pub use config::{AdaptiveConfig, ConfigError, HotSet, ProtoConfig, Variant};
pub use layout::Layout;
pub use messages::{Msg, OpId, OpKind};
pub use serving::{SnapshotRead, SnapshotReader, SnapshotTier};
pub use shard::NodeShared;
