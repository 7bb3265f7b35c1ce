//! Stale-synchronous-parallel (SSP) parameter server — the Petuum-like
//! baseline of the paper's Section 4.5.
//!
//! Architecture (Section 2.1, "stale PS"): parameters are statically
//! partitioned across servers, and each node holds a **client cache** of
//! previously accessed parameters. Reads are served from the cache while
//! its entries are fresh enough (within the staleness bound relative to
//! the reading worker's logical clock); updates accumulate in per-worker
//! buffers and are flushed to the servers by the `clock` operation.
//!
//! Two synchronization strategies, matching the paper's comparison:
//!
//! * [`SspMode::ClientSync`] (Petuum's *SSP*): a stale cache entry causes
//!   a synchronous fetch from the server.
//! * [`SspMode::ServerPush`] (Petuum's *SSPPush*): servers remember which
//!   node accessed which keys and eagerly push fresh values to those
//!   nodes after every global clock advance. The access sets are learned
//!   during the first ("warm-up") epoch.
//!
//! The implementation reuses the sans-io style of the Lapse protocol: a
//! message enum, a server handler, and a client that both backends could
//! drive — the experiment suite drives it on the simulator via
//! [`run_ssp_sim`].

pub mod client;
pub mod messages;
pub mod runner;
pub mod server;

pub use client::SspWorker;
pub use messages::SspMsg;
pub use runner::run_ssp_sim;
pub use server::{SspMode, SspServer};

/// SSP-specific configuration on top of the shared key-space layout.
#[derive(Debug, Clone)]
pub struct SspConfig {
    /// Key space, layout, partitioning (reused from the Lapse protocol
    /// configuration; the PS variant field is ignored).
    pub proto: lapse_proto::ProtoConfig,
    /// Staleness bound `s`: a read at worker clock `c` may be served from
    /// a cache entry reflecting global clock `>= c - s`.
    pub staleness: i64,
    /// Synchronization strategy.
    pub mode: SspMode,
    /// Virtual cost of a client-cache access per key. Petuum accesses its
    /// process-local cache through inter-thread queues, which the paper
    /// measured at ~6× the latency of Lapse's shared-memory access
    /// (Section 3.3).
    pub cache_access_ns: u64,
}

impl SspConfig {
    /// A default SSP setup over the given key space.
    pub fn new(proto: lapse_proto::ProtoConfig, staleness: i64, mode: SspMode) -> Self {
        SspConfig {
            proto,
            staleness,
            mode,
            cache_access_ns: 2_400,
        }
    }
}
