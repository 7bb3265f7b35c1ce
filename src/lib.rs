//! # lapse — Dynamic Parameter Allocation in Parameter Servers
//!
//! A from-scratch Rust reproduction of *Renz-Wieland et al., "Dynamic
//! Parameter Allocation in Parameter Servers", VLDB 2020*: a parameter
//! server (PS) that can **relocate parameters between nodes at runtime**
//! while preserving classic-PS sequential consistency, so distributed
//! training algorithms can exploit parameter access locality (data
//! clustering, parameter blocking, latency hiding).
//!
//! This umbrella crate re-exports the workspace's public API. The pieces:
//!
//! * [`core`] ([`lapse_core`]) — the PS itself: the [`core::PsWorker`]
//!   programming model (`pull` / `push` / `localize`), the threaded
//!   in-process runtime, and the discrete-event simulation backend used
//!   by the experiment suite.
//! * [`proto`] ([`lapse_proto`]) — the sans-io protocol: home-node
//!   location management, the three-message relocation protocol,
//!   forward/double-forward routing, location caches, message grouping.
//! * [`sim`] ([`lapse_sim`]) — the virtual-time cluster simulator.
//! * [`ssp`] ([`lapse_ssp`]) — a Petuum-like stale (SSP) parameter
//!   server baseline.
//! * [`lowlevel`] ([`lapse_lowlevel`]) — the hand-tuned matrix-
//!   factorization comparator with direct block transfers.
//! * [`ml`] ([`lapse_ml`]) — the paper's workloads: matrix factorization
//!   (DSGD parameter blocking), knowledge-graph embeddings (RESCAL,
//!   ComplEx), and word vectors (skip-gram with negative sampling).
//!
//! ## Quickstart
//!
//! ```
//! use lapse::core::{run_threaded, PsConfig, PsWorker};
//! use lapse::Key;
//!
//! // 2 nodes × 2 workers in this process; 16 keys of 4 floats each.
//! let (results, stats) = run_threaded(
//!     PsConfig::new(2, 16, 4),
//!     2,
//!     |_| None, // zero-initialize
//!     |w| {
//!         let keys = [Key(3), Key(12)];
//!         w.localize(&keys);             // relocate them to this node
//!         w.push(&keys, &[1.0; 8]);      // cumulative update
//!         w.barrier();
//!         let mut buf = [0.0f32; 8];
//!         w.pull(&keys, &mut buf);       // served from local memory
//!         buf[0]
//!     },
//! );
//! assert!(results.iter().all(|&v| v == 4.0)); // 4 workers pushed 1.0
//! assert_eq!(stats.unexpected_relocates, 0);
//! ```

pub use lapse_core as core;
pub use lapse_lowlevel as lowlevel;
pub use lapse_ml as ml;
pub use lapse_net as net;
pub use lapse_proto as proto;
pub use lapse_sim as sim;
pub use lapse_ssp as ssp;
pub use lapse_utils as utils;

pub use lapse_core::{
    run_sim, run_threaded, ClusterStats, CostModel, OpToken, PsConfig, PsWorker, Variant,
};
pub use lapse_net::{Key, NodeId, WorkerId};
pub use lapse_proto::{AdaptiveConfig, HotSet, Layout, ProtoConfig};

/// Selects the PS variant from the `LAPSE_VARIANT` environment variable,
/// falling back to `default` when unset. Accepted values: `classic`,
/// `classic_fast`, `lapse`, `replication`, `hybrid`, `adaptive`
/// (case-insensitive). Every example reads this, so any variant —
/// including the adaptive one — is runnable without editing code, e.g.
/// `LAPSE_VARIANT=adaptive cargo run --release --example quickstart`.
///
/// # Panics
/// Panics on an unrecognized value, listing the accepted names (typos
/// should fail loudly, not silently fall back).
pub fn variant_from_env(default: Variant) -> Variant {
    match std::env::var("LAPSE_VARIANT") {
        Err(_) => default,
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "classic" => Variant::Classic,
            "classic_fast" | "classic-fast" | "classicfastlocal" => Variant::ClassicFastLocal,
            "lapse" => Variant::Lapse,
            "replication" => Variant::Replication,
            "hybrid" => Variant::Hybrid,
            "adaptive" => Variant::Adaptive,
            other => panic!(
                "LAPSE_VARIANT={other:?} not recognized; use one of classic, classic_fast, \
                 lapse, replication, hybrid, adaptive"
            ),
        },
    }
}
