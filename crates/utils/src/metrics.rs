//! What is left of the counter registry.
//!
//! Message and access counts live where they are written: per-link in
//! `ThreadedNet`, per-lane in the protocol's `AccessLane`s, and
//! `ClusterStats` reads both. Nothing has written to this registry since
//! then; only the handle remains, because `ThreadedNet`'s constructors
//! take one and the frozen `benchmark/` package passes it. The parameter
//! and this type go with the next `benchmark` PR.

/// An empty handle; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Metrics;

impl Metrics {
    /// The handle.
    pub fn new() -> Self {
        Metrics
    }
}
