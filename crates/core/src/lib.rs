//! Public API of the Lapse parameter server.
//!
//! This crate ties the sans-io protocol (`lapse-proto`) to two execution
//! backends and exposes the paper's programming model (Table 2):
//!
//! * [`PsWorker`] — the worker-side handle with `pull`, `push`, and
//!   `localize` (each sync or async), `pull_if_local`, and a global
//!   barrier. Workload code is written once against this trait and runs
//!   unchanged on both backends.
//! * [`run_threaded`] — the **threaded runtime**: `w` worker threads per
//!   simulated node inside this process, connected by FIFO channels;
//!   local parameters are accessed through shared memory under latches,
//!   exactly as in Figure 2 of the paper. A node's server is a passive
//!   object driven by whichever thread sent it a message (see
//!   [`threaded::Dispatch`]), so a remote operation wakes no thread; a
//!   worker whose operation another thread is finishing polls for it
//!   briefly before it sleeps. This is the backend a downstream user
//!   embeds.
//! * [`run_sim`] — the **discrete-event backend**: the same protocol
//!   driven in virtual time by `lapse-sim`, used by the experiment suite
//!   to reproduce the paper's cluster-scaling results on a single
//!   machine.
//!
//! Which PS architecture runs — Classic (PS-Lite-like), Classic with fast
//! local access, full Lapse, NuPS-style Replication, the Hybrid of both
//! techniques, or the Adaptive variant that detects hot keys online and
//! switches techniques at runtime — is selected by
//! [`Variant`] in the [`PsConfig`]; [`ProtoConfig`] says what each variant
//! means for a key, and the key's residency byte says how it is managed now.
//!
//! ```
//! use lapse_core::{PsConfig, run_threaded, PsWorker};
//! use lapse_net::Key;
//!
//! let cfg = PsConfig::new(2, 8, 2); // 2 nodes, 8 keys, 2 floats per key
//! let (results, _stats) = run_threaded(cfg, 2, |_k| None, |w| {
//!     // Every worker adds 1.0 to key 3 and reads it back.
//!     w.push(&[Key(3)], &[1.0, 0.0]);
//!     w.barrier();
//!     let mut buf = [0.0f32; 2];
//!     w.pull(&[Key(3)], &mut buf);
//!     buf[0]
//! });
//! assert!(results.iter().all(|&v| v == 4.0)); // 2 nodes × 2 workers
//! ```

pub mod api;
pub mod cluster;
pub mod sim_backend;
pub mod stats;
pub mod threaded;
mod worker;

pub use api::{api_internals, OpToken, PsWorker};
pub use cluster::{run_sim, run_threaded, PsConfig};
pub use stats::ClusterStats;

pub use lapse_proto::{AdaptiveConfig, HotSet, Layout, ProtoConfig, Variant};
pub use lapse_sim::CostModel;
