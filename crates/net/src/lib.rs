//! Network substrate for the Lapse reproduction.
//!
//! The paper's consistency results (Section 3.4) rest on one property of
//! the network layer: **messages between a pair of nodes are delivered in
//! the order they were sent** (PS-Lite and Lapse achieve this by sending a
//! thread's operations over a single TCP connection). Everything in this
//! crate preserves that per-link FIFO property.
//!
//! Contents:
//!
//! * [`id`] — node and worker identities, key type.
//! * [`block`] — [`block::ValueBlock`], the shared contiguous value
//!   payload of the value-carrying messages (zero-copy decode, refcounted
//!   broadcast).
//! * [`wire`] — the [`wire::WireSize`] trait and envelope overhead model
//!   used by the simulator's bandwidth accounting.
//! * [`codec`] — length-prefixed binary encoding helpers plus the
//!   [`codec::WireCodec`] trait; protocol crates implement it for their
//!   message types so the wire format is testable end to end.
//! * [`transport`] — the threaded transport: per-destination channels with
//!   per-link FIFO delivery (it counts nothing), plus an optional
//!   delay-injection hook used by failure-injection tests.

pub mod block;
pub mod codec;
pub mod id;
pub mod transport;
pub mod wire;

pub use block::{ValueBlock, ValueBlockBuilder};
pub use id::{Key, NodeId, WorkerId};
pub use transport::{Endpoint, ThreadedNet};
pub use wire::WireSize;
