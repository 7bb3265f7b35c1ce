//! The three invariant passes.

pub mod batch_nesting;
pub mod determinism;
pub mod locks;
