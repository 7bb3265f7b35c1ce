//! The six invariant passes.

pub mod batch_nesting;
pub mod determinism;
pub mod locks;
pub mod seqlock;
pub mod wire_consts;
pub mod wire_schema;
