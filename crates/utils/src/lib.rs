//! Shared utilities for the Lapse reproduction.
//!
//! This crate collects the small, dependency-light building blocks used by
//! every other crate in the workspace:
//!
//! * [`rng`] — seeded random-number helpers with deterministic stream
//!   splitting, so every experiment is reproducible from a single seed.
//! * [`zipf`] — a Zipf(α) sampler (rejection inversion) used to model the
//!   skewed key-access distributions of word-vector training.
//! * [`alias`] — Walker's alias method for O(1) sampling from arbitrary
//!   discrete distributions (negative-sampling tables).
//! * [`stats`] — online statistics, percentiles, and log-scale histograms
//!   used by the experiment harness and the simulator's metric collection.
//! * [`table`] — plain-text table and series rendering for the experiment
//!   binaries that regenerate the paper's tables and figures.
//! * [`metrics`] — the empty handle `ThreadedNet`'s constructors still
//!   take (the registry behind it is gone).
//! * [`fmt`] — human-readable formatting of durations, byte counts, and
//!   rates.

pub mod alias;
pub mod fmt;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod table;
pub mod zipf;
