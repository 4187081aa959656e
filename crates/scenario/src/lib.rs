//! # jmb-scenario — declarative, assertion-gated headless runs
//!
//! A scenario is a small text manifest describing one complete robustness
//! experiment: a topology (single cell or city grid), a channel backend, a
//! traffic mix, a fault schedule (loss storms, AP outages), resource
//! limits, and a set of pass/fail assertions over the run's metrics and
//! event trace. The `jmb-scenario run` binary executes a manifest headless
//! and emits a machine-readable `result.json` plus the full JSONL trace,
//! exiting with a standardized code so CI can gate on a checked-in corpus
//! (`scenarios/*.scn`) without any bespoke glue per experiment.
//!
//! The shape follows lab-protocol runners (versioned declarative input,
//! limits, assertions, stable artifacts): everything a run needs is in the
//! manifest, nothing about the outcome depends on the host — same manifest
//! + same seed ⇒ byte-identical `result.json`, across runs and `--threads`.
//!
//! Exit codes are part of the contract:
//!
//! | code | meaning |
//! |------|---------|
//! | [`EXIT_PASS`] (0) | every assertion held |
//! | [`EXIT_ASSERTION`] (1) | the run completed but an assertion failed |
//! | [`EXIT_INVALID`] (2) | the manifest (or CLI) is invalid |
//! | [`EXIT_LIMIT`] (3) | a resource limit stopped the run early |
//!
//! All limit and fault terminations flow through typed errors and
//! [`report::Verdict`] values — the runner never panics, so the repo's
//! hot-path lint covers this crate too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assertion;
pub mod error;
pub mod manifest;
pub mod report;
pub mod runner;

pub use assertion::{Assertion, AssertionOutcome, Op};
pub use error::ScenarioError;
pub use manifest::{Backend, FaultSpec, Limits, Manifest, Topology, TrafficSpec};
pub use report::{ScenarioReport, Verdict};
pub use runner::{run_manifest, RunOptions, RunOutput};

pub use jmb_obs::SyncStrategyId;

/// Every assertion held.
pub const EXIT_PASS: i32 = 0;
/// The run completed but at least one assertion failed.
pub const EXIT_ASSERTION: i32 = 1;
/// The manifest (or the CLI invocation) is invalid.
pub const EXIT_INVALID: i32 = 2;
/// A resource limit stopped the run before it completed.
pub const EXIT_LIMIT: i32 = 3;
