//! City-scale JMB: a grid of interfering cells with frequency reuse.
//!
//! One [`jmb_core::fastnet::FastNet`] is one *cell* — a lead AP, its
//! slaves, and the clients they jointly beamform to, all inside one room.
//! A deployment that serves a city is many such cells on a plan: this crate
//! lays them out on a rectangular grid ([`Grid`]), assigns each a
//! frequency-reuse color ([`Reuse`] 1, 3, or 7), couples co-channel cells
//! through distance-based path loss (each cell's aggregate out-of-cell
//! leakage is folded into its per-subcarrier noise floor via
//! `FastNet::set_external_interference`, so the EESM rate selection and
//! SINRs honor it), and runs every cell's
//! traffic event loop as an independent shard.
//!
//! # Determinism contract
//!
//! The whole city run is byte-reproducible and parallelism-invariant:
//!
//! - every cell derives its RNG streams from `(seed, cell index)` only, so
//!   a cell's outcome never depends on which worker thread ran it;
//! - shards are dispatched through `jmb_core::experiment::parallel_map`,
//!   which collects results in cell-index order at every `--threads`;
//! - inter-cell coupling is a fixed, deterministic sequence of epochs
//!   (epoch 0 runs clean, each later epoch re-runs every cell under the
//!   interference computed from the previous epoch's airtime utilization)
//!   rather than a shared-state feedback loop, so there is no cross-thread
//!   communication to order;
//! - per-cell registries are merged in cell-index order through the
//!   registry's deterministic `merge`, and per-cell metrics pool through
//!   `TrafficMetrics::merge`.
//!
//! Per-cluster lead APs stay the sync anchor of their own cell (the
//! Rogalin-style hierarchy: intra-cell sync is the paper's lead/slave
//! protocol with its 0.35 rad budget; cells only couple through
//! interference power, never through phase).

#![warn(missing_docs)]

pub mod city;
pub mod grid;

pub use city::{CellOutcome, City, CityConfig, CityReport};
pub use grid::{Grid, Reuse};
