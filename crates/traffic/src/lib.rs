//! Discrete-event traffic subsystem for JMB networks.
//!
//! Everything upstream of the PHY: per-client offered load
//! ([`ArrivalProcess`], [`PacketSizeDist`]), the shared downlink queue and
//! §9 link layer driven as a seeded event loop ([`TrafficSim`]), AP
//! failure/recovery schedules ([`ApOutage`]), and the resulting
//! goodput/latency/fairness record ([`TrafficMetrics`]).
//!
//! The PHY plugs in through [`TransmitBackend`], which [`Backend`]
//! implements once over either fidelity: [`FastBackend`] for
//! per-subcarrier sweeps, [`SampleBackend`] for full sample-level
//! validation (real OFDM frames, real CRCs, fault injection).

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros
    )
)]

pub mod arrival;
pub mod backend;
pub mod metrics;
pub mod sim;

pub use arrival::{ArrivalGen, ArrivalProcess, PacketSizeDist};
pub use backend::{Backend, ControlInfo, FastBackend, SampleBackend, TransmitBackend, TxReport};
pub use metrics::{TimelineBin, TrafficMetrics};
pub use sim::{ApOutage, BoundedRun, ClientLoad, RunLimits, TrafficConfig, TrafficSim};
