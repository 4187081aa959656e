//! # jmb — joint multi-user beamforming across distributed access points
//!
//! A from-scratch Rust reproduction of **"JMB: Scaling Wireless Capacity
//! with User Demands"** (Rahul, Kumar, Katabi — SIGCOMM 2012, also known by
//! its system name *MegaMIMO*): a wireless LAN architecture in which
//! independent APs — each with its own free-running oscillator — transmit
//! *concurrently on the same channel* to multiple clients, as if they were
//! one large MIMO transmitter. Network throughput then scales with the
//! number of APs instead of being capped by a single transmitter.
//!
//! The hard part, and the paper's core contribution, is **distributed phase
//! synchronization**: slave APs measure the lead AP's channel from a short
//! sync header before every joint transmission, turning phase alignment
//! into a *direct measurement* instead of an error-accumulating
//! frequency-offset extrapolation.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`dsp`] — complex arithmetic, FFT, complex linear algebra, statistics;
//! * [`phy`] — an 802.11-style OFDM PHY (modulation, convolutional coding,
//!   Viterbi, interleaving, sync, channel estimation, framing, rate tables);
//! * [`channel`] — oscillators, multipath fading, path loss, conference-room
//!   topologies (the substitution for the paper's USRP2 testbed);
//! * [`sim`] — the simulated radio medium, at sample-level and
//!   per-subcarrier fidelities;
//! * [`core`] — JMB itself: phase sync, joint beamforming, the measurement
//!   protocol, the link layer, 802.11n compatibility, the baselines, and
//!   the experiment harness that regenerates every figure of the paper;
//! * [`traffic`] — the discrete-event traffic subsystem: per-client offered
//!   load, queueing and latency through the shared downlink queue, and AP
//!   failover, over either PHY fidelity;
//! * [`obs`] — observability: the structured trace pipeline (events, sinks,
//!   the `TraceQuery` replay/assertion API), the metrics registry, and
//!   wall-clock spans. Also re-exported through [`sim`];
//! * [`city`] — the city scale: a sharded grid of hundreds of cells with
//!   frequency-reuse coloring and inter-cell interference coupling, pooled
//!   deterministically across worker threads.
//!
//! ## Quickstart
//!
//! ```
//! use jmb::prelude::*;
//!
//! // Two independent APs, two single-antenna clients, 22 dB SNR band.
//! let cfg = NetConfig::default_with(2, 2, 22.0, 42);
//! let mut net = JmbNetwork::new(cfg).unwrap();
//!
//! // Channel-measurement phase (§5.1), then let the oscillators drift.
//! net.run_measurement().unwrap();
//! net.advance(2e-3);
//!
//! // One joint transmission: both packets delivered concurrently.
//! let payloads = vec![b"to client zero".to_vec(), b"to client one!".to_vec()];
//! let results = net.joint_transmit(&payloads, Mcs::ALL[2], true).unwrap();
//! for (client, r) in results.iter().enumerate() {
//!     assert_eq!(r.as_ref().unwrap().payload, payloads[client]);
//! }
//! ```
//!
//! See `examples/` for richer scenarios and `crates/bench` for the figure
//! regeneration harness; DESIGN.md maps every paper experiment to code.

#![warn(missing_docs)]

/// README.md's Rust examples, compiled by `cargo test` as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use jmb_channel as channel;
pub use jmb_city as city;
pub use jmb_core as core;
pub use jmb_dsp as dsp;
pub use jmb_obs as obs;
pub use jmb_phy as phy;
pub use jmb_sim as sim;
pub use jmb_traffic as traffic;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use jmb_channel::{Link, Multipath, MultipathSpec, OscillatorSpec, SnrBand};
    pub use jmb_city::{City, CityConfig, CityReport, Grid, Reuse};
    pub use jmb_core::baseline;
    pub use jmb_core::compat::{CompatConfig, CompatNet};
    pub use jmb_core::experiment;
    pub use jmb_core::fastnet::{FastConfig, FastNet};
    pub use jmb_core::mac::{JmbMac, MacConfig};
    pub use jmb_core::net::{JmbNetwork, NetConfig};
    pub use jmb_core::{JmbError, PhaseSync, Precoder};
    pub use jmb_dsp::{CMat, Complex64};
    pub use jmb_phy::rates::Mcs;
    pub use jmb_phy::{ChannelProfile, OfdmParams};
    pub use jmb_sim::{Medium, SubcarrierMedium};
    pub use jmb_traffic::{
        ApOutage, ArrivalProcess, ClientLoad, FastBackend, PacketSizeDist, SampleBackend,
        TrafficConfig, TrafficMetrics, TrafficSim, TransmitBackend,
    };
}
