//! # jmb-channel — RF environment models
//!
//! Everything between the DACs of the APs and the ADCs of the clients, as a
//! software model. This crate is the substitution for the paper's physical
//! testbed (USRP2 radios in a conference room, §10):
//!
//! * [`oscillator`] — per-device free-running clock: carrier/sampling
//!   frequency offset drawn in ppm, Wiener phase noise, slow drift. This is
//!   the adversary JMB's distributed phase synchronization must defeat.
//! * [`multipath`] — tapped-delay-line Rayleigh/Rician fading with an
//!   exponential power-delay profile and Gauss–Markov time evolution
//!   (coherence times of hundreds of ms, as the paper assumes in §5).
//! * [`pathloss`] — log-distance path loss with shadowing, plus noise-floor
//!   and SNR arithmetic.
//! * [`topology`] — conference-room node placement (paper Fig. 5) and the
//!   low/medium/high SNR bands of the evaluation (§11).
//! * [`link`] — one directional AP↔client or AP↔AP channel bundling all of
//!   the above.
//!
//! All randomness flows through explicit RNGs (see [`jmb_dsp::rng`]), so a
//! topology draw or a fading realisation is reproducible from its seed.

#![warn(missing_docs)]

pub mod link;
pub mod multipath;
pub mod oscillator;
pub mod pathloss;
pub mod topology;

pub use link::Link;
pub use multipath::{Multipath, MultipathSpec};
pub use oscillator::{OscillatorSpec, PhaseInterval, PhaseTrajectory};
pub use topology::{Position, SnrBand, Topology};
