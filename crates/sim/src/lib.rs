//! # jmb-sim — the simulated radio medium
//!
//! A deterministic, discrete-event complex-baseband radio simulator. It is
//! the stand-in for "the air" in the paper's testbed, at two fidelities:
//!
//! * [`medium::Medium`] — **sample-level**: every transmitted waveform is
//!   resampled onto the receiver's (offset) sample clock, convolved with its
//!   multipath taps, rotated by the instantaneous phase difference of the two
//!   endpoints' oscillators, superposed with every other concurrent waveform,
//!   and drowned in AWGN. Nothing about OFDM is assumed — which is exactly
//!   why decoding success here is evidence the protocol works.
//! * [`freq::SubcarrierMedium`] — **per-subcarrier**: channels are complex
//!   gains per occupied subcarrier and oscillator phases advance per OFDM
//!   symbol. It transports 64-bin symbol vectors directly. Orders of
//!   magnitude faster; used for the large throughput sweeps (Figs. 8–13)
//!   and cross-validated against the sample-level medium in tests.
//!
//! Fault injection (packet drops, noise bursts — in the spirit of smoltcp's
//! example fault options) lives in [`fault`]; events go to the
//! workspace-wide [`jmb_obs`] trace.
//!
//! Determinism: the medium owns one RNG (for noise and faults); node
//! oscillators own theirs. Same seeds ⇒ same waveforms, bit for bit.

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

pub mod fault;
pub mod freq;
pub mod medium;

pub use fault::{
    ControlFaults, FaultConfig, FaultConfigBuilder, FaultError, FaultSchedule, FaultWindow,
};
pub use freq::SubcarrierMedium;
pub use medium::{Medium, NodeId, Transmission};
