//! # jmb-phy — an 802.11-style OFDM physical layer
//!
//! A from-scratch software implementation of the OFDM PHY that JMB's APs and
//! clients run: 64-subcarrier OFDM with 48 data subcarriers and 4 pilots,
//! BPSK/QPSK/16-QAM/64-QAM modulation, the standard K=7 (133,171)
//! convolutional code with soft-decision Viterbi decoding, the 802.11 block
//! interleaver and scrambler, standard short/long training preambles, packet
//! detection, carrier-frequency-offset estimation, least-squares channel
//! estimation with pilot phase tracking, and effective-SNR rate selection.
//!
//! The paper's USRP implementation "implement\[s\] OFDM in GNURadio, using
//! various 802.11 modulations (BPSK, 4QAM, 16QAM, and 64QAM), coding rates,
//! and choose\[s\] between them using the effective-SNR bitrate selection
//! algorithm" (§10a) — this crate is the Rust equivalent of that stack.
//!
//! Layering:
//!
//! ```text
//! frame    — full tx/rx packet chains (preamble + SIGNAL + DATA)
//!   ├── sync      — detection, timing, CFO estimation/correction
//!   ├── chanest   — LTF channel estimation, pilot phase tracking
//!   ├── ofdm      — subcarrier mapping, IFFT/FFT, cyclic prefix, equalizer
//!   ├── modulation— constellation map / soft demap
//!   ├── interleaver, convcode, viterbi, scrambler, crc
//!   └── preamble  — STF/LTF sequences
//! params   — numerology (64-FFT, CP 16, pilot positions, channel profiles)
//! rates    — MCS table
//! esnr     — effective SNR and rate selection
//! ```

#![warn(missing_docs)]

pub mod chanest;
pub mod convcode;
pub mod crc;
pub mod esnr;
pub mod frame;
pub mod interleaver;
pub mod modulation;
pub mod ofdm;
pub mod params;
pub mod preamble;
pub mod rates;
pub mod scrambler;
pub mod sync;
pub mod viterbi;

pub use frame::{FrameRx, FrameTx, RxError};
pub use modulation::Modulation;
pub use params::{ChannelProfile, OfdmParams};
pub use rates::{CodeRate, Mcs};
