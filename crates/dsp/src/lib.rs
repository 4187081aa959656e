//! # jmb-dsp — signal-processing substrate for JMB
//!
//! Self-contained DSP building blocks used by every other crate in the JMB
//! workspace:
//!
//! * [`Complex64`] — complex arithmetic (we implement it ourselves rather than
//!   pull in `num-complex`, which keeps the hot paths simple and dependency-free),
//! * [`fft`] — radix-2 FFT/IFFT with precomputed twiddle tables,
//! * [`matrix`] — dense complex linear algebra (inverse, pseudo-inverse,
//!   solve, condition estimation) sized for the small channel matrices JMB
//!   inverts when beamforming, and the subcarrier-lane [`Planar`] tables
//!   the zero-forcing solver and the fast path's kernels work in,
//! * [`stats`] — percentiles, CDFs, running statistics, dB conversions,
//! * [`delay`] — fractional-sample delay for modelling propagation delays,
//! * [`elementary`] — branch-free `atan2`, `hypot` and `exp` kernels for the
//!   fast path's per-subcarrier loops,
//! * [`rng`] — deterministic Gaussian / circularly-symmetric complex Gaussian
//!   sampling helpers.
//!
//! Everything here is deterministic: all randomness flows through
//! caller-provided RNGs so experiments are reproducible bit-for-bit.

#![warn(missing_docs)]

pub mod complex;
pub mod delay;
pub mod elementary;
pub mod fft;
pub mod matrix;
pub mod rng;
pub mod stats;

pub use complex::Complex64;
pub use fft::{fft_in_place, ifft_in_place, FftPlan};
pub use matrix::{CMat, Planar, ZfSolver};
