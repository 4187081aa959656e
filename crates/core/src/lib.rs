//! # jmb-core — JMB: joint multi-user beamforming from distributed APs
//!
//! The reproduction of the paper's contribution (Rahul, Kumar, Katabi,
//! SIGCOMM 2012): a system in which independent access points — each with
//! its own free-running oscillator — transmit *concurrently on the same
//! channel* to multiple clients, as if they were one large MIMO node.
//!
//! The crate is organised around the paper's sections:
//!
//! | module | paper | what it does |
//! |---|---|---|
//! | [`phasesync`] | §4, §5.2 | distributed phase synchronization: lead reference channel, direct phase measurement, EWMA CFO for within-packet tracking |
//! | [`precoder`] | §4, §8 | zero-forcing joint beamforming and MRT diversity, with the power normalisation `k` used for rate selection |
//! | [`measure`] | §5.1 | the interleaved channel-measurement packet and client-side per-AP estimation referred to one reference time |
//! | [`network`] | §5, §7 | the protocol, once: [`network::Network`] owns the node ids, the sync strategy, the control plane, the measured channel and precoder, the clock and the one frame timeline; [`network::LinkEval`] is the fidelity under it, [`network::Serve`] one the MAC runs on |
//! | [`net`] | §5 | the sample-level fidelity ([`net::SampleEval`]; `JmbNetwork` is the network over it): lead/slave APs and clients exchanging real waveforms over the [`jmb_sim::Medium`] |
//! | [`fastnet`] | §4 | the per-subcarrier fidelity ([`fastnet::FastEval`]; `FastNet` is the network over it) over [`jmb_sim::SubcarrierMedium`], used by the large experiment sweeps; holds the fast fidelity's one probe/SINR kernel and its [`sync::LeadObserver`], which [`compat`] runs on too |
//! | [`csi`] | §7, robustness | CSI age/confidence tracking, backoff re-measurement scheduling, per-slave sync health |
//! | [`control`] | §5.1–5.2, robustness | the one control plane every [`network::Network`] holds: control-fault draws, sync health, the miss → fallback-or-exclude policy, and their trace events |
//! | [`compat`] | §6 | 802.11n compatibility ([`compat::CompatEval`]; `CompatNet` is the network over it) — what §6 adds and nothing else: antenna pairs on one crystal (2×2 → 4×4), reference-antenna channel stitching as its measurement, the 802.11n baseline; clock, timeline and control plane are [`network`]'s, the probe kernel [`fastnet`]'s |
//! | [`sync`] | §5.2 + related work | pluggable synchronization strategies: the paper's lead/slave resync plus out-of-band pilot tracking and implicit-CSI rivals behind one [`sync::SyncStrategy`] trait |
//! | [`mac`] | §9 | the link layer: shared queue, designated APs, lead election, joint packet selection, async ACKs, retransmission |
//! | [`baseline`] | §11 | the comparison systems: 802.11 TDMA equal-share and single-AP MU-MIMO |
//! | [`experiment`] | §11 | the harness that regenerates every figure of the evaluation |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod compat;
pub mod control;
pub mod csi;
pub mod error;
pub mod experiment;
pub mod fastnet;
pub mod mac;
pub mod measure;
pub mod net;
pub mod network;
pub mod phasesync;
pub mod precoder;
pub mod sync;

pub use csi::{BackoffPolicy, CsiTracker, SyncHealth};
pub use error::JmbError;
pub use phasesync::PhaseSync;
pub use precoder::Precoder;
pub use sync::{strategy_for, LeadObserver, SyncStrategy, SyncStrategyId};
