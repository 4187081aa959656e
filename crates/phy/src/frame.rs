//! Full packet transmit and receive chains.
//!
//! A JMB frame is an 802.11a/g-style PPDU:
//!
//! ```text
//! | STF 160 | LTF 160 | SIGNAL (1 sym) | DATA (N syms) |
//! ```
//!
//! * **SIGNAL** — BPSK 1/2, uncoded-rate header: 4-bit RATE, 12-bit LENGTH,
//!   parity, tail. Never scrambled.
//! * **DATA** — SERVICE(16) + PSDU + tail(6) + pad, scrambled, convolutionally
//!   coded, punctured, interleaved, mapped, OFDM-modulated with pilots.
//!
//! The PSDU carries the caller's payload plus a CRC-32.
//!
//! The chain is exposed at two levels:
//! * time domain ([`FrameTx::tx_frame`] / [`FrameRx::rx_frame`]) — full
//!   waveforms for the sample-level simulator;
//! * frequency domain ([`FrameTx::build_bins`] /
//!   [`FrameRx::decode_stream_bins_with`]) — per-symbol 64-bin arrays, which is
//!   what JMB's joint beamformer manipulates (precoding is per subcarrier)
//!   and what the fast per-subcarrier simulator transports.

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

use crate::chanest::{self, ChannelEstimate};
use crate::convcode;
use crate::crc;
use crate::interleaver::Interleaver;
use crate::modulation::Modulation;
use crate::ofdm::equalize_into;
use crate::ofdm::Ofdm;
use crate::params::OfdmParams;
use crate::preamble;
use crate::rates::{CodeRate, Mcs};
use crate::scrambler::{pilot_polarity_sequence, Scrambler};
use crate::sync;
use crate::viterbi;
use jmb_dsp::Complex64;

/// Default scrambler seed shared by transmitter and receiver.
pub const DEFAULT_SCRAMBLER_SEED: u8 = 0x5D;

/// Maximum PSDU length representable in the 12-bit SIGNAL LENGTH field.
pub const MAX_PSDU: usize = 4095;

/// 802.11 RATE field encodings, indexed like [`Mcs::ALL`].
const RATE_BITS: [u8; 8] = [
    0b1101, 0b1111, 0b0101, 0b0111, 0b1001, 0b1011, 0b0001, 0b0011,
];

/// Transmit-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxError {
    /// Payload too large for the LENGTH field.
    PayloadTooLarge(usize),
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxError::PayloadTooLarge(n) => write!(f, "payload of {n} bytes exceeds {MAX_PSDU}"),
        }
    }
}

impl std::error::Error for TxError {}

/// Receive-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RxError {
    /// No preamble detected in the buffer.
    NoPreamble,
    /// Buffer ends before the frame does.
    Truncated,
    /// SIGNAL field failed its parity check or encodes an unknown rate.
    BadSignal,
    /// Frame check sequence (CRC-32) mismatch after decoding.
    CrcFailed,
}

impl std::fmt::Display for RxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RxError::NoPreamble => write!(f, "no preamble detected"),
            RxError::Truncated => write!(f, "buffer truncated mid-frame"),
            RxError::BadSignal => write!(f, "SIGNAL field invalid"),
            RxError::CrcFailed => write!(f, "CRC check failed"),
        }
    }
}

impl std::error::Error for RxError {}

/// A frame rendered in the frequency domain: one 64-bin vector per OFDM
/// symbol (SIGNAL first, then DATA), pilots and data already placed.
#[derive(Debug, Clone)]
pub struct StreamBins {
    /// MCS of the DATA portion.
    pub mcs: Mcs,
    /// PSDU length in bytes (payload + CRC).
    pub psdu_len: usize,
    /// Per-symbol FFT bins (each `fft_size` long).
    pub symbols: Vec<Vec<Complex64>>,
}

/// The transmitter.
#[derive(Debug, Clone)]
pub struct FrameTx {
    ofdm: Ofdm,
    seed: u8,
}

/// The transmitter's staging buffers, one per stage of the chain: a caller
/// that builds frame after frame keeps one and hands it to
/// [`FrameTx::build_bins_with`], so buffers grow to the largest frame seen
/// and are recycled. Like [`RxScratch`] it carries nothing from one frame
/// to the next: a recycled scratch builds the same bins as a fresh one.
#[derive(Debug, Clone, Default)]
pub struct TxScratch {
    /// The payload and its CRC.
    psdu: Vec<u8>,
    /// The SIGNAL field's bits, then the DATA field's (scrambled).
    bits: Vec<u8>,
    /// Their rate-1/2 code.
    coded: Vec<u8>,
    /// The DATA field's code, punctured to its rate.
    punctured: Vec<u8>,
    /// One symbol's coded bits, interleaved.
    interleaved: Vec<u8>,
    /// One symbol's constellation points.
    syms: Vec<Complex64>,
}

impl TxScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FrameTx {
    /// Creates a transmitter with the default scrambler seed.
    pub fn new(params: OfdmParams) -> Self {
        FrameTx {
            ofdm: Ofdm::new(params),
            seed: DEFAULT_SCRAMBLER_SEED,
        }
    }

    /// The numerology in use.
    pub fn params(&self) -> &OfdmParams {
        self.ofdm.params()
    }

    /// Builds the frequency-domain symbols (SIGNAL + DATA) for a payload.
    pub fn build_bins(&self, mcs: Mcs, payload: &[u8]) -> Result<StreamBins, TxError> {
        let mut bins = Vec::new();
        self.build_bins_with(&mut TxScratch::new(), mcs, payload, &mut bins)?;
        Ok(StreamBins {
            mcs,
            psdu_len: payload.len() + 4,
            symbols: bins
                .chunks_exact(self.ofdm.params().fft_size)
                .map(<[Complex64]>::to_vec)
                .collect(),
        })
    }

    /// [`FrameTx::build_bins`] into a caller's buffer, staged in the
    /// caller's scratch: the symbols (SIGNAL first, then DATA) appended to
    /// `bins` back to back, `fft_size` bins each; returns how many symbols
    /// that is. A transmitter that builds frame after frame keeps the
    /// scratch, and the framer allocates nothing once it has grown.
    pub fn build_bins_with(
        &self,
        scratch: &mut TxScratch,
        mcs: Mcs,
        payload: &[u8],
        bins: &mut Vec<Complex64>,
    ) -> Result<usize, TxError> {
        let params = self.ofdm.params();
        let TxScratch {
            psdu,
            bits,
            coded,
            punctured,
            interleaved,
            syms,
        } = scratch;
        psdu.clear();
        crc::append_crc_into(payload, psdu);
        if psdu.len() > MAX_PSDU {
            return Err(TxError::PayloadTooLarge(psdu.len()));
        }
        let polarity = pilot_polarity_sequence();

        // --- SIGNAL: 24 bits → rate-1/2 → 48 coded bits → BPSK, polarity p0.
        bits.clear();
        Self::signal_bits_into(mcs, psdu.len(), bits);
        coded.clear();
        convcode::encode_raw_into(bits, coded);
        let il_bpsk = Interleaver::new(params, Modulation::Bpsk);
        Self::map_symbol(&il_bpsk, coded, interleaved, syms);
        self.ofdm.assemble_bins_into(syms, polarity[0], bins);

        // --- DATA.
        let ndbps = mcs.data_bits_per_symbol(params);
        let ncbps = mcs.coded_bits_per_symbol(params);
        let n_sym = mcs.symbols_for_psdu(params, psdu.len());
        let n_bits = n_sym * ndbps;

        // SERVICE (16 zero bits) + PSDU bits (LSB-first per byte) + tail + pad.
        bits.clear();
        bits.resize(16, 0);
        for &byte in psdu.iter() {
            for b in 0..8 {
                bits.push((byte >> b) & 1);
            }
        }
        let tail_start = bits.len();
        bits.resize(n_bits, 0); // tail + pad as zeros
                                // Scramble everything, then re-zero tail and pad so the encoder is
                                // flushed to state 0 at the end of the stream (pad content is
                                // ignored by the receiver).
        let mut scr = Scrambler::new(self.seed);
        scr.scramble_in_place(bits);
        for b in bits[tail_start..].iter_mut() {
            *b = 0;
        }

        coded.clear();
        convcode::encode_raw_into(bits, coded);
        punctured.clear();
        convcode::puncture_into(coded, mcs.code_rate, punctured);
        #[expect(
            clippy::disallowed_macros,
            reason = "debug_assert!: compiled out of release builds"
        )]
        {
            debug_assert_eq!(punctured.len(), n_sym * ncbps);
        }

        let il = Interleaver::new(params, mcs.modulation);
        for (n, block) in punctured.chunks(ncbps).enumerate() {
            Self::map_symbol(&il, block, interleaved, syms);
            let p = polarity[(n + 1) % polarity.len()];
            self.ofdm.assemble_bins_into(syms, p, bins);
        }
        Ok(1 + n_sym)
    }

    /// One symbol's coded bits, interleaved into `interleaved` and mapped
    /// into `syms` (both refilled).
    fn map_symbol(
        il: &Interleaver,
        coded: &[u8],
        interleaved: &mut Vec<u8>,
        syms: &mut Vec<Complex64>,
    ) {
        interleaved.clear();
        il.interleave_into(coded, interleaved);
        syms.clear();
        il.modulation().map_stream_into(interleaved, syms);
    }

    /// Renders frequency-domain symbols into the full time-domain packet
    /// (prepends STF + LTF).
    pub fn assemble_samples(&self, bins: &StreamBins) -> Vec<Complex64> {
        let params = self.ofdm.params();
        let mut out = preamble::preamble(params);
        out.reserve(bins.symbols.len() * params.symbol_len());
        for sym in &bins.symbols {
            self.ofdm.bins_to_samples_into(sym, &mut out);
        }
        out
    }

    /// Convenience: payload → full time-domain packet.
    pub fn tx_frame(&self, mcs: Mcs, payload: &[u8]) -> Result<Vec<Complex64>, TxError> {
        Ok(self.assemble_samples(&self.build_bins(mcs, payload)?))
    }

    /// SIGNAL field bits onto the end of `bits`: RATE(4) | reserved(1) |
    /// LENGTH(12, LSB first) | parity(1) | tail(6).
    fn signal_bits_into(mcs: Mcs, psdu_len: usize, bits: &mut Vec<u8>) {
        let start = bits.len();
        let rate = RATE_BITS[mcs.index()];
        for b in (0..4).rev() {
            bits.push((rate >> b) & 1);
        }
        bits.push(0); // reserved
        for b in 0..12 {
            bits.push(((psdu_len >> b) & 1) as u8);
        }
        let parity = bits[start..].iter().fold(0u8, |a, &b| a ^ b);
        bits.push(parity);
        bits.extend_from_slice(&[0; 6]);
    }
}

/// Total packet length in samples — preamble, SIGNAL and the DATA symbols
/// of the payload plus its CRC — at an MCS.
pub fn frame_len(params: &OfdmParams, mcs: Mcs, payload_len: usize) -> usize {
    let n_sym = 1 + mcs.symbols_for_psdu(params, payload_len + 4);
    320 + n_sym * params.symbol_len()
}

/// Everything the receiver learned from one frame.
#[derive(Debug, Clone)]
pub struct RxResult {
    /// Decoded payload (CRC verified and stripped).
    pub payload: Vec<u8>,
    /// MCS announced in SIGNAL.
    pub mcs: Mcs,
    /// Estimated CFO in Hz (0 for the frequency-domain entry point).
    pub cfo_hz: f64,
    /// Channel estimate from the LTF.
    pub channel: ChannelEstimate,
    /// Estimated complex-noise variance per subcarrier sample.
    pub noise_var: f64,
    /// Post-equalisation error-vector magnitude in dB (lower = cleaner).
    pub evm_db: f64,
}

impl RxResult {
    /// Per-subcarrier SNR in dB derived from the channel estimate and noise
    /// — what JMB clients feed back for effective-SNR rate selection (§9).
    pub fn snr_per_subcarrier_db(&self) -> Vec<f64> {
        self.channel
            .gains
            .iter()
            .map(|g| jmb_dsp::stats::lin_to_db(g.norm_sqr() / self.noise_var.max(1e-18)))
            .collect()
    }
}

/// Reusable receive-path scratch buffers (DESIGN.md §3.11).
///
/// Every allocation the per-frame decode chain needs lives here: the
/// CFO-corrected sample window, the flattened demodulated bins, the channel
/// view the symbols are equalised against, the per-symbol equalise/demap
/// staging buffers, the whole-frame soft-bit stream, and the Viterbi
/// survivor masks. Allocate one per worker — the receiver itself stays
/// immutable and shareable, so the workers that decode a frame's clients at
/// once (`jmb_sim::Medium::render_each`) share it and each bring their
/// own scratch — and pass it to the `*_with` entry points; buffers grow to
/// the largest frame seen
/// and are recycled across frames. The scratch carries no state between
/// frames: decoding with a recycled scratch is byte-identical to decoding
/// with a fresh one.
#[derive(Debug, Clone, Default)]
pub struct RxScratch {
    /// CFO-corrected time-domain window ([`FrameRx::rx_frame_with`] only).
    work: Vec<Complex64>,
    /// Flattened demodulated bins, `n_symbols × fft_size`.
    bins: Vec<Complex64>,
    /// The frame's channel, as the symbols are equalised against it.
    view: ChannelView,
    /// One symbol's pilot-corrected data subcarriers.
    data: Vec<Complex64>,
    /// One symbol's equalised data subcarriers.
    eq: Vec<Complex64>,
    /// One symbol's LLRs (pre-deinterleave).
    llrs: Vec<f64>,
    /// Whole-frame deinterleaved soft bits.
    soft: Vec<f64>,
    /// Whole-frame depunctured (rate-1/2) soft bits, of a frame coded at
    /// rate 2/3 or 3/4.
    restored: Vec<f64>,
    /// Viterbi output bits.
    bits: Vec<u8>,
    /// Viterbi survivor masks.
    viterbi: viterbi::ViterbiScratch,
}

impl RxScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// What one frame's symbols are equalised and demapped against.
#[derive(Debug, Clone, Default)]
struct ChannelView {
    data_gains: Vec<Complex64>,
    pilot_gains: [Complex64; 4],
    /// `|gain|²` per data subcarrier: the LLR confidence weights.
    csi: Vec<f64>,
    noise_var: f64,
}

impl ChannelView {
    /// Refills the view from `channel`, keeping its buffers.
    fn fill(&mut self, params: &OfdmParams, channel: &ChannelEstimate, noise_var: f64) {
        channel.data_gains_into(params, &mut self.data_gains);
        self.csi.clear();
        self.csi
            .extend(self.data_gains.iter().map(|g| g.norm_sqr()));
        self.pilot_gains = channel.pilot_gains(params);
        self.noise_var = noise_var;
    }
}

/// The receiver.
#[derive(Debug, Clone)]
pub struct FrameRx {
    ofdm: Ofdm,
    seed: u8,
}

impl FrameRx {
    /// Creates a receiver with the default scrambler seed.
    pub fn new(params: OfdmParams) -> Self {
        FrameRx {
            ofdm: Ofdm::new(params),
            seed: DEFAULT_SCRAMBLER_SEED,
        }
    }

    /// The numerology in use.
    pub fn params(&self) -> &OfdmParams {
        self.ofdm.params()
    }

    /// Full receive chain — detect → sync → estimate → decode — in a fresh
    /// scratch: for a caller with one frame to decode.
    pub fn rx_frame(&self, samples: &[Complex64]) -> Result<RxResult, RxError> {
        self.rx_frame_with(&mut RxScratch::new(), samples)
    }

    /// Full receive chain in the caller's scratch buffers, which a receiver
    /// that decodes frame after frame keeps and hands back in.
    pub fn rx_frame_with(
        &self,
        scratch: &mut RxScratch,
        samples: &[Complex64],
    ) -> Result<RxResult, RxError> {
        let mut work = std::mem::take(&mut scratch.work);
        work.clear();
        work.extend_from_slice(samples);
        let result = self.rx_frame_in_place(scratch, &mut work);
        scratch.work = work;
        result
    }

    /// [`FrameRx::rx_frame_with`] on a window the caller gives up: the
    /// frame is CFO-corrected where it lies, so no copy of it is made and
    /// the scratch keeps none.
    pub fn rx_frame_in_place(
        &self,
        scratch: &mut RxScratch,
        samples: &mut [Complex64],
    ) -> Result<RxResult, RxError> {
        let params = self.ofdm.params();
        let sync::SyncResult { stf_start, cfo_hz } =
            sync::synchronize(params, samples).ok_or(RxError::NoPreamble)?;
        if stf_start + 320 + params.symbol_len() > samples.len() {
            return Err(RxError::Truncated);
        }
        // CFO-correct from the start of the frame.
        let frame = &mut samples[stf_start..];
        sync::correct_cfo(params, frame, cfo_hz, 0.0);

        // Channel + noise from LTF.
        let ltf = &frame[160..320];
        let channel = chanest::estimate_from_ltf(params, ltf);
        let noise_var = noise_from_ltf(params, ltf);

        // Demodulate all remaining whole symbols into one flat bins buffer
        // (borrowed out of the scratch so the decode stage can reuse the
        // rest of it).
        let sym_len = params.symbol_len();
        let n_avail = (frame.len() - 320) / sym_len;
        let mut flat = std::mem::take(&mut scratch.bins);
        flat.clear();
        flat.reserve(n_avail * params.fft_size);
        for i in 0..n_avail {
            let sym = &frame[320 + i * sym_len..320 + (i + 1) * sym_len];
            self.ofdm.demodulate_symbol_into(sym, &mut flat);
        }
        let fft = params.fft_size;
        let symbol = |i: usize| &flat[i * fft..(i + 1) * fft];
        let result = self.decode_symbols(scratch, n_avail, symbol, &channel, noise_var);
        scratch.bins = flat;
        let mut result = result?;
        result.cfo_hz = cfo_hz;
        Ok(result)
    }

    /// Frequency-domain receive chain: `bins` holds one 64-bin vector per
    /// received OFDM symbol (SIGNAL first). Used directly by the
    /// per-subcarrier fidelity simulator and by [`FrameRx::rx_frame_with`].
    ///
    /// The batched pipeline: per DATA symbol the pilot-corrected
    /// subcarriers, equalised values and LLRs are staged in preallocated
    /// buffers, and the deinterleaved soft bits accumulate into one
    /// contiguous whole-frame stream that feeds depuncture → Viterbi
    /// without further copies.
    pub fn decode_stream_bins_with<S: AsRef<[Complex64]>>(
        &self,
        scratch: &mut RxScratch,
        bins: &[S],
        channel: &ChannelEstimate,
        noise_var: f64,
    ) -> Result<RxResult, RxError> {
        self.decode_symbols(
            scratch,
            bins.len(),
            |i| bins[i].as_ref(),
            channel,
            noise_var,
        )
    }

    /// [`FrameRx::decode_stream_bins_with`] over `n_symbols` symbols that
    /// `symbol` hands out by index, so that neither entry point collects
    /// them into a list first. The channel view is lent out of the scratch
    /// for the frame and handed back.
    fn decode_symbols<'b>(
        &self,
        scratch: &mut RxScratch,
        n_symbols: usize,
        symbol: impl Fn(usize) -> &'b [Complex64],
        channel: &ChannelEstimate,
        noise_var: f64,
    ) -> Result<RxResult, RxError> {
        if n_symbols == 0 {
            return Err(RxError::Truncated);
        }
        let mut view = std::mem::take(&mut scratch.view);
        view.fill(self.ofdm.params(), channel, noise_var);
        let result = self.decode_in_view(scratch, &view, n_symbols, symbol, channel);
        scratch.view = view;
        result
    }

    /// The decode chain proper, against a filled view.
    fn decode_in_view<'b>(
        &self,
        scratch: &mut RxScratch,
        view: &ChannelView,
        n_symbols: usize,
        symbol: impl Fn(usize) -> &'b [Complex64],
        channel: &ChannelEstimate,
    ) -> Result<RxResult, RxError> {
        let params = self.ofdm.params();
        let polarity = pilot_polarity_sequence();

        // --- SIGNAL.
        let (mcs, psdu_len) = self.decode_signal(scratch, view, symbol(0), polarity[0])?;
        let n_sym = mcs.symbols_for_psdu(params, psdu_len);
        if n_symbols < 1 + n_sym {
            return Err(RxError::Truncated);
        }

        // --- DATA symbols: pilot-track, equalise, soft-demap, deinterleave.
        let ncbps = mcs.coded_bits_per_symbol(params);
        let il = Interleaver::new(params, mcs.modulation);
        scratch.soft.clear();
        scratch.soft.reserve(n_sym * ncbps);
        let mut evm_acc = 0.0f64;
        for n in 0..n_sym {
            let p = polarity[(n + 1) % polarity.len()];
            self.soft_symbol(scratch, view, symbol(1 + n), p, &il, &mut evm_acc);
        }
        let evm_n = n_sym * view.data_gains.len();

        // --- Decode: depuncture → Viterbi → descramble → CRC. A rate-1/2
        // stream has no punctured positions: it is its own depunctured
        // stream.
        let ndbps = mcs.data_bits_per_symbol(params);
        let n_coded = 2 * n_sym * ndbps;
        let coded = if mcs.code_rate == CodeRate::Half {
            &scratch.soft
        } else {
            convcode::depuncture_into(&scratch.soft, mcs.code_rate, n_coded, &mut scratch.restored);
            &scratch.restored
        };
        // Viterbi truncates 6 tail bits from the end of the stream; we only
        // need the SERVICE + PSDU prefix.
        viterbi::decode_with(coded, &mut scratch.viterbi, &mut scratch.bits)
            .map_err(|_| RxError::Truncated)?;
        let needed = 16 + 8 * psdu_len;
        if scratch.bits.len() < needed {
            return Err(RxError::Truncated);
        }
        let mut scr = Scrambler::new(self.seed);
        scr.scramble_in_place(&mut scratch.bits);
        let bits = &scratch.bits;
        let mut psdu = Vec::with_capacity(psdu_len);
        for i in 0..psdu_len {
            let mut byte = 0u8;
            for b in 0..8 {
                byte |= bits[16 + 8 * i + b] << b;
            }
            psdu.push(byte);
        }
        let payload = crc::check_and_strip_crc(&psdu)
            .ok_or(RxError::CrcFailed)?
            .to_vec();

        let evm = if evm_n > 0 {
            evm_acc / evm_n as f64
        } else {
            f64::NAN
        };
        Ok(RxResult {
            payload,
            mcs,
            cfo_hz: 0.0,
            channel: channel.clone(),
            noise_var: view.noise_var,
            evm_db: jmb_dsp::stats::lin_to_db(evm.max(1e-15)),
        })
    }

    /// One symbol's bins → pilot-tracked, equalised, soft-demapped LLRs,
    /// deinterleaved onto the end of `scratch.soft`; the squared distances
    /// to the nearest constellation points add to `evm_acc`.
    fn soft_symbol(
        &self,
        scratch: &mut RxScratch,
        view: &ChannelView,
        bins: &[Complex64],
        polarity: f64,
        il: &Interleaver,
        evm_acc: &mut f64,
    ) {
        let params = self.ofdm.params();
        let pilots = self.ofdm.extract_pilots(bins);
        let track = chanest::track_pilots(params, &pilots, &view.pilot_gains, polarity);
        let correction = track.corrections(&params.data_subcarriers);
        scratch.data.clear();
        let data = params.data_subcarriers.iter().zip(correction);
        scratch
            .data
            .extend(data.map(|(&k, c)| bins[params.bin(k)] * c));
        equalize_into(&scratch.data, &view.data_gains, &mut scratch.eq);
        scratch.llrs.clear();
        il.modulation().demap_soft_evm_into(
            &scratch.eq,
            view.noise_var,
            &view.csi,
            &mut scratch.llrs,
            evm_acc,
        );
        il.deinterleave_into(&scratch.llrs, &mut scratch.soft);
    }

    /// SIGNAL (one BPSK rate-1/2 symbol) through the staging buffers the
    /// DATA symbols use next.
    fn decode_signal(
        &self,
        scratch: &mut RxScratch,
        view: &ChannelView,
        bins: &[Complex64],
        polarity: f64,
    ) -> Result<(Mcs, usize), RxError> {
        let il = Interleaver::new(self.ofdm.params(), Modulation::Bpsk);
        scratch.soft.clear();
        self.soft_symbol(scratch, view, bins, polarity, &il, &mut 0.0);
        viterbi::decode_with(&scratch.soft, &mut scratch.viterbi, &mut scratch.bits)
            .map_err(|_| RxError::BadSignal)?;
        let bits = &scratch.bits;
        #[expect(
            clippy::disallowed_macros,
            reason = "debug_assert!: compiled out of release builds"
        )]
        {
            debug_assert_eq!(bits.len(), 18);
        }

        // Parity over the 17 info bits must match bit 17.
        let parity = bits[..17].iter().fold(0u8, |a, &b| a ^ b);
        if parity != bits[17] {
            return Err(RxError::BadSignal);
        }
        let rate = (bits[0] << 3) | (bits[1] << 2) | (bits[2] << 1) | bits[3];
        let idx = RATE_BITS
            .iter()
            .position(|&r| r == rate)
            .ok_or(RxError::BadSignal)?;
        let mut len = 0usize;
        for b in 0..12 {
            len |= (bits[5 + b] as usize) << b;
        }
        if !(4..=MAX_PSDU).contains(&len) {
            return Err(RxError::BadSignal);
        }
        Ok((Mcs::ALL[idx], len))
    }
}

/// Estimates complex-noise variance from the two repeated LTF symbols:
/// the halves carry identical signal, so their difference is pure noise.
///
/// # Panics
///
/// Panics if `ltf_samples.len() != 160`.
#[expect(
    clippy::disallowed_macros,
    reason = "documented precondition (# Panics) — decode slices exactly one LTF window"
)]
pub fn noise_from_ltf(params: &OfdmParams, ltf_samples: &[Complex64]) -> f64 {
    assert_eq!(ltf_samples.len(), preamble::LTF_LEN);
    let plan = jmb_dsp::fft::plan(params.fft_size);
    let mut sym1 = ltf_samples[32..96].to_vec();
    let mut sym2 = ltf_samples[96..160].to_vec();
    plan.forward(&mut sym1);
    plan.forward(&mut sym2);
    let occupied = params.occupied_subcarriers();
    let mut acc = 0.0;
    for &k in &occupied {
        let d = sym1[params.bin(k)] - sym2[params.bin(k)];
        acc += d.norm_sqr();
    }
    // Var(Y1−Y2) = 2·Var(noise per bin).
    (acc / occupied.len() as f64 / 2.0).max(1e-15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ChannelProfile;

    fn chain() -> (FrameTx, FrameRx) {
        let p = OfdmParams::new(ChannelProfile::Usrp10MHz);
        (FrameTx::new(p.clone()), FrameRx::new(p))
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn loopback_all_mcs() {
        let (tx, rx) = chain();
        let data = payload(200);
        for mcs in Mcs::ALL {
            let samples = tx.tx_frame(mcs, &data).unwrap();
            let got = rx.rx_frame(&samples).expect("decode");
            assert_eq!(got.payload, data, "{mcs}");
            assert_eq!(got.mcs, mcs);
            assert!(got.evm_db < -40.0, "{mcs}: EVM {}", got.evm_db);
        }
    }

    #[test]
    fn loopback_with_cfo() {
        let (tx, rx) = chain();
        let p = tx.params().clone();
        let data = payload(100);
        let samples = tx.tx_frame(Mcs::ALL[2], &data).unwrap();
        // Apply a 20 kHz CFO (≈8 ppm at 2.4 GHz).
        let ts = p.sample_period();
        let shifted: Vec<Complex64> = samples
            .iter()
            .enumerate()
            .map(|(n, &x)| x * Complex64::cis(2.0 * std::f64::consts::PI * 20e3 * n as f64 * ts))
            .collect();
        let got = rx.rx_frame(&shifted).expect("decode with CFO");
        assert_eq!(got.payload, data);
        assert!((got.cfo_hz - 20e3).abs() < 100.0, "cfo {}", got.cfo_hz);
    }

    #[test]
    fn loopback_with_flat_channel_and_padding() {
        let (tx, rx) = chain();
        let data = payload(64);
        let samples = tx.tx_frame(Mcs::ALL[4], &data).unwrap();
        let h = Complex64::from_polar(0.5, 2.2);
        let mut sig = vec![Complex64::ZERO; 300];
        sig.extend(samples.iter().map(|&x| x * h));
        sig.extend(vec![Complex64::ZERO; 100]);
        let got = rx.rx_frame(&sig).expect("decode");
        assert_eq!(got.payload, data);
    }

    #[test]
    fn loopback_multipath_channel() {
        // Two-tap channel within the CP: handled entirely by equalisation.
        let (tx, rx) = chain();
        let data = payload(150);
        let samples = tx.tx_frame(Mcs::ALL[5], &data).unwrap();
        let mut sig = vec![Complex64::ZERO; samples.len() + 10];
        for (n, &x) in samples.iter().enumerate() {
            sig[n] += x;
            sig[n + 5] += x * Complex64::from_polar(0.4, -1.0);
        }
        let got = rx.rx_frame(&sig).expect("decode multipath");
        assert_eq!(got.payload, data);
    }

    #[test]
    fn corrupted_frame_fails_crc_or_signal() {
        let (tx, rx) = chain();
        let data = payload(80);
        let mut samples = tx.tx_frame(Mcs::ALL[7], &data).unwrap();
        // Obliterate a stretch of DATA (not the preamble).
        for s in samples[450..700].iter_mut() {
            *s = Complex64::ZERO;
        }
        match rx.rx_frame(&samples) {
            Err(RxError::CrcFailed) | Err(RxError::BadSignal) | Err(RxError::Truncated) => {}
            other => panic!("expected decode failure, got {other:?}"),
        }
    }

    #[test]
    fn noise_only_is_no_preamble() {
        let (_, rx) = chain();
        let mut s: u64 = 3;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        let noise: Vec<Complex64> = (0..4000)
            .map(|_| Complex64::new(next(), next()) * 0.1)
            .collect();
        assert_eq!(rx.rx_frame(&noise).unwrap_err(), RxError::NoPreamble);
    }

    #[test]
    fn payload_too_large_rejected() {
        let (tx, _) = chain();
        let err = tx.tx_frame(Mcs::BASE, &payload(4092)).unwrap_err();
        assert!(matches!(err, TxError::PayloadTooLarge(4096)));
        // 4091 bytes + 4 CRC = 4095 fits.
        assert!(tx.build_bins(Mcs::ALL[7], &payload(4091)).is_ok());
    }

    #[test]
    fn frame_len_matches_assembled() {
        let (tx, _) = chain();
        for mcs in [Mcs::ALL[0], Mcs::ALL[3], Mcs::ALL[7]] {
            for n in [0usize, 1, 100, 1500] {
                let samples = tx.tx_frame(mcs, &payload(n)).unwrap();
                assert_eq!(samples.len(), frame_len(tx.params(), mcs, n), "{mcs} n={n}");
            }
        }
    }

    #[test]
    fn empty_payload_roundtrip() {
        let (tx, rx) = chain();
        let samples = tx.tx_frame(Mcs::ALL[1], &[]).unwrap();
        let got = rx.rx_frame(&samples).unwrap();
        assert!(got.payload.is_empty());
    }

    #[test]
    fn a_kept_tx_scratch_builds_what_a_fresh_one_does() {
        // Frames of every MCS, long after short and short after long,
        // appended to one buffer through one scratch.
        let (tx, _) = chain();
        let mut scratch = TxScratch::new();
        let mut kept = Vec::new();
        let mut fresh = Vec::new();
        for (k, len) in [1500usize, 0, 40, 1200, 3].into_iter().enumerate() {
            for mcs in Mcs::ALL {
                let data = payload(len + k);
                let n = tx
                    .build_bins_with(&mut scratch, mcs, &data, &mut kept)
                    .unwrap();
                let bins = tx.build_bins(mcs, &data).unwrap();
                assert_eq!(n, bins.symbols.len());
                fresh.extend(bins.symbols.into_iter().flatten());
            }
        }
        assert!(kept == fresh, "a kept scratch built other bins");
    }

    #[test]
    fn bins_roundtrip_without_time_domain() {
        // Frequency-domain path used by the fast simulator.
        let (tx, rx) = chain();
        let p = tx.params().clone();
        let data = payload(300);
        let bins = tx.build_bins(Mcs::ALL[6], &data).unwrap();
        let channel = chanest::estimate_ideal(&p);
        let got = rx
            .decode_stream_bins_with(&mut RxScratch::new(), &bins.symbols, &channel, 1e-6)
            .expect("bins decode");
        assert_eq!(got.payload, data);
    }

    #[test]
    fn bins_decode_with_diagonal_channel() {
        // Per-subcarrier complex gains (what the client sees after JMB
        // beamforming) applied in the frequency domain.
        let (tx, rx) = chain();
        let p = tx.params().clone();
        let data = payload(120);
        let bins = tx.build_bins(Mcs::ALL[3], &data).unwrap();
        // Build a frequency-selective diagonal channel.
        let gain = |k: i32| Complex64::from_polar(0.8 + 0.01 * k as f64, 0.05 * k as f64);
        let rx_bins: Vec<Vec<Complex64>> = bins
            .symbols
            .iter()
            .map(|sym| {
                let mut out = vec![Complex64::ZERO; p.fft_size];
                for k in p.occupied_subcarriers() {
                    out[p.bin(k)] = sym[p.bin(k)] * gain(k);
                }
                out
            })
            .collect();
        let channel = ChannelEstimate {
            subcarriers: p.occupied_subcarriers(),
            gains: p.occupied_subcarriers().iter().map(|&k| gain(k)).collect(),
        };
        let got = rx
            .decode_stream_bins_with(&mut RxScratch::new(), &rx_bins, &channel, 1e-6)
            .unwrap();
        assert_eq!(got.payload, data);
    }

    #[test]
    fn snr_report_reflects_channel() {
        let (tx, rx) = chain();
        let data = payload(50);
        let samples = tx.tx_frame(Mcs::ALL[0], &data).unwrap();
        let h = Complex64::from_polar(2.0, 0.3); // +6 dB
        let boosted: Vec<Complex64> = samples.iter().map(|&x| x * h).collect();
        let got = rx.rx_frame(&boosted).unwrap();
        let snrs = got.snr_per_subcarrier_db();
        assert_eq!(snrs.len(), 52);
        // All subcarriers should report (near-)identical SNR for a flat channel.
        let spread = snrs.iter().cloned().fold(f64::MIN, f64::max)
            - snrs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 20.0, "flat channel SNR spread {spread}");
    }

    #[test]
    fn signal_bits_layout() {
        // Appended after a bit already there, which the parity skips.
        let mut bits = vec![1];
        FrameTx::signal_bits_into(Mcs::ALL[0], 100, &mut bits);
        let bits = &bits[1..];
        assert_eq!(bits.len(), 24);
        assert_eq!(&bits[..4], &[1, 1, 0, 1], "RATE for 6 Mbps class");
        assert_eq!(bits[4], 0, "reserved");
        // length 100 = 0b000001100100, LSB first.
        let len: usize = (0..12).map(|b| (bits[5 + b] as usize) << b).sum();
        assert_eq!(len, 100);
        assert_eq!(&bits[18..], &[0; 6], "tail");
    }

    #[test]
    fn wifi20_profile_loopback() {
        let p = OfdmParams::new(ChannelProfile::Wifi20MHz);
        let tx = FrameTx::new(p.clone());
        let rx = FrameRx::new(p);
        let data = payload(500);
        let samples = tx.tx_frame(Mcs::ALL[7], &data).unwrap();
        assert_eq!(rx.rx_frame(&samples).unwrap().payload, data);
    }
}
