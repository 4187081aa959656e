//! Cross-validation of the two simulation fidelities: the per-subcarrier
//! medium must agree with the sample-level medium about the physical
//! channel, because the large experiment sweeps trust the fast model.

use jmb::channel::oscillator::PhaseTrajectory;
use jmb::channel::{Link, Multipath, MultipathSpec};
use jmb::dsp::Complex64;
use jmb::phy::params::OfdmParams;
use jmb::phy::preamble;
use jmb::sim::{Medium, SubcarrierMedium};

const FC: f64 = 2.437e9;

/// Measures the per-subcarrier channel through the *sample-level* medium by
/// transmitting an LTF and estimating, then compares with the *frequency-
/// domain* medium's `channel_at` for identical link/oscillator parameters.
#[test]
fn sample_level_channel_matches_subcarrier_model() {
    let params = OfdmParams::default();
    let mut rng = jmb::dsp::rng::rng_from_seed(5);
    let link = Link::new(
        Complex64::from_polar(0.9, 0.7),
        42e-9,
        Multipath::new(MultipathSpec::indoor_nlos(), &mut rng),
    );
    let cfo = 2_000.0;

    // Sample level: transmit an LTF, estimate the channel.
    let mut m = Medium::new(params.clone(), 1);
    let tx = m.add_node(PhaseTrajectory::fixed(FC, cfo), 0.0);
    let rx = m.add_node(PhaseTrajectory::fixed(FC, 0.0), 1e-12);
    m.set_link(tx, rx, link.clone());
    let t0 = 1e-4;
    m.transmit(tx, t0, preamble::ltf(&params));
    let window = m.render_rx(rx, t0, preamble::LTF_LEN);
    // De-rotate the known CFO (phase anchored at the window start) so the
    // remaining response is the static channel at t0.
    let mut derotated = window.clone();
    let ts = params.sample_period();
    for (n, x) in derotated.iter_mut().enumerate() {
        let t = t0 + n as f64 * ts;
        *x *= Complex64::cis(-2.0 * std::f64::consts::PI * cfo * t);
    }
    let est = jmb::phy::chanest::estimate_from_ltf(&params, &derotated);

    // Frequency domain: same link and oscillators.
    let mut fm = SubcarrierMedium::new(params.clone());
    let ftx = fm.add_node(PhaseTrajectory::fixed(FC, cfo));
    let frx = fm.add_node(PhaseTrajectory::fixed(FC, 0.0));
    fm.set_link(ftx, frx, link);

    let mut worst = 0.0f64;
    for (i, &k) in est.subcarriers.iter().enumerate() {
        let fast =
            fm.channel_at(ftx, frx, k, t0) * Complex64::cis(-2.0 * std::f64::consts::PI * cfo * t0);
        let slow = est.gains[i];
        let err = (fast - slow).abs() / fast.abs().max(1e-6);
        worst = worst.max(err);
    }
    assert!(
        worst < 0.08,
        "fidelities disagree by up to {worst:.3} (relative)"
    );
}

/// The relative oscillator rotation over time — the quantity JMB's phase
/// sync measures — must be identical in both fidelities.
#[test]
fn oscillator_rotation_agrees_across_fidelities() {
    let params = OfdmParams::default();
    let cfo = -3_456.0;
    let mut fm = SubcarrierMedium::new(params.clone());
    let a = fm.add_node(PhaseTrajectory::fixed(FC, cfo));
    let b = fm.add_node(PhaseTrajectory::fixed(FC, 0.0));
    fm.set_link(a, b, Link::ideal());
    let dt = 2.5e-3;
    let h0 = fm.channel_at(a, b, 1, 0.1);
    let h1 = fm.channel_at(a, b, 1, 0.1 + dt);
    let measured = (h1 * h0.conj()).arg();
    let expected = jmb::dsp::complex::wrap_phase(2.0 * std::f64::consts::PI * cfo * dt);
    // Tolerance admits the (physically correct) sampling-offset ramp the
    // shared crystal adds on subcarrier 1 over dt (~3.5 mrad here).
    assert!(
        (jmb::dsp::complex::wrap_phase(measured - expected)).abs() < 5e-3,
        "rotation {measured} vs {expected}"
    );
}

/// A full packet decoded through both fidelities: a frame's bins carried
/// through the frequency-domain channel rows must decode exactly like the
/// time-domain waveform through an equivalent clean channel.
#[test]
fn packet_decodes_identically_in_both_fidelities() {
    let params = OfdmParams::default();
    let tx = jmb::phy::FrameTx::new(params.clone());
    let rxr = jmb::phy::FrameRx::new(params.clone());
    let payload: Vec<u8> = (0..200).map(|i| (i * 13 + 5) as u8).collect();
    let mcs = jmb::phy::rates::Mcs::ALL[4];

    // Time domain through the sample-level medium.
    let mut m = Medium::new(params.clone(), 4);
    let a = m.add_node(PhaseTrajectory::fixed(FC, 0.0), 1e-9);
    let b = m.add_node(PhaseTrajectory::fixed(FC, 0.0), 1e-9);
    m.set_link(a, b, Link::ideal());
    let wave = tx.tx_frame(mcs, &payload).unwrap();
    let n = wave.len();
    m.transmit(a, 64.0 * params.sample_period(), wave);
    let window = m.render_rx(b, 0.0, n + 128);
    let time_result = rxr.rx_frame(&window).expect("time-domain decode");
    assert_eq!(time_result.payload, payload);

    // Frequency domain through the subcarrier medium: each occupied bin
    // times its channel at the symbol's time, the rest left empty.
    let mut fm = SubcarrierMedium::new(params.clone());
    let fa = fm.add_node(PhaseTrajectory::fixed(FC, 0.0));
    let fb = fm.add_node(PhaseTrajectory::fixed(FC, 0.0));
    fm.set_link(fa, fb, Link::ideal());
    let bins = tx.build_bins(mcs, &payload).unwrap();
    let ks = fm.occupied().to_vec();
    let mut row = Vec::new();
    let mut rx_bins = Vec::new();
    for (s, sym) in bins.symbols.iter().enumerate() {
        let t = s as f64 * params.symbol_duration();
        fm.channel_row_into(fa, fb, t, &mut row);
        let mut out = vec![Complex64::ZERO; params.fft_size];
        for (&k, &h) in ks.iter().zip(&row) {
            out[params.bin(k)] = h * sym[params.bin(k)];
        }
        rx_bins.push(out);
    }
    let channel = jmb::phy::chanest::estimate_ideal(&params);
    let mut scratch = jmb::phy::frame::RxScratch::new();
    let freq_result = rxr
        .decode_stream_bins_with(&mut scratch, &rx_bins, &channel, 1e-9)
        .expect("frequency-domain decode");
    assert_eq!(freq_result.payload, payload);
    assert_eq!(freq_result.mcs, time_result.mcs);
}
