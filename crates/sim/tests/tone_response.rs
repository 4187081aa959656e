//! The sample medium against the channel model the fast path uses.
//!
//! `Medium::render_rx` delays, resamples and superposes real waveforms;
//! `jmb_sim::freq` and everything above it take a link to be the complex gain
//! `link.gain · Σ_l g_l e^{−j2π f τ_l} · e^{−j2π f·delay}`
//! (`Link::freq_response_at`). The two are the same channel only if a steady
//! tone at an in-band frequency `f`, sent through the sample medium between
//! two crystals that are both off nominal, arrives as that gain times the
//! tone the receiver's clock and carrier would see. This file holds the
//! render to that within −45 dB of the link's wideband amplitude
//! `|gain|·√Σ|g_l|²`, sample by sample, away from the window's edges — on
//! whichever interpolation scheme `render_rx` uses (measured: −63.0 dB).

use jmb_channel::{Link, Multipath, MultipathSpec, PhaseTrajectory};
use jmb_dsp::rng::rng_from_seed;
use jmb_dsp::Complex64;
use jmb_phy::params::OfdmParams;
use jmb_sim::Medium;
use rand::Rng;
use std::f64::consts::PI;

const FC: f64 = 2.437e9;
/// Transmitter and receiver crystals, ppm off nominal.
const PPM: [(f64, f64); 2] = [(20.0, -12.0), (-3.0, 17.5)];
/// Occupied subcarriers the tone is put on, band edges included.
const TONES: [i32; 7] = [-26, -13, -1, 1, 7, 20, 26];
/// Window length and the margin kept from either edge, receiver samples.
const WINDOW: usize = 1_000;
const MARGIN: usize = 100;
/// −45 dB in amplitude.
const TOLERANCE: f64 = 0.005_623_413_251_903_491;

/// The worst per-sample deviation over every tone, relative to the link's
/// wideband amplitude.
fn worst_deviation(spec: MultipathSpec, seed: u64, (ppm_tx, ppm_rx): (f64, f64)) -> f64 {
    let params = OfdmParams::default();
    let fs = params.sample_rate();
    let mut rng = rng_from_seed(seed);
    let link = Link::new(
        Complex64::from_polar(rng.gen_range(0.2..2.0), rng.gen_range(-PI..PI)),
        rng.gen_range(5e-9..90e-9),
        Multipath::new(spec, &mut rng),
    );
    let amplitude = link.gain.abs() * link.fading.power().sqrt();
    let start_s = 1e-3 + rng.gen_range(0.0..1.0) / fs;
    let tx_traj = PhaseTrajectory::fixed(FC, ppm_tx * 1e-6 * FC);
    let rx_traj = PhaseTrajectory::fixed(FC, ppm_rx * 1e-6 * FC);
    let (fs_tx, fs_rx) = (fs * tx_traj.sample_ratio(), fs * rx_traj.sample_ratio());

    let mut worst: f64 = 0.0;
    for k in TONES {
        let mut medium = Medium::new(params.clone(), seed);
        let rx = medium.add_node(rx_traj.clone(), 0.0);
        let tx = medium.add_node(tx_traj.clone(), 0.0);
        medium.set_link(tx, rx, link.clone());
        // The DAC plays `k/64` cycles per sample at its own rate.
        let cycles = k as f64 / params.fft_size as f64;
        let tone = (0..WINDOW + 50)
            .map(|i| Complex64::cis(2.0 * PI * cycles * i as f64))
            .collect();
        medium.transmit(tx, start_s, tone);
        let heard = medium.render_rx(rx, start_s, WINDOW);

        let freq_hz = cycles * fs_tx;
        let gain = link.freq_response_at(freq_hz);
        let (mut tx_traj, mut rx_traj) = (tx_traj.clone(), rx_traj.clone());
        for (m, &got) in heard.iter().enumerate().take(WINDOW - MARGIN).skip(MARGIN) {
            let since = m as f64 / fs_rx;
            let carrier = tx_traj.phase_at(start_s + since) - rx_traj.phase_at(start_s + since);
            let want = gain * Complex64::cis(2.0 * PI * freq_hz * since + carrier);
            worst = worst.max((got - want).abs() / amplitude);
        }
    }
    worst
}

#[test]
fn a_tone_arrives_with_the_links_frequency_response() {
    let profiles = [
        ("indoor_nlos", MultipathSpec::indoor_nlos()),
        ("indoor_los", MultipathSpec::indoor_los()),
        ("flat", MultipathSpec::flat()),
    ];
    let mut worst_of_all = 0.0f64;
    for (name, spec) in profiles {
        for seed in 1..=4 {
            for ppm in PPM {
                let worst = worst_deviation(spec, seed, ppm);
                assert!(
                    worst <= TOLERANCE,
                    "{name}, seed {seed}, {ppm:?} ppm: {:.1} dB",
                    20.0 * worst.log10()
                );
                worst_of_all = worst_of_all.max(worst);
            }
        }
    }
    eprintln!("tones within {:.1} dB", 20.0 * worst_of_all.log10());
}
