//! Equivalence gate for `Medium::render_rx`.
//!
//! The render loop was rewritten around a faster interpolation kernel
//! (`jmb_dsp::delay`, identity-based weights), a borrowed link, one clipped
//! output range per transmission and scratch buffers owned by the medium.
//! Sample values move by ulps, so the pin is behavioural: over a seeded corpus
//! of frames × all eight MCS × SNR × CFO/ppm × {ideal, NLOS, LOS} links — two
//! transmitters with trigger jitter, and bursts straddling both edges of the
//! window — the production renderer and the loop it replaced (kept here, and
//! only here, with the per-tap kernel it called) must agree per sample to
//! 1e-10 of the signal RMS, and `FrameRx::rx_frame` must return the same
//! payload bytes, MCS and CRC verdict on both.

use jmb_channel::oscillator::OscillatorSpec;
use jmb_channel::{Link, Multipath, MultipathSpec, PhaseTrajectory};
use jmb_dsp::rng::{complex_gaussian, rng_from_seed, JmbRng};
use jmb_dsp::Complex64;
use jmb_phy::frame::{FrameRx, FrameTx};
use jmb_phy::params::OfdmParams;
use jmb_phy::preamble;
use jmb_phy::rates::Mcs;
use jmb_sim::Medium;
use rand::Rng;
use std::f64::consts::PI;

const FC: f64 = 2.437e9;

// --- The renderer as it stood before the rewrite ---------------------------

const HALF_TAPS: isize = 24;

fn reference_interpolate_at(input: &[Complex64], pos: f64) -> Complex64 {
    let base = pos.floor();
    let frac = pos - base;
    let base = base as isize;
    let mut acc = Complex64::ZERO;
    for m in -HALF_TAPS..=HALF_TAPS {
        let idx = base + m;
        if idx < 0 || idx as usize >= input.len() {
            continue;
        }
        let t = m as f64 - frac;
        let sinc = if t.abs() < 1e-12 {
            1.0
        } else {
            (PI * t).sin() / (PI * t)
        };
        let hann = 0.5 * (1.0 + (PI * t / (HALF_TAPS as f64 + 1.0)).cos());
        acc += input[idx as usize].scale(sinc * hann);
    }
    acc
}

struct Sent {
    tx: usize,
    start_s: f64,
    samples: Vec<Complex64>,
}

/// The air of one test case, as both renderers see it.
struct Scene {
    params: OfdmParams,
    seed: u64,
    /// `(trajectory, noise variance)`; node 0 is the receiver.
    nodes: Vec<(PhaseTrajectory, f64)>,
    /// `links[tx]` is the link from node `tx` to the receiver.
    links: Vec<Option<Link>>,
    sent: Vec<Sent>,
}

impl Scene {
    /// `Medium::render_rx` for node 0 as it was before the rewrite: the
    /// per-transmission quick rejection, the per-sample `base_pos` window,
    /// phases for every output instant, and the per-tap kernel.
    fn render_reference(&self, start_s: f64, n: usize) -> Vec<Complex64> {
        let mut nodes = self.nodes.clone();
        let mut rng: JmbRng = rng_from_seed(self.seed);
        let fs = self.params.sample_rate();
        let ts_rx = 1.0 / (fs * nodes[0].0.sample_ratio());
        let times: Vec<f64> = (0..n).map(|m| start_s + m as f64 * ts_rx).collect();
        let rx_phases: Vec<f64> = times.iter().map(|&t| nodes[0].0.phase_at(t)).collect();
        let noise_var = nodes[0].1;
        let mut out: Vec<Complex64> = (0..n)
            .map(|_| complex_gaussian(&mut rng, noise_var))
            .collect();
        let end_s = start_s + n as f64 * ts_rx;
        for sent in &self.sent {
            let Some(link) = self.links[sent.tx].clone() else {
                continue;
            };
            let (tx_start, tx_len) = (sent.start_s, sent.samples.len());
            let fs_tx = fs * nodes[sent.tx].0.sample_ratio();
            let tx_dur = tx_len as f64 / fs_tx;
            let slack = link.delay_s + link.fading.max_delay_s() + 32.0 / fs;
            if tx_start > end_s || tx_start + tx_dur + slack < start_s {
                continue;
            }
            let tx_phases: Vec<f64> = times
                .iter()
                .map(|&t| nodes[sent.tx].0.phase_at(t))
                .collect();
            let taps = link.fading.taps();
            for (m, &t) in times.iter().enumerate() {
                let base_pos = (t - tx_start - link.delay_s) * fs_tx;
                if base_pos < -(taps.len() as f64 * 8.0) - 32.0 || base_pos > tx_len as f64 + 32.0 {
                    continue;
                }
                let mut acc = Complex64::ZERO;
                for &(tau, g) in &taps {
                    if g == Complex64::ZERO {
                        continue;
                    }
                    let v = reference_interpolate_at(&sent.samples, base_pos - tau * fs_tx);
                    if v != Complex64::ZERO {
                        acc = g.mul_add(v, acc);
                    }
                }
                if acc != Complex64::ZERO {
                    let rot = Complex64::cis(tx_phases[m] - rx_phases[m]);
                    out[m] = (link.gain * rot).mul_add(acc, out[m]);
                }
            }
        }
        out
    }

    /// The same air through the production medium.
    fn medium(&self) -> Medium {
        let mut medium = Medium::new(self.params.clone(), self.seed);
        let ids: Vec<_> = self
            .nodes
            .iter()
            .map(|(traj, noise_var)| medium.add_node(traj.clone(), *noise_var))
            .collect();
        for (tx, link) in self.links.iter().enumerate() {
            if let Some(link) = link {
                medium.set_link(ids[tx], ids[0], link.clone());
            }
        }
        for sent in &self.sent {
            medium.transmit(ids[sent.tx], sent.start_s, sent.samples.clone());
        }
        medium
    }

    fn render_production(&self, start_s: f64, n: usize) -> Vec<Complex64> {
        self.medium().render_rx(jmb_sim::NodeId(0), start_s, n)
    }
}

// --- The corpus --------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum LinkKind {
    Ideal,
    Nlos,
    Los,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    mcs: Mcs,
    link: LinkKind,
    snr_db: f64,
    /// Carrier offset of the transmitters; their sampling clocks are off by
    /// the same ppm (one crystal per node).
    cfo_hz: f64,
    seed: u64,
}

/// Where the frame under test starts inside the rendered window, in samples.
const LEAD_IN: usize = 120;
/// Window samples after the frame's end.
const LEAD_OUT: usize = 360;

fn draw_link(kind: LinkKind, delay_s: f64, gain: Complex64, rng: &mut JmbRng) -> Link {
    let fading = match kind {
        LinkKind::Ideal => Multipath::identity(),
        LinkKind::Nlos => Multipath::new(MultipathSpec::indoor_nlos(), rng),
        LinkKind::Los => Multipath::new(MultipathSpec::indoor_los(), rng),
    };
    Link::new(gain, delay_s, fading)
}

/// One case's air: two transmitters send the same frame a trigger jitter
/// apart (the second 6 dB down and 40 Hz off the first, as a slave AP after
/// its correction); the first also left a burst on the air that straddles the
/// window's start, and the second begins one that straddles its end. Returns
/// the scene, the window `(start_s, n)` and the payload.
fn scene(case: Case) -> (Scene, f64, usize, Vec<u8>) {
    let params = OfdmParams::default();
    let fs = params.sample_rate();
    let mut rng = rng_from_seed(case.seed);
    let payload: Vec<u8> = (0..40 + rng.gen_range(0..120usize))
        .map(|_| rng.gen())
        .collect();
    let wave = FrameTx::new(params.clone())
        .tx_frame(case.mcs, &payload)
        .expect("frame fits");
    let burst = preamble::preamble(&params);

    // Oscillators: even seeds run on noiseless crystals, odd ones on the
    // USRP2 profile (phase noise and drift, the stochastic trajectory grid).
    let spec = if case.seed.is_multiple_of(2) {
        OscillatorSpec::ideal()
    } else {
        OscillatorSpec::usrp2()
    };
    let traj = |offset_hz: f64, salt: u64| {
        PhaseTrajectory::with_offset(spec, FC, offset_hz, case.seed ^ salt)
    };
    let signal_power = jmb_dsp::complex::mean_power(&wave);
    let noise_var = signal_power / jmb_dsp::stats::db_to_lin(case.snr_db);
    let nodes = vec![
        (traj(-500.0, 0xA), noise_var),
        (traj(case.cfo_hz, 0xB), 0.0),
        (traj(case.cfo_hz + 40.0, 0xC), 0.0),
    ];
    let links = vec![
        None,
        Some(draw_link(
            case.link,
            rng.gen_range(5e-9..90e-9),
            Complex64::from_polar(1.0, rng.gen_range(-PI..PI)),
            &mut rng,
        )),
        Some(draw_link(
            case.link,
            rng.gen_range(5e-9..90e-9),
            Complex64::from_polar(0.5, rng.gen_range(-PI..PI)),
            &mut rng,
        )),
    ];

    // The window opens a little after 1 ms, off the sample grid.
    let start_s = 1e-3 + rng.gen_range(0.0..1.0) / fs;
    let n = LEAD_IN + wave.len() + LEAD_OUT;
    let at = |sample: f64| start_s + sample / fs;
    let jitter_s = rng.gen_range(0.0..60e-9);
    let sent = vec![
        // Ends 15–40 samples into the window: only its tail is heard.
        Sent {
            tx: 1,
            start_s: at(rng.gen_range(15.0..40.0) - burst.len() as f64),
            samples: burst.clone(),
        },
        Sent {
            tx: 1,
            start_s: at(LEAD_IN as f64),
            samples: wave.clone(),
        },
        Sent {
            tx: 2,
            start_s: at(LEAD_IN as f64) + jitter_s,
            samples: wave.clone(),
        },
        // Starts 20–200 samples before the window closes: only its head.
        Sent {
            tx: 2,
            start_s: at(n as f64 - rng.gen_range(20.0..200.0)),
            samples: burst,
        },
    ];
    let scene = Scene {
        params,
        seed: case.seed,
        nodes,
        links,
        sent,
    };
    (scene, start_s, n, payload)
}

fn corpus(seeds_per_shape: u64) -> Vec<Case> {
    let mut cases = Vec::new();
    let mut seed = 1u64;
    for mcs in Mcs::ALL {
        for link in [LinkKind::Ideal, LinkKind::Nlos, LinkKind::Los] {
            for snr_db in [12.0, 22.0, 35.0] {
                // 0 / 0.5 / −2 / +10 ppm at 2.437 GHz.
                for cfo_hz in [0.0, 1_218.5, -4_874.0, 24_370.0] {
                    for _ in 0..seeds_per_shape {
                        cases.push(Case {
                            mcs,
                            link,
                            snr_db,
                            cfo_hz,
                            seed,
                        });
                        seed += 1;
                    }
                }
            }
        }
    }
    cases
}

/// Renders `case` both ways and checks the two pins. Returns whether the
/// frame decoded (the same on both, by then).
fn check(case: Case) -> bool {
    let (scene, start_s, n, payload) = scene(case);
    let want = scene.render_reference(start_s, n);
    let got = scene.render_production(start_s, n);
    assert_eq!(got.len(), want.len());

    let rms = jmb_dsp::complex::mean_power(&want).sqrt();
    for (m, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(
            (*g - *w).abs() <= 1e-10 * rms,
            "{case:?}: sample {m} differs by {:e} of the signal RMS",
            (*g - *w).abs() / rms
        );
    }

    let rx = FrameRx::new(scene.params.clone());
    let verdict = |samples: &[Complex64]| rx.rx_frame(samples).map(|r| (r.payload, r.mcs));
    let (got, want) = (verdict(&got), verdict(&want));
    assert_eq!(got, want, "{case:?}: decodes differ");
    if let Ok((bytes, mcs)) = &got {
        assert_eq!((bytes, *mcs), (&payload, case.mcs), "{case:?}");
    }
    got.is_ok()
}

/// Every MCS and link kind once; cheap enough for a debug `cargo test`.
#[test]
fn render_matches_reference_smoke() {
    let all = corpus(1);
    let picked: Vec<Case> = all.iter().copied().step_by(37).collect();
    assert!(picked.len() >= 7);
    for case in picked {
        check(case);
    }
}

/// The whole corpus: 8 MCS × 3 link kinds × 3 SNRs × 4 clock offsets × 2
/// seeds = 576 frames.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "576 frames through the old kernel; run in release"
)]
fn render_matches_reference_corpus() {
    let cases = corpus(2);
    let decoded = cases.iter().filter(|&&case| check(case)).count();
    // The gate is only worth its name if it sees both verdicts.
    assert!(
        decoded * 2 > cases.len() && decoded < cases.len(),
        "{decoded} of {} frames decoded",
        cases.len()
    );
}

// --- The support rule --------------------------------------------------------

/// A window rendered in two halves hears what it hears rendered whole, also
/// from a transmission that starts just after the first half closes: its
/// precursor (the band-limited pulse's rise before the first sample) falls in
/// the first half. The per-transmission rejection used to drop it there while
/// the whole-window render kept it.
#[test]
fn split_window_hears_the_precursor() {
    let params = OfdmParams::default();
    let fs = params.sample_rate();
    let wave = preamble::preamble(&params);
    let mut rng = rng_from_seed(9);
    let scene = Scene {
        params,
        seed: 9,
        nodes: vec![
            (PhaseTrajectory::fixed(FC, 0.0), 0.0),
            (PhaseTrajectory::fixed(FC, 0.0), 0.0),
        ],
        links: vec![
            None,
            Some(draw_link(LinkKind::Nlos, 0.0, Complex64::ONE, &mut rng)),
        ],
        // Starts 1.4 samples after sample 99, the last of the first half.
        sent: vec![Sent {
            tx: 1,
            start_s: 100.4 / fs,
            samples: wave,
        }],
    };
    let whole = scene.render_production(0.0, 300);
    let first = scene.render_production(0.0, 100);
    let second = scene.render_production(100.0 / fs, 200);
    let peak = whole.iter().map(|v| v.abs()).fold(0.0, f64::max);
    assert!(
        whole[99].abs() > 0.05 * peak,
        "no precursor to speak of: {} of peak {peak}",
        whole[99].abs()
    );
    for (m, (a, b)) in whole.iter().zip(first.iter().chain(&second)).enumerate() {
        assert!((*a - *b).abs() <= 1e-9 * peak, "sample {m}: {a} vs {b}");
    }
    // The old quick rejection heard nothing in the first half.
    assert!(scene
        .render_reference(0.0, 100)
        .iter()
        .all(|&v| v == Complex64::ZERO));
}

/// A delay spread longer than eight samples: the old per-sample window
/// stopped at `tx_len + 32` on the first tap's grid and cut the late taps'
/// tails short; the support rule carries the last tap's delay.
#[test]
fn long_delay_spread_keeps_its_tail() {
    let params = OfdmParams::default();
    let fs = params.sample_rate();
    let spec = MultipathSpec {
        n_taps: 4,
        tap_spacing_s: 5.0 / fs,
        rms_delay_spread_s: 10.0 / fs,
        rician_k_db: None,
        coherence_time_s: f64::INFINITY,
    };
    let mut rng = rng_from_seed(4);
    // Half a sample of propagation delay keeps positions off the sample
    // grid, where the kernel's tails are not at their zero crossings.
    let link = Link::new(Complex64::ONE, 0.5 / fs, Multipath::new(spec, &mut rng));
    let taps = link.fading.taps();
    let wave = vec![Complex64::ONE; 50];
    let scene = Scene {
        params,
        seed: 4,
        nodes: vec![
            (PhaseTrajectory::fixed(FC, 0.0), 0.0),
            (PhaseTrajectory::fixed(FC, 0.0), 0.0),
        ],
        links: vec![None, Some(link)],
        sent: vec![Sent {
            tx: 1,
            start_s: 0.0,
            samples: wave.clone(),
        }],
    };
    let got = scene.render_production(0.0, 120);
    let old = scene.render_reference(0.0, 120);
    // Output sample 84 is position 83.5 on the first tap's grid — past the
    // old window's 50 + 32 — but 73.5 and 68.5 on the last two taps', whose
    // kernels still reach the waveform's last sample at 49.
    assert_eq!(old[84], Complex64::ZERO);
    let want: Complex64 = taps
        .iter()
        .enumerate()
        .map(|(l, &(_, g))| g * reference_interpolate_at(&wave, 83.5 - 5.0 * l as f64))
        .sum();
    assert!(want.abs() > 1e-4, "{want}");
    assert!(
        (got[84] - want).abs() <= 1e-6 * want.abs(),
        "{} vs {want}",
        got[84]
    );
    // Where the old window was open the two agree.
    for m in 0..=82 {
        assert!((got[m] - old[m]).abs() <= 1e-10, "sample {m}");
    }
    // And nothing is heard past the last tap's reach: 49 + 24 + 15 + ½.
    assert_ne!(got[89], Complex64::ZERO);
    assert!(got[90..].iter().all(|&v| v == Complex64::ZERO));
}
