//! Equivalence gate for `Medium::render_rx`.
//!
//! The render is two stages (DESIGN §3.16): a transmission goes through its
//! link's tapped delay line on the transmitter's own sample grid, and the
//! receiver resamples that line at every output sample. Production folds the
//! taps into one FIR, clips both stages to what the window hears and keeps
//! its buffers; this file holds it to two references, kept here and only
//! here, over a seeded corpus of frames × all eight MCS × SNR × CFO/ppm ×
//! {ideal, NLOS, LOS} links — two transmitters with trigger jitter, and
//! bursts straddling both edges of the window:
//!
//! * **The same render written naively** ([`Model::TwoStage`]): the per-tap
//!   kernel formula for both stages, tap by tap, no FIR, no clipping.
//!   Production — whose stage 2 is a sweep over exact affine positions,
//!   where this reference rounds each position through seconds — must
//!   agree per sample to 1e-10 of the signal RMS (measured: 1.3e-11), and
//!   `FrameRx::rx_frame` must return the same payload bytes, MCS and CRC
//!   verdict on both.
//! * **The loop the two stages replaced** ([`Model::PerPath`]): one
//!   interpolation of the transmitted waveform per output sample *and per
//!   tap*. That is a different model, not a different rounding — each path
//!   now passes the 49-tap kernel twice — so the pin is its stated size: on
//!   an ideal link (one tap at zero delay, the unit impulse) the two are the
//!   same to 1e-10; on NLOS/LOS links they differ by at most −60 dB over the
//!   occupied band of the whole record (measured: −63.3 dB at worst, −78 dB
//!   in the median; the difference lives in the guard band, where the kernel
//!   is in its transition band, and on the single samples next to a burst's
//!   abrupt edge), and at most 2 of the 576 verdicts flip (measured: 1).

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

// --- The two reference renders ----------------------------------------------

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

/// Which reference render: see the file header.
#[derive(Clone, Copy)]
enum Model {
    TwoStage,
    PerPath,
}

/// The air of one test case, as every renderer sees it.
struct Scene {
    params: OfdmParams,
    seed: u64,
    /// `(trajectory, noise variance)`; node 0 is the receiver.
    nodes: Vec<(PhaseTrajectory, f64)>,
    /// `links[tx]` is the link from node `tx` to the receiver.
    links: Vec<Option<Link>>,
    sent: Vec<Sent>,
}

/// Lead-in of [`reference_delay_line`]: past one kernel's reach (25).
const PAD: usize = 40;

/// `samples` through `link`'s taps on the transmitter's grid, one kernel
/// evaluation per (entry, tap): entry `j` is `Σ_l g_l·samples(j − PAD −
/// τ_l·fs_tx)`, `PAD` entries of lead-in and as many past the last tap's
/// tail, beyond which the sum is exactly zero.
fn reference_delay_line(samples: &[Complex64], link: &Link, fs_tx: f64) -> Vec<Complex64> {
    let taps = link.fading.taps();
    let tail = (link.fading.max_delay_s() * fs_tx).ceil() as usize;
    (0..samples.len() + tail + 2 * PAD)
        .map(|j| {
            let k = j as f64 - PAD as f64;
            taps.iter()
                .map(|&(tau, g)| g * reference_interpolate_at(samples, k - tau * fs_tx))
                .sum()
        })
        .collect()
}

impl Scene {
    /// Node 0's window rendered by one of the two references. Both draw the
    /// AWGN first, as production does, and evaluate each transmitter's phase
    /// at every output instant.
    fn render_reference(&self, model: Model, start_s: f64, n: usize) -> Vec<Complex64> {
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
            let tx_phases: Vec<f64> = times
                .iter()
                .map(|&t| nodes[sent.tx].0.phase_at(t))
                .collect();
            // What the receiver hears of this transmission at `base_pos`,
            // before the carriers and the link's gain.
            let heard: Box<dyn Fn(f64) -> Complex64> = match model {
                Model::TwoStage => {
                    let line = reference_delay_line(&sent.samples, &link, fs_tx);
                    Box::new(move |base_pos| reference_interpolate_at(&line, base_pos + PAD as f64))
                }
                // The loop as it stood: a per-transmission rejection in
                // seconds, a per-sample window on the first tap's grid, and
                // one kernel per tap.
                Model::PerPath => {
                    let tx_dur = tx_len as f64 / fs_tx;
                    let slack = link.delay_s + link.fading.max_delay_s() + 32.0 / fs;
                    if tx_start > end_s || tx_start + tx_dur + slack < start_s {
                        continue;
                    }
                    let taps = link.fading.taps();
                    let samples = &sent.samples;
                    Box::new(move |base_pos| {
                        if base_pos < -(taps.len() as f64 * 8.0) - 32.0
                            || base_pos > tx_len as f64 + 32.0
                        {
                            return Complex64::ZERO;
                        }
                        let mut acc = Complex64::ZERO;
                        for &(tau, g) in &taps {
                            if g == Complex64::ZERO {
                                continue;
                            }
                            let v = reference_interpolate_at(samples, base_pos - tau * fs_tx);
                            if v != Complex64::ZERO {
                                acc = g.mul_add(v, acc);
                            }
                        }
                        acc
                    })
                }
            };
            for (m, &t) in times.iter().enumerate() {
                let acc = heard((t - tx_start - link.delay_s) * fs_tx);
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

/// What [`check`] saw of one case.
struct Outcome {
    /// The frame decoded from the production render (and, by then, from the
    /// naive two-stage render).
    decoded: bool,
    /// The per-path render's verdict is the other one.
    flipped: bool,
    /// Production − per-path over the occupied band of the whole record,
    /// relative to the per-path render there, dB.
    model_gap_db: f64,
    /// The largest per-sample difference from the naive two-stage render,
    /// relative to the signal RMS.
    naive_gap: f64,
}

/// The energy of `record` in the occupied band, |f| ≤ 26.5 subcarriers: the
/// record zero-padded to a power of two, so the bins interpolate its
/// spectrum.
fn occupied_band_energy(params: &OfdmParams, record: &[Complex64]) -> f64 {
    let mut spectrum = record.to_vec();
    spectrum.resize(record.len().next_power_of_two(), Complex64::ZERO);
    jmb_dsp::fft::fft_in_place(&mut spectrum);
    let n = spectrum.len() as f64;
    let edge = 26.5 / params.fft_size as f64;
    let bins = spectrum.iter().enumerate();
    bins.filter(|&(bin, _)| (bin as f64 / n).min(1.0 - bin as f64 / n) <= edge)
        .map(|(_, v)| v.norm_sqr())
        .sum()
}

/// Renders `case` all three ways and checks the pins of the file header,
/// except the count of flipped verdicts, which is the caller's.
fn check(case: Case) -> Outcome {
    let (scene, start_s, n, payload) = scene(case);
    let want = scene.render_reference(Model::TwoStage, start_s, n);
    let got = scene.render_production(start_s, n);
    let old = scene.render_reference(Model::PerPath, start_s, n);
    assert_eq!((got.len(), old.len()), (want.len(), want.len()));

    let rms = jmb_dsp::complex::mean_power(&want).sqrt();
    let assert_same = |other: &[Complex64], name: &str| {
        for (m, (g, w)) in got.iter().zip(other).enumerate() {
            assert!(
                (*g - *w).abs() <= 1e-10 * rms,
                "{case:?}: sample {m} differs from the {name} render by {:e} of the signal RMS",
                (*g - *w).abs() / rms
            );
        }
    };
    assert_same(&want, "naive two-stage");
    let naive_gap = got
        .iter()
        .zip(&want)
        .map(|(g, w)| (*g - *w).abs() / rms)
        .fold(0.0, f64::max);

    // Both renders drew the same noise, so their difference is the models'.
    let gap: Vec<Complex64> = got.iter().zip(&old).map(|(g, o)| *g - *o).collect();
    let model_gap_db = 10.0
        * (occupied_band_energy(&scene.params, &gap) / occupied_band_energy(&scene.params, &old))
            .log10();
    match case.link {
        LinkKind::Ideal => assert_same(&old, "per-path"),
        LinkKind::Nlos | LinkKind::Los => assert!(
            model_gap_db <= -60.0,
            "{case:?}: {model_gap_db:.1} dB between the models in the occupied band"
        ),
    }

    let rx = FrameRx::new(scene.params.clone());
    let verdict = |samples: &[Complex64]| rx.rx_frame(samples).map(|r| (r.payload, r.mcs));
    let (got, want, old) = (verdict(&got), verdict(&want), verdict(&old));
    assert_eq!(got, want, "{case:?}: decodes differ");
    if let Ok((bytes, mcs)) = &got {
        assert_eq!((bytes, *mcs), (&payload, case.mcs), "{case:?}");
    }
    let flipped = got.is_ok() != old.is_ok();
    if flipped {
        let now = if got.is_ok() { "decodes" } else { "fails" };
        eprintln!("{case:?}: {now} on two stages, the other verdict per path");
    } else {
        assert_eq!(
            got, old,
            "{case:?}: both models decode, to different frames"
        );
    }
    Outcome {
        decoded: got.is_ok(),
        flipped,
        model_gap_db,
        naive_gap,
    }
}

/// Every MCS and link kind once; cheap enough for a debug `cargo test`.
#[test]
fn render_matches_reference_smoke() {
    let all = corpus(1);
    let picked: Vec<Case> = all.iter().copied().step_by(37).collect();
    assert!(picked.len() >= 7);
    for case in picked {
        assert!(!check(case).flipped, "{case:?}");
    }
}

/// The whole corpus: 8 MCS × 3 link kinds × 3 SNRs × 4 clock offsets × 2
/// seeds = 576 frames.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "576 frames through the per-tap kernel, three renders each; run in release"
)]
fn render_matches_reference_corpus() {
    let cases = corpus(2);
    let seen: Vec<Outcome> = cases.iter().map(|&case| check(case)).collect();
    let decoded = seen.iter().filter(|o| o.decoded).count();
    // The gate is only worth its name if it sees both verdicts.
    assert!(
        decoded * 2 > cases.len() && decoded < cases.len(),
        "{decoded} of {} frames decoded",
        cases.len()
    );
    let flipped = seen.iter().filter(|o| o.flipped).count();
    let worst_gap_db = seen.iter().map(|o| o.model_gap_db).fold(f64::MIN, f64::max);
    let naive_gap = seen.iter().map(|o| o.naive_gap).fold(0.0, f64::max);
    eprintln!(
        "{decoded} decoded, {flipped} flipped, models within {worst_gap_db:.1} dB, \
         naive two-stage render within {naive_gap:.2e} of the RMS"
    );
    assert!(flipped <= 2, "{flipped} verdicts differ between the models");
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
        .render_reference(Model::PerPath, 0.0, 100)
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
    let old = scene.render_reference(Model::PerPath, 0.0, 120);
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
