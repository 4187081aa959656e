//! `PhaseTrajectory` keeps no grid: a front cursor walks the grid as far as
//! any query reached and leaves marks behind it, a back cursor answers
//! queries behind the front from where it stands or from the nearest mark,
//! and the last few points answered are kept for repeats. This file holds
//! it, bit for bit, to the implementation that started it all — every grid
//! point in three `Vec`s for the whole simulated time — which lives on here
//! as [`Dense`] and nowhere else. [`Dense`] takes a grid step's two
//! Gaussians from one `standard_normal_pair` (two ziggurat normals), the
//! Wiener increment first, one step at a time; the cursors draw the same
//! normals a batch of steps at a time (`fill_standard_normals`, the pairs'
//! order) — so the comparison holds whatever that sampler is, a change to
//! it moves both sides together, and every batched walk, from the origin,
//! a mark or a cursor, must land on every point the step-by-step one does.
//!
//! The mark spacings are private to the crate (at this writing a fine mark
//! every 256 steps over the last 8 192, a coarse one every 4 096 before
//! that, eight answered points kept); the stretches below straddle each of
//! them and the spans cross tens of coarse marks, so the cases hold
//! whatever they are set to. Besides the generic orders, one case per read
//! pattern the simulator makes behind the front: a second receiver
//! re-reading a render window, a room's three bands asking one oscillator
//! the same questions, and the out-of-band pilots' look-back.

use jmb_channel::oscillator::{OscillatorSpec, PhaseTrajectory};
use jmb_dsp::rng::{standard_normal_pair, JmbRng};

const FC: f64 = 2.437e9;

/// The trajectory as it was: the whole grid, materialised and kept.
#[derive(Clone)]
struct Dense {
    spec: OscillatorSpec,
    grid_dt: f64,
    freq: Vec<f64>,
    cum_phase: Vec<f64>,
    dw: Vec<f64>,
    rng: JmbRng,
}

impl Dense {
    fn with_offset(spec: OscillatorSpec, offset_hz: f64, seed: u64) -> Self {
        Dense {
            spec,
            grid_dt: PhaseTrajectory::GRID_DT,
            freq: vec![offset_hz],
            cum_phase: vec![0.0],
            dw: Vec::new(),
            rng: jmb_dsp::rng::derive_rng(seed, 0x7247),
        }
    }

    fn cfo_hz_at(&mut self, t: f64) -> f64 {
        let idx = self.grid_index(t);
        self.freq[idx]
    }

    fn phase_at(&mut self, t: f64) -> f64 {
        let idx = self.grid_index(t);
        let t_i = idx as f64 * self.grid_dt;
        let frac = (t - t_i) / self.grid_dt;
        self.cum_phase[idx]
            + 2.0 * std::f64::consts::PI * self.freq[idx] * (t - t_i)
            + self.dw[idx] * frac
    }

    fn grid_index(&mut self, t: f64) -> usize {
        let idx = (t / self.grid_dt).floor() as usize;
        while self.freq.len() <= idx + 1 {
            let i = self.freq.len() - 1;
            let f_i = self.freq[i];
            // One pair per grid step, in the cursors' order: the first half
            // is the Wiener increment, the second the drift.
            let sigma_w =
                (2.0 * std::f64::consts::PI * self.spec.phase_noise_linewidth_hz * self.grid_dt)
                    .sqrt();
            let sigma_f = self.spec.drift_hz_per_sqrt_s * self.grid_dt.sqrt();
            let (dw, df) = if sigma_w > 0.0 || sigma_f > 0.0 {
                let (z_w, z_f) = standard_normal_pair(&mut self.rng);
                (z_w * sigma_w, z_f * sigma_f)
            } else {
                (0.0, 0.0)
            };
            self.dw.push(dw);
            self.cum_phase
                .push(self.cum_phase[i] + 2.0 * std::f64::consts::PI * f_i * self.grid_dt + dw);
            self.freq.push(f_i + df);
        }
        idx
    }
}

/// The two implementations side by side.
#[derive(Clone)]
struct Pair {
    cursor: PhaseTrajectory,
    dense: Dense,
}

impl Pair {
    /// Asks both for phase and offset at `t`: same bits or the test ends.
    fn check(&mut self, t: f64) {
        assert_eq!(
            self.cursor.phase_at(t).to_bits(),
            self.dense.phase_at(t).to_bits(),
            "phase_at({t})"
        );
        assert_eq!(
            self.cursor.cfo_hz_at(t).to_bits(),
            self.dense.cfo_hz_at(t).to_bits(),
            "cfo_hz_at({t})"
        );
    }
}

/// One pair per oscillator population, a nonzero offset each.
fn pairs(seed: u64) -> Vec<Pair> {
    [
        OscillatorSpec::usrp2(),
        OscillatorSpec::wifi_worst_case(),
        OscillatorSpec::ideal(),
    ]
    .into_iter()
    .map(|spec| Pair {
        cursor: PhaseTrajectory::with_offset(spec, FC, 1234.5, seed),
        dense: Dense::with_offset(spec, 1234.5, seed),
    })
    .collect()
}

/// The specs every case runs: the two populations, the noiseless walk, and
/// a drift-only and a phase-noise-only walk, which draw both normals of a
/// step and scale one by zero.
fn specs() -> [OscillatorSpec; 5] {
    [
        OscillatorSpec::usrp2(),
        OscillatorSpec::wifi_worst_case(),
        OscillatorSpec::ideal(),
        OscillatorSpec {
            phase_noise_linewidth_hz: 0.0,
            ..OscillatorSpec::usrp2()
        },
        OscillatorSpec {
            drift_hz_per_sqrt_s: 0.0,
            ..OscillatorSpec::wifi_worst_case()
        },
    ]
}

#[test]
fn forward_sweep() {
    for mut p in pairs(1) {
        // 7.3 µs is off the grid: every interval is hit at a moving fraction.
        let mut t = 0.0;
        while t < 0.6 {
            p.check(t);
            t += 7.3e-6 * 13.0;
        }
        // And in leaps longer than the recent span of fine marks.
        for k in 0..12 {
            p.check(0.6 + k as f64 * 0.31);
        }
    }
}

#[test]
fn stepping_back_across_stride_and_coarse_edges() {
    for mut p in pairs(2) {
        p.check(1.0);
        // Back to zero in 3.7 ms steps: through the recent span, over every
        // fine and coarse mark behind it, each step back a restart and each
        // second query a resume.
        let mut t = 1.0;
        while t > 0.0 {
            p.check(t);
            p.check((t - 1.1e-3).max(0.0));
            t -= 3.7e-3;
        }
        p.check(0.0);
        // Forward again past the old front.
        p.check(1.2);
    }
}

#[test]
fn alternating_old_and_new_instants() {
    for mut p in pairs(3) {
        for k in 0..400 {
            let new = 0.5 + k as f64 * 2.3e-3;
            // The look-back wanders over everything drawn so far.
            let old = new * ((k * 37 % 100) as f64 / 100.0);
            p.check(new);
            p.check(old);
            p.check(new - 60e-3);
        }
    }
}

#[test]
fn a_clone_taken_mid_run_goes_its_own_way() {
    for mut p in pairs(4) {
        p.check(0.25);
        p.check(0.01); // moves the original's back cursor far back
        let mut fork = p.clone();
        // The original runs ahead; the clone first looks back, then follows.
        for k in 0..200 {
            p.check(0.25 + k as f64 * 1.9e-3);
        }
        fork.check(0.2);
        fork.check(0.02);
        for k in 0..200 {
            fork.check(0.25 + k as f64 * 1.9e-3);
            // Same instants, so the two also agree with each other.
            let t = 0.25 + k as f64 * 1.9e-3;
            assert_eq!(
                fork.cursor.phase_at(t).to_bits(),
                p.cursor.phase_at(t).to_bits()
            );
        }
    }
}

#[test]
fn five_seconds_with_the_sync_rivals_look_back() {
    // The out-of-band sync rivals' pattern: packet-sized steps forward, and
    // on every header three pilots 25 ms apart behind it, oldest first
    // (each a restart in the recent span) or newest first (each a resume);
    // now and then a query far in the past, outside the span.
    for (n, spec) in specs().into_iter().enumerate() {
        let mut p = Pair {
            cursor: PhaseTrajectory::with_offset(spec, FC, 1234.5, 5 + 10 * n as u64),
            dense: Dense::with_offset(spec, 1234.5, 5 + 10 * n as u64),
        };
        let mut t = 0.0;
        let mut k = 0u64;
        while t < 5.0 {
            p.check(t);
            let mut backs = [3, 2, 1];
            if k % 2 == 1 {
                backs.reverse();
            }
            for back in backs {
                p.check((t - back as f64 * 25e-3).max(0.0));
            }
            if k.is_multiple_of(97) {
                p.check(t * 0.37);
            }
            t += if n < 2 { 1.3e-3 } else { 4.1e-3 };
            k += 1;
        }
    }
}

#[test]
fn two_receivers_re_read_each_render_window() {
    // The sample render: the first receiver's render reads a transmitter's
    // oscillator once per grid interval across the window, at its own
    // instants; the second receiver's render then reads the same window
    // again at instants shifted by its own clock, from behind the front.
    // Windows of a joint frame's length, 0.3 to 6 ms, with gaps between.
    let g = PhaseTrajectory::GRID_DT;
    for (n, spec) in specs().into_iter().enumerate() {
        let mut p = Pair {
            cursor: PhaseTrajectory::with_offset(spec, FC, -321.0, 20 + n as u64),
            dense: Dense::with_offset(spec, -321.0, 20 + n as u64),
        };
        let mut start = 0.0;
        for w in 0..40usize {
            let len = 30 + (w * 97) % 570;
            for shift in [0.13, 0.71] {
                for k in 0..len {
                    p.check(start + (k as f64 + shift) * g);
                }
            }
            start += (len + 40 + (w * 53) % 300) as f64 * g;
        }
    }
}

#[test]
fn three_bands_ask_one_oscillator_the_same_questions() {
    // A room's three bands: each builds its network on the same trajectory
    // and asks it the same instants in the same order — a measurement, the
    // sync headers, look-backs, a joint transmit — from the room's start.
    // Short sequences are answered from the points kept; long ones (more
    // distinct instants than are kept) walk the back cursor again.
    for (n, spec) in specs().into_iter().enumerate() {
        let seed = 30 + n as u64;
        let mut p = Pair {
            cursor: PhaseTrajectory::with_offset(spec, FC, 77.25, seed),
            dense: Dense::with_offset(spec, 77.25, seed),
        };
        let mut start = 0.0;
        for (room, distinct) in [3usize, 6, 8, 9, 12, 40].into_iter().enumerate() {
            let questions: Vec<f64> = (0..2 * distinct)
                .map(|q| {
                    // Mostly forward, with repeats and steps back.
                    let at = (q * 7 + room) % distinct;
                    start + at as f64 * 0.37e-3 + (q % 3) as f64 * 1.3e-6
                })
                .collect();
            for _band in 0..3 {
                for &t in &questions {
                    p.check(t);
                }
            }
            start += 0.2 + room as f64 * 0.05;
        }
    }
}

#[test]
fn stretches_of_every_length_around_the_chunk_stride_and_coarse_edges() {
    // Each query asks for a stretch of new grid points ending at its own
    // point: lengths around the walk's batch (32 steps), the fine-mark
    // stride (256), the coarse-mark spacing (4 096) and the recent span
    // (8 192), so stretches end mid-batch, on a batch edge and across a
    // mark; then the look-back walks the back cursor over the same
    // stretches, from fine marks and coarse ones.
    let stretches = [
        1, 2, 31, 32, 33, 63, 64, 65, 127, 255, 256, 257, 1000, 4095, 4096, 4097, 8191, 8192, 8193,
        9000,
    ];
    let g = PhaseTrajectory::GRID_DT;
    for (n, spec) in specs().into_iter().enumerate() {
        let mut p = Pair {
            cursor: PhaseTrajectory::with_offset(spec, FC, -812.25, 6 + n as u64),
            dense: Dense::with_offset(spec, -812.25, 6 + n as u64),
        };
        let mut idx = 0usize;
        for &stretch in stretches.iter().cycle().take(3 * stretches.len()) {
            idx += stretch;
            p.check((idx as f64 + 0.5) * g);
        }
        // Behind the front: from the start, a stretch at a time, the back
        // cursor resuming or restarting at whichever mark is nearer.
        let mut back = 0usize;
        for &stretch in &stretches {
            back += stretch;
            p.check((back as f64 + 0.25) * g);
        }
        // And backwards from the front, each query a restart.
        let mut back = idx;
        for &stretch in &stretches {
            back -= stretch;
            p.check((back as f64 + 0.75) * g);
        }
        p.check((idx as f64 + 40_000.5) * g);
    }
}
