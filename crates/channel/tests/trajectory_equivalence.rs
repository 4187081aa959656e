//! `PhaseTrajectory` keeps a window of recent grid points and redraws older
//! ones from per-block marks. This file holds it, bit for bit, to the
//! implementation it replaced — every grid point in three `Vec`s for the
//! whole simulated time — which lives on here as [`Dense`] and nowhere else.
//! [`Dense`] takes a grid step's two Gaussians from one
//! `standard_normal_pair` (two ziggurat normals), the Wiener increment
//! first, one step at a time; the windowed walk draws the same normals a
//! chunk of steps at a time (`fill_standard_normals`, the pairs' order) —
//! so the comparison holds whatever that sampler is, a change to it moves
//! both sides together, and the chunked walk must land on every point the
//! step-by-step one does.
//!
//! The block length is private to the crate (≈ 41 ms at this writing, the
//! window two to three of them); the spans below cross tens of blocks so the
//! cases hold whatever it is set to.

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
            // One pair per grid step, in the windowed walk's order: the
            // first half is the Wiener increment, the second the drift.
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
    windowed: PhaseTrajectory,
    dense: Dense,
}

impl Pair {
    /// Asks both for phase and offset at `t`: same bits or the test ends.
    fn check(&mut self, t: f64) {
        assert_eq!(
            self.windowed.phase_at(t).to_bits(),
            self.dense.phase_at(t).to_bits(),
            "phase_at({t})"
        );
        assert_eq!(
            self.windowed.cfo_hz_at(t).to_bits(),
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
        windowed: PhaseTrajectory::with_offset(spec, FC, 1234.5, seed),
        dense: Dense::with_offset(spec, 1234.5, seed),
    })
    .collect()
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
        // And in leaps longer than the whole window.
        for k in 0..12 {
            p.check(0.6 + k as f64 * 0.31);
        }
    }
}

#[test]
fn stepping_back_across_block_edges_and_out_of_the_window() {
    for mut p in pairs(2) {
        p.check(1.0);
        // Back to zero in 3.7 ms steps: through the window, over every block
        // edge behind it, each older block redrawn once and then re-read.
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
        p.check(0.01); // leaves a redrawn block in the original
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
                fork.windowed.phase_at(t).to_bits(),
                p.windowed.phase_at(t).to_bits()
            );
        }
    }
}

#[test]
fn five_seconds_with_the_sync_rivals_look_back() {
    // The shape of a long cell: packet-sized steps forward, each followed by
    // the out-of-band strategies' three look-backs of 25 ms, and now and
    // then a query far in the past.
    for mut p in pairs(5) {
        let mut t = 0.0;
        let mut k = 0u64;
        while t < 5.0 {
            p.check(t);
            for back in 1..=3 {
                p.check((t - back as f64 * 25e-3).max(0.0));
            }
            if k.is_multiple_of(97) {
                p.check(t * 0.37);
            }
            t += 4.1e-3;
            k += 1;
        }
    }
}

#[test]
fn stretches_of_every_length_around_the_chunk_and_the_block_edge() {
    // Each query asks for a stretch of new grid points ending at its own
    // point: lengths around the walk's chunk (a few dozen steps) and the
    // block (≈ 4 096), so stretches end mid-chunk, on a chunk edge and
    // across a block edge; then the look-back redraws old blocks in the
    // same stretches. A drift-only and a phase-noise-only walk draw both
    // normals of a step and scale one by zero.
    let specs = [
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
    ];
    let stretches = [
        1, 2, 31, 32, 33, 63, 64, 65, 127, 1000, 4095, 4096, 4097, 9000,
    ];
    let g = PhaseTrajectory::GRID_DT;
    for (n, spec) in specs.into_iter().enumerate() {
        let mut p = Pair {
            windowed: PhaseTrajectory::with_offset(spec, FC, -812.25, 6 + n as u64),
            dense: Dense::with_offset(spec, -812.25, 6 + n as u64),
        };
        let mut idx = 0usize;
        for &stretch in stretches.iter().cycle().take(3 * stretches.len()) {
            idx += stretch;
            p.check((idx as f64 + 0.5) * g);
        }
        // Out of the window: every old block is redrawn from its mark, a
        // stretch at a time, and the front moves on again.
        let mut back = 0usize;
        for &stretch in &stretches {
            back += stretch;
            p.check((back as f64 + 0.25) * g);
        }
        p.check((idx as f64 + 40_000.5) * g);
    }
}
