//! Free-running oscillator models.
//!
//! "The transmitters have independent oscillators, which are bound to have
//! differences in their carrier frequencies. […] the drift between their
//! oscillators will make the signals rotate at different speeds relative to
//! each other, causing the phases to diverge and hence preventing
//! beamforming." (§1)
//!
//! This module is the software stand-in for the USRP2's crystal: each device
//! draws a ppm offset within a tolerance (802.11 mandates ±20 ppm), its
//! sampling clock is locked to the *same* crystal (so CFO and SFO are
//! proportional, as on real hardware), and its phase accumulates Wiener
//! phase noise plus a slow random-walk drift of the offset itself.
//!
//! The numbers in §1 fall straight out of this model: a 10 Hz error in a
//! CFO estimate grows to `2π·10·5.5e-3 ≈ 0.35 rad` (20°) in 5.5 ms.

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

use jmb_dsp::rng::{fill_standard_normals, JmbRng};
use rand::Rng;
use std::collections::VecDeque;

/// Static description of an oscillator population.
#[derive(Debug, Clone, Copy)]
pub struct OscillatorSpec {
    /// Maximum |offset| in ppm; each device draws uniformly in ±this.
    /// 802.11 tolerance is 20 ppm; decent TCXOs (like the USRP2's) are ~2.5.
    pub tolerance_ppm: f64,
    /// Lorentzian phase-noise linewidth in Hz (Wiener phase variance grows
    /// as `2π·linewidth·Δt`). ~1 Hz is a reasonable integrated figure for a
    /// multiplied crystal at 2.4 GHz.
    pub phase_noise_linewidth_hz: f64,
    /// Standard deviation of the offset's random walk in Hz/√s — models slow
    /// thermal drift. ("CFOs do not change significantly over time", §5.3,
    /// so this is small but nonzero.)
    pub drift_hz_per_sqrt_s: f64,
}

impl OscillatorSpec {
    /// A USRP2-class TCXO (the paper's hardware): ±2.5 ppm. The effective
    /// linewidth (0.05 Hz) corresponds to ~1° of integrated phase wander
    /// over a millisecond — TCXO-grade close-in phase noise at 2.4 GHz.
    pub fn usrp2() -> Self {
        OscillatorSpec {
            tolerance_ppm: 2.5,
            phase_noise_linewidth_hz: 0.05,
            drift_hz_per_sqrt_s: 2.0,
        }
    }

    /// A worst-case 802.11-compliant crystal: ±20 ppm, noisier close-in.
    pub fn wifi_worst_case() -> Self {
        OscillatorSpec {
            tolerance_ppm: 20.0,
            phase_noise_linewidth_hz: 0.2,
            drift_hz_per_sqrt_s: 5.0,
        }
    }

    /// An ideal oscillator (zero offset, zero noise) for calibration tests.
    pub fn ideal() -> Self {
        OscillatorSpec {
            tolerance_ppm: 0.0,
            phase_noise_linewidth_hz: 0.0,
            drift_hz_per_sqrt_s: 0.0,
        }
    }
}

/// One device's oscillator, as a *random-access* phase trajectory.
///
/// The radio medium evaluates a node's phase on many interleaved timelines
/// (one per link), so it needs `phase_at(t)` for arbitrary `t` — returning
/// the *same* answer for the same `t` every time.
///
/// `PhaseTrajectory` achieves that by drawing the stochastic part of the
/// phase (Wiener phase noise + offset random walk) on a lazy fixed grid from
/// a private RNG, then interpolating. It keeps no grid, only the eight
/// points it answered that were read last: a front cursor walks as far as
/// any query reached, leaving a `Mark` every `Self::STRIDE` steps over
/// the last `Self::RECENT` (≥ 80 ms) and one every `Self::COARSE`
/// before that. A query behind the front that is not one of those resumes a back
/// cursor, or restarts it from the nearest mark — same draws in the same
/// order, so two queries of the same instant always agree, whatever was
/// asked in between, and memory grows with simulated time by one 48-byte
/// mark per 41 ms.
#[derive(Debug, Clone)]
pub struct PhaseTrajectory {
    carrier_freq: f64,
    step: GridStep,
    initial_offset_hz: f64,
    /// The walk as far as any query reached.
    front: Cursor,
    /// The walk behind the front, where the last query behind it left it.
    back: Cursor,
    /// Where the back cursor restarts from.
    marks: Marks,
    /// The points the walks answered that were read last.
    answered: Answered,
}

/// One drawn grid point: the walk's state there and the Wiener increment
/// over the interval that follows it.
#[derive(Debug, Clone, Copy, Default)]
struct GridPoint {
    /// Frequency offset, Hz.
    freq: f64,
    /// Cumulative phase error, radians.
    cum_phase: f64,
    /// Wiener increment *within* the following interval (applied linearly).
    dw: f64,
}

/// One grid interval of a [`PhaseTrajectory`]: `[start, start + GRID_DT)`,
/// inside which the phase is the grid point's phase plus a constant rate
/// times the time since the point — the grid walk is interpolated linearly.
#[derive(Debug, Clone, Copy)]
pub struct PhaseInterval {
    index: usize,
    start_s: f64,
    dt: f64,
    point: GridPoint,
}

impl PhaseInterval {
    /// The interval's index on the grid (`⌊t / GRID_DT⌋` of any `t` in it).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Whether `t` falls in this interval, by the rule
    /// [`PhaseTrajectory::phase_at`] picks an interval with.
    pub fn contains(&self, t: f64) -> bool {
        t >= 0.0 && (t / self.dt).floor() as usize == self.index
    }

    /// The phase at `t`, radians — [`PhaseTrajectory::phase_at`] bit for
    /// bit for any `t` inside the interval, and the interval's affine
    /// phase extended beyond it.
    pub fn phase_at(&self, t: f64) -> f64 {
        let p = &self.point;
        let frac = (t - self.start_s) / self.dt;
        p.cum_phase + 2.0 * std::f64::consts::PI * p.freq * (t - self.start_s) + p.dw * frac
    }

    /// The phase rate inside the interval, rad/s: the carrier offset's
    /// `2π·f` plus the Wiener increment spread over the interval.
    pub fn rate(&self) -> f64 {
        2.0 * std::f64::consts::PI * self.point.freq + self.point.dw / self.dt
    }
}

/// The walk on arriving at a grid point, before that point's draws:
/// everything after it follows from these three.
#[derive(Debug, Clone)]
struct Mark {
    freq: f64,
    cum_phase: f64,
    rng: JmbRng,
}

/// What one grid step of a trajectory draws with, fixed at construction.
#[derive(Debug, Clone, Copy)]
struct GridStep {
    /// Grid spacing, seconds.
    dt: f64,
    /// 1σ of the Wiener increment over one step, `√(2π·linewidth·dt)` rad.
    sigma_w: f64,
    /// 1σ of the offset's random-walk step, `drift·√dt` Hz.
    sigma_f: f64,
}

/// A walker on the grid: the walk on arriving at point `next`.
#[derive(Debug, Clone)]
struct Cursor {
    at: Mark,
    next: usize,
    /// Grid steps drawn so far.
    #[cfg(test)]
    drawn: usize,
}

impl Cursor {
    fn starting_at(next: usize, mark: &Mark) -> Self {
        Cursor {
            at: mark.clone(),
            next,
            #[cfg(test)]
            drawn: 0,
        }
    }

    /// Walks through grid point `i` (at or past `next`) and returns it. A
    /// grid step is two ziggurat normals, one
    /// [`standard_normal_pair`](jmb_dsp::rng::standard_normal_pair): the
    /// first scaled to the Wiener increment, the second to the offset's
    /// random-walk step (a noiseless walk draws nothing and steps by
    /// `0 · 0`). The walk is noise, not deployment: the trajectory's offset
    /// is drawn by [`PhaseTrajectory::new`] before any of it.
    ///
    /// The normals come up to [`PhaseTrajectory::CHUNK`] steps at a time
    /// from [`fill_standard_normals`], in the pairs' order: bit for bit the
    /// step-by-step walk, and never a draw past point `i`. With `marks`
    /// (the front's walk) it leaves a mark on every multiple of
    /// [`PhaseTrajectory::STRIDE`] it draws from.
    fn walk_through(
        &mut self,
        i: usize,
        step: &GridStep,
        mut marks: Option<&mut Marks>,
    ) -> GridPoint {
        const STRIDE: usize = PhaseTrajectory::STRIDE;
        let noisy = step.sigma_w > 0.0 || step.sigma_f > 0.0;
        let mut z = [0.0; 2 * PhaseTrajectory::CHUNK];
        let mut last = GridPoint::default();
        while self.next <= i {
            let into_stride = self.next % STRIDE;
            if into_stride == 0 {
                if let Some(marks) = marks.as_deref_mut() {
                    marks.leave(self.next, &self.at);
                }
            }
            let n = (i + 1 - self.next)
                .min(PhaseTrajectory::CHUNK)
                .min(STRIDE - into_stride);
            let z = &mut z[..2 * n];
            if noisy {
                fill_standard_normals(&mut self.at.rng, z);
            }
            let at = &mut self.at;
            for z in z.chunks_exact(2) {
                let (dw, df) = (z[0] * step.sigma_w, z[1] * step.sigma_f);
                last = GridPoint {
                    freq: at.freq,
                    cum_phase: at.cum_phase,
                    dw,
                };
                at.cum_phase = at.cum_phase + 2.0 * std::f64::consts::PI * at.freq * step.dt + dw;
                at.freq += df;
            }
            self.next += n;
            #[cfg(test)]
            {
                self.drawn += n;
            }
        }
        last
    }
}

/// The [`Answered::LEN`] points the walks answered that were read last, by
/// grid index: a query that repeats one — a second read of an instant, a
/// room's next band asking what the first asked, a look-back pinned at
/// t = 0 — walks nothing.
#[derive(Debug, Clone)]
struct Answered {
    /// `(index, point)`, the most recently read first; an index of
    /// `usize::MAX` is an empty slot, which no query behind the front can
    /// ask for.
    points: [(usize, GridPoint); Answered::LEN],
}

impl Answered {
    const LEN: usize = 8;

    /// Grid point `i`, if kept; a hit becomes the most recently read.
    fn get(&mut self, i: usize) -> Option<GridPoint> {
        let at = self.points.iter().position(|p| p.0 == i)?;
        self.points[..=at].rotate_right(1);
        Some(self.points[0].1)
    }

    /// Keeps `point` as grid point `i`, in place of the least recently read,
    /// and hands it back.
    fn put(&mut self, i: usize, point: GridPoint) -> GridPoint {
        self.points.rotate_right(1);
        self.points[0] = (i, point);
        point
    }
}

/// The front's marks: the walk at every multiple of
/// [`PhaseTrajectory::STRIDE`] over the recent span, and at every multiple
/// of [`PhaseTrajectory::COARSE`] since the start.
#[derive(Debug, Clone)]
struct Marks {
    /// The walk at grid point 0.
    origin: Mark,
    /// `coarse[b]` is the walk at grid point `(b + 1)·COARSE`.
    coarse: Vec<Mark>,
    /// `fine[k]` is the walk at grid point `(first_fine + k)·STRIDE`, the
    /// back one at the last such point the front drew from.
    fine: VecDeque<Mark>,
    first_fine: usize,
}

impl Marks {
    /// Fine marks kept: the newest and the [`PhaseTrajectory::RECENT`]
    /// steps behind it.
    const FINE_KEPT: usize = PhaseTrajectory::RECENT / PhaseTrajectory::STRIDE + 1;

    /// The front leaves its mark at grid point `index`, a multiple of
    /// [`PhaseTrajectory::STRIDE`]; a fine mark past the recent span goes.
    fn leave(&mut self, index: usize, mark: &Mark) {
        if index > 0 && index.is_multiple_of(PhaseTrajectory::COARSE) {
            self.coarse.push(mark.clone());
        }
        if self.fine.len() == Self::FINE_KEPT {
            self.fine.pop_front();
            self.first_fine += 1;
        } else if self.fine.is_empty() {
            self.fine.reserve_exact(Self::FINE_KEPT);
        }
        self.fine.push_back(mark.clone());
    }

    /// The nearest mark at or before grid point `i`, which the front has
    /// drawn, and the point it is at. Every such multiple of `STRIDE` in
    /// the recent span and of `COARSE` before it was left; failing that,
    /// the walk restarts from the origin, which is slower but the same.
    fn at_or_before(&self, i: usize) -> (usize, &Mark) {
        const STRIDE: usize = PhaseTrajectory::STRIDE;
        const COARSE: usize = PhaseTrajectory::COARSE;
        let fine = (i / STRIDE).checked_sub(self.first_fine);
        if let Some(mark) = fine.and_then(|k| self.fine.get(k)) {
            return (i / STRIDE * STRIDE, mark);
        }
        match (i / COARSE).checked_sub(1).and_then(|b| self.coarse.get(b)) {
            Some(mark) => (i / COARSE * COARSE, mark),
            None => (0, &self.origin),
        }
    }
}

impl PhaseTrajectory {
    /// Grid spacing used to materialise the stochastic phase (10 µs — far
    /// finer than any phase dynamics JMB cares about).
    pub const GRID_DT: f64 = 10e-6;

    /// Grid steps drawn per [`fill_standard_normals`] call, at most.
    const CHUNK: usize = 32;

    /// Grid steps between the front's marks over the recent span (2.56
    /// ms): the most a query inside that span walks from a mark.
    const STRIDE: usize = 256;

    /// Grid steps behind the newest mark that the fine marks cover
    /// (81.92 ms), so that the out-of-band sync rivals' look-back (three
    /// updates of 25 ms) restarts at most [`Self::STRIDE`] steps back.
    const RECENT: usize = 8192;

    /// Grid steps between the marks kept since the start (≈ 41 ms).
    const COARSE: usize = 4096;

    /// Draws a trajectory: offset uniform in ±tolerance, noise per `spec`.
    pub fn new(spec: OscillatorSpec, carrier_freq: f64, rng: &mut JmbRng) -> Self {
        let ppm = if spec.tolerance_ppm > 0.0 {
            (rng.gen::<f64>() * 2.0 - 1.0) * spec.tolerance_ppm
        } else {
            0.0
        };
        Self::with_offset(spec, carrier_freq, ppm * 1e-6 * carrier_freq, rng.gen())
    }

    /// Creates a trajectory with an explicit initial offset (Hz).
    pub fn with_offset(spec: OscillatorSpec, carrier_freq: f64, offset_hz: f64, seed: u64) -> Self {
        let origin = Mark {
            freq: offset_hz,
            cum_phase: 0.0,
            rng: jmb_dsp::rng::derive_rng(seed, 0x7247),
        };
        let dt = Self::GRID_DT;
        let linewidth = spec.phase_noise_linewidth_hz.max(0.0);
        PhaseTrajectory {
            carrier_freq,
            step: GridStep {
                dt,
                sigma_w: (2.0 * std::f64::consts::PI * linewidth * dt).sqrt(),
                sigma_f: spec.drift_hz_per_sqrt_s.max(0.0) * dt.sqrt(),
            },
            initial_offset_hz: offset_hz,
            front: Cursor::starting_at(0, &origin),
            back: Cursor::starting_at(0, &origin),
            marks: Marks {
                origin,
                coarse: Vec::new(),
                fine: VecDeque::new(),
                first_fine: 0,
            },
            answered: Answered {
                points: [(usize::MAX, GridPoint::default()); Answered::LEN],
            },
        }
    }

    /// A perfectly clean trajectory at a fixed offset (for tests).
    pub fn fixed(carrier_freq: f64, offset_hz: f64) -> Self {
        Self::with_offset(OscillatorSpec::ideal(), carrier_freq, offset_hz, 0)
    }

    /// Frequency offset at time `t` in Hz (includes the drift random walk).
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or non-finite.
    pub fn cfo_hz_at(&mut self, t: f64) -> f64 {
        self.point_at(t).1.freq
    }

    /// Sampling-clock ratio (ADC/DAC rate over nominal): locked to the same
    /// crystal, so `1 + initial offset / carrier`.
    pub fn sample_ratio(&self) -> f64 {
        1.0 + self.initial_offset_hz / self.carrier_freq
    }

    /// Accumulated carrier phase error at global time `t` (radians,
    /// unwrapped). Random access; repeatable.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or non-finite.
    pub fn phase_at(&mut self, t: f64) -> f64 {
        self.interval_at(t).phase_at(t)
    }

    /// The grid interval `t` falls in, inside which the phase is exactly
    /// affine in time ([`PhaseInterval`]): what a caller walking the phase
    /// sample by sample anchors its rotator on.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or non-finite.
    pub fn interval_at(&mut self, t: f64) -> PhaseInterval {
        let (idx, p) = self.point_at(t);
        PhaseInterval {
            index: idx,
            start_s: idx as f64 * self.step.dt,
            dt: self.step.dt,
            point: p,
        }
    }

    /// The grid interval `t` falls in and the point it starts from — the
    /// one door from a time to the grid, so every accessor checks `t`. A
    /// point at or past the front moves the front; one behind it is one
    /// just answered, or the back cursor walks to it, from where it stands
    /// if that is no further back than the nearest mark.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented `# Panics` contract of every public accessor: a time no grid point answers for"
    )]
    fn point_at(&mut self, t: f64) -> (usize, GridPoint) {
        assert!(t.is_finite() && t >= 0.0, "bad trajectory time {t}");
        let idx = (t / self.step.dt).floor() as usize;
        let point = if idx >= self.front.next {
            let point = self
                .front
                .walk_through(idx, &self.step, Some(&mut self.marks));
            self.answered.put(idx, point)
        } else if let Some(point) = self.answered.get(idx) {
            point
        } else {
            let (from, mark) = self.marks.at_or_before(idx);
            if !(from..=idx).contains(&self.back.next) {
                self.back.at.clone_from(mark);
                self.back.next = from;
            }
            let point = self.back.walk_through(idx, &self.step, None);
            self.answered.put(idx, point)
        };
        (idx, point)
    }
}

#[cfg(test)]
impl PhaseTrajectory {
    /// Phasor `e^{jφ(t)}`.
    pub fn phasor_at(&mut self, t: f64) -> jmb_dsp::Complex64 {
        jmb_dsp::Complex64::cis(self.phase_at(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmb_dsp::rng::rng_from_seed;

    const FC: f64 = 2.437e9;

    /// The ppm offset a trajectory was drawn with, from its sample ratio.
    fn ppm(t: &PhaseTrajectory) -> f64 {
        (t.sample_ratio() - 1.0) * 1e6
    }

    #[test]
    fn ppm_draw_within_tolerance() {
        let mut rng = rng_from_seed(1);
        for _ in 0..100 {
            let mut t = PhaseTrajectory::new(OscillatorSpec::usrp2(), FC, &mut rng);
            assert!(ppm(&t).abs() <= 2.5, "ppm {}", ppm(&t));
            assert!(t.cfo_hz_at(0.0).abs() <= 2.5e-6 * FC + 1e-6);
        }
    }

    #[test]
    fn draws_are_diverse() {
        let mut rng = rng_from_seed(2);
        let mut a = PhaseTrajectory::new(OscillatorSpec::usrp2(), FC, &mut rng);
        let mut b = PhaseTrajectory::new(OscillatorSpec::usrp2(), FC, &mut rng);
        assert_ne!(a.cfo_hz_at(0.0), b.cfo_hz_at(0.0));
    }

    #[test]
    fn fixed_oscillator_phase_is_linear() {
        let mut t = PhaseTrajectory::fixed(FC, 100.0);
        let expected = 2.0 * std::f64::consts::PI * 100.0 * 1e-3;
        assert!((t.phase_at(1e-3) - expected).abs() < 1e-12);
        assert!((t.phase_at(2e-3) - 2.0 * expected).abs() < 1e-12);
    }

    #[test]
    fn paper_numbers_ten_hz_error() {
        // §1: a 10 Hz frequency error accumulates 0.35 rad (20°) in 5.5 ms.
        let phase = PhaseTrajectory::fixed(FC, 10.0).phase_at(5.5e-3);
        assert!((phase - 0.3456).abs() < 1e-3, "phase {phase}");
    }

    #[test]
    fn paper_numbers_hundred_hz_error() {
        // §5.2: a 100 Hz error in the initial frequency-offset estimate
        // accumulates a beamforming-fatal phase error (≥ π rad) within 20 ms.
        let phase = PhaseTrajectory::fixed(FC, 100.0).phase_at(20e-3);
        assert!(phase > std::f64::consts::PI, "phase {phase}");
    }

    #[test]
    fn sample_ratio_tracks_ppm() {
        let t = PhaseTrajectory::fixed(FC, 2.437e9 * 5e-6); // +5 ppm
        assert!((t.sample_ratio() - 1.000005).abs() < 1e-12);
        assert!((ppm(&t) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn drift_changes_offset_slowly() {
        let spec = OscillatorSpec {
            tolerance_ppm: 1.0,
            phase_noise_linewidth_hz: 0.0,
            drift_hz_per_sqrt_s: 2.0,
        };
        let mut rng = rng_from_seed(4);
        let mut t = PhaseTrajectory::new(spec, FC, &mut rng);
        let (f0, f1) = (t.cfo_hz_at(0.0), t.cfo_hz_at(1.0));
        assert_ne!(f0, f1);
        assert!((f1 - f0).abs() < 20.0, "drift too fast: {} Hz", f1 - f0);
    }

    #[test]
    fn trajectory_random_access_consistent() {
        let mut rng = rng_from_seed(10);
        let mut t1 = PhaseTrajectory::new(OscillatorSpec::usrp2(), FC, &mut rng);
        let a = t1.phase_at(3.7e-3);
        let _ = t1.phase_at(9.1e-3);
        let b = t1.phase_at(3.7e-3); // earlier time, again
        assert_eq!(a, b, "random access must be repeatable");
    }

    #[test]
    fn trajectory_fixed_is_linear() {
        let mut t = PhaseTrajectory::fixed(FC, 250.0);
        for &tt in &[0.0, 1e-4, 5e-3, 0.2] {
            let expected = 2.0 * std::f64::consts::PI * 250.0 * tt;
            assert!((t.phase_at(tt) - expected).abs() < 1e-9, "at {tt}");
        }
        assert_eq!(t.cfo_hz_at(0.1), 250.0);
    }

    #[test]
    fn trajectory_continuous_across_grid() {
        let mut rng = rng_from_seed(11);
        let mut t = PhaseTrajectory::new(OscillatorSpec::wifi_worst_case(), FC, &mut rng);
        let g = PhaseTrajectory::GRID_DT;
        // Sample just below and above several grid boundaries.
        for i in 1..20 {
            let t0 = i as f64 * g;
            let below = t.phase_at(t0 - 1e-9);
            let above = t.phase_at(t0 + 1e-9);
            assert!(
                (below - above).abs() < 1e-2,
                "discontinuity at grid point {i}: {below} vs {above}"
            );
        }
    }

    #[test]
    fn trajectory_phase_noise_variance() {
        let spec = OscillatorSpec {
            tolerance_ppm: 0.0,
            phase_noise_linewidth_hz: 1.0,
            drift_hz_per_sqrt_s: 0.0,
        };
        let mut rng = rng_from_seed(12);
        let t_query = 0.05;
        let n = 1000;
        let mut acc = 0.0;
        for _ in 0..n {
            let mut t = PhaseTrajectory::new(spec, FC, &mut rng);
            let p = t.phase_at(t_query);
            acc += p * p;
        }
        let var = acc / n as f64;
        let expected = 2.0 * std::f64::consts::PI * t_query;
        assert!(
            (var / expected - 1.0).abs() < 0.2,
            "var {var} vs expected {expected}"
        );
    }

    #[test]
    fn both_accessors_reject_bad_times() {
        // `cfo_hz_at` used to skip the check: a negative or NaN time
        // silently answered for t = 0 and an infinite one indexed out of
        // bounds (`FastObserver::pilot` passes caller-supplied times).
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            for accessor in [PhaseTrajectory::cfo_hz_at, PhaseTrajectory::phase_at] {
                let caught = std::panic::catch_unwind(|| {
                    accessor(&mut PhaseTrajectory::fixed(FC, 250.0), bad)
                });
                let msg = *caught.unwrap_err().downcast::<String>().unwrap();
                assert!(msg.contains("bad trajectory time"), "{bad}: {msg}");
            }
        }
    }

    impl PhaseTrajectory {
        /// Answers `t` and returns the grid steps the back cursor drew for
        /// it, and how far it walked forward of where it stood.
        fn back_walk(&mut self, t: f64) -> (usize, usize) {
            let (drawn, next) = (self.back.drawn, self.back.next);
            let idx = (t / Self::GRID_DT).floor() as usize;
            self.phase_at(t);
            (self.back.drawn - drawn, (idx + 1).saturating_sub(next))
        }

        /// Bytes the trajectory holds, inline and on the heap.
        fn footprint(&self) -> usize {
            let marks = self.marks.coarse.capacity() + self.marks.fine.capacity();
            std::mem::size_of::<Self>() + marks * std::mem::size_of::<Mark>()
        }
    }

    #[test]
    fn retained_points_are_bounded() {
        const STRIDE: usize = PhaseTrajectory::STRIDE;
        const COARSE: usize = PhaseTrajectory::COARSE;
        assert_eq!(std::mem::size_of::<Mark>(), 48);
        let mut rng = rng_from_seed(13);
        let mut t = PhaseTrajectory::new(OscillatorSpec::usrp2(), FC, &mut rng);
        // Five simulated seconds the way a cell walks them: forward in
        // packet-sized steps, each looking back up to 3 × 25 ms like the
        // out-of-band sync rivals do. Every look-back lies in the recent
        // span, so it walks at most one stride from a fine mark, and asked
        // again it is one of the points kept and walks nothing — the ones
        // pinned at t = 0 over the first 75 ms too, read again and again
        // while newer answers pass them.
        let mut now = 0.0;
        while now < 5.0 {
            t.phase_at(now);
            let look_back = |k: i32| (now - k as f64 * 25e-3).max(0.0);
            for k in (1..=3).rev() {
                let (drawn, gap) = t.back_walk(look_back(k));
                assert!(drawn <= STRIDE, "{drawn} steps for a look-back at {now} s");
                assert!(drawn <= gap + STRIDE);
            }
            for k in 1..=3 {
                let again = t.back_walk(look_back(k)).0;
                assert_eq!(again, 0, "a repeat walked {again} at {now} s");
            }
            assert_eq!(t.front.drawn, t.front.next, "the front drew a step twice");
            assert!(t.marks.fine.len() <= Marks::FINE_KEPT, "at {now} s");
            assert_eq!(t.marks.coarse.len(), (t.front.next - 1) / COARSE);
            now += 1.3e-3;
        }
        t.phase_at(500_000.5 * PhaseTrajectory::GRID_DT);
        // 500 000 grid points walked (12 MB as points, 295 KB as the window
        // of three 4 096-point blocks this replaced); kept are a 48-byte
        // mark per 4 096 steps, the fine marks of the recent span and the
        // eight points answered last, inline.
        assert_eq!(t.front.next, 500_001);
        assert_eq!(t.marks.coarse.len(), 500_000 / COARSE);
        assert!(t.footprint() < 10 << 10, "{} bytes", t.footprint());
        // Looking further back walks from a coarse mark, at most one
        // coarse spacing, and leaves no mark; a sweep forward from there
        // walks no more than its gap.
        let kept = (t.marks.coarse.len(), t.marks.fine.len());
        for back in [4.9, 0.2, 2.5, 0.2] {
            let (drawn, _) = t.back_walk(5.0 - back);
            assert!(drawn <= COARSE, "{drawn} steps {back} s back");
        }
        for k in 1..200 {
            let (drawn, gap) = t.back_walk(4.8 + k as f64 * 0.37e-3);
            assert!(
                drawn <= gap,
                "sweep step {k}: {drawn} steps for a gap of {gap}"
            );
        }
        assert_eq!((t.marks.coarse.len(), t.marks.fine.len()), kept);
        assert_eq!(t.front.drawn, t.front.next);
    }

    #[test]
    fn phase_is_affine_within_an_interval() {
        let mut rng = rng_from_seed(14);
        let mut t = PhaseTrajectory::new(OscillatorSpec::wifi_worst_case(), FC, &mut rng);
        let g = PhaseTrajectory::GRID_DT;
        for i in [0usize, 1, 17, 4095, 4096, 9000] {
            let start = i as f64 * g;
            let iv = t.interval_at(start + 0.5 * g);
            assert_eq!(iv.index(), i);
            // The interval's phase is the trajectory's, bit for bit.
            for u in [0.01, 0.13, 0.5, 0.999] {
                let at = start + u * g;
                assert_eq!(iv.phase_at(at).to_bits(), t.phase_at(at).to_bits());
            }
            // Affine: equal steps in time are equal steps in phase, and the
            // rate matches the finite differences.
            let h = g / 8.0;
            let at = |k: usize| start + (k as f64 + 0.5) * h;
            for k in 0..7 {
                let d = t.phase_at(at(k + 1)) - t.phase_at(at(k));
                let rel = (d / h - iv.rate()).abs() / iv.rate().abs();
                assert!(rel < 1e-9, "interval {i}: {} vs {}", d / h, iv.rate());
            }
            // At the next grid point the interval's line meets the next
            // interval's start: the walk is continuous.
            let next = t.interval_at(start + 1.5 * g);
            assert_eq!(next.index(), i + 1);
            let edge = (i + 1) as f64 * g;
            let gap = iv.phase_at(edge) - next.phase_at(edge);
            assert!(gap.abs() < 1e-9, "interval {i}: jump {gap}");
        }
    }

    #[test]
    fn two_oscillators_relative_rotation() {
        // The quantity JMB actually fights: relative phase between lead and
        // slave after time t is 2π·Δf·t.
        let mut lead = PhaseTrajectory::fixed(FC, 300.0);
        let mut slave = PhaseTrajectory::fixed(FC, -150.0);
        let t = 2e-3;
        let rel = lead.phase_at(t) - slave.phase_at(t);
        let expected = 2.0 * std::f64::consts::PI * 450.0 * t;
        assert!((rel - expected).abs() < 1e-9);
    }

    #[test]
    fn phasor_is_unit() {
        let mut rng = rng_from_seed(5);
        let mut t = PhaseTrajectory::new(OscillatorSpec::wifi_worst_case(), FC, &mut rng);
        for i in 1..10 {
            let z = t.phasor_at(i as f64 * 1e-3);
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }
}
