//! The sample-level radio medium.
//!
//! Physics applied to every (transmission, receiver) pair:
//!
//! 1. **Sample clocks** — the transmitter's DAC and receiver's ADC run at
//!    `fs·(1+ppm)` of their own crystals, so the waveform is resampled at
//!    ratio `rate_tx/rate_rx` (sampling-frequency offset).
//! 2. **Propagation delay** — fractional-sample delay per the link geometry.
//! 3. **Multipath** — tapped-delay-line convolution, on the transmitter's
//!    own sample grid: a tap's delay is the same at every output instant, so
//!    the taps' interpolation kernels, each times its gain, fold into one
//!    FIR per (transmission, receiver), and the line it yields is what 1–2
//!    resample, in one sweep over the output samples that hear it
//!    ([`resample`]; two passes of the kernel per path; DESIGN §3.16 states
//!    what that costs in fidelity).
//! 4. **Carrier offset & phase noise** — rotation by
//!    `e^{j(φ_tx(t) − φ_rx(t))}` at every output sample, with φ from each
//!    node's [`PhaseTrajectory`]. Both phases are affine inside each grid
//!    interval of the oscillators' shared grid, so the rotation is walked
//!    as a rotator per interval ([`rotate_ramp`]).
//! 5. **Superposition** — concurrent transmissions simply add. This is what
//!    makes *joint* beamforming meaningful: nulls only form if the phases
//!    are right.
//! 6. **AWGN** — per-receiver noise floor.

use crate::fault::FaultSchedule;
use jmb_channel::{Link, PhaseInterval, PhaseTrajectory};
use jmb_dsp::complex::rotate_ramp;
use jmb_dsp::delay::{kernel_at, resample};
use jmb_dsp::rng::{normal, JmbRng};
use jmb_dsp::Complex64;
use jmb_obs::{DropCause, EventKind, Trace};
use jmb_phy::params::OfdmParams;
use rand::{Rng, RngCore};
use std::ops::Range;
use std::sync::OnceLock;

/// Handle to a node registered with a [`Medium`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

struct Node {
    traj: PhaseTrajectory,
    /// Complex AWGN variance per *time-domain sample* at this receiver.
    noise_var: f64,
}

/// One scheduled waveform on the air.
#[derive(Debug, Clone)]
pub struct Transmission {
    /// Transmitting node.
    pub tx: NodeId,
    /// Global time the first sample leaves the antenna, seconds.
    pub start_s: f64,
    /// Complex-baseband samples at the transmitter's nominal sample rate.
    pub samples: Vec<Complex64>,
}

/// The air.
pub struct Medium {
    params: OfdmParams,
    nodes: Vec<Node>,
    /// `links[tx][rx]`.
    links: Vec<Vec<Option<Link>>>,
    transmissions: Vec<Transmission>,
    /// Scheduled extra-noise windows (fault injection).
    bursts: Vec<(NodeId, f64, f64, f64)>, // (rx, start_s, duration_s, var)
    fault: FaultSchedule,
    /// Event trace.
    pub trace: Trace,
    rng: JmbRng,
    plan: Plan,
    /// One render scratch per worker; a lone window renders in the first.
    scratch: Vec<Scratch>,
}

/// The host's cores, read once: the most workers a caller of
/// [`Medium::render_each`] need lend scratch to. A core count picks how
/// many windows render at once and nothing else — every window, the
/// medium's stream and its trace are the same whatever it is.
#[expect(
    clippy::disallowed_methods,
    reason = "the host's core count picks the render's worker count; windows, stream and trace are identical at every count"
)]
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A render's second-phase scratch, one per worker, kept between calls so
/// that a render allocates only its output.
#[derive(Default)]
struct Scratch {
    /// The link of the transmission being rendered, as one FIR on the
    /// transmitter's sample grid ([`tapped_delay_line`]).
    fir: Vec<Complex64>,
    /// That transmission through the FIR, over the stretch the window hears.
    line: Vec<Complex64>,
    /// Stage 2: the line resampled at the instants that hear it, then
    /// turned by the carriers.
    resampled: Vec<Complex64>,
}

/// A render's first phase: everything about its windows that reads or
/// moves the medium's mutable state — the oscillators and the stream —
/// fixed on the calling thread, in receiver order, so that the second
/// phase only reads (DESIGN §3.16). Kept between calls.
#[derive(Default)]
struct Plan {
    windows: Vec<PlannedWindow>,
    /// What the windows hear, window after window.
    heard: Vec<Heard>,
    /// The carrier rotators of every heard transmission, one after another.
    segments: Vec<Segment>,
    /// The receiver's carrier phase over the window being planned, one
    /// entry per oscillator grid interval it spans: the first output index
    /// inside the interval, and the interval, in which the phase is affine.
    rx_intervals: Vec<(usize, PhaseInterval)>,
}

/// One planned window.
struct PlannedWindow {
    rx: NodeId,
    win: RxWindow,
    n: usize,
    /// The medium's stream where this window's AWGN starts, as a serial
    /// render would find it.
    rng: JmbRng,
    /// Per-axis σ of the receiver's AWGN.
    sigma: f64,
    /// Whether the receiver's noise bursts are added (not on a side
    /// channel).
    bursts: bool,
    /// The window's entries of [`Plan::heard`].
    heard: Range<usize>,
}

/// One transmission a planned window hears.
struct Heard {
    /// Its index among the scheduled transmissions; `None` for the
    /// side-channel waveform.
    sent: Option<usize>,
    tx: NodeId,
    /// The transmitter's sample rate.
    fs_tx: f64,
    /// The output instants that can hear it: [`support`] on the window.
    instants: Range<usize>,
    /// Its entries of [`Plan::segments`].
    segments: Range<usize>,
}

/// The carriers over the output instants `span` of one grid interval:
/// transmitter minus receiver phase at the first, and its step per
/// receiver sample.
struct Segment {
    span: Range<usize>,
    theta0: f64,
    theta: f64,
}

/// How far, in samples, one pass of the interpolation kernel
/// ([`jmb_dsp::delay::interpolate_at`], 24 taps a side) reaches to either
/// side of a position, rounded up with room to spare;
/// `kernel_reach_covers_the_interpolator` pins it.
const KERNEL_REACH: isize = 32;

/// The interval of `pos` — the position on the transmitter's sample grid
/// that an output instant maps to through the link's first tap — outside
/// which a transmission of `tx_len` samples contributes exactly nothing: the
/// waveform, the kernel's reach on either side twice over (once for the
/// delay line, once for the resampling), and the delay of the link's last
/// tap (`fs_tx` converts it to transmitter samples). The one support rule of
/// every render: it bounds the output range a transmission is evaluated on,
/// and a transmission whose range is empty is skipped.
fn support(link: &Link, tx_len: usize, fs_tx: f64) -> (f64, f64) {
    let reach = 2.0 * KERNEL_REACH as f64;
    (
        -reach,
        tx_len as f64 + reach + link.fading.max_delay_s() * fs_tx,
    )
}

/// Stage 1 of a render: `samples` through `link`'s tapped delay line, on the
/// transmitter's own grid. Tap `l` is `τ_l·fs_tx` samples late whatever the
/// output instant, so its kernel is computed once per render
/// ([`kernel_at`]), and the taps' kernels, each times its gain, add up to one
/// FIR. Leaves in `line` the entries `from..=to` of
/// `line[k] = Σ_l g_l·samples(k − τ_l·fs_tx)`, clipped to where that is not
/// identically zero, and returns the index of the first one kept.
fn tapped_delay_line(
    samples: &[Complex64],
    link: &Link,
    fs_tx: f64,
    (from, to): (isize, isize),
    fir: &mut Vec<Complex64>,
    line: &mut Vec<Complex64>,
) -> isize {
    // `fir[j]` weighs the sample `lowest + j` away.
    let lowest = -((link.fading.max_delay_s() * fs_tx).ceil() as isize) - KERNEL_REACH;
    fir.clear();
    fir.resize((KERNEL_REACH - lowest + 1) as usize, Complex64::ZERO);
    for (tau, g) in link.fading.tap_iter() {
        for (offset, w) in kernel_at(-tau * fs_tx) {
            fir[(offset - lowest) as usize] += g.scale(w);
        }
    }
    fir_filter(samples, (lowest, fir), (from, to), line)
}

/// Leaves in `line` the entries `from..=to` of `line[k] = Σ_j fir[j]·
/// samples[k + lowest + j]`, clipped to where some product exists, and
/// returns the index of the first one kept: `fir[j]` weighs the sample
/// `lowest + j` away.
fn fir_filter(
    samples: &[Complex64],
    (lowest, fir): (isize, &[Complex64]),
    (from, to): (isize, isize),
    line: &mut Vec<Complex64>,
) -> isize {
    let len = samples.len() as isize;
    let from = from.max(1 - lowest - fir.len() as isize);
    let to = to.min(len - 1 - lowest);
    line.clear();
    line.resize((to - from + 1).max(0) as usize, Complex64::ZERO);
    // `line[k] += c·samples[k + offset]` for `k` in `k0..k1`.
    let entry_pass = |line: &mut [Complex64], (offset, c): (isize, Complex64), (k0, k1)| {
        if k0 >= k1 {
            return;
        }
        let dst = &mut line[(k0 - from) as usize..(k1 - from) as usize];
        let src = &samples[(k0 + offset) as usize..(k1 + offset) as usize];
        for (acc, &x) in dst.iter_mut().zip(src) {
            *acc = c.mul_add(x, *acc);
        }
    };
    // The `k` of the stretch for which the entry at `offset` has a sample.
    let reach = |offset: isize| (from.max(-offset), (to + 1).min(len - offset));
    // The non-zero entries that reach the stretch, FIR_BLOCK at a time, in
    // entry order. One pass over the line per block: each `line[k]` adds the
    // block's products innermost first, `c₃x₃ + (c₂x₂ + (c₁x₁ + (c₀x₀ +
    // acc)))`, which is the order one pass per entry sums them in, so every
    // `line[k]` is the same sum to the bit (DESIGN §3.16). Offsets grow along
    // the FIR, so a block's first entry starts its reach last and its last
    // entry ends it first: between the two, every entry reaches; below and
    // above, the entries pass one at a time, in entry order, before the body
    // and after it, which keeps each `k`'s order too.
    let mut block = [(0isize, Complex64::ZERO); FIR_BLOCK];
    let mut filled = 0;
    for (offset, &c) in (lowest..).zip(fir) {
        let (k0, k1) = reach(offset);
        if c == Complex64::ZERO || k0 >= k1 {
            continue;
        }
        block[filled] = (offset, c);
        filled += 1;
        if filled < FIR_BLOCK {
            continue;
        }
        filled = 0;
        // The body `lo..hi`, empty on a stretch shorter than the block's
        // overlap.
        let lo = reach(block[0].0).0;
        let hi = reach(block[FIR_BLOCK - 1].0).1.max(lo);
        for &entry in &block {
            let (k0, k1) = reach(entry.0);
            entry_pass(line, entry, (k0, k1.min(lo)));
        }
        if lo < hi {
            let [(o0, c0), (o1, c1), (o2, c2), (o3, c3)] = block;
            let n = (hi - lo) as usize;
            let src = |o: isize| &samples[(lo + o) as usize..][..n];
            let dst = &mut line[(lo - from) as usize..][..n];
            let (x0, x1, x2, x3) = (src(o0), src(o1), src(o2), src(o3));
            for k in 0..n {
                let acc = c0.mul_add(x0[k], dst[k]);
                dst[k] = c3.mul_add(x3[k], c2.mul_add(x2[k], c1.mul_add(x1[k], acc)));
            }
        }
        for &entry in &block {
            entry_pass(line, entry, (hi, reach(entry.0).1));
        }
    }
    for &entry in &block[..filled] {
        entry_pass(line, entry, reach(entry.0));
    }
    from
}

/// How many FIR entries [`fir_filter`] adds per pass over the line.
const FIR_BLOCK: usize = 4;

/// The output instants of one render, on the receiver's clock.
#[derive(Clone, Copy)]
struct RxWindow {
    start_s: f64,
    /// The receiver's sample period.
    ts_rx: f64,
}

impl RxWindow {
    fn time_of(&self, m: usize) -> f64 {
        self.start_s + m as f64 * self.ts_rx
    }

    /// The output indices, of `n`, whose instants can fall between `from_s`
    /// and `until_s`: a sample wider on either side than the estimate, so
    /// that rounding here drops nothing — the caller still tests each
    /// instant exactly. Empty for an interval the window does not meet.
    fn span(&self, from_s: f64, until_s: f64, n: usize) -> Range<usize> {
        let end = ((until_s - self.start_s) / self.ts_rx + 2.0).min(n as f64) as usize;
        let first = (((from_s - self.start_s) / self.ts_rx - 1.0).max(0.0) as usize).min(end);
        first..end
    }

    /// The first output index, of `n`, past `from` whose instant lies
    /// beyond `interval` — the rule [`PhaseTrajectory`] applies,
    /// `⌊t / GRID_DT⌋`, tested at the estimate and its neighbours.
    fn end_of(&self, interval: &PhaseInterval, from: usize, n: usize) -> usize {
        let inside = |m: usize| interval.contains(self.time_of(m));
        let end_s = (interval.index() + 1) as f64 * PhaseTrajectory::GRID_DT;
        let estimate = ((end_s - self.start_s) / self.ts_rx).ceil().max(0.0) as usize;
        let mut end = estimate.clamp(from + 1, n);
        while end > from + 1 && !inside(end - 1) {
            end -= 1;
        }
        while end < n && inside(end) {
            end += 1;
        }
        end
    }

    /// The noise bursts of `rx` among `bursts`: each one's σ per axis and
    /// the output instants, of `n`, inside it.
    fn bursts<'a>(
        &'a self,
        rx: NodeId,
        bursts: &'a [(NodeId, f64, f64, f64)],
        n: usize,
    ) -> impl Iterator<Item = (f64, impl Iterator<Item = usize> + 'a)> + 'a {
        bursts
            .iter()
            .filter(move |b| b.0 == rx)
            .map(move |&(_, bstart, bdur, bvar)| {
                let inside = move |&m: &usize| {
                    let t = self.time_of(m);
                    t >= bstart && t < bstart + bdur
                };
                (
                    (bvar / 2.0).sqrt(),
                    self.span(bstart, bstart + bdur, n).filter(inside),
                )
            })
    }

    /// The first phase of adding to the window's `n` instants what the
    /// receiver hears of `wave` — `(start_s, length)` on the transmitter's
    /// clock, `fs_tx` its sample rate — through `link`: the instants that
    /// can hear it, returned, and the carriers over them, pushed onto
    /// `segments`, one per grid interval of `rx_intervals`, the receiver's
    /// carrier phase over the window.
    fn plan_carriers(
        &self,
        (sent_start_s, len): (f64, usize),
        link: &Link,
        (tx_traj, fs_tx): (&mut PhaseTrajectory, f64),
        rx_intervals: &[(usize, PhaseInterval)],
        n: usize,
        segments: &mut Vec<Segment>,
    ) -> Range<usize> {
        // Positions on the transmitter's grid are affine in the output
        // instant, so the instants inside the support are one contiguous
        // range of output samples — empty for a transmission out of
        // earshot; past either stage's reach a position interpolates to
        // exactly zero anyway.
        let (lo, hi) = support(link, len, fs_tx);
        let arrives_s = sent_start_s + link.delay_s;
        let heard = self.span(arrives_s + lo / fs_tx, arrives_s + hi / fs_tx, n);
        if heard.is_empty() {
            return heard;
        }
        // Transmitter minus receiver phase is affine inside each grid
        // interval of the (shared) oscillator grid, so it is one rotator per
        // interval, anchored at its first heard instant and advanced on
        // every instant, heard or not.
        for (i, &(m0, rx)) in rx_intervals.iter().enumerate() {
            let m1 = rx_intervals.get(i + 1).map_or(n, |&(m, _)| m);
            let (from, to) = (m0.max(heard.start), m1.min(heard.end));
            if from >= to {
                continue;
            }
            let t = self.time_of(from);
            let tx = tx_traj.interval_at(t);
            segments.push(Segment {
                span: from..to,
                theta0: tx.phase_at(t) - rx.phase_at(t),
                theta: (tx.rate() - rx.rate()) * self.ts_rx,
            });
        }
        heard
    }

    /// The second phase: adds to `out` what the receiver hears of `wave` —
    /// `(start_s, samples)` on the transmitter's clock — through `link`, at
    /// the instants `heard` and turned by `segments`, as
    /// [`RxWindow::plan_carriers`] planned them.
    fn superpose(
        &self,
        (sent_start_s, samples): (f64, &[Complex64]),
        link: &Link,
        (heard, fs_tx): (&Range<usize>, f64),
        segments: &[Segment],
        scratch: &mut Scratch,
        out: &mut [Complex64],
    ) {
        let Scratch {
            fir,
            line,
            resampled,
        } = scratch;
        // Input-sample position (transmitter clock) of an output instant,
        // before tap delays.
        let pos_at = |time: f64| (time - sent_start_s - link.delay_s) * fs_tx;
        let first = pos_at(self.time_of(heard.start));

        // Stage 1 covers what stage 2's kernel can touch from the first
        // heard instant to the last.
        let stretch = (
            first.floor() as isize - KERNEL_REACH,
            pos_at(self.time_of(heard.end - 1)).floor() as isize + KERNEL_REACH,
        );
        let origin = tapped_delay_line(samples, link, fs_tx, stretch, fir, line) as f64;

        // Stage 2: one sweep over the heard instants, whose positions on
        // the line are `first − origin` on, `fs_tx·ts_rx` apart.
        resampled.clear();
        resampled.resize(heard.len(), Complex64::ZERO);
        resample(line, fs_tx * self.ts_rx, origin - first, resampled);

        // The carriers, one rotator per grid interval.
        for s in segments {
            let span = s.span.start - heard.start..s.span.end - heard.start;
            rotate_ramp(&mut resampled[span], s.theta0, s.theta);
        }
        for (&v, out) in resampled.iter().zip(&mut out[heard.clone()]) {
            if v != Complex64::ZERO {
                *out = link.gain.mul_add(v, *out);
            }
        }
    }
}

/// Steps `rng` past what `count` complex samples of AWGN draw from it: a
/// Box–Muller normal ([`normal`]) takes two `u64`, so a complex sample
/// takes four, whatever its variance.
fn skip_complex_normals(rng: &mut JmbRng, count: usize) {
    for _ in 0..4 * count {
        rng.next_u64();
    }
}

/// What a render's second phase reads of the medium: shared, so that
/// workers read it at once.
#[derive(Clone, Copy)]
struct Air<'a> {
    links: &'a [Vec<Option<Link>>],
    transmissions: &'a [Transmission],
    bursts: &'a [(NodeId, f64, f64, f64)],
    plan: &'a Plan,
    /// The side-channel waveform, sent at the window's start; empty when the
    /// render is of the air.
    side: &'a [Complex64],
}

impl Air<'_> {
    /// Renders one planned window: its AWGN and then its noise bursts from
    /// its own copy of the stream, in the serial render's order, and every
    /// transmission it hears, in transmission order.
    fn render(&self, w: &PlannedWindow, scratch: &mut Scratch) -> Vec<Complex64> {
        let _span = jmb_obs::span("render_rx");
        let mut rng = w.rng.clone();
        let rng = &mut rng;
        // `complex_gaussian(rng, σ²)`'s draws, I then Q, with its per-axis
        // `σ` taken once per window rather than once per sample.
        let sigma = w.sigma;
        let mut out: Vec<Complex64> = (0..w.n)
            .map(|_| Complex64::new(normal(rng, sigma), normal(rng, sigma)))
            .collect();
        if w.bursts {
            for (sigma, inside) in w.win.bursts(w.rx, self.bursts, w.n) {
                for m in inside {
                    out[m] += Complex64::new(normal(rng, sigma), normal(rng, sigma));
                }
            }
        }
        for heard in &self.plan.heard[w.heard.clone()] {
            let Some(link) = &self.links[heard.tx.0][w.rx.0] else {
                continue;
            };
            let wave = match heard.sent {
                Some(i) => {
                    let sent = &self.transmissions[i];
                    (sent.start_s, &sent.samples[..])
                }
                None => (w.win.start_s, self.side),
            };
            w.win.superpose(
                wave,
                link,
                (&heard.instants, heard.fs_tx),
                &self.plan.segments[heard.segments.clone()],
                scratch,
                &mut out,
            );
        }
        out
    }
}

impl Medium {
    /// Creates an empty medium.
    pub fn new(params: OfdmParams, seed: u64) -> Self {
        Medium {
            params,
            nodes: Vec::new(),
            links: Vec::new(),
            transmissions: Vec::new(),
            bursts: Vec::new(),
            fault: FaultSchedule::none(),
            trace: Trace::new(),
            rng: jmb_dsp::rng::rng_from_seed(seed),
            plan: Plan::default(),
            scratch: vec![Scratch::default()],
        }
    }

    /// Registers a node with its oscillator trajectory and receiver noise
    /// variance (per time-domain sample).
    pub fn add_node(&mut self, traj: PhaseTrajectory, noise_var: f64) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { traj, noise_var });
        for row in self.links.iter_mut() {
            row.push(None);
        }
        self.links.push(vec![None; self.nodes.len()]);
        id
    }

    /// Overrides the receiver noise variance (per time-domain sample) at
    /// `node`. A multi-cell deployment uses this to fold aggregate
    /// out-of-cell interference into a node's effective noise floor
    /// (Gaussian approximation of many distant co-channel transmitters).
    pub fn set_noise_var(&mut self, node: NodeId, noise_var: f64) {
        self.nodes[node.0].noise_var = noise_var;
    }

    /// Installs the directional link `tx → rx`.
    pub fn set_link(&mut self, tx: NodeId, rx: NodeId, link: Link) {
        self.links[tx.0][rx.0] = Some(link);
    }

    /// Installs the same link in both directions (reciprocal channel).
    pub fn set_reciprocal_link(&mut self, a: NodeId, b: NodeId, link: Link) {
        self.links[a.0][b.0] = Some(link.clone());
        self.links[b.0][a.0] = Some(link);
    }

    /// Shared access to a link.
    pub fn link(&self, tx: NodeId, rx: NodeId) -> Option<&Link> {
        self.links[tx.0][rx.0].as_ref()
    }

    /// Mutable access to a node's oscillator trajectory.
    pub fn trajectory_mut(&mut self, node: NodeId) -> &mut PhaseTrajectory {
        &mut self.nodes[node.0].traj
    }

    /// Configures fault injection — constant or time-windowed (loss
    /// storms): the waveform faults (drop, corrupt); control-frame faults
    /// are the network's.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.fault = schedule;
    }

    /// First payload sample index eligible for fault corruption: past the
    /// 320-sample preamble and the 80-sample SIGNAL symbol, so sync and rate
    /// decoding survive and corruption surfaces as a CRC rejection.
    const CORRUPT_FROM: usize = 400;

    /// Schedules a waveform. `start_s` is global time of the first sample.
    ///
    /// Under fault injection the transmission may be silently dropped or
    /// have its payload samples corrupted (both recorded in the trace).
    pub fn transmit(&mut self, tx: NodeId, start_s: f64, mut samples: Vec<Complex64>) {
        let f = self.fault.config_at(start_s);
        let (drop_chance, corrupt_chance) = (f.drop_chance, f.corrupt_chance);
        if drop_chance > 0.0 && self.rng.gen::<f64>() < drop_chance {
            self.trace.emit(
                start_s,
                EventKind::Dropped {
                    node: tx.0,
                    cause: DropCause::Fault,
                },
            );
            return;
        }
        if corrupt_chance > 0.0
            && samples.len() > Self::CORRUPT_FROM
            && self.rng.gen::<f64>() < corrupt_chance
        {
            // Negate a random quarter of the payload-region samples: severe
            // enough that the descrambled bits fail the CRC, but the frame
            // still synchronises.
            for s in samples.iter_mut().skip(Self::CORRUPT_FROM) {
                if self.rng.gen::<f64>() < 0.25 {
                    *s = -*s;
                }
            }
            self.trace
                .emit(start_s, EventKind::Corrupted { node: tx.0 });
        }
        self.trace.emit(
            start_s,
            EventKind::Transmit {
                node: tx.0,
                len: samples.len(),
                power: jmb_dsp::complex::mean_power(&samples),
            },
        );
        self.transmissions.push(Transmission {
            tx,
            start_s,
            samples,
        });
    }

    /// Injects a burst of extra noise at a receiver (fault injection).
    pub fn inject_noise_burst(&mut self, rx: NodeId, start_s: f64, duration_s: f64, var: f64) {
        self.bursts.push((rx, start_s, duration_s, var));
    }

    /// The first phase of rendering, for each of `rxs` in turn, the window
    /// of `n` samples from `start_s` on its clock: the receiver's carrier
    /// phase over the window, a copy of the stream where the window's AWGN
    /// (and then its noise bursts) start — the stream itself stepped past
    /// them — and what it hears: every scheduled transmission but its own,
    /// in transmission order, or, with `side`, only that waveform (its
    /// transmitter and length), sent at `start_s` and summed with nothing,
    /// and no bursts. The oscillators are asked what a serial render asks
    /// them, in the same order.
    fn plan(&mut self, rxs: &[NodeId], start_s: f64, n: usize, side: Option<(NodeId, usize)>) {
        let Medium {
            params,
            nodes,
            links,
            transmissions,
            bursts,
            rng,
            plan,
            ..
        } = self;
        let fs = params.sample_rate();
        plan.windows.clear();
        plan.heard.clear();
        plan.segments.clear();
        for &rx in rxs {
            let win = RxWindow {
                start_s,
                ts_rx: 1.0 / (fs * nodes[rx.0].traj.sample_ratio()),
            };
            let rx_traj = &mut nodes[rx.0].traj;
            let rx_intervals = &mut plan.rx_intervals;
            rx_intervals.clear();
            let mut m = 0;
            while m < n {
                let interval = rx_traj.interval_at(win.time_of(m));
                rx_intervals.push((m, interval));
                m = win.end_of(&interval, m, n);
            }

            let drawn = n + match side {
                None => win
                    .bursts(rx, bursts, n)
                    .map(|(_, m)| m.count())
                    .sum::<usize>(),
                Some(_) => 0,
            };
            let window_rng = rng.clone();
            skip_complex_normals(rng, drawn);

            let first_heard = plan.heard.len();
            let mut hear = |sent: Option<usize>, tx: NodeId, wave: (f64, usize)| {
                let Some(link) = &links[tx.0][rx.0] else {
                    return;
                };
                let tx_traj = &mut nodes[tx.0].traj;
                let fs_tx = fs * tx_traj.sample_ratio();
                let first_segment = plan.segments.len();
                let instants = win.plan_carriers(
                    wave,
                    link,
                    (tx_traj, fs_tx),
                    &plan.rx_intervals,
                    n,
                    &mut plan.segments,
                );
                if !instants.is_empty() {
                    plan.heard.push(Heard {
                        sent,
                        tx,
                        fs_tx,
                        instants,
                        segments: first_segment..plan.segments.len(),
                    });
                }
            };
            match side {
                None => {
                    for (i, sent) in transmissions.iter().enumerate() {
                        if sent.tx != rx {
                            hear(Some(i), sent.tx, (sent.start_s, sent.samples.len()));
                        }
                    }
                }
                Some((tx, len)) => hear(None, tx, (start_s, len)),
            }
            let heard = first_heard..plan.heard.len();
            plan.windows.push(PlannedWindow {
                rx,
                win,
                n,
                rng: window_rng,
                sigma: (nodes[rx.0].noise_var / 2.0).sqrt(),
                bursts: side.is_none(),
                heard,
            });
        }
    }

    /// The planned windows' second phase as [`Medium::plan`] left them,
    /// with the render scratch of every worker.
    fn air<'a>(&'a mut self, side: &'a [Complex64]) -> (Air<'a>, &'a mut [Scratch]) {
        let air = Air {
            links: &self.links,
            transmissions: &self.transmissions,
            bursts: &self.bursts,
            plan: &self.plan,
            side,
        };
        (air, &mut self.scratch)
    }

    /// Ends a render of the air whose first `rendered` planned windows
    /// count: one `Render` event each, in receiver order, and the stream
    /// where the last of them left it.
    fn rendered(&mut self, rendered: usize) {
        if let Some(next) = self.plan.windows.get(rendered) {
            self.rng.clone_from(&next.rng);
        }
        for w in &self.plan.windows[..rendered] {
            self.trace.emit(
                w.win.start_s,
                EventKind::Render {
                    node: w.rx.0,
                    len: w.n,
                },
            );
        }
    }

    /// Renders what `rx` hears between `start_s` and
    /// `start_s + n/fs_rx`: superposition of all transmissions through their
    /// links, plus AWGN and any noise bursts.
    ///
    /// A node never hears its own transmissions (half-duplex front end).
    /// [`Medium::render_each`] with one window, on the calling thread.
    pub fn render_rx(&mut self, rx: NodeId, start_s: f64, n: usize) -> Vec<Complex64> {
        self.plan(&[rx], start_s, n, None);
        let (air, scratch) = self.air(&[]);
        let out = air.render(&air.plan.windows[0], &mut scratch[0]);
        self.rendered(1);
        out
    }

    /// Renders the windows of `n` samples from `start_s` that each of
    /// `rxs` hears, as [`Medium::render_rx`] renders each, and hands each to
    /// `decode` with a scratch of `scratches` and its index in `rxs`; returns
    /// what `decode` made of them, in receiver order, up to and including
    /// the first that `stops` — as if the windows were rendered and decoded
    /// one after another and the loop left at that one.
    ///
    /// The windows are rendered and decoded on as many workers as
    /// `scratches` lends scratch to (one if it is empty), at most one per
    /// window: the first on the calling thread, the rest on scoped threads.
    /// Whatever the count, the windows, the medium's stream and its trace
    /// (one `Render` per window kept) are those of the serial loop, bit for
    /// bit (DESIGN §3.16). A panicking worker's panic is raised again here.
    pub fn render_each<S, T>(
        &mut self,
        rxs: &[NodeId],
        (start_s, n): (f64, usize),
        scratches: &mut [S],
        decode: impl Fn(&mut S, usize, Vec<Complex64>) -> T + Sync,
        stops: impl Fn(&T) -> bool + Sync,
    ) -> Vec<T>
    where
        S: Send + Default,
        T: Send,
    {
        self.plan(rxs, start_s, n, None);
        let mut spare = S::default();
        let scratches = match scratches {
            [] => std::slice::from_mut(&mut spare),
            some => some,
        };
        let workers = scratches.len().min(rxs.len()).max(1);
        if self.scratch.len() < workers {
            self.scratch.resize_with(workers, Scratch::default);
        }
        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(rxs.len()).collect();
        let per_worker = rxs.len().div_ceil(workers).max(1);
        let (air, render_scratch) = self.air(&[]);
        // One worker's contiguous share of the windows, from `first` on,
        // until one stops: every window after it is discarded anyway.
        let run = |first: usize, slots: &mut [Option<T>], render: &mut Scratch, s: &mut S| {
            for (i, slot) in (first..).zip(slots) {
                let window = air.render(&air.plan.windows[i], render);
                let decoded = decode(s, i, window);
                let stop = stops(&decoded);
                *slot = Some(decoded);
                if stop {
                    break;
                }
            }
        };
        let mut shares = slots
            .chunks_mut(per_worker)
            .zip(render_scratch.iter_mut())
            .zip(scratches.iter_mut())
            .enumerate()
            .map(|(w, ((slots, render), s))| (w * per_worker, slots, render, s));
        let own = shares.next();
        std::thread::scope(|scope| {
            let spawned: Vec<_> = shares
                .map(|(first, slots, render, s)| scope.spawn(move || run(first, slots, render, s)))
                .collect();
            if let Some((first, slots, render, s)) = own {
                run(first, slots, render, s);
            }
            for worker in spawned {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        let mut kept = Vec::with_capacity(slots.len());
        for decoded in slots.into_iter().map_while(|slot| slot) {
            let stop = stops(&decoded);
            kept.push(decoded);
            if stop {
                break;
            }
        }
        self.rendered(kept.len());
        kept
    }

    /// Renders what `rx` hears of one waveform that `tx` sends at `start_s`
    /// on a side channel: the same link, oscillators and AWGN as
    /// [`Medium::render_rx`], but the waveform is never scheduled, so it is
    /// summed with nothing on the air and nobody else hears it. The window
    /// is `n` receiver samples from `start_s`.
    pub fn render_side_channel(
        &mut self,
        tx: NodeId,
        rx: NodeId,
        start_s: f64,
        samples: &[Complex64],
        n: usize,
    ) -> Vec<Complex64> {
        self.plan(&[rx], start_s, n, Some((tx, samples.len())));
        let (air, scratch) = self.air(samples);
        air.render(&air.plan.windows[0], &mut scratch[0])
    }

    /// Discards all scheduled transmissions and noise bursts that end before
    /// `before_s` (keeps memory bounded in long simulations).
    pub fn expire(&mut self, before_s: f64) {
        let fs = self.params.sample_rate();
        self.transmissions
            .retain(|t| t.start_s + t.samples.len() as f64 / fs + 1e-3 >= before_s);
        self.bursts
            .retain(|&(_, start, dur, _)| start + dur >= before_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultConfigBuilder};
    use jmb_channel::multipath::{Multipath, MultipathSpec};
    use jmb_channel::oscillator::OscillatorSpec;
    use jmb_dsp::complex::mean_power;
    use jmb_dsp::delay::interpolate_at;
    use jmb_dsp::rng::complex_gaussian;
    use jmb_phy::preamble;

    const FC: f64 = 2.437e9;

    fn quiet_medium(seed: u64) -> Medium {
        Medium::new(OfdmParams::default(), seed)
    }

    fn clean_node(m: &mut Medium) -> NodeId {
        m.add_node(PhaseTrajectory::fixed(FC, 0.0), 0.0)
    }

    /// The constant schedule of one builder setting.
    fn constant(set: impl Fn(FaultConfigBuilder) -> FaultConfigBuilder) -> FaultSchedule {
        FaultSchedule::constant(set(FaultConfig::builder()).build().unwrap())
    }

    #[test]
    fn kernel_reach_covers_the_interpolator() {
        // One pass: a lone sample is heard nowhere beyond KERNEL_REACH — and
        // is heard well inside it, so the constant is not vacuous.
        let reach = KERNEL_REACH as f64;
        let x = [Complex64::ONE];
        for k in 0..=100 {
            let beyond = reach + k as f64 * 0.37;
            assert_eq!(interpolate_at(&x, -beyond), Complex64::ZERO);
            assert_eq!(interpolate_at(&x, beyond), Complex64::ZERO);
        }
        assert_ne!(interpolate_at(&x, 0.5 - reach / 2.0), Complex64::ZERO);
        assert_ne!(interpolate_at(&x, reach / 2.0 - 0.5), Complex64::ZERO);
        // The same kernel as a FIR: a tap `d` samples late weighs nothing
        // outside the entries `tapped_delay_line` keeps for it.
        for d in [0.0, 0.5, 1.0, 2.500_05, 7.25] {
            for (offset, _) in kernel_at(-d) {
                let lowest = -(d.ceil() as isize) - KERNEL_REACH;
                assert!((lowest..=KERNEL_REACH).contains(&offset), "{d}: {offset}");
            }
        }

        // The cascade: a lone sample through a six-tap link, the transmitter
        // 20 ppm fast, is exactly silent outside `support` and audible 40
        // samples out on either side, where one pass does not reach.
        let fs_tx = OfdmParams::default().sample_rate() * (1.0 + 20e-6);
        let mut rng = jmb_dsp::rng::rng_from_seed(16);
        let fading = Multipath::new(MultipathSpec::indoor_nlos(), &mut rng);
        assert_eq!(fading.tap_iter().count(), 6);
        let link = Link::new(Complex64::ONE, 0.0, fading);
        let (lo, hi) = support(&link, x.len(), fs_tx);
        let (mut fir, mut line) = (Vec::new(), Vec::new());
        let origin = tapped_delay_line(&x, &link, fs_tx, (-500, 500), &mut fir, &mut line);
        let heard = |pos: f64| interpolate_at(&line, pos - origin as f64);
        for k in 0..=100 {
            let beyond = k as f64 * 0.37;
            assert_eq!(heard(lo - beyond), Complex64::ZERO);
            assert_eq!(heard(hi + beyond), Complex64::ZERO);
        }
        assert!(lo < -40.3 && hi > 43.8);
        assert_ne!(heard(-40.3), Complex64::ZERO);
        assert_ne!(heard(43.8), Complex64::ZERO);
    }

    /// Stage 1 as one pass over the line per FIR entry, in entry order:
    /// what [`fir_filter`]'s blocks must sum to, bit for bit.
    fn per_entry_filter(
        samples: &[Complex64],
        (lowest, fir): (isize, &[Complex64]),
        (from, to): (isize, isize),
    ) -> (isize, Vec<Complex64>) {
        let len = samples.len() as isize;
        let from = from.max(1 - lowest - fir.len() as isize);
        let to = to.min(len - 1 - lowest);
        let mut line = vec![Complex64::ZERO; (to - from + 1).max(0) as usize];
        for (offset, &c) in (lowest..).zip(fir) {
            if c == Complex64::ZERO {
                continue;
            }
            for k in from.max(-offset)..(to + 1).min(len - offset) {
                let acc = &mut line[(k - from) as usize];
                *acc = c.mul_add(samples[(k + offset) as usize], *acc);
            }
        }
        (from, line)
    }

    #[test]
    fn blocked_fir_matches_the_per_entry_passes_bit_for_bit() {
        let bits = |line: &[Complex64]| -> Vec<(u64, u64)> {
            line.iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        let mut rng = jmb_dsp::rng::rng_from_seed(40);
        let mut draw = |n: usize, zeros: f64| -> Vec<Complex64> {
            (0..n)
                .map(|_| {
                    if rng.gen::<f64>() < zeros {
                        Complex64::ZERO
                    } else {
                        complex_gaussian(&mut rng, 1.0)
                    }
                })
                .collect()
        };
        let mut line = Vec::new();
        let mut cases = 0;
        // FIR lengths on either side of every multiple of the block, with
        // zero entries inside blocks; waveforms shorter and longer than the
        // FIR; stretches from empty through shorter than a block's overlap
        // to past both ends of the waveform.
        for fir_len in 1..=13 {
            for zeros in [0.0, 0.35] {
                let fir = draw(fir_len, zeros);
                for n in [1, 5, 40] {
                    let samples = draw(n, 0.0);
                    for lowest in [-9, -2, 0, 3] {
                        for from in [-25, -4, 0, 2, 17] {
                            for width in [-1, 0, 1, 2, 3, 6, 60] {
                                let stretch = (from, from + width);
                                let want = per_entry_filter(&samples, (lowest, &fir), stretch);
                                let origin =
                                    fir_filter(&samples, (lowest, &fir), stretch, &mut line);
                                assert_eq!(origin, want.0);
                                assert_eq!(bits(&line), bits(&want.1), "{fir_len} {n} {stretch:?}");
                                cases += usize::from(!line.is_empty());
                            }
                        }
                    }
                }
            }
        }
        assert!(cases > 3_000, "{cases}");

        // A link's own FIR, as the render builds it.
        let fs_tx = OfdmParams::default().sample_rate() * (1.0 - 13e-6);
        let samples = draw(700, 0.0);
        let mut rng = jmb_dsp::rng::rng_from_seed(41);
        let fading = Multipath::new(MultipathSpec::indoor_nlos(), &mut rng);
        let link = Link::new(Complex64::ONE, 0.0, fading);
        let mut fir = Vec::new();
        for stretch in [(-80, 800), (300, 302), (650, 760)] {
            let origin = tapped_delay_line(&samples, &link, fs_tx, stretch, &mut fir, &mut line);
            let lowest = KERNEL_REACH + 1 - fir.len() as isize;
            let want = per_entry_filter(&samples, (lowest, &fir), stretch);
            assert_eq!(
                (origin, bits(&line)),
                (want.0, bits(&want.1)),
                "{stretch:?}"
            );
        }
    }

    #[test]
    fn silence_is_noise_only() {
        let mut m = quiet_medium(1);
        let rx = m.add_node(PhaseTrajectory::fixed(FC, 0.0), 0.01);
        let out = m.render_rx(rx, 0.0, 10_000);
        let p = mean_power(&out);
        assert!((p - 0.01).abs() < 0.001, "noise power {p}");
    }

    #[test]
    fn ideal_link_passes_waveform() {
        let mut m = quiet_medium(2);
        let tx = clean_node(&mut m);
        let rx = clean_node(&mut m);
        m.set_link(tx, rx, Link::ideal());
        let wave = preamble::preamble(&m.params);
        m.transmit(tx, 0.0, wave.clone());
        let out = m.render_rx(rx, 0.0, wave.len());
        for (i, (o, w)) in out.iter().zip(&wave).enumerate().skip(8) {
            assert!((*o - *w).abs() < 1e-6, "sample {i}: {o} vs {w}");
        }
    }

    #[test]
    fn no_link_means_silence() {
        let mut m = quiet_medium(3);
        let tx = clean_node(&mut m);
        let rx = clean_node(&mut m);
        m.transmit(tx, 0.0, preamble::preamble(&m.params));
        let out = m.render_rx(rx, 0.0, 320);
        assert!(mean_power(&out) < 1e-20);
    }

    #[test]
    fn node_does_not_hear_itself() {
        let mut m = quiet_medium(4);
        let tx = clean_node(&mut m);
        m.set_link(tx, tx, Link::ideal());
        m.transmit(tx, 0.0, preamble::preamble(&m.params));
        let out = m.render_rx(tx, 0.0, 320);
        assert!(mean_power(&out) < 1e-20);
    }

    #[test]
    fn cfo_rotates_received_waveform() {
        let mut m = quiet_medium(5);
        let cfo = 5_000.0;
        let tx = m.add_node(PhaseTrajectory::fixed(FC, cfo), 0.0);
        let rx = clean_node(&mut m);
        m.set_link(tx, rx, Link::ideal());
        let wave = preamble::preamble(&m.params);
        m.transmit(tx, 0.0, wave.clone());
        let out = m.render_rx(rx, 0.0, wave.len());
        // Estimate CFO from the received STF — must match the injected one.
        let est = jmb_phy::sync::coarse_cfo(&m.params, &out[16..160]);
        assert!((est - cfo).abs() < 20.0, "est {est}");
    }

    #[test]
    fn delay_shifts_waveform() {
        let mut m = quiet_medium(6);
        let tx = clean_node(&mut m);
        let rx = clean_node(&mut m);
        let mut link = Link::ideal();
        link.delay_s = 10.0 / m.params.sample_rate(); // 10 samples
        m.set_link(tx, rx, link);
        let wave = preamble::preamble(&m.params);
        m.transmit(tx, 0.0, wave.clone());
        let out = m.render_rx(rx, 0.0, wave.len() + 20);
        for (i, s) in out.iter().take(8).enumerate() {
            assert!(s.abs() < 1e-9, "leading sample {i} not empty");
        }
        for i in 20..wave.len() {
            assert!((out[i + 10] - wave[i]).abs() < 1e-6, "sample {i}");
        }
    }

    #[test]
    fn superposition_of_two_transmitters() {
        let mut m = quiet_medium(7);
        let tx1 = clean_node(&mut m);
        let tx2 = clean_node(&mut m);
        let rx = clean_node(&mut m);
        m.set_link(tx1, rx, Link::ideal());
        m.set_link(tx2, rx, Link::ideal());
        let wave = preamble::preamble(&m.params);
        m.transmit(tx1, 0.0, wave.clone());
        m.transmit(tx2, 0.0, wave.clone());
        let out = m.render_rx(rx, 0.0, wave.len());
        // Identical in-phase copies add coherently: amplitude doubles.
        for i in 16..300 {
            assert!((out[i] - wave[i] * 2.0).abs() < 1e-6, "sample {i}");
        }
    }

    #[test]
    fn antiphase_transmitters_cancel() {
        // The essence of nulling: equal-amplitude opposite-phase signals
        // produce (near) silence.
        let mut m = quiet_medium(8);
        let tx1 = clean_node(&mut m);
        let tx2 = clean_node(&mut m);
        let rx = clean_node(&mut m);
        m.set_link(tx1, rx, Link::ideal());
        m.set_link(tx2, rx, Link::ideal());
        let wave = preamble::preamble(&m.params);
        let inverted: Vec<Complex64> = wave.iter().map(|&x| -x).collect();
        m.transmit(tx1, 0.0, wave.clone());
        m.transmit(tx2, 0.0, inverted);
        let out = m.render_rx(rx, 0.0, wave.len());
        assert!(mean_power(&out) < 1e-18, "residual {}", mean_power(&out));
    }

    #[test]
    fn multipath_convolution_applied() {
        let mut m = quiet_medium(9);
        let tx = clean_node(&mut m);
        let rx = clean_node(&mut m);
        // Build a deterministic 2-tap channel at one-sample spacing.
        let spec = MultipathSpec {
            n_taps: 2,
            tap_spacing_s: 1.0 / m.params.sample_rate(),
            rms_delay_spread_s: 1.0 / m.params.sample_rate(),
            rician_k_db: None,
            coherence_time_s: f64::INFINITY,
        };
        let mut rng = jmb_dsp::rng::rng_from_seed(1);
        let mut fading = Multipath::new(spec, &mut rng);
        // Overwrite taps deterministically via evolve-free construction:
        // easiest is to check linearity against the reported taps instead.
        let taps = fading.taps();
        let mut link = Link::ideal();
        link.fading = fading.clone();
        m.set_link(tx, rx, link);
        let wave = preamble::preamble(&m.params);
        m.transmit(tx, 0.0, wave.clone());
        let out = m.render_rx(rx, 0.0, wave.len() + 4);
        // Manual convolution with the same taps.
        for i in 40..200 {
            let mut want = Complex64::ZERO;
            for &(tau, g) in &taps {
                let d = (tau * m.params.sample_rate()).round() as usize;
                if i >= d {
                    want += g * wave[i - d];
                }
            }
            assert!(
                (out[i] - want).abs() < 1e-5,
                "sample {i}: {} vs {want}",
                out[i]
            );
        }
        // Silence fading's unused-var warning paths.
        fading.evolve(0.0, &mut rng);
    }

    #[test]
    fn sample_clock_offset_resamples() {
        // +100 ppm tx clock (exaggerated for test visibility): after 10 000
        // receiver samples, the tx waveform has slipped a full sample.
        let mut m = quiet_medium(10);
        let spec = OscillatorSpec::ideal();
        let _ = spec;
        let offset_hz = 100e-6 * FC; // +100 ppm
        let tx = m.add_node(PhaseTrajectory::fixed(FC, offset_hz), 0.0);
        let rx = clean_node(&mut m);
        m.set_link(tx, rx, Link::ideal());
        // A long constant-frequency tone.
        let n = 12_000usize;
        let f = 0.05; // cycles per tx sample
        let tone: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(2.0 * std::f64::consts::PI * f * i as f64))
            .collect();
        m.transmit(tx, 0.0, tone);
        let out = m.render_rx(rx, 0.0, n - 100);
        // At rx sample m, tx position ≈ m·(1+1e-4). Remove the CFO rotation
        // (the carrier offset also rotates the baseband) then compare phase.
        let ts = 1.0 / m.params.sample_rate();
        for &i in &[5_000usize, 10_000] {
            let t = i as f64 * ts;
            let cfo_rot = Complex64::cis(2.0 * std::f64::consts::PI * offset_hz * t);
            let expected_pos = i as f64 * (1.0 + 1e-4);
            let expected = Complex64::cis(2.0 * std::f64::consts::PI * f * expected_pos) * cfo_rot;
            assert!(
                (out[i] - expected).abs() < 0.05,
                "sample {i}: {} vs {expected}",
                out[i]
            );
        }
    }

    #[test]
    fn drop_fault_suppresses_transmission() {
        let mut m = quiet_medium(11);
        m.trace.enable();
        let tx = clean_node(&mut m);
        let rx = clean_node(&mut m);
        m.set_link(tx, rx, Link::ideal());
        m.set_fault_schedule(constant(|f| f.drop_chance(1.0)));
        m.transmit(tx, 0.0, preamble::preamble(&m.params));
        assert_eq!(m.transmissions.len(), 0);
        let out = m.render_rx(rx, 0.0, 320);
        assert!(mean_power(&out) < 1e-20);
        let dropped = m.trace.query().kind("Dropped");
        assert_eq!(dropped.count(), 1);
        assert!(matches!(
            dropped.events()[0].kind,
            EventKind::Dropped {
                cause: DropCause::Fault,
                ..
            }
        ));
        m.trace.query().assert_monotone_time();
    }

    #[test]
    fn corrupt_fault_flips_payload_but_not_preamble() {
        let mut m = quiet_medium(14);
        m.trace.enable();
        let tx = clean_node(&mut m);
        let rx = clean_node(&mut m);
        m.set_link(tx, rx, Link::ideal());
        m.set_fault_schedule(constant(|f| f.corrupt_chance(1.0)));
        // A constant-amplitude waveform long enough to have a payload region.
        let wave = vec![Complex64::ONE; 1_000];
        m.transmit(tx, 0.0, wave.clone());
        assert_eq!(m.transmissions.len(), 1);
        assert_eq!(m.trace.query().kind("Corrupted").count(), 1);
        let out = m.render_rx(rx, 0.0, wave.len());
        // Samples before CORRUPT_FROM are untouched (skip the interpolation
        // edge at the very start).
        for i in 16..Medium::CORRUPT_FROM - 16 {
            assert!((out[i] - wave[i]).abs() < 1e-6, "preamble sample {i}");
        }
        // Some payload samples are negated.
        let flipped = (Medium::CORRUPT_FROM..wave.len() - 16)
            .filter(|&i| (out[i] + wave[i]).abs() < 1e-6)
            .count();
        assert!(flipped > 50, "only {flipped} samples corrupted");
    }

    #[test]
    fn short_waveform_is_never_corrupted() {
        let mut m = quiet_medium(15);
        m.trace.enable();
        let tx = clean_node(&mut m);
        m.set_fault_schedule(constant(|f| f.corrupt_chance(1.0)));
        // Sync headers (320-sample preamble) are shorter than CORRUPT_FROM.
        m.transmit(tx, 0.0, preamble::preamble(&m.params));
        assert!(m.trace.query().kind("Corrupted").is_empty());
    }

    #[test]
    fn noise_burst_adds_power_in_window() {
        let mut m = quiet_medium(12);
        let rx = m.add_node(PhaseTrajectory::fixed(FC, 0.0), 1e-6);
        let ts = 1.0 / m.params.sample_rate();
        m.inject_noise_burst(rx, 100.0 * ts, 100.0 * ts, 1.0);
        let out = m.render_rx(rx, 0.0, 400);
        let before = mean_power(&out[..90]);
        let during = mean_power(&out[110..190]);
        let after = mean_power(&out[210..]);
        assert!(during > before * 100.0, "burst {during} vs {before}");
        assert!(after < during / 100.0);
    }

    #[test]
    fn noise_bursts_draw_once_per_instant_inside_them() {
        // Bursts before, across the start of, inside, across the end of and
        // after the window: the render is the AWGN draws followed by one draw
        // per (burst, instant inside it), in schedule order, bit for bit.
        let seed = 21;
        let mut m = quiet_medium(seed);
        let rx = m.add_node(PhaseTrajectory::fixed(FC, 12_000.0), 1e-3);
        let ts = 1.0 / (m.params.sample_rate() * m.nodes[rx.0].traj.sample_ratio());
        let (start_s, n) = (1e-3 + 0.3 * ts, 200);
        let at = |sample: f64| start_s + sample * ts;
        let bursts = [
            (at(-80.0), 40.0 * ts),
            (at(-10.5), 25.0 * ts),
            (at(60.0), 1.0 * ts),
            (at(90.25), 30.5 * ts),
            (at(190.0), 50.0 * ts),
            (at(230.0), 10.0 * ts),
        ];
        for &(from, dur) in &bursts {
            m.inject_noise_burst(rx, from, dur, 0.5);
        }
        let got = m.render_rx(rx, start_s, n);

        let mut rng = jmb_dsp::rng::rng_from_seed(seed);
        let mut want: Vec<Complex64> = (0..n).map(|_| complex_gaussian(&mut rng, 1e-3)).collect();
        let mut hit = 0;
        for &(from, dur) in &bursts {
            for (i, w) in want.iter_mut().enumerate() {
                let t = start_s + i as f64 * ts;
                if t >= from && t < from + dur {
                    *w += complex_gaussian(&mut rng, 0.5);
                    hit += 1;
                }
            }
        }
        assert_eq!(hit, 15 + 1 + 30 + 10);
        assert_eq!(got, want);
        // And the medium's stream goes on from where those draws leave it.
        assert_eq!(m.rng.next_u64(), rng.next_u64());
    }

    #[test]
    fn skipping_the_stream_lands_where_box_muller_draws_leave_it() {
        for n in [0, 1, 2, 7, 1_000] {
            let mut drawn = jmb_dsp::rng::rng_from_seed(30 + n as u64);
            let mut skipped = drawn.clone();
            for _ in 0..n {
                complex_gaussian(&mut drawn, 0.37);
            }
            skip_complex_normals(&mut skipped, n);
            assert_eq!(drawn.next_u64(), skipped.next_u64(), "{n} samples");
        }
        // Not a step fewer: a complex sample is four draws, not three.
        let mut drawn = jmb_dsp::rng::rng_from_seed(31);
        complex_gaussian(&mut drawn, 1.0);
        let mut short = jmb_dsp::rng::rng_from_seed(31);
        for _ in 0..3 {
            short.next_u64();
        }
        assert_ne!(drawn.next_u64(), short.next_u64());
    }

    /// `(re, im)` bits of every sample of every window.
    fn window_bits(windows: &[Vec<Complex64>]) -> Vec<Vec<(u64, u64)>> {
        windows
            .iter()
            .map(|w| w.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect())
            .collect()
    }

    /// The windows [`cell`] renders.
    const CELL_START_S: f64 = 1e-3 - 5e-6;
    const CELL_N: usize = 1_000;

    /// One frame of a cell with two phase-noisy transmitters and
    /// `receivers` receivers behind NLOS links: a waveform from each, a
    /// third that a fault drops, and a noise burst across part of the first
    /// receiver's window; in a cell of four, the last receiver has no link
    /// and hears nothing.
    fn cell(receivers: usize) -> (Medium, Vec<NodeId>) {
        let mut m = quiet_medium(60);
        m.trace.enable();
        let mut rng = jmb_dsp::rng::rng_from_seed(61);
        let spec = OscillatorSpec::wifi_worst_case();
        let txs: Vec<NodeId> = (0..2)
            .map(|_| m.add_node(PhaseTrajectory::new(spec, FC, &mut rng), 1e-4))
            .collect();
        let rxs: Vec<NodeId> = (0..receivers)
            .map(|_| m.add_node(PhaseTrajectory::new(spec, FC, &mut rng), 1e-3))
            .collect();
        let deaf = (receivers == 4).then(|| rxs[3]);
        for &tx in &txs {
            for &rx in rxs.iter().filter(|&&rx| Some(rx) != deaf) {
                let fading = Multipath::new(MultipathSpec::indoor_nlos(), &mut rng);
                let delay_s = 40e-9 * rng.gen::<f64>();
                let link = Link::new(complex_gaussian(&mut rng, 1.0), delay_s, fading);
                m.set_link(tx, rx, link);
            }
        }
        let t0 = 1e-3;
        for (k, start_s) in [t0, t0 + 3e-7, t0 + 1e-5].into_iter().enumerate() {
            let wave: Vec<Complex64> = (0..800).map(|_| complex_gaussian(&mut rng, 1.0)).collect();
            if k == 2 {
                m.set_fault_schedule(constant(|f| f.drop_chance(1.0)));
            }
            m.transmit(txs[k % 2], start_s, wave);
        }
        m.set_fault_schedule(FaultSchedule::none());
        m.inject_noise_burst(rxs[0], t0 + 2e-5, 1e-5, 0.5);
        (m, rxs)
    }

    #[test]
    fn the_cell_has_what_it_says() {
        let (mut m, rxs) = cell(4);
        assert_eq!(m.trace.query().kind("Dropped").count(), 1);
        assert_eq!(m.transmissions.len(), 2);
        let windows: Vec<_> = rxs
            .iter()
            .map(|&rx| m.render_rx(rx, CELL_START_S, CELL_N))
            .collect();
        // The burst: without it, the first window differs at the 100
        // instants inside it and nowhere else (its draws follow the AWGN's).
        let (mut calm, _) = cell(4);
        calm.bursts.clear();
        let without = calm.render_rx(rxs[0], CELL_START_S, CELL_N);
        let ts = 1.0 / (m.params.sample_rate() * m.nodes[rxs[0].0].traj.sample_ratio());
        let (from, until) = (1e-3 + 2e-5, 1e-3 + 2e-5 + 1e-5);
        let inside = |&i: &usize| (from..until).contains(&(CELL_START_S + i as f64 * ts));
        let differ: Vec<usize> = (0..CELL_N)
            .filter(|&i| windows[0][i] != without[i])
            .collect();
        assert_eq!(differ, (0..CELL_N).filter(inside).collect::<Vec<_>>());
        assert_eq!(differ.len(), 100);
        // The deaf receiver hears its noise floor; the others hear the air.
        assert!((mean_power(&windows[3]) - 1e-3).abs() < 2e-4);
        assert!(mean_power(&windows[1]) > 0.1);
    }

    #[test]
    fn one_worker_and_many_render_the_same_windows_stream_and_trace() {
        for receivers in [1, 2, 4] {
            let (mut serial, rxs) = cell(receivers);
            let want: Vec<_> = rxs
                .iter()
                .map(|&rx| serial.render_rx(rx, CELL_START_S, CELL_N))
                .collect();
            for workers in [0, 1, 2, 4] {
                let (mut m, rxs) = cell(receivers);
                let got = m.render_each(
                    &rxs,
                    (CELL_START_S, CELL_N),
                    &mut vec![(); workers],
                    |_, _, window| window,
                    |_| false,
                );
                let case = format!("{receivers} receivers, {workers} workers");
                assert!(window_bits(&got) == window_bits(&want), "{case}");
                assert_eq!(m.rng.next_u64(), serial.rng.clone().next_u64(), "{case}");
                assert_eq!(m.trace.to_jsonl(), serial.trace.to_jsonl(), "{case}");
            }
        }
    }

    #[test]
    fn a_stop_leaves_the_stream_and_trace_where_the_serial_loop_leaves_them() {
        for stop_at in 0..4 {
            let (mut serial, rxs) = cell(4);
            let want: Vec<_> = rxs[..=stop_at]
                .iter()
                .map(|&rx| serial.render_rx(rx, CELL_START_S, CELL_N))
                .collect();
            for workers in [1, 2, 4] {
                let (mut m, rxs) = cell(4);
                let got = m.render_each(
                    &rxs,
                    (CELL_START_S, CELL_N),
                    &mut vec![(); workers],
                    |_, j, window| (j, window),
                    |&(j, _)| j == stop_at,
                );
                let case = format!("stop at {stop_at}, {workers} workers");
                let (order, got): (Vec<usize>, Vec<_>) = got.into_iter().unzip();
                assert_eq!(order, (0..=stop_at).collect::<Vec<_>>(), "{case}");
                assert!(window_bits(&got) == window_bits(&want), "{case}");
                assert_eq!(m.rng.next_u64(), serial.rng.clone().next_u64(), "{case}");
                assert_eq!(m.trace.to_jsonl(), serial.trace.to_jsonl(), "{case}");
            }
        }
    }

    #[test]
    fn a_worker_panic_is_raised_again() {
        let (mut m, rxs) = cell(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.render_each(
                &rxs,
                (CELL_START_S, CELL_N),
                &mut [(); 4],
                |_, j, window| {
                    if j == 3 {
                        panic!("worker {j} failed");
                    }
                    window
                },
                |_| false,
            )
        }));
        let message = caught.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(*message, "worker 3 failed");
    }

    #[test]
    fn expire_retains_active() {
        let mut m = quiet_medium(13);
        let tx = clean_node(&mut m);
        let wave = vec![Complex64::ONE; 100];
        m.transmit(tx, 0.0, wave.clone());
        m.transmit(tx, 1.0, wave);
        assert_eq!(m.transmissions.len(), 2);
        m.expire(0.5);
        assert_eq!(m.transmissions.len(), 1);
    }
}
