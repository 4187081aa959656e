//! `SubcarrierMedium::channel_rows_into` walks each pair's sampling-offset
//! rotation across the band as a geometric ramp (`jmb_dsp::complex::phasor_ramp`:
//! two `sin_cos` per pair, one complex multiplication per subcarrier step)
//! where `channel_at` — the per-entry reference, untouched — evaluates
//! `cis(2π·f_k·slip)` once per subcarrier. This corpus holds the rows to the
//! reference entry by entry: indoor LOS / NLOS / flat links, fixed crystals at
//! the ±20 ppm edges of the 802.11 tolerance and free-running noisy ones,
//! instants from 0 to 5 s, one-pair and many-pair calls.
//!
//! Largest relative difference `|row − at| / |at|` over the corpus: **9.1e-13**
//! (±20 ppm crystals at 5 s), against [`TOLERANCE`]; **4.2e-15** at instants
//! up to 10 ms, against [`TOLERANCE_SHORT`] (PR 13's sinc recurrence read
//! 7.4e-12). The larger figure is not the ramp's 53 roundings (those are the
//! smaller one) but the angle's: 5 s of slip between crystals 40 ppm apart
//! puts `2π·f_k·slip` at ≈ 5 000 rad at the band edge, where one rounding of
//! the product is `2⁻⁵³·5 000 ≈ 6e-13` rad on *either* path — the reference
//! rounds each `f_k·slip`, the ramp rounds the per-subcarrier step once and
//! walks it out 26 steps.

use jmb_channel::oscillator::OscillatorSpec;
use jmb_channel::{Link, Multipath, MultipathSpec, PhaseTrajectory};
use jmb_dsp::rng::{rng_from_seed, JmbRng};
use jmb_phy::params::{ChannelProfile, OfdmParams};
use jmb_sim::{NodeId, SubcarrierMedium};
use rand::Rng;

const FC: f64 = 2.437e9;

/// Largest relative difference the rows may show against `channel_at`.
const TOLERANCE: f64 = 5e-12;
/// The same within a coherence time, where the slip angle is small.
const TOLERANCE_SHORT: f64 = 1e-14;

const INSTANTS: [f64; 10] = [0.0, 1e-4, 1.3e-3, 7.7e-3, 10e-3, 50e-3, 0.3, 1.0, 2.5, 5.0];

fn faded_link(spec: MultipathSpec, rng: &mut JmbRng) -> Link {
    Link::new(
        jmb_dsp::rng::random_phasor(rng).scale(0.2 + rng.gen::<f64>()),
        rng.gen::<f64>() * 60e-9,
        Multipath::new(spec, rng),
    )
}

/// Three transmitters and two receivers with a link between every pair.
fn cell(
    spec: MultipathSpec,
    mut crystal: impl FnMut(usize, &mut JmbRng) -> PhaseTrajectory,
    seed: u64,
) -> (SubcarrierMedium, Vec<NodeId>, Vec<NodeId>) {
    let mut rng = rng_from_seed(seed);
    let mut m = SubcarrierMedium::new(OfdmParams::new(ChannelProfile::Usrp10MHz));
    let nodes: Vec<NodeId> = (0..5)
        .map(|n| {
            let traj = crystal(n, &mut rng);
            m.add_node(traj)
        })
        .collect();
    let (txs, rxs) = (nodes[..3].to_vec(), nodes[3..].to_vec());
    for &tx in &txs {
        for &rx in &rxs {
            m.set_link(tx, rx, faded_link(spec, &mut rng));
        }
    }
    (m, txs, rxs)
}

/// Largest relative difference of both row paths against `channel_at` over
/// every pair and subcarrier at `t`; the two row paths themselves must agree
/// bit for bit (a one-pair call is the many-pair call for that pair).
fn worst_at(m: &mut SubcarrierMedium, txs: &[NodeId], rxs: &[NodeId], t: f64) -> f64 {
    let ks = m.occupied().to_vec();
    let (mut rows, mut row) = (Vec::new(), Vec::new());
    m.channel_rows_into(txs, rxs, t, &mut rows);
    assert_eq!(rows.len(), rxs.len() * txs.len() * ks.len());
    let mut worst = 0.0f64;
    for (j, &rx) in rxs.iter().enumerate() {
        for (i, &tx) in txs.iter().enumerate() {
            m.channel_row_into(tx, rx, t, &mut row);
            let many = &rows[(j * txs.len() + i) * ks.len()..][..ks.len()];
            assert_eq!(row, many, "one-pair vs many-pair call, tx={i} rx={j} t={t}");
            for (&k, &got) in ks.iter().zip(many) {
                let want = m.channel_at(tx, rx, k, t);
                worst = worst.max((got - want).abs() / want.abs());
            }
        }
    }
    worst
}

#[test]
fn rows_match_channel_at_to_the_ramps_rounding() {
    let profiles = [
        ("indoor_los", MultipathSpec::indoor_los()),
        ("indoor_nlos", MultipathSpec::indoor_nlos()),
        ("flat", MultipathSpec::flat()),
    ];
    // Fixed crystals at the edges of the 802.11 tolerance (neighbours 40 ppm
    // apart: the fastest clock slip the standard allows), and free-running
    // worst-case ones whose phase also carries the Wiener walk.
    let edge = |n: usize, _: &mut JmbRng| {
        let ppm = if n.is_multiple_of(2) { 20.0 } else { -20.0 };
        PhaseTrajectory::fixed(FC, ppm * 1e-6 * FC)
    };
    let noisy = |_: usize, rng: &mut JmbRng| {
        PhaseTrajectory::new(OscillatorSpec::wifi_worst_case(), FC, rng)
    };
    let mut worst = 0.0f64;
    let mut worst_short = 0.0f64;
    for (seed, (name, spec)) in (40..).zip(profiles) {
        let cells = [
            ("±20 ppm", cell(spec, edge, seed)),
            ("noisy", cell(spec, noisy, seed)),
        ];
        for (crystals, (mut m, txs, rxs)) in cells {
            for t in INSTANTS {
                let w = worst_at(&mut m, &txs, &rxs, t);
                assert!(w <= TOLERANCE, "{name}, {crystals}, t={t}: {w:e}");
                worst = worst.max(w);
                if t <= 10e-3 {
                    assert!(w <= TOLERANCE_SHORT, "{name}, {crystals}, t={t}: {w:e}");
                    worst_short = worst_short.max(w);
                }
            }
        }
    }
    // The corpus is not vacuous: the ramp does round differently somewhere.
    assert!(worst > 0.0 && worst_short > 0.0);
    println!("largest relative difference {worst:e} ({worst_short:e} within 10 ms)");
}
