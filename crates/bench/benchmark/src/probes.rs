//! Shape probes: direct calls into a lower layer's public functions with
//! the shapes a workload uses (array size, MCS, payload, link model), each
//! timed alone at least [`CALLS`] times, median reported.
//!
//! A probe is an estimate of what the layer costs per call at that shape,
//! not a span inside the running workload: the program has no public
//! boundary there to wrap. In-program spans are a later change.

use crate::alloc;
use jmb_channel::oscillator::PhaseTrajectory;
use jmb_channel::topology::Room;
use jmb_channel::{Link, Multipath, MultipathSpec, Topology};
use jmb_core::baseline::frame_airtime;
use jmb_core::fastnet::{FastConfig, FastNet};
use jmb_core::net::NetConfig;
use jmb_dsp::rng::{complex_gaussian, rng_from_seed};
use jmb_dsp::{fft_in_place, CMat, Complex64, ZfSolver};
use jmb_phy::rates::Mcs;
use jmb_phy::{convcode, sync, viterbi, FrameRx, FrameTx, OfdmParams};
use jmb_sim::Medium;
use jmb_traffic::{FastBackend, SampleBackend};
use std::hint::black_box;
use std::time::Instant;

/// Timed calls per probe.
pub const CALLS: usize = 200;

/// Named probe results.
pub type Out = Vec<(&'static str, f64)>;

/// Median nanoseconds of one call of `f`, over [`CALLS`] calls timed one
/// by one after three untimed ones.
fn median_ns(mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let ns: Vec<f64> = (0..CALLS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&ns)
}

/// As [`median_ns`] for calls too short to time alone: each sample times
/// `batch` calls.
fn median_ns_batched(batch: usize, mut f: impl FnMut()) -> f64 {
    median_ns(|| {
        for _ in 0..batch {
            f();
        }
    }) / batch as f64
}

/// Allocations one call of `f` makes, once a first call has grown the
/// buffers it reuses.
fn allocs_of(mut f: impl FnMut()) -> f64 {
    f();
    alloc::counting(f).0 as f64
}

fn err(e: impl std::fmt::Display) -> String {
    format!("probe: {e}")
}

/// The figure path at 10 APs × 10 clients in the high band: what each
/// topology draw of `fig_sweep`'s largest point pays, step by step.
pub fn fastnet_n10(seed: u64) -> Result<Out, String> {
    let cfg = FastConfig::default_with(10, 10, vec![22.0; 10], seed);
    let duration = frame_airtime(&cfg.params, Mcs::ALL[4], 1500);
    let mut build_err = None;
    let new_ns = median_ns(|| match FastNet::new(cfg.clone()) {
        Ok(net) => drop(black_box(net)),
        Err(e) => build_err = Some(err(e)),
    });
    if let Some(e) = build_err {
        return Err(e);
    }
    let mut net = FastNet::new(cfg).map_err(err)?;
    net.run_measurement().map_err(err)?;
    let mut failed = false;
    let measure_ns = median_ns(|| failed |= net.run_measurement().is_err());
    net.advance(2e-3);
    let joint_ns = median_ns(|| failed |= net.joint_transmit(duration, 4, &[], true).is_err());
    let joint_allocs = allocs_of(|| failed |= net.joint_transmit(duration, 4, &[], true).is_err());
    let base_ns = median_ns(|| drop(black_box(net.baseline_snr_db(3))));
    if failed {
        return Err("probe: FastNet measurement or joint transmit failed".into());
    }
    Ok(vec![
        ("core.fastnet.new_us.n10", new_ns / 1e3),
        ("core.fastnet.measure_us.n10", measure_ns / 1e3),
        ("core.fastnet.joint_tx_us.n10", joint_ns / 1e3),
        ("core.fastnet.baseline_snr_us.n10", base_ns / 1e3),
        ("core.fastnet.joint_tx_allocs.n10", joint_allocs),
    ])
}

/// One Gram assembly of a 10 × 10 channel: the matrix kernel under ZF.
pub fn zf_gram(seed: u64) -> Result<Out, String> {
    let mut rng = rng_from_seed(seed);
    let h = CMat::from_vec(
        10,
        10,
        (0..100).map(|_| complex_gaussian(&mut rng, 1.0)).collect(),
    );
    let mut solver = ZfSolver::new(10, 10);
    solver.gram_assembly(&h).map_err(err)?;
    let ns = median_ns_batched(100, || drop(black_box(solver.gram_assembly(black_box(&h)))));
    Ok(vec![("dsp.zf_gram_us", ns / 1e3)])
}

/// Placement and link model: a 10 × 10 conference-room draw, and one
/// indoor multipath link's frequency response and fading step.
pub fn channel(seed: u64) -> Out {
    let params = OfdmParams::default();
    let room = Room::conference();
    let mut rng = rng_from_seed(seed);
    let draw_ns = median_ns(|| drop(black_box(Topology::draw(&room, 10, 10, &mut rng))));
    let mut link = nlos_link(seed);
    let resp_ns = median_ns_batched(10, || drop(black_box(link.freq_response(&params))));
    let evolve_ns = median_ns_batched(10, || link.evolve(1e-3, &mut rng));
    vec![
        ("channel.topology_draw_us", draw_ns / 1e3),
        ("channel.freq_response_us", resp_ns / 1e3),
        ("channel.link_evolve_us", evolve_ns / 1e3),
    ]
}

fn nlos_link(seed: u64) -> Link {
    let mut rng = rng_from_seed(seed ^ 0x11);
    Link::new(
        Complex64::from_polar(1.0, 0.7),
        40e-9,
        Multipath::new(MultipathSpec::indoor_nlos(), &mut rng),
    )
}

/// Building one city cell's backend (2 APs × 8 clients at 22 dB).
pub fn city_cell_new(seed: u64) -> Result<Out, String> {
    let cfg = FastConfig::default_with(2, 8, vec![22.0; 8], seed);
    let mut failed = false;
    let ns = median_ns(|| match FastBackend::new(cfg.clone()) {
        Ok(b) => drop(black_box(b)),
        Err(_) => failed = true,
    });
    if failed {
        return Err("probe: city cell backend failed to build".into());
    }
    Ok(vec![("core.fast.cell_new_us", ns / 1e3)])
}

/// The sample path's lower layers at `sample_cell`'s shape: its MCS, a
/// 300-byte payload, an indoor multipath link with CFO.
pub fn sample_path(phy: &NetConfig, payload_len: usize, seed: u64) -> Result<Out, String> {
    let params = phy.params.clone();
    let mcs = SampleBackend::new(phy.clone()).map_err(err)?.mcs();
    let payload: Vec<u8> = (0..payload_len).map(|i| i as u8).collect();
    let tx = FrameTx::new(params.clone());
    let rx = FrameRx::new(params.clone());
    let mut failed = false;

    let tx_ns = median_ns(|| failed |= tx.tx_frame(mcs, &payload).is_err());
    let wave = tx.tx_frame(mcs, &payload).map_err(err)?;
    let sync_ns = median_ns(|| failed |= sync::synchronize(&params, &wave).is_none());
    let mut rot = wave.clone();
    let cfo_ns = median_ns(|| {
        black_box(sync::correct_cfo(&params, &mut rot, 1200.0, 0.0));
    });
    let rx_ns = median_ns(|| failed |= rx.rx_frame(&wave).is_err());
    let rx_allocs = allocs_of(|| failed |= rx.rx_frame(&wave).is_err());

    // The frame's coded stream: payload + CRC, SERVICE and tail bits.
    let data: Vec<u8> = (0..(payload_len + 4) * 8 + 16)
        .map(|i| ((i * 31 + 7) % 2) as u8)
        .collect();
    let soft: Vec<f64> = convcode::encode(&data)
        .iter()
        .map(|&b| if b == 0 { 1.0 } else { -1.0 })
        .collect();
    let vit_ns = median_ns(|| failed |= viterbi::decode(&soft).is_err());

    // One frame through the medium: a transmitter 1 kHz high, a receiver
    // 500 Hz low, an indoor multipath link between them.
    let mut medium = Medium::new(params.clone(), seed);
    let a = medium.add_node(PhaseTrajectory::fixed(2.437e9, 1000.0), 0.0);
    let b = medium.add_node(PhaseTrajectory::fixed(2.437e9, -500.0), 1e-6);
    medium.set_link(a, b, nlos_link(seed));
    let n = wave.len();
    medium.transmit(a, 0.0, wave);
    let render_ns = median_ns(|| drop(black_box(medium.render_rx(b, 0.0, n))));
    let render_allocs = allocs_of(|| drop(black_box(medium.render_rx(b, 0.0, n))));

    let mut buf: Vec<Complex64> = (0..64).map(|i| Complex64::cis(i as f64 * 0.37)).collect();
    let fft_ns = median_ns_batched(1000, || fft_in_place(black_box(&mut buf)));

    if failed {
        return Err("probe: a PHY call failed on a clean frame".into());
    }
    Ok(vec![
        ("phy.tx_frame_us", tx_ns / 1e3),
        ("phy.synchronize_us", sync_ns / 1e3),
        ("phy.correct_cfo_us", cfo_ns / 1e3),
        ("phy.rx_frame_us", rx_ns / 1e3),
        ("phy.viterbi_us", vit_ns / 1e3),
        ("phy.rx_frame_allocs", rx_allocs),
        (
            "sim.render_rx_us_per_ksample",
            render_ns / 1e3 / (n as f64 / 1e3),
        ),
        ("sim.render_rx_allocs", render_allocs),
        ("dsp.fft64_ns", fft_ns),
    ])
}
