//! Criterion micro-benchmarks for the hot code paths of the JMB stack.
//!
//! These measure the *code*, not the experiments: FFT, Viterbi decoding,
//! precoder construction, phase-sync correction, the sample-level medium,
//! and an end-to-end packet through the full PHY.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use jmb_channel::oscillator::PhaseTrajectory;
use jmb_channel::Link;
use jmb_dsp::rng::{complex_gaussian, rng_from_seed};
use jmb_dsp::{CMat, Complex64};
use jmb_phy::frame::{FrameRx, FrameTx};
use jmb_phy::params::OfdmParams;
use jmb_phy::rates::Mcs;
use jmb_phy::{convcode, viterbi};
use jmb_sim::Medium;

fn bench_fft(c: &mut Criterion) {
    let plan = jmb_dsp::fft::plan(64);
    let input: Vec<Complex64> = (0..64).map(|i| Complex64::cis(i as f64 * 0.37)).collect();
    c.bench_function("fft64_forward", |b| {
        b.iter_batched(
            || input.clone(),
            |mut buf| plan.forward(&mut buf),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("fft64_plan_lookup", |b| b.iter(|| jmb_dsp::fft::plan(64)));
}

fn bench_viterbi(c: &mut Criterion) {
    let data: Vec<u8> = (0..864).map(|i| ((i * 31 + 7) % 2) as u8).collect();
    let coded = convcode::encode(&data);
    let soft: Vec<f64> = coded
        .iter()
        .map(|&b| if b == 0 { 1.0 } else { -1.0 })
        .collect();
    c.bench_function("viterbi_864b", |b| {
        b.iter(|| viterbi::decode(&soft).unwrap())
    });
    // The add-compare-select kernel alone (no traceback, no allocation):
    // the dominant cost of every decode.
    let n_steps = soft.len() / 2;
    let mut decision = vec![0u8; n_steps * viterbi::N_STATES];
    c.bench_function("viterbi_acs_block", |b| {
        b.iter(|| {
            let mut metric = [viterbi::NEG_INF; viterbi::N_STATES];
            metric[0] = 0.0;
            viterbi::acs_block(&soft, &mut metric, &mut decision)
        })
    });
}

fn bench_demap(c: &mut Criterion) {
    use jmb_phy::modulation::Modulation;
    // One OFDM symbol's worth of QAM-64 values near constellation points,
    // through the batched soft demapper (the rx pipeline's per-symbol call).
    let mut rng = rng_from_seed(7);
    let m = Modulation::Qam64;
    let ys: Vec<Complex64> = (0..48).map(|_| complex_gaussian(&mut rng, 1.0)).collect();
    let csi = vec![1.0f64; ys.len()];
    let mut llrs = Vec::new();
    c.bench_function("demap_soft_stream", |b| {
        b.iter(|| {
            llrs.clear();
            let mut evm = 0.0;
            m.demap_soft_evm_into(&ys, 0.1, &csi, &mut llrs, &mut evm);
            evm
        })
    });
}

fn bench_precoder(c: &mut Criterion) {
    let mut rng = rng_from_seed(1);
    let hs: Vec<CMat> = (0..52)
        .map(|_| {
            CMat::from_vec(
                10,
                10,
                (0..100).map(|_| complex_gaussian(&mut rng, 1.0)).collect(),
            )
        })
        .collect();
    c.bench_function("zf_precoder_10x10_52sc", |b| {
        b.iter(|| jmb_core::precoder::Precoder::zero_forcing(&hs).unwrap())
    });
    // Gram-matrix assembly alone (G = H·Hᴴ, lower triangle): the first and
    // heaviest stage of each per-subcarrier pseudo-inverse.
    let mut solver = jmb_dsp::ZfSolver::new(10, 10);
    c.bench_function("zf_gram_assembly", |b| {
        b.iter(|| solver.gram_assembly(&hs[0]).unwrap())
    });
}

fn bench_phasesync(c: &mut Criterion) {
    use jmb_phy::chanest::ChannelEstimate;
    let params = OfdmParams::default();
    let subs = params.occupied_subcarriers();
    let reference = ChannelEstimate {
        subcarriers: subs.clone(),
        gains: subs
            .iter()
            .map(|&k| Complex64::cis(0.05 * k as f64))
            .collect(),
    };
    let now = ChannelEstimate {
        subcarriers: subs.clone(),
        gains: subs
            .iter()
            .map(|&k| Complex64::cis(0.05 * k as f64 + 0.8))
            .collect(),
    };
    let mut ps = jmb_core::phasesync::PhaseSync::new();
    ps.set_reference(reference);
    c.bench_function("phasesync_correction", |b| {
        b.iter(|| ps.correction(&now).unwrap())
    });
}

fn bench_medium(c: &mut Criterion) {
    let params = OfdmParams::default();
    let mut m = Medium::new(params.clone(), 1);
    let tx = m.add_node(PhaseTrajectory::fixed(2.437e9, 1000.0), 0.0);
    let rx = m.add_node(PhaseTrajectory::fixed(2.437e9, -500.0), 1e-6);
    m.set_link(tx, rx, Link::ideal());
    let wave = jmb_phy::preamble::preamble(&params);
    m.transmit(tx, 0.0, wave);
    c.bench_function("medium_render_320_samples", |b| {
        b.iter(|| m.render_rx(rx, 0.0, 320))
    });
    // Same call at the `sample_cell` data-frame shape: two APs over six-tap
    // NLOS links, so each output sample costs twelve interpolations, not one.
    let (mut m, client, n) = jmb_bench::nlos_two_ap_medium(1);
    c.bench_function("medium_render_nlos_2tx_300B", |b| {
        b.iter(|| m.render_rx(client, 0.0, n))
    });
}

fn bench_e2e_packet(c: &mut Criterion) {
    let params = OfdmParams::default();
    let tx = FrameTx::new(params.clone());
    let rx = FrameRx::new(params);
    let payload: Vec<u8> = (0..1500).map(|i| i as u8).collect();
    c.bench_function("phy_tx_1500B_qam16", |b| {
        b.iter(|| tx.tx_frame(Mcs::ALL[5], &payload).unwrap())
    });
    let wave = tx.tx_frame(Mcs::ALL[5], &payload).unwrap();
    c.bench_function("phy_rx_1500B_qam16", |b| {
        b.iter(|| rx.rx_frame(&wave).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_fft, bench_viterbi, bench_demap, bench_precoder, bench_phasesync, bench_medium, bench_e2e_packet
}
criterion_main!(benches);
