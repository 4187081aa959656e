//! The eleven `jmb-bench all` experiments: one per figure of the paper's
//! evaluation (§11) plus the two ablations. Each prints the figure's
//! series as rows and returns the CSV pinned under `results/`.

use crate::{ctx, BenchError, Opts, Report};
use jmb_channel::SnrBand;
use jmb_core::experiment::{
    aggregate_scaling, compat_runs, diversity_sweep, drift_motivation, inr_scaling,
    measurement_interleaving_ablation, misalignment_samples, snr_reduction_vs_misalignment,
    throughput_scaling,
};
use jmb_dsp::stats::Cdf;

/// §1/§5.2 motivation: phase error of naive CFO extrapolation vs JMB's
/// direct phase measurement, as elapsed time grows.
///
/// Paper's numbers: a 10 Hz estimation error reaches 0.35 rad (20°) within
/// 5.5 ms; 100 Hz reaches π within 20 ms. Direct measurement stays flat.
pub(crate) fn fig00_drift_motivation(opts: &Opts) -> Result<Report, BenchError> {
    let horizons: Vec<f64> = [0.5e-3, 1e-3, 2e-3, 5.5e-3, 10e-3, 20e-3, 50e-3].to_vec();
    let trials = if opts.set.quick { 100 } else { 1000 };
    let mut rows = Vec::new();
    println!("cfo_err_hz  t_ms   naive_rad  direct_rad");
    for err in [1.0, 10.0, 100.0] {
        for p in drift_motivation(err, &horizons, trials, opts.set.seed) {
            println!(
                "{err:>9.0}  {:>5.1}  {:>9.4}  {:>9.4}",
                p.elapsed_s * 1e3,
                p.naive_err_rad,
                p.direct_err_rad
            );
            rows.push(vec![
                format!("{err}"),
                format!("{}", p.elapsed_s),
                format!("{}", p.naive_err_rad),
                format!("{}", p.direct_err_rad),
            ]);
        }
    }
    println!("paper anchor: 10 Hz × 5.5 ms → 0.35 rad (20°); direct stays ≈ 0.01 rad");
    Ok(Report::csv(
        "fig00_drift_motivation.csv",
        "cfo_error_hz,elapsed_s,naive_err_rad,direct_err_rad",
        rows,
    ))
}

/// Fig. 6 — degradation of SNR due to phase misalignment.
///
/// 2×2 zero-forcing, 100 random channel matrices, misalignment 0–0.5 rad,
/// at 10 and 20 dB. Paper: 0.35 rad costs ≈ 8 dB at 20 dB SNR, and the
/// reduction is larger at higher SNR.
pub(crate) fn fig06_misalignment(opts: &Opts) -> Result<Report, BenchError> {
    let phis: Vec<f64> = (0..=10).map(|i| i as f64 * 0.05).collect();
    let n_mat = if opts.set.quick { 30 } else { 100 };
    let pts = snr_reduction_vs_misalignment(&phis, &[10.0, 20.0], n_mat, opts.set.seed);
    println!("misalign_rad  snr_db  reduction_db");
    let mut rows = Vec::new();
    for p in &pts {
        println!(
            "{:>12.2}  {:>6.0}  {:>12.2}",
            p.misalignment_rad, p.snr_db, p.reduction_db
        );
        rows.push(vec![
            format!("{}", p.misalignment_rad),
            format!("{}", p.snr_db),
            format!("{}", p.reduction_db),
        ]);
    }
    let anchor = pts
        .iter()
        .find(|p| p.snr_db == 20.0 && (p.misalignment_rad - 0.35).abs() < 0.026);
    if let Some(a) = anchor {
        println!(
            "paper anchor: 0.35 rad @ 20 dB → paper ≈ 8 dB, measured {:.1} dB",
            a.reduction_db
        );
    }
    Ok(Report::csv(
        "fig06_misalignment.csv",
        "misalignment_rad,snr_db,reduction_db",
        rows,
    ))
}

/// Fig. 7 — CDF of the phase misalignment JMB actually achieves.
///
/// Full sample-level probe: lead and slave alternate OFDM symbols after the
/// real synchronisation pipeline; the receiver tracks the deviation of
/// their relative phase from its first observation.
///
/// Paper: median 0.017 rad, 95th percentile 0.05 rad.
pub(crate) fn fig07_misalignment_cdf(opts: &Opts) -> Result<Report, BenchError> {
    let (runs, rounds) = if opts.set.quick { (4, 15) } else { (12, 40) };
    let samples = ctx(
        misalignment_samples(runs, rounds, opts.set.seed, Default::default()),
        "misalignment probe",
    )?;
    let cdf = Cdf::new(&samples);
    println!("fraction  misalignment_rad");
    for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
        println!("{q:>8.2}  {:>16.4}", cdf.quantile(q));
    }
    println!(
        "paper anchors: median 0.017 rad (measured {:.4}), 95th pct 0.05 rad (measured {:.4})",
        cdf.quantile(0.5),
        cdf.quantile(0.95)
    );
    Ok(Report::csv(
        "fig07_misalignment_cdf.csv",
        "fraction,misalignment_rad",
        cdf_rows(&cdf),
    ))
}

/// `fraction,value` rows of an empirical CDF.
fn cdf_rows(cdf: &Cdf) -> Vec<Vec<String>> {
    let points = cdf.values.iter().zip(&cdf.fractions);
    points
        .map(|(v, f)| vec![format!("{f}"), format!("{v}")])
        .collect()
}

/// Fig. 8 — interference-to-noise ratio at a nulled client vs the number
/// of AP-client pairs, per SNR band.
///
/// Paper: INR stays below 1.5 dB up to 10 pairs, growing ≈ 0.13 dB per
/// added pair at high SNR.
pub(crate) fn fig08_inr_scaling(opts: &Opts) -> Result<Report, BenchError> {
    let pairs: Vec<usize> = (2..=10).collect();
    let pts = inr_scaling(&SnrBand::ALL, &pairs, &opts.sweep(12));
    println!("band              n_pairs  inr_db");
    let mut rows = Vec::new();
    for p in &pts {
        println!(
            "{:<17} {:>7}  {:>6.2}",
            p.band.to_string(),
            p.n_pairs,
            p.inr_db
        );
        rows.push(vec![
            p.band.to_string(),
            format!("{}", p.n_pairs),
            format!("{}", p.inr_db),
        ]);
    }
    // Slope at high SNR.
    let high: Vec<&_> = pts
        .iter()
        .filter(|p| matches!(p.band, SnrBand::High))
        .collect();
    if let (Some(first), Some(last)) = (high.first(), high.last()) {
        if last.n_pairs > first.n_pairs {
            let slope = (last.inr_db - first.inr_db) / (last.n_pairs - first.n_pairs) as f64;
            println!(
                "paper anchor: ≈0.13 dB per added pair at high SNR; measured {slope:.3} dB/pair"
            );
        }
    }
    Ok(Report::csv(
        "fig08_inr_scaling.csv",
        "band,n_pairs,inr_db",
        rows,
    ))
}

/// Fig. 9 — network throughput vs the number of APs, per SNR band.
///
/// The headline result: JMB's total throughput grows with every AP added
/// on the same channel, while 802.11's stays flat. Paper: median gains of
/// 9.4×/9.1×/8.1× at high/medium/low SNR with 10 APs; 802.11 totals
/// ≈ 23.6/14.9/7.75 Mbps.
pub(crate) fn fig09_throughput_scaling(opts: &Opts) -> Result<Report, BenchError> {
    let counts: Vec<usize> = (2..=10).collect();
    let runs = throughput_scaling(&SnrBand::ALL, &counts, &opts.sweep(20), true);
    let agg = aggregate_scaling(&runs);
    println!("band              n_aps  jmb_mbps  dot11_mbps  median_gain");
    let mut rows = Vec::new();
    for p in &agg {
        println!(
            "{:<17} {:>5}  {:>8.1}  {:>10.1}  {:>11.2}",
            p.band.to_string(),
            p.n_aps,
            p.jmb_mean / 1e6,
            p.dot11_mean / 1e6,
            p.median_gain
        );
        rows.push(vec![
            p.band.to_string(),
            format!("{}", p.n_aps),
            format!("{}", p.jmb_mean),
            format!("{}", p.dot11_mean),
            format!("{}", p.median_gain),
        ]);
    }
    println!("paper anchors at 10 APs: gains 9.4× (high) / 9.1× (medium) / 8.1× (low);");
    println!("802.11 totals ≈ 23.6 / 14.9 / 7.75 Mbps (flat in the number of APs)");
    Ok(Report::csv(
        "fig09_throughput_scaling.csv",
        "band,n_aps,jmb_bps,dot11_bps,median_gain",
        rows,
    ))
}

/// Fig. 10 — CDFs of per-client throughput gain (fairness).
///
/// Paper: all clients see roughly the same gain; the CDF is wider at low
/// SNR (greater measurement noise).
pub(crate) fn fig10_fairness(opts: &Opts) -> Result<Report, BenchError> {
    let sweep = opts.sweep(20);
    let mut rows = Vec::new();
    println!("band              n_aps  p10_gain  median_gain  p90_gain");
    // One sweep, so each topology draw's bands share its room.
    let counts = [2usize, 6, 10];
    let runs = throughput_scaling(&SnrBand::ALL, &counts, &sweep, true);
    for band in SnrBand::ALL {
        for n in counts {
            let gains: Vec<f64> = runs
                .iter()
                .filter(|r| r.band == band && r.n_aps == n)
                .flat_map(|r| r.per_client_gain.iter().copied())
                .filter(|g| g.is_finite())
                .collect();
            if gains.is_empty() {
                continue;
            }
            let cdf = Cdf::new(&gains);
            println!(
                "{:<17} {:>5}  {:>8.2}  {:>11.2}  {:>8.2}",
                band.to_string(),
                n,
                cdf.quantile(0.1),
                cdf.quantile(0.5),
                cdf.quantile(0.9)
            );
            for (v, f) in cdf.values.iter().zip(&cdf.fractions) {
                rows.push(vec![
                    band.to_string(),
                    format!("{n}"),
                    format!("{f}"),
                    format!("{v}"),
                ]);
            }
        }
    }
    println!(
        "paper anchor: per-client gains cluster around the aggregate gain; wider CDF at low SNR"
    );
    Ok(Report::csv(
        "fig10_fairness.csv",
        "band,n_aps,fraction,gain",
        rows,
    ))
}

/// Fig. 11 — diversity throughput vs SNR for 2–10 APs.
///
/// All APs beamform the *same* packet coherently to one client (§8).
/// Paper: a client at 0 dB (no throughput under 802.11) reaches ≈ 21 Mbps
/// with 10 APs.
pub(crate) fn fig11_diversity(opts: &Opts) -> Result<Report, BenchError> {
    let ap_counts = [2usize, 4, 6, 8, 10];
    let snrs: Vec<f64> = (0..=25)
        .step_by(if opts.set.quick { 5 } else { 2 })
        .map(|s| s as f64)
        .collect();
    let pts = diversity_sweep(&ap_counts, &snrs, &opts.sweep(8));
    println!("n_aps  snr_db  jmb_mbps  dot11_mbps");
    let mut rows = Vec::new();
    for p in &pts {
        println!(
            "{:>5}  {:>6.0}  {:>8.2}  {:>10.2}",
            p.n_aps,
            p.snr_db,
            p.jmb / 1e6,
            p.dot11 / 1e6
        );
        rows.push(vec![
            format!("{}", p.n_aps),
            format!("{}", p.snr_db),
            format!("{}", p.jmb),
            format!("{}", p.dot11),
        ]);
    }
    if let Some(p) = pts.iter().find(|p| p.n_aps == 10 && p.snr_db == 0.0) {
        println!(
            "paper anchor: 0 dB client, 10 APs → ≈ 21 Mbps (measured {:.1} Mbps; 802.11 {:.1})",
            p.jmb / 1e6,
            p.dot11 / 1e6
        );
    }
    Ok(Report::csv(
        "fig11_diversity.csv",
        "n_aps,snr_db,jmb_bps,dot11_bps",
        rows,
    ))
}

/// Fig. 12 — throughput with off-the-shelf 802.11n clients.
///
/// Two 2-antenna APs jointly serve two 2-antenna clients (a distributed
/// 4×4) using the §6 compatibility flow, vs single-AP 802.11n with equal
/// medium shares. Paper: average gain 1.67–1.83× across bands.
pub(crate) fn fig12_compat_throughput(opts: &Opts) -> Result<Report, BenchError> {
    let runs = compat_runs(&SnrBand::ALL, &opts.sweep(16));
    println!("band              jmb_mbps  dot11n_mbps  gain");
    for band in SnrBand::ALL {
        let sel: Vec<&_> = runs.iter().filter(|r| r.band == band).collect();
        if sel.is_empty() {
            continue;
        }
        let jmb = jmb_dsp::stats::mean(&sel.iter().map(|r| r.jmb_total).collect::<Vec<_>>());
        let dot = jmb_dsp::stats::mean(&sel.iter().map(|r| r.dot11n_total).collect::<Vec<_>>());
        println!(
            "{:<17} {:>8.1}  {:>11.1}  {:>4.2}",
            band.to_string(),
            jmb / 1e6,
            dot / 1e6,
            jmb / dot
        );
    }
    let rows = runs
        .iter()
        .map(|r| {
            vec![
                r.band.to_string(),
                format!("{}", r.jmb_total),
                format!("{}", r.dot11n_total),
                format!("{}", r.gain),
            ]
        })
        .collect();
    println!("paper anchor: average gain 1.67–1.83× across bands (theoretical max 2×)");
    Ok(Report::csv(
        "fig12_compat_throughput.csv",
        "band,jmb_bps,dot11n_bps,gain",
        rows,
    ))
}

/// Fig. 13 — CDF of the 802.11n-compat network throughput gain.
///
/// Paper: gains between 1.65× and 2× across all runs, median 1.8×.
pub(crate) fn fig13_compat_fairness(opts: &Opts) -> Result<Report, BenchError> {
    let runs = compat_runs(&SnrBand::ALL, &opts.sweep(24));
    let gains: Vec<f64> = runs.iter().map(|r| r.gain).collect();
    if gains.is_empty() {
        return ctx(Err("no successful compat runs"), "802.11n-compat sweep");
    }
    let cdf = Cdf::new(&gains);
    println!("fraction  gain");
    for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
        println!("{q:>8.2}  {:>5.2}", cdf.quantile(q));
    }
    println!(
        "paper anchors: range 1.65–2.0×, median 1.8× (measured median {:.2}×)",
        cdf.quantile(0.5)
    );
    Ok(Report::csv(
        "fig13_compat_fairness.csv",
        "fraction,gain",
        cdf_rows(&cdf),
    ))
}

/// Ablation: Fig. 9's experiment with the slave phase corrections disabled.
///
/// Demonstrates that distributed phase synchronization — not merely joint
/// scheduling — is what makes the throughput scale: without it the
/// oscillators drift apart within milliseconds and joint transmissions
/// stop decoding.
pub(crate) fn ablation_phase_sync(opts: &Opts) -> Result<Report, BenchError> {
    let counts = [2usize, 4, 6, 8, 10];
    let sweep = opts.sweep(8);
    println!("band              n_aps  with_sync_mbps  without_sync_mbps");
    let mut rows = Vec::new();
    let band = [SnrBand::High];
    let with = aggregate_scaling(&throughput_scaling(&band, &counts, &sweep, true));
    let without = aggregate_scaling(&throughput_scaling(&band, &counts, &sweep, false));
    for (w, wo) in with.iter().zip(&without) {
        println!(
            "{:<17} {:>5}  {:>14.1}  {:>17.1}",
            w.band.to_string(),
            w.n_aps,
            w.jmb_mean / 1e6,
            wo.jmb_mean / 1e6
        );
        rows.push(vec![
            w.band.to_string(),
            format!("{}", w.n_aps),
            format!("{}", w.jmb_mean),
            format!("{}", wo.jmb_mean),
        ]);
    }
    Ok(Report::csv(
        "ablation_phase_sync.csv",
        "band,n_aps,with_sync_bps,without_sync_bps",
        rows,
    ))
}

/// Ablation: the paper's interleaved channel-measurement symbols (§5.1a)
/// vs one back-to-back block per AP.
///
/// Metric: RMS relative error of the measured channel's column ratios
/// against the medium's ground truth — the quantity beamforming nulls
/// depend on. (Our client refines its per-AP CFO across rounds, which
/// narrows the gap relative to the paper's single-shot estimation; the
/// interleaved layout still wins.)
pub(crate) fn ablation_interleaving(opts: &Opts) -> Result<Report, BenchError> {
    let runs = if opts.set.quick { 2 } else { 6 };
    println!("n_aps  layout       h_error_db");
    let mut rows = Vec::new();
    for n in [2usize, 4, 8] {
        let pts = ctx(
            measurement_interleaving_ablation(n, runs, opts.set.seed),
            "interleaving ablation",
        )?;
        for p in &pts {
            let label = if p.interleaved {
                "interleaved"
            } else {
                "sequential"
            };
            println!("{n:>5}  {label:<11}  {:>9.2}", p.h_error_db);
            rows.push(vec![
                format!("{n}"),
                label.to_string(),
                format!("{}", p.h_error_db),
            ]);
        }
    }
    println!("§5.1a: symbols are interleaved \"because we want the channels to be");
    println!("measured as if they were measured at the same time\".");
    Ok(Report::csv(
        "ablation_interleaving.csv",
        "n_aps,layout,h_error_db",
        rows,
    ))
}
