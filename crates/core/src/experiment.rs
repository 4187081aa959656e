//! The evaluation harness: one function per figure of the paper (§11).
//!
//! Each function reproduces the *method* of the corresponding experiment —
//! same independent variables, same metrics, same topology-draw discipline —
//! and returns typed records that the `jmb-bench` figure experiments print as
//! the paper's series and write as CSV. Absolute numbers come from our
//! simulated substrate; the shapes (who wins, by what factor, where
//! crossovers fall) are the reproduction targets recorded in
//! EXPERIMENTS.md.

use crate::baseline;
use crate::error::JmbError;
use crate::fastnet::{FastConfig, FastNet, FastRoom};
use crate::net::{JmbNetwork, NetConfig};
use crate::network::LinkEval;
use crate::precoder::Precoder;
use jmb_channel::oscillator::PhaseTrajectory;
use jmb_channel::SnrBand;
use jmb_dsp::rng::{complex_gaussian, derive_rng, normal};
use jmb_dsp::stats::{db_to_lin, lin_to_db};
use jmb_dsp::{CMat, Complex64};
use jmb_phy::params::OfdmParams;
use rand::Rng;

/// Shared sweep parameters.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Topology draws per data point ("We repeat the experiment for 20
    /// different topologies", §11.2).
    pub n_topologies: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for the embarrassingly parallel topology loop.
    pub parallelism: usize,
    /// Order in which workers claim topology indices. [`SchedulePolicy::
    /// Natural`] in production; the adversarial policies exist so the
    /// determinism harness (`det_harness`) can prove results do not depend
    /// on claim order.
    pub schedule: SchedulePolicy,
}

impl Default for SweepConfig {
    #[expect(
        clippy::disallowed_methods,
        reason = "the host's core count picks the default worker count; results are identical at every parallelism"
    )]
    fn default() -> Self {
        SweepConfig {
            n_topologies: 20,
            seed: 1,
            parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            schedule: SchedulePolicy::Natural,
        }
    }
}

/// The order in which [`parallel_map`] workers claim work items.
///
/// Results are merged by item index, so **every** policy must produce
/// byte-identical output; the adversarial policies exist to falsify that
/// claim if any kernel leaks claim-order dependence through shared state
/// (caches, thread-locals, FP accumulation into shared buffers). The
/// determinism contract and the add-a-policy recipe live in DESIGN.md
/// §3.15.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// Ascending claim order — the production default.
    #[default]
    Natural,
    /// Descending claim order (late topologies first).
    Reversed,
    /// Residue-class order with stride `k`: all indices ≡ 0 (mod k),
    /// then ≡ 1 (mod k), … — scatters neighbouring indices across time.
    Strided(usize),
    /// Seeded Fisher–Yates permutation of the claim order.
    RandomPermutation(u64),
    /// All work is claimed by worker 0 while the other spawned workers
    /// exit immediately — worst-case imbalance, and every item runs on
    /// one thread's locals even though `parallelism > 1`.
    WorkerStarvation,
}

impl SchedulePolicy {
    /// The claim-order permutation of `0..n` this policy induces.
    pub fn claim_order(&self, n: usize) -> Vec<usize> {
        match *self {
            SchedulePolicy::Natural | SchedulePolicy::WorkerStarvation => (0..n).collect(),
            SchedulePolicy::Reversed => (0..n).rev().collect(),
            SchedulePolicy::Strided(k) => {
                let k = k.max(1);
                let mut order = Vec::with_capacity(n);
                for r in 0..k.min(n.max(1)) {
                    order.extend((r..n).step_by(k));
                }
                order
            }
            SchedulePolicy::RandomPermutation(seed) => {
                let mut order: Vec<usize> = (0..n).collect();
                let mut rng = derive_rng(seed, 0x5C4E_D001);
                for i in (1..n).rev() {
                    let j = (rng.gen::<u64>() % (i as u64 + 1)) as usize;
                    order.swap(i, j);
                }
                order
            }
        }
    }

    /// Parse a CLI token: `natural`, `reversed`, `strided[:K]`,
    /// `random[:SEED]`, `starve`.
    pub fn from_token(s: &str) -> Option<SchedulePolicy> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        match name {
            "natural" => Some(SchedulePolicy::Natural),
            "reversed" => Some(SchedulePolicy::Reversed),
            "strided" => Some(SchedulePolicy::Strided(
                arg.map_or(Some(3), |a| a.parse().ok())?,
            )),
            "random" => Some(SchedulePolicy::RandomPermutation(
                arg.map_or(Some(0x5EED), |a| a.parse().ok())?,
            )),
            "starve" => Some(SchedulePolicy::WorkerStarvation),
            _ => None,
        }
    }

    /// Stable token for file names and reports (inverse of
    /// [`Self::from_token`] up to default arguments).
    pub fn token(&self) -> String {
        match *self {
            SchedulePolicy::Natural => "natural".into(),
            SchedulePolicy::Reversed => "reversed".into(),
            SchedulePolicy::Strided(k) => format!("strided{k}"),
            SchedulePolicy::RandomPermutation(s) => format!("random{s}"),
            SchedulePolicy::WorkerStarvation => "starve".into(),
        }
    }
}

/// Runs `f` for every topology index in parallel and collects the results
/// in index order.
///
/// Work is distributed by an atomic claim counter (work stealing) rather
/// than static chunking, so a handful of slow topologies — ill-conditioned
/// draws that trigger precoder retries — no longer serialize a whole chunk
/// behind one worker. Results are merged by index, so the output is
/// identical for every parallelism level, and each topology derives its RNG
/// from its own index, so the numbers themselves are parallelism-invariant
/// too. A panicking worker is propagated (not swallowed): the remaining
/// workers drain the counter and the panic is re-raised after the scope
/// joins them, so callers see the original panic instead of a deadlock.
///
/// The claim counter indexes into the permutation given by
/// `sweep.schedule` ([`SchedulePolicy`]), so the determinism harness can
/// run the same sweep under adversarial claim orders; output order is by
/// item index either way. The serial path follows the permutation too —
/// *execution* order matters for shared global state (plan caches,
/// thread-locals) even when one worker claims everything.
pub fn parallel_map<T: Send>(sweep: &SweepConfig, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let n = sweep.n_topologies;
    let order = sweep.schedule.claim_order(n);
    let workers = sweep.parallelism.max(1).min(n.max(1));
    if workers <= 1 {
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for &i in &order {
            out[i] = Some(f(i));
        }
        return out
            .into_iter()
            .map(|x| x.expect("claim_order is a permutation of 0..n"))
            .collect();
    }
    let starve = sweep.schedule == SchedulePolicy::WorkerStarvation;
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                let next = &next;
                let order = &order;
                s.spawn(move || {
                    let mut local = Vec::new();
                    if starve && w != 0 {
                        return local; // spawned, then starved of work
                    }
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= n {
                            break;
                        }
                        let i = order[c];
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => {
                    for (i, v) in local {
                        out[i] = Some(v);
                    }
                }
                // Re-raise the worker's panic; the scope joins the other
                // workers on unwind and they terminate because the claim
                // counter runs out.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out.into_iter()
        .map(|x| x.expect("every index claimed exactly once"))
        .collect()
}

fn band_targets(band: SnrBand, n: usize, rng: &mut jmb_dsp::rng::JmbRng) -> Vec<f64> {
    (0..n).map(|_| band.sample_db(rng)).collect()
}

/// Draws a conference-room placement (paper Fig. 5) and converts it into a
/// per-link SNR matrix: each client's *designated* (strongest) AP is pinned
/// to its band target, and every other AP's link falls off by the geometric
/// path-loss difference (log-distance model), floored so links never become
/// pure noise.
///
/// Designated APs are made **distinct** by a greedy nearest-unclaimed
/// matching. A draw where two clients are both dominated by one AP makes
/// the joint channel near-singular and the shared per-subcarrier `k̂` (§9,
/// every client receives the same signal strength) collapses for *all*
/// clients. The paper's dense deployment — 20 candidate AP ledges around
/// the perimeter for at most 10 drawn APs, clients spread across the floor
/// — makes such draws rare, and its reported medians imply well-conditioned
/// matrices ("natural channel matrices can be considered random and well
/// conditioned", §11.2). We therefore exclude hard-collision draws from
/// the ensemble; DESIGN.md records this modelling choice.
fn room_link_matrix(
    band: SnrBand,
    n_aps: usize,
    n_clients: usize,
    rng: &mut jmb_dsp::rng::JmbRng,
) -> Vec<Vec<f64>> {
    use jmb_channel::pathloss::PathLossModel;
    use jmb_channel::topology::{Room, Topology};
    let room = Room::conference();
    let topo = Topology::draw(&room, n_aps, n_clients, rng);
    let plm = PathLossModel::indoor_2_4ghz();
    let d = topo.distances();
    let losses: Vec<Vec<f64>> = (0..n_clients)
        .map(|j| {
            (0..n_aps)
                .map(|i| plm.sample_loss_db(d[j][i], rng))
                .collect()
        })
        .collect();
    // Greedy distinct designation: clients in random order claim their
    // lowest-loss unclaimed AP.
    let mut order: Vec<usize> = (0..n_clients).collect();
    use rand::seq::SliceRandom;
    order.shuffle(rng);
    let mut claimed = vec![false; n_aps];
    let mut designated = vec![0usize; n_clients];
    for &j in &order {
        let mut best = None;
        for i in 0..n_aps {
            if claimed[i] {
                continue;
            }
            if best.is_none_or(|b: usize| losses[j][i] < losses[j][b]) {
                best = Some(i);
            }
        }
        let i = best.expect("n_aps >= n_clients");
        claimed[i] = true;
        designated[j] = i;
    }
    (0..n_clients)
        .map(|j| {
            let des = designated[j];
            let target = band.sample_db(rng);
            (0..n_aps)
                .map(|i| {
                    if i == des {
                        target
                    } else {
                        // Below the designated AP by the geometric loss
                        // difference, with an n-dependent minimum dominance
                        // of `10·log₁₀(n) + 12` dB. This calibrates the
                        // ensemble's conditioning to the paper's own model:
                        // §11.2 gives gain `N·(1 − log K / log SNR)`, and
                        // the reported 8.1–9.4× at N = 10 implies an
                        // inversion penalty of only K ≈ 1.3–2 dB. Zero
                        // forcing keeps that penalty only if the aggregate
                        // off-diagonal row power stays ≪ 1, i.e. per-entry
                        // dominance must grow ~10·log₁₀(n). See DESIGN.md
                        // ("Topology calibration").
                        let min_dom = 10.0 * (n_aps as f64).log10() + 12.0;
                        let delta = (losses[j][i] - losses[j][des]).clamp(min_dom, 35.0);
                        target - delta
                    }
                })
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 6 — SNR reduction vs. phase misalignment.
// ---------------------------------------------------------------------------

/// One point of the Fig. 6 curve.
#[derive(Debug, Clone, Copy)]
pub struct MisalignmentLossPoint {
    /// Injected misalignment, radians.
    pub misalignment_rad: f64,
    /// Operating SNR of the system, dB.
    pub snr_db: f64,
    /// Average post-beamforming SNR reduction, dB.
    pub reduction_db: f64,
}

/// Fig. 6: "We simulate a simple 2-transmitter, 2-receiver system… measure
/// the initial channel matrix… introduce a phase misalignment at the slave
/// transmitter, and compute the reduction in SNR… We repeat this process
/// for 100 different random channel matrices, phase misalignments from 0 to
/// 0.5 radians, and … average SNR … 10 dB \[and\] 20 dB."
pub fn snr_reduction_vs_misalignment(
    misalignments: &[f64],
    snrs_db: &[f64],
    n_matrices: usize,
    seed: u64,
) -> Vec<MisalignmentLossPoint> {
    let mut out = Vec::new();
    for &snr_db in snrs_db {
        let noise = 1.0 / db_to_lin(snr_db);
        for &phi in misalignments {
            let mut acc = 0.0;
            let mut count = 0usize;
            for m in 0..n_matrices {
                let mut rng = derive_rng(seed, (m as u64) << 8);
                let h = CMat::from_vec(
                    2,
                    2,
                    (0..4).map(|_| complex_gaussian(&mut rng, 1.0)).collect(),
                );
                let Ok(p) = Precoder::zero_forcing(std::slice::from_ref(&h)) else {
                    continue;
                };
                // Slave (column 1) misaligned by e^{jφ} at transmit time.
                let sinr = |phase: f64| -> [f64; 2] {
                    let mut eff = h.clone();
                    for j in 0..2 {
                        eff[(j, 1)] *= Complex64::cis(phase);
                    }
                    let g = p.effective_channel(0, &eff);
                    let mut s = [0.0; 2];
                    for j in 0..2 {
                        let sig = g[(j, j)].norm_sqr();
                        let intf = g[(j, 1 - j)].norm_sqr();
                        s[j] = sig / (noise + intf);
                    }
                    s
                };
                let clean = sinr(0.0);
                let bad = sinr(phi);
                for j in 0..2 {
                    acc += lin_to_db(clean[j]) - lin_to_db(bad[j]);
                    count += 1;
                }
            }
            out.push(MisalignmentLossPoint {
                misalignment_rad: phi,
                snr_db,
                reduction_db: acc / count as f64,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Fig. 7 — CDF of achieved phase misalignment (sample-level).
// ---------------------------------------------------------------------------

/// Fig. 7: runs the full sample-level probe — lead and slave alternating
/// OFDM symbols after real phase synchronisation — and returns the absolute
/// misalignment samples (radians). Paper: median 0.017 rad, 95th pct 0.05.
///
/// `strategy` is the synchronization backend the slave runs. The paper's
/// number is the lead/slave resync's; the out-of-band backends trade update
/// cadence and estimate quality for control-plane cost, so their envelopes
/// are wider (documented in the `sync_shootout` bench rather than pinned to
/// the paper's band).
pub fn misalignment_samples(
    n_runs: usize,
    rounds_per_run: usize,
    seed: u64,
    strategy: crate::sync::SyncStrategyId,
) -> Result<Vec<f64>, JmbError> {
    let mut samples = Vec::new();
    for run in 0..n_runs {
        let cfg = NetConfig::default_with(2, 1, 25.0, seed.wrapping_add(run as u64));
        let mut net = JmbNetwork::new(cfg)?;
        net.set_sync_strategy(strategy);
        net.run_measurement()?;
        let s = net.misalignment_probe(rounds_per_run, 2e-3)?;
        samples.extend(s.into_iter().map(f64::abs));
    }
    Ok(samples)
}

// ---------------------------------------------------------------------------
// Fig. 8 — INR vs number of AP-client pairs.
// ---------------------------------------------------------------------------

/// One Fig. 8 point.
#[derive(Debug, Clone, Copy)]
pub struct InrPoint {
    /// SNR band.
    pub band: SnrBand,
    /// Number of AP-client pairs.
    pub n_pairs: usize,
    /// Average INR across clients and topologies, dB (the paper's metric:
    /// total received power at the nulled client over noise).
    pub inr_db: f64,
}

/// Fig. 8: per band and AP count, draw topologies, null at each client in
/// turn, and average the INR.
pub fn inr_scaling(bands: &[SnrBand], pair_counts: &[usize], sweep: &SweepConfig) -> Vec<InrPoint> {
    let mut out = Vec::new();
    for &band in bands {
        for &n in pair_counts {
            let inrs = parallel_map(sweep, |topo| {
                let mut rng = derive_rng(sweep.seed, (topo as u64) << 20 | n as u64);
                let targets = band_targets(band, n, &mut rng);
                let mut cfg = FastConfig::default_with(n, n, targets, rng.gen());
                cfg.link_snr_db = Some(room_link_matrix(band, n, n, &mut rng));
                let Ok(mut net) = FastNet::new(cfg) else {
                    return f64::NAN;
                };
                if net.run_measurement().is_err() {
                    return f64::NAN;
                }
                net.advance(2e-3);
                let mut acc = 0.0;
                let mut cnt = 0;
                for victim in 0..n {
                    if let Ok(inr) = net.null_probe(victim, 1e-3) {
                        acc += db_to_lin(inr);
                        cnt += 1;
                    }
                }
                if cnt == 0 {
                    f64::NAN
                } else {
                    acc / cnt as f64
                }
            });
            let valid: Vec<f64> = inrs.into_iter().filter(|x| x.is_finite()).collect();
            out.push(InrPoint {
                band,
                n_pairs: n,
                inr_db: lin_to_db(jmb_dsp::stats::mean(&valid)),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Figs. 9 & 10 — throughput scaling and fairness.
// ---------------------------------------------------------------------------

/// One topology's outcome in the scaling experiment.
#[derive(Debug, Clone)]
pub struct ScalingRun {
    /// SNR band.
    pub band: SnrBand,
    /// Number of APs (= number of clients).
    pub n_aps: usize,
    /// Total JMB network throughput, bits/s.
    pub jmb_total: f64,
    /// Total 802.11 network throughput, bits/s.
    pub dot11_total: f64,
    /// Per-client throughput gain (JMB / 802.11).
    pub per_client_gain: Vec<f64>,
}

/// Aggregated Fig. 9 point.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// SNR band.
    pub band: SnrBand,
    /// Number of APs.
    pub n_aps: usize,
    /// Mean total JMB throughput across topologies, bits/s.
    pub jmb_mean: f64,
    /// Mean total 802.11 throughput, bits/s.
    pub dot11_mean: f64,
    /// Median per-client gain.
    pub median_gain: f64,
}

/// The network of Fig. 9/10's topology draw `topo` with `n` APs and
/// clients: band targets, then a room's link matrix, from the draw's own
/// stream.
pub(crate) fn scaling_draw(band: SnrBand, n: usize, seed: u64, topo: usize) -> FastConfig {
    let mut rng = derive_rng(seed, 0xF19 ^ ((topo as u64) << 24) ^ (n as u64) << 2);
    let targets = band_targets(band, n, &mut rng);
    let mut cfg = FastConfig::default_with(n, n, targets, rng.gen());
    cfg.link_snr_db = Some(room_link_matrix(band, n, n, &mut rng));
    cfg
}

/// JMB's overheads on `net` in Figs. 9–11: its own measurement packet once
/// per 250 ms of channel coherence, and one sync header per four
/// aggregated frames.
fn jmb_overheads(net: &FastNet) -> baseline::JmbOverheads {
    let params = &net.config().params;
    let meas_len = net.link.measurement_len() as f64 * params.sample_period();
    baseline::JmbOverheads::new(params, meas_len, 0.25).with_aggregation(4)
}

/// Figs. 9/10 core: per band and AP count, draw topologies, measure, run a
/// joint transmission, select the joint rate, and account throughput for
/// JMB and the 802.11 equal-share baseline. Runs come band-major, then by
/// AP count, then by topology; a draw whose network fails is left out.
///
/// A topology draw's bands share its room ([`scaling_draw`] labels its
/// stream by topology and AP count alone): one task per (AP count,
/// topology) draws the room once and builds each band's network in it
/// ([`FastNet::in_room`]), bit for bit the network [`FastNet::new`] would
/// build. A band whose config misfits the room, or after a network that
/// failed, draws a fresh one.
///
/// `apply_phase_sync = false` is the ablation (every slave transmits
/// uncorrected).
pub fn throughput_scaling(
    bands: &[SnrBand],
    ap_counts: &[usize],
    sweep: &SweepConfig,
    apply_phase_sync: bool,
) -> Vec<ScalingRun> {
    // `per_n[n][topo][band]`.
    let mut per_n: Vec<Vec<Vec<Option<ScalingRun>>>> = ap_counts
        .iter()
        .map(|&n| {
            parallel_map(sweep, |topo| {
                let mut room = None;
                (bands.iter())
                    .map(|&band| {
                        let cfg = scaling_draw(band, n, sweep.seed, topo);
                        scaling_run(&mut room, cfg, band, apply_phase_sync)
                    })
                    .collect()
            })
        })
        .collect();
    let mut out = Vec::new();
    for b in 0..bands.len() {
        for topos in &mut per_n {
            out.extend(topos.iter_mut().filter_map(|runs| runs[b].take()));
        }
    }
    out
}

/// One topology draw of Figs. 9/10 at `band`, its network built in `room`
/// — drawn first if `cfg` does not fit it — and the medium handed back
/// after a run that succeeded.
fn scaling_run(
    room: &mut Option<FastRoom>,
    cfg: FastConfig,
    band: SnrBand,
    apply_phase_sync: bool,
) -> Option<ScalingRun> {
    if !room.as_ref().is_some_and(|r| r.fits(&cfg)) {
        *room = FastRoom::draw(&cfg).ok();
    }
    let room = room.as_mut()?;
    let (n, params) = (cfg.n_aps, cfg.params.clone());
    let mut net = FastNet::in_room(room, cfg).ok()?;
    net.run_measurement().ok()?;
    net.advance(2e-3);

    // 802.11 baseline: designated-AP SNRs per client.
    let dot11 = (0..n)
        .map(|j| {
            let snrs = net.baseline_snr(j).ok()?;
            Some(baseline::dot11_client_throughput(
                &params,
                &snrs,
                n,
                baseline::EVAL_PAYLOAD_BYTES,
            ))
        })
        .collect::<Option<Vec<f64>>>()?;

    // JMB: joint transmission outcome → joint rate → goodput.
    let over = jmb_overheads(&net);
    let duration = baseline::frame_airtime(&params, jmb_phy::rates::Mcs::ALL[4], 1500);
    let outcome = net
        .joint_transmit(duration, 4, &[], apply_phase_sync)
        .ok()?;
    let sinr = outcome.sinr.chunks_exact(outcome.n_k);
    let mcs = baseline::select_joint_mcs(sinr.clone());
    let jmb: Vec<f64> = match mcs {
        None => vec![0.0; n],
        Some(mcs) => sinr
            .map(|sinrs| {
                baseline::jmb_client_throughput(
                    &params,
                    mcs,
                    sinrs,
                    baseline::EVAL_PAYLOAD_BYTES,
                    &over,
                )
            })
            .collect(),
    };
    room.reclaim(net);

    let per_client_gain = jmb
        .iter()
        .zip(&dot11)
        .map(|(&a, &b)| if b > 0.0 { a / b } else { f64::NAN })
        .collect();
    Some(ScalingRun {
        band,
        n_aps: n,
        jmb_total: jmb.iter().sum(),
        dot11_total: dot11.iter().sum(),
        per_client_gain,
    })
}

/// Aggregates [`ScalingRun`]s into Fig. 9's series.
pub fn aggregate_scaling(runs: &[ScalingRun]) -> Vec<ScalingPoint> {
    let mut keys: Vec<(SnrBand, usize)> = runs.iter().map(|r| (r.band, r.n_aps)).collect();
    keys.sort_by_key(|&(b, n)| (band_index(b), n));
    keys.dedup();
    keys.into_iter()
        .map(|(band, n_aps)| {
            let sel: Vec<&ScalingRun> = runs
                .iter()
                .filter(|r| r.band == band && r.n_aps == n_aps)
                .collect();
            let jmb: Vec<f64> = sel.iter().map(|r| r.jmb_total).collect();
            let dot: Vec<f64> = sel.iter().map(|r| r.dot11_total).collect();
            let gains: Vec<f64> = sel
                .iter()
                .flat_map(|r| r.per_client_gain.iter().copied())
                .filter(|g| g.is_finite())
                .collect();
            ScalingPoint {
                band,
                n_aps,
                jmb_mean: jmb_dsp::stats::mean(&jmb),
                dot11_mean: jmb_dsp::stats::mean(&dot),
                median_gain: jmb_dsp::stats::median(&gains),
            }
        })
        .collect()
}

/// Stable ordering for bands in outputs.
pub fn band_index(band: SnrBand) -> usize {
    match band {
        SnrBand::High => 0,
        SnrBand::Medium => 1,
        SnrBand::Low => 2,
    }
}

// ---------------------------------------------------------------------------
// Fig. 11 — diversity throughput vs SNR.
// ---------------------------------------------------------------------------

/// One Fig. 11 point.
#[derive(Debug, Clone, Copy)]
pub struct DiversityPoint {
    /// Number of APs beamforming coherently.
    pub n_aps: usize,
    /// The client's single-AP effective SNR, dB (x-axis).
    pub snr_db: f64,
    /// JMB diversity throughput, bits/s.
    pub jmb: f64,
    /// Single-802.11-transmitter throughput, bits/s.
    pub dot11: f64,
}

/// Fig. 11: one client with "roughly similar SNRs to all APs"; sweep that
/// SNR across 802.11's operational range for several AP counts.
pub fn diversity_sweep(
    ap_counts: &[usize],
    snrs_db: &[f64],
    sweep: &SweepConfig,
) -> Vec<DiversityPoint> {
    let mut out = Vec::new();
    for &n in ap_counts {
        for &snr in snrs_db {
            let samples = parallel_map(sweep, |topo| -> Option<(f64, f64)> {
                let mut rng = derive_rng(sweep.seed, 0xD1 ^ ((topo as u64) << 16) ^ n as u64);
                let mut cfg = FastConfig::default_with(n, 1, vec![snr], rng.gen());
                cfg.ap_spread_db = 2.0; // "roughly similar SNRs to all APs"
                let params = cfg.params.clone();
                let mut net = FastNet::new(cfg).ok()?;
                net.run_measurement().ok()?;
                net.advance(1e-3);
                let div_snrs = net.diversity_snr(0).ok()?;
                let over = jmb_overheads(&net);
                let jmb = match jmb_phy::esnr::select_mcs(&div_snrs) {
                    Some(mcs) => baseline::jmb_client_throughput(
                        &params,
                        mcs,
                        &div_snrs,
                        baseline::EVAL_PAYLOAD_BYTES,
                        &over,
                    ),
                    None => 0.0,
                };
                let base_snrs = net.baseline_snr(0).ok()?;
                let dot11 = baseline::dot11_client_throughput(
                    &params,
                    &base_snrs,
                    1,
                    baseline::EVAL_PAYLOAD_BYTES,
                );
                Some((jmb, dot11))
            });
            let valid: Vec<(f64, f64)> = samples.into_iter().flatten().collect();
            if valid.is_empty() {
                continue;
            }
            let jmb = jmb_dsp::stats::mean(&valid.iter().map(|v| v.0).collect::<Vec<_>>());
            let dot11 = jmb_dsp::stats::mean(&valid.iter().map(|v| v.1).collect::<Vec<_>>());
            out.push(DiversityPoint {
                n_aps: n,
                snr_db: snr,
                jmb,
                dot11,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Figs. 12 & 13 — 802.11n compatibility.
// ---------------------------------------------------------------------------

/// One compat-mode run.
#[derive(Debug, Clone, Copy)]
pub struct CompatRun {
    /// SNR band.
    pub band: SnrBand,
    /// Total JMB throughput (both clients), bits/s.
    pub jmb_total: f64,
    /// Total 802.11n throughput, bits/s.
    pub dot11n_total: f64,
    /// Network throughput gain.
    pub gain: f64,
}

/// Figs. 12/13: 2 two-antenna APs → 2 two-antenna clients, per band.
pub fn compat_runs(bands: &[SnrBand], sweep: &SweepConfig) -> Vec<CompatRun> {
    let mut out = Vec::new();
    for &band in bands {
        let runs = parallel_map(sweep, |topo| -> Option<CompatRun> {
            let mut rng = derive_rng(sweep.seed, 0xC0 ^ (topo as u64));
            let target = band.sample_db(&mut rng);
            let mut cfg = crate::compat::CompatConfig::default_with(target, rng.gen());
            cfg.client_snr_db = vec![band.sample_db(&mut rng), band.sample_db(&mut rng)];
            let mut net = crate::compat::CompatNet::new(cfg).ok()?;
            net.run_measurement().ok()?;
            net.advance(2e-3);
            let jmb: f64 = net.jmb_throughput(1500).ok()?.iter().sum();
            let dot: f64 = net.dot11n_throughput(1500).iter().sum();
            if dot <= 0.0 {
                return None;
            }
            Some(CompatRun {
                band,
                jmb_total: jmb,
                dot11n_total: dot,
                gain: jmb / dot,
            })
        });
        out.extend(runs.into_iter().flatten());
    }
    out
}

// ---------------------------------------------------------------------------
// Fig. 0 (motivation, §1/§5.2) — naive extrapolation vs direct measurement.
// ---------------------------------------------------------------------------

/// One drift-motivation point.
#[derive(Debug, Clone, Copy)]
pub struct DriftPoint {
    /// Elapsed time since the frequency estimate, seconds.
    pub elapsed_s: f64,
    /// Phase error of naive extrapolation (radians, mean |error|).
    pub naive_err_rad: f64,
    /// Phase error of JMB's direct re-measurement (radians, mean |error|).
    pub direct_err_rad: f64,
}

/// The §1 motivation, as an experiment: estimate a CFO once with a given
/// error, then compare extrapolated phase against truth over time; JMB's
/// direct measurement re-measures at each horizon instead.
pub fn drift_motivation(
    cfo_error_hz: f64,
    horizons_s: &[f64],
    n_trials: usize,
    seed: u64,
) -> Vec<DriftPoint> {
    let mut out = Vec::new();
    for &t in horizons_s {
        let mut naive_acc = 0.0;
        let mut direct_acc = 0.0;
        for trial in 0..n_trials {
            let mut rng = derive_rng(seed, (trial as u64) << 32);
            let true_cfo = (rng.gen::<f64>() * 2.0 - 1.0) * 10_000.0;
            let mut traj = PhaseTrajectory::with_offset(
                jmb_channel::oscillator::OscillatorSpec::usrp2(),
                2.437e9,
                true_cfo,
                rng.gen(),
            );
            let est = true_cfo + normal(&mut rng, cfo_error_hz);
            let predicted = 2.0 * std::f64::consts::PI * est * t;
            let actual = traj.phase_at(t);
            naive_acc += jmb_dsp::complex::wrap_phase(predicted - actual).abs();
            // Direct measurement: re-measure the phase at t with
            // channel-estimation noise only (~0.01 rad at AP-AP SNRs).
            direct_acc += normal(&mut rng, 0.01).abs();
        }
        out.push(DriftPoint {
            elapsed_s: t,
            naive_err_rad: naive_acc / n_trials as f64,
            direct_err_rad: direct_acc / n_trials as f64,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Ablation: interleaved vs sequential channel measurement (§5.1a).
// ---------------------------------------------------------------------------

/// Outcome of the measurement-interleaving ablation for one layout.
#[derive(Debug, Clone, Copy)]
pub struct InterleavingPoint {
    /// Whether the measurement slots were interleaved (the paper's design).
    pub interleaved: bool,
    /// RMS relative error of the measured channel's column ratios against
    /// ground truth (dB) — the quantity beamforming nulls depend on.
    pub h_error_db: f64,
}

/// §5.1a's design rationale as an experiment: measure channels with the
/// paper's interleaved slots vs one back-to-back block per AP, and compare
/// the measured `H` against the medium's ground truth. The metric is the
/// column-ratio error per row (per-client phase references cancel), which
/// is exactly what determines nulling quality. With blocked slots, each
/// AP's rotation back to the reference time spans up to a whole packet, so
/// per-AP CFO estimation error rotates its entire column.
pub fn measurement_interleaving_ablation(
    n_aps: usize,
    n_runs: usize,
    seed: u64,
) -> Result<Vec<InterleavingPoint>, JmbError> {
    use crate::measure::SlotOrder;
    let params = OfdmParams::default();
    let t_ref = 1e-4 + crate::measure::REF_ANCHOR * params.sample_period();
    let mut out = Vec::new();
    for order in [SlotOrder::Interleaved, SlotOrder::Sequential] {
        let mut sq_err = 0.0f64;
        let mut count = 0usize;
        for run in 0..n_runs as u64 {
            // High client SNR pushes the noise floor of the estimates down
            // so the layout-dependent rotation error is what remains;
            // worst-case crystals amplify that rotation error.
            let mut cfg = NetConfig::default_with(n_aps, n_aps, 35.0, seed.wrapping_add(run));
            cfg.slot_order = order;
            cfg.osc_spec = jmb_channel::oscillator::OscillatorSpec::wifi_worst_case();
            let mut net = JmbNetwork::new(cfg)?;
            net.run_measurement()?;
            let aps = net.ap_nodes().to_vec();
            let clients = net.client_nodes().to_vec();
            let h_meas = net.measured_channel().unwrap().clone();
            let occupied = params.occupied_subcarriers();
            for (k_idx, &k) in occupied.iter().enumerate() {
                let fk = k as f64 * params.subcarrier_spacing();
                for (j, &c) in clients.iter().enumerate() {
                    let phi_rj = net.medium_mut().trajectory_mut(c).phase_at(t_ref);
                    let mut truth = Vec::with_capacity(aps.len());
                    for &ap in &aps {
                        let phi_i = net.medium_mut().trajectory_mut(ap).phase_at(t_ref);
                        let link = net.medium_mut().link(ap, c).expect("link").clone();
                        truth.push(link.freq_response_at(fk) * Complex64::cis(phi_i - phi_rj));
                    }
                    for i in 1..aps.len() {
                        let at = |i| h_meas.get(j * aps.len() + i, k_idx);
                        let m_ratio = at(i) / at(0);
                        let t_ratio = truth[i] / truth[0];
                        let err = (m_ratio / t_ratio - Complex64::ONE).norm_sqr();
                        sq_err += err;
                        count += 1;
                    }
                }
            }
        }
        out.push(InterleavingPoint {
            interleaved: matches!(order, SlotOrder::Interleaved),
            h_error_db: lin_to_db(sq_err / count.max(1) as f64),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sweep(n: usize) -> SweepConfig {
        SweepConfig {
            n_topologies: n,
            seed: 7,
            parallelism: 2,
            ..Default::default()
        }
    }

    #[test]
    fn fig6_zero_misalignment_zero_loss() {
        let pts = snr_reduction_vs_misalignment(&[0.0, 0.35], &[20.0], 30, 1);
        assert!(pts[0].reduction_db.abs() < 1e-9);
        // The paper: 0.35 rad ≈ 8 dB at 20 dB SNR. Allow generous slack on
        // the Monte-Carlo mean; the magnitude must be "several dB".
        assert!(
            pts[1].reduction_db > 4.0 && pts[1].reduction_db < 14.0,
            "0.35 rad → {} dB",
            pts[1].reduction_db
        );
    }

    #[test]
    fn fig6_monotone_and_snr_dependent() {
        let phis = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
        let pts = snr_reduction_vs_misalignment(&phis, &[10.0, 20.0], 40, 2);
        // Monotone in misalignment for each SNR.
        for chunk in pts.chunks(phis.len()) {
            for w in chunk.windows(2) {
                assert!(w[1].reduction_db >= w[0].reduction_db - 0.2);
            }
        }
        // Higher SNR suffers more (paper: "phase misalignment causes a
        // greater reduction in SNR when the system is at higher SNR").
        let at10 = pts
            .iter()
            .find(|p| p.snr_db == 10.0 && p.misalignment_rad == 0.5)
            .unwrap();
        let at20 = pts
            .iter()
            .find(|p| p.snr_db == 20.0 && p.misalignment_rad == 0.5)
            .unwrap();
        assert!(at20.reduction_db > at10.reduction_db);
    }

    #[test]
    fn fig8_inr_points_shape() {
        let pts = inr_scaling(&[SnrBand::High], &[2, 4], &quick_sweep(3));
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert!(p.inr_db.is_finite());
            assert!(p.inr_db > -1.0 && p.inr_db < 6.0, "INR {}", p.inr_db);
        }
        assert!(pts[1].inr_db >= pts[0].inr_db - 0.3, "INR roughly grows");
    }

    #[test]
    fn fig9_gain_grows_with_aps() {
        let runs = throughput_scaling(&[SnrBand::High], &[2, 6], &quick_sweep(4), true);
        let agg = aggregate_scaling(&runs);
        assert_eq!(agg.len(), 2);
        let g2 = agg[0].jmb_mean / agg[0].dot11_mean;
        let g6 = agg[1].jmb_mean / agg[1].dot11_mean;
        assert!(g6 > g2 * 1.8, "gain must scale: {g2:.2}× → {g6:.2}×");
        // 802.11 total roughly flat (same medium, just shared).
        assert!(
            (agg[1].dot11_mean / agg[0].dot11_mean - 1.0).abs() < 0.5,
            "baseline should not scale"
        );
    }

    #[test]
    fn fig9_overheads_charge_the_network_measurement() {
        // The measurement packet Figs. 9–11 amortise is the one the network
        // puts on the air: a 320-sample preamble, then max(32, ⌈128/n⌉)
        // interleaved rounds of one 80-sample symbol per AP.
        for n in 2..=10 {
            let net = FastNet::new(scaling_draw(SnrBand::High, n, 1, 0)).unwrap();
            let len = net.link.measurement_len();
            assert_eq!(
                len,
                320 + 32.max(128usize.div_ceil(n)) * n * 80,
                "n_aps {n}"
            );
            let airtime = len as f64 * net.config().params.sample_period();
            let want = baseline::JmbOverheads::new(&net.config().params, airtime, 0.25);
            let got = jmb_overheads(&net).measurement_fraction;
            assert_eq!(got, want.measurement_fraction, "n_aps {n}");
        }
    }

    #[test]
    fn fig9_bands_of_a_draw_share_one_room() {
        // `throughput_scaling` draws one room per (topology, AP count) for
        // all three bands: `scaling_draw` must keep giving the bands one
        // seed and shape, or every band draws its room again.
        for seed in [1, 2, 7] {
            for n in 2..=10 {
                for topo in 0..4 {
                    let room = FastRoom::draw(&scaling_draw(SnrBand::High, n, seed, topo));
                    let room = room.unwrap();
                    for band in SnrBand::ALL {
                        let cfg = scaling_draw(band, n, seed, topo);
                        assert!(room.fits(&cfg), "{band} n {n} topology {topo} seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn fig9_ablation_collapses() {
        let with = aggregate_scaling(&throughput_scaling(
            &[SnrBand::High],
            &[4],
            &quick_sweep(4),
            true,
        ));
        let without = aggregate_scaling(&throughput_scaling(
            &[SnrBand::High],
            &[4],
            &quick_sweep(4),
            false,
        ));
        assert!(
            with[0].jmb_mean > 2.0 * without[0].jmb_mean,
            "phase sync must matter: {} vs {}",
            with[0].jmb_mean,
            without[0].jmb_mean
        );
    }

    #[test]
    fn fig11_diversity_grows_with_aps() {
        let pts = diversity_sweep(&[2, 8], &[6.0], &quick_sweep(4));
        let j2 = pts.iter().find(|p| p.n_aps == 2).unwrap();
        let j8 = pts.iter().find(|p| p.n_aps == 8).unwrap();
        assert!(j8.jmb > j2.jmb, "more APs more diversity throughput");
        assert!(j8.jmb > j8.dot11, "diversity beats a single transmitter");
    }

    #[test]
    fn drift_motivation_matches_paper_numbers() {
        // 10 Hz error, 5.5 ms → mean |error| ≈ 0.35·(mean |N(0,1)|) ≈ 0.28;
        // the *scale* must match 2π·10·5.5e-3 = 0.35.
        let pts = drift_motivation(10.0, &[5.5e-3, 20e-3], 400, 3);
        let expected = 2.0 * std::f64::consts::PI * 10.0 * 5.5e-3 * 0.7979; // E|N|
        assert!(
            (pts[0].naive_err_rad / expected - 1.0).abs() < 0.25,
            "naive {} vs {expected}",
            pts[0].naive_err_rad
        );
        assert!(pts[1].naive_err_rad > pts[0].naive_err_rad);
        assert!(pts[0].direct_err_rad < 0.02);
        assert!(pts[1].direct_err_rad < 0.02, "direct error must not grow");
    }

    #[test]
    fn interleaving_beats_sequential() {
        let pts = measurement_interleaving_ablation(3, 2, 5).unwrap();
        assert_eq!(pts.len(), 2);
        let inter = &pts[0];
        let seq = &pts[1];
        assert!(inter.interleaved && !seq.interleaved);
        // Interleaving measurably improves H accuracy. The margin is
        // smaller than the paper's rationale might suggest because our
        // client refines its per-AP CFO across rounds (two-pass), which
        // also rescues much of the sequential layout's rotation error —
        // with the paper's single-shot estimation the gap widens.
        assert!(
            inter.h_error_db < seq.h_error_db - 0.5,
            "interleaving must measurably improve H accuracy: {:.1} vs {:.1} dB",
            inter.h_error_db,
            seq.h_error_db
        );
    }

    #[test]
    fn parallel_map_order_and_coverage() {
        let sweep = SweepConfig {
            n_topologies: 17,
            seed: 0,
            parallelism: 4,
            ..Default::default()
        };
        let out = parallel_map(&sweep, |i| i * 2);
        assert_eq!(out, (0..17).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn claim_order_is_a_permutation_for_every_policy() {
        let policies = [
            SchedulePolicy::Natural,
            SchedulePolicy::Reversed,
            SchedulePolicy::Strided(3),
            SchedulePolicy::Strided(7),
            SchedulePolicy::RandomPermutation(42),
            SchedulePolicy::WorkerStarvation,
        ];
        for p in policies {
            for n in [0usize, 1, 2, 13, 64] {
                let mut order = p.claim_order(n);
                assert_eq!(order.len(), n, "{p:?} n={n}");
                order.sort_unstable();
                assert_eq!(order, (0..n).collect::<Vec<_>>(), "{p:?} n={n}");
            }
        }
    }

    #[test]
    fn parallel_map_identical_across_schedule_policies() {
        let baseline: Vec<f64> = {
            let sweep = SweepConfig {
                n_topologies: 19,
                seed: 5,
                parallelism: 4,
                schedule: SchedulePolicy::Natural,
            };
            parallel_map(&sweep, |i| derive_rng(5, i as u64).gen::<f64>())
        };
        for schedule in [
            SchedulePolicy::Reversed,
            SchedulePolicy::Strided(3),
            SchedulePolicy::RandomPermutation(99),
            SchedulePolicy::WorkerStarvation,
        ] {
            for parallelism in [1usize, 4] {
                let sweep = SweepConfig {
                    n_topologies: 19,
                    seed: 5,
                    parallelism,
                    schedule,
                };
                let out = parallel_map(&sweep, |i| derive_rng(5, i as u64).gen::<f64>());
                assert_eq!(out, baseline, "{schedule:?} x{parallelism}");
            }
        }
    }

    #[test]
    fn worker_starvation_runs_everything_on_one_thread() {
        let sweep = SweepConfig {
            n_topologies: 9,
            seed: 0,
            parallelism: 4,
            schedule: SchedulePolicy::WorkerStarvation,
        };
        let ids = parallel_map(&sweep, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == ids[0]));
    }

    #[test]
    fn schedule_tokens_round_trip() {
        for (tok, policy) in [
            ("natural", SchedulePolicy::Natural),
            ("reversed", SchedulePolicy::Reversed),
            ("strided:5", SchedulePolicy::Strided(5)),
            ("random:7", SchedulePolicy::RandomPermutation(7)),
            ("starve", SchedulePolicy::WorkerStarvation),
        ] {
            assert_eq!(SchedulePolicy::from_token(tok), Some(policy));
        }
        assert_eq!(
            SchedulePolicy::from_token("strided"),
            Some(SchedulePolicy::Strided(3))
        );
        assert!(SchedulePolicy::from_token("chaotic").is_none());
        assert!(SchedulePolicy::from_token("strided:x").is_none());
    }

    #[test]
    fn parallel_map_identical_across_parallelism() {
        // Same indices → same RNG derivation → same values, whatever the
        // worker count; and always in index order.
        let run = |parallelism: usize| {
            let sweep = SweepConfig {
                n_topologies: 23,
                seed: 11,
                parallelism,
                ..Default::default()
            };
            parallel_map(&sweep, |i| {
                let mut rng = derive_rng(sweep.seed, i as u64);
                (i, rng.gen::<f64>())
            })
        };
        let serial = run(1);
        assert_eq!(serial.len(), 23);
        for (k, &(i, _)) in serial.iter().enumerate() {
            assert_eq!(i, k, "index order");
        }
        for p in [4, 16] {
            assert_eq!(run(p), serial, "parallelism {p} must not change results");
        }
    }

    #[test]
    fn parallel_map_uneven_work_still_ordered() {
        // Wildly uneven per-item cost exercises actual stealing: early
        // indices are slow, so a statically chunked first worker would own
        // almost all the wall-clock.
        let sweep = SweepConfig {
            n_topologies: 12,
            seed: 0,
            parallelism: 4,
            ..Default::default()
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "slow early items make the workers steal"
        )]
        let out = parallel_map(&sweep, |i| {
            if i < 3 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_worker_panic_propagates() {
        // A panicking closure must surface as a panic in the caller, not a
        // deadlock or a silently missing slot.
        let result = std::panic::catch_unwind(|| {
            let sweep = SweepConfig {
                n_topologies: 16,
                seed: 0,
                parallelism: 4,
                ..Default::default()
            };
            parallel_map(&sweep, |i| {
                if i == 7 {
                    panic!("boom at {i}");
                }
                i
            })
        });
        assert!(result.is_err(), "panic must propagate");
    }
}
