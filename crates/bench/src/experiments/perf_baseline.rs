//! Machine-readable performance baseline for the hot code paths.

use crate::{bad, ctx, BenchError, Opts, Report};
use jmb_channel::oscillator::PhaseTrajectory;
use jmb_channel::Link;
use jmb_dsp::rng::{complex_gaussian, rng_from_seed};
use jmb_dsp::{fft, CMat, Complex64};
use jmb_phy::frame::{FrameRx, FrameTx};
use jmb_phy::params::OfdmParams;
use jmb_phy::rates::Mcs;
use jmb_phy::{convcode, viterbi};
use jmb_sim::Medium;
use std::path::Path;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// One benchmark result row.
struct Entry {
    name: &'static str,
    ns_per_op: f64,
    /// Optional derived throughput: `(value, unit)`.
    throughput: Option<(f64, &'static str)>,
}

/// The timing budget and the rows measured so far.
struct Suite {
    samples: usize,
    min_batch: Duration,
    entries: Vec<Entry>,
}

impl Suite {
    /// Times `f` with [`time_median`], prints the row and records it;
    /// `work` units of `unit` per call give the derived throughput.
    fn time(&mut self, name: &'static str, work: Option<(f64, &'static str)>, f: impl FnMut()) {
        self.time_n(self.samples, name, work, f);
    }

    /// [`Self::time`] with its own sample count, for operations that take
    /// milliseconds each. Returns the median ns/op.
    fn time_n(
        &mut self,
        samples: usize,
        name: &'static str,
        work: Option<(f64, &'static str)>,
        f: impl FnMut(),
    ) -> f64 {
        let ns = time_median(samples, self.min_batch, f);
        println!("{name:<27} {ns:>12.1} ns/op");
        self.entries.push(Entry {
            name,
            ns_per_op: ns,
            throughput: work.map(|(units, unit)| (units / (ns * 1e-9), unit)),
        });
        ns
    }
}

/// Median ns/op of `f`, measured in adaptive batches: batch size doubles
/// until one batch takes ≥ `min_batch`, then `samples` batches are timed
/// and the median per-op time is returned.
fn time_median(samples: usize, min_batch: Duration, mut f: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t0.elapsed() >= min_batch || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let mut per_op: Vec<f64> = (0..samples.max(3))
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    per_op.sort_by(|a, b| a.total_cmp(b));
    per_op[per_op.len() / 2]
}

/// Civil date (UTC) from the Unix epoch via days-to-date conversion, so we
/// need no date dependency. Algorithm: Howard Hinnant's `civil_from_days`.
fn today_utc() -> (i64, u32, u32) {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    let z = secs.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn json_escape_free(name: &str) -> &str {
    // Benchmark names are static identifiers; assert rather than escape.
    assert!(name
        .chars()
        .all(|c| c.is_ascii_graphic() && c != '"' && c != '\\'));
    name
}

/// `(name, ns_per_op)` rows extracted from a `BENCH_<date>.json` written by
/// this experiment. The format is our own (flat, one `"name"`/`"ns_per_op"` pair
/// per entry), so a string scan is enough — no JSON dependency.
fn parse_bench_entries(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for chunk in text.split("\"name\":").skip(1) {
        let Some(q0) = chunk.find('"') else { continue };
        let rest = &chunk[q0 + 1..];
        let Some(q1) = rest.find('"') else { continue };
        let name = rest[..q1].to_string();
        let Some(p) = rest.find("\"ns_per_op\":") else {
            continue;
        };
        let num: String = rest[p + "\"ns_per_op\":".len()..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name, v));
        }
    }
    out
}

/// The `sample_cell` data-frame shape for the medium benchmarks: two APs
/// send one 300-byte 16-QAM frame each (the second 30 ns late) over
/// independent indoor-NLOS six-tap links to one client; every node sits on
/// its own carrier offset, and with it its own sampling-clock ppm. Returns
/// the medium, the client and the frame length in samples.
fn nlos_two_ap_medium(seed: u64) -> Result<(Medium, jmb_sim::NodeId, usize), BenchError> {
    use jmb_channel::{Multipath, MultipathSpec};
    const FC: f64 = 2.437e9;
    let params = OfdmParams::default();
    let payload: Vec<u8> = (0..300).map(|i| i as u8).collect();
    let wave = ctx(
        FrameTx::new(params.clone()).tx_frame(Mcs::ALL[4], &payload),
        "300-byte 16-QAM frame",
    )?;
    let n = wave.len();
    let mut rng = rng_from_seed(seed);
    let mut medium = Medium::new(params, seed);
    let client = medium.add_node(PhaseTrajectory::fixed(FC, -500.0), 1e-6);
    for (cfo_hz, start_s, delay_s) in [(1000.0, 0.0, 40e-9), (-2300.0, 30e-9, 65e-9)] {
        let ap = medium.add_node(PhaseTrajectory::fixed(FC, cfo_hz), 0.0);
        let fading = Multipath::new(MultipathSpec::indoor_nlos(), &mut rng);
        let gain = Complex64::from_polar(1.0, 0.7);
        medium.set_link(ap, client, Link::new(gain, delay_s, fading));
        medium.transmit(ap, start_s, wave.clone());
    }
    Ok((medium, client, n))
}

/// Times the hot code paths — FFT, Viterbi, precoder, phase-sync
/// correction, sample-level medium, end-to-end PHY packet, a full
/// `FastNet::joint_transmit` step, a quick city run and a `jmb-lint` pass —
/// and writes the medians to `BENCH_<date>.json` at the repo root so perf
/// regressions are diffable across commits.
///
/// `--quick` shrinks the measurement budget for smoke runs; the JSON shape
/// is identical.
///
/// `--compare PATH` diffs this run against a previously written
/// `BENCH_<date>.json`; an entry that regressed by more than
/// `--regress-threshold PCT` (default 10%) is a failed acceptance
/// property, so CI can gate on the checked-in baseline.
pub fn perf_baseline(opts: &Opts) -> Result<Report, BenchError> {
    let threshold = opts.number("--regress-threshold")?.unwrap_or(10.0);
    if threshold < 0.0 {
        return Err(bad("--regress-threshold needs a non-negative percentage"));
    }
    // Read the baseline first: a bad path should not cost a whole run.
    let baseline = match opts.flag("--compare") {
        Some(path) => {
            let text = ctx(std::fs::read_to_string(path), &format!("read {path}"))?;
            let entries = parse_bench_entries(&text);
            if entries.is_empty() {
                return ctx(Err("no entries found"), &format!("read {path}"));
            }
            Some((path, entries))
        }
        None => None,
    };
    // Span-instrumented kernels (FFT, ZF precoder, traffic event loop)
    // accumulate wall-clock stats into the global jmb-obs span table; the
    // report at the end cross-checks the medians measured here.
    jmb_obs::set_spans_enabled(true);
    let (samples, min_batch) = if opts.set.quick {
        (5, Duration::from_micros(200))
    } else {
        (15, Duration::from_millis(2))
    };
    let mut suite = Suite {
        samples,
        min_batch,
        entries: Vec::new(),
    };
    let params = OfdmParams::default();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().unwrap_or_else(|_| ".".into());

    // --- FFT (cached plan, in place) -----------------------------------
    {
        let mut buf: Vec<Complex64> = (0..64).map(|i| Complex64::cis(i as f64 * 0.37)).collect();
        suite.time("fft64_forward_cached", Some((64.0, "samples/s")), || {
            fft::fft_in_place(&mut buf);
        });
    }

    // --- Viterbi --------------------------------------------------------
    {
        let data: Vec<u8> = (0..864).map(|i| ((i * 31 + 7) % 2) as u8).collect();
        let coded = convcode::encode(&data);
        let soft: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 0 { 1.0 } else { -1.0 })
            .collect();
        suite.time("viterbi_864b", Some((864.0, "bits/s")), || {
            viterbi::decode(&soft).unwrap();
        });
    }

    // --- ZF precoder, 10×10 over 52 subcarriers -------------------------
    {
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
        let work = Some((52.0, "subcarriers/s"));
        suite.time("zf_precoder_10x10_52sc", work, || {
            jmb_core::precoder::Precoder::zero_forcing(&hs).unwrap();
        });
    }

    // --- Phase-sync correction ------------------------------------------
    {
        use jmb_phy::chanest::ChannelEstimate;
        let subs = params.occupied_subcarriers();
        let rotated = |by: f64| ChannelEstimate {
            subcarriers: subs.clone(),
            gains: subs
                .iter()
                .map(|&k| Complex64::cis(0.05 * k as f64 + by))
                .collect(),
        };
        let now = rotated(0.8);
        let mut ps = jmb_core::phasesync::PhaseSync::new();
        ps.set_reference(rotated(0.0));
        suite.time("phasesync_correction", None, || {
            ps.correction(&now).unwrap();
        });
    }

    // --- Sample-level medium render -------------------------------------
    {
        let mut m = Medium::new(params.clone(), 1);
        let tx = m.add_node(PhaseTrajectory::fixed(2.437e9, 1000.0), 0.0);
        let rx = m.add_node(PhaseTrajectory::fixed(2.437e9, -500.0), 1e-6);
        m.set_link(tx, rx, Link::ideal());
        let wave = jmb_phy::preamble::preamble(&params);
        m.transmit(tx, 0.0, wave);
        let work = Some((320.0, "samples/s"));
        suite.time("medium_render_320_samples", work, || {
            m.render_rx(rx, 0.0, 320);
        });
    }

    // The ideal single-tap link above hides the multipath factor: on the
    // links the sample-level network runs on, every output sample costs one
    // interpolation per tap per transmitter.
    {
        let (mut m, client, n) = nlos_two_ap_medium(1)?;
        let work = Some((n as f64, "samples/s"));
        suite.time("medium_render_nlos_2tx_300B", work, || {
            m.render_rx(client, 0.0, n);
        });
    }

    // --- One windowed-sinc interpolation --------------------------------
    {
        let x: Vec<Complex64> = (0..256).map(|i| Complex64::cis(i as f64 * 0.37)).collect();
        let mut pos = 100.0;
        suite.time("interp_at_frac", None, || {
            // Walk the position as a sampling-clock offset does, so no two
            // calls share a fraction.
            pos = if pos < 150.0 { pos + 1.000_37 } else { 100.3 };
            std::hint::black_box(jmb_dsp::delay::interpolate_at(&x, pos));
        });
    }

    // --- End-to-end PHY packet ------------------------------------------
    {
        let tx = FrameTx::new(params.clone());
        let rx = FrameRx::new(params.clone());
        let payload: Vec<u8> = (0..1500).map(|i| i as u8).collect();
        let work = Some((1500.0 * 8.0, "bits/s"));
        suite.time("phy_tx_1500B_qam16", work, || {
            tx.tx_frame(Mcs::ALL[5], &payload).unwrap();
        });
        // The modulation extremes bracket the rx pipeline's mix: BPSK is
        // Viterbi-dominated (longest symbol count per bit), QAM-64 leans on
        // the soft demapper and deinterleaver.
        for (name, mcs) in [
            ("phy_rx_1500B_qam16", Mcs::ALL[5]),
            ("phy_rx_1500B_bpsk", Mcs::ALL[0]),
            ("phy_rx_1500B_qam64", Mcs::ALL[7]),
        ] {
            let wave = tx.tx_frame(mcs, &payload).unwrap();
            suite.time(name, work, || {
                rx.rx_frame(&wave).unwrap();
            });
        }
    }

    // --- FastNet joint-transmit step (the figure-sweep inner loop) ------
    {
        use jmb_core::fastnet::{FastConfig, FastNet};
        let cfg = FastConfig::default_with(4, 4, vec![25.0; 4], opts.set.seed);
        let mut net = FastNet::new(cfg).expect("fastnet setup");
        net.run_measurement().expect("measurement");
        net.advance(2e-3);
        let work = Some((1.0, "packets/s"));
        suite.time("fastnet_joint_transmit_4x4", work, || {
            net.joint_transmit(1e-3, 4, &[], true).unwrap();
        });
    }

    // --- City quick sweep (the sharded multi-cell outer loop) -----------
    // One op = a whole 4×4-grid city run (16 cells × 2 coupling epochs),
    // timed at 1 and 4 worker threads so `--compare` catches regressions
    // in both the per-cell cost and the shard dispatch overhead.
    {
        use jmb_city::{City, CityConfig, Reuse};
        for (name, threads) in [("city_quick_4x4_t1", 1usize), ("city_quick_4x4_t4", 4usize)] {
            let mut cfg = CityConfig::default_with(4, 4, Reuse::Three, opts.set.seed);
            cfg.aps_per_cell = 2;
            cfg.clients_per_cell = 4;
            cfg.duration_s = 0.02;
            cfg.rate_pps = 200.0;
            cfg.threads = threads;
            let cells_per_run = (cfg.cols * cfg.rows * cfg.epochs) as f64;
            suite.time_n(
                samples.min(5),
                name,
                Some((cells_per_run, "cells/s")),
                || {
                    City::new(cfg.clone())
                        .expect("city config")
                        .run()
                        .expect("city run");
                },
            );
        }
    }

    // --- jmb-lint workspace pass ----------------------------------------
    // The determinism auditor runs on every CI push, so its own runtime is
    // a tracked budget: files are loaded once outside the timer (I/O is
    // the repo's, not the lint's), then the full engine — lex, symbol
    // index, all lints, allow-matching — is timed per pass.
    match jmb_lint::engine::load(&root) {
        Ok(files) if !files.is_empty() => {
            let work = Some((files.len() as f64, "files/s"));
            let ns = suite.time_n(samples.min(5), "lint_workspace_ms", work, || {
                std::hint::black_box(jmb_lint::engine::run(&files));
            });
            println!("{:<27} ({:.1} ms, {} files)", "", ns / 1e6, files.len());
        }
        _ => println!("lint_workspace_ms           skipped (no workspace sources found)"),
    }

    // --- Span report ----------------------------------------------------
    let spans = jmb_obs::span_report();
    if !spans.is_empty() {
        println!("\ninstrumented spans (wall clock, whole run):");
        println!(
            "{:<24} {:>10} {:>14} {:>14}",
            "span", "count", "mean_ns", "max_ns"
        );
        for (name, s) in &spans {
            println!(
                "{name:<24} {:>10} {:>14.1} {:>14}",
                s.count,
                s.mean_ns(),
                s.max_ns
            );
        }
    }

    // --- Optional: dump the joint-transmit step's event trace -----------
    // FastNet only emits events on control-plane faults, so the traced run
    // injects a 30% sync-loss schedule to give the dump something to show.
    if let Some(path) = opts.trace_out() {
        use jmb_core::fastnet::{FastConfig, FastNet};
        use jmb_sim::{FaultConfig, FaultSchedule};
        let sink = ctx(crate::sweeps::trace_sink(path), "open --trace-out file")?;
        let cfg = FastConfig::default_with(4, 4, vec![25.0; 4], opts.set.seed);
        let mut net = FastNet::new(cfg).expect("fastnet setup");
        net.set_fault_schedule(FaultSchedule::constant(
            FaultConfig::builder()
                .sync_loss_chance(0.3)
                .build()
                .expect("valid probability"),
        ));
        net.trace.enable();
        net.trace.set_buffering(false);
        net.trace.attach_sink(sink);
        net.run_measurement().expect("measurement");
        net.advance(2e-3);
        for _ in 0..8 {
            net.joint_transmit_subset(&[0, 1, 2, 3], &[0, 1, 2, 3], 1500, 4, true)
                .unwrap();
            net.advance(1e-3);
        }
        net.trace.flush();
        net.trace.query().assert_monotone_time();
        println!("trace of 8 joint-transmit steps → {}", path.display());
    }

    // --- Emit BENCH_<date>.json at the repo root ------------------------
    let entries = suite.entries;
    let (y, mo, d) = today_utc();
    let date = format!("{y:04}-{mo:02}-{d:02}");
    let path = root.join(format!("BENCH_{date}.json"));
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"date\": \"{date}\",\n"));
    json.push_str(&format!("  \"seed\": {},\n", opts.set.seed));
    json.push_str(&format!("  \"quick\": {},\n", opts.set.quick));
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let name = json_escape_free(e.name);
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"ns_per_op\": {:.1}",
            e.ns_per_op
        ));
        if let Some((v, unit)) = e.throughput {
            json.push_str(&format!(
                ", \"throughput\": {{\"value\": {v:.3e}, \"unit\": \"{unit}\"}}"
            ));
        }
        json.push_str(if i + 1 == entries.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    json.push_str("  ]\n}\n");
    ctx(std::fs::write(&path, &json), "write BENCH json")?;
    println!("\nwrote {}", path.display());

    // --- Optional comparison against a prior baseline -------------------
    let mut report = Report::default();
    if let Some((base_path, baseline)) = baseline {
        println!("\ncomparison vs {base_path} (regression threshold +{threshold:.1}%):");
        println!(
            "{:<27} {:>14} {:>14} {:>9}",
            "name", "old ns/op", "new ns/op", "delta"
        );
        let mut regressions = Vec::new();
        for e in &entries {
            match baseline.iter().find(|(n, _)| n == e.name) {
                Some((_, old)) => {
                    let delta = (e.ns_per_op - old) / old * 100.0;
                    let flag = if delta > threshold {
                        "  REGRESSION"
                    } else {
                        ""
                    };
                    println!(
                        "{:<27} {:>14.1} {:>14.1} {:>+8.1}%{flag}",
                        e.name, old, e.ns_per_op, delta
                    );
                    if delta > threshold {
                        regressions.push(e.name);
                    }
                }
                None => {
                    println!(
                        "{:<27} {:>14} {:>14.1} {:>9}",
                        e.name, "(new)", e.ns_per_op, "-"
                    );
                }
            }
        }
        for (name, _) in &baseline {
            if !entries.iter().any(|e| e.name == name) {
                println!("{name:<27} {:>14} {:>14} {:>9}", "-", "(gone)", "-");
            }
        }
        if regressions.is_empty() {
            println!("no regressions beyond +{threshold:.1}%");
        }
        report.accept(regressions.is_empty(), || {
            format!(
                "{} entr{} regressed beyond +{threshold:.1}%: {}",
                regressions.len(),
                if regressions.len() == 1 { "y" } else { "ies" },
                regressions.join(", ")
            )
        });
    }
    Ok(report)
}
