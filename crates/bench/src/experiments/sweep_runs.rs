//! The four sweep experiments over the discrete-event traffic simulator.
//! Row generation lives in [`crate::sweeps`] (shared with the
//! `sync_equivalence` fixture test); this module prints the tables and
//! states the acceptance properties.

use crate::sweeps;
use crate::{bad, ctx, BenchError, Opts, Report};
use jmb_city::Reuse;
use jmb_core::sync::{SyncStrategyId, SYNC_ERROR_BUDGET_RAD};
use jmb_sim::FaultConfig;
use jmb_traffic::TrafficMetrics;

/// Traffic sweep: goodput and latency vs offered load and AP count, plus
/// a lead-AP failover run.
///
/// Three sections, all through the discrete-event traffic simulator over
/// the per-subcarrier PHY ([`jmb_traffic::FastBackend`]):
///
/// * `scaling` — saturating load, 1–10 APs serving as many clients:
///   goodput should grow with the number of APs (the paper's headline
///   claim, now under queueing instead of back-to-back frames);
/// * `load` — 4 APs / 4 clients, offered load ramping from light to
///   beyond saturation: goodput tracks the offered line then flattens,
///   latency shows the classic knee;
/// * `failover` — moderate load with the lead AP down for the middle
///   third of the run: goodput degrades, the queue keeps draining, and
///   full service resumes on recovery.
///
/// Every simulation is seeded; rows are byte-identical across runs and
/// `--threads` settings (parallelism is across simulations, each of which
/// is single-threaded).
pub fn traffic_sweep(opts: &Opts) -> Result<Report, BenchError> {
    let out = sweeps::traffic_sweep(&opts.set);

    println!("n_aps  offered_mbps  goodput_mbps  p99_ms");
    for (n, m) in &out.scaling {
        println!(
            "{n:>5}  {:>12.1}  {:>12.1}  {:>6.1}",
            m.offered_bps / 1e6,
            m.goodput_bps() / 1e6,
            m.p99_latency_s() * 1e3
        );
    }

    println!("\nrate_pps  offered_mbps  goodput_mbps  median_ms  p99_ms");
    for (r, m) in &out.ramp {
        println!(
            "{r:>8.0}  {:>12.1}  {:>12.1}  {:>9.2}  {:>6.1}",
            m.offered_bps / 1e6,
            m.goodput_bps() / 1e6,
            m.median_latency_s() * 1e3,
            m.p99_latency_s() * 1e3
        );
    }

    println!("\nfailover (lead AP down for the middle third):");
    println!(
        "  healthy : goodput {:>6.1} Mb/s, p99 {:>6.1} ms, backlog {}",
        out.healthy.goodput_bps() / 1e6,
        out.healthy.p99_latency_s() * 1e3,
        out.healthy.queued_at_end
    );
    println!(
        "  failover: goodput {:>6.1} Mb/s, p99 {:>6.1} ms, backlog {}, delivery {:.1}%",
        out.failover.goodput_bps() / 1e6,
        out.failover.p99_latency_s() * 1e3,
        out.failover.queued_at_end,
        out.failover.delivery_ratio() * 100.0
    );
    let mut report = Report::csv("traffic_sweep.csv", out.header, out.rows);
    // The acceptance property: degraded, not stalled.
    report.accept(
        out.failover.delivered > 0 && out.failover.goodput_bps() > 0.0,
        || "failover run stalled".into(),
    );

    // A dedicated re-run of the failover cell (seed = master seed) so the
    // sweep rows above stay byte-identical whether or not tracing is on.
    if let Some(path) = opts.trace_out() {
        ctx(
            sweeps::traffic_failover_trace(&opts.set, path),
            "write --trace-out file",
        )?;
        println!("trace of the failover cell → {}", path.display());
    }
    println!("\n§9/§11: capacity — and now queueing delay — scale with the number of APs.");
    Ok(report)
}

fn print_robustness_header() {
    println!("loss_pct  goodput_mbps  sync_misses  remeas_fail  degraded  restored");
}

fn print_robustness_row(loss: f64, m: &TrafficMetrics) {
    println!(
        "{:>8.1}  {:>12.1}  {:>11}  {:>11}  {:>8}  {:>8}",
        loss * 100.0,
        m.goodput_bps() / 1e6,
        m.sync_misses,
        m.remeasure_failed,
        m.aps_degraded,
        m.aps_restored
    );
}

/// Robustness sweep: goodput vs control-frame loss.
///
/// The claim under test: JMB's control plane degrades *gracefully*. Losing
/// sync headers or measurement frames costs throughput proportionally —
/// re-measurement backs off, desynchronized slaves drop out of individual
/// joint batches — but never collapses the network or stalls the queue.
///
/// Three sections, all through the discrete-event traffic simulator over
/// the per-subcarrier PHY ([`jmb_traffic::FastBackend`]):
///
/// * `sync` — saturating load at 4 APs / 4 clients with the per-batch
///   sync-header loss probability ramping 0 → 30%: goodput must fall
///   smoothly (at 10% loss it stays within 25% of fault-free — the
///   acceptance bound);
/// * `meas` — the same ramp applied to measurement-frame loss: lost
///   measurements trigger capped-exponential-backoff re-measurement, CSI
///   ages but transmissions continue on the stale precoder;
/// * `storm` — a mid-run window in which one slave loses *every* sync
///   header: it degrades out of the array (K consecutive misses), the rest
///   keep serving, and it is restored when the storm passes.
///
/// `--sync-loss P` / `--meas-loss P` switch to single-cell mode (used by
/// the CI fault matrix): one pooled operating point at those
/// probabilities, written to `robustness_cell.csv`. Out-of-range
/// probabilities are an invalid command line, reported with `FaultError`'s
/// field-name message. Every simulation is seeded; rows are byte-identical
/// across runs and `--threads` settings.
pub fn robustness_sweep(opts: &Opts) -> Result<Report, BenchError> {
    let sync_loss = opts.number("--sync-loss")?;
    let meas_loss = opts.number("--meas-loss")?;

    // --- Single-cell mode for the CI fault matrix. ---
    if sync_loss.is_some() || meas_loss.is_some() {
        if opts.trace_out().is_some() {
            return Err(bad("--trace-out traces the storm cell of the full sweep"));
        }
        let (sync_loss, meas_loss) = (sync_loss.unwrap_or(0.0), meas_loss.unwrap_or(0.0));
        let fault = FaultConfig::builder()
            .sync_loss_chance(sync_loss)
            .meas_loss_chance(meas_loss)
            .build()
            .map_err(|e| bad(e.to_string()))?;
        let (m, header, rows) = sweeps::robustness_cell(&opts.set, fault);
        println!(
            "cell: sync-loss {:.0}%, meas-loss {:.0}%",
            sync_loss * 100.0,
            meas_loss * 100.0
        );
        print_robustness_header();
        print_robustness_row(sync_loss.max(meas_loss), &m);
        let mut report = Report::csv("robustness_cell.csv", header, rows);
        report.accept(m.delivered > 0, || "faulted cell stalled".into());
        return Ok(report);
    }

    let out = sweeps::robustness_sweep(&opts.set);
    let mut report = Report::csv("robustness_sweep.csv", out.header, out.rows);

    println!("sync-header loss:");
    print_robustness_header();
    for (l, m) in &out.sync {
        print_robustness_row(*l, m);
    }
    let goodput_at = |loss: f64| {
        let point = out.sync.iter().find(|(l, _)| *l == loss);
        point.expect("ramp point").1.goodput_bps()
    };
    let (clean, at_10) = (goodput_at(0.0), goodput_at(0.1));
    println!(
        "  goodput at 10% sync loss: {:.1}% of fault-free",
        100.0 * at_10 / clean
    );
    // The acceptance bound: graceful, not a cliff.
    report.accept(at_10 >= 0.75 * clean, || {
        format!("10% sync loss cost more than 25% of goodput ({at_10:.0} vs {clean:.0} b/s)")
    });

    println!("\nmeasurement-frame loss:");
    print_robustness_header();
    for (l, m) in &out.meas {
        print_robustness_row(*l, m);
        report.accept(m.delivered > 0, || {
            format!("meas-loss {l} stalled the network")
        });
    }

    println!("\nstorm (slave 1 misses every header, middle third):");
    print_robustness_header();
    print_robustness_row(1.0, &out.storm);
    report.accept(
        out.storm.aps_degraded >= 1 && out.storm.aps_restored >= 1,
        || "storm must degrade the slave and restore it afterwards".into(),
    );

    // A dedicated re-run of the storm cell (seed = master seed) so the
    // sweep rows above stay byte-identical whether or not tracing is on.
    if let Some(path) = opts.trace_out() {
        ctx(
            sweeps::robustness_storm_trace(&opts.set, path),
            "write --trace-out file",
        )?;
        println!("trace of the storm cell → {}", path.display());
    }
    println!("\n§7: control-frame loss degrades JMB smoothly — no cliff, no stall.");
    Ok(report)
}

/// City sweep: area capacity vs frequency-reuse factor on a sharded
/// multi-cell deployment.
///
/// Lays hundreds of JMB cells on a rectangular grid (`jmb-city`), couples
/// co-channel cells through distance-based path loss, and runs every cell's
/// traffic event loop as a deterministic shard. The full sweep deploys a
/// 16×16 grid with 4 APs and 400 clients per cell — 1024 APs serving
/// 102,400 clients — at reuse 1, 3, and 7; `--quick` shrinks it to an 8×8
/// grid with small cells for smoke runs.
///
/// The headline trade: reuse 1 gives every cell the full band but the most
/// interference; reuse 7 is quiet but splits the band seven ways. Which
/// wins in bits/s/km² depends on load and cell pitch — that is the
/// figure this experiment draws.
///
/// Every simulation is seeded; the CSV is byte-identical across runs and
/// `--threads` settings.
pub fn city_sweep(opts: &Opts) -> Result<Report, BenchError> {
    let reuses = opts.list("--reuse", Reuse::parse)?;
    let reuses = reuses.unwrap_or_else(|| Reuse::ALL.to_vec());
    let mut report = Report::default();
    let mut rows: Vec<Vec<String>> = Vec::new();
    println!(
        "{:>5} {:>6} {:>8} {:>9} {:>12} {:>13} {:>9}",
        "reuse", "cells", "aps", "clients", "mean_inr_db", "area_mbps_km2", "delivery"
    );
    for (ri, &reuse) in reuses.iter().enumerate() {
        // Trace the first reuse point's city-level event feed if asked.
        let trace_out = opts.trace_out().filter(|_| ri == 0);
        let sink = trace_out.map(sweeps::trace_sink).transpose();
        let sink = ctx(sink, "open --trace-out file")?;
        let city = ctx(
            sweeps::city_point(&opts.set, reuse, sink, &mut rows),
            "run city",
        )?;
        // The acceptance property: every reuse point delivers.
        report.accept(city.pooled.delivered > 0, || {
            format!("reuse-{} city delivered nothing", reuse.factor())
        });
        if let Some(path) = trace_out {
            println!(
                "trace of the reuse-{} city → {}",
                reuse.factor(),
                path.display()
            );
        }
        let cfg = sweeps::city_config(opts.set.quick, reuse, opts.set.seed, opts.set.threads);
        println!(
            "{:>5} {:>6} {:>8} {:>9} {:>12.2} {:>13.2} {:>8.1}%",
            reuse.factor(),
            city.cells.len(),
            cfg.total_aps(),
            cfg.total_clients(),
            city.mean_inr_db(),
            city.area_capacity_bps_per_km2() / 1e6,
            city.delivery_ratio() * 100.0
        );
    }
    report
        .csvs
        .push(("city_sweep.csv", sweeps::city_header(), rows));
    println!(
        "\n§11 at city scale: spectral aggression (reuse 1) vs isolation (reuse 7) in bits/s/km²."
    );
    Ok(report)
}

/// Sync-strategy shootout: every pluggable synchronization backend
/// through the same probes and storms.
///
/// Three sections, all strategies side by side:
///
/// * `phase` — CDF of achieved phase misalignment from the sample-level
///   probe (the Fig. 7 pipeline with the slave's correction source
///   swapped): the paper's lead/slave resync must stay inside its
///   0.35 rad budget (an acceptance property); the out-of-band rivals
///   trade update cadence and estimate quality for control cost, so their
///   envelopes are wider and documented here rather than pinned;
/// * `storm` — the robustness storm (one slave loses every sync header
///   for the middle third) at 4 APs: in-band resync degrades the slave
///   and restores it, the out-of-band rivals never consult the headers
///   so the storm cannot stall them (an acceptance property: everyone
///   keeps delivering); the control-overhead fraction
///   (`control_airtime_s / airtime_s`) makes the rivals' hidden cost
///   visible — pilot broadcasts charge airtime even when no data flows;
/// * `scaling` — goodput vs AP count under the same storm, per strategy.
///
/// Writes `sync_shootout.csv` (storm + scaling sections) and
/// `sync_shootout_phase.csv` (per-strategy misalignment percentiles).
/// Both are byte-identical across runs and `--threads` settings; the CI
/// `det-matrix` job (`det_harness`) compares them.
pub fn sync_shootout(opts: &Opts) -> Result<Report, BenchError> {
    let out = ctx(sweeps::sync_shootout(&opts.set), "sync_shootout pipeline")?;
    let mut report = Report::default();

    println!("phase-error CDF (radians, sample-level probe):");
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8} {:>6}",
        "strategy", "p50", "p90", "p99", "max", "n"
    );
    for row in &out.phase_rows {
        println!(
            "{:<22} {:>8} {:>8} {:>8} {:>8} {:>6}",
            row[0], row[1], row[2], row[3], row[4], row[5]
        );
    }
    let jmb = &out.phase[0];
    assert_eq!(jmb.0, SyncStrategyId::JmbLeadSlave);
    let jmb_worst = jmb.1.last().copied().unwrap_or(0.0);
    report.accept(jmb_worst <= SYNC_ERROR_BUDGET_RAD, || {
        format!(
            "JMB lead/slave misalignment {jmb_worst:.3} rad exceeds the \
             {SYNC_ERROR_BUDGET_RAD} rad budget"
        )
    });

    println!("\nstorm cell (slave 1 misses every header, middle third):");
    println!(
        "{:<22} {:>12} {:>10} {:>8} {:>8} {:>8}",
        "strategy", "goodput_mbps", "ctrl_frac", "misses", "degraded", "restored"
    );
    for (s, m) in &out.storm {
        let ctrl_frac = if m.airtime_s > 0.0 {
            m.control_airtime_s / m.airtime_s
        } else {
            0.0
        };
        println!(
            "{:<22} {:>12.1} {:>10.4} {:>8} {:>8} {:>8}",
            s.token(),
            m.goodput_bps() / 1e6,
            ctrl_frac,
            m.sync_misses,
            m.aps_degraded,
            m.aps_restored
        );
        report.accept(m.delivered > 0, || {
            format!("{} stalled under the storm", s.token())
        });
        if *s == SyncStrategyId::JmbLeadSlave {
            report.accept(m.aps_degraded >= 1 && m.aps_restored >= 1, || {
                "JMB lead/slave must degrade the slave and restore it afterwards".into()
            });
        } else {
            report.accept(m.sync_misses == 0 && m.aps_degraded == 0, || {
                format!(
                    "{} consults no in-band headers, so the storm must not \
                     produce misses or degradations",
                    s.token()
                )
            });
        }
    }

    println!("\nthroughput vs APs under the storm:");
    for (s, series) in &out.scaling {
        let pts: Vec<String> = series
            .iter()
            .map(|(n, m)| format!("{n}:{:.1}", m.goodput_bps() / 1e6))
            .collect();
        println!("  {:<22} {}", s.token(), pts.join("  "));
    }
    println!(
        "\nshootout: in-band resync holds the paper's {SYNC_ERROR_BUDGET_RAD} rad budget; \
         the rivals ride out header storms at their own control cost."
    );
    report.csvs = vec![
        ("sync_shootout.csv", out.header, out.rows),
        ("sync_shootout_phase.csv", out.phase_header, out.phase_rows),
    ];
    Ok(report)
}
