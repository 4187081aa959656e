//! Executes a parsed manifest headless and produces the report + trace.
//!
//! The runner owns the bridge from manifest specs to simulator configs:
//! fault knobs compile to a `jmb_sim::FaultSchedule`, traffic specs to
//! `jmb_traffic::ClientLoad`s, limits to `jmb_traffic::RunLimits`, and
//! the finished run is folded through [`crate::assertion::evaluate_all`]
//! into a [`ScenarioReport`]. Nothing here panics: every failure is a
//! typed [`ScenarioError`] (exit 2) or a [`Verdict`] (exit 0/1/3).
//!
//! Determinism: the only wall-clock read is the optional `wall_clock_s`
//! budget, which can stop the run ([`jmb_obs::StopCause::Wallclock`]) but
//! never contributes a value to `result.json` or the trace.

use crate::assertion::{evaluate_all, AssertionOutcome};
use crate::error::ScenarioError;
use crate::manifest::{
    ArrivalSpec, Assertion, Backend, FaultKnobs, FaultSpec, Manifest, PacketSpec, Topology,
    TrafficSpec,
};
use crate::report::{ScenarioReport, Verdict};
use jmb_city::{City, CityConfig, Reuse};
use jmb_core::fastnet::FastConfig;
use jmb_core::net::NetConfig;
use jmb_obs::{EventKind, StopCause, Trace};
use jmb_sim::{FaultConfig, FaultSchedule};
use jmb_traffic::{
    ApOutage, ArrivalProcess, ClientLoad, FastBackend, PacketSizeDist, RunLimits, SampleBackend,
    TrafficConfig, TrafficMetrics, TrafficSim, TransmitBackend,
};

/// Knobs the CLI may override without editing the manifest.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Overrides the manifest's master seed.
    pub seed: Option<u64>,
    /// Worker threads for city runs (single-cell runs are inherently
    /// single-threaded; the value must not change any output byte).
    pub threads: Option<usize>,
}

/// What a run produces: the report (for `result.json`) and the full event
/// trace (for `trace.jsonl`).
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The run record.
    pub report: ScenarioReport,
    /// The trace, one JSON object per line.
    pub trace_jsonl: String,
}

/// Runs a validated manifest headless.
pub fn run_manifest(m: &Manifest, opts: &RunOptions) -> Result<RunOutput, ScenarioError> {
    let seed = opts.seed.unwrap_or(m.seed);
    match &m.topology {
        Topology::Single {
            aps,
            clients,
            snr_db,
        } => {
            let snr: Vec<f64> = if snr_db.len() == 1 {
                vec![snr_db[0]; *clients]
            } else {
                snr_db.clone()
            };
            let schedule = schedule_from(&m.faults)?;
            match m.backend {
                Backend::Fast => run_single(m, seed, |clean| {
                    let mut cfg = FastConfig::default_with(*aps, *clients, snr.clone(), seed);
                    cfg.sync = m.sync;
                    let mut b =
                        FastBackend::new(cfg).map_err(|e| ScenarioError::Sim(e.to_string()))?;
                    if !clean {
                        b.net_mut().set_fault_schedule(schedule.clone());
                    }
                    Ok(b)
                }),
                Backend::Sample => run_single(m, seed, |clean| {
                    let cfg = NetConfig::default_with(*aps, *clients, snr[0], seed);
                    let mut b =
                        SampleBackend::new(cfg).map_err(|e| ScenarioError::Sim(e.to_string()))?;
                    // Before the faults: the switch re-measures, and that
                    // exchange is construction, not part of the run.
                    if m.sync != b.sync_strategy() {
                        b.set_sync_strategy(m.sync);
                    }
                    if !clean {
                        b.net_mut().set_fault_schedule(schedule.clone());
                    }
                    Ok(b)
                }),
            }
        }
        Topology::City { .. } => run_city(m, seed, opts),
    }
}

/// Compiles one knob set into a validated `FaultConfig`. Probabilities
/// were range-checked at parse time; the builder re-validates anyway so a
/// hand-built manifest cannot sneak a bad value through.
fn knobs_to_config(k: &FaultKnobs) -> Result<FaultConfig, ScenarioError> {
    let mut b = FaultConfig::builder()
        .drop_chance(k.drop)
        .corrupt_chance(k.corrupt)
        .sync_loss_chance(k.sync_loss)
        .meas_loss_chance(k.meas_loss);
    for &(ap, p) in &k.per_slave {
        b = b.per_slave_sync_loss(ap, p);
    }
    b.build().map_err(|e| ScenarioError::Invalid(e.to_string()))
}

/// Compiles the `[faults]` section into a schedule (base + windows).
fn schedule_from(spec: &FaultSpec) -> Result<FaultSchedule, ScenarioError> {
    let mut s = FaultSchedule::constant(knobs_to_config(&spec.base)?);
    for w in &spec.windows {
        s = s
            .with_window(w.from_s, w.until_s, knobs_to_config(&w.knobs)?)
            .map_err(|e| ScenarioError::Invalid(e.to_string()))?;
    }
    Ok(s)
}

/// Maps the manifest traffic spec onto one client's load.
fn load_from(t: &TrafficSpec) -> ClientLoad {
    let arrival = match t.arrival {
        ArrivalSpec::Poisson { rate_pps } => ArrivalProcess::Poisson { rate_pps },
        ArrivalSpec::OnOff {
            burst_pps,
            on_s,
            off_s,
        } => ArrivalProcess::OnOff {
            burst_rate_pps: burst_pps,
            mean_on_s: on_s,
            mean_off_s: off_s,
        },
    };
    let size = match t.packet {
        PacketSpec::Fixed(n) => PacketSizeDist::Fixed(n),
        PacketSpec::Uniform { min, max } => PacketSizeDist::Uniform { min, max },
        PacketSpec::Bimodal {
            small,
            large,
            p_small,
        } => PacketSizeDist::Bimodal {
            small,
            large,
            p_small,
        },
    };
    ClientLoad { arrival, size }
}

/// Builds the traffic config a single-cell scenario describes.
fn traffic_config(m: &Manifest, seed: u64, clients: usize, with_outages: bool) -> TrafficConfig {
    let mut cfg = TrafficConfig::default_with(vec![load_from(&m.traffic); clients], seed);
    cfg.duration_s = m.traffic.duration_s;
    cfg.drain_timeout_s = m.traffic.drain_s;
    cfg.sync_strategy = m.sync;
    if with_outages {
        cfg.outages = m
            .faults
            .outages
            .iter()
            .map(|o| ApOutage {
                ap: o.ap,
                down_at_s: o.from_s,
                up_at_s: o.until_s,
            })
            .collect();
    }
    cfg
}

/// Compiles the `[limits]` section into `RunLimits`. The wall-clock
/// budget is the one legitimate host-clock read in the scenario stack:
/// it stops the run gracefully and no wall-time value enters any
/// artifact.
fn run_limits(m: &Manifest) -> RunLimits {
    let mut rl = RunLimits {
        max_events: m.limits.max_events,
        max_sim_time_s: m.limits.max_sim_time_s,
        ..RunLimits::none()
    };
    if let Some(budget_s) = m.limits.wall_clock_s {
        // jmb-allow(no-wallclock-in-sim): the wall-clock limit is a harness budget — it stops the run early but never alters simulated behaviour, and no wall-time value reaches result.json or the trace
        let t0 = std::time::Instant::now();
        rl.stop = Some(Box::new(move |_events, _t| {
            t0.elapsed().as_secs_f64() > budget_s
        }));
    }
    rl
}

/// The canonical metrics table for a traffic run, in
/// [`crate::assertion::COMMON_METRICS`] order.
fn metrics_table(tm: &TrafficMetrics) -> Vec<(String, f64)> {
    vec![
        ("goodput_mbps".into(), tm.goodput_bps() / 1e6),
        ("offered_mbps".into(), tm.offered_bps / 1e6),
        ("generated".into(), tm.generated as f64),
        ("delivered".into(), tm.delivered as f64),
        ("dropped".into(), tm.dropped as f64),
        ("retries".into(), tm.retries as f64),
        ("queued_at_end".into(), tm.queued_at_end as f64),
        ("median_latency_ms".into(), tm.median_latency_s() * 1e3),
        ("p99_latency_ms".into(), tm.p99_latency_s() * 1e3),
        ("jain".into(), tm.jain_fairness()),
        ("delivery_ratio".into(), tm.delivery_ratio()),
        ("sync_misses".into(), tm.sync_misses as f64),
        ("remeasure_ok".into(), tm.remeasure_ok as f64),
        ("remeasure_failed".into(), tm.remeasure_failed as f64),
        ("aps_degraded".into(), tm.aps_degraded as f64),
        ("aps_restored".into(), tm.aps_restored as f64),
        ("csi_stale".into(), tm.csi_stale_events as f64),
    ]
}

/// Folds limit causes and assertion outcomes into the verdict. A limit
/// stop trumps assertion results: the data is partial, so pass/fail over
/// it would be misleading either way.
fn verdict_of(cause: StopCause, outcomes: &[AssertionOutcome]) -> Verdict {
    if cause != StopCause::Completed {
        Verdict::LimitExceeded
    } else if outcomes.iter().all(|o| o.passed) {
        Verdict::Pass
    } else {
        Verdict::AssertionFailed
    }
}

/// Runs a single-cell scenario over any backend. `mk(true)` must build a
/// fault-free twin of `mk(false)` (same topology, same seed) — used for
/// the `goodput_vs_clean` degrade-not-stall metric.
fn run_single<B, F>(m: &Manifest, seed: u64, mk: F) -> Result<RunOutput, ScenarioError>
where
    B: TransmitBackend,
    F: Fn(bool) -> Result<B, ScenarioError>,
{
    let clients = m.traffic_clients();
    let cfg = traffic_config(m, seed, clients, true);
    let mut sim =
        TrafficSim::new(cfg, mk(false)?).map_err(|e| ScenarioError::Sim(e.to_string()))?;
    sim.trace.enable();
    sim.trace.emit(
        0.0,
        EventKind::ScenarioStarted {
            assertions: m.assertions.len(),
        },
    );
    let bounded = sim.run_bounded(run_limits(m));

    let mut metrics = metrics_table(&bounded.metrics);
    if m.assertions
        .iter()
        .any(|a| matches!(a, Assertion::Metric { name, .. } if name == "goodput_vs_clean"))
    {
        // Reference run: same seed, same load, no faults, no outages.
        let clean_cfg = traffic_config(m, seed, clients, false);
        let mut clean_sim =
            TrafficSim::new(clean_cfg, mk(true)?).map_err(|e| ScenarioError::Sim(e.to_string()))?;
        let clean = clean_sim.run();
        let ratio = if clean.goodput_bps() > 0.0 {
            bounded.metrics.goodput_bps() / clean.goodput_bps()
        } else {
            1.0
        };
        metrics.push(("goodput_vs_clean".into(), ratio));
    }

    let horizon = bounded.metrics.elapsed_s;
    let outcomes = evaluate_all(&m.assertions, &metrics, sim.trace.events(), horizon);
    for o in &outcomes {
        sim.trace.emit(
            horizon,
            EventKind::ScenarioAssertion {
                index: o.index,
                passed: o.passed,
            },
        );
    }
    sim.trace.emit(
        horizon,
        EventKind::ScenarioStopped {
            cause: bounded.cause,
            events: bounded.events,
        },
    );
    let verdict = verdict_of(bounded.cause, &outcomes);
    Ok(RunOutput {
        report: ScenarioReport {
            name: m.name.clone(),
            seed,
            verdict,
            stop_cause: bounded.cause,
            events: bounded.events,
            assertions: outcomes,
            metrics,
            error: None,
        },
        trace_jsonl: sim.trace.to_jsonl(),
    })
}

/// Runs a city-grid scenario. Cells execute as whole epochs, so the only
/// honourable limit is `max_sim_time_s`, enforced as a precheck: a grid
/// whose epoch span exceeds the budget reports `limit-exceeded` without
/// running at all.
fn run_city(m: &Manifest, seed: u64, opts: &RunOptions) -> Result<RunOutput, ScenarioError> {
    let Topology::City {
        cols,
        rows,
        reuse,
        aps_per_cell,
        clients_per_cell,
        spacing_m,
        snr_db,
    } = &m.topology
    else {
        return Err(ScenarioError::Invalid(
            "run_city needs a city topology".into(),
        ));
    };
    let reuse = match reuse {
        1 => Reuse::One,
        3 => Reuse::Three,
        _ => Reuse::Seven,
    };
    let (rate_pps, packet_bytes) = match (m.traffic.arrival, m.traffic.packet) {
        (ArrivalSpec::Poisson { rate_pps }, PacketSpec::Fixed(b)) => (rate_pps, b),
        // validate() pins city traffic to poisson + fixed.
        _ => {
            return Err(ScenarioError::Invalid(
                "city traffic must be poisson + fixed".into(),
            ))
        }
    };
    let mut cfg = CityConfig::default_with(*cols, *rows, reuse, seed);
    cfg.aps_per_cell = *aps_per_cell;
    cfg.clients_per_cell = *clients_per_cell;
    cfg.spacing_m = *spacing_m;
    cfg.client_snr_db = *snr_db;
    cfg.rate_pps = rate_pps;
    cfg.packet_bytes = packet_bytes;
    cfg.duration_s = m.traffic.duration_s;
    cfg.epochs = 1;
    cfg.threads = opts.threads.unwrap_or(1).max(1);

    let span_s = cfg.epochs as f64 * cfg.epoch_span_s();
    if let Some(budget) = m.limits.max_sim_time_s {
        if span_s > budget {
            // The grid cannot be stopped mid-epoch; refuse up front.
            let mut trace = Trace::new();
            trace.enable();
            trace.emit(
                0.0,
                EventKind::ScenarioStarted {
                    assertions: m.assertions.len(),
                },
            );
            trace.emit(
                0.0,
                EventKind::ScenarioStopped {
                    cause: StopCause::MaxSimTime,
                    events: 0,
                },
            );
            return Ok(RunOutput {
                report: ScenarioReport {
                    name: m.name.clone(),
                    seed,
                    verdict: Verdict::LimitExceeded,
                    stop_cause: StopCause::MaxSimTime,
                    events: 0,
                    assertions: Vec::new(),
                    metrics: Vec::new(),
                    error: None,
                },
                trace_jsonl: trace.to_jsonl(),
            });
        }
    }

    let mut city = City::new(cfg).map_err(|e| ScenarioError::Sim(e.to_string()))?;
    city.trace.enable();
    city.trace.emit(
        0.0,
        EventKind::ScenarioStarted {
            assertions: m.assertions.len(),
        },
    );
    let report = city.run().map_err(|e| ScenarioError::Sim(e.to_string()))?;

    let mut metrics = metrics_table(&report.pooled);
    metrics.push((
        "area_capacity_mbps_km2".into(),
        report.area_capacity_bps_per_km2() / 1e6,
    ));
    metrics.push(("mean_inr_db".into(), report.mean_inr_db()));

    let events = city.trace.events().len() as u64;
    let outcomes = evaluate_all(&m.assertions, &metrics, city.trace.events(), span_s);
    for o in &outcomes {
        city.trace.emit(
            span_s,
            EventKind::ScenarioAssertion {
                index: o.index,
                passed: o.passed,
            },
        );
    }
    city.trace.emit(
        span_s,
        EventKind::ScenarioStopped {
            cause: StopCause::Completed,
            events,
        },
    );
    let verdict = verdict_of(StopCause::Completed, &outcomes);
    Ok(RunOutput {
        report: ScenarioReport {
            name: m.name.clone(),
            seed,
            verdict,
            stop_cause: StopCause::Completed,
            events,
            assertions: outcomes,
            metrics,
            error: None,
        },
        trace_jsonl: city.trace.to_jsonl(),
    })
}

impl Manifest {
    /// Number of traffic clients a single-cell manifest drives.
    fn traffic_clients(&self) -> usize {
        match &self.topology {
            Topology::Single { clients, .. } => *clients,
            Topology::City {
                clients_per_cell, ..
            } => *clients_per_cell,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;

    fn tiny(faults: &str, assertions: &str) -> Manifest {
        let text = format!(
            "version 1\nname tiny\nseed 1\n\n[topology]\nkind single\naps 3\nclients 3\n\
             snr_db 26\n\n[channel]\nbackend fast\n\n[traffic]\narrival poisson 800\n\
             packet fixed 700\nduration_s 0.1\ndrain_s 0.05\n{faults}{assertions}"
        );
        Manifest::parse(&text).expect("tiny manifest parses")
    }

    #[test]
    fn clean_run_passes_basic_assertions() {
        let m = tiny(
            "",
            "[assertions]\nmetric delivery_ratio >= 0.9\nmetric jain >= 0.5\n\
             count Enqueued > 10\ncount ApDown == 0\n",
        );
        let out = run_manifest(&m, &RunOptions::default()).expect("runs");
        assert_eq!(
            out.report.verdict,
            Verdict::Pass,
            "{}",
            out.report.to_json()
        );
        assert_eq!(out.report.stop_cause, StopCause::Completed);
        assert!(out.report.events > 0);
        assert!(out.trace_jsonl.contains("ScenarioStarted"));
        assert!(out.trace_jsonl.contains("ScenarioStopped"));
        assert!(out.trace_jsonl.contains("ScenarioAssertion"));
    }

    #[test]
    fn failed_assertion_is_exit_one() {
        let m = tiny("", "[assertions]\nmetric dropped >= 1000000\n");
        let out = run_manifest(&m, &RunOptions::default()).expect("runs");
        assert_eq!(out.report.verdict, Verdict::AssertionFailed);
        assert_eq!(out.report.verdict.exit_code(), 1);
        assert!(!out.report.assertions[0].passed);
    }

    #[test]
    fn event_budget_is_exit_three() {
        let m = tiny("[limits]\nmax_events 10\n", "");
        let out = run_manifest(&m, &RunOptions::default()).expect("runs");
        assert_eq!(out.report.verdict, Verdict::LimitExceeded);
        assert_eq!(out.report.verdict.exit_code(), 3);
        assert_eq!(out.report.stop_cause, StopCause::MaxEvents);
        assert_eq!(out.report.events, 10);
    }

    #[test]
    fn goodput_vs_clean_reference_run() {
        let m = tiny(
            "[faults]\nsync_loss 0.1\n",
            "[assertions]\nmetric goodput_vs_clean >= 0.1\n",
        );
        let out = run_manifest(&m, &RunOptions::default()).expect("runs");
        let ratio = out
            .report
            .metrics
            .iter()
            .find(|(k, _)| k == "goodput_vs_clean")
            .map(|&(_, v)| v)
            .expect("ratio in table");
        assert!(ratio > 0.0 && ratio <= 1.5, "ratio {ratio}");
    }

    #[test]
    fn seed_override_changes_the_run_deterministically() {
        let m = tiny("", "");
        let a1 = run_manifest(
            &m,
            &RunOptions {
                seed: Some(5),
                threads: None,
            },
        )
        .expect("runs");
        let a2 = run_manifest(
            &m,
            &RunOptions {
                seed: Some(5),
                threads: None,
            },
        )
        .expect("runs");
        assert_eq!(a1.report.to_json(), a2.report.to_json());
        assert_eq!(a1.trace_jsonl, a2.trace_jsonl);
        assert_eq!(a1.report.seed, 5);
    }
}
