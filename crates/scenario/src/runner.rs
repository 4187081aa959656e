//! Plans a parsed manifest, then executes the plan headless and produces
//! the report + trace.
//!
//! `plan` is the one bridge from the manifest to the simulator: it maps a
//! manifest (+ seed, threads) onto the configs a run is built from and has
//! the library validate each. [`Manifest::validate`] calls it, so
//! `jmb-scenario check` refuses exactly what `run` would refuse;
//! [`run_manifest`] executes it, folding the finished run through
//! [`crate::assertion::evaluate_all`] into a [`ScenarioReport`]. Nothing
//! here panics: every failure is a typed [`ScenarioError`] (exit 2) or a
//! [`Verdict`] (exit 0/1/3).
//!
//! Determinism: the only wall-clock read is the optional `wall_clock_s`
//! budget, which can stop the run ([`jmb_obs::StopCause::Wallclock`]) but
//! never contributes a value to `result.json` or the trace.

use crate::assertion::{evaluate_all, Assertion, ReadMetric, COMMON_METRICS};
use crate::error::ScenarioError;
use crate::manifest::{rebuilt, Backend, Manifest, Topology};
use crate::report::{ScenarioReport, Verdict};
use jmb_city::{City, CityConfig, Reuse};
use jmb_core::fastnet::{FastConfig, FastEval};
use jmb_core::net::{NetConfig, SampleEval};
use jmb_core::network::Serve;
use jmb_obs::{EventKind, StopCause, SyncStrategyId, Trace};
use jmb_sim::FaultSchedule;
use jmb_traffic::{
    ArrivalProcess, PacketSizeDist, RunLimits, TrafficConfig, TrafficMetrics, TrafficSim,
    TransmitBackend,
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

/// The configs a run is built from, each already validated by its library.
pub(crate) enum Plan {
    Fast(FastConfig, TrafficConfig, FaultSchedule),
    Sample(NetConfig, TrafficConfig, FaultSchedule),
    City(CityConfig),
}

/// A library's refusal of a config, under the manifest keys that fed it.
fn refused(keys: &str, e: impl std::fmt::Display) -> ScenarioError {
    ScenarioError::Invalid(format!("{keys}: {e}"))
}

/// Maps a manifest onto the configs its run is built from and asks the
/// library whether it will take them. The only such mapping: what
/// `validate` accepts here is what `run_manifest` constructs.
pub(crate) fn plan(m: &Manifest, seed: u64, threads: usize) -> Result<Plan, ScenarioError> {
    let traffic_for = |clients: usize| {
        let mut cfg = TrafficConfig::default_with(vec![m.traffic.load; clients], seed);
        cfg.duration_s = m.traffic.duration_s;
        cfg.drain_timeout_s = m.traffic.drain_s;
        cfg.sync_strategy = m.sync;
        cfg.outages = m.faults.outages.clone();
        cfg
    };
    match &m.topology {
        Topology::Single {
            aps,
            clients,
            snr_db,
        } => {
            let cell = "[topology] aps/clients/snr_db";
            let snr = match snr_db.as_slice() {
                [one] => vec![*one; *clients],
                list => list.to_vec(),
            };
            let traffic = traffic_for(*clients);
            traffic
                .validate(*aps, *clients)
                .map_err(|e| refused("[traffic] arrival/packet/duration_s or an outage", e))?;
            let knobs = |e| refused("[faults] probabilities or a window", e);
            let mut faults = FaultSchedule::constant(rebuilt(&m.faults.base).map_err(knobs)?);
            for w in &m.faults.windows {
                let config = rebuilt(&w.config).map_err(knobs)?;
                faults = faults
                    .with_window(w.from_s, w.until_s, config)
                    .map_err(knobs)?;
            }
            match m.backend {
                Backend::Fast => {
                    let mut cfg = FastConfig::default_with(*aps, *clients, snr, seed);
                    cfg.sync = m.sync;
                    cfg.validate().map_err(|e| refused(cell, e))?;
                    Ok(Plan::Fast(cfg, traffic, faults))
                }
                Backend::Sample => {
                    let mut cfg = NetConfig::default_with(*aps, *clients, 0.0, seed);
                    cfg.client_snr_db = snr;
                    cfg.validate().map_err(|e| refused(cell, e))?;
                    Ok(Plan::Sample(cfg, traffic, faults))
                }
            }
        }
        Topology::City {
            cols,
            rows,
            reuse,
            aps_per_cell,
            clients_per_cell,
            spacing_m,
            snr_db,
        } => {
            let load = m.traffic.load;
            let (ArrivalProcess::Poisson { rate_pps }, PacketSizeDist::Fixed(packet_bytes)) =
                (load.arrival, load.size)
            else {
                return Err(ScenarioError::Invalid(
                    "city traffic is `arrival poisson` + `packet fixed` \
                     (the city layer owns per-cell load shaping)"
                        .into(),
                ));
            };
            let reuse = Reuse::ALL
                .into_iter()
                .find(|r| r.factor() as u64 == u64::from(*reuse))
                .ok_or_else(|| refused("[topology] reuse", "must be 1, 3 or 7"))?;
            let mut cfg = CityConfig::default_with(*cols, *rows, reuse, seed);
            cfg.aps_per_cell = *aps_per_cell;
            cfg.clients_per_cell = *clients_per_cell;
            cfg.spacing_m = *spacing_m;
            cfg.client_snr_db = *snr_db;
            cfg.rate_pps = rate_pps;
            cfg.packet_bytes = packet_bytes;
            cfg.duration_s = m.traffic.duration_s;
            cfg.epochs = 1;
            cfg.threads = threads;
            cfg.validate()
                .map_err(|e| refused("[topology] or [traffic] of a city", e))?;
            // Every cell is a traffic run of its own: what `City::run` would
            // hear from each of them is asked once, here.
            traffic_for(*clients_per_cell)
                .validate(*aps_per_cell, *clients_per_cell)
                .map_err(|e| refused("[traffic] arrival/packet/duration_s", e))?;
            Ok(Plan::City(cfg))
        }
    }
}

fn sim_error(e: jmb_core::error::JmbError) -> ScenarioError {
    ScenarioError::Sim(e.to_string())
}

/// Runs a manifest headless: plans it, then builds and runs the plan.
pub fn run_manifest(m: &Manifest, opts: &RunOptions) -> Result<RunOutput, ScenarioError> {
    let seed = opts.seed.unwrap_or(m.seed);
    match plan(m, seed, opts.threads.unwrap_or(1).max(1))? {
        Plan::Fast(cfg, traffic, faults) => run_single(m, seed, &traffic, |clean| {
            cell::<FastEval>(cfg.clone(), m.sync, (!clean).then_some(&faults))
        }),
        Plan::Sample(cfg, traffic, faults) => run_single(m, seed, &traffic, |clean| {
            cell::<SampleEval>(cfg.clone(), m.sync, (!clean).then_some(&faults))
        }),
        Plan::City(cfg) => run_city(m, seed, cfg),
    }
}

/// Builds a single cell's backend at either fidelity, on `sync` and under
/// `faults`.
fn cell<L: Serve>(
    cfg: L::Config,
    sync: SyncStrategyId,
    faults: Option<&FaultSchedule>,
) -> Result<jmb_traffic::Backend<L>, ScenarioError> {
    let mut b = jmb_traffic::Backend::new(cfg).map_err(sim_error)?;
    // Before the faults: a switch re-measures, and that exchange is
    // construction, not part of the run.
    if sync != b.sync_strategy() {
        b.set_sync_strategy(sync);
    }
    if let Some(faults) = faults {
        b.net_mut().set_fault_schedule(faults.clone());
    }
    Ok(b)
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

/// The metrics every run reports, in canonical order.
fn metrics_table(tm: &TrafficMetrics) -> Vec<(String, f64)> {
    let row = |(name, get): &(&str, ReadMetric)| (name.to_string(), get(tm));
    COMMON_METRICS.iter().map(row).collect()
}

/// Opens a run's trace.
fn begin(trace: &mut Trace, m: &Manifest) {
    trace.enable();
    trace.emit(
        0.0,
        EventKind::ScenarioStarted {
            assertions: m.assertions.len(),
        },
    );
}

/// Closes a run that stopped for `cause` after `events` events: judges
/// `assertions` over the metrics and the trace up to `horizon`, records
/// the outcomes and the stop on the trace, and folds both into the
/// output. A limit stop trumps assertion results: the data is partial, so
/// pass/fail over it would be misleading either way.
fn conclude(
    (m, seed): (&Manifest, u64),
    trace: &mut Trace,
    assertions: &[Assertion],
    metrics: Vec<(String, f64)>,
    (cause, events): (StopCause, u64),
    horizon: f64,
) -> RunOutput {
    let outcomes = evaluate_all(assertions, &metrics, trace.events(), horizon);
    for o in &outcomes {
        let (index, passed) = (o.index, o.passed);
        trace.emit(horizon, EventKind::ScenarioAssertion { index, passed });
    }
    trace.emit(horizon, EventKind::ScenarioStopped { cause, events });
    let verdict = if cause != StopCause::Completed {
        Verdict::LimitExceeded
    } else if outcomes.iter().all(|o| o.passed) {
        Verdict::Pass
    } else {
        Verdict::AssertionFailed
    };
    RunOutput {
        report: ScenarioReport {
            name: m.name.clone(),
            seed,
            verdict,
            stop_cause: cause,
            events,
            assertions: outcomes,
            metrics,
            error: None,
        },
        trace_jsonl: trace.to_jsonl(),
    }
}

/// Runs a single-cell scenario over any backend. `mk(true)` must build a
/// fault-free twin of `mk(false)` (same topology, same seed) — used for
/// the `goodput_vs_clean` degrade-not-stall metric.
fn run_single<B, F>(
    m: &Manifest,
    seed: u64,
    traffic: &TrafficConfig,
    mk: F,
) -> Result<RunOutput, ScenarioError>
where
    B: TransmitBackend,
    F: Fn(bool) -> Result<B, ScenarioError>,
{
    let mut sim = TrafficSim::new(traffic.clone(), mk(false)?).map_err(sim_error)?;
    begin(&mut sim.trace, m);
    let bounded = sim.run_bounded(run_limits(m));

    let mut metrics = metrics_table(&bounded.metrics);
    if m.assertions
        .iter()
        .any(|a| matches!(a, Assertion::Metric { name, .. } if name == "goodput_vs_clean"))
    {
        // Reference run: same seed, same load, no faults, no outages.
        let clean_cfg = TrafficConfig {
            outages: Vec::new(),
            ..traffic.clone()
        };
        let mut clean_sim = TrafficSim::new(clean_cfg, mk(true)?).map_err(sim_error)?;
        let clean = clean_sim.run();
        let ratio = if clean.goodput_bps() > 0.0 {
            bounded.metrics.goodput_bps() / clean.goodput_bps()
        } else {
            1.0
        };
        metrics.push(("goodput_vs_clean".into(), ratio));
    }
    let stop = (bounded.cause, bounded.events);
    let horizon = bounded.metrics.elapsed_s;
    let run = (m, seed);
    Ok(conclude(
        run,
        &mut sim.trace,
        &m.assertions,
        metrics,
        stop,
        horizon,
    ))
}

/// Runs a city-grid scenario. Cells execute as whole epochs, so the only
/// honourable limit is `max_sim_time_s`, enforced as a precheck: a grid
/// whose epoch span exceeds the budget reports `limit-exceeded` without
/// running at all, its assertions unjudged.
fn run_city(m: &Manifest, seed: u64, cfg: CityConfig) -> Result<RunOutput, ScenarioError> {
    let span_s = cfg.epochs as f64 * cfg.epoch_span_s();
    if m.limits
        .max_sim_time_s
        .is_some_and(|budget| span_s > budget)
    {
        // The grid cannot be stopped mid-epoch; refuse up front.
        let mut trace = Trace::new();
        begin(&mut trace, m);
        let stop = (StopCause::MaxSimTime, 0);
        return Ok(conclude((m, seed), &mut trace, &[], Vec::new(), stop, 0.0));
    }

    let mut city = City::new(cfg).map_err(sim_error)?;
    begin(&mut city.trace, m);
    let report = city.run().map_err(sim_error)?;

    let mut metrics = metrics_table(&report.pooled);
    metrics.push((
        "area_capacity_mbps_km2".into(),
        report.area_capacity_bps_per_km2() / 1e6,
    ));
    metrics.push(("mean_inr_db".into(), report.mean_inr_db()));
    let stop = (StopCause::Completed, city.trace.events().len() as u64);
    let run = (m, seed);
    Ok(conclude(
        run,
        &mut city.trace,
        &m.assertions,
        metrics,
        stop,
        span_s,
    ))
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
