//! Shared row-generation pipelines for the sweep binaries.
//!
//! `traffic_sweep`, `robustness_sweep`, and `city_sweep` each produce a
//! CSV whose bytes are part of the repo's determinism contract (the CI
//! jobs byte-compare them across runs and `--threads` settings, and the
//! `sync_equivalence` test pins them against golden fixtures). Keeping the
//! row generation here — called by both the binaries and the tests — means
//! the fixture comparison exercises the exact pipeline the binaries ship,
//! not a parallel reimplementation that could drift.

use crate::FigOpts;
use jmb_city::{City, CityConfig, CityReport, Reuse};
use jmb_core::error::JmbError;
use jmb_core::experiment::{misalignment_samples_with, parallel_map, SchedulePolicy, SweepConfig};
use jmb_core::fastnet::FastConfig;
use jmb_core::sync::SyncStrategyId;
use jmb_obs::JsonLinesSink;
use jmb_sim::{FaultConfig, FaultSchedule};
use jmb_traffic::{ApOutage, ClientLoad, FastBackend, TrafficConfig, TrafficMetrics, TrafficSim};
use std::path::Path;

const PACKET_BYTES: usize = 1500;
const SNR_DB: f64 = 30.0;
/// 2500 pps × 1500 B = 30 Mb/s per client: saturating, so goodput measures
/// capacity and any control-plane cliff would be visible.
const SATURATING_PPS: f64 = 2500.0;
const ROBUSTNESS_APS: usize = 4;

/// The inputs every sweep pipeline shares, lifted out of [`FigOpts`] so
/// tests can drive the pipelines without a CLI.
#[derive(Debug, Clone, Copy)]
pub struct SweepSettings {
    /// Master seed.
    pub seed: u64,
    /// Quick (smoke) dimensions instead of the full figure.
    pub quick: bool,
    /// Worker-thread override (`None` = all cores).
    pub threads: Option<usize>,
    /// Claim-order policy for `parallel_map` — perturbed by `det_harness`,
    /// `Natural` everywhere else.
    pub schedule: SchedulePolicy,
}

impl SweepSettings {
    /// Settings carried by parsed CLI options.
    pub fn from_opts(opts: &FigOpts) -> Self {
        SweepSettings {
            seed: opts.seed,
            quick: opts.quick,
            threads: opts.threads,
            schedule: SchedulePolicy::Natural,
        }
    }

    fn duration_s(&self) -> f64 {
        if self.quick {
            0.2
        } else {
            0.8
        }
    }

    fn n_topo(&self) -> usize {
        if self.quick {
            3
        } else {
            8
        }
    }

    fn sweep(&self, points: usize) -> SweepConfig {
        let mut s = SweepConfig {
            n_topologies: points,
            seed: self.seed,
            schedule: self.schedule,
            ..Default::default()
        };
        if let Some(t) = self.threads {
            s.parallelism = t;
        }
        s
    }
}

/// Renders CSV content exactly as [`jmb_core::experiment::write_csv`]
/// would write it (header line, then one line per row).
pub fn csv_text(header: &str, rows: &[Vec<String>]) -> String {
    let mut out = String::with_capacity(rows.len() * 64);
    out.push_str(header);
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Runs one traffic simulation: `n` APs serving `n` clients at
/// `rate_pps` Poisson arrivals each, with the given outage schedule.
fn traffic_point(
    n_aps: usize,
    rate_pps: f64,
    duration_s: f64,
    outages: Vec<ApOutage>,
    seed: u64,
) -> TrafficMetrics {
    let cfg = FastConfig::default_with(n_aps, n_aps, vec![SNR_DB; n_aps], seed);
    let backend = FastBackend::new(cfg).expect("backend");
    let loads = vec![ClientLoad::poisson(rate_pps, PACKET_BYTES); n_aps];
    let mut tcfg = TrafficConfig::default_with(loads, seed);
    tcfg.duration_s = duration_s;
    tcfg.drain_timeout_s = duration_s * 0.5;
    tcfg.outages = outages;
    TrafficSim::new(tcfg, backend).expect("sim").run()
}

/// The lead-AP outage window of the failover section.
fn failover_outage(duration_s: f64) -> ApOutage {
    ApOutage {
        ap: 0,
        down_at_s: duration_s / 3.0,
        up_at_s: duration_s * 2.0 / 3.0,
    }
}

/// Everything the `traffic_sweep` binary prints and writes.
pub struct TrafficSweep {
    /// Per-AP-count merged metrics of the saturating-load section.
    pub scaling: Vec<(usize, TrafficMetrics)>,
    /// Per-rate merged metrics of the offered-load ramp.
    pub ramp: Vec<(f64, TrafficMetrics)>,
    /// The fault-free half of the failover section.
    pub healthy: TrafficMetrics,
    /// The lead-AP-outage half of the failover section.
    pub failover: TrafficMetrics,
    /// The CSV header.
    pub header: String,
    /// The CSV rows, in file order.
    pub rows: Vec<Vec<String>>,
}

/// The full `traffic_sweep` pipeline (all three sections, CSV rows
/// included) — see the binary's module docs for what each section shows.
pub fn traffic_sweep(set: &SweepSettings) -> TrafficSweep {
    let duration_s = set.duration_s();
    let n_topo = set.n_topo();
    let mut rows: Vec<Vec<String>> = Vec::new();

    // --- Section 1: goodput vs AP count under saturating load. ---
    let ap_counts: Vec<usize> = (1..=10).collect();
    let flat = parallel_map(&set.sweep(ap_counts.len() * n_topo), |i| {
        traffic_point(
            ap_counts[i / n_topo],
            SATURATING_PPS,
            duration_s,
            Vec::new(),
            set.seed + (i % n_topo) as u64,
        )
    });
    let merged: Vec<TrafficMetrics> = flat.chunks(n_topo).map(TrafficMetrics::merge).collect();
    let scaling: Vec<(usize, TrafficMetrics)> = ap_counts.iter().copied().zip(merged).collect();
    for (n, m) in &scaling {
        let mut row = vec!["scaling".to_string(), format!("{n}")];
        row.extend(m.csv_row());
        rows.push(row);
    }

    // --- Section 2: offered-load ramp at 4 APs / 4 clients. ---
    let rates: Vec<f64> = if set.quick {
        vec![200.0, 800.0, 3200.0]
    } else {
        vec![100.0, 200.0, 400.0, 800.0, 1600.0, 2400.0, 3200.0]
    };
    let flat = parallel_map(&set.sweep(rates.len() * n_topo), |i| {
        traffic_point(
            4,
            rates[i / n_topo],
            duration_s,
            Vec::new(),
            set.seed + (i % n_topo) as u64,
        )
    });
    let merged: Vec<TrafficMetrics> = flat.chunks(n_topo).map(TrafficMetrics::merge).collect();
    let ramp: Vec<(f64, TrafficMetrics)> = rates.iter().copied().zip(merged).collect();
    for (_, m) in &ramp {
        let mut row = vec!["load".to_string(), "4".to_string()];
        row.extend(m.csv_row());
        rows.push(row);
    }

    // --- Section 3: lead-AP failover, middle third of the run. ---
    let outage = failover_outage(duration_s);
    let flat = parallel_map(&set.sweep(2 * n_topo), |i| {
        let outages = if i / n_topo == 0 {
            Vec::new()
        } else {
            vec![outage]
        };
        traffic_point(
            4,
            800.0,
            duration_s,
            outages,
            set.seed + (i % n_topo) as u64,
        )
    });
    let healthy = TrafficMetrics::merge(&flat[..n_topo]);
    let failover = TrafficMetrics::merge(&flat[n_topo..]);
    for (label, m) in [("healthy", &healthy), ("failover", &failover)] {
        let mut row = vec![label.to_string(), "4".to_string()];
        row.extend(m.csv_row());
        rows.push(row);
    }

    TrafficSweep {
        scaling,
        ramp,
        healthy,
        failover,
        header: format!("section,n_aps,{}", TrafficMetrics::csv_header()),
        rows,
    }
}

/// Dedicated re-run of the failover cell (seed = master seed) with a
/// JSON-lines trace attached, so the sweep rows stay byte-identical
/// whether or not tracing is on.
pub fn traffic_failover_trace(set: &SweepSettings, path: &Path) {
    let duration_s = set.duration_s();
    let cfg = FastConfig::default_with(4, 4, vec![SNR_DB; 4], set.seed);
    let backend = FastBackend::new(cfg).expect("backend");
    let loads = vec![ClientLoad::poisson(800.0, PACKET_BYTES); 4];
    let mut tcfg = TrafficConfig::default_with(loads, set.seed);
    tcfg.duration_s = duration_s;
    tcfg.drain_timeout_s = duration_s * 0.5;
    tcfg.outages = vec![failover_outage(duration_s)];
    let mut sim = TrafficSim::new(tcfg, backend).expect("sim");
    sim.trace.enable();
    sim.trace.set_buffering(false);
    sim.trace
        .attach_sink(JsonLinesSink::create(path).expect("open --trace-out file"));
    sim.run();
    sim.trace.flush();
}

/// One robustness traffic simulation with the given control-fault schedule
/// installed after the (always clean) initial measurement.
fn robustness_point(faults: FaultSchedule, duration_s: f64, seed: u64) -> TrafficMetrics {
    let cfg = FastConfig::default_with(
        ROBUSTNESS_APS,
        ROBUSTNESS_APS,
        vec![SNR_DB; ROBUSTNESS_APS],
        seed,
    );
    let mut backend = FastBackend::new(cfg).expect("backend");
    backend.net_mut().set_fault_schedule(faults);
    let loads = vec![ClientLoad::poisson(SATURATING_PPS, PACKET_BYTES); ROBUSTNESS_APS];
    let mut tcfg = TrafficConfig::default_with(loads, seed);
    tcfg.duration_s = duration_s;
    tcfg.drain_timeout_s = duration_s * 0.5;
    TrafficSim::new(tcfg, backend).expect("sim").run()
}

fn fault_with(sync_loss: f64, meas_loss: f64) -> FaultConfig {
    FaultConfig::builder()
        .sync_loss_chance(sync_loss)
        .meas_loss_chance(meas_loss)
        .build()
        .expect("ramp constants are in range")
}

/// The storm schedule of the robustness sweep's third section: one slave
/// misses every sync header for the middle third of the run.
pub fn robustness_storm(duration_s: f64) -> FaultSchedule {
    FaultSchedule::none()
        .with_window(
            duration_s / 3.0,
            duration_s * 2.0 / 3.0,
            FaultConfig::builder()
                .per_slave_sync_loss(1, 1.0)
                .build()
                .expect("valid"),
        )
        .expect("valid window")
}

/// Everything the `robustness_sweep` binary prints and writes (full mode).
pub struct RobustnessSweep {
    /// Per-loss merged metrics of the sync-header loss ramp.
    pub sync: Vec<(f64, TrafficMetrics)>,
    /// Per-loss merged metrics of the measurement-frame loss ramp.
    pub meas: Vec<(f64, TrafficMetrics)>,
    /// The storm section's merged metrics.
    pub storm: TrafficMetrics,
    /// The CSV header.
    pub header: String,
    /// The CSV rows, in file order.
    pub rows: Vec<Vec<String>>,
}

/// The full `robustness_sweep` pipeline (sync ramp, meas ramp, storm).
pub fn robustness_sweep(set: &SweepSettings) -> RobustnessSweep {
    let duration_s = set.duration_s();
    let n_topo = set.n_topo();
    let losses: Vec<f64> = vec![0.0, 0.02, 0.05, 0.1, 0.2, 0.3];
    let mut rows: Vec<Vec<String>> = Vec::new();

    // --- Section 1: sync-header loss ramp. ---
    let flat = parallel_map(&set.sweep(losses.len() * n_topo), |i| {
        robustness_point(
            FaultSchedule::constant(fault_with(losses[i / n_topo], 0.0)),
            duration_s,
            set.seed + (i % n_topo) as u64,
        )
    });
    let merged: Vec<TrafficMetrics> = flat.chunks(n_topo).map(TrafficMetrics::merge).collect();
    let sync: Vec<(f64, TrafficMetrics)> = losses.iter().copied().zip(merged).collect();
    for (l, m) in &sync {
        let mut row = vec!["sync".to_string(), format!("{l:.2}")];
        row.extend(m.csv_row());
        rows.push(row);
    }

    // --- Section 2: measurement-frame loss ramp. ---
    let flat = parallel_map(&set.sweep(losses.len() * n_topo), |i| {
        robustness_point(
            FaultSchedule::constant(fault_with(0.0, losses[i / n_topo])),
            duration_s,
            set.seed + (i % n_topo) as u64,
        )
    });
    let merged: Vec<TrafficMetrics> = flat.chunks(n_topo).map(TrafficMetrics::merge).collect();
    let meas: Vec<(f64, TrafficMetrics)> = losses.iter().copied().zip(merged).collect();
    for (l, m) in &meas {
        let mut row = vec!["meas".to_string(), format!("{l:.2}")];
        row.extend(m.csv_row());
        rows.push(row);
    }

    // --- Section 3: total sync loss on one slave, middle third. ---
    let storm_sched = robustness_storm(duration_s);
    let runs = parallel_map(&set.sweep(n_topo), |i| {
        robustness_point(storm_sched.clone(), duration_s, set.seed + i as u64)
    });
    let storm = TrafficMetrics::merge(&runs);
    let mut row = vec!["storm".to_string(), "1.00".to_string()];
    row.extend(storm.csv_row());
    rows.push(row);

    RobustnessSweep {
        sync,
        meas,
        storm,
        header: format!("section,loss,{}", TrafficMetrics::csv_header()),
        rows,
    }
}

/// The single-cell robustness mode the CI fault matrix drives: one pooled
/// operating point at the given loss probabilities. Returns the merged
/// metrics and the one-row CSV (header, rows).
pub fn robustness_cell(
    set: &SweepSettings,
    fault: FaultConfig,
) -> (TrafficMetrics, String, Vec<Vec<String>>) {
    let duration_s = set.duration_s();
    let runs = parallel_map(&set.sweep(set.n_topo()), |i| {
        robustness_point(
            FaultSchedule::constant(fault.clone()),
            duration_s,
            set.seed + i as u64,
        )
    });
    let m = TrafficMetrics::merge(&runs);
    let mut row = vec!["cell".to_string()];
    row.extend(m.csv_row());
    let header = format!("section,{}", TrafficMetrics::csv_header());
    (m, header, vec![row])
}

/// Dedicated re-run of the storm cell (seed = master seed) with a
/// JSON-lines trace attached.
pub fn robustness_storm_trace(set: &SweepSettings, path: &Path) {
    let duration_s = set.duration_s();
    let cfg = FastConfig::default_with(
        ROBUSTNESS_APS,
        ROBUSTNESS_APS,
        vec![SNR_DB; ROBUSTNESS_APS],
        set.seed,
    );
    let mut backend = FastBackend::new(cfg).expect("backend");
    backend
        .net_mut()
        .set_fault_schedule(robustness_storm(duration_s));
    let loads = vec![ClientLoad::poisson(SATURATING_PPS, PACKET_BYTES); ROBUSTNESS_APS];
    let mut tcfg = TrafficConfig::default_with(loads, set.seed);
    tcfg.duration_s = duration_s;
    tcfg.drain_timeout_s = duration_s * 0.5;
    let mut sim = TrafficSim::new(tcfg, backend).expect("sim");
    sim.trace.enable();
    sim.trace.set_buffering(false);
    sim.trace
        .attach_sink(JsonLinesSink::create(path).expect("open --trace-out file"));
    sim.run();
    sim.trace.flush();
}

/// One shootout traffic run: `n_aps` APs serving `n_aps` clients at
/// saturating load under the given synchronization strategy and fault
/// schedule. Both the PHY config and the traffic config carry the
/// strategy, so no mid-run switch (and no `SyncStrategySwitched` event)
/// perturbs the rows.
fn shootout_point(
    strategy: SyncStrategyId,
    n_aps: usize,
    faults: FaultSchedule,
    duration_s: f64,
    seed: u64,
) -> TrafficMetrics {
    let mut cfg = FastConfig::default_with(n_aps, n_aps, vec![SNR_DB; n_aps], seed);
    cfg.sync = strategy;
    let mut backend = FastBackend::new(cfg).expect("backend");
    backend.net_mut().set_fault_schedule(faults);
    let loads = vec![ClientLoad::poisson(SATURATING_PPS, PACKET_BYTES); n_aps];
    let mut tcfg = TrafficConfig::default_with(loads, seed);
    tcfg.sync_strategy = strategy;
    tcfg.duration_s = duration_s;
    tcfg.drain_timeout_s = duration_s * 0.5;
    TrafficSim::new(tcfg, backend).expect("sim").run()
}

/// Percentile of an already-sorted sample set (`p` in `[0, 1]`).
fn pct(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Everything the `sync_shootout` binary prints and writes: per-strategy
/// phase-error CDF samples (sample-level misalignment probe), storm-cell
/// traffic metrics (control-overhead fraction comes from
/// `control_airtime_s / airtime_s`), and throughput-vs-APs scaling under
/// the same storm schedule.
pub struct SyncShootout {
    /// Sorted |misalignment| samples (radians) per strategy, in
    /// [`SyncStrategyId::ALL`] order.
    pub phase: Vec<(SyncStrategyId, Vec<f64>)>,
    /// Merged storm-cell metrics per strategy.
    pub storm: Vec<(SyncStrategyId, TrafficMetrics)>,
    /// Per-strategy throughput scaling: merged metrics per AP count.
    pub scaling: Vec<(SyncStrategyId, Vec<(usize, TrafficMetrics)>)>,
    /// Header of the traffic CSV (`sync_shootout.csv`).
    pub header: String,
    /// Rows of the traffic CSV, in file order.
    pub rows: Vec<Vec<String>>,
    /// Header of the phase-error CSV (`sync_shootout_phase.csv`).
    pub phase_header: String,
    /// Rows of the phase-error CSV.
    pub phase_rows: Vec<Vec<String>>,
}

/// The full `sync_shootout` pipeline: every strategy through the same
/// probes and storms, rows byte-identical across runs and `--threads`.
pub fn sync_shootout(set: &SweepSettings) -> Result<SyncShootout, JmbError> {
    let duration_s = set.duration_s();
    let n_topo = set.n_topo();
    let strategies = SyncStrategyId::ALL;

    // --- Section 1: phase-error CDF from the sample-level probe. ---
    let (probe_runs, probe_rounds) = if set.quick { (4, 30) } else { (20, 60) };
    let mut phase: Vec<(SyncStrategyId, Vec<f64>)> = Vec::new();
    let mut phase_rows: Vec<Vec<String>> = Vec::new();
    for &strategy in &strategies {
        let mut samples = misalignment_samples_with(probe_runs, probe_rounds, set.seed, strategy)?;
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite misalignment"));
        phase_rows.push(vec![
            strategy.token().to_string(),
            format!("{:.6}", pct(&samples, 0.5)),
            format!("{:.6}", pct(&samples, 0.9)),
            format!("{:.6}", pct(&samples, 0.99)),
            format!("{:.6}", samples.last().copied().unwrap_or(0.0)),
            samples.len().to_string(),
        ]);
        phase.push((strategy, samples));
    }

    // --- Section 2: storm cell per strategy (control overhead visible). ---
    let storm_sched = robustness_storm(duration_s);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let flat = parallel_map(&set.sweep(strategies.len() * n_topo), |i| {
        shootout_point(
            strategies[i / n_topo],
            ROBUSTNESS_APS,
            storm_sched.clone(),
            duration_s,
            set.seed + (i % n_topo) as u64,
        )
    });
    let storm: Vec<(SyncStrategyId, TrafficMetrics)> = strategies
        .iter()
        .copied()
        .zip(flat.chunks(n_topo).map(TrafficMetrics::merge))
        .collect();
    for (s, m) in &storm {
        let mut row = vec![
            "storm".to_string(),
            s.token().to_string(),
            ROBUSTNESS_APS.to_string(),
        ];
        row.extend(m.csv_row());
        rows.push(row);
    }

    // --- Section 3: throughput vs AP count per strategy, same storm. ---
    let ap_counts: Vec<usize> = if set.quick {
        vec![2, 4, 6]
    } else {
        vec![2, 4, 6, 8, 10]
    };
    let per_strategy = ap_counts.len() * n_topo;
    let flat = parallel_map(&set.sweep(strategies.len() * per_strategy), |i| {
        let strategy = strategies[i / per_strategy];
        let j = i % per_strategy;
        shootout_point(
            strategy,
            ap_counts[j / n_topo],
            storm_sched.clone(),
            duration_s,
            set.seed + (j % n_topo) as u64,
        )
    });
    let mut scaling: Vec<(SyncStrategyId, Vec<(usize, TrafficMetrics)>)> = Vec::new();
    for (si, &strategy) in strategies.iter().enumerate() {
        let base = si * per_strategy;
        let merged: Vec<(usize, TrafficMetrics)> = ap_counts
            .iter()
            .copied()
            .zip(
                flat[base..base + per_strategy]
                    .chunks(n_topo)
                    .map(TrafficMetrics::merge),
            )
            .collect();
        for (n, m) in &merged {
            let mut row = vec![
                "scaling".to_string(),
                strategy.token().to_string(),
                n.to_string(),
            ];
            row.extend(m.csv_row());
            rows.push(row);
        }
        scaling.push((strategy, merged));
    }

    Ok(SyncShootout {
        phase,
        storm,
        scaling,
        header: format!("section,strategy,n_aps,{}", TrafficMetrics::csv_header()),
        rows,
        phase_header: "strategy,p50_rad,p90_rad,p99_rad,max_rad,n".to_string(),
        phase_rows,
    })
}

/// The city configuration for one reuse point of the sweep.
pub fn city_config(quick: bool, reuse: Reuse, seed: u64, threads: Option<usize>) -> CityConfig {
    let mut cfg = if quick {
        // 8×8 grid of small cells: 128 APs, 512 clients.
        let mut c = CityConfig::default_with(8, 8, reuse, seed);
        c.aps_per_cell = 2;
        c.clients_per_cell = 8;
        c.duration_s = 0.05;
        c.rate_pps = 200.0;
        c
    } else {
        // 16×16 grid: 1024 APs, 102,400 clients. 10 pps × 700 B × 400
        // clients ≈ 22 Mb/s of offered load per cell — near the clean-cell
        // capacity, so the interference epochs bite without drowning the
        // run in retry work.
        let mut c = CityConfig::default_with(16, 16, reuse, seed);
        c.aps_per_cell = 4;
        c.clients_per_cell = 400;
        c.duration_s = 0.1;
        c.rate_pps = 10.0;
        c
    };
    if let Some(t) = threads {
        cfg.threads = t;
    } else {
        cfg.threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    }
    cfg
}

/// One reuse point of the city sweep: builds and runs the city (tracing
/// the city-level event feed to `trace_out` if given), returns the report
/// and appends this point's CSV rows to `rows`.
pub fn city_point(
    set: &SweepSettings,
    reuse: Reuse,
    trace_out: Option<&Path>,
    rows: &mut Vec<Vec<String>>,
) -> Result<CityReport, JmbError> {
    let mut cfg = city_config(set.quick, reuse, set.seed, set.threads);
    cfg.schedule = set.schedule;
    let mut city = City::new(cfg)?;
    // Events are emitted outside the cell shards, so tracing cannot
    // perturb the sweep rows.
    if let Some(path) = trace_out {
        city.trace.enable();
        city.trace.set_buffering(false);
        city.trace
            .attach_sink(JsonLinesSink::create(path).expect("open --trace-out file"));
    }
    let report = city.run()?;
    if trace_out.is_some() {
        city.trace.flush();
    }
    for c in &report.cells {
        let mut row = vec![
            reuse.factor().to_string(),
            c.cell.to_string(),
            c.color.to_string(),
            format!("{:.6}", c.inr_db),
        ];
        row.extend(c.metrics.csv_row());
        rows.push(row);
    }
    let mut pooled = vec![
        reuse.factor().to_string(),
        "all".to_string(),
        "-".to_string(),
        format!("{:.6}", report.mean_inr_db()),
    ];
    pooled.extend(report.pooled.csv_row());
    rows.push(pooled);
    Ok(report)
}

/// The CSV header of the city sweep.
pub fn city_header() -> String {
    format!("reuse,cell,color,inr_db,{}", TrafficMetrics::csv_header())
}
