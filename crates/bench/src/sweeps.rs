//! Shared row-generation pipelines for the sweep experiments.
//!
//! `traffic_sweep`, `robustness_sweep`, and `city_sweep` each produce a
//! CSV whose bytes are part of the repo's determinism contract (the CI
//! jobs byte-compare them across runs and `--threads` settings, and the
//! `sync_equivalence` test pins them against golden fixtures). Keeping the
//! row generation here — called by both the driver and the tests — means
//! the fixture comparison exercises the exact pipeline `jmb-bench` ships,
//! not a parallel reimplementation that could drift.

use jmb_city::{City, CityConfig, CityReport, Reuse};
use jmb_core::error::JmbError;
use jmb_core::experiment::{misalignment_samples, parallel_map, SchedulePolicy, SweepConfig};
use jmb_core::fastnet::FastConfig;
use jmb_core::sync::SyncStrategyId;
use jmb_obs::JsonLinesSink;
use jmb_sim::{FaultConfig, FaultSchedule};
use jmb_traffic::metrics::percentile;
use jmb_traffic::{ApOutage, ClientLoad, FastBackend, TrafficConfig, TrafficMetrics, TrafficSim};
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

const PACKET_BYTES: usize = 1500;
const SNR_DB: f64 = 30.0;
/// 2500 pps × 1500 B = 30 Mb/s per client: saturating, so goodput measures
/// capacity and any control-plane cliff would be visible.
const SATURATING_PPS: f64 = 2500.0;
const ROBUSTNESS_APS: usize = 4;

/// The inputs every sweep pipeline shares, embedded in [`crate::Opts`] and
/// constructible on their own so tests can drive the pipelines without a
/// CLI.
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

    /// The `parallel_map` config for `points` work items under these
    /// settings.
    pub(crate) fn sweep(&self, points: usize) -> SweepConfig {
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

/// Renders CSV content: the header line, then one line per row.
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

/// Writes [`csv_text`] to `path`, creating its directory if need be.
pub(crate) fn write_csv(path: &Path, header: &str, rows: &[Vec<String>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, csv_text(header, rows))
}

/// Opens the JSON-lines sink behind a `--trace-out` path, creating its
/// directory if need be.
pub fn trace_sink(path: &Path) -> std::io::Result<JsonLinesSink<BufWriter<File>>> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    JsonLinesSink::create(path)
}

/// Runs `sim` with a JSON-lines trace of every event streamed to `path`.
fn run_traced(mut sim: TrafficSim<FastBackend>, path: &Path) -> std::io::Result<()> {
    sim.trace.enable();
    sim.trace.set_buffering(false);
    sim.trace.attach_sink(trace_sink(path)?);
    sim.run();
    sim.trace.flush();
    Ok(())
}

/// One cell of the traffic sweeps: `n_aps` APs serving as many clients at
/// `rate_pps` Poisson arrivals each, under a sync strategy, a control-fault
/// schedule and an AP-outage schedule.
struct Cell {
    n_aps: usize,
    rate_pps: f64,
    strategy: SyncStrategyId,
    faults: FaultSchedule,
    outages: Vec<ApOutage>,
}

impl Cell {
    /// A fault-free cell under the paper's lead/slave sync.
    fn new(n_aps: usize, rate_pps: f64) -> Self {
        Cell {
            n_aps,
            rate_pps,
            strategy: SyncStrategyId::default(),
            faults: FaultSchedule::none(),
            outages: Vec::new(),
        }
    }

    /// The robustness cell: 4 APs at saturating load under `faults`,
    /// installed after the (always clean) initial measurement.
    fn faulted(faults: FaultSchedule) -> Self {
        Cell {
            faults,
            ..Cell::new(ROBUSTNESS_APS, SATURATING_PPS)
        }
    }

    /// The simulation, ready to run. The PHY is built on the strategy, so
    /// no switch (and no `SyncStrategySwitched` event) perturbs the rows.
    fn sim(self, duration_s: f64, seed: u64) -> TrafficSim<FastBackend> {
        let n = self.n_aps;
        let mut cfg = FastConfig::default_with(n, n, vec![SNR_DB; n], seed);
        cfg.sync = self.strategy;
        let mut backend = FastBackend::new(cfg).expect("backend");
        backend.net_mut().set_fault_schedule(self.faults);
        let loads = vec![ClientLoad::poisson(self.rate_pps, PACKET_BYTES); n];
        let mut tcfg = TrafficConfig::default_with(loads, seed);
        tcfg.duration_s = duration_s;
        tcfg.drain_timeout_s = duration_s * 0.5;
        tcfg.outages = self.outages;
        TrafficSim::new(tcfg, backend).expect("sim")
    }
}

/// Runs `n_points` operating points × `n_topo` seeds (`cell(point)` on
/// seeds `seed..seed + n_topo`) in one `parallel_map` and merges the
/// metrics per point.
fn merged_points(
    set: &SweepSettings,
    n_points: usize,
    cell: impl Fn(usize) -> Cell + Sync,
) -> Vec<TrafficMetrics> {
    let (duration_s, n_topo) = (set.duration_s(), set.n_topo());
    let flat = parallel_map(&set.sweep(n_points * n_topo), |i| {
        let seed = set.seed.wrapping_add((i % n_topo) as u64);
        cell(i / n_topo).sim(duration_s, seed).run()
    });
    flat.chunks(n_topo).map(TrafficMetrics::merge).collect()
}

/// One CSV row: the `labels` columns, then the metrics columns.
fn metrics_row(labels: &[impl ToString], m: &TrafficMetrics) -> Vec<String> {
    let mut row: Vec<String> = labels.iter().map(|l| l.to_string()).collect();
    row.extend(m.csv_row());
    row
}

/// The lead-AP outage window of the failover section.
fn failover_cell(duration_s: f64) -> Cell {
    Cell {
        outages: vec![ApOutage {
            ap: 0,
            down_at_s: duration_s / 3.0,
            up_at_s: duration_s * 2.0 / 3.0,
        }],
        ..Cell::new(4, 800.0)
    }
}

/// Everything the `traffic_sweep` experiment prints and writes.
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
/// included) — see the experiment's docs for what each section shows.
pub fn traffic_sweep(set: &SweepSettings) -> TrafficSweep {
    let mut rows: Vec<Vec<String>> = Vec::new();

    // --- Section 1: goodput vs AP count under saturating load. ---
    let ap_counts: Vec<usize> = (1..=10).collect();
    let merged = merged_points(set, ap_counts.len(), |p| {
        Cell::new(ap_counts[p], SATURATING_PPS)
    });
    let scaling: Vec<(usize, TrafficMetrics)> = ap_counts.iter().copied().zip(merged).collect();
    for (n, m) in &scaling {
        rows.push(metrics_row(&["scaling", &n.to_string()], m));
    }

    // --- Section 2: offered-load ramp at 4 APs / 4 clients. ---
    let rates: Vec<f64> = if set.quick {
        vec![200.0, 800.0, 3200.0]
    } else {
        vec![100.0, 200.0, 400.0, 800.0, 1600.0, 2400.0, 3200.0]
    };
    let merged = merged_points(set, rates.len(), |p| Cell::new(4, rates[p]));
    let ramp: Vec<(f64, TrafficMetrics)> = rates.iter().copied().zip(merged).collect();
    for (_, m) in &ramp {
        rows.push(metrics_row(&["load", "4"], m));
    }

    // --- Section 3: lead-AP failover, middle third of the run. ---
    let mut halves = merged_points(set, 2, |p| match p {
        0 => Cell::new(4, 800.0),
        _ => failover_cell(set.duration_s()),
    });
    let failover = halves.pop().expect("two points");
    let healthy = halves.pop().expect("two points");
    for (label, m) in [("healthy", &healthy), ("failover", &failover)] {
        rows.push(metrics_row(&[label, "4"], m));
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
pub fn traffic_failover_trace(set: &SweepSettings, path: &Path) -> std::io::Result<()> {
    let duration_s = set.duration_s();
    run_traced(failover_cell(duration_s).sim(duration_s, set.seed), path)
}

fn fault_with(sync_loss: f64, meas_loss: f64) -> FaultSchedule {
    let fault = FaultConfig::builder()
        .sync_loss_chance(sync_loss)
        .meas_loss_chance(meas_loss)
        .build();
    FaultSchedule::constant(fault.expect("ramp constants are in range"))
}

/// The storm schedule of the robustness sweep's third section: one slave
/// misses every sync header for the middle third of the run.
fn robustness_storm(duration_s: f64) -> FaultSchedule {
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

/// Everything the `robustness_sweep` experiment prints and writes (full mode).
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
    let losses = [0.0, 0.02, 0.05, 0.1, 0.2, 0.3];
    let mut rows: Vec<Vec<String>> = Vec::new();

    // --- Sections 1 and 2: the sync-header and measurement-frame loss
    // ramps. ---
    let mut ramp = |section: &str, faults: fn(f64) -> FaultSchedule| {
        let merged = merged_points(set, losses.len(), |p| Cell::faulted(faults(losses[p])));
        let ramp: Vec<(f64, TrafficMetrics)> = losses.iter().copied().zip(merged).collect();
        for (l, m) in &ramp {
            rows.push(metrics_row(&[section, &format!("{l:.2}")], m));
        }
        ramp
    };
    let sync = ramp("sync", |loss| fault_with(loss, 0.0));
    let meas = ramp("meas", |loss| fault_with(0.0, loss));

    // --- Section 3: total sync loss on one slave, middle third. ---
    let storm_sched = robustness_storm(set.duration_s());
    let mut storm = merged_points(set, 1, |_| Cell::faulted(storm_sched.clone()));
    let storm = storm.pop().expect("one point");
    rows.push(metrics_row(&["storm", "1.00"], &storm));

    RobustnessSweep {
        sync,
        meas,
        storm,
        header: format!("section,loss,{}", TrafficMetrics::csv_header()),
        rows,
    }
}

/// Dedicated re-run of the storm cell (seed = master seed) with a
/// JSON-lines trace attached.
pub fn robustness_storm_trace(set: &SweepSettings, path: &Path) -> std::io::Result<()> {
    let duration_s = set.duration_s();
    let cell = Cell::faulted(robustness_storm(duration_s));
    run_traced(cell.sim(duration_s, set.seed), path)
}

/// Everything the `sync_shootout` experiment prints and writes: per-strategy
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
pub(crate) fn sync_shootout(set: &SweepSettings) -> Result<SyncShootout, JmbError> {
    let strategies = SyncStrategyId::ALL;

    // --- Section 1: phase-error CDF from the sample-level probe. ---
    let (probe_runs, probe_rounds) = if set.quick { (4, 30) } else { (20, 60) };
    let mut phase: Vec<(SyncStrategyId, Vec<f64>)> = Vec::new();
    let mut phase_rows: Vec<Vec<String>> = Vec::new();
    for &strategy in &strategies {
        let mut samples = misalignment_samples(probe_runs, probe_rounds, set.seed, strategy)?;
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite misalignment"));
        phase_rows.push(vec![
            strategy.token().to_string(),
            format!("{:.6}", percentile(&samples, 0.5)),
            format!("{:.6}", percentile(&samples, 0.9)),
            format!("{:.6}", percentile(&samples, 0.99)),
            format!("{:.6}", samples.last().copied().unwrap_or(0.0)),
            samples.len().to_string(),
        ]);
        phase.push((strategy, samples));
    }

    // --- Section 2: storm cell per strategy (control overhead visible). ---
    let storm_sched = robustness_storm(set.duration_s());
    let stormed = |strategy: SyncStrategyId, n_aps: usize| Cell {
        strategy,
        faults: storm_sched.clone(),
        ..Cell::new(n_aps, SATURATING_PPS)
    };
    let mut rows: Vec<Vec<String>> = Vec::new();
    let merged = merged_points(set, strategies.len(), |p| {
        stormed(strategies[p], ROBUSTNESS_APS)
    });
    let storm: Vec<(SyncStrategyId, TrafficMetrics)> =
        strategies.iter().copied().zip(merged).collect();
    for (s, m) in &storm {
        let labels = ["storm", s.token(), &ROBUSTNESS_APS.to_string()];
        rows.push(metrics_row(&labels, m));
    }

    // --- Section 3: throughput vs AP count per strategy, same storm. ---
    let ap_counts: Vec<usize> = if set.quick {
        vec![2, 4, 6]
    } else {
        vec![2, 4, 6, 8, 10]
    };
    let n_counts = ap_counts.len();
    let merged = merged_points(set, strategies.len() * n_counts, |p| {
        stormed(strategies[p / n_counts], ap_counts[p % n_counts])
    });
    let mut merged = merged.into_iter();
    let mut scaling: Vec<(SyncStrategyId, Vec<(usize, TrafficMetrics)>)> = Vec::new();
    for &strategy in &strategies {
        // `zip` asks `ap_counts` first, so it takes exactly this strategy's points.
        let series: Vec<(usize, TrafficMetrics)> =
            ap_counts.iter().copied().zip(merged.by_ref()).collect();
        for (n, m) in &series {
            rows.push(metrics_row(
                &["scaling", strategy.token(), &n.to_string()],
                m,
            ));
        }
        scaling.push((strategy, series));
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
#[expect(
    clippy::disallowed_methods,
    reason = "without --threads the host's core count picks the worker count; the city report is identical at every count"
)]
pub(crate) fn city_config(
    quick: bool,
    reuse: Reuse,
    seed: u64,
    threads: Option<usize>,
) -> CityConfig {
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

/// One reuse point of the city sweep: builds and runs the city (streaming
/// the city-level event feed into `trace` if given), returns the report
/// and appends this point's CSV rows to `rows`.
pub fn city_point(
    set: &SweepSettings,
    reuse: Reuse,
    trace: Option<JsonLinesSink<BufWriter<File>>>,
    rows: &mut Vec<Vec<String>>,
) -> Result<CityReport, JmbError> {
    let mut cfg = city_config(set.quick, reuse, set.seed, set.threads);
    cfg.schedule = set.schedule;
    let mut city = City::new(cfg)?;
    // Events are emitted outside the cell shards, so tracing cannot
    // perturb the sweep rows.
    let traced = trace.is_some();
    if let Some(sink) = trace {
        city.trace.enable();
        city.trace.set_buffering(false);
        city.trace.attach_sink(sink);
    }
    let report = city.run()?;
    if traced {
        city.trace.flush();
    }
    let factor = reuse.factor().to_string();
    for c in &report.cells {
        let inr = format!("{:.6}", c.inr_db);
        let labels = [&factor, &c.cell.to_string(), &c.color.to_string(), &inr];
        rows.push(metrics_row(&labels, &c.metrics));
    }
    let inr = format!("{:.6}", report.mean_inr_db());
    rows.push(metrics_row(&[&factor, "all", "-", &inr], &report.pooled));
    Ok(report)
}

/// The CSV header of the city sweep.
pub fn city_header() -> String {
    format!("reuse,cell,color,inr_db,{}", TrafficMetrics::csv_header())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_writer_roundtrip() {
        let path = std::env::temp_dir().join(format!("jmb_csv_test_{}.csv", std::process::id()));
        let rows = vec![vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]];
        write_csv(&path, "a,b", &rows).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "a,b\n1,2\n3,4\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn the_largest_seed_runs_and_reruns_identically() {
        // `seed + topology index` overflowed: a panic in a debug build (which
        // is what this test runs), a silent wrap in release.
        let set = SweepSettings {
            seed: u64::MAX,
            quick: true,
            threads: Some(1),
            schedule: SchedulePolicy::Natural,
        };
        let rows = || {
            let merged = merged_points(&set, 1, |_| Cell::new(1, SATURATING_PPS));
            merged.iter().map(|m| m.csv_row()).collect::<Vec<_>>()
        };
        let first = rows();
        assert_eq!(first.len(), 1);
        assert_eq!(first, rows());
    }
}
