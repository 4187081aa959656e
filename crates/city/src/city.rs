//! The sharded multi-cell deployment runner.

use crate::grid::{Grid, Reuse};
use jmb_channel::pathloss::PathLossModel;
use jmb_core::error::JmbError;
use jmb_core::experiment::{parallel_map, SchedulePolicy, SweepConfig};
use jmb_core::fastnet::{FastConfig, NOISE_VAR};
use jmb_dsp::stats::{db_to_lin, lin_to_db};
use jmb_obs::{EventKind, Registry, Trace};
use jmb_traffic::{ClientLoad, FastBackend, TrafficConfig, TrafficMetrics, TrafficSim};

/// Floor for INR readouts, linear (−120 dB): keeps `lin_to_db` finite for
/// cells with no co-channel neighbours, so trace events stay JSON-clean.
const INR_FLOOR_LIN: f64 = 1e-12;

/// Reference distance at which a neighbour's signal would arrive at
/// [`CityConfig::client_snr_db`], metres.
const REF_DIST_M: f64 = 10.0;

/// Configuration of one city run.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// Cells per row of the plan.
    pub cols: usize,
    /// Rows of the plan.
    pub rows: usize,
    /// Distance between adjacent cell centers, metres.
    pub spacing_m: f64,
    /// Frequency-reuse factor.
    pub reuse: Reuse,
    /// APs per cell (the first is the cell's lead).
    pub aps_per_cell: usize,
    /// Clients per cell. May exceed `aps_per_cell`: the MAC serves joint
    /// batches of at most `aps_per_cell` distinct destinations per frame.
    pub clients_per_cell: usize,
    /// Per-client target SNR at the strongest in-cell AP, dB. Also the
    /// calibration anchor for inter-cell coupling: a neighbour cell's
    /// signal arrives at this SNR from 10 m (`REF_DIST_M`) away and decays
    /// with [`PathLossModel::inter_cell`] beyond it.
    pub client_snr_db: f64,
    /// Per-client Poisson arrival rate, packets/second.
    pub rate_pps: f64,
    /// Fixed packet size, bytes.
    pub packet_bytes: usize,
    /// Load-generation horizon per epoch, seconds.
    pub duration_s: f64,
    /// Interference fixed-point epochs (≥ 1). Epoch 0 runs every cell
    /// clean; each later epoch re-runs every cell under the interference
    /// implied by the previous epoch's airtime utilizations. Two epochs —
    /// the default of [`CityConfig::default_with`] — is the classical
    /// one-step coupling: measure activity, then measure capacity under
    /// that activity.
    pub epochs: usize,
    /// Master seed. Every cell derives its own streams from
    /// `(seed, cell)`.
    pub seed: u64,
    /// Worker threads for the cell shards. Results are identical at every
    /// value (see the crate-level determinism contract).
    pub threads: usize,
    /// Claim order for the cell shards — [`SchedulePolicy::Natural`] in
    /// production; the determinism harness perturbs it to prove results
    /// are claim-order independent.
    pub schedule: SchedulePolicy,
}

impl CityConfig {
    /// City defaults: 30 m cell pitch, 4 APs and 16 clients per cell at
    /// 22 dB, 20 pps of 700-byte packets per client, 100 ms epochs, 2
    /// coupling epochs, 10 m calibration distance.
    pub fn default_with(cols: usize, rows: usize, reuse: Reuse, seed: u64) -> Self {
        CityConfig {
            cols,
            rows,
            spacing_m: 30.0,
            reuse,
            aps_per_cell: 4,
            clients_per_cell: 16,
            client_snr_db: 22.0,
            rate_pps: 20.0,
            packet_bytes: 700,
            duration_s: 0.1,
            epochs: 2,
            seed,
            threads: 1,
            schedule: SchedulePolicy::Natural,
        }
    }

    /// Validates every field jointly.
    pub fn validate(&self) -> Result<(), JmbError> {
        if self.cols == 0 || self.rows == 0 {
            return Err(JmbError::BadConfig("grid needs at least one cell"));
        }
        if self.aps_per_cell == 0 || self.clients_per_cell == 0 {
            return Err(JmbError::BadConfig("cells need APs and clients"));
        }
        if !(self.spacing_m.is_finite() && self.spacing_m > 0.0) {
            return Err(JmbError::BadConfig("cell spacing must be positive"));
        }
        if !(self.duration_s.is_finite()
            && self.duration_s > 0.0
            && self.rate_pps.is_finite()
            && self.rate_pps > 0.0)
        {
            return Err(JmbError::BadConfig("load must be positive"));
        }
        if !self.client_snr_db.is_finite() {
            return Err(JmbError::BadConfig("client SNR must be finite"));
        }
        if self.packet_bytes == 0 {
            return Err(JmbError::BadConfig("packets must be non-empty"));
        }
        if self.epochs == 0 {
            return Err(JmbError::BadConfig("need at least one epoch"));
        }
        if self.threads == 0 {
            return Err(JmbError::BadConfig("need at least one thread"));
        }
        Ok(())
    }

    /// The plan this config describes.
    fn grid(&self) -> Grid {
        Grid::new(self.cols, self.rows, self.spacing_m)
    }

    /// Wall of one epoch on the shared city clock (horizon + drain),
    /// seconds.
    pub fn epoch_span_s(&self) -> f64 {
        self.duration_s + self.drain_timeout_s()
    }

    /// Queue-drain allowance after each epoch's horizon, seconds.
    fn drain_timeout_s(&self) -> f64 {
        (0.5 * self.duration_s).min(0.25)
    }

    /// Total APs in the deployment.
    pub fn total_aps(&self) -> usize {
        self.cols * self.rows * self.aps_per_cell
    }

    /// Total clients in the deployment.
    pub fn total_clients(&self) -> usize {
        self.cols * self.rows * self.clients_per_cell
    }

    /// Deployment area, km².
    fn area_km2(&self) -> f64 {
        (self.cols as f64 * self.spacing_m) * (self.rows as f64 * self.spacing_m) / 1e6
    }
}

/// The final-epoch outcome of one cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Cell index (row-major in the grid).
    pub cell: usize,
    /// The cell's reuse color.
    pub color: usize,
    /// Out-of-cell interference-to-noise ratio applied in the final epoch,
    /// dB (floored at −120 dB).
    pub inr_db: f64,
    /// The cell's final-epoch traffic record.
    pub metrics: TrafficMetrics,
}

/// The pooled outcome of a city run.
#[derive(Debug, Clone)]
pub struct CityReport {
    /// The configuration that produced this report.
    pub cfg: CityConfig,
    /// Per-cell final-epoch outcomes, in cell-index order.
    pub cells: Vec<CellOutcome>,
    /// Final-epoch metrics pooled across all cells.
    pub pooled: TrafficMetrics,
    /// Final-epoch registries merged in cell-index order.
    pub registry: Registry,
}

impl CityReport {
    /// Sum of per-cell goodput over the final epoch, bits/second — the
    /// raw spectral throughput, before the reuse split.
    pub fn total_goodput_bps(&self) -> f64 {
        self.cells.iter().map(|c| c.metrics.goodput_bps()).sum()
    }

    /// Area capacity, bits/second/km². Each reuse color is an orthogonal
    /// `1/r` slice of the band, so a deployment at reuse `r` delivers
    /// `1/r` of the simulated full-band goodput per cell.
    pub fn area_capacity_bps_per_km2(&self) -> f64 {
        self.total_goodput_bps() / self.cfg.reuse.factor() as f64 / self.cfg.area_km2()
    }

    /// Mean applied INR across cells, dB.
    pub fn mean_inr_db(&self) -> f64 {
        let lin: f64 = self.cells.iter().map(|c| db_to_lin(c.inr_db)).sum::<f64>()
            / self.cells.len().max(1) as f64;
        lin_to_db(lin.max(INR_FLOOR_LIN))
    }

    /// Pooled delivery ratio over the final epoch.
    pub fn delivery_ratio(&self) -> f64 {
        self.pooled.delivery_ratio()
    }
}

/// One cell's shard result (one epoch).
struct CellRun {
    metrics: TrafficMetrics,
    registry: Registry,
}

/// The city runner. Build once, [`City::run`] once; attach sinks to
/// [`City::trace`] beforehand to stream the cell-scoped event feed.
pub struct City {
    cfg: CityConfig,
    /// City-level event trace: `CellStarted` / `CellInterference` at each
    /// epoch start and `CellFinished` at each epoch end, emitted
    /// single-threaded in (epoch, cell) order.
    pub trace: Trace,
}

impl City {
    /// Validates the config.
    pub fn new(cfg: CityConfig) -> Result<Self, JmbError> {
        cfg.validate()?;
        Ok(City {
            cfg,
            trace: Trace::new(),
        })
    }

    /// Runs every epoch of every cell and pools the final epoch.
    pub fn run(&mut self) -> Result<CityReport, JmbError> {
        let grid = self.cfg.grid();
        let n = grid.n_cells();
        let colors: Vec<usize> = (0..n).map(|c| grid.color(self.cfg.reuse, c)).collect();
        let plm = PathLossModel::inter_cell();
        let snr_lin = db_to_lin(self.cfg.client_snr_db);
        let span = self.cfg.epoch_span_s();

        // Pre-resolve each cell's co-channel couplings (neighbour index +
        // pathloss-derived power gain); they are epoch-invariant.
        let couplings: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|i| {
                grid.co_channel(self.cfg.reuse, i)
                    .into_iter()
                    .map(|j| {
                        (
                            j,
                            plm.relative_power_gain(grid.distance_m(i, j), REF_DIST_M),
                        )
                    })
                    .collect()
            })
            .collect();

        let mut ext = vec![0.0f64; n];
        let mut last: Vec<CellRun> = Vec::new();
        for epoch in 0..self.cfg.epochs {
            let t0 = epoch as f64 * span;
            for (cell, &color) in colors.iter().enumerate() {
                self.trace.emit(t0, EventKind::CellStarted { cell, color });
                self.trace.emit(
                    t0,
                    EventKind::CellInterference {
                        cell,
                        inr_db: lin_to_db(ext[cell].max(INR_FLOOR_LIN)),
                    },
                );
            }
            let sweep = SweepConfig {
                n_topologies: n,
                seed: self.cfg.seed,
                parallelism: self.cfg.threads,
                schedule: self.cfg.schedule,
            };
            let cfg = &self.cfg;
            let ext_now = &ext;
            let runs: Vec<Result<CellRun, JmbError>> =
                parallel_map(&sweep, |cell| run_cell(cfg, cell, epoch, ext_now[cell]));
            let runs: Vec<CellRun> = runs.into_iter().collect::<Result<_, _>>()?;
            for (cell, r) in runs.iter().enumerate() {
                self.trace.emit(
                    t0 + span,
                    EventKind::CellFinished {
                        cell,
                        delivered: r.metrics.delivered,
                    },
                );
            }
            if epoch + 1 < self.cfg.epochs {
                // Airtime utilization of this epoch drives the next one's
                // interference: a neighbour only leaks while it transmits.
                let util: Vec<f64> = runs
                    .iter()
                    .map(|r| (r.metrics.airtime_s / r.metrics.elapsed_s.max(1e-9)).clamp(0.0, 1.0))
                    .collect();
                for (i, e) in ext.iter_mut().enumerate() {
                    *e = couplings[i]
                        .iter()
                        .map(|&(j, gain)| snr_lin * gain * util[j])
                        .sum();
                }
            }
            last = runs;
        }

        let mut registry = Registry::new();
        for r in &last {
            registry.merge(&r.registry);
        }
        let pooled =
            TrafficMetrics::merge(&last.iter().map(|r| r.metrics.clone()).collect::<Vec<_>>());
        let cells = last
            .into_iter()
            .enumerate()
            .map(|(cell, r)| CellOutcome {
                cell,
                color: colors[cell],
                inr_db: lin_to_db(ext[cell].max(INR_FLOOR_LIN)),
                metrics: r.metrics,
            })
            .collect();
        Ok(CityReport {
            cfg: self.cfg.clone(),
            cells,
            pooled,
            registry,
        })
    }
}

/// Runs one cell for one epoch under `ext_inr_lin` of out-of-cell
/// interference (linear, relative to the cell's noise floor).
fn run_cell(
    cfg: &CityConfig,
    cell: usize,
    epoch: usize,
    ext_inr_lin: f64,
) -> Result<CellRun, JmbError> {
    let nc = cfg.clients_per_cell;
    // Streams derive from (seed, cell) only — NOT the epoch — so epochs
    // re-run the *same* cell under different interference and the coupling
    // iteration converges on activity, not on resampled randomness.
    let mut rng = jmb_dsp::rng::derive_rng(cfg.seed, 0xC17E ^ ((cell as u64) << 16));
    use rand::Rng;
    let phy_seed: u64 = rng.gen();
    let mac_seed: u64 = rng.gen();
    let fc = FastConfig::default_with(cfg.aps_per_cell, nc, vec![cfg.client_snr_db; nc], phy_seed);
    let mut backend = FastBackend::new(fc)?;
    backend
        .net_mut()
        .set_external_interference(ext_inr_lin * NOISE_VAR)?;
    let loads = vec![ClientLoad::poisson(cfg.rate_pps, cfg.packet_bytes); nc];
    let mut tc = TrafficConfig::default_with(loads, mac_seed);
    tc.duration_s = cfg.duration_s;
    tc.drain_timeout_s = cfg.drain_timeout_s();
    tc.start_s = epoch as f64 * cfg.epoch_span_s();
    let mut sim = TrafficSim::new(tc, backend)?;
    let metrics = sim.run();
    Ok(CellRun {
        registry: sim.registry().clone(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(reuse: Reuse, seed: u64) -> CityConfig {
        let mut cfg = CityConfig::default_with(3, 3, reuse, seed);
        cfg.aps_per_cell = 2;
        cfg.clients_per_cell = 4;
        cfg.duration_s = 0.05;
        // Enough load to push utilization (and thus coupled interference)
        // well above the noise floor on a 3×3 block.
        cfg.rate_pps = 400.0;
        cfg
    }

    #[test]
    fn config_validation() {
        assert!(City::new(CityConfig::default_with(0, 4, Reuse::One, 1)).is_err());
        let mut c = tiny(Reuse::One, 1);
        c.duration_s = 0.0;
        assert!(City::new(c).is_err());
        let mut c = tiny(Reuse::One, 1);
        c.threads = 0;
        assert!(City::new(c).is_err());
        let mut c = tiny(Reuse::One, 1);
        c.epochs = 0;
        assert!(City::new(c).is_err());
        let mut c = tiny(Reuse::One, 1);
        c.spacing_m = f64::NAN;
        assert!(City::new(c).is_err());
    }

    #[test]
    fn identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut cfg = tiny(Reuse::Three, 9);
            cfg.threads = threads;
            let mut city = City::new(cfg).unwrap();
            let report = city.run().unwrap();
            let rows: Vec<String> = report
                .registry
                .rows()
                .into_iter()
                .map(|(k, l, v)| format!("{k}/{l:?}/{v:?}"))
                .collect();
            let per_cell: Vec<(f64, u64, String)> = report
                .cells
                .iter()
                .map(|c| (c.inr_db, c.metrics.delivered, c.metrics.csv_row().join(",")))
                .collect();
            (rows, per_cell, report.pooled.csv_row())
        };
        let serial = run(1);
        assert_eq!(run(4), serial, "4 threads must equal 1 thread");
        assert_eq!(run(3), serial, "3 threads must equal 1 thread");
    }

    #[test]
    fn denser_reuse_sees_more_interference() {
        let inr = |reuse| {
            let mut city = City::new(tiny(reuse, 11)).unwrap();
            city.run().unwrap().mean_inr_db()
        };
        let r1 = inr(Reuse::One);
        let r7 = inr(Reuse::Seven);
        assert!(
            r1 > r7 + 3.0,
            "reuse 1 must be markedly louder: {r1} vs {r7} dB"
        );
        assert!(r1 > 0.0, "co-channel next door must exceed the noise floor");
    }

    #[test]
    fn trace_covers_every_cell_and_epoch() {
        let mut cfg = tiny(Reuse::One, 13);
        cfg.epochs = 2;
        let mut city = City::new(cfg).unwrap();
        city.trace.enable();
        let report = city.run().unwrap();
        let events = city.trace.events().to_vec();
        let count = |name: &str| events.iter().filter(|e| e.kind.name() == name).count();
        assert_eq!(count("CellStarted"), 9 * 2);
        assert_eq!(count("CellInterference"), 9 * 2);
        assert_eq!(count("CellFinished"), 9 * 2);
        // The feed is single-threaded and ordered; delivered counts in the
        // finish events match the report.
        let mut finished = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::CellFinished { cell, delivered } => Some((cell, delivered)),
                _ => None,
            })
            .skip(9); // final epoch
        for c in &report.cells {
            assert_eq!(finished.next(), Some((c.cell, c.metrics.delivered)));
        }
        // Epoch 0 ran clean; epoch 1 under reuse-1 interference.
        let inrs: Vec<f64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::CellInterference { inr_db, .. } => Some(inr_db),
                _ => None,
            })
            .collect();
        assert!(inrs[..9].iter().all(|&x| x <= -119.0), "epoch 0 clean");
        assert!(inrs[9..].iter().all(|&x| x > 0.0), "epoch 1 loud");
    }

    #[test]
    fn report_arithmetic() {
        let cfg = tiny(Reuse::Three, 17);
        let area = cfg.area_km2();
        assert!((area - (90.0 * 90.0) / 1e6).abs() < 1e-12);
        assert_eq!(cfg.total_aps(), 18);
        assert_eq!(cfg.total_clients(), 36);
        let mut city = City::new(cfg).unwrap();
        let report = city.run().unwrap();
        assert!(report.total_goodput_bps() > 0.0);
        let expect = report.total_goodput_bps() / 3.0 / area;
        assert!((report.area_capacity_bps_per_km2() - expect).abs() < 1e-6);
        assert!(report.delivery_ratio() > 0.5);
    }
}
