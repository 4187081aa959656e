//! The four workloads: what one repetition runs, and what makes it fail.
//!
//! Every input derives from `--seed`; the program crates receive only the
//! configs built here, never a workload name. One repetition is one
//! operation: it fails when a public call returns `Err` or when the
//! result breaks an invariant below. Running ([`Workload::run`]) is timed;
//! checking ([`Raw::check`]) is not.

use crate::stats::fnv1a64;
use crate::trace::{self, TimedSink, TracedBackend};
use jmb_channel::SnrBand;
use jmb_city::{City, CityConfig, CityReport, Reuse};
use jmb_core::experiment::{
    aggregate_scaling, throughput_scaling, ScalingPoint, SchedulePolicy, SweepConfig,
};
use jmb_core::fastnet::FastConfig;
use jmb_core::net::NetConfig;
use jmb_obs::{Event, JsonLinesSink, TraceSink};
use jmb_sim::{FaultConfig, FaultSchedule};
use jmb_traffic::{
    ApOutage, ClientLoad, FastBackend, RunLimits, SampleBackend, TrafficConfig, TrafficMetrics,
    TrafficSim, TransmitBackend,
};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["fig_sweep", "traffic_storm", "sample_cell", "city_grid"];

/// Topology draws per (band, AP count) point of `fig_sweep`, as Fig. 9.
const FIG_TOPOLOGIES: usize = 20;

/// The single-cell workloads pin their deployment — the channel draw of
/// the one cell — and let `--seed` draw the traffic on it. One channel
/// draw fixes the cell's MCS and with it the work in a repetition: with
/// the draw left to the seed, `sample_cell` wall time spans 0.55–1.8 s and
/// `traffic_storm` goodput 64–100 Mb/s across seeds, which would bury any
/// change under the spread between seeds. `fig_sweep` (540 draws) and
/// `city_grid` (64 cells) average over enough draws to take theirs from
/// the seed.
const DEPLOYMENT_SEED: u64 = 1;

/// What one checked repetition produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RepOut {
    /// The workload's simulated goodput, Mb/s.
    pub goodput_mbps: f64,
    /// FNV-1a-64 of the result rows as text.
    pub digest: u64,
    /// Traffic event-loop events processed (0 where no loop runs).
    pub loop_events: u64,
    /// Trace events serialised (0 where the trace is off).
    pub obs_events: u64,
}

/// A workload with its inputs built.
pub enum Workload {
    /// The Fig. 9 sweep as `fig09_throughput_scaling` runs it.
    FigSweep { sweep: SweepConfig },
    /// One saturated 8×8 fast cell through a fault storm and an outage.
    TrafficStorm {
        phy: FastConfig,
        faults: FaultSchedule,
        traffic: TrafficConfig,
    },
    /// One saturated 2×2 cell on real waveforms.
    SampleCell {
        phy: NetConfig,
        traffic: TrafficConfig,
    },
    /// The `city_sweep --quick` grid at reuse 3.
    CityGrid { city: CityConfig },
}

/// The unchecked result of one repetition.
pub enum Raw {
    Fig {
        draws: usize,
        points: Vec<ScalingPoint>,
    },
    Storm {
        metrics: TrafficMetrics,
        events: u64,
        jsonl: Vec<u8>,
    },
    Sample {
        metrics: TrafficMetrics,
        events: u64,
    },
    City(Box<CityReport>),
}

/// Threads `city_grid` runs on: never more than two, so the number means
/// the same on every box that has at least two cores.
pub fn city_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

impl Workload {
    /// Builds the inputs of workload `name` from `seed`.
    pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
        match name {
            "fig_sweep" => Ok(Workload::FigSweep {
                sweep: SweepConfig {
                    n_topologies: FIG_TOPOLOGIES,
                    seed,
                    parallelism: 1,
                    schedule: SchedulePolicy::Natural,
                },
            }),
            "traffic_storm" => {
                let horizon = 0.5;
                let storm = FaultConfig::builder()
                    .per_slave_sync_loss(1, 1.0)
                    .meas_loss_chance(0.2)
                    .build()
                    .map_err(|e| e.to_string())?;
                let faults = FaultSchedule::none()
                    .with_window(horizon / 3.0, 2.0 * horizon / 3.0, storm)
                    .map_err(|e| e.to_string())?;
                let mut traffic =
                    TrafficConfig::default_with(vec![ClientLoad::poisson(2500.0, 1500); 8], seed);
                traffic.duration_s = horizon;
                traffic.drain_timeout_s = horizon / 2.0;
                traffic.outages = vec![ApOutage {
                    ap: 0,
                    down_at_s: 0.375,
                    up_at_s: 0.45,
                }];
                Ok(Workload::TrafficStorm {
                    phy: FastConfig::default_with(8, 8, vec![30.0; 8], DEPLOYMENT_SEED),
                    faults,
                    traffic,
                })
            }
            "sample_cell" => {
                // Offered far above what the cell carries, so the airtime
                // of the horizon — not the Poisson count of a dozen
                // arrivals — sets how many joint batches a repetition runs.
                let mut traffic =
                    TrafficConfig::default_with(vec![ClientLoad::poisson(20_000.0, 300); 2], seed);
                traffic.duration_s = 0.004;
                traffic.drain_timeout_s = 0.002;
                // A lone cell has no one to contend with. Without random
                // backoff the batch cadence is header + airtime exactly, so
                // every seed runs the same number of batches; with it the
                // count flips between 12 and 13, an 8 % step in wall time.
                traffic.mac.cw_min = 1;
                traffic.mac.cw_max = 1;
                Ok(Workload::SampleCell {
                    phy: NetConfig::default_with(2, 2, 22.0, DEPLOYMENT_SEED),
                    traffic,
                })
            }
            "city_grid" => {
                let mut city = CityConfig::default_with(8, 8, Reuse::Three, seed);
                city.aps_per_cell = 2;
                city.clients_per_cell = 8;
                city.duration_s = 0.05;
                city.rate_pps = 200.0;
                city.threads = city_threads();
                Ok(Workload::CityGrid { city })
            }
            other => Err(format!("unknown workload {other}")),
        }
    }

    /// Runs one repetition.
    pub fn run(&self) -> Result<Raw, String> {
        match self {
            Workload::FigSweep { sweep } => {
                let _g = trace::scope("core.experiment.sweep");
                let counts: Vec<usize> = (2..=10).collect();
                let runs = throughput_scaling(&SnrBand::ALL, &counts, sweep, true);
                Ok(Raw::Fig {
                    draws: runs.len(),
                    points: aggregate_scaling(&runs),
                })
            }
            Workload::TrafficStorm {
                phy,
                faults,
                traffic,
            } => traffic_storm(phy, faults, traffic),
            Workload::SampleCell { phy, traffic } => sample_cell(phy, traffic),
            Workload::CityGrid { city } => run_city(city.clone()),
        }
    }

    /// The untimed repetition that ends set-up. `city_grid` runs it on one
    /// thread, so that its digest matching the timed repetitions' shows the
    /// result does not depend on the thread count.
    pub fn warm_up(&self) -> Result<Raw, String> {
        match self {
            Workload::CityGrid { city } => run_city(CityConfig {
                threads: 1,
                ..city.clone()
            }),
            _ => self.run(),
        }
    }
}

/// A writer the boxed sink and the checker can both reach.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn take(&self) -> Vec<u8> {
        std::mem::take(
            &mut self
                .0
                .lock()
                .expect("the trace buffer lock is never held across a panic"),
        )
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("the trace buffer lock is never held across a panic")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One traffic run over `backend`; with a sink the trace is enabled and
/// streams, unbuffered, into it. Returns the metrics and the loop's event
/// count.
fn run_traffic<B: TransmitBackend>(
    traffic: &TrafficConfig,
    backend: B,
    sink: Option<impl TraceSink + Send + 'static>,
) -> Result<(TrafficMetrics, u64), String> {
    let mut sim = {
        let _g = trace::scope("traffic.sim_new");
        TrafficSim::new(traffic.clone(), backend).map_err(|e| e.to_string())?
    };
    if let Some(sink) = sink {
        sim.trace.enable();
        sim.trace.set_buffering(false);
        sim.trace.attach_sink(sink);
    }
    let run = {
        let _g = trace::scope("traffic.loop");
        sim.run_bounded(RunLimits::none())
    };
    sim.trace.detach_sinks();
    Ok((run.metrics, run.events))
}

fn traffic_storm(
    phy: &FastConfig,
    faults: &FaultSchedule,
    traffic: &TrafficConfig,
) -> Result<Raw, String> {
    let mut backend = {
        let _g = trace::scope("core.fast.backend_new");
        FastBackend::new(phy.clone()).map_err(|e| e.to_string())?
    };
    backend.net_mut().set_fault_schedule(faults.clone());
    let buf = SharedBuf::default();
    let sink = JsonLinesSink::new(buf.clone());
    let (metrics, events) = if trace::enabled() {
        let backend = TracedBackend::new(backend, "core.fast.transmit", "core.fast.advance");
        run_traffic(traffic, backend, Some(TimedSink::new(sink)))?
    } else {
        run_traffic(traffic, backend, Some(sink))?
    };
    Ok(Raw::Storm {
        metrics,
        events,
        jsonl: buf.take(),
    })
}

fn sample_cell(phy: &NetConfig, traffic: &TrafficConfig) -> Result<Raw, String> {
    let backend = {
        let _g = trace::scope("core.net.backend_new");
        SampleBackend::new(phy.clone()).map_err(|e| e.to_string())?
    };
    let no_sink: Option<JsonLinesSink<Vec<u8>>> = None;
    let (metrics, events) = if trace::enabled() {
        let backend = TracedBackend::new(backend, "core.net.transmit", "core.net.advance");
        run_traffic(traffic, backend, no_sink)?
    } else {
        run_traffic(traffic, backend, no_sink)?
    };
    Ok(Raw::Sample { metrics, events })
}

fn run_city(cfg: CityConfig) -> Result<Raw, String> {
    let mut city = {
        let _g = trace::scope("city.new");
        City::new(cfg).map_err(|e| e.to_string())?
    };
    let _g = trace::scope("city.run");
    city.run()
        .map(|r| Raw::City(Box::new(r)))
        .map_err(|e| e.to_string())
}

impl Raw {
    /// Checks the result's invariants and reduces it to what is reported.
    pub fn check(&self) -> Result<RepOut, String> {
        match self {
            Raw::Fig { draws, points } => check_fig(*draws, points),
            Raw::Storm {
                metrics,
                events,
                jsonl,
            } => {
                check_traffic(metrics)?;
                let obs_events = check_storm_trace(jsonl)?;
                let text = format!(
                    "{}trace_fnv={:016x}\n",
                    traffic_text(metrics, *events),
                    fnv1a64(jsonl)
                );
                Ok(RepOut {
                    goodput_mbps: metrics.goodput_bps() / 1e6,
                    digest: fnv1a64(text.as_bytes()),
                    loop_events: *events,
                    obs_events,
                })
            }
            Raw::Sample { metrics, events } => {
                check_traffic(metrics)?;
                // Saturated, so most of what was offered is still queued at
                // the end; what was sent must get through at 22 dB.
                let sent = metrics.delivered + metrics.dropped + metrics.retries;
                if (metrics.delivered as f64) < 0.9 * sent as f64 {
                    return Err(format!(
                        "sample_cell: {} of {sent} packets sent were delivered (< 0.9) at 22 dB",
                        metrics.delivered
                    ));
                }
                Ok(RepOut {
                    goodput_mbps: metrics.goodput_bps() / 1e6,
                    digest: fnv1a64(traffic_text(metrics, *events).as_bytes()),
                    loop_events: *events,
                    obs_events: 0,
                })
            }
            Raw::City(report) => check_city(report),
        }
    }
}

fn all_finite(xs: &[f64]) -> bool {
    xs.iter().all(|x| x.is_finite())
}

fn check_fig(draws: usize, points: &[ScalingPoint]) -> Result<RepOut, String> {
    let want = SnrBand::ALL.len() * 9 * FIG_TOPOLOGIES;
    if draws != want {
        // `throughput_scaling` drops a draw whose network failed to build,
        // measure or transmit.
        return Err(format!("fig_sweep: {draws} of {want} topology draws ran"));
    }
    let mut text = String::new();
    for p in points {
        let _ = writeln!(
            text,
            "{},{},{},{},{}",
            p.band, p.n_aps, p.jmb_mean, p.dot11_mean, p.median_gain
        );
    }
    if points.len() != SnrBand::ALL.len() * 9
        || points
            .iter()
            .any(|p| !all_finite(&[p.jmb_mean, p.dot11_mean]))
    {
        return Err("fig_sweep: missing or non-finite point".into());
    }
    let high: Vec<&ScalingPoint> = points.iter().filter(|p| p.band == SnrBand::High).collect();
    // The paper's claim, at the resolution 20 draws a point give. The
    // limits stand at about twice the worst of 839 seeds (README, "Output
    // checks across seeds"): JMB never falls more than 20 % below what fewer
    // APs carried (worst single step seen: -9.5 %), ten APs carry at least
    // twice what two do (seen: 2.9x to 4.2x), and 802.11 stays within 30 %
    // of its lowest point (seen: up to 14.5 %). The digest, not these,
    // is what pins the numbers.
    let mut best = 0.0f64;
    for p in &high {
        if p.jmb_mean < 0.8 * best {
            return Err(format!(
                "fig_sweep: JMB total falls to {} b/s at {} APs from {best} b/s at fewer (high band)",
                p.jmb_mean, p.n_aps
            ));
        }
        best = best.max(p.jmb_mean);
    }
    if high[high.len() - 1].jmb_mean < 2.0 * high[0].jmb_mean {
        return Err("fig_sweep: ten APs carry less than twice what two do (high band)".into());
    }
    let dot = high.iter().map(|p| p.dot11_mean);
    let (lo, hi) = dot.fold((f64::INFINITY, 0.0f64), |(lo, hi), d| {
        (lo.min(d), hi.max(d))
    });
    if lo <= 0.0 || (hi - lo) / lo > 0.30 {
        return Err(format!("fig_sweep: 802.11 total not flat ({lo}..{hi} b/s)"));
    }
    let mean_total = points.iter().map(|p| p.jmb_mean).sum::<f64>() / points.len() as f64;
    Ok(RepOut {
        goodput_mbps: mean_total / 1e6,
        digest: fnv1a64(text.as_bytes()),
        loop_events: 0,
        obs_events: 0,
    })
}

/// Invariants every traffic result must keep.
fn check_traffic(m: &TrafficMetrics) -> Result<(), String> {
    let g = m.goodput_bps();
    if !all_finite(&[
        g,
        m.offered_bps,
        m.airtime_s,
        m.elapsed_s,
        m.jain_fairness(),
    ]) {
        return Err("non-finite traffic metric".into());
    }
    if m.delivered == 0 || m.delivered > m.generated || g > m.offered_bps * 1.5 {
        return Err(format!(
            "delivered {} of {} generated ({g} of {} b/s offered)",
            m.delivered, m.generated, m.offered_bps
        ));
    }
    Ok(())
}

fn traffic_text(m: &TrafficMetrics, events: u64) -> String {
    format!(
        "{}\ngenerated={} delivered={} events={}\n",
        m.csv_row().join(","),
        m.generated,
        m.delivered,
        events
    )
}

/// The storm's trace must be there, ordered, and show the fault paths:
/// sync misses, and the jammed slave degraded and restored.
fn check_storm_trace(jsonl: &[u8]) -> Result<u64, String> {
    let text = std::str::from_utf8(jsonl).map_err(|e| e.to_string())?;
    let mut n = 0u64;
    let (mut missed, mut degraded, mut restored) = (0u64, 0u64, 0u64);
    let mut prev: Option<Event> = None;
    for line in text.lines() {
        let e = Event::from_json(line).ok_or_else(|| format!("unparsable trace line {n}"))?;
        if let Some(p) = &prev {
            if e.seq != p.seq + 1 || e.t < p.t {
                return Err(format!("trace out of order at seq {}", e.seq));
            }
        }
        match e.kind.name() {
            "SyncMissed" => missed += 1,
            "ApDegraded" => degraded += 1,
            "ApRestored" => restored += 1,
            _ => {}
        }
        prev = Some(e);
        n += 1;
    }
    if n == 0 || missed == 0 || degraded == 0 || restored == 0 {
        return Err(format!(
            "storm trace: {n} events, {missed} SyncMissed, {degraded} ApDegraded, {restored} ApRestored"
        ));
    }
    Ok(n)
}

fn check_city(report: &CityReport) -> Result<RepOut, String> {
    check_traffic(&report.pooled)?;
    let total = report.total_goodput_bps();
    if !all_finite(&[total, report.mean_inr_db(), report.delivery_ratio()]) {
        return Err("non-finite city metric".into());
    }
    let mut text = String::new();
    for c in &report.cells {
        let _ = writeln!(
            text,
            "{},{},{},{}",
            c.cell,
            c.color,
            c.inr_db,
            c.metrics.csv_row().join(",")
        );
    }
    for (name, label, value) in report.registry.rows() {
        let _ = writeln!(text, "{name},{label:?},{value:?}");
    }
    let _ = writeln!(text, "{}", report.pooled.csv_row().join(","));
    Ok(RepOut {
        goodput_mbps: total / 1e6,
        digest: fnv1a64(text.as_bytes()),
        loop_events: 0,
        obs_events: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `traffic_storm` cut to a tenth of its horizon, faults and outage
    /// scaled with it.
    fn short_storm() -> Workload {
        let Ok(Workload::TrafficStorm {
            phy,
            faults: _,
            mut traffic,
        }) = Workload::build("traffic_storm", 5)
        else {
            panic!("traffic_storm builds");
        };
        traffic.duration_s = 0.05;
        traffic.drain_timeout_s = 0.025;
        traffic.outages[0].down_at_s = 0.0375;
        traffic.outages[0].up_at_s = 0.045;
        let storm = FaultConfig::builder()
            .per_slave_sync_loss(1, 1.0)
            .meas_loss_chance(0.2)
            .build()
            .unwrap();
        let faults = FaultSchedule::none()
            .with_window(0.05 / 3.0, 0.1 / 3.0, storm)
            .unwrap();
        Workload::TrafficStorm {
            phy,
            faults,
            traffic,
        }
    }

    fn storm_bytes(w: &Workload) -> (Vec<String>, Vec<u8>) {
        match w.run().unwrap() {
            Raw::Storm { metrics, jsonl, .. } => (metrics.csv_row(), jsonl),
            _ => panic!("not a storm"),
        }
    }

    #[test]
    fn wrappers_do_not_perturb_the_simulation() {
        let w = short_storm();
        let bare = storm_bytes(&w);
        assert!(!bare.1.is_empty());
        trace::start();
        trace::set_rep(1);
        let wrapped = storm_bytes(&w);
        let (spans, counts) = trace::finish();
        assert_eq!(bare.0, wrapped.0, "TrafficMetrics::csv_row differs");
        assert!(bare.1 == wrapped.1, "trace JSONL differs");
        // And the wrappers did see the run.
        let agg = trace::aggregate(&spans);
        assert!(agg["core.fast.transmit"].calls > 10);
        assert_eq!(
            agg["obs.sink"].calls as usize,
            bare.1.iter().filter(|&&b| b == b'\n').count()
        );
        assert!(counts["backend.acked"] <= counts["backend.packets"]);
        assert!(agg["traffic.loop"].self_ns <= agg["traffic.loop"].total_ns);
    }

    #[test]
    fn sample_cell_wrapper_is_transparent_too() {
        let Ok(Workload::SampleCell { phy, mut traffic }) = Workload::build("sample_cell", 2)
        else {
            panic!("sample_cell builds");
        };
        traffic.duration_s = 0.001;
        traffic.drain_timeout_s = 0.0005;
        let w = Workload::SampleCell { phy, traffic };
        let row = |w: &Workload| match w.run().unwrap() {
            Raw::Sample { metrics, events } => (metrics.csv_row(), events),
            _ => panic!("not a sample cell"),
        };
        let bare = row(&w);
        trace::start();
        let wrapped = row(&w);
        let (spans, _) = trace::finish();
        assert_eq!(bare, wrapped);
        assert!(spans.iter().any(|s| s.name == "core.net.transmit"));
    }

    #[test]
    fn storm_trace_check_wants_order_and_the_fault_paths() {
        use jmb_obs::EventKind;
        let line = |seq: u64, t: f64, kind: EventKind| Event { seq, t, kind }.to_json();
        let good = [
            line(0, 0.0, EventKind::SyncMissed { slave: 1 }),
            line(1, 0.1, EventKind::ApDegraded { ap: 1 }),
            line(2, 0.2, EventKind::ApRestored { ap: 1 }),
        ];
        assert_eq!(check_storm_trace(good.join("\n").as_bytes()), Ok(3));
        // Missing restore.
        assert!(check_storm_trace(good[..2].join("\n").as_bytes()).is_err());
        // Time runs backwards.
        let back = [
            good[0].clone(),
            line(1, -1.0, EventKind::ApDegraded { ap: 1 }),
            line(2, 0.2, EventKind::ApRestored { ap: 1 }),
        ];
        assert!(check_storm_trace(back.join("\n").as_bytes()).is_err());
        // A gap in the sequence numbers.
        let gap = [good[0].clone(), good[2].clone()];
        assert!(check_storm_trace(gap.join("\n").as_bytes()).is_err());
        assert!(check_storm_trace(b"").is_err());
        assert!(check_storm_trace(b"{not an event}").is_err());
    }

    #[test]
    fn unknown_workload_is_an_error_not_a_panic() {
        assert!(Workload::build("nope", 1).is_err());
        for name in NAMES {
            assert!(Workload::build(name, 1).is_ok());
        }
    }
}
