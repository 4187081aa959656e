//! The discrete-event traffic simulation.
//!
//! A seeded, single-threaded event loop: per-client arrival processes feed
//! the shared [`JmbMac`] queue; whenever the medium is idle the §9 schedule
//! runs — lead election from the head-of-queue packet, joint-batch
//! selection of distinct destinations, a weighted contention window, one
//! joint transmission through a [`TransmitBackend`], and asynchronous
//! ACK/retransmission bookkeeping. Scheduled AP outages exercise failover:
//! the designated-AP map is re-elected onto surviving APs and the stream
//! cap shrinks so zero-forcing stays well-posed.
//!
//! # Determinism
//!
//! Same seed + same config ⇒ identical metrics, bit for bit. Every random
//! draw comes from a stream-derived RNG (arrivals per client, backoff, the
//! backend's own ACK model), events at equal times are ordered by a
//! monotone sequence number, and the loop itself is single-threaded —
//! parallelism belongs *outside*, across simulations (see
//! `jmb_core::experiment::parallel_map`).

use crate::arrival::{ArrivalGen, ArrivalProcess, PacketSizeDist};
use crate::backend::TransmitBackend;
use crate::metrics::{TimelineBin, TrafficMetrics};
use jmb_core::error::JmbError;
use jmb_core::mac::{JmbMac, MacConfig, MacPacket, PacketFate};
use jmb_core::sync::SyncStrategyId;
use jmb_dsp::rng::JmbRng;
use jmb_obs::{DropCause, EventKind as TraceKind, Registry, StopCause, Trace};
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One client's offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientLoad {
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Packet-size distribution.
    pub size: PacketSizeDist,
}

impl ClientLoad {
    /// Poisson arrivals of fixed-size packets.
    pub fn poisson(rate_pps: f64, bytes: usize) -> Self {
        ClientLoad {
            arrival: ArrivalProcess::Poisson { rate_pps },
            size: PacketSizeDist::Fixed(bytes),
        }
    }

    /// Mean offered load, bits/second.
    pub fn offered_bps(&self) -> f64 {
        self.arrival.mean_rate_pps() * self.size.mean() * 8.0
    }
}

/// A scheduled AP failure window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApOutage {
    /// Which AP fails.
    pub ap: usize,
    /// Failure time, seconds.
    pub down_at_s: f64,
    /// Recovery time, seconds (`f64::INFINITY` = never recovers).
    pub up_at_s: f64,
}

/// Traffic-simulation configuration.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Absolute start time of the run, seconds (default 0). Arrivals are
    /// generated in `[start_s, start_s + duration_s)`; outage times stay
    /// absolute. A multi-cell deployment aligns every cell's event loop on
    /// a shared city clock by giving each epoch the same `start_s`.
    pub start_s: f64,
    /// Load-generation horizon, seconds.
    pub duration_s: f64,
    /// Extra time after the horizon to drain the queue, seconds.
    pub drain_timeout_s: f64,
    /// Link-layer configuration.
    pub mac: MacConfig,
    /// One load per client.
    pub loads: Vec<ClientLoad>,
    /// Scheduled AP failures.
    pub outages: Vec<ApOutage>,
    /// Master seed (arrivals and backoff; the backend seeds itself).
    pub seed: u64,
    /// Synchronization backend for the run. Applied to the PHY at
    /// construction when it differs from the backend's current strategy; a
    /// non-default strategy is announced on the trace at run start with
    /// [`TraceKind::SyncStrategySwitched`].
    pub sync_strategy: SyncStrategyId,
}

impl TrafficConfig {
    /// Defaults: 1 s horizon with 0.5 s drain from t = 0, the default MAC
    /// and sync strategy, no outages.
    pub fn default_with(loads: Vec<ClientLoad>, seed: u64) -> Self {
        TrafficConfig {
            start_s: 0.0,
            duration_s: 1.0,
            drain_timeout_s: 0.5,
            mac: MacConfig::default(),
            loads,
            outages: Vec::new(),
            seed,
            sync_strategy: SyncStrategyId::default(),
        }
    }

    /// The rules [`TrafficSim::new`] starts with, against the shape of the
    /// backend the run will use, without building anything: a caller that
    /// only plans a run asks here.
    pub fn validate(&self, n_aps: usize, n_clients: usize) -> Result<(), JmbError> {
        if self.loads.len() != n_clients {
            return Err(JmbError::BadConfig("one load per client required"));
        }
        if self.loads.is_empty() {
            return Err(JmbError::BadConfig("need at least one client"));
        }
        if !self.loads.iter().all(|l| l.arrival.is_well_posed()) {
            return Err(JmbError::BadConfig(
                "arrival rates and on/off mean periods must be positive and finite",
            ));
        }
        if !self.loads.iter().all(|l| l.size.is_well_posed()) {
            return Err(JmbError::BadConfig(
                "packet sizes must be ordered, non-empty and fit one frame with its CRC",
            ));
        }
        if self
            .outages
            .iter()
            .any(|o| o.ap >= n_aps || o.up_at_s <= o.down_at_s)
        {
            return Err(JmbError::BadConfig("bad outage schedule"));
        }
        // An infinite horizon never ends, a NaN one schedules nothing, and a
        // negative drain ends the run before its horizon while reporting it
        // completed.
        if !(self.duration_s.is_finite() && self.duration_s > 0.0) {
            return Err(JmbError::BadConfig(
                "duration_s must be finite and positive",
            ));
        }
        if !(self.drain_timeout_s.is_finite() && self.drain_timeout_s >= 0.0) {
            return Err(JmbError::BadConfig(
                "drain_timeout_s must be finite and non-negative",
            ));
        }
        if !self.start_s.is_finite() || self.start_s < 0.0 {
            return Err(JmbError::BadConfig(
                "start time must be finite and non-negative",
            ));
        }
        Ok(())
    }
}

/// Contention slot duration, seconds (802.11 OFDM: 9 µs).
const SLOT_S: f64 = 9e-6;

/// Fixed per-transmission overhead, seconds: lead sync header + software
/// turnaround (§5.2) + post-frame SIFS, 16 + 150 + 50 µs. The network's
/// frame timeline spends more: its header is 320 samples, 32 µs at 10 MHz.
/// So each batch leaves the backend 16 µs of clock debt, which only idle
/// time drains: with zero backoff the network's clock gains 16 µs a batch.
const HEADER_OVERHEAD_S: f64 = 216e-6;

/// Timeline bin width, seconds.
const TIMELINE_BIN_S: f64 = 50e-3;

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    Arrival { client: usize },
    TxDone,
    ApDown { ap: usize },
    ApUp { ap: usize },
}

#[derive(Debug, Clone, Copy)]
struct Event {
    t: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Total order on (time, insertion sequence): simultaneous events
        // process in creation order — the determinism tie-break.
        self.t.total_cmp(&other.t).then(self.seq.cmp(&other.seq))
    }
}

/// Resource limits for a bounded run ([`TrafficSim::run_bounded`]).
///
/// Each limit is checked *before* an event is processed, so a run never
/// does partial work past its budget; the drain deadline (`duration_s +
/// drain_timeout_s`) still applies on top of these. [`RunLimits::none`]
/// makes `run_bounded` behave exactly like [`TrafficSim::run`].
#[derive(Default)]
pub struct RunLimits {
    /// Stop after this many processed events ([`StopCause::MaxEvents`]).
    pub max_events: Option<u64>,
    /// Stop before processing any event later than `start_s +
    /// max_sim_time_s` ([`StopCause::MaxSimTime`]). An event at exactly
    /// the deadline still processes (the same half-open convention as
    /// fault windows, seen from the other side).
    pub max_sim_time_s: Option<f64>,
    /// External stop predicate, called with `(events_processed, sim_time)`
    /// every 1024 events (`STOP_POLL_EVENTS`); returning `true` stops the
    /// run with [`StopCause::Wallclock`]. This is the scenario runner's
    /// wall-clock deadline hook — the predicate owns the clock so the
    /// simulation itself stays free of wall-time reads.
    pub stop: Option<Box<dyn FnMut(u64, f64) -> bool>>,
}

/// Poll period of [`RunLimits::stop`], in processed events.
const STOP_POLL_EVENTS: u64 = 1024;

impl RunLimits {
    /// No limits: `run_bounded` completes naturally, like `run`.
    pub fn none() -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for RunLimits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunLimits")
            .field("max_events", &self.max_events)
            .field("max_sim_time_s", &self.max_sim_time_s)
            .field("stop", &self.stop.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

/// Outcome of [`TrafficSim::run_bounded`]: the metrics plus why and when
/// the loop stopped.
#[derive(Debug)]
pub struct BoundedRun {
    /// The usual run metrics. On an early stop, `elapsed_s` is the sim
    /// time actually covered (not padded up to `duration_s`).
    pub metrics: TrafficMetrics,
    /// Why the loop stopped.
    pub cause: StopCause,
    /// Events processed before stopping.
    pub events: u64,
}

/// Delivery-latency histogram buckets (upper bounds, seconds): 1 ms to
/// 1 s in a 1-2-5 sequence — queueing latencies under load span exactly
/// this range in the sweeps.
const LATENCY_BUCKETS_S: &[f64] = &[1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1, 2e-1, 5e-1, 1.0];

struct InFlight {
    batch: Vec<MacPacket>,
    acked: Vec<bool>,
    airtime_s: f64,
}

/// The traffic simulator. Build once, [`TrafficSim::run`] once.
pub struct TrafficSim<B: TransmitBackend> {
    cfg: TrafficConfig,
    backend: B,
    mac: JmbMac,
    /// Home (initial designated) AP per client, restored on recovery.
    home_ap: Vec<usize>,
    active: Vec<bool>,
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
    arrivals: Vec<ArrivalGen>,
    backoff_rng: JmbRng,
    in_flight: Option<InFlight>,
    /// Sim time up to which the backend clock has been advanced.
    phy_t: f64,
    /// Protocol/traffic event trace (enable before `run`).
    pub trace: Trace,
    /// Run-level metrics registry: every counter [`TrafficMetrics`]
    /// reports is accumulated here during the event loop and read out at
    /// the end of [`TrafficSim::run`].
    reg: Registry,
}

impl<B: TransmitBackend> TrafficSim<B> {
    /// Validates the config against the backend and seeds all generators.
    ///
    /// The initial designated-AP map assigns client `j` to AP `j mod n_aps`
    /// (matching the backend topologies, where strongest APs are spread
    /// across clients).
    pub fn new(cfg: TrafficConfig, mut backend: B) -> Result<Self, JmbError> {
        cfg.validate(backend.n_aps(), backend.n_clients())?;
        // Apply the run's sync strategy only when it differs: a backend
        // whose PHY was already built on the requested strategy keeps its
        // measurement-phase seeding (and, for the default strategy, its
        // byte-exact draw stream).
        if backend.sync_strategy() != cfg.sync_strategy {
            backend.set_sync_strategy(cfg.sync_strategy);
        }
        let n_aps = backend.n_aps();
        let home_ap: Vec<usize> = (0..backend.n_clients()).map(|j| j % n_aps).collect();
        let mut mac = JmbMac::new(cfg.mac, home_ap.clone());
        mac.set_max_streams(cfg.mac.max_streams.min(n_aps));
        let arrivals: Vec<ArrivalGen> = cfg
            .loads
            .iter()
            .enumerate()
            .map(|(c, l)| {
                ArrivalGen::new(
                    l.arrival,
                    l.size,
                    jmb_dsp::rng::derive_rng(cfg.seed, 0xA0_0000 + c as u64),
                    cfg.start_s,
                )
            })
            .collect();
        let backoff_rng = jmb_dsp::rng::derive_rng(cfg.seed, 0xB0_FF00);
        let mut reg = Registry::new();
        reg.register_hist("traffic_latency_s", LATENCY_BUCKETS_S);
        Ok(TrafficSim {
            active: vec![true; n_aps],
            home_ap,
            mac,
            heap: BinaryHeap::new(),
            seq: 0,
            arrivals,
            backoff_rng,
            in_flight: None,
            phy_t: cfg.start_s,
            trace: Trace::new(),
            reg,
            cfg,
            backend,
        })
    }

    /// Access to the PHY backend (fault injection, trace inspection).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// The run-level metrics registry (counters, airtime gauges, and the
    /// delivery-latency histogram).
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    fn push_event(&mut self, t: f64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event { t, seq, kind }));
    }

    fn active_aps(&self) -> Vec<usize> {
        (0..self.active.len()).filter(|&i| self.active[i]).collect()
    }

    /// Re-elects designated APs and shrinks/grows the stream cap after a
    /// liveness change (§9's per-packet lead re-election is what makes this
    /// safe: the next head-of-queue packet simply nominates a live AP).
    fn apply_liveness(&mut self) {
        let live = self.active_aps();
        if live.is_empty() {
            return; // transmissions pause until an AP recovers
        }
        for c in 0..self.home_ap.len() {
            let home = self.home_ap[c];
            let want = if self.active[home] { home } else { live[0] };
            if self.mac.designated_ap(c) != want {
                self.mac.set_designated_ap(c, want);
            }
        }
        self.mac
            .set_max_streams(self.cfg.mac.max_streams.min(live.len()));
    }

    /// Records what happened at `now`: the event goes on the trace, and a
    /// kind the run counts bumps its counter. Every packet and control-plane
    /// count a run reports is a count of these events.
    fn note(&mut self, now: f64, kind: TraceKind) {
        let counter = match kind {
            TraceKind::Enqueued { .. } => Some("traffic_generated"),
            TraceKind::Acked { .. } => Some("traffic_delivered"),
            TraceKind::Retry { .. } => Some("traffic_retries"),
            TraceKind::Dropped { .. } => Some("traffic_dropped"),
            TraceKind::CsiStale { .. } => Some("traffic_csi_stale"),
            TraceKind::RemeasureOk { .. } => Some("traffic_remeasure_ok"),
            TraceKind::RemeasureFailed { .. } => Some("traffic_remeasure_failed"),
            TraceKind::RemeasureScheduled { .. } => Some("traffic_remeasure_scheduled"),
            TraceKind::SyncMissed { .. } => Some("traffic_sync_misses"),
            TraceKind::ApDegraded { .. } => Some("traffic_aps_degraded"),
            TraceKind::ApRestored { .. } => Some("traffic_aps_restored"),
            _ => None,
        };
        if let Some(counter) = counter {
            self.reg.inc(counter);
        }
        self.trace.emit(now, kind);
    }

    /// Starts a joint transmission if the medium is idle and work exists.
    fn maybe_start_tx(&mut self, now: f64) {
        if self.in_flight.is_some() || self.mac.queue_len() == 0 {
            return;
        }
        let live = self.active_aps();
        if live.is_empty() {
            return;
        }
        if let Some(lead) = self.mac.next_lead() {
            self.note(now, TraceKind::LeadElected { ap: lead });
        }
        let (mut batch, mut payload_len) = self.mac.select_batch();
        if batch.is_empty() {
            // Every queued destination is blacklisted: §9 re-admits after
            // re-measurement; model that as a reset so the queue never
            // stalls. This is the only re-admission: a blacklisted client
            // queued beside a schedulable one waits (DESIGN.md §3.5).
            self.mac.clear_all_blacklists();
            (batch, payload_len) = self.mac.select_batch();
        }
        if batch.is_empty() {
            return;
        }
        let n_packets = batch.len();
        self.note(now, TraceKind::BatchSelected { n_packets });
        let cw = self.mac.contention_window(batch.len());
        let backoff_s = self.backoff_rng.gen_range(0..cw) as f64 * SLOT_S;
        let t_start = now + backoff_s + HEADER_OVERHEAD_S;
        // Keep the PHY clock tracking sim time (oscillators drift through
        // idle and contention periods too).
        let dt = (t_start - self.phy_t).max(0.0);
        self.backend.advance(dt);
        let dests: Vec<usize> = batch.iter().map(|p| p.dest).collect();
        let report = self
            .backend
            .transmit_batch(&dests, payload_len, &live)
            .unwrap_or_else(|_| crate::backend::TxReport {
                // A PHY refusal (e.g. transiently more streams than live
                // APs, or too few sync'd slaves) behaves like a lost
                // transmission: nobody ACKs and the MAC retry path takes
                // over — the protocol degrades, it never stalls.
                airtime_s: HEADER_OVERHEAD_S,
                acked: vec![false; batch.len()],
                mcs_index: 0,
                control: Default::default(),
            });
        let control = report.control;
        for kind in control.events {
            self.note(now, kind);
        }
        self.reg
            .gauge_add("traffic_control_airtime_s", control.overhead_s);
        if control.sync_phase_err_rad > 0.0 {
            self.reg
                .gauge_set("traffic_sync_phase_err_rad", control.sync_phase_err_rad);
        }
        let airtime_s = HEADER_OVERHEAD_S + backoff_s + report.airtime_s + control.overhead_s;
        let t_done = now + airtime_s;
        self.phy_t = t_start + report.airtime_s + control.overhead_s;
        self.in_flight = Some(InFlight {
            batch,
            acked: report.acked,
            airtime_s,
        });
        self.push_event(t_done, EventKind::TxDone);
    }

    /// Runs the simulation to completion and returns the metrics.
    pub fn run(&mut self) -> TrafficMetrics {
        self.run_bounded(RunLimits::none()).metrics
    }

    /// Runs the simulation under resource limits.
    ///
    /// With [`RunLimits::none`] this is exactly [`TrafficSim::run`] — same
    /// events, same RNG draws, byte-identical metrics. Each limit is
    /// checked before processing an event (sim-time deadline first, then
    /// the event budget, then the polled stop predicate), so a stopped run
    /// leaves the trace and registry consistent: every emitted event was
    /// fully processed.
    pub fn run_bounded(&mut self, mut limits: RunLimits) -> BoundedRun {
        let _span = jmb_obs::span("traffic_event_loop");
        // Announce a non-default sync backend on the trace: the trace is
        // usually enabled after `new`, so the construction-time switch
        // would otherwise be invisible to headless assertion checks.
        let strategy = self.backend.sync_strategy();
        if strategy != SyncStrategyId::default() {
            self.note(
                self.cfg.start_s,
                TraceKind::SyncStrategySwitched { strategy },
            );
        }
        let n_clients = self.cfg.loads.len();
        let mut m = TrafficMetrics {
            duration_s: self.cfg.duration_s,
            offered_bps: self.cfg.loads.iter().map(|l| l.offered_bps()).sum(),
            ..Default::default()
        };
        let t_end = self.cfg.start_s + self.cfg.duration_s;
        let hard_end = t_end + self.cfg.drain_timeout_s;

        // Seed the event heap: first arrival per client + the outage
        // schedule. `pending` holds the staged (time, size) for each
        // client's next arrival so the event handler doesn't re-draw.
        let mut pending: Vec<Option<(f64, usize)>> = Vec::with_capacity(n_clients);
        for gen in self.arrivals.iter_mut() {
            let (t, size) = gen.next_arrival();
            pending.push((t < t_end).then_some((t, size)));
        }
        for (c, slot) in pending.iter().enumerate() {
            if let Some((t, _)) = *slot {
                self.push_event(t, EventKind::Arrival { client: c });
            }
        }
        for o in self.cfg.outages.clone() {
            self.push_event(o.down_at_s, EventKind::ApDown { ap: o.ap });
            if o.up_at_s.is_finite() {
                self.push_event(o.up_at_s, EventKind::ApUp { ap: o.ap });
            }
        }

        let sim_deadline = limits.max_sim_time_s.map(|d| self.cfg.start_s + d);
        let mut processed: u64 = 0;
        let mut cause = StopCause::Completed;
        let mut now = self.cfg.start_s;
        while let Some(Reverse(ev)) = self.heap.pop() {
            if ev.t > hard_end {
                break;
            }
            if sim_deadline.is_some_and(|d| ev.t > d) {
                cause = StopCause::MaxSimTime;
                break;
            }
            if limits.max_events.is_some_and(|max| processed >= max) {
                cause = StopCause::MaxEvents;
                break;
            }
            if processed.is_multiple_of(STOP_POLL_EVENTS) {
                if let Some(stop) = limits.stop.as_mut() {
                    if stop(processed, ev.t) {
                        cause = StopCause::Wallclock;
                        break;
                    }
                }
            }
            processed += 1;
            now = ev.t;
            match ev.kind {
                EventKind::Arrival { client } => {
                    #[expect(
                        clippy::expect_used,
                        reason = "event-loop invariant — an Arrival is only scheduled after pending[client] is staged"
                    )]
                    let (_, size) = pending[client].take().expect("staged arrival");
                    let id = self.mac.enqueue(client, size, now);
                    self.note(now, TraceKind::Enqueued { client, id });
                    let (t_next, s_next) = self.arrivals[client].next_arrival();
                    if t_next < t_end {
                        pending[client] = Some((t_next, s_next));
                        self.push_event(t_next, EventKind::Arrival { client });
                    }
                }
                EventKind::ApDown { ap } => {
                    self.active[ap] = false;
                    self.note(now, TraceKind::ApDown { ap });
                    self.apply_liveness();
                }
                EventKind::ApUp { ap } => {
                    self.active[ap] = true;
                    self.note(now, TraceKind::ApUp { ap });
                    self.apply_liveness();
                }
                EventKind::TxDone => {
                    #[expect(
                        clippy::expect_used,
                        reason = "event-loop invariant — exactly one TxDone is scheduled per in-flight transmission"
                    )]
                    let inf = self.in_flight.take().expect("tx completion without tx");
                    self.reg.inc("traffic_transmissions");
                    self.reg.gauge_add("traffic_airtime_s", inf.airtime_s);
                    let fates = self.mac.complete_batch(inf.batch, &inf.acked);
                    for fate in fates {
                        match fate {
                            PacketFate::Acked {
                                dest,
                                id,
                                payload_len,
                                enqueued_at_s: t_in,
                            } => {
                                self.reg.observe("traffic_latency_s", now - t_in);
                                m.latencies_s.push(now - t_in);
                                let bits = 8.0 * payload_len as f64;
                                self.reg
                                    .gauge_add_at("traffic_client_bits", dest as u32, bits);
                                record_timeline(
                                    &mut m.timeline,
                                    TIMELINE_BIN_S,
                                    now - self.cfg.start_s,
                                    bits,
                                    self.mac.queue_len(),
                                );
                                self.note(now, TraceKind::Acked { client: dest, id });
                            }
                            PacketFate::Requeued {
                                dest: client,
                                id,
                                attempts: attempt,
                            } => self.note(
                                now,
                                TraceKind::Retry {
                                    client,
                                    id,
                                    attempt,
                                },
                            ),
                            PacketFate::Dropped { dest, .. } => {
                                let cause = DropCause::RetryLimit;
                                self.note(now, TraceKind::Dropped { node: dest, cause });
                            }
                        }
                    }
                }
            }
            self.maybe_start_tx(now);
        }

        m.queued_at_end = self.mac.queue_len() as u64
            + self.in_flight.as_ref().map_or(0, |i| i.batch.len()) as u64;
        m.elapsed_s = if cause == StopCause::Completed {
            (now - self.cfg.start_s).max(self.cfg.duration_s)
        } else {
            // Early stop: report only the sim time actually covered, so
            // goodput (bits / elapsed) reflects the truncated run.
            now - self.cfg.start_s
        };
        m.fill_from_registry(&self.reg, n_clients);
        BoundedRun {
            metrics: m,
            cause,
            events: processed,
        }
    }
}

fn record_timeline(
    timeline: &mut Vec<TimelineBin>,
    bin_s: f64,
    t: f64,
    bits: f64,
    queue_len: usize,
) {
    let idx = (t / bin_s) as usize;
    while timeline.len() <= idx {
        let k = timeline.len();
        timeline.push(TimelineBin {
            t_s: k as f64 * bin_s,
            delivered_bits: 0.0,
            queue_len: 0,
        });
    }
    timeline[idx].delivered_bits += bits;
    timeline[idx].queue_len = queue_len;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::TxReport;

    /// A deterministic stub PHY: fixed airtime, ACK everything unless the
    /// destination is in `failing`, which NACKs until `fail_until_tx`.
    struct StubBackend {
        n_aps: usize,
        n_clients: usize,
        airtime_s: f64,
        failing: Vec<usize>,
        calls: u64,
        fail_until_call: u64,
        sync: SyncStrategyId,
    }

    impl StubBackend {
        fn perfect(n_aps: usize, n_clients: usize) -> Self {
            StubBackend {
                n_aps,
                n_clients,
                airtime_s: 500e-6,
                failing: Vec::new(),
                calls: 0,
                fail_until_call: 0,
                sync: SyncStrategyId::default(),
            }
        }
    }

    impl TransmitBackend for StubBackend {
        fn n_aps(&self) -> usize {
            self.n_aps
        }
        fn n_clients(&self) -> usize {
            self.n_clients
        }
        fn advance(&mut self, _dt: f64) {}
        fn transmit_batch(
            &mut self,
            dests: &[usize],
            _payload_len: usize,
            active_aps: &[usize],
        ) -> Result<TxReport, JmbError> {
            assert!(!active_aps.is_empty());
            assert!(dests.len() <= active_aps.len().max(1));
            self.calls += 1;
            let acked = dests
                .iter()
                .map(|d| !(self.failing.contains(d) && self.calls <= self.fail_until_call))
                .collect();
            Ok(TxReport {
                airtime_s: self.airtime_s,
                acked,
                mcs_index: 0,
                control: Default::default(),
            })
        }
        fn sync_strategy(&self) -> SyncStrategyId {
            self.sync
        }
        fn set_sync_strategy(&mut self, kind: SyncStrategyId) {
            self.sync = kind;
        }
    }

    fn light_cfg(n_clients: usize, seed: u64) -> TrafficConfig {
        TrafficConfig::default_with(vec![ClientLoad::poisson(50.0, 700); n_clients], seed)
    }

    #[test]
    fn light_load_delivers_everything() {
        let cfg = light_cfg(3, 1);
        let mut sim = TrafficSim::new(cfg, StubBackend::perfect(4, 3)).unwrap();
        let m = sim.run();
        assert!(m.generated > 50, "generated {}", m.generated);
        assert_eq!(m.delivered, m.generated);
        assert_eq!(m.dropped, 0);
        assert_eq!(m.queued_at_end, 0);
        assert!(m.delivery_ratio() == 1.0);
        assert!(m.median_latency_s() < 5e-3, "{}", m.median_latency_s());
        assert!(m.jain_fairness() > 0.8);
    }

    #[test]
    fn overload_queues_and_latency_grows() {
        // Each 700-byte packet takes ≥ 682 µs of airtime+header: capacity
        // ≈ 1.4k packets/s aggregate (batched ×3), so 3 × 3000 pps swamps it.
        let mut cfg = light_cfg(3, 2);
        for l in cfg.loads.iter_mut() {
            *l = ClientLoad::poisson(3000.0, 700);
        }
        cfg.duration_s = 0.5;
        cfg.drain_timeout_s = 0.1;
        let light = TrafficSim::new(light_cfg(3, 2), StubBackend::perfect(4, 3))
            .unwrap()
            .run();
        let heavy = TrafficSim::new(cfg, StubBackend::perfect(4, 3))
            .unwrap()
            .run();
        assert!(heavy.queued_at_end > 0, "overload must leave a backlog");
        assert!(
            heavy.p99_latency_s() > 10.0 * light.p99_latency_s(),
            "light p99 {} vs heavy p99 {}",
            light.p99_latency_s(),
            heavy.p99_latency_s()
        );
    }

    #[test]
    fn retries_and_drops_recorded() {
        let mut cfg = light_cfg(2, 3);
        cfg.mac.retry_limit = 3;
        let mut backend = StubBackend::perfect(2, 2);
        backend.failing = vec![1];
        backend.fail_until_call = u64::MAX; // client 1 never ACKs
        let mut sim = TrafficSim::new(cfg, backend).unwrap();
        sim.trace.enable();
        let m = sim.run();
        assert!(m.retries > 0);
        assert!(m.dropped > 0);
        assert!(!sim.trace.query().kind("Retry").is_empty());
        let by_retry_limit = |k: &jmb_obs::EventKind| {
            matches!(
                k,
                jmb_obs::EventKind::Dropped {
                    cause: DropCause::RetryLimit,
                    ..
                }
            )
        };
        assert!(sim.trace.count(by_retry_limit) > 0);
        // Client 0 still drains fine (decoupled losses).
        assert!(m.per_client_bits[0] > 0.0);
        assert_eq!(m.per_client_bits[1], 0.0);
    }

    #[test]
    fn outage_degrades_but_does_not_stall() {
        let mut cfg = light_cfg(3, 4);
        cfg.outages = vec![ApOutage {
            ap: 0,
            down_at_s: 0.3,
            up_at_s: 0.7,
        }];
        let mut sim = TrafficSim::new(cfg, StubBackend::perfect(3, 3)).unwrap();
        sim.trace.enable();
        let m = sim.run();
        // Packets keep flowing throughout the outage window.
        assert_eq!(m.delivered, m.generated);
        assert!(sim
            .trace
            .events()
            .iter()
            .any(|e| matches!(e.kind, TraceKind::ApDown { ap: 0 })));
        assert!(sim
            .trace
            .events()
            .iter()
            .any(|e| matches!(e.kind, TraceKind::ApUp { ap: 0 })));
        // During the outage no lead election picks AP 0.
        for e in sim.trace.query().between(0.3, 0.7).events() {
            if let TraceKind::LeadElected { ap } = e.kind {
                assert_ne!(ap, 0, "dead AP elected lead at t={}", e.t);
            }
        }
    }

    #[test]
    fn all_aps_down_pauses_then_recovers() {
        let mut cfg = light_cfg(2, 5);
        cfg.outages = vec![
            ApOutage {
                ap: 0,
                down_at_s: 0.2,
                up_at_s: 0.6,
            },
            ApOutage {
                ap: 1,
                down_at_s: 0.2,
                up_at_s: 0.6,
            },
        ];
        let mut sim = TrafficSim::new(cfg, StubBackend::perfect(2, 2)).unwrap();
        let m = sim.run();
        // Everything generated is eventually delivered after recovery.
        assert_eq!(m.delivered, m.generated);
        assert_eq!(m.queued_at_end, 0);
        // The pause shows up as elevated p99 latency.
        assert!(m.p99_latency_s() > 0.05, "p99 {}", m.p99_latency_s());
    }

    #[test]
    fn deterministic_metrics() {
        let run = || {
            let mut cfg = light_cfg(3, 7);
            cfg.outages = vec![ApOutage {
                ap: 1,
                down_at_s: 0.4,
                up_at_s: 0.8,
            }];
            let mut sim = TrafficSim::new(cfg, StubBackend::perfect(3, 3)).unwrap();
            let m = sim.run();
            (
                m.csv_row(),
                m.latencies_s.clone(),
                m.per_client_bits.clone(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn config_validation() {
        assert!(TrafficSim::new(light_cfg(3, 1), StubBackend::perfect(2, 2)).is_err());
        let mut cfg = light_cfg(2, 1);
        cfg.outages = vec![ApOutage {
            ap: 9,
            down_at_s: 0.1,
            up_at_s: 0.2,
        }];
        assert!(TrafficSim::new(cfg, StubBackend::perfect(2, 2)).is_err());
        let mut cfg = light_cfg(2, 1);
        cfg.outages = vec![ApOutage {
            ap: 0,
            down_at_s: 0.2,
            up_at_s: 0.1,
        }];
        assert!(TrafficSim::new(cfg, StubBackend::perfect(2, 2)).is_err());
    }

    #[test]
    fn horizon_and_drain_are_range_checked() {
        // One row per rule: the field, values it refuses, and the value at
        // its edge it takes. Let through, an infinite horizon would hang
        // `run()`, a NaN one run empty, and a negative drain cut the run
        // short as `Completed`.
        type Set = fn(&mut TrafficConfig, f64);
        let duration: Set = |c, v| c.duration_s = v;
        let drain: Set = |c, v| c.drain_timeout_s = v;
        for (field, set, bad, edge) in [
            (
                "duration_s",
                duration,
                [f64::INFINITY, f64::NAN, 0.0, -1.0],
                1e-9,
            ),
            (
                "drain_timeout_s",
                drain,
                [f64::INFINITY, f64::NAN, -1e-9, -1.0],
                0.0,
            ),
        ] {
            for v in bad {
                let mut cfg = light_cfg(2, 1);
                set(&mut cfg, v);
                match cfg.validate(2, 2) {
                    Err(JmbError::BadConfig(msg)) => assert!(msg.starts_with(field), "{msg}"),
                    other => panic!("{field} = {v}: {other:?}"),
                }
            }
            let mut cfg = light_cfg(2, 1);
            set(&mut cfg, edge);
            assert_eq!(cfg.validate(2, 2), Ok(()), "{field} = {edge}");
        }
    }

    #[test]
    fn arrivals_that_cannot_advance_the_clock_are_rejected() {
        // A non-positive rate or mean period runs arrival times backwards
        // (the loop never reaches the horizon) or offers nothing at all.
        let onoff = |burst_rate_pps, mean_on_s, mean_off_s| ArrivalProcess::OnOff {
            burst_rate_pps,
            mean_on_s,
            mean_off_s,
        };
        for arrival in [
            ArrivalProcess::Poisson { rate_pps: -400.0 },
            ArrivalProcess::Poisson { rate_pps: 0.0 },
            onoff(4000.0, 0.02, -1.0),
            onoff(4000.0, 0.0, 0.03),
            ArrivalProcess::Poisson { rate_pps: f64::NAN },
            onoff(f64::INFINITY, 0.02, 0.03),
        ] {
            let mut cfg = light_cfg(2, 1);
            cfg.loads[1].arrival = arrival;
            let err = TrafficSim::new(cfg, StubBackend::perfect(2, 2)).err();
            assert!(
                matches!(err, Some(JmbError::BadConfig(_))),
                "{arrival:?}: {err:?}"
            );
        }
    }

    #[test]
    fn packet_sizes_no_frame_carries_are_bad_config() {
        // 4091 bytes + CRC-32 is the 12-bit LENGTH field's 4095: one byte
        // more and the sample PHY refuses every attempt, so the run would
        // deliver nothing without an error. An inverted uniform range
        // panics in the size draw; `bimodal 0 …` was let through where
        // `fixed 0` was not.
        let bimodal = |small, large, p_small| PacketSizeDist::Bimodal {
            small,
            large,
            p_small,
        };
        for (size, ok) in [
            (PacketSizeDist::Fixed(4091), true),
            (PacketSizeDist::Fixed(4092), false),
            (PacketSizeDist::Fixed(0), false),
            (PacketSizeDist::Uniform { min: 1, max: 4091 }, true),
            (PacketSizeDist::Uniform { min: 0, max: 100 }, false),
            (PacketSizeDist::Uniform { min: 200, max: 100 }, false),
            (
                PacketSizeDist::Uniform {
                    min: 1,
                    max: usize::MAX,
                },
                false,
            ),
            (bimodal(90, 1500, 0.5), true),
            (bimodal(0, 1500, 0.5), false),
            (bimodal(90, 70_000, 0.5), false),
            (bimodal(90, 1500, 1.5), false),
        ] {
            let mut cfg = light_cfg(2, 1);
            cfg.loads[1].size = size;
            assert_eq!(cfg.validate(2, 2).is_ok(), ok, "{size:?}");
            let built = TrafficSim::new(cfg, StubBackend::perfect(2, 2));
            assert_eq!(built.is_ok(), ok, "{size:?}");
        }
    }

    #[test]
    fn start_offset_shifts_the_clock_not_the_traffic() {
        // A run at start_s = S is the same run as at t = 0, just on a later
        // clock: same packet counts, same (relative) timeline shape, and
        // latencies matching to fp-rounding of the time shift.
        let run = |start_s: f64| {
            let mut cfg = light_cfg(3, 11);
            cfg.start_s = start_s;
            let mut sim = TrafficSim::new(cfg, StubBackend::perfect(3, 3)).unwrap();
            sim.run()
        };
        let base = run(0.0);
        let late = run(2.5);
        assert_eq!(base.generated, late.generated);
        assert_eq!(base.delivered, late.delivered);
        assert_eq!(base.dropped, late.dropped);
        assert_eq!(base.elapsed_s, base.elapsed_s.max(1.0));
        assert_eq!(base.timeline.len(), late.timeline.len());
        for (a, b) in base.timeline.iter().zip(late.timeline.iter()) {
            assert_eq!(a.t_s, b.t_s, "timeline stays start-relative");
            assert!((a.delivered_bits - b.delivered_bits).abs() < 1e-6);
        }
        assert_eq!(base.latencies_s.len(), late.latencies_s.len());
        for (a, b) in base.latencies_s.iter().zip(late.latencies_s.iter()) {
            assert!((a - b).abs() < 1e-9, "latency {a} vs {b}");
        }
        // Validation: a negative or non-finite start is rejected.
        let mut cfg = light_cfg(2, 11);
        cfg.start_s = -1.0;
        assert!(TrafficSim::new(cfg, StubBackend::perfect(2, 2)).is_err());
        let mut cfg = light_cfg(2, 11);
        cfg.start_s = f64::NAN;
        assert!(TrafficSim::new(cfg, StubBackend::perfect(2, 2)).is_err());
    }

    #[test]
    fn run_bounded_without_limits_matches_run() {
        let run = |bounded: bool| {
            let mut sim = TrafficSim::new(light_cfg(3, 9), StubBackend::perfect(3, 3)).unwrap();
            if bounded {
                let out = sim.run_bounded(RunLimits::none());
                assert_eq!(out.cause, StopCause::Completed);
                assert!(out.events > 0);
                out.metrics
            } else {
                sim.run()
            }
        };
        let (plain, bounded) = (run(false), run(true));
        assert_eq!(plain.csv_row(), bounded.csv_row());
        assert_eq!(plain.latencies_s, bounded.latencies_s);
        assert_eq!(plain.elapsed_s, bounded.elapsed_s);
    }

    #[test]
    fn run_bounded_max_events_stops_early() {
        let mut sim = TrafficSim::new(light_cfg(3, 9), StubBackend::perfect(3, 3)).unwrap();
        let full = sim.run_bounded(RunLimits::none());
        let budget = full.events / 2;
        let mut sim = TrafficSim::new(light_cfg(3, 9), StubBackend::perfect(3, 3)).unwrap();
        let out = sim.run_bounded(RunLimits {
            max_events: Some(budget),
            ..RunLimits::none()
        });
        assert_eq!(out.cause, StopCause::MaxEvents);
        assert_eq!(out.events, budget);
        assert!(out.metrics.delivered < full.metrics.delivered);
        // Truncated elapsed time is not padded up to duration_s.
        assert!(out.metrics.elapsed_s < full.metrics.elapsed_s);
    }

    #[test]
    fn run_bounded_sim_time_deadline() {
        let mut sim = TrafficSim::new(light_cfg(3, 9), StubBackend::perfect(3, 3)).unwrap();
        let out = sim.run_bounded(RunLimits {
            max_sim_time_s: Some(0.25),
            ..RunLimits::none()
        });
        assert_eq!(out.cause, StopCause::MaxSimTime);
        // No processed event lies past the deadline...
        assert!(out.metrics.elapsed_s <= 0.25, "{}", out.metrics.elapsed_s);
        // ...and a deadline past the drain horizon is never hit.
        let mut sim = TrafficSim::new(light_cfg(3, 9), StubBackend::perfect(3, 3)).unwrap();
        let out = sim.run_bounded(RunLimits {
            max_sim_time_s: Some(100.0),
            ..RunLimits::none()
        });
        assert_eq!(out.cause, StopCause::Completed);
    }

    #[test]
    fn run_bounded_stop_predicate_fires_wallclock() {
        // Busy enough that the predicate is polled many times within the
        // horizon: it fires at the first poll past 0.1 s.
        let busy = || {
            let mut cfg = light_cfg(3, 9);
            cfg.loads = vec![ClientLoad::poisson(3000.0, 700); 3];
            TrafficSim::new(cfg, StubBackend::perfect(3, 3)).unwrap()
        };
        let polls = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let seen = polls.clone();
        let out = busy().run_bounded(RunLimits {
            stop: Some(Box::new(move |events, t| {
                assert_eq!(events % STOP_POLL_EVENTS, 0, "polled off period");
                seen.set(seen.get() + 1);
                t > 0.1
            })),
            ..RunLimits::none()
        });
        assert_eq!(out.cause, StopCause::Wallclock);
        assert!(polls.get() >= 2, "fired at the first poll");
        assert!(out.metrics.elapsed_s < 1.0);
        // A predicate that never fires leaves the run untouched.
        let out = busy().run_bounded(RunLimits {
            stop: Some(Box::new(|_, _| false)),
            ..RunLimits::none()
        });
        assert_eq!(out.cause, StopCause::Completed);
    }

    #[test]
    fn timeline_accumulates() {
        let cfg = light_cfg(2, 8);
        let mut sim = TrafficSim::new(cfg, StubBackend::perfect(2, 2)).unwrap();
        let m = sim.run();
        assert!(!m.timeline.is_empty());
        let total: f64 = m.timeline.iter().map(|b| b.delivered_bits).sum();
        let per_client: f64 = m.per_client_bits.iter().sum();
        assert!((total - per_client).abs() < 1e-6);
    }
}
