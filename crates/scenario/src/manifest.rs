//! The manifest model, and the one key table that reads, bounds and prints it.
//!
//! A manifest is line-oriented text: header keys, then bracketed sections.
//! `#` starts a comment, blank lines are ignored, and a line is a key
//! followed by its whitespace-separated value tokens
//! (`tests/fixtures/good.scn` uses every section). Every key is one row of
//! `KEYS`: where it is legal (its section and, under `[topology]`, the
//! `kind`), whether it is required, optional or repeatable, and its
//! `Slot` — the field of the model it lands in, whose variant is the
//! value grammar and carries the finite range a number must hold, each
//! range with the reason for its edges. [`Manifest::parse`] is one loop
//! over the text against that table: an unknown section or key (the
//! message lists what the table has there), wrong arity, a value out of
//! range and a key given twice are [`ScenarioError::Parse`] with the line
//! number; a required key that never appears is
//! [`ScenarioError::Invalid`]. [`Manifest::to_text`] walks the same rows
//! in order, so a key cannot be read but not printed, and
//! `parse(to_text(m)) == m`. Only `[assertions]` is not key/value: its
//! lines are sentences of [`crate::assertion`].
//!
//! The model holds the simulator's own types, and [`Manifest::validate`]
//! ends by building the run's plan (`runner::plan`): every rule a
//! library constructor enforces is asked of the library, and a manifest
//! that parses is one `run` will start.

use crate::assertion::{parse_line, Assertion, CITY_METRICS, SINGLE_METRICS};
use crate::error::ScenarioError;
use jmb_obs::SyncStrategyId;
use jmb_phy::frame::MAX_PSDU;
use jmb_sim::{FaultConfig, FaultError, FaultSchedule, FaultWindow};
use jmb_traffic::{ApOutage, ArrivalProcess, ClientLoad, PacketSizeDist};
use std::any::Any;
use std::mem::discriminant;

/// Which PHY serves the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Per-subcarrier [`jmb_traffic::FastBackend`] — the default.
    #[default]
    Fast,
    /// Sample-level [`jmb_traffic::SampleBackend`] — full OFDM + CRC
    /// validation.
    Sample,
}

/// The deployment under test.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// One cell: `aps × clients`, with one SNR per client (a single value
    /// is replicated to every client).
    Single {
        /// Number of APs.
        aps: usize,
        /// Number of clients.
        clients: usize,
        /// Per-client SNR, dB (length 1 or `clients`).
        snr_db: Vec<f64>,
    },
    /// A `cols × rows` city grid of cells with frequency reuse; co-channel
    /// cells interfere (the city layer models the leakage).
    City {
        /// Grid columns.
        cols: usize,
        /// Grid rows.
        rows: usize,
        /// Frequency reuse factor (1, 3, or 7).
        reuse: u32,
        /// APs per cell.
        aps_per_cell: usize,
        /// Clients per cell.
        clients_per_cell: usize,
        /// Cell spacing, metres.
        spacing_m: f64,
        /// Client SNR, dB (scalar — every client in every cell).
        snr_db: f64,
    },
}

/// The offered load and run horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Arrival process and packet sizes (the same for every client).
    pub load: ClientLoad,
    /// Load-generation horizon, seconds.
    pub duration_s: f64,
    /// Queue-drain grace after the horizon, seconds.
    pub drain_s: f64,
}

/// The whole `[faults]` section. A per-slave override in a config names a
/// slave index, `1..aps` (AP 0 leads and hears no header).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Probabilities outside every window.
    pub base: FaultConfig,
    /// Storm windows `[from_s, until_s)`, in declaration order (the
    /// schedule's half-open last-added-wins semantics — see
    /// [`jmb_sim::FaultSchedule`]).
    pub windows: Vec<FaultWindow>,
    /// AP outages.
    pub outages: Vec<ApOutage>,
}

impl FaultSpec {
    /// True when the section would change nothing: no probabilities, no
    /// windows, no outages.
    fn is_empty(&self) -> bool {
        self.base.is_clean() && self.windows.is_empty() && self.outages.is_empty()
    }
}

/// Resource limits for the run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Limits {
    /// Simulated-time budget, seconds.
    pub max_sim_time_s: Option<f64>,
    /// Processed-event budget.
    pub max_events: Option<u64>,
    /// Wall-clock budget, seconds (graceful early stop, not a kill).
    pub wall_clock_s: Option<f64>,
}

/// A parsed, validated scenario manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Format version (currently always 1).
    pub version: u32,
    /// Scenario name (used in artifacts; `[A-Za-z0-9._-]+`).
    pub name: String,
    /// Default master seed (overridable on the CLI).
    pub seed: u64,
    /// Deployment under test.
    pub topology: Topology,
    /// PHY backend.
    pub backend: Backend,
    /// Inter-AP synchronization strategy.
    pub sync: SyncStrategyId,
    /// Offered load and horizon.
    pub traffic: TrafficSpec,
    /// Fault schedule.
    pub faults: FaultSpec,
    /// Resource limits.
    pub limits: Limits,
    /// Pass/fail conditions, in declaration order.
    pub assertions: Vec<Assertion>,
}

pub(crate) fn perr(line: usize, message: impl Into<String>) -> ScenarioError {
    ScenarioError::Parse {
        line,
        message: message.into(),
    }
}

pub(crate) fn finite(line: usize, what: &str, s: &str) -> Result<f64, ScenarioError> {
    let v: f64 = s
        .parse()
        .map_err(|_| perr(line, format!("{what}: `{s}` is not a number")))?;
    if !v.is_finite() {
        return Err(perr(line, format!("{what}: `{s}` must be finite")));
    }
    Ok(v)
}

/// The closed range a number must lie in, and why its edges are there.
#[derive(Clone, Copy)]
struct Range(f64, f64, &'static str);

impl Range {
    fn num(&self, line: usize, what: &str, s: &str) -> Result<f64, ScenarioError> {
        let (v, Range(lo, hi, why)) = (finite(line, what, s)?, *self);
        if !(lo..=hi).contains(&v) {
            let msg = format!("{what}: {s} outside [{lo}, {hi}] ({why})");
            return Err(perr(line, msg));
        }
        Ok(v)
    }

    /// An integer is read exactly and compared as the nearest f64, which
    /// keeps its order against the edges.
    fn int(&self, line: usize, what: &str, s: &str) -> Result<u64, ScenarioError> {
        let v: u64 = s
            .parse()
            .map_err(|_| perr(line, format!("{what}: `{s}` is not a non-negative integer")))?;
        self.num(line, what, s).map(|_| v)
    }
}

const ANY_U64: Range = Range(0.0, u64::MAX as f64, "any 64-bit value");
/// The tops of the count ranges are sizes `tests/caps.rs` builds and runs
/// (release): 10 × 512 on `backend fast` in 0.2 s; 10 × 10 on `backend
/// sample`, where every AP is a rendered waveform per frame, at 0.6 s per
/// ms of simulated time (16 × 16: 2.2 s); a 16 × 16 grid in 0.04 s.
const APS: Range = Range(1.0, 10.0, "the paper's largest array has 10 APs");
const AP_INDEX: Range = Range(0.0, APS.1 - 1.0, "an AP of the largest cell");
const CLIENTS: Range = Range(1.0, 512.0, "city_sweep's densest cell has 400 clients");
const GRID: Range = Range(1.0, 16.0, "city_sweep's full grid is 16 x 16");
const BYTES: Range = Range(
    1.0,
    (MAX_PSDU - 4) as f64,
    "payload + CRC-32 must fit the frame's 12-bit LENGTH field",
);
const PROB: Range = Range(0.0, 1.0, "a probability");
/// Room on both sides of the rate table; far outside it 10^(snr/10)
/// overflows and zero-forcing meets a singular matrix (measured: past
/// 3 080 dB).
const SNR_DB: Range = Range(-20.0, 60.0, "the rate table spans 4 to 25 dB");
const SPACING_M: Range = Range(1.0, 1e5, "cells one metre to 100 km apart");
/// With [`RATE_PPS`]: rate × (duration + drain) ≤ 2 × 10¹² < 2⁵², so the
/// mean inter-arrival gap stays above the f64 clock's resolution at the
/// horizon and the arrival clock advances.
const TIME_S: Range = Range(0.0, 1e5, "a run covers at most 10^5 simulated seconds");
const SPAN_S: Range = Range(1e-6, TIME_S.1, "one microsecond to 10^5 seconds");
const RATE_PPS: Range = Range(
    1e-3,
    1e7,
    "rate x horizon must stay below 2^52 for the arrival clock to advance",
);

/// The field a key lands in. The variant is the value grammar; where the
/// value is a number it carries the range the number must hold.
enum Slot<'a> {
    Count(&'a mut usize, Range),
    Int(&'a mut u64, Range),
    OptInt(&'a mut Option<u64>, Range),
    Num(&'a mut f64, Range),
    OptNum(&'a mut Option<f64>, Range),
    /// 0 is the absence of the fault and is not printed.
    Prob(&'a mut f64),
    /// Comma-separated.
    List(&'a mut Vec<f64>, Range),
    /// `[A-Za-z0-9._-]+`.
    Name(&'a mut String),
    IntOf(&'a mut u32, &'static [(&'static str, u32)]),
    /// The shape ([`KINDS`]), whose own keys then fill it in.
    Kind(&'a mut Topology),
    Backend(&'a mut Backend),
    /// One strategy token; the default is not printed.
    Sync(&'a mut SyncStrategyId),
    /// `poisson RATE` or `onoff BURST ON OFF`.
    Arrival(&'a mut ArrivalProcess),
    /// `fixed N`, `uniform MIN MAX` or `bimodal SMALL LARGE P`.
    Packet(&'a mut PacketSizeDist),
    /// `AP:PROB`, one more per-slave sync-loss override.
    Slaves(&'a mut Vec<(usize, f64)>),
    /// `FROM UNTIL [k=v ...]`, one more window; the `k=v` are the
    /// [`Scope::Knob`] rows.
    Windows(&'a mut Vec<FaultWindow>),
    /// `k=v ...`, one more outage; the `k=v` are the [`Scope::Outage`]
    /// rows, all of them.
    Outages(&'a mut Vec<ApOutage>),
}

const BACKENDS: [(&str, Backend); 2] = [("fast", Backend::Fast), ("sample", Backend::Sample)];
const KINDS: [(&str, Topology); 2] = [
    (
        "single",
        Topology::Single {
            aps: 0,
            clients: 0,
            snr_db: Vec::new(),
        },
    ),
    (
        "city",
        Topology::City {
            cols: 0,
            rows: 0,
            reuse: 0,
            aps_per_cell: 0,
            clients_per_cell: 0,
            spacing_m: 0.0,
            snr_db: 0.0,
        },
    ),
];

fn strategies() -> [(&'static str, SyncStrategyId); 3] {
    SyncStrategyId::ALL.map(|s| (s.token(), s))
}

/// The value `v` spells in `table`, or the error that lists the table.
fn word<T: Clone>(ln: usize, key: &str, v: &str, table: &[(&str, T)]) -> Result<T, ScenarioError> {
    let hit = table.iter().find(|(w, _)| *w == v);
    hit.map(|(_, t)| t.clone()).ok_or_else(|| {
        let words: Vec<&str> = table.iter().map(|(w, _)| *w).collect();
        let list = match words.split_last() {
            Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
            _ => words.concat(),
        };
        perr(ln, format!("{key} must be {list}, got `{v}`"))
    })
}

/// How `table` spells the value `is` picks out.
fn spelled<T>(table: &[(&str, T)], is: impl Fn(&T) -> bool) -> Vec<String> {
    let hits = table.iter().filter(|(_, t)| is(t));
    hits.map(|(w, _)| w.to_string()).collect()
}

impl Slot<'_> {
    /// Reads the key's value tokens into the field.
    fn read(self, ln: usize, key: &str, toks: &[&str]) -> Result<(), ScenarioError> {
        let one = || match toks {
            [v] => Ok(*v),
            _ => Err(perr(ln, format!("`{key}` needs exactly one value"))),
        };
        let bytes = |what, s| BYTES.int(ln, what, s).map(|n| n as usize);
        match self {
            // `as`: the range of every count is far below `usize::MAX`.
            Slot::Count(f, range) => *f = range.int(ln, key, one()?)? as usize,
            Slot::Int(f, range) => *f = range.int(ln, key, one()?)?,
            Slot::OptInt(f, range) => *f = Some(range.int(ln, key, one()?)?),
            Slot::Num(f, range) => *f = range.num(ln, key, one()?)?,
            Slot::OptNum(f, range) => *f = Some(range.num(ln, key, one()?)?),
            Slot::Prob(f) => *f = PROB.num(ln, key, one()?)?,
            Slot::List(f, range) => {
                let parts = one()?.split(',');
                *f = parts
                    .map(|p| range.num(ln, key, p))
                    .collect::<Result<_, _>>()?;
            }
            Slot::Name(f) => {
                let v = one()?;
                let ok = |b: u8| b.is_ascii_alphanumeric() || b"._-".contains(&b);
                if !v.bytes().all(ok) {
                    let msg = format!("name `{v}` must be [A-Za-z0-9._-]+ (it names artifacts)");
                    return Err(perr(ln, msg));
                }
                *f = v.to_string();
            }
            Slot::IntOf(f, table) => *f = word(ln, key, one()?, table)?,
            Slot::Kind(f) => *f = word(ln, key, one()?, &KINDS)?,
            Slot::Backend(f) => *f = word(ln, key, one()?, &BACKENDS)?,
            Slot::Sync(f) => *f = word(ln, key, one()?, &strategies())?,
            Slot::Arrival(f) => {
                *f = match toks {
                    ["poisson", r] => ArrivalProcess::Poisson {
                        rate_pps: RATE_PPS.num(ln, "poisson rate", r)?,
                    },
                    ["onoff", b, on, off] => ArrivalProcess::OnOff {
                        burst_rate_pps: RATE_PPS.num(ln, "onoff burst rate", b)?,
                        mean_on_s: SPAN_S.num(ln, "onoff ON mean", on)?,
                        mean_off_s: SPAN_S.num(ln, "onoff OFF mean", off)?,
                    },
                    _ => {
                        let msg = "arrival needs `poisson RATE` or `onoff BURST ON OFF`";
                        return Err(perr(ln, msg));
                    }
                }
            }
            Slot::Packet(f) => {
                *f = match toks {
                    ["fixed", n] => PacketSizeDist::Fixed(bytes("packet size", n)?),
                    ["uniform", lo, hi] => PacketSizeDist::Uniform {
                        min: bytes("min packet size", lo)?,
                        max: bytes("max packet size", hi)?,
                    },
                    ["bimodal", s, l, p] => PacketSizeDist::Bimodal {
                        small: bytes("small packet size", s)?,
                        large: bytes("large packet size", l)?,
                        p_small: PROB.num(ln, "small-packet probability", p)?,
                    },
                    _ => {
                        let msg = "packet needs `fixed N`, `uniform MIN MAX` or \
                                   `bimodal SMALL LARGE P`";
                        return Err(perr(ln, msg));
                    }
                }
            }
            Slot::Slaves(f) => {
                let v = one()?;
                let (ap, p) = v
                    .split_once(':')
                    .ok_or_else(|| perr(ln, format!("slave override needs AP:PROB, got `{v}`")))?;
                f.push((
                    AP_INDEX.int(ln, "slave AP index", ap)? as usize,
                    PROB.num(ln, "slave sync-loss probability", p)?,
                ));
            }
            Slot::Windows(f) => {
                let [from, until, pairs @ ..] = toks else {
                    return Err(perr(ln, "window needs `FROM UNTIL [k=v ...]`"));
                };
                let mut w = FaultWindow {
                    from_s: TIME_S.num(ln, "window start", from)?,
                    until_s: TIME_S.num(ln, "window end", until)?,
                    config: FaultConfig::default(),
                };
                // The schedule owns the rule against an empty or inverted window.
                FaultSchedule::none()
                    .with_window(w.from_s, w.until_s, FaultConfig::default())
                    .map_err(|e| perr(ln, e.to_string()))?;
                read_pairs(Scope::Knob, &mut w.config, ln, pairs)?;
                f.push(w);
            }
            Slot::Outages(f) => {
                let mut o = ApOutage {
                    ap: 0,
                    down_at_s: 0.0,
                    up_at_s: 0.0,
                };
                if let Some(k) = read_pairs(Scope::Outage, &mut o, ln, toks)? {
                    let msg = format!("outage needs ap=N from=T until=T (no `{}`)", k.name);
                    return Err(perr(ln, msg));
                }
                if o.up_at_s <= o.down_at_s {
                    let (from, until) = (o.down_at_s, o.up_at_s);
                    let msg = format!("outage [{from}, {until}) is empty or inverted");
                    return Err(perr(ln, msg));
                }
                f.push(o);
            }
        }
        Ok(())
    }

    /// The value tokens the field prints, one line (or `k=v`) each; none
    /// omits the key.
    fn show(self) -> Vec<String> {
        match self {
            Slot::Count(f, _) => vec![f.to_string()],
            Slot::Int(f, _) => vec![f.to_string()],
            Slot::OptInt(f, _) => f.iter().map(u64::to_string).collect(),
            Slot::Num(f, _) => vec![f.to_string()],
            Slot::OptNum(f, _) => f.iter().map(f64::to_string).collect(),
            Slot::Prob(f) if *f == 0.0 => Vec::new(),
            Slot::Prob(f) => vec![f.to_string()],
            Slot::List(f, _) => {
                let parts: Vec<String> = f.iter().map(f64::to_string).collect();
                vec![parts.join(",")]
            }
            Slot::Name(f) => vec![f.clone()],
            Slot::IntOf(f, _) => vec![f.to_string()],
            Slot::Kind(f) => spelled(&KINDS, |t| discriminant(t) == discriminant(f)),
            Slot::Backend(f) => spelled(&BACKENDS, |b| b == f),
            Slot::Sync(f) if *f == SyncStrategyId::default() => Vec::new(),
            Slot::Sync(f) => spelled(&strategies(), |s| s == f),
            Slot::Arrival(f) => vec![match *f {
                ArrivalProcess::Poisson { rate_pps } => format!("poisson {rate_pps}"),
                ArrivalProcess::OnOff {
                    burst_rate_pps,
                    mean_on_s,
                    mean_off_s,
                } => format!("onoff {burst_rate_pps} {mean_on_s} {mean_off_s}"),
            }],
            Slot::Packet(f) => vec![match *f {
                PacketSizeDist::Fixed(n) => format!("fixed {n}"),
                PacketSizeDist::Uniform { min, max } => format!("uniform {min} {max}"),
                PacketSizeDist::Bimodal {
                    small,
                    large,
                    p_small,
                } => format!("bimodal {small} {large} {p_small}"),
            }],
            Slot::Slaves(f) => f.iter().map(|(ap, p)| format!("{ap}:{p}")).collect(),
            Slot::Windows(f) => {
                let line = |w: &mut FaultWindow| {
                    let pairs = pairs(Scope::Knob, &mut w.config);
                    format!("{} {}{pairs}", w.from_s, w.until_s)
                };
                f.iter_mut().map(line).collect()
            }
            Slot::Outages(f) => {
                let line = |o: &mut ApOutage| pairs(Scope::Outage, o).trim_start().to_string();
                f.iter_mut().map(line).collect()
            }
        }
    }
}

/// Where a key is legal. `Single` and `City` are the two shapes of
/// `[topology]`, chosen by its `kind`; a `Knob` is a `[faults]` key that a
/// `window` also takes as `k=v`; `Outage` keys exist only as the `k=v` of
/// an `outage` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    Header,
    Topology,
    Single,
    City,
    Channel,
    Sync,
    Traffic,
    Knob,
    Faults,
    Outage,
    Limits,
    Assertions,
}

impl Scope {
    /// The bracketed sections, in canonical order.
    const SECTIONS: [Scope; 7] = [
        Scope::Topology,
        Scope::Channel,
        Scope::Sync,
        Scope::Traffic,
        Scope::Faults,
        Scope::Limits,
        Scope::Assertions,
    ];

    /// The section a scope's keys sit in.
    fn section(self) -> Scope {
        match self {
            Scope::Single | Scope::City => Scope::Topology,
            Scope::Knob => Scope::Faults,
            s => s,
        }
    }

    /// A scope's name in `[brackets]` and in diagnostics.
    fn label(self) -> String {
        format!("{self:?}").to_lowercase()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Need {
    /// Exactly once.
    Required,
    /// At most once.
    Optional,
    /// Any number of times, each occurrence one more entry.
    Repeatable,
}

/// One key: where it is legal, how often, and its field of the record
/// handed in — the manifest, one `FaultConfig` or one `ApOutage`; `None`
/// when the record is of another type or has no such field (a city key on
/// a single-cell topology).
struct Key {
    scope: Scope,
    name: &'static str,
    need: Need,
    at: fn(&mut dyn Any) -> Option<Slot<'_>>,
}

/// `key!(Scope, "name" => path.to.field, Need, Slot(range))`. The scope
/// picks the record the path starts from: one `FaultConfig` for a knob,
/// one `ApOutage` for an outage key, that variant of the manifest's
/// `topology` for the two shapes, the manifest for the rest.
macro_rules! key {
    (@in $root:ty, $scope:ident, $name:literal => $($path:ident).+, $need:ident, $slot:ident $(($range:expr))?) => {
        Key {
            scope: Scope::$scope,
            name: $name,
            need: Need::$need,
            at: |r| Some(Slot::$slot(&mut r.downcast_mut::<$root>()?.$($path).+ $(, $range)?)),
        }
    };
    (@shape $shape:ident, $name:literal => $field:ident, $need:ident, $slot:ident $(($range:expr))?) => {
        Key {
            scope: Scope::$shape,
            name: $name,
            need: Need::$need,
            at: |r| match &mut r.downcast_mut::<Manifest>()?.topology {
                Topology::$shape { $field, .. } => Some(Slot::$slot($field $(, $range)?)),
                _ => None,
            },
        }
    };
    (Single, $($row:tt)+) => { key!(@shape Single, $($row)+) };
    (City, $($row:tt)+) => { key!(@shape City, $($row)+) };
    (Knob, $($row:tt)+) => { key!(@in FaultConfig, Knob, $($row)+) };
    (Outage, $($row:tt)+) => { key!(@in ApOutage, Outage, $($row)+) };
    ($scope:ident, $($row:tt)+) => { key!(@in Manifest, $scope, $($row)+) };
}

/// Every key of the format, in canonical (printing) order.
const KEYS: &[Key] = &[
    key!(Header, "version" => version, Required, IntOf(&[("1", 1)])),
    key!(Header, "name" => name, Required, Name),
    key!(Header, "seed" => seed, Optional, Int(ANY_U64)),
    key!(Topology, "kind" => topology, Required, Kind),
    key!(Single, "aps" => aps, Required, Count(APS)),
    key!(Single, "clients" => clients, Required, Count(CLIENTS)),
    key!(Single, "snr_db" => snr_db, Required, List(SNR_DB)),
    key!(City, "cols" => cols, Required, Count(GRID)),
    key!(City, "rows" => rows, Required, Count(GRID)),
    key!(City, "reuse" => reuse, Required, IntOf(&[("1", 1), ("3", 3), ("7", 7)])),
    key!(City, "aps_per_cell" => aps_per_cell, Required, Count(APS)),
    key!(City, "clients_per_cell" => clients_per_cell, Required, Count(CLIENTS)),
    key!(City, "spacing_m" => spacing_m, Required, Num(SPACING_M)),
    key!(City, "snr_db" => snr_db, Required, Num(SNR_DB)),
    key!(Channel, "backend" => backend, Optional, Backend),
    key!(Sync, "strategy" => sync, Optional, Sync),
    key!(Traffic, "arrival" => traffic.load.arrival, Required, Arrival),
    key!(Traffic, "packet" => traffic.load.size, Required, Packet),
    key!(Traffic, "duration_s" => traffic.duration_s, Required, Num(SPAN_S)),
    key!(Traffic, "drain_s" => traffic.drain_s, Optional, Num(TIME_S)),
    key!(Knob, "drop" => drop_chance, Optional, Prob),
    key!(Knob, "corrupt" => corrupt_chance, Optional, Prob),
    key!(Knob, "sync_loss" => control.sync_loss_chance, Optional, Prob),
    key!(Knob, "meas_loss" => control.meas_loss_chance, Optional, Prob),
    key!(Knob, "slave" => control.per_slave_sync_loss, Repeatable, Slaves),
    key!(Faults, "window" => faults.windows, Repeatable, Windows),
    key!(Faults, "outage" => faults.outages, Repeatable, Outages),
    key!(Outage, "ap" => ap, Required, Count(AP_INDEX)),
    key!(Outage, "from" => down_at_s, Required, Num(TIME_S)),
    key!(Outage, "until" => up_at_s, Required, Num(TIME_S)),
    key!(Limits, "max_sim_time_s" => limits.max_sim_time_s, Optional, OptNum(SPAN_S)),
    key!(Limits, "max_events" => limits.max_events, Optional, OptInt(ANY_U64)),
    key!(Limits, "wall_clock_s" => limits.wall_clock_s, Optional, OptNum(SPAN_S)),
];

/// Looks `name` up among the rows of `scopes` — the error lists what they
/// do have — and notes in `seen`, the line each row of [`KEYS`] was first
/// given on, that it is on line `ln`, unless it may appear once and has.
fn claim(
    seen: &mut [Option<usize>],
    scopes: &[Scope],
    name: &str,
    ln: usize,
) -> Result<&'static Key, ScenarioError> {
    let legal = || {
        KEYS.iter()
            .enumerate()
            .filter(|(_, k)| scopes.contains(&k.scope))
    };
    let Some((i, k)) = legal().find(|(_, k)| k.name == name) else {
        let label = scopes.last().map_or_else(String::new, |s| s.label());
        let names: Vec<&str> = legal().map(|(_, k)| k.name).collect();
        let msg = format!(
            "unknown {label} key `{name}` (expected {})",
            names.join("/")
        );
        return Err(perr(ln, msg));
    };
    match seen[i] {
        Some(first) if k.need != Need::Repeatable => {
            let msg = format!("duplicate `{name}` (first given on line {first})");
            Err(perr(ln, msg))
        }
        _ => {
            seen[i].get_or_insert(ln);
            Ok(k)
        }
    }
}

/// The first required key of `scopes` that was never given.
fn missing(seen: &[Option<usize>], scopes: &[Scope]) -> Option<&'static Key> {
    let absent = KEYS.iter().zip(seen).filter(|(_, line)| line.is_none());
    let mut required = absent.filter(|(k, _)| k.need == Need::Required);
    required
        .find(|(k, _)| scopes.contains(&k.scope))
        .map(|(k, _)| k)
}

/// Reads `k=v` tokens into `rec` against the rows of `scope` — lookup,
/// range and duplicates as for a key on a line of its own — and returns
/// the first required key of the scope that was not among them.
fn read_pairs(
    scope: Scope,
    rec: &mut dyn Any,
    ln: usize,
    toks: &[&str],
) -> Result<Option<&'static Key>, ScenarioError> {
    let mut seen = vec![None; KEYS.len()];
    for tok in toks {
        let (name, v) = tok
            .split_once('=')
            .ok_or_else(|| perr(ln, format!("expected key=value, got `{tok}`")))?;
        let k = claim(&mut seen, &[scope], name, ln)?;
        if let Some(slot) = (k.at)(rec) {
            slot.read(ln, name, &[v])?;
        }
    }
    Ok(missing(&seen, &[scope]))
}

/// `rec` as the ` k=v` tokens of `scope`'s rows.
fn pairs(scope: Scope, rec: &mut dyn Any) -> String {
    let mut out = String::new();
    for k in KEYS.iter().filter(|k| k.scope == scope) {
        for v in (k.at)(rec).map_or_else(Vec::new, Slot::show) {
            out += &format!(" {}={v}", k.name);
        }
    }
    out
}

/// The configs a schedule is built from go through
/// [`jmb_sim::FaultConfigBuilder::build`], which owns the probability
/// rules: a config that did not come from [`Manifest::parse`] is held to
/// them here.
pub(crate) fn rebuilt(c: &FaultConfig) -> Result<FaultConfig, FaultError> {
    let mut b = FaultConfig::builder()
        .drop_chance(c.drop_chance)
        .corrupt_chance(c.corrupt_chance)
        .sync_loss_chance(c.control.sync_loss_chance)
        .meas_loss_chance(c.control.meas_loss_chance);
    for &(ap, p) in &c.control.per_slave_sync_loss {
        b = b.per_slave_sync_loss(ap, p);
    }
    b.build()
}

impl Manifest {
    /// What the optional keys hold until the text says otherwise (the
    /// required ones are overwritten before anyone reads them).
    fn blank() -> Manifest {
        Manifest {
            version: 1,
            name: String::new(),
            seed: 1,
            topology: KINDS[0].1.clone(),
            backend: Backend::default(),
            sync: SyncStrategyId::default(),
            traffic: TrafficSpec {
                load: ClientLoad::poisson(0.0, 0),
                duration_s: 0.0,
                drain_s: 0.0,
            },
            faults: FaultSpec::default(),
            limits: Limits::default(),
            assertions: Vec::new(),
        }
    }

    /// The scope of the topology's own keys.
    fn shape(&self) -> Scope {
        match self.topology {
            Topology::Single { .. } => Scope::Single,
            Topology::City { .. } => Scope::City,
        }
    }

    /// Parses manifest text, reporting every problem with its line number.
    pub fn parse(text: &str) -> Result<Manifest, ScenarioError> {
        let mut m = Manifest::blank();
        let mut section = Scope::Header;
        let mut opened: Vec<(Scope, usize)> = Vec::new();
        let mut seen = vec![None; KEYS.len()];

        for (i, raw) in text.lines().enumerate() {
            let ln = i + 1;
            let line = raw.split('#').next().unwrap_or_default().trim();
            if line.is_empty() {
                continue;
            }
            if let Some(sec) = line.strip_prefix('[') {
                let sec = sec
                    .strip_suffix(']')
                    .ok_or_else(|| perr(ln, format!("unterminated section header `{line}`")))?;
                let known = Scope::SECTIONS.into_iter().find(|s| s.label() == sec);
                section = known.ok_or_else(|| {
                    let names = Scope::SECTIONS.map(Scope::label).join("/");
                    perr(ln, format!("unknown section `[{sec}]` (expected {names})"))
                })?;
                if let Some(&(_, first)) = opened.iter().find(|o| o.0 == section) {
                    let msg = format!("duplicate section `[{sec}]` (first opened on line {first})");
                    return Err(perr(ln, msg));
                }
                opened.push((section, ln));
                continue;
            }

            let mut toks = line.split_whitespace();
            // A non-empty line always has a first token.
            let name = toks.next().unwrap_or_default();
            let rest: Vec<&str> = toks.collect();
            if section == Scope::Assertions {
                m.assertions.push(parse_line(ln, name, &rest)?);
                continue;
            }
            let kind_given = missing(&seen, &[Scope::Topology]).is_none();
            let scopes = match section {
                Scope::Topology if kind_given => vec![Scope::Topology, m.shape()],
                Scope::Topology => vec![Scope::Topology, Scope::Single, Scope::City],
                Scope::Faults => vec![Scope::Knob, Scope::Faults],
                s => vec![s],
            };
            let k = claim(&mut seen, &scopes, name, ln)?;
            if matches!(k.scope, Scope::Single | Scope::City) && !kind_given {
                return Err(perr(ln, "`kind single|city` must come first in [topology]"));
            }
            let rec: &mut dyn Any = match k.scope {
                Scope::Knob => &mut m.faults.base,
                _ => &mut m,
            };
            if let Some(slot) = (k.at)(rec) {
                slot.read(ln, name, &rest)?;
            }
        }

        let top = [Scope::Header, Scope::Topology, m.shape(), Scope::Traffic];
        if let Some(k) = missing(&seen, &top) {
            let msg = format!(
                "manifest is missing the {} key `{}`",
                k.scope.label(),
                k.name
            );
            return Err(ScenarioError::Invalid(msg));
        }
        m.validate()?;
        Ok(m)
    }

    /// What the per-line parser cannot see: the rules that tie sections
    /// together, then — by building the run's plan (`runner::plan`) —
    /// every rule a library config enforces on its own. Called by
    /// [`Manifest::parse`]; public so generated manifests can be checked
    /// before serialization.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let inv = |m: String| Err(ScenarioError::Invalid(m));
        match &self.topology {
            Topology::Single {
                aps,
                clients,
                snr_db,
            } => {
                if snr_db.len() != 1 && snr_db.len() != *clients {
                    return inv(format!(
                        "snr_db lists {} values for {clients} clients (need 1 or {clients})",
                        snr_db.len()
                    ));
                }
                // An override for an AP that never hears a sync header (the
                // lead, or one past the array) would be looked up by nobody.
                let windows = self.faults.windows.iter().map(|w| &w.config);
                for c in std::iter::once(&self.faults.base).chain(windows) {
                    let overrides = &c.control.per_slave_sync_loss;
                    if let Some(&(ap, _)) = overrides.iter().find(|s| s.0 == 0 || s.0 >= *aps) {
                        return inv(format!(
                            "slave override names AP {ap}; a {aps}-AP cell has slaves 1..{aps}"
                        ));
                    }
                }
            }
            Topology::City { .. } => {
                if self.backend == Backend::Sample {
                    return inv("city runs use the fast backend internally; \
                                `backend sample` is not available"
                        .into());
                }
                if self.sync != SyncStrategyId::default() {
                    return inv("city runs pin the paper's lead/slave resync; \
                                `[sync]` strategy selection needs a single-cell scenario"
                        .into());
                }
                if !self.faults.is_empty() {
                    return inv("city runs have no per-cell fault hook yet; \
                                move faults to a single-cell scenario"
                        .into());
                }
                if self.limits.max_events.is_some() || self.limits.wall_clock_s.is_some() {
                    return inv("city runs only honour max_sim_time_s \
                                (cells run as whole epochs)"
                        .into());
                }
            }
        }
        let city = self.shape() == Scope::City;
        for a in &self.assertions {
            if let Assertion::Metric { name, .. } = a {
                if city && SINGLE_METRICS.contains(&name.as_str()) {
                    return inv(format!("metric `{name}` only exists in single-cell runs"));
                }
                if !city && CITY_METRICS.contains(&name.as_str()) {
                    return inv(format!("metric `{name}` only exists in city runs"));
                }
            }
        }
        crate::runner::plan(self, self.seed, 1).map(drop)
    }

    /// Canonical serialization: the table's order, one key per line,
    /// floats in shortest-roundtrip form. `parse(to_text(m)) == m`.
    pub fn to_text(&self) -> String {
        // Printing reads through the accessors parsing writes through, on a
        // copy: a key cannot be read into one field and printed from another.
        let mut m = self.clone();
        let (mut text, mut section) = (String::new(), Scope::Header);
        let mut line = |scope: Scope, body: String| {
            if scope != section {
                text += &format!("\n[{}]\n", scope.label());
                section = scope;
            }
            text += &body;
            text.push('\n');
        };
        for k in KEYS {
            let rec: &mut dyn Any = match k.scope {
                Scope::Knob => &mut m.faults.base,
                _ => &mut m,
            };
            for v in (k.at)(rec).map_or_else(Vec::new, Slot::show) {
                line(k.scope.section(), format!("{} {v}", k.name));
            }
        }
        for a in &self.assertions {
            line(Scope::Assertions, a.text());
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::Op;

    const GOOD: &str = include_str!("../tests/fixtures/good.scn");

    const CITY: &str = include_str!("../tests/fixtures/city.scn");

    #[test]
    fn parses_the_kitchen_sink() {
        let m = Manifest::parse(GOOD).unwrap();
        assert_eq!(m.name, "demo");
        assert_eq!(m.seed, 7);
        assert_eq!(
            m.topology,
            Topology::Single {
                aps: 4,
                clients: 4,
                snr_db: vec![28.0, 22.0, 16.0, 10.0],
            }
        );
        assert_eq!(m.faults.base.control.sync_loss_chance, 0.05);
        assert_eq!(m.faults.base.control.per_slave_sync_loss, vec![(2, 0.2)]);
        assert_eq!(m.faults.windows.len(), 1);
        assert_eq!(
            m.faults.windows[0].config.control.per_slave_sync_loss,
            vec![(1, 0.9)]
        );
        assert_eq!(m.faults.outages.len(), 1);
        assert_eq!(m.limits.max_events, Some(2_000_000));
        assert_eq!(m.assertions.len(), 3);
        assert_eq!(
            m.assertions[1],
            Assertion::Count {
                kind: "ApDown".into(),
                op: Op::Eq,
                value: 1,
                window: Some((0.0, 0.5)),
            }
        );
    }

    #[test]
    fn serializes_and_reparses_identically() {
        let m = Manifest::parse(GOOD).unwrap();
        let text = m.to_text();
        let again = Manifest::parse(&text).unwrap();
        assert_eq!(m, again);
        // And the canonical form is a fixpoint.
        assert_eq!(text, again.to_text());
    }

    fn line_of(err: ScenarioError) -> usize {
        match err {
            ScenarioError::Parse { line, .. } => line,
            other => panic!("expected a line-numbered parse error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_keys_and_sections_are_line_numbered() {
        let bad = GOOD.replace("backend fast", "backend fast\nmodulation qam");
        let err = Manifest::parse(&bad).unwrap_err();
        assert_eq!(line_of(err.clone()), 13);
        assert!(err.to_string().contains("modulation"));

        let bad = GOOD.replace("[limits]", "[limitz]");
        let err = Manifest::parse(&bad).unwrap_err();
        assert!(err.to_string().contains("unknown section"));

        let bad = GOOD.replace("sync_loss 0.05", "sync_loss 1.5");
        assert!(Manifest::parse(&bad)
            .unwrap_err()
            .to_string()
            .contains("outside [0, 1]"));

        let bad = GOOD.replace("window 0.05 0.1", "window 0.1 0.1");
        assert!(Manifest::parse(&bad)
            .unwrap_err()
            .to_string()
            .contains("empty or inverted"));

        let bad = GOOD.replace("count ApDown", "count ApExploded");
        assert!(Manifest::parse(&bad)
            .unwrap_err()
            .to_string()
            .contains("unknown event kind"));

        let bad = GOOD.replace("metric delivery_ratio", "metric vibes");
        assert!(Manifest::parse(&bad)
            .unwrap_err()
            .to_string()
            .contains("unknown metric"));

        // 2³² + 3: in range only after a narrowing cast.
        let bad = CITY.replace("reuse 3", "reuse 4294967299");
        let err = Manifest::parse(&bad).unwrap_err();
        assert_eq!(line_of(err.clone()), 7);
        assert!(err.to_string().contains("reuse must be 1, 3 or 7"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let commented = format!("# header comment\n{}\n# trailing", GOOD);
        assert!(Manifest::parse(&commented).is_ok());
        let inline = GOOD.replace("seed 7", "seed 7   # lucky");
        assert_eq!(Manifest::parse(&inline).unwrap().seed, 7);
    }

    #[test]
    fn missing_required_pieces_are_invalid() {
        for cut in ["version 1", "name demo", "kind single", "duration_s 0.2"] {
            let bad: String =
                GOOD.lines()
                    .filter(|l| !l.starts_with(cut))
                    .fold(String::new(), |mut acc, l| {
                        acc.push_str(l);
                        acc.push('\n');
                        acc
                    });
            assert!(
                matches!(
                    Manifest::parse(&bad),
                    Err(ScenarioError::Invalid(_)) | Err(ScenarioError::Parse { .. })
                ),
                "parse succeeded without `{cut}`"
            );
        }
    }

    #[test]
    fn cross_section_rules() {
        // Outage AP index must exist: the traffic config says so, via the plan.
        let bad = GOOD.replace("outage ap=0", "outage ap=9");
        let err = Manifest::parse(&bad).unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid(_)), "{err:?}");
        assert!(err.to_string().contains("outage"), "{err}");
        // City topology rejects faults, extra limits, and fancy traffic.
        assert!(Manifest::parse(CITY).is_ok());
        let bad = format!("{CITY}[faults]\nsync_loss 0.1\n");
        assert!(matches!(
            Manifest::parse(&bad),
            Err(ScenarioError::Invalid(_))
        ));
        // City runs pin the paper's lead/slave sync.
        let bad = format!("{CITY}[sync]\nstrategy airsync-pilot\n");
        assert!(Manifest::parse(&bad)
            .unwrap_err()
            .to_string()
            .contains("single-cell"));
        let bad = format!("{CITY}[limits]\nmax_events 5\n");
        assert!(matches!(
            Manifest::parse(&bad),
            Err(ScenarioError::Invalid(_))
        ));
        let bad = CITY.replace("arrival poisson 1500", "arrival onoff 5000 0.01 0.01");
        assert!(matches!(
            Manifest::parse(&bad),
            Err(ScenarioError::Invalid(_))
        ));
        // Metric/topology mismatches are caught.
        let bad = format!("{CITY}[assertions]\nmetric goodput_vs_clean >= 0.5\n");
        assert!(Manifest::parse(&bad)
            .unwrap_err()
            .to_string()
            .contains("single-cell"));
        let bad = format!("{GOOD}metric area_capacity_mbps_km2 >= 1\n");
        assert!(Manifest::parse(&bad)
            .unwrap_err()
            .to_string()
            .contains("city"));
    }

    #[test]
    fn slave_overrides_must_name_a_slave() {
        // GOOD is a 4-AP cell: AP 0 leads, the slaves are 1..4.
        for (from, to) in [
            ("slave 2:0.2", "slave 0:0.2"),
            ("slave 2:0.2", "slave 4:0.2"),
            ("slave=1:0.9", "slave=0:0.9"),
            ("slave=1:0.9", "slave=9:0.9"),
        ] {
            let err = Manifest::parse(&GOOD.replace(from, to)).unwrap_err();
            assert!(matches!(err, ScenarioError::Invalid(_)), "{to}: {err:?}");
            assert!(err.to_string().contains("slave override names AP"), "{to}");
        }
        assert!(Manifest::parse(&GOOD.replace("slave 2:0.2", "slave 3:0.2")).is_ok());
    }

    #[test]
    fn a_key_given_twice_is_a_parse_error_naming_both_lines() {
        // Each used to be silently last-wins: `aps 4` then `aps 2` ran two
        // APs. A repeatable key (`slave`, `window`, `outage`) still repeats.
        for (once, again) in [
            ("aps 4", "aps 2"),
            ("duration_s 0.2", "duration_s 0.3"),
            ("seed 7", "seed 8"),
        ] {
            let first = GOOD.lines().position(|l| l == once).unwrap() + 1;
            let bad = GOOD.replace(once, &format!("{once}\n{again}"));
            let err = Manifest::parse(&bad).unwrap_err();
            assert_eq!(line_of(err.clone()), first + 1, "{again}: {err}");
            let earlier = format!("(first given on line {first})");
            assert!(err.to_string().contains(&earlier), "{again}: {err}");
        }
        // Inside one `window` both lines are the window's.
        let at = GOOD.lines().position(|l| l.starts_with("window")).unwrap() + 1;
        let bad = GOOD.replace("sync_loss=0.5", "sync_loss=0.5 sync_loss=0.6");
        let err = Manifest::parse(&bad).unwrap_err();
        assert_eq!(line_of(err.clone()), at, "{err}");
        let earlier = format!("duplicate `sync_loss` (first given on line {at})");
        assert!(err.to_string().contains(&earlier), "{err}");
        let more = GOOD.replace("slave 2:0.2", "slave 2:0.2\nslave 3:0.1");
        assert_eq!(
            Manifest::parse(&more)
                .unwrap()
                .to_text()
                .matches("slave ")
                .count(),
            2
        );
    }

    #[test]
    fn unknown_keys_list_what_the_table_has_there() {
        let bad = GOOD.replace("backend fast", "bakend fast");
        let msg = Manifest::parse(&bad).unwrap_err().to_string();
        assert!(
            msg.contains("unknown channel key `bakend` (expected backend)"),
            "{msg}"
        );
        let bad = GOOD.replace("sync_loss=0.5", "sink_loss=0.5");
        let msg = Manifest::parse(&bad).unwrap_err().to_string();
        assert!(msg.contains("expected drop/corrupt/sync_loss/"), "{msg}");
        let bad = GOOD.replace("kind single\n", "");
        let msg = Manifest::parse(&bad).unwrap_err().to_string();
        assert!(msg.contains("`kind single|city` must come first"), "{msg}");
    }

    #[test]
    fn duplicate_sections_rejected() {
        let bad = format!("{GOOD}\n[limits]\nmax_events 5\n");
        assert!(Manifest::parse(&bad)
            .unwrap_err()
            .to_string()
            .contains("duplicate section"));
    }

    #[test]
    fn sync_section_parses_and_roundtrips() {
        // No [sync] block means the paper's lead/slave resync, and the
        // canonical form stays free of the section (existing corpus files
        // keep their bytes).
        let m = Manifest::parse(GOOD).unwrap();
        assert_eq!(m.sync, SyncStrategyId::JmbLeadSlave);
        assert!(!m.to_text().contains("[sync]"));

        for kind in [
            SyncStrategyId::AirSyncPilot,
            SyncStrategyId::ReciprocityImplicit,
        ] {
            let text = GOOD.replace(
                "[traffic]",
                &format!("[sync]\nstrategy {}\n\n[traffic]", kind.token()),
            );
            let m = Manifest::parse(&text).unwrap();
            assert_eq!(m.sync, kind);
            let canon = m.to_text();
            assert!(canon.contains(&format!("[sync]\nstrategy {}\n", kind.token())));
            assert_eq!(Manifest::parse(&canon).unwrap(), m);
            assert_eq!(Manifest::parse(&canon).unwrap().to_text(), canon);
            // The strategies run at either fidelity.
            let sample = text
                .replace("backend fast", "backend sample")
                .replace("28,22,16,10", "22");
            assert_eq!(Manifest::parse(&sample).unwrap().sync, kind);
        }
    }

    #[test]
    fn arrivals_that_cannot_advance_the_clock_are_invalid() {
        // Each of these used to pass `check` and then hang the runner (a
        // negative rate or period runs arrival times backwards) or offer
        // nothing at all (zero). GOOD carries `arrival onoff 4000 0.02 0.03`.
        for (arrival, names) in [
            ("poisson -400", "poisson rate"),
            ("poisson 0", "poisson rate"),
            ("onoff 4000 0.02 -1", "onoff OFF mean"),
            ("onoff 4000 0 0.03", "onoff ON mean"),
            ("onoff -4000 0.02 0.03", "onoff burst rate"),
        ] {
            let bad = GOOD.replace("onoff 4000 0.02 0.03", arrival);
            let err = Manifest::parse(&bad).unwrap_err();
            assert_eq!(line_of(err.clone()), 15, "{arrival}: {err}");
            assert!(err.to_string().contains(names), "{arrival}: {err}");
        }
    }

    #[test]
    fn sync_section_diagnostics_are_line_numbered() {
        // `[traffic]` sits on line 14 of GOOD, so the spliced strategy
        // line lands on 15.
        let bad = GOOD.replace("[traffic]", "[sync]\nstrategy gps-disciplined\n\n[traffic]");
        let err = Manifest::parse(&bad).unwrap_err();
        assert_eq!(line_of(err.clone()), 15);
        let msg = err.to_string();
        assert!(
            msg.contains("gps-disciplined") && msg.contains("airsync-pilot"),
            "{msg}"
        );

        let bad = GOOD.replace("[traffic]", "[sync]\ninterval 5\n\n[traffic]");
        assert!(Manifest::parse(&bad)
            .unwrap_err()
            .to_string()
            .contains("unknown sync key"));

        let bad = GOOD.replace("[traffic]", "[sync]\n\n[sync]\n\n[traffic]");
        assert!(Manifest::parse(&bad)
            .unwrap_err()
            .to_string()
            .contains("duplicate section"));
    }
}
