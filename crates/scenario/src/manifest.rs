//! The manifest model and its hand-rolled parser/serializer.
//!
//! A manifest is a line-oriented text format: a header (`version`, `name`,
//! `seed`), then bracketed sections. `#` starts a comment, blank lines are
//! ignored, keys and values are whitespace-separated. The parser reports
//! every unknown section, unknown key, malformed value, out-of-range
//! probability, and unknown metric/event-kind name with its 1-based line
//! number — silent acceptance is a bug class this format refuses to have.
//!
//! [`Manifest::to_text`] is the canonical serializer: parsing its output
//! yields an equal [`Manifest`] (pinned by a property test), which is what
//! makes manifests safe to generate, normalize, and diff.
//!
//! ```text
//! version 1
//! name example
//! seed 1
//!
//! [topology]
//! kind single
//! aps 4
//! clients 4
//! snr_db 28
//!
//! [channel]
//! backend fast
//!
//! [sync]
//! strategy jmb-lead-slave
//!
//! [traffic]
//! arrival poisson 2000
//! packet fixed 1500
//! duration_s 0.2
//! drain_s 0.1
//!
//! [faults]
//! sync_loss 0.05
//! window 0.05 0.1 sync_loss=0.5 slave=1:0.9
//! outage ap=0 from=0.08 until=0.12
//!
//! [limits]
//! max_sim_time_s 5
//! max_events 2000000
//! wall_clock_s 60
//!
//! [assertions]
//! metric delivery_ratio >= 0.75
//! count ApDown == 1 in 0.0..0.5
//! respond RemeasureScheduled -> RemeasureOk|RemeasureFailed within 0.1
//! ```

use crate::assertion::{CITY_METRICS, COMMON_METRICS, SINGLE_METRICS};
use crate::error::ScenarioError;
use jmb_obs::SyncStrategyId;
use std::fmt::Write as _;

/// Comparison operator in an assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `>=`
    Ge,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `==`
    Eq,
}

impl Op {
    /// The operator's surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            Op::Ge => ">=",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Lt => "<",
            Op::Eq => "==",
        }
    }

    /// Parses the surface syntax.
    pub fn from_symbol(s: &str) -> Option<Op> {
        match s {
            ">=" => Some(Op::Ge),
            "<=" => Some(Op::Le),
            ">" => Some(Op::Gt),
            "<" => Some(Op::Lt),
            "==" => Some(Op::Eq),
            _ => None,
        }
    }

    /// Applies the comparison.
    pub fn holds(self, actual: f64, bound: f64) -> bool {
        match self {
            Op::Ge => actual >= bound,
            Op::Le => actual <= bound,
            Op::Gt => actual > bound,
            Op::Lt => actual < bound,
            Op::Eq => actual == bound,
        }
    }
}

/// Which PHY serves the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Per-subcarrier [`jmb_traffic::FastBackend`] — the default; supports
    /// per-client SNR lists.
    #[default]
    Fast,
    /// Sample-level [`jmb_traffic::SampleBackend`] — full OFDM + CRC
    /// validation; scalar SNR only.
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

/// One client's arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// Memoryless arrivals.
    Poisson {
        /// Mean rate, packets/second.
        rate_pps: f64,
    },
    /// Bursty on/off arrivals.
    OnOff {
        /// In-burst rate, packets/second.
        burst_pps: f64,
        /// Mean ON duration, seconds.
        on_s: f64,
        /// Mean OFF duration, seconds.
        off_s: f64,
    },
}

/// Packet-size distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PacketSpec {
    /// Every packet the same size, bytes.
    Fixed(usize),
    /// Uniform in `[min, max]` bytes.
    Uniform {
        /// Smallest packet, bytes.
        min: usize,
        /// Largest packet, bytes.
        max: usize,
    },
    /// Internet mix: small with probability `p_small`, else large.
    Bimodal {
        /// Small-packet size, bytes.
        small: usize,
        /// Large-packet size, bytes.
        large: usize,
        /// Probability of a small packet.
        p_small: f64,
    },
}

/// The offered load and run horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Arrival process (same for every client).
    pub arrival: ArrivalSpec,
    /// Packet sizes.
    pub packet: PacketSpec,
    /// Load-generation horizon, seconds.
    pub duration_s: f64,
    /// Queue-drain grace after the horizon, seconds.
    pub drain_s: f64,
}

/// Fault probabilities for one config (the base, or one window's).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultKnobs {
    /// Transmission drop probability.
    pub drop: f64,
    /// Payload corruption probability.
    pub corrupt: f64,
    /// Sync-header loss probability (every slave).
    pub sync_loss: f64,
    /// Measurement-frame loss probability.
    pub meas_loss: f64,
    /// Per-slave sync-loss overrides `(ap, probability)`; `ap` is a slave
    /// index, `1..aps` (AP 0 leads and hears no header).
    pub per_slave: Vec<(usize, f64)>,
}

impl FaultKnobs {
    /// True when every probability is zero.
    pub fn is_clean(&self) -> bool {
        self.drop == 0.0
            && self.corrupt == 0.0
            && self.sync_loss == 0.0
            && self.meas_loss == 0.0
            && self.per_slave.iter().all(|&(_, p)| p == 0.0)
    }
}

/// A fault storm window `[from_s, until_s)` (the schedule's half-open
/// last-added-wins semantics — see `jmb_sim::FaultSchedule`).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSpec {
    /// Window start (inclusive), seconds.
    pub from_s: f64,
    /// Window end (exclusive), seconds.
    pub until_s: f64,
    /// The probabilities in effect inside the window.
    pub knobs: FaultKnobs,
}

/// A scheduled AP outage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageSpec {
    /// Which AP fails.
    pub ap: usize,
    /// Failure time, seconds.
    pub from_s: f64,
    /// Recovery time, seconds.
    pub until_s: f64,
}

/// The whole `[faults]` section.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Probabilities outside every window.
    pub base: FaultKnobs,
    /// Storm windows, in declaration order (last added wins).
    pub windows: Vec<WindowSpec>,
    /// AP outages.
    pub outages: Vec<OutageSpec>,
}

impl FaultSpec {
    /// True when the section would change nothing: no probabilities, no
    /// windows, no outages.
    pub fn is_empty(&self) -> bool {
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

/// One pass/fail condition over the finished run.
#[derive(Debug, Clone, PartialEq)]
pub enum Assertion {
    /// `metric NAME OP VALUE` — compare a named metric (see
    /// [`COMMON_METRICS`], [`SINGLE_METRICS`], [`CITY_METRICS`]).
    Metric {
        /// Metric name.
        name: String,
        /// Comparison.
        op: Op,
        /// Bound.
        value: f64,
    },
    /// `count KIND OP N [in T0..T1]` — compare the number of trace events
    /// of one kind, optionally restricted to a time window.
    Count {
        /// Event-kind name (see [`jmb_obs::EventKind::NAMES`]).
        kind: String,
        /// Comparison.
        op: Op,
        /// Bound.
        value: u64,
        /// Optional `[t0, t1]` restriction, seconds.
        window: Option<(f64, f64)>,
    },
    /// `respond FROM -> TO|TO2 within S` — every `FROM` event must be
    /// followed by one of the `TO` kinds within `S` seconds (triggers too
    /// close to the end of the trace to be judged are skipped).
    Respond {
        /// Triggering event kind.
        from: String,
        /// Acceptable responses (any one suffices).
        to: Vec<String>,
        /// Response deadline, seconds.
        within_s: f64,
    },
}

impl Assertion {
    /// The assertion's canonical surface syntax (what `result.json` and
    /// the serializer print).
    pub fn text(&self) -> String {
        match self {
            Assertion::Metric { name, op, value } => {
                format!("metric {name} {} {value}", op.symbol())
            }
            Assertion::Count {
                kind,
                op,
                value,
                window,
            } => match window {
                Some((t0, t1)) => format!("count {kind} {} {value} in {t0}..{t1}", op.symbol()),
                None => format!("count {kind} {} {value}", op.symbol()),
            },
            Assertion::Respond { from, to, within_s } => {
                format!("respond {from} -> {} within {within_s}", to.join("|"))
            }
        }
    }
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

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn perr(line: usize, message: impl Into<String>) -> ScenarioError {
    ScenarioError::Parse {
        line,
        message: message.into(),
    }
}

fn parse_f64(line: usize, what: &str, s: &str) -> Result<f64, ScenarioError> {
    let v: f64 = s
        .parse()
        .map_err(|_| perr(line, format!("{what}: `{s}` is not a number")))?;
    if !v.is_finite() {
        return Err(perr(line, format!("{what}: `{s}` must be finite")));
    }
    Ok(v)
}

fn parse_u64(line: usize, what: &str, s: &str) -> Result<u64, ScenarioError> {
    s.parse()
        .map_err(|_| perr(line, format!("{what}: `{s}` is not a non-negative integer")))
}

fn parse_usize(line: usize, what: &str, s: &str) -> Result<usize, ScenarioError> {
    s.parse()
        .map_err(|_| perr(line, format!("{what}: `{s}` is not a non-negative integer")))
}

fn parse_prob(line: usize, what: &str, s: &str) -> Result<f64, ScenarioError> {
    let p = parse_f64(line, what, s)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(perr(line, format!("{what}: {p} outside [0, 1]")));
    }
    Ok(p)
}

/// `ap=N`, `from=T` style pair.
fn split_kv(line: usize, tok: &str) -> Result<(&str, &str), ScenarioError> {
    tok.split_once('=')
        .ok_or_else(|| perr(line, format!("expected key=value, got `{tok}`")))
}

/// `slave=N:P` payload.
fn parse_slave(line: usize, v: &str) -> Result<(usize, f64), ScenarioError> {
    let (ap, p) = v
        .split_once(':')
        .ok_or_else(|| perr(line, format!("slave override needs AP:PROB, got `{v}`")))?;
    Ok((
        parse_usize(line, "slave AP index", ap)?,
        parse_prob(line, "slave sync-loss probability", p)?,
    ))
}

fn parse_event_kind(line: usize, s: &str) -> Result<String, ScenarioError> {
    if jmb_obs::EventKind::NAMES.contains(&s) {
        Ok(s.to_string())
    } else {
        Err(perr(line, format!("unknown event kind `{s}`")))
    }
}

#[derive(Default)]
struct SingleDraft {
    aps: Option<usize>,
    clients: Option<usize>,
    snr_db: Option<Vec<f64>>,
}

#[derive(Default)]
struct CityDraft {
    cols: Option<usize>,
    rows: Option<usize>,
    reuse: Option<u32>,
    aps_per_cell: Option<usize>,
    clients_per_cell: Option<usize>,
    spacing_m: Option<f64>,
    snr_db: Option<f64>,
}

enum TopoDraft {
    Unset,
    Single(SingleDraft),
    City(CityDraft),
}

#[derive(Default)]
struct TrafficDraft {
    arrival: Option<ArrivalSpec>,
    packet: Option<PacketSpec>,
    duration_s: Option<f64>,
    drain_s: Option<f64>,
}

#[derive(Clone, Copy, PartialEq)]
enum Section {
    Header,
    Topology,
    Channel,
    Sync,
    Traffic,
    Faults,
    Limits,
    Assertions,
}

impl Manifest {
    /// Parses manifest text, reporting every problem with its line number.
    pub fn parse(text: &str) -> Result<Manifest, ScenarioError> {
        let mut section = Section::Header;
        let mut seen: Vec<&'static str> = Vec::new();

        let mut version: Option<u32> = None;
        let mut name: Option<String> = None;
        let mut seed: u64 = 1;
        let mut topo = TopoDraft::Unset;
        let mut backend = Backend::Fast;
        let mut sync = SyncStrategyId::default();
        let mut traffic = TrafficDraft::default();
        let mut faults = FaultSpec::default();
        let mut limits = Limits::default();
        let mut assertions: Vec<Assertion> = Vec::new();

        for (i, raw) in text.lines().enumerate() {
            let ln = i + 1;
            let line = match raw.find('#') {
                Some(p) => &raw[..p],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }

            if let Some(sec) = line.strip_prefix('[') {
                let sec = sec
                    .strip_suffix(']')
                    .ok_or_else(|| perr(ln, format!("unterminated section header `{line}`")))?;
                let (tag, next) = match sec {
                    "topology" => ("topology", Section::Topology),
                    "channel" => ("channel", Section::Channel),
                    "sync" => ("sync", Section::Sync),
                    "traffic" => ("traffic", Section::Traffic),
                    "faults" => ("faults", Section::Faults),
                    "limits" => ("limits", Section::Limits),
                    "assertions" => ("assertions", Section::Assertions),
                    other => return Err(perr(ln, format!("unknown section `[{other}]`"))),
                };
                if seen.contains(&tag) {
                    return Err(perr(ln, format!("duplicate section `[{tag}]`")));
                }
                seen.push(tag);
                section = next;
                continue;
            }

            let mut toks = line.split_whitespace();
            // A non-empty line always has a first token.
            let key = toks.next().unwrap_or_default();
            let rest: Vec<&str> = toks.collect();
            let one = |what: &str| -> Result<&str, ScenarioError> {
                match rest.as_slice() {
                    [v] => Ok(v),
                    _ => Err(perr(ln, format!("`{key}` needs exactly one {what}"))),
                }
            };

            match section {
                Section::Header => match key {
                    "version" => {
                        let v = parse_u64(ln, "version", one("value")?)?;
                        if v != 1 {
                            return Err(perr(ln, format!("unsupported manifest version {v}")));
                        }
                        version = Some(1);
                    }
                    "name" => {
                        let v = one("value")?;
                        if !v
                            .bytes()
                            .all(|b| b.is_ascii_alphanumeric() || b"._-".contains(&b))
                        {
                            return Err(perr(
                                ln,
                                format!("name `{v}` must be [A-Za-z0-9._-]+ (it names artifacts)"),
                            ));
                        }
                        name = Some(v.to_string());
                    }
                    "seed" => seed = parse_u64(ln, "seed", one("value")?)?,
                    other => {
                        return Err(perr(
                            ln,
                            format!("unknown header key `{other}` (expected version/name/seed)"),
                        ))
                    }
                },
                Section::Topology => match (key, &mut topo) {
                    ("kind", TopoDraft::Unset) => match one("value")? {
                        "single" => topo = TopoDraft::Single(SingleDraft::default()),
                        "city" => topo = TopoDraft::City(CityDraft::default()),
                        other => {
                            return Err(perr(
                                ln,
                                format!("unknown topology kind `{other}` (single|city)"),
                            ))
                        }
                    },
                    ("kind", _) => return Err(perr(ln, "duplicate `kind`")),
                    (_, TopoDraft::Unset) => {
                        return Err(perr(ln, "`kind single|city` must come first in [topology]"))
                    }
                    (k, TopoDraft::Single(d)) => match k {
                        "aps" => d.aps = Some(parse_usize(ln, "aps", one("value")?)?),
                        "clients" => d.clients = Some(parse_usize(ln, "clients", one("value")?)?),
                        "snr_db" => {
                            let mut v = Vec::new();
                            for part in one("value")?.split(',') {
                                v.push(parse_f64(ln, "snr_db", part)?);
                            }
                            d.snr_db = Some(v);
                        }
                        other => {
                            return Err(perr(ln, format!("unknown single-cell key `{other}`")))
                        }
                    },
                    (k, TopoDraft::City(d)) => match k {
                        "cols" => d.cols = Some(parse_usize(ln, "cols", one("value")?)?),
                        "rows" => d.rows = Some(parse_usize(ln, "rows", one("value")?)?),
                        "reuse" => {
                            // Checked before narrowing: 2³² + 3 is not reuse 3.
                            let r = parse_u64(ln, "reuse", one("value")?)?;
                            if ![1, 3, 7].contains(&r) {
                                return Err(perr(ln, format!("reuse must be 1, 3 or 7, got {r}")));
                            }
                            d.reuse = Some(r as u32);
                        }
                        "aps_per_cell" => {
                            d.aps_per_cell = Some(parse_usize(ln, "aps_per_cell", one("value")?)?)
                        }
                        "clients_per_cell" => {
                            d.clients_per_cell =
                                Some(parse_usize(ln, "clients_per_cell", one("value")?)?)
                        }
                        "spacing_m" => {
                            d.spacing_m = Some(parse_f64(ln, "spacing_m", one("value")?)?)
                        }
                        "snr_db" => d.snr_db = Some(parse_f64(ln, "snr_db", one("value")?)?),
                        other => return Err(perr(ln, format!("unknown city key `{other}`"))),
                    },
                },
                Section::Channel => match key {
                    "backend" => match one("value")? {
                        "fast" => backend = Backend::Fast,
                        "sample" => backend = Backend::Sample,
                        other => {
                            return Err(perr(
                                ln,
                                format!("unknown backend `{other}` (fast|sample)"),
                            ))
                        }
                    },
                    other => return Err(perr(ln, format!("unknown channel key `{other}`"))),
                },
                Section::Sync => match key {
                    "strategy" => {
                        let v = one("value")?;
                        sync = SyncStrategyId::from_token(v).ok_or_else(|| {
                            let known: Vec<&str> =
                                SyncStrategyId::ALL.iter().map(|s| s.token()).collect();
                            perr(
                                ln,
                                format!("unknown sync strategy `{v}` ({})", known.join("|")),
                            )
                        })?;
                    }
                    other => return Err(perr(ln, format!("unknown sync key `{other}`"))),
                },
                Section::Traffic => match key {
                    "arrival" => {
                        traffic.arrival = Some(match rest.as_slice() {
                            ["poisson", r] => ArrivalSpec::Poisson {
                                rate_pps: parse_f64(ln, "poisson rate", r)?,
                            },
                            ["onoff", b, on, off] => ArrivalSpec::OnOff {
                                burst_pps: parse_f64(ln, "burst rate", b)?,
                                on_s: parse_f64(ln, "mean ON duration", on)?,
                                off_s: parse_f64(ln, "mean OFF duration", off)?,
                            },
                            _ => {
                                return Err(perr(
                                    ln,
                                    "arrival needs `poisson RATE` or `onoff BURST ON OFF`",
                                ))
                            }
                        });
                    }
                    "packet" => {
                        traffic.packet = Some(match rest.as_slice() {
                            ["fixed", n] => PacketSpec::Fixed(parse_usize(ln, "packet size", n)?),
                            ["uniform", lo, hi] => PacketSpec::Uniform {
                                min: parse_usize(ln, "min packet size", lo)?,
                                max: parse_usize(ln, "max packet size", hi)?,
                            },
                            ["bimodal", s, l, p] => PacketSpec::Bimodal {
                                small: parse_usize(ln, "small packet size", s)?,
                                large: parse_usize(ln, "large packet size", l)?,
                                p_small: parse_prob(ln, "small-packet probability", p)?,
                            },
                            _ => {
                                return Err(perr(
                                    ln,
                                    "packet needs `fixed N`, `uniform MIN MAX` or \
                                     `bimodal SMALL LARGE P`",
                                ))
                            }
                        });
                    }
                    "duration_s" => {
                        traffic.duration_s = Some(parse_f64(ln, "duration_s", one("value")?)?)
                    }
                    "drain_s" => traffic.drain_s = Some(parse_f64(ln, "drain_s", one("value")?)?),
                    other => return Err(perr(ln, format!("unknown traffic key `{other}`"))),
                },
                Section::Faults => match key {
                    "drop" => faults.base.drop = parse_prob(ln, "drop", one("value")?)?,
                    "corrupt" => faults.base.corrupt = parse_prob(ln, "corrupt", one("value")?)?,
                    "sync_loss" => {
                        faults.base.sync_loss = parse_prob(ln, "sync_loss", one("value")?)?
                    }
                    "meas_loss" => {
                        faults.base.meas_loss = parse_prob(ln, "meas_loss", one("value")?)?
                    }
                    "slave" => faults.base.per_slave.push(parse_slave(ln, one("value")?)?),
                    "window" => {
                        if rest.len() < 2 {
                            return Err(perr(ln, "window needs `FROM UNTIL [k=v ...]`"));
                        }
                        let from_s = parse_f64(ln, "window start", rest[0])?;
                        let until_s = parse_f64(ln, "window end", rest[1])?;
                        if until_s <= from_s {
                            return Err(perr(
                                ln,
                                format!("window [{from_s}, {until_s}) is empty or inverted"),
                            ));
                        }
                        let mut knobs = FaultKnobs::default();
                        for tok in &rest[2..] {
                            let (k, v) = split_kv(ln, tok)?;
                            match k {
                                "drop" => knobs.drop = parse_prob(ln, "drop", v)?,
                                "corrupt" => knobs.corrupt = parse_prob(ln, "corrupt", v)?,
                                "sync_loss" => knobs.sync_loss = parse_prob(ln, "sync_loss", v)?,
                                "meas_loss" => knobs.meas_loss = parse_prob(ln, "meas_loss", v)?,
                                "slave" => knobs.per_slave.push(parse_slave(ln, v)?),
                                other => {
                                    return Err(perr(ln, format!("unknown window knob `{other}`")))
                                }
                            }
                        }
                        faults.windows.push(WindowSpec {
                            from_s,
                            until_s,
                            knobs,
                        });
                    }
                    "outage" => {
                        let (mut ap, mut from_s, mut until_s) = (None, None, None);
                        for tok in &rest {
                            let (k, v) = split_kv(ln, tok)?;
                            match k {
                                "ap" => ap = Some(parse_usize(ln, "outage AP", v)?),
                                "from" => from_s = Some(parse_f64(ln, "outage start", v)?),
                                "until" => until_s = Some(parse_f64(ln, "outage end", v)?),
                                other => {
                                    return Err(perr(ln, format!("unknown outage key `{other}`")))
                                }
                            }
                        }
                        match (ap, from_s, until_s) {
                            (Some(ap), Some(from_s), Some(until_s)) => {
                                if until_s <= from_s {
                                    return Err(perr(
                                        ln,
                                        format!(
                                            "outage [{from_s}, {until_s}) is empty or inverted"
                                        ),
                                    ));
                                }
                                faults.outages.push(OutageSpec {
                                    ap,
                                    from_s,
                                    until_s,
                                });
                            }
                            _ => return Err(perr(ln, "outage needs ap=N from=T until=T")),
                        }
                    }
                    other => return Err(perr(ln, format!("unknown faults key `{other}`"))),
                },
                Section::Limits => match key {
                    "max_sim_time_s" => {
                        let v = parse_f64(ln, "max_sim_time_s", one("value")?)?;
                        if v <= 0.0 {
                            return Err(perr(ln, "max_sim_time_s must be positive"));
                        }
                        limits.max_sim_time_s = Some(v);
                    }
                    "max_events" => {
                        limits.max_events = Some(parse_u64(ln, "max_events", one("value")?)?)
                    }
                    "wall_clock_s" => {
                        let v = parse_f64(ln, "wall_clock_s", one("value")?)?;
                        if v <= 0.0 {
                            return Err(perr(ln, "wall_clock_s must be positive"));
                        }
                        limits.wall_clock_s = Some(v);
                    }
                    other => return Err(perr(ln, format!("unknown limits key `{other}`"))),
                },
                Section::Assertions => match key {
                    "metric" => match rest.as_slice() {
                        [m, op, v] => {
                            if ![COMMON_METRICS, SINGLE_METRICS, CITY_METRICS]
                                .iter()
                                .any(|table| table.contains(m))
                            {
                                return Err(perr(ln, format!("unknown metric `{m}`")));
                            }
                            let op = Op::from_symbol(op)
                                .ok_or_else(|| perr(ln, format!("unknown operator `{op}`")))?;
                            assertions.push(Assertion::Metric {
                                name: m.to_string(),
                                op,
                                value: parse_f64(ln, "metric bound", v)?,
                            });
                        }
                        _ => return Err(perr(ln, "metric needs `NAME OP VALUE`")),
                    },
                    "count" => {
                        let (head, window) = match rest.as_slice() {
                            [k, op, v] => ((k, op, v), None),
                            [k, op, v, "in", range] => {
                                let (t0, t1) = range.split_once("..").ok_or_else(|| {
                                    perr(ln, format!("count window needs T0..T1, got `{range}`"))
                                })?;
                                let t0 = parse_f64(ln, "count window start", t0)?;
                                let t1 = parse_f64(ln, "count window end", t1)?;
                                if t1 < t0 {
                                    return Err(perr(ln, "count window end before start"));
                                }
                                ((k, op, v), Some((t0, t1)))
                            }
                            _ => return Err(perr(ln, "count needs `KIND OP N [in T0..T1]`")),
                        };
                        let (k, op, v) = head;
                        let op = Op::from_symbol(op)
                            .ok_or_else(|| perr(ln, format!("unknown operator `{op}`")))?;
                        assertions.push(Assertion::Count {
                            kind: parse_event_kind(ln, k)?,
                            op,
                            value: parse_u64(ln, "count bound", v)?,
                            window,
                        });
                    }
                    "respond" => match rest.as_slice() {
                        [from, "->", to, "within", s] => {
                            let mut kinds = Vec::new();
                            for part in to.split('|') {
                                kinds.push(parse_event_kind(ln, part)?);
                            }
                            let within_s = parse_f64(ln, "respond deadline", s)?;
                            if within_s <= 0.0 {
                                return Err(perr(ln, "respond deadline must be positive"));
                            }
                            assertions.push(Assertion::Respond {
                                from: parse_event_kind(ln, from)?,
                                to: kinds,
                                within_s,
                            });
                        }
                        _ => {
                            return Err(perr(
                                ln,
                                "respond needs `FROM -> TO[|TO...] within SECONDS`",
                            ))
                        }
                    },
                    other => return Err(perr(ln, format!("unknown assertion form `{other}`"))),
                },
            }
        }

        let version = version.ok_or_else(|| missing("a `version 1` header line"))?;
        let name = name.ok_or_else(|| missing("a `name` header line"))?;
        let topology = match topo {
            TopoDraft::Unset => return Err(missing("a [topology] section")),
            TopoDraft::Single(d) => Topology::Single {
                aps: d.aps.ok_or_else(|| missing("topology `aps`"))?,
                clients: d.clients.ok_or_else(|| missing("topology `clients`"))?,
                snr_db: d.snr_db.ok_or_else(|| missing("topology `snr_db`"))?,
            },
            TopoDraft::City(d) => Topology::City {
                cols: d.cols.ok_or_else(|| missing("topology `cols`"))?,
                rows: d.rows.ok_or_else(|| missing("topology `rows`"))?,
                reuse: d.reuse.ok_or_else(|| missing("topology `reuse`"))?,
                aps_per_cell: d
                    .aps_per_cell
                    .ok_or_else(|| missing("topology `aps_per_cell`"))?,
                clients_per_cell: d
                    .clients_per_cell
                    .ok_or_else(|| missing("topology `clients_per_cell`"))?,
                spacing_m: d.spacing_m.ok_or_else(|| missing("topology `spacing_m`"))?,
                snr_db: d.snr_db.ok_or_else(|| missing("topology `snr_db`"))?,
            },
        };
        let traffic = TrafficSpec {
            arrival: traffic
                .arrival
                .ok_or_else(|| missing("traffic `arrival`"))?,
            packet: traffic.packet.ok_or_else(|| missing("traffic `packet`"))?,
            duration_s: traffic
                .duration_s
                .ok_or_else(|| missing("traffic `duration_s`"))?,
            drain_s: traffic.drain_s.unwrap_or(0.0),
        };

        let m = Manifest {
            version,
            name,
            seed,
            topology,
            backend,
            sync,
            traffic,
            faults,
            limits,
            assertions,
        };
        m.validate()?;
        Ok(m)
    }

    /// Cross-section semantic validation (everything the per-line parser
    /// cannot see). Called by [`Manifest::parse`]; public so generated
    /// manifests can be checked before serialization.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let inv = |m: String| Err(ScenarioError::Invalid(m));
        if self.traffic.duration_s <= 0.0 {
            return inv("traffic duration_s must be positive".into());
        }
        if self.traffic.drain_s < 0.0 {
            return inv("traffic drain_s must be non-negative".into());
        }
        // A non-positive rate or mean period runs arrival times backwards
        // (the event loop never reaches the horizon) or offers nothing.
        let positive: &[(&str, f64)] = match self.traffic.arrival {
            ArrivalSpec::Poisson { rate_pps } => &[("poisson rate", rate_pps)],
            ArrivalSpec::OnOff {
                burst_pps,
                on_s,
                off_s,
            } => &[
                ("onoff burst rate", burst_pps),
                ("onoff ON mean", on_s),
                ("onoff OFF mean", off_s),
            ],
        };
        if let Some((what, v)) = positive.iter().find(|(_, v)| *v <= 0.0) {
            return inv(format!("traffic arrival {what} must be positive (got {v})"));
        }
        match &self.topology {
            Topology::Single {
                aps,
                clients,
                snr_db,
            } => {
                if *aps == 0 || *clients == 0 {
                    return inv("single topology needs at least one AP and one client".into());
                }
                if snr_db.len() != 1 && snr_db.len() != *clients {
                    return inv(format!(
                        "snr_db lists {} values for {clients} clients (need 1 or {clients})",
                        snr_db.len()
                    ));
                }
                if self.backend == Backend::Sample && snr_db.len() > 1 {
                    return inv(
                        "the sample backend models one scalar client SNR; per-client \
                         lists need `backend fast`"
                            .into(),
                    );
                }
                for o in &self.faults.outages {
                    if o.ap >= *aps {
                        return inv(format!("outage names AP {} of {aps}", o.ap));
                    }
                }
                // An override for an AP that never hears a sync header (the
                // lead, or one past the array) would be looked up by nobody.
                let windows = self.faults.windows.iter().map(|w| &w.knobs);
                for k in std::iter::once(&self.faults.base).chain(windows) {
                    if let Some(&(ap, _)) = k.per_slave.iter().find(|s| s.0 == 0 || s.0 >= *aps) {
                        return inv(format!(
                            "slave override names AP {ap}; a {aps}-AP cell has slaves 1..{aps}"
                        ));
                    }
                }
            }
            Topology::City { cols, rows, .. } => {
                if *cols == 0 || *rows == 0 {
                    return inv("city topology needs at least one cell".into());
                }
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
                if !matches!(self.traffic.arrival, ArrivalSpec::Poisson { .. })
                    || !matches!(self.traffic.packet, PacketSpec::Fixed(_))
                {
                    return inv("city traffic is `arrival poisson` + `packet fixed` \
                                (the city layer owns per-cell load shaping)"
                        .into());
                }
            }
        }
        if let PacketSpec::Uniform { min, max } = self.traffic.packet {
            if min == 0 || min > max {
                return inv(format!("uniform packet range [{min}, {max}] is invalid"));
            }
        }
        if let PacketSpec::Fixed(0) = self.traffic.packet {
            return inv("packets must be non-empty".into());
        }
        let city = matches!(self.topology, Topology::City { .. });
        for a in &self.assertions {
            if let Assertion::Metric { name, .. } = a {
                let city_only = CITY_METRICS.contains(&name.as_str());
                let single_only = SINGLE_METRICS.contains(&name.as_str());
                if city && single_only {
                    return inv(format!("metric `{name}` only exists in single-cell runs"));
                }
                if !city && city_only {
                    return inv(format!("metric `{name}` only exists in city runs"));
                }
            }
        }
        Ok(())
    }

    /// Canonical serialization: fixed section order, one key per line,
    /// floats in shortest-roundtrip form. `parse(to_text(m)) == m`.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        // Infallible: fmt::Write to String cannot fail.
        let _ = writeln!(s, "version {}", self.version);
        let _ = writeln!(s, "name {}", self.name);
        let _ = writeln!(s, "seed {}", self.seed);
        s.push_str("\n[topology]\n");
        match &self.topology {
            Topology::Single {
                aps,
                clients,
                snr_db,
            } => {
                s.push_str("kind single\n");
                let _ = writeln!(s, "aps {aps}");
                let _ = writeln!(s, "clients {clients}");
                let list: Vec<String> = snr_db.iter().map(|v| format!("{v}")).collect();
                let _ = writeln!(s, "snr_db {}", list.join(","));
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
                s.push_str("kind city\n");
                let _ = writeln!(s, "cols {cols}");
                let _ = writeln!(s, "rows {rows}");
                let _ = writeln!(s, "reuse {reuse}");
                let _ = writeln!(s, "aps_per_cell {aps_per_cell}");
                let _ = writeln!(s, "clients_per_cell {clients_per_cell}");
                let _ = writeln!(s, "spacing_m {spacing_m}");
                let _ = writeln!(s, "snr_db {snr_db}");
            }
        }
        s.push_str("\n[channel]\n");
        let _ = writeln!(
            s,
            "backend {}",
            match self.backend {
                Backend::Fast => "fast",
                Backend::Sample => "sample",
            }
        );
        if self.sync != SyncStrategyId::default() {
            s.push_str("\n[sync]\n");
            let _ = writeln!(s, "strategy {}", self.sync.token());
        }
        s.push_str("\n[traffic]\n");
        match self.traffic.arrival {
            ArrivalSpec::Poisson { rate_pps } => {
                let _ = writeln!(s, "arrival poisson {rate_pps}");
            }
            ArrivalSpec::OnOff {
                burst_pps,
                on_s,
                off_s,
            } => {
                let _ = writeln!(s, "arrival onoff {burst_pps} {on_s} {off_s}");
            }
        }
        match self.traffic.packet {
            PacketSpec::Fixed(n) => {
                let _ = writeln!(s, "packet fixed {n}");
            }
            PacketSpec::Uniform { min, max } => {
                let _ = writeln!(s, "packet uniform {min} {max}");
            }
            PacketSpec::Bimodal {
                small,
                large,
                p_small,
            } => {
                let _ = writeln!(s, "packet bimodal {small} {large} {p_small}");
            }
        }
        let _ = writeln!(s, "duration_s {}", self.traffic.duration_s);
        let _ = writeln!(s, "drain_s {}", self.traffic.drain_s);
        if !self.faults.is_empty() {
            s.push_str("\n[faults]\n");
            push_knobs_lines(&mut s, &self.faults.base);
            for w in &self.faults.windows {
                let _ = write!(s, "window {} {}", w.from_s, w.until_s);
                push_knobs_kv(&mut s, &w.knobs);
                s.push('\n');
            }
            for o in &self.faults.outages {
                let _ = writeln!(
                    s,
                    "outage ap={} from={} until={}",
                    o.ap, o.from_s, o.until_s
                );
            }
        }
        if self.limits != Limits::default() {
            s.push_str("\n[limits]\n");
            if let Some(v) = self.limits.max_sim_time_s {
                let _ = writeln!(s, "max_sim_time_s {v}");
            }
            if let Some(v) = self.limits.max_events {
                let _ = writeln!(s, "max_events {v}");
            }
            if let Some(v) = self.limits.wall_clock_s {
                let _ = writeln!(s, "wall_clock_s {v}");
            }
        }
        if !self.assertions.is_empty() {
            s.push_str("\n[assertions]\n");
            for a in &self.assertions {
                let _ = writeln!(s, "{}", a.text());
            }
        }
        s
    }
}

fn missing(what: &str) -> ScenarioError {
    ScenarioError::Invalid(format!("manifest is missing {what}"))
}

fn push_knobs_lines(s: &mut String, k: &FaultKnobs) {
    if k.drop != 0.0 {
        let _ = writeln!(s, "drop {}", k.drop);
    }
    if k.corrupt != 0.0 {
        let _ = writeln!(s, "corrupt {}", k.corrupt);
    }
    if k.sync_loss != 0.0 {
        let _ = writeln!(s, "sync_loss {}", k.sync_loss);
    }
    if k.meas_loss != 0.0 {
        let _ = writeln!(s, "meas_loss {}", k.meas_loss);
    }
    for &(ap, p) in &k.per_slave {
        let _ = writeln!(s, "slave {ap}:{p}");
    }
}

fn push_knobs_kv(s: &mut String, k: &FaultKnobs) {
    if k.drop != 0.0 {
        let _ = write!(s, " drop={}", k.drop);
    }
    if k.corrupt != 0.0 {
        let _ = write!(s, " corrupt={}", k.corrupt);
    }
    if k.sync_loss != 0.0 {
        let _ = write!(s, " sync_loss={}", k.sync_loss);
    }
    if k.meas_loss != 0.0 {
        let _ = write!(s, " meas_loss={}", k.meas_loss);
    }
    for &(ap, p) in &k.per_slave {
        let _ = write!(s, " slave={ap}:{p}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(m.faults.base.sync_loss, 0.05);
        assert_eq!(m.faults.base.per_slave, vec![(2, 0.2)]);
        assert_eq!(m.faults.windows.len(), 1);
        assert_eq!(m.faults.windows[0].knobs.per_slave, vec![(1, 0.9)]);
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
        // Outage AP index must exist.
        let bad = GOOD.replace("outage ap=0", "outage ap=9");
        assert!(Manifest::parse(&bad)
            .unwrap_err()
            .to_string()
            .contains("AP 9"));
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
            assert!(matches!(err, ScenarioError::Invalid(_)), "{arrival}: {err}");
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
