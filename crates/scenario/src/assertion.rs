//! The assertion language: its three sentence forms, their parser, and
//! their evaluation over a finished run's metrics and trace.
//!
//! Assertions never panic — each evaluates to an [`AssertionOutcome`]
//! carrying the observed value, and the runner folds outcomes into the
//! scenario verdict. This is the load-bearing difference from
//! `jmb_obs::TraceQuery`'s `assert_*` chainers (which are for tests):
//! a failed scenario assertion is a *result*, exit code 1, with the
//! evidence in `result.json`.

use crate::error::ScenarioError;
use crate::manifest::{finite, perr};
use jmb_obs::Event;
use jmb_traffic::TrafficMetrics;

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

type Holds = fn(&f64, &f64) -> bool;

impl Op {
    /// Every operator with its surface syntax and its meaning.
    const ALL: [(Op, &'static str, Holds); 5] = [
        (Op::Ge, ">=", f64::ge),
        (Op::Le, "<=", f64::le),
        (Op::Gt, ">", f64::gt),
        (Op::Lt, "<", f64::lt),
        (Op::Eq, "==", f64::eq),
    ];

    /// The operator's surface syntax.
    pub fn symbol(self) -> &'static str {
        Op::ALL
            .iter()
            .find(|row| row.0 == self)
            .map_or("", |row| row.1)
    }

    /// Parses the surface syntax.
    pub fn from_symbol(s: &str) -> Option<Op> {
        Op::ALL.iter().find(|row| row.1 == s).map(|row| row.0)
    }

    /// Applies the comparison.
    pub fn holds(self, actual: f64, bound: f64) -> bool {
        Op::ALL
            .iter()
            .any(|row| row.0 == self && row.2(&actual, &bound))
    }
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

/// How a metric reads off a run's traffic metrics.
pub type ReadMetric = fn(&TrafficMetrics) -> f64;

/// Metrics available in every run (single-cell and city alike), each with
/// how it reads off the run's [`TrafficMetrics`], in the order
/// `result.json` prints them.
pub const COMMON_METRICS: &[(&str, ReadMetric)] = &[
    ("goodput_mbps", |tm| tm.goodput_bps() / 1e6),
    ("offered_mbps", |tm| tm.offered_bps / 1e6),
    ("generated", |tm| tm.generated as f64),
    ("delivered", |tm| tm.delivered as f64),
    ("dropped", |tm| tm.dropped as f64),
    ("retries", |tm| tm.retries as f64),
    ("queued_at_end", |tm| tm.queued_at_end as f64),
    ("median_latency_ms", |tm| tm.median_latency_s() * 1e3),
    ("p99_latency_ms", |tm| tm.p99_latency_s() * 1e3),
    ("jain", |tm| tm.jain_fairness()),
    ("delivery_ratio", |tm| tm.delivery_ratio()),
    ("sync_misses", |tm| tm.sync_misses as f64),
    ("remeasure_ok", |tm| tm.remeasure_ok as f64),
    ("remeasure_failed", |tm| tm.remeasure_failed as f64),
    ("aps_degraded", |tm| tm.aps_degraded as f64),
    ("aps_restored", |tm| tm.aps_restored as f64),
    ("csi_stale", |tm| tm.csi_stale_events as f64),
];

/// Metrics that only exist in single-cell runs. `goodput_vs_clean` is the
/// degrade-not-stall ratio: the faulted run's goodput over a fault-free
/// reference run with the same seed (1.0 = no degradation).
pub const SINGLE_METRICS: &[&str] = &["goodput_vs_clean"];

/// Metrics that only exist in city runs.
pub const CITY_METRICS: &[&str] = &["area_capacity_mbps_km2", "mean_inr_db"];

fn event_kind(line: usize, s: &str) -> Result<String, ScenarioError> {
    if jmb_obs::EventKind::NAMES.contains(&s) {
        Ok(s.to_string())
    } else {
        Err(perr(line, format!("unknown event kind `{s}`")))
    }
}

fn op(line: usize, s: &str) -> Result<Op, ScenarioError> {
    Op::from_symbol(s).ok_or_else(|| perr(line, format!("unknown operator `{s}`")))
}

/// One `[assertions]` line: `form` is its first token, `rest` the others.
pub(crate) fn parse_line(ln: usize, form: &str, rest: &[&str]) -> Result<Assertion, ScenarioError> {
    let count_form = "count needs `KIND OP N [in T0..T1]`";
    match (form, rest) {
        ("metric", [m, o, v]) => {
            let common = COMMON_METRICS.iter().map(|row| &row.0);
            if !common
                .chain(SINGLE_METRICS)
                .chain(CITY_METRICS)
                .any(|n| n == m)
            {
                return Err(perr(ln, format!("unknown metric `{m}`")));
            }
            Ok(Assertion::Metric {
                name: m.to_string(),
                op: op(ln, o)?,
                value: finite(ln, "metric bound", v)?,
            })
        }
        ("metric", _) => Err(perr(ln, "metric needs `NAME OP VALUE`")),
        ("count", [k, o, v, window @ ..]) => {
            let window = match window {
                [] => None,
                ["in", range] => {
                    let (t0, t1) = range.split_once("..").ok_or_else(|| {
                        perr(ln, format!("count window needs T0..T1, got `{range}`"))
                    })?;
                    let t0 = finite(ln, "count window start", t0)?;
                    let t1 = finite(ln, "count window end", t1)?;
                    if t1 < t0 {
                        return Err(perr(ln, "count window end before start"));
                    }
                    Some((t0, t1))
                }
                _ => return Err(perr(ln, count_form)),
            };
            Ok(Assertion::Count {
                kind: event_kind(ln, k)?,
                op: op(ln, o)?,
                value: v.parse().map_err(|_| {
                    perr(
                        ln,
                        format!("count bound: `{v}` is not a non-negative integer"),
                    )
                })?,
                window,
            })
        }
        ("count", _) => Err(perr(ln, count_form)),
        ("respond", [from, "->", to, "within", s]) => {
            let to = to.split('|').map(|kind| event_kind(ln, kind));
            let within_s = finite(ln, "respond deadline", s)?;
            if within_s <= 0.0 {
                return Err(perr(ln, "respond deadline must be positive"));
            }
            Ok(Assertion::Respond {
                from: event_kind(ln, from)?,
                to: to.collect::<Result<_, _>>()?,
                within_s,
            })
        }
        ("respond", _) => {
            let msg = "respond needs `FROM -> TO[|TO...] within SECONDS`";
            Err(perr(ln, msg))
        }
        (other, _) => {
            let msg = format!("unknown assertion form `{other}` (expected metric/count/respond)");
            Err(perr(ln, msg))
        }
    }
}

/// One assertion's result: the manifest text, what was observed, and
/// whether it held.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertionOutcome {
    /// Index in manifest declaration order.
    pub index: usize,
    /// The assertion's canonical text.
    pub text: String,
    /// Whether it held.
    pub passed: bool,
    /// The observed value: the metric, the event count, or (for
    /// `respond`) the number of unanswered triggers.
    pub actual: f64,
}

/// Evaluates one assertion against the run's metrics table and trace.
///
/// `metrics` maps metric name → value (the same table `result.json`
/// prints); `events` is the recorded trace in (time, seq) order;
/// `horizon_s` is the last simulated instant the trace covers — `respond`
/// triggers whose deadline extends past it are not judged (the response
/// may simply not have been observable).
pub fn evaluate(
    index: usize,
    a: &Assertion,
    metrics: &[(String, f64)],
    events: &[Event],
    horizon_s: f64,
) -> AssertionOutcome {
    let (passed, actual) = match a {
        Assertion::Metric { name, op, value } => {
            let actual = metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or(f64::NAN);
            (actual.is_finite() && op.holds(actual, *value), actual)
        }
        Assertion::Count {
            kind,
            op,
            value,
            window,
        } => {
            let n = events
                .iter()
                .filter(|e| {
                    e.kind.name() == kind && window.is_none_or(|(t0, t1)| e.t >= t0 && e.t <= t1)
                })
                .count() as u64;
            (op.holds(n as f64, *value as f64), n as f64)
        }
        Assertion::Respond { from, to, within_s } => {
            let mut unanswered = 0u64;
            for (i, e) in events.iter().enumerate() {
                if e.kind.name() != from {
                    continue;
                }
                let deadline = e.t + within_s;
                if deadline > horizon_s {
                    // The trace ends before the response was due; not a
                    // violation, just unobservable.
                    continue;
                }
                let answered = events[i + 1..]
                    .iter()
                    .take_while(|r| r.t <= deadline)
                    .any(|r| to.iter().any(|k| r.kind.name() == k));
                if !answered {
                    unanswered += 1;
                }
            }
            (unanswered == 0, unanswered as f64)
        }
    };
    AssertionOutcome {
        index,
        text: a.text(),
        passed,
        actual,
    }
}

/// Evaluates every assertion in manifest order.
pub fn evaluate_all(
    assertions: &[Assertion],
    metrics: &[(String, f64)],
    events: &[Event],
    horizon_s: f64,
) -> Vec<AssertionOutcome> {
    assertions
        .iter()
        .enumerate()
        .map(|(i, a)| evaluate(i, a, metrics, events, horizon_s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmb_obs::EventKind;

    fn ev(seq: u64, t: f64, kind: EventKind) -> Event {
        Event { seq, t, kind }
    }

    fn sample_events() -> Vec<Event> {
        vec![
            ev(0, 0.00, EventKind::ScenarioStarted { assertions: 2 }),
            ev(
                1,
                0.01,
                EventKind::RemeasureScheduled {
                    at: 0.02,
                    attempt: 1,
                },
            ),
            ev(2, 0.02, EventKind::RemeasureOk { attempt: 1 }),
            ev(
                3,
                0.05,
                EventKind::RemeasureScheduled {
                    at: 0.06,
                    attempt: 1,
                },
            ),
            ev(4, 0.30, EventKind::ApDown { ap: 0 }),
            ev(5, 0.50, EventKind::ApUp { ap: 0 }),
        ]
    }

    #[test]
    fn metric_assertions_compare() {
        let metrics = vec![("jain".to_string(), 0.9)];
        let a = Assertion::Metric {
            name: "jain".into(),
            op: Op::Ge,
            value: 0.8,
        };
        let out = evaluate(0, &a, &metrics, &[], 1.0);
        assert!(out.passed);
        assert_eq!(out.actual, 0.9);
        let a = Assertion::Metric {
            name: "jain".into(),
            op: Op::Ge,
            value: 0.95,
        };
        assert!(!evaluate(0, &a, &metrics, &[], 1.0).passed);
        // A metric missing from the table fails rather than passing
        // vacuously.
        let a = Assertion::Metric {
            name: "goodput_mbps".into(),
            op: Op::Le,
            value: 1e9,
        };
        assert!(!evaluate(0, &a, &metrics, &[], 1.0).passed);
    }

    #[test]
    fn count_assertions_filter_kind_and_window() {
        let events = sample_events();
        let a = Assertion::Count {
            kind: "RemeasureScheduled".into(),
            op: Op::Eq,
            value: 2,
            window: None,
        };
        let out = evaluate(0, &a, &[], &events, 1.0);
        assert!(out.passed, "actual {}", out.actual);
        let a = Assertion::Count {
            kind: "RemeasureScheduled".into(),
            op: Op::Eq,
            value: 1,
            window: Some((0.0, 0.03)),
        };
        assert!(evaluate(0, &a, &[], &events, 1.0).passed);
        let a = Assertion::Count {
            kind: "ApDown".into(),
            op: Op::Gt,
            value: 1,
            window: None,
        };
        assert!(!evaluate(0, &a, &[], &events, 1.0).passed);
    }

    #[test]
    fn respond_assertions_track_deadlines() {
        let events = sample_events();
        // First trigger (t=0.01) answered at 0.02; second (t=0.05) never
        // answered, deadline 0.15 < horizon ⇒ one violation.
        let a = Assertion::Respond {
            from: "RemeasureScheduled".into(),
            to: vec!["RemeasureOk".into(), "RemeasureFailed".into()],
            within_s: 0.1,
        };
        let out = evaluate(0, &a, &[], &events, 1.0);
        assert!(!out.passed);
        assert_eq!(out.actual, 1.0);
        // With a horizon that ends before the second deadline, the
        // unanswerable trigger is skipped and the assertion holds.
        let out = evaluate(0, &a, &[], &events, 0.1);
        assert!(out.passed, "actual {}", out.actual);
        // ApDown answered by ApUp within 0.25 s.
        let a = Assertion::Respond {
            from: "ApDown".into(),
            to: vec!["ApUp".into()],
            within_s: 0.25,
        };
        assert!(evaluate(0, &a, &[], &events, 1.0).passed);
    }
}
