//! Assertion evaluation: metrics thresholds and trace predicates.
//!
//! Assertions never panic — each evaluates to an [`AssertionOutcome`]
//! carrying the observed value, and the runner folds outcomes into the
//! scenario verdict. This is the load-bearing difference from
//! `jmb_obs::TraceQuery`'s `assert_*` chainers (which are for tests):
//! a failed scenario assertion is a *result*, exit code 1, with the
//! evidence in `result.json`.

use crate::manifest::Assertion;
use jmb_obs::Event;

/// Metrics available in every run (single-cell and city alike).
pub const COMMON_METRICS: &[&str] = &[
    "goodput_mbps",
    "offered_mbps",
    "generated",
    "delivered",
    "dropped",
    "retries",
    "queued_at_end",
    "median_latency_ms",
    "p99_latency_ms",
    "jain",
    "delivery_ratio",
    "sync_misses",
    "remeasure_ok",
    "remeasure_failed",
    "aps_degraded",
    "aps_restored",
    "csi_stale",
];

/// Metrics that only exist in single-cell runs. `goodput_vs_clean` is the
/// degrade-not-stall ratio: the faulted run's goodput over a fault-free
/// reference run with the same seed (1.0 = no degradation).
pub const SINGLE_METRICS: &[&str] = &["goodput_vs_clean"];

/// Metrics that only exist in city runs.
pub const CITY_METRICS: &[&str] = &["area_capacity_mbps_km2", "mean_inr_db"];

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
    use crate::manifest::Op;
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
