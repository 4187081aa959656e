//! The machine-readable run record (`result.json`).
//!
//! JSON is hand-rolled (the workspace is dependency-free) with a fixed
//! field order and shortest-roundtrip float formatting, so the same
//! manifest + seed produces byte-identical bytes across runs, machines,
//! and `--threads` settings — CI byte-compares these files.

use crate::assertion::AssertionOutcome;
use jmb_obs::{json_f64, json_str, StopCause};
use std::fmt::Write;

/// The overall outcome of a scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every assertion held (exit 0).
    Pass,
    /// The run completed but at least one assertion failed (exit 1).
    AssertionFailed,
    /// A resource limit stopped the run early (exit 3).
    LimitExceeded,
    /// The manifest was invalid or the run could not start (exit 2).
    Invalid,
}

impl Verdict {
    /// Stable kebab-case name used in `result.json`.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::AssertionFailed => "assertion-failed",
            Verdict::LimitExceeded => "limit-exceeded",
            Verdict::Invalid => "invalid",
        }
    }

    /// The standardized process exit code for this verdict.
    pub fn exit_code(self) -> i32 {
        match self {
            Verdict::Pass => crate::EXIT_PASS,
            Verdict::AssertionFailed => crate::EXIT_ASSERTION,
            Verdict::LimitExceeded => crate::EXIT_LIMIT,
            Verdict::Invalid => crate::EXIT_INVALID,
        }
    }
}

/// Everything a scenario run reports (serialized as `result.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name (from the manifest, or the file stem when the
    /// manifest itself failed to parse).
    pub name: String,
    /// The master seed the run used.
    pub seed: u64,
    /// Overall outcome.
    pub verdict: Verdict,
    /// Why the event loop stopped.
    pub stop_cause: StopCause,
    /// Simulation events processed.
    pub events: u64,
    /// Per-assertion outcomes, in manifest order.
    pub assertions: Vec<AssertionOutcome>,
    /// The metrics snapshot, in canonical order.
    pub metrics: Vec<(String, f64)>,
    /// Machine-readable error text when `verdict` is `invalid`.
    pub error: Option<String>,
}

impl ScenarioReport {
    /// A report for a manifest that never ran (parse/validation/build
    /// failure). Exit code 2, no metrics, no assertions.
    pub fn invalid(name: &str, error: &crate::ScenarioError) -> Self {
        ScenarioReport {
            name: name.to_string(),
            seed: 0,
            verdict: Verdict::Invalid,
            stop_cause: StopCause::Completed,
            events: 0,
            assertions: Vec::new(),
            metrics: Vec::new(),
            error: Some(error.to_string()),
        }
    }

    /// Serializes the report with a stable field order.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n  \"schema_version\": 1,\n  \"name\": ");
        json_str(&mut s, &self.name);
        let _ = writeln!(s, ",\n  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"verdict\": \"{}\",", self.verdict.name());
        let _ = writeln!(s, "  \"exit_code\": {},", self.verdict.exit_code());
        let _ = writeln!(s, "  \"stop_cause\": \"{}\",", self.stop_cause.name());
        let _ = writeln!(s, "  \"events\": {},", self.events);
        s.push_str("  \"assertions\": [");
        for (i, a) in self.assertions.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    {{\"index\": {}, \"text\": ", a.index);
            json_str(&mut s, &a.text);
            let _ = write!(s, ", \"passed\": {}, \"actual\": ", a.passed);
            json_f64(&mut s, a.actual);
            s.push('}');
        }
        s.push_str(if self.assertions.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            json_str(&mut s, k);
            s.push_str(": ");
            json_f64(&mut s, *v);
        }
        s.push_str(if self.metrics.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        s.push_str("  \"error\": ");
        match &self.error {
            Some(e) => json_str(&mut s, e),
            None => s.push_str("null"),
        }
        s.push_str("\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioReport {
        ScenarioReport {
            name: "demo".into(),
            seed: 7,
            verdict: Verdict::AssertionFailed,
            stop_cause: StopCause::Completed,
            events: 123,
            assertions: vec![AssertionOutcome {
                index: 0,
                text: "metric jain >= 0.8".into(),
                passed: false,
                actual: 0.5,
            }],
            metrics: vec![("jain".into(), 0.5), ("weird".into(), f64::NAN)],
            error: None,
        }
    }

    #[test]
    fn verdict_contract() {
        assert_eq!(Verdict::Pass.exit_code(), 0);
        assert_eq!(Verdict::AssertionFailed.exit_code(), 1);
        assert_eq!(Verdict::Invalid.exit_code(), 2);
        assert_eq!(Verdict::LimitExceeded.exit_code(), 3);
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let r = sample();
        assert_eq!(r.to_json(), r.to_json());
        let j = r.to_json();
        assert!(j.contains("\"verdict\": \"assertion-failed\""));
        assert!(j.contains("\"exit_code\": 1"));
        assert!(j.contains("\"passed\": false"));
        assert!(j.contains("\"weird\": null"), "NaN must serialize as null");
        let escaped = ScenarioReport {
            name: "a\"b\\c\nd".into(),
            ..r
        };
        let j = escaped.to_json();
        assert!(j.contains("\"name\": \"a\\\"b\\\\c\\nd\",\n"), "{j}");
    }

    #[test]
    fn invalid_report_shape() {
        let e = crate::ScenarioError::Parse {
            line: 3,
            message: "unknown key `x`".into(),
        };
        let r = ScenarioReport::invalid("broken", &e);
        assert_eq!(r.verdict, Verdict::Invalid);
        let j = r.to_json();
        assert!(j.contains("\"assertions\": [],"));
        assert!(j.contains("\"metrics\": {},"));
        assert!(j.contains("line 3"));
    }
}
