//! Typed errors for manifest loading and scenario execution.
//!
//! Everything here maps to exit code 2 ([`crate::EXIT_INVALID`]): a
//! scenario that *ran* reports its outcome through
//! [`crate::report::Verdict`] instead (assertion failures are code 1,
//! limit stops code 3) — an error means the run could not meaningfully
//! start.

use std::fmt;

/// Why a manifest could not be loaded or executed.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A problem with one line, with its 1-based line number: unknown
    /// section or key, wrong arity, malformed value, a number outside its
    /// key's range, a key given twice, empty fault window, unknown metric
    /// or event-kind name.
    Parse {
        /// 1-based line number in the manifest text.
        line: usize,
        /// What is wrong with the line.
        message: String,
    },
    /// A problem with no single offending line: a required key that never
    /// appears, a rule that ties sections together (a fault schedule on a
    /// city grid), or a config the run's plan built from the manifest that
    /// its library refuses — under the keys that fed it.
    Invalid(String),
    /// The manifest file (or an output artifact) could not be read or
    /// written.
    Io(String),
    /// The simulation failed while it ran. Never a configuration problem:
    /// the plan has every config validated by its library before anything
    /// is built.
    Sim(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse { line, message } => write!(f, "line {line}: {message}"),
            ScenarioError::Invalid(m) => write!(f, "invalid manifest: {m}"),
            ScenarioError::Io(m) => write!(f, "io error: {m}"),
            ScenarioError::Sim(m) => write!(f, "simulation error: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<std::io::Error> for ScenarioError {
    fn from(e: std::io::Error) -> Self {
        ScenarioError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_line() {
        let e = ScenarioError::Parse {
            line: 7,
            message: "unknown key `sausages`".into(),
        };
        assert_eq!(e.to_string(), "line 7: unknown key `sausages`");
        assert!(ScenarioError::Invalid("x".into())
            .to_string()
            .contains("invalid"));
    }
}
