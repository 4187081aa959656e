//! Diagnostics: severities, spans, and the human / JSON renderers.

use std::fmt;

/// How strongly a lint's findings gate the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: reported, but does not fail the run unless promoted with
    /// `--deny`.
    Warn,
    /// Gating: any deny-level diagnostic makes `jmb-lint` exit non-zero.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// One finding, anchored to a `file:line:col` span.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The lint that produced this finding (e.g. `no-panic-hot-path`).
    pub lint: &'static str,
    /// Effective severity (after any `--deny` promotion).
    pub severity: Severity,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it — always actionable, never empty.
    pub suggestion: String,
}

impl Diagnostic {
    /// `file:line:col` for sorting and display.
    pub fn span(&self) -> String {
        format!("{}:{}:{}", self.file, self.line, self.col)
    }

    /// The stable one-line human rendering.
    pub fn render_human(&self) -> String {
        format!(
            "{}: {} [{}] {}\n    suggestion: {}",
            self.span(),
            self.severity,
            self.lint,
            self.message,
            self.suggestion
        )
    }
}

/// Render a diagnostic batch as a JSON array (stable field order, no
/// trailing whitespace). Hand-rolled: the workspace vendors all
/// dependencies, so no serde.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        out.push_str(&format!("\"lint\":{},", json_str(d.lint)));
        out.push_str(&format!(
            "\"severity\":{},",
            json_str(&d.severity.to_string())
        ));
        out.push_str(&format!("\"file\":{},", json_str(&d.file)));
        out.push_str(&format!("\"line\":{},", d.line));
        out.push_str(&format!("\"col\":{},", d.col));
        out.push_str(&format!("\"message\":{},", json_str(&d.message)));
        out.push_str(&format!("\"suggestion\":{}", json_str(&d.suggestion)));
        out.push('}');
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// Render a diagnostic batch as paste-ready `jmb-allow` suppression lines
/// (`--fix-allow`): one line per finding, giving the file:line anchor and
/// the exact comment to put above it, with a reason stub the author must
/// replace. Allow-hygiene findings (`allow-syntax`, `unused-allow`) are
/// about suppression comments themselves and are skipped — suppressing a
/// suppression is never the fix.
pub fn render_fix_allow(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        if d.lint == "allow-syntax" || d.lint == "unused-allow" {
            continue;
        }
        out.push_str(&format!(
            "{}:{}: // jmb-allow({}): TODO(audit) — {}\n",
            d.file, d.line, d.lint, d.message
        ));
    }
    out
}

/// Escape a string for JSON output.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        let d = Diagnostic {
            lint: "no-panic-hot-path",
            severity: Severity::Deny,
            file: "crates/x/src/a.rs".into(),
            line: 3,
            col: 7,
            message: "tab\there \"quoted\"".into(),
            suggestion: "back\\slash".into(),
        };
        let json = render_json(std::slice::from_ref(&d));
        assert!(json.contains(r#""message":"tab\there \"quoted\"""#));
        assert!(json.contains(r#""suggestion":"back\\slash""#));
        assert!(json.starts_with('[') && json.ends_with(']'));
    }

    #[test]
    fn empty_batch_is_empty_array() {
        assert_eq!(render_json(&[]), "[]");
    }
}
