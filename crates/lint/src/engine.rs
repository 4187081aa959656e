//! The lint engine: file discovery, lint dispatch, suppression
//! application, and the allow-hygiene meta-lints.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use crate::diag::{Diagnostic, Severity};
use crate::lints;
use crate::source::SourceFile;

/// Directory names never scanned, wherever they appear.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git"];

/// Paths (workspace-relative prefixes) excluded from scanning: the golden
/// fixtures are deliberately broken and must not fail the real tree.
const SKIP_PREFIXES: &[&str] = &["crates/lint/tests/fixtures"];

/// Collect every `.rs` file under `root` that the lints apply to,
/// returning workspace-relative paths (forward slashes, sorted).
pub fn discover(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = rel_path(root, &path);
                if !SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                    out.push(path);
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Load and classify every discovered file.
pub fn load(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    discover(root)?
        .into_iter()
        .map(|path| {
            let src = fs::read_to_string(&path)?;
            Ok(SourceFile::new(rel_path(root, &path), src))
        })
        .collect()
}

/// Run every lint over `files`, apply suppressions, and append the
/// allow-hygiene meta-diagnostics. Returns diagnostics sorted by span.
///
/// This is the pure core — the binary wraps it with discovery and
/// rendering, tests and golden fixtures call it directly.
pub fn run(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut raw: Vec<Diagnostic> = Vec::new();
    for f in files {
        lints::no_panic_hot_path(f, &mut raw);
    }
    lints::trace_taxonomy_complete(files, &mut raw);
    lints::ordered_merge(files, &mut raw);

    // Apply suppressions: an allow matches diagnostics of its lint on its
    // target line. Malformed allows never suppress.
    let mut out: Vec<Diagnostic> = Vec::new();
    let mut used: BTreeSet<(String, u32, String)> = BTreeSet::new(); // (file, line, lint)
    for d in raw {
        let suppressed = files
            .iter()
            .find(|f| f.rel == d.file)
            .map(|f| {
                f.allows.iter().any(|a| {
                    a.has_reason
                        && lints::is_known_lint(&a.lint)
                        && a.lint == d.lint
                        && a.target_line == d.line
                })
            })
            .unwrap_or(false);
        if suppressed {
            used.insert((d.file.clone(), d.line, d.lint.to_string()));
        } else {
            out.push(d);
        }
    }

    // Allow hygiene: malformed, unknown-lint, and unused allows.
    for f in files {
        for a in &f.allows {
            if !a.has_reason {
                out.push(Diagnostic {
                    lint: "allow-syntax",
                    severity: lints::severity_of("allow-syntax"),
                    file: f.rel.clone(),
                    line: a.comment_line,
                    col: a.col,
                    message: "jmb-allow without a reason — the reason is the audit trail".into(),
                    suggestion: "write `// jmb-allow(lint-name): <why this site is exempt>`".into(),
                });
            } else if !lints::is_known_lint(&a.lint) {
                out.push(Diagnostic {
                    lint: "allow-syntax",
                    severity: lints::severity_of("allow-syntax"),
                    file: f.rel.clone(),
                    line: a.comment_line,
                    col: a.col,
                    message: format!("jmb-allow names unknown lint `{}`", a.lint),
                    suggestion: "run `jmb-lint --list` for the catalogue".into(),
                });
            } else if !used.contains(&(f.rel.clone(), a.target_line, a.lint.clone())) {
                out.push(Diagnostic {
                    lint: "unused-allow",
                    severity: lints::severity_of("unused-allow"),
                    file: f.rel.clone(),
                    line: a.comment_line,
                    col: a.col,
                    message: format!(
                        "jmb-allow({}) suppressed nothing on line {}",
                        a.lint, a.target_line
                    ),
                    suggestion: "delete the stale allow (or move it next to the site it \
                                 was meant to cover)"
                        .into(),
                });
            }
        }
    }

    out.sort_by(|a, b| (&a.file, a.line, a.col, a.lint).cmp(&(&b.file, b.line, b.col, b.lint)));
    out
}

/// Promote every warning to deny (`--deny`).
pub fn promote(diags: &mut [Diagnostic]) {
    for d in diags {
        d.severity = Severity::Deny;
    }
}

/// Does the batch gate the build (any deny-level diagnostic)?
pub fn has_deny(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Deny)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(rel: &str, src: &str) -> Vec<Diagnostic> {
        run(&[SourceFile::new(rel.into(), src.into())])
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_used() {
        let src = "fn f(v: Vec<u8>) -> u8 {\n    // jmb-allow(no-panic-hot-path): v is non-empty by construction\n    *v.first().unwrap()\n}\n";
        assert!(one("crates/core/src/fastnet.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_rejected_and_does_not_suppress() {
        let src = "fn f(v: Vec<u8>) -> u8 {\n    // jmb-allow(no-panic-hot-path)\n    *v.first().unwrap()\n}\n";
        let d = one("crates/core/src/fastnet.rs", src);
        let lints: Vec<&str> = d.iter().map(|d| d.lint).collect();
        assert!(lints.contains(&"allow-syntax"));
        assert!(lints.contains(&"no-panic-hot-path"));
    }

    #[test]
    fn unknown_lint_name_is_rejected() {
        let src = "// jmb-allow(no-such-lint): because\nfn f() {}\n";
        let d = one("crates/dsp/src/fft.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].lint, "allow-syntax");
    }

    #[test]
    fn unused_allow_is_warned() {
        let src = "// jmb-allow(no-panic-hot-path): nothing here panics\nfn f() {}\n";
        let d = one("crates/core/src/fastnet.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].lint, "unused-allow");
        assert_eq!(d[0].severity, Severity::Warn);
        assert!(!has_deny(&d));
        let mut d = d;
        promote(&mut d);
        assert!(has_deny(&d));
    }

    #[test]
    fn wrong_lint_name_does_not_suppress_other_lint() {
        let src = "fn f(v: Vec<u8>) -> u8 {\n    // jmb-allow(ordered-merge): wrong lint\n    *v.first().unwrap()\n}\n";
        let d = one("crates/core/src/fastnet.rs", src);
        let lints: Vec<&str> = d.iter().map(|d| d.lint).collect();
        assert!(lints.contains(&"no-panic-hot-path"));
        assert!(lints.contains(&"unused-allow"));
    }

    #[test]
    fn diagnostics_are_sorted_by_span() {
        // The stale allow on line 1 is found after the unwraps below it.
        let src = "// jmb-allow(ordered-merge): stale\nfn f() {}\n\
                   fn g(v: Vec<u8>) { v.last().unwrap(); v.first().unwrap(); }\n";
        let d = one("crates/sim/src/medium.rs", src);
        let spans: Vec<(u32, u32)> = d.iter().map(|d| (d.line, d.col)).collect();
        let mut sorted = spans.clone();
        sorted.sort();
        assert_eq!(spans, sorted);
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].lint, "unused-allow");
    }
}
