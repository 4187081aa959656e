//! Golden-fixture tests: each `tests/fixtures/*.rs` file carries a
//! `//@path` directive naming the workspace path it pretends to live at;
//! the engine's findings are compared line-for-line against the matching
//! `.expected` file. Regenerate an expected file by running the test with
//! `JMB_LINT_REGEN=1` and inspecting the diff.

use std::fs;
use std::path::{Path, PathBuf};

use jmb_lint::{engine, render_fix_allow, render_json, Diagnostic, SourceFile};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Load a fixture file, honouring its `//@path` directive.
fn load_fixture(path: &Path) -> SourceFile {
    let src = fs::read_to_string(path).unwrap();
    let first = src.lines().next().unwrap_or_default();
    let rel = first
        .strip_prefix("//@path ")
        .unwrap_or_else(|| panic!("{} must start with `//@path <rel>`", path.display()))
        .trim()
        .to_string();
    SourceFile::new(rel, src)
}

fn render(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| {
            format!(
                "{}:{}:{} {} [{}] {}",
                d.file, d.line, d.col, d.severity, d.lint, d.message
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Compare against the golden file, or rewrite it under JMB_LINT_REGEN=1.
fn check_golden(name: &str, actual: &str) {
    let expected_path = fixtures_dir().join(name);
    if std::env::var_os("JMB_LINT_REGEN").is_some() {
        fs::write(&expected_path, format!("{}\n", actual.trim_end())).unwrap();
        return;
    }
    let expected = fs::read_to_string(&expected_path)
        .unwrap_or_else(|_| panic!("missing golden file {}", expected_path.display()));
    assert_eq!(
        actual.trim_end(),
        expected.trim_end(),
        "golden mismatch for {name} (set JMB_LINT_REGEN=1 to regenerate)"
    );
}

fn run_single(fixture: &str) -> Vec<Diagnostic> {
    let file = load_fixture(&fixtures_dir().join(fixture));
    engine::run(std::slice::from_ref(&file))
}

#[test]
fn golden_panic_hot_path() {
    check_golden(
        "panic_hot_path.expected",
        &render(&run_single("panic_hot_path.rs")),
    );
}

#[test]
fn golden_allows() {
    check_golden("allows.expected", &render(&run_single("allows.rs")));
}

/// Load every fixture in a subdirectory, sorted by pretend path — the
/// shape the cross-file lints (taxonomy, ordered-merge) need.
fn run_dir(sub: &str, names: &[&str]) -> Vec<Diagnostic> {
    let dir = fixtures_dir().join(sub);
    let mut files: Vec<SourceFile> = names.iter().map(|n| load_fixture(&dir.join(n))).collect();
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    engine::run(&files)
}

#[test]
fn golden_taxonomy_cross_file() {
    check_golden(
        "taxonomy.expected",
        &render(&run_dir(
            "taxonomy",
            &["event.rs", "emitter.rs", "tests.rs"],
        )),
    );
}

#[test]
fn golden_ordered_merge() {
    check_golden(
        "ordered_merge.expected",
        &render(&run_dir(
            "ordered_merge",
            &["undocumented.rs", "documented.rs"],
        )),
    );
}

#[test]
fn golden_fix_allow() {
    // `--fix-allow` output is a CI-facing contract too: one paste-ready
    // suppression line per finding, hygiene lints skipped.
    check_golden(
        "fix_allow.expected",
        &render_fix_allow(&run_single("panic_hot_path.rs")),
    );
}

#[test]
fn golden_json_output() {
    // The JSON renderer is part of the CI contract (artifact upload), so
    // its exact shape is pinned too.
    check_golden(
        "panic_hot_path.json.expected",
        &render_json(&run_single("panic_hot_path.rs")),
    );
}

#[test]
fn json_output_is_parseable_by_a_naive_reader() {
    // Sanity beyond the golden: balanced brackets/braces and one object
    // per diagnostic (the CI consumer is `python -m json.tool`-level).
    let json = render_json(&run_single("panic_hot_path.rs"));
    let diags = run_single("panic_hot_path.rs");
    assert_eq!(json.matches("{\"lint\"").count(), diags.len());
    assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
}
