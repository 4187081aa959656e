//! The lint registry: the repo invariants no compiler lint expresses.
//!
//! Each lint is a pure function from lexed sources to diagnostics. The
//! catalogue ([`LINTS`]) is the single source of truth for names,
//! default severities, and one-line descriptions (`--list` prints it;
//! DESIGN.md §3.10 documents the rationale for each entry, and which
//! invariants rustc and the root `clippy.toml` hold instead).

use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Catalogue entry for one lint.
pub struct LintInfo {
    /// Stable kebab-case name (used in `jmb-allow(...)`).
    pub name: &'static str,
    /// Default severity before any `--deny` promotion.
    pub severity: Severity,
    /// One-line description for `--list`.
    pub description: &'static str,
}

/// The full catalogue, in evaluation order.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        name: "no-panic-hot-path",
        severity: Severity::Deny,
        description: "forbid unwrap/expect/panic!/unreachable!/todo!/unimplemented!/assert! in \
                      non-test hot-path code (fastnet, net, network, precoder, mac, csi, jmb-sim, \
                      jmb-traffic, jmb-scenario, phy decode chain); steer toward JmbError",
    },
    LintInfo {
        name: "trace-taxonomy-complete",
        severity: Severity::Deny,
        description: "every EventKind variant must have an emission site outside jmb-obs \
                      and appear in at least one test",
    },
    LintInfo {
        name: "ordered-merge",
        severity: Severity::Deny,
        description: "every public `merge` fn on report/registry types must document its key \
                      order and be exercised by a test in its own crate",
    },
    LintInfo {
        name: "allow-syntax",
        severity: Severity::Deny,
        description: "jmb-allow comments must name a known lint and give a non-empty reason",
    },
    LintInfo {
        name: "unused-allow",
        severity: Severity::Warn,
        description: "a jmb-allow comment that suppressed nothing is stale and must be removed",
    },
];

/// Default severity for `name` (the catalogue is authoritative).
pub fn severity_of(name: &str) -> Severity {
    LINTS
        .iter()
        .find(|l| l.name == name)
        .map(|l| l.severity)
        .unwrap_or(Severity::Deny)
}

/// Is `name` a known lint (valid in `jmb-allow(...)`)?
pub fn is_known_lint(name: &str) -> bool {
    LINTS.iter().any(|l| l.name == name)
}

/// Files subject to `no-panic-hot-path`: the §4/§9 hot paths named in the
/// roadmap, all of `jmb-sim` and `jmb-traffic`, the jmb-phy decode chain
/// (everything `frame::decode` touches), and the resampler every
/// sample-level render leans on.
fn is_hot_path(rel: &str) -> bool {
    const CORE_HOT: &[&str] = &[
        "crates/core/src/fastnet.rs",
        "crates/core/src/net.rs",
        "crates/core/src/network.rs",
        "crates/core/src/control.rs",
        "crates/core/src/precoder.rs",
        "crates/core/src/mac.rs",
        "crates/core/src/csi.rs",
    ];
    const PHY_DECODE: &[&str] = &[
        "crates/phy/src/frame.rs",
        "crates/phy/src/sync.rs",
        "crates/phy/src/ofdm.rs",
        "crates/phy/src/chanest.rs",
        "crates/phy/src/modulation.rs",
        "crates/phy/src/interleaver.rs",
        "crates/phy/src/convcode.rs",
        "crates/phy/src/viterbi.rs",
        "crates/phy/src/scrambler.rs",
        "crates/phy/src/crc.rs",
    ];
    CORE_HOT.contains(&rel)
        || PHY_DECODE.contains(&rel)
        || rel == "crates/dsp/src/delay.rs"
        || rel.starts_with("crates/sim/src/")
        || rel.starts_with("crates/traffic/src/")
        || rel.starts_with("crates/scenario/src/")
}

/// `no-panic-hot-path`: ban panicking constructs in non-test hot-path
/// code. `debug_assert*` is exempt (compiled out of release sweeps).
pub fn no_panic_hot_path(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !is_hot_path(&file.rel) || file.is_test_file() {
        return;
    }
    const PANIC_MACROS: &[&str] = &[
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
    ];
    for (i, tok) in file.tokens.iter().enumerate() {
        if file.in_test[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        let name = file.text(tok);
        let next_is = |ch: u8| {
            file.next_significant(i)
                .is_some_and(|j| file.tokens[j].is_punct(ch))
        };
        if (name == "unwrap" || name == "expect")
            && next_is(b'(')
            && file
                .prev_significant(i)
                .is_some_and(|j| file.tokens[j].is_punct(b'.'))
        {
            out.push(Diagnostic {
                lint: "no-panic-hot-path",
                severity: severity_of("no-panic-hot-path"),
                file: file.rel.clone(),
                line: tok.line,
                col: tok.col,
                message: format!("`.{name}()` can panic in hot-path code"),
                suggestion: "propagate a typed `JmbError` (`ok_or`/`map_err` + `?`), or, if \
                             the call is provably infallible, annotate the line with \
                             `// jmb-allow(no-panic-hot-path): <the invariant>`"
                    .into(),
            });
        } else if PANIC_MACROS.contains(&name) && next_is(b'!') {
            out.push(Diagnostic {
                lint: "no-panic-hot-path",
                severity: severity_of("no-panic-hot-path"),
                file: file.rel.clone(),
                line: tok.line,
                col: tok.col,
                message: format!("`{name}!` panics in hot-path code"),
                suggestion: "return `JmbError::BadConfig`/a typed error for caller mistakes, \
                             use `debug_assert!` for internal invariants checked in CI, or \
                             annotate with `// jmb-allow(no-panic-hot-path): <the invariant>`"
                    .into(),
            });
        }
    }
}

/// `trace-taxonomy-complete`: cross-file. Parse the `EventKind` enum out
/// of `crates/obs/src/event.rs`, then require each variant to (a) be
/// constructed at least once outside `jmb-obs` in non-test code, and
/// (b) appear in at least one test (as an identifier or a string literal
/// — `TraceQuery::kind` matches by name string). An `event.rs` the enum
/// cannot be parsed out of is itself a finding: with no variants the check
/// would hold nothing and still pass.
pub fn trace_taxonomy_complete(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    const EVENT_RS: &str = "crates/obs/src/event.rs";
    let Some(event_file) = files.iter().find(|f| f.rel == EVENT_RS) else {
        return; // not linting the full workspace (e.g. a fixture subset)
    };
    let variants = parse_event_kind_variants(event_file);
    if variants.is_empty() {
        out.push(Diagnostic {
            lint: "trace-taxonomy-complete",
            severity: severity_of("trace-taxonomy-complete"),
            file: EVENT_RS.into(),
            line: 1,
            col: 1,
            message: "no `enum EventKind { … }` with variants found — the taxonomy check \
                      has nothing to hold and would pass vacuously"
                .into(),
            suggestion: "keep the enum's own text (`enum EventKind { Variant { .. }, … }`) in \
                         event.rs — inside a macro invocation if the kinds are declared by one"
                .into(),
        });
    }
    for (variant, line, col) in &variants {
        let emitted = files.iter().any(|f| {
            !f.rel.starts_with("crates/obs/")
                && !f.is_test_file()
                && has_eventkind_ref(f, variant, false)
        });
        let tested = files.iter().any(|f| {
            let whole_file = f.is_test_file();
            f.tokens.iter().enumerate().any(|(i, t)| {
                (whole_file || f.in_test[i])
                    && match t.kind {
                        TokenKind::Ident => f.text(t) == variant,
                        TokenKind::StrLit => f.text(t).trim_matches('"') == variant,
                        _ => false,
                    }
            })
        });
        if !emitted {
            out.push(Diagnostic {
                lint: "trace-taxonomy-complete",
                severity: severity_of("trace-taxonomy-complete"),
                file: EVENT_RS.into(),
                line: *line,
                col: *col,
                message: format!(
                    "`EventKind::{variant}` is never emitted outside jmb-obs — a taxonomy \
                     entry nothing produces is dead vocabulary"
                ),
                suggestion: format!(
                    "emit `EventKind::{variant}` from the subsystem that owns the condition, \
                     or delete the variant"
                ),
            });
        }
        if !tested {
            out.push(Diagnostic {
                lint: "trace-taxonomy-complete",
                severity: severity_of("trace-taxonomy-complete"),
                file: EVENT_RS.into(),
                line: *line,
                col: *col,
                message: format!(
                    "`EventKind::{variant}` appears in no test — its emission conditions are \
                     unverified"
                ),
                suggestion: format!(
                    "assert the variant in a trace-replay test (e.g. \
                     `TraceQuery::kind(\"{variant}\")` with a count bound)"
                ),
            });
        }
    }
}

/// Extract `(name, line, col)` for each variant of `pub enum EventKind`.
fn parse_event_kind_variants(file: &SourceFile) -> Vec<(String, u32, u32)> {
    let toks = &file.tokens;
    let mut variants = Vec::new();
    // Find `enum EventKind {`.
    let Some(open) = (0..toks.len()).find_map(|i| {
        if toks[i].is_ident(&file.src, "enum")
            && file
                .next_significant(i)
                .is_some_and(|j| toks[j].is_ident(&file.src, "EventKind"))
        {
            let j = file.next_significant(i)?;
            let brace = file.next_significant(j)?;
            toks[brace].is_punct(b'{').then_some(brace)
        } else {
            None
        }
    }) else {
        return variants;
    };
    let mut depth = 1i32;
    let mut expecting_variant = true;
    let mut i = open + 1;
    while i < toks.len() && depth > 0 {
        match toks[i].kind {
            TokenKind::Punct(b'{') | TokenKind::Punct(b'(') => {
                depth += 1;
                expecting_variant = false;
            }
            TokenKind::Punct(b'}') | TokenKind::Punct(b')') => {
                depth -= 1;
            }
            TokenKind::Punct(b',') if depth == 1 => expecting_variant = true,
            TokenKind::Ident if depth == 1 && expecting_variant => {
                let t = &toks[i];
                variants.push((file.text(t).to_string(), t.line, t.col));
                expecting_variant = false;
            }
            _ => {}
        }
        i += 1;
    }
    variants
}

/// Does `file` reference `EventKind::<variant>`? Honours local renames
/// (`use jmb_obs::EventKind as TraceKind;`). With `include_test` false,
/// test-region tokens don't count.
fn has_eventkind_ref(file: &SourceFile, variant: &str, include_test: bool) -> bool {
    // Local names for the enum: `EventKind` plus any `EventKind as X`.
    let mut names: Vec<&str> = vec!["EventKind"];
    for (i, t) in file.tokens.iter().enumerate() {
        if t.is_ident(&file.src, "EventKind") {
            if let Some(j) = file.next_significant(i) {
                if file.tokens[j].is_ident(&file.src, "as") {
                    if let Some(k) = file.next_significant(j) {
                        if file.tokens[k].kind == TokenKind::Ident {
                            names.push(file.text(&file.tokens[k]));
                        }
                    }
                }
            }
        }
    }
    file.tokens.iter().enumerate().any(|(i, t)| {
        if !include_test && file.in_test[i] {
            return false;
        }
        if !t.is_ident(&file.src, variant) {
            return false;
        }
        // Require an `EventKind ::` (or alias `::`) prefix.
        let p1 = file.prev_significant(i);
        let p0 = p1.and_then(|j| file.prev_significant(j));
        let p_1 = p0.and_then(|j| file.prev_significant(j));
        matches!((p_1, p0, p1), (Some(a), Some(b), Some(c))
            if file.tokens[a].kind == TokenKind::Ident
                && names.contains(&file.text(&file.tokens[a]))
                && file.tokens[b].is_punct(b':')
                && file.tokens[c].is_punct(b':'))
    })
}

/// `ordered-merge` (cross-file): every public `merge` fn on the
/// report/registry crates must say in its doc comment what order it
/// combines shards in, and be exercised by at least one test in its own
/// crate — merge order is exactly where cross-shard FP nondeterminism
/// hides.
pub fn ordered_merge(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    const MERGE_SCOPES: &[&str] = &[
        "crates/obs/src/",
        "crates/traffic/src/",
        "crates/city/src/",
        "crates/core/src/",
    ];
    for file in files {
        if !MERGE_SCOPES.iter().any(|s| file.rel.starts_with(s)) || file.is_test_file() {
            continue;
        }
        let toks = &file.tokens;
        for (i, tok) in toks.iter().enumerate() {
            if file.in_test[i] || !tok.is_ident(&file.src, "fn") {
                continue;
            }
            let Some(name_idx) = file.next_significant(i) else {
                continue;
            };
            if !toks[name_idx].is_ident(&file.src, "merge") {
                continue;
            }
            // Public API only: `pub fn merge` (not `pub(crate)`, not
            // private — those cannot leak unordered shards to callers).
            let Some(vis) = file.prev_significant(i) else {
                continue;
            };
            if !toks[vis].is_ident(&file.src, "pub") {
                continue;
            }
            let mtok = &toks[name_idx];
            if !merge_doc_mentions_order(file, vis) {
                out.push(Diagnostic {
                    lint: "ordered-merge",
                    severity: severity_of("ordered-merge"),
                    file: file.rel.clone(),
                    line: mtok.line,
                    col: mtok.col,
                    message: "public `merge` does not document its combination order".into(),
                    suggestion: "state the order in the doc comment (e.g. \"shards are \
                                 combined in key order\" / \"runs are pooled in slice \
                                 order\") — merge order is part of the determinism contract"
                        .into(),
                });
            }
            if !merge_tested_in_crate(files, &file.rel) {
                out.push(Diagnostic {
                    lint: "ordered-merge",
                    severity: severity_of("ordered-merge"),
                    file: file.rel.clone(),
                    line: mtok.line,
                    col: mtok.col,
                    message: "public `merge` is never exercised by a test in its crate".into(),
                    suggestion: "add a test that merges shards in two different orders and \
                                 asserts identical output (see \
                                 `Registry::merge_is_deterministic_pooling`)"
                        .into(),
                });
            }
        }
    }
}

/// Walk back from the item's first token (`pub`) over attributes and
/// comments; true if a doc comment exists and mentions "order".
fn merge_doc_mentions_order(file: &SourceFile, item_start: usize) -> bool {
    let toks = &file.tokens;
    let mut j = item_start;
    let mut doc = String::new();
    while let Some(prev) = j.checked_sub(1) {
        match toks[prev].kind {
            TokenKind::Comment { doc: true, .. } => {
                doc.push_str(file.text(&toks[prev]));
                doc.push('\n');
                j = prev;
            }
            TokenKind::Comment { doc: false, .. } => j = prev,
            TokenKind::Punct(b']') => {
                // Skip an attribute `#[…]` backwards.
                let mut depth = 0i32;
                let mut k = prev;
                loop {
                    match toks[k].kind {
                        TokenKind::Punct(b']') => depth += 1,
                        TokenKind::Punct(b'[') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    let Some(k2) = k.checked_sub(1) else { break };
                    k = k2;
                }
                j = k.saturating_sub(1);
                if !toks.get(j).is_some_and(|t| t.is_punct(b'#')) {
                    j = k;
                }
            }
            _ => break,
        }
    }
    !doc.is_empty() && doc.to_lowercase().contains("order")
}

/// Is a `merge` call (`.merge(` or `::merge(`) present in test code of the
/// same crate as `rel` (its `#[cfg(test)]` regions, its `tests/` tree, or
/// the workspace-level `tests/` directory)?
fn merge_tested_in_crate(files: &[SourceFile], rel: &str) -> bool {
    let crate_prefix = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .map(|c| format!("crates/{c}/"));
    files.iter().any(|f| {
        let same_crate = match &crate_prefix {
            Some(p) => f.rel.starts_with(p.as_str()),
            None => false,
        };
        let workspace_tests = f.rel.starts_with("tests/");
        if !(same_crate || workspace_tests) {
            return false;
        }
        let whole_file = f.is_test_file();
        f.tokens.iter().enumerate().any(|(i, t)| {
            (whole_file || f.in_test[i])
                && t.is_ident(&f.src, "merge")
                && f.prev_significant(i)
                    .is_some_and(|j| f.tokens[j].is_punct(b'.') || f.tokens[j].is_punct(b':'))
                && f.next_significant(i)
                    .is_some_and(|j| f.tokens[j].is_punct(b'('))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags_for(rel: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new(rel.into(), src.into());
        let mut out = Vec::new();
        no_panic_hot_path(&f, &mut out);
        out
    }

    #[test]
    fn hot_path_unwrap_flagged_only_in_hot_files() {
        let src = "fn f(v: Vec<u8>) -> u8 { v.first().unwrap().clone() }";
        assert_eq!(diags_for("crates/core/src/fastnet.rs", src).len(), 1);
        assert_eq!(diags_for("crates/dsp/src/delay.rs", src).len(), 1);
        assert_eq!(diags_for("crates/dsp/src/fft.rs", src).len(), 0);
        assert_eq!(diags_for("crates/core/src/experiment.rs", src).len(), 0);
    }

    #[test]
    fn unwrap_in_test_mod_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f(v: Vec<u8>) { v.first().unwrap(); }\n}";
        assert!(diags_for("crates/core/src/fastnet.rs", src).is_empty());
    }

    #[test]
    fn debug_assert_is_exempt_but_assert_is_not() {
        let src = "fn f(n: usize) { debug_assert_eq!(n, 1); assert_eq!(n, 1); }";
        let d = diags_for("crates/sim/src/medium.rs", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("assert_eq"));
    }

    #[test]
    fn field_named_expect_is_not_a_call() {
        // `expect` not preceded by `.` or not followed by `(` must not fire.
        let src = "struct S { expect: u8 }\nfn f(s: S) -> u8 { s.expect }";
        assert!(diags_for("crates/core/src/mac.rs", src).is_empty());
    }

    #[test]
    fn taxonomy_detects_unemitted_and_untested_variants() {
        let event = SourceFile::new(
            "crates/obs/src/event.rs".into(),
            "/// K.\npub enum EventKind {\n /// A.\n Used { n: usize },\n /// B.\n Orphan,\n}"
                .into(),
        );
        let emitter = SourceFile::new(
            "crates/sim/src/medium.rs".into(),
            "fn f(t: &Trace) { t.record(EventKind::Used { n: 1 }); }".into(),
        );
        let test = SourceFile::new(
            "tests/observability.rs".into(),
            "fn check(q: Q) { q.kind(\"Used\").assert_count_between(1, 9); }".into(),
        );
        let mut out = Vec::new();
        trace_taxonomy_complete(&[event, emitter, test], &mut out);
        // `Used` is emitted and tested; `Orphan` is neither → 2 findings.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.message.contains("Orphan")));
    }

    #[test]
    fn taxonomy_with_no_parsable_enum_is_a_finding() {
        // The enum moved into a table the parser cannot see: not a pass.
        for src in [
            "kinds! { Used { n: usize }, Orphan }",
            "pub enum EventKind {}",
        ] {
            let event = SourceFile::new("crates/obs/src/event.rs".into(), src.into());
            let mut out = Vec::new();
            trace_taxonomy_complete(&[event], &mut out);
            assert_eq!(out.len(), 1, "{src}");
            assert!(out[0].message.contains("vacuously"), "{}", out[0].message);
        }
    }

    #[test]
    fn taxonomy_parser_reads_the_real_event_rs() {
        // The kinds the parser finds in the workspace's own event.rs are the
        // kinds the trace format's golden fixture carries, in declaration
        // order (`EventKind::NAMES` is generated from the declaration, so
        // the fixture — one line per kind, written in that order and held to
        // `NAMES` by jmb-obs' `event_golden` test — is the text to read).
        let obs = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../obs");
        let read = |rel: &str| std::fs::read_to_string(obs.join(rel)).expect(rel);
        let event = SourceFile::new("crates/obs/src/event.rs".into(), read("src/event.rs"));
        let parsed: Vec<String> = parse_event_kind_variants(&event)
            .into_iter()
            .map(|(name, _, _)| name)
            .collect();
        let mut in_fixture: Vec<String> = Vec::new();
        for line in read("tests/fixtures/event_golden.jsonl").lines() {
            let (_, rest) = line.split_once("\"kind\":\"").expect("a kind per line");
            let kind = rest.split('"').next().unwrap_or_default().to_string();
            if in_fixture.last() != Some(&kind) {
                in_fixture.push(kind);
            }
        }
        assert_eq!(parsed.len(), 26);
        assert_eq!(parsed, in_fixture);
    }

    #[test]
    fn ordered_merge_requires_doc_order_and_same_crate_test() {
        let undocumented = SourceFile::new(
            "crates/city/src/report.rs".into(),
            "/// Pools shard reports.\npub struct R;\nimpl R {\n    /// Pools counters.\n    pub fn merge(&mut self, o: &R) {}\n}\n".into(),
        );
        let good = SourceFile::new(
            "crates/obs/src/reg2.rs".into(),
            "/// Registry.\npub struct G;\nimpl G {\n    /// Combines shards in key order.\n    pub fn merge(&mut self, o: &G) {}\n}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let mut g = super::G; g.merge(&super::G); }\n}\n".into(),
        );
        let mut out = Vec::new();
        ordered_merge(&[undocumented, good], &mut out);
        // report.rs: doc lacks "order" AND no test in crates/city → 2.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.file == "crates/city/src/report.rs"));
    }

    #[test]
    fn private_merge_is_exempt() {
        let f = SourceFile::new(
            "crates/obs/src/h.rs".into(),
            "struct H;\nimpl H {\n    fn merge(&mut self, o: &H) {}\n}\n".into(),
        );
        let mut out = Vec::new();
        ordered_merge(std::slice::from_ref(&f), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn taxonomy_variant_parser_handles_payloads() {
        let event = SourceFile::new(
            "crates/obs/src/event.rs".into(),
            "pub enum EventKind {\n A { x: Vec<(usize, f64)> },\n B(usize),\n C,\n}".into(),
        );
        let v = parse_event_kind_variants(&event);
        let names: Vec<&str> = v.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["A", "B", "C"]);
    }
}
