//! The lint registry: every repo invariant `jmb-lint` enforces.
//!
//! Each lint is a pure function from lexed sources to diagnostics. The
//! catalogue ([`LINTS`]) is the single source of truth for names,
//! default severities, and one-line descriptions (`--list` prints it;
//! DESIGN.md §3.10 documents the rationale for each entry).

use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use crate::symbols::{
    analyze_chain, forward_ordering_adapter, local_unordered_bindings, SymbolIndex,
};

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
        name: "no-wallclock-in-sim",
        severity: Severity::Deny,
        description: "forbid std::time::{SystemTime, Instant} and thread::sleep outside \
                      jmb-obs::span and crates/bench — simulated time must come from the \
                      event loop, never the host clock",
    },
    LintInfo {
        name: "seeded-rng-only",
        severity: Severity::Deny,
        description: "forbid rand::thread_rng/from_entropy/OsRng everywhere (tests included): \
                      all randomness flows from salted, seeded constructors",
    },
    LintInfo {
        name: "safety-comment",
        severity: Severity::Deny,
        description: "every `unsafe` block or fn must carry a `// SAFETY:` comment \
                      explaining why the contract holds",
    },
    LintInfo {
        name: "trace-taxonomy-complete",
        severity: Severity::Deny,
        description: "every EventKind variant must have an emission site outside jmb-obs \
                      and appear in at least one test",
    },
    LintInfo {
        name: "doc-public-items",
        severity: Severity::Deny,
        description: "every public item in jmb-core and jmb-obs must have a doc comment",
    },
    LintInfo {
        name: "no-unordered-iteration",
        severity: Severity::Deny,
        description: "forbid iterating/draining/collecting-from HashMap/HashSet (including \
                      re-exports, aliases, and fields resolved cross-file) in result-producing \
                      code of jmb-core/sim/traffic/city/obs/dsp unless routed through a sorted \
                      adapter or key-sorted loop",
    },
    LintInfo {
        name: "float-reduction-order",
        severity: Severity::Deny,
        description: "forbid .sum()/.product()/.fold() over unordered containers — \
                      floating-point reduction order must be pinned for byte-identical CSVs",
    },
    LintInfo {
        name: "no-ambient-parallelism",
        severity: Severity::Deny,
        description: "available_parallelism/JMB_THREADS may steer scheduling (SweepConfig \
                      defaults, bench CLIs) but must not flow into emitted values — forbidden \
                      outside crates/bench and the SweepConfig default",
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

/// `no-wallclock-in-sim`: the host clock must never influence simulated
/// behaviour. Only `jmb-obs::span` (explicitly wall-clock, kept out of
/// the event stream) and the `crates/bench` timing harnesses may read it.
/// Test code is exempt: a test that times itself cannot perturb results.
pub fn no_wallclock_in_sim(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.rel == "crates/obs/src/span.rs" || file.rel.starts_with("crates/bench/") {
        return;
    }
    let test_file = file.is_test_file();
    for (i, tok) in file.tokens.iter().enumerate() {
        if test_file || file.in_test[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        let name = file.text(tok);
        let flagged = match name {
            "SystemTime" | "Instant" => true,
            "sleep" => {
                // Only `thread::sleep` — a local fn named `sleep` would
                // need the `thread ::` path prefix to be flagged.
                let p1 = file.prev_significant(i);
                let p0 = p1.and_then(|j| file.prev_significant(j));
                let p_1 = p0.and_then(|j| file.prev_significant(j));
                matches!((p_1, p0, p1), (Some(a), Some(b), Some(c))
                    if file.tokens[a].is_ident(&file.src, "thread")
                        && file.tokens[b].is_punct(b':')
                        && file.tokens[c].is_punct(b':'))
            }
            _ => false,
        };
        if flagged {
            out.push(Diagnostic {
                lint: "no-wallclock-in-sim",
                severity: severity_of("no-wallclock-in-sim"),
                file: file.rel.clone(),
                line: tok.line,
                col: tok.col,
                message: format!(
                    "`{name}` reads the host clock — simulation results must not depend on \
                     wall-clock time"
                ),
                suggestion: "drive time from the event loop (`advance`/simulated seconds); \
                             for kernel timing use `jmb_obs::span`, which never enters the \
                             event stream"
                    .into(),
            });
        }
    }
}

/// `seeded-rng-only`: every random draw must come from a salted, seeded
/// generator so runs replay byte-identically. Applies to tests too —
/// flaky tests are how determinism regressions slip in.
pub fn seeded_rng_only(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    const ENTROPY_SOURCES: &[&str] = &["thread_rng", "from_entropy", "OsRng"];
    for tok in &file.tokens {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let name = file.text(tok);
        if ENTROPY_SOURCES.contains(&name) {
            out.push(Diagnostic {
                lint: "seeded-rng-only",
                severity: severity_of("seeded-rng-only"),
                file: file.rel.clone(),
                line: tok.line,
                col: tok.col,
                message: format!("`{name}` draws OS entropy — runs would no longer replay"),
                suggestion: "construct the generator from the experiment seed via the salted \
                             constructors (e.g. `SmallRng::seed_from_u64(salt(seed, …))`)"
                    .into(),
            });
        }
    }
}

/// `safety-comment`: an `unsafe` block or fn must justify itself with a
/// `// SAFETY:` comment immediately above or trailing on the same line.
pub fn safety_comment(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, tok) in file.tokens.iter().enumerate() {
        if !tok.is_ident(&file.src, "unsafe") {
            continue;
        }
        // Comments directly above the `unsafe` token (walk back through
        // a contiguous comment run).
        let mut justified = (0..i)
            .rev()
            .take_while(|&j| matches!(file.tokens[j].kind, TokenKind::Comment { .. }))
            .any(|j| file.text(&file.tokens[j]).contains("SAFETY:"));
        // Or a trailing comment on the same source line.
        justified |= file.tokens[i + 1..]
            .iter()
            .take_while(|t| t.line == tok.line)
            .any(|t| {
                matches!(t.kind, TokenKind::Comment { .. }) && t.text(&file.src).contains("SAFETY:")
            });
        if !justified {
            out.push(Diagnostic {
                lint: "safety-comment",
                severity: severity_of("safety-comment"),
                file: file.rel.clone(),
                line: tok.line,
                col: tok.col,
                message: "`unsafe` without a `// SAFETY:` comment".into(),
                suggestion: "state the specific contract being upheld (aliasing, bounds, \
                             initialization, …) in a `// SAFETY:` comment directly above \
                             the `unsafe` keyword"
                    .into(),
            });
        }
    }
}

/// `doc-public-items`: every `pub` item at module level (or in an
/// inherent impl) in `jmb-core` and `jmb-obs` needs a doc comment.
/// `pub(crate)` and friends are not public API; trait-impl items inherit
/// the trait's docs and are skipped.
pub fn doc_public_items(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !(file.rel.starts_with("crates/core/src/") || file.rel.starts_with("crates/obs/src/")) {
        return;
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Block {
        Mod,
        InherentImpl,
        Other,
    }
    let mut stack: Vec<Block> = vec![Block::Mod]; // file root behaves like a module
    let mut last_kw: Option<&str> = None;
    let mut impl_saw_for = false;
    const ITEM_KWS: &[&str] = &[
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union", "async",
        "unsafe", "extern",
    ];
    for (i, tok) in file.tokens.iter().enumerate() {
        match tok.kind {
            TokenKind::Punct(b'{') => {
                let block = match last_kw {
                    Some("mod") => Block::Mod,
                    Some("impl") if !impl_saw_for => Block::InherentImpl,
                    _ => Block::Other,
                };
                stack.push(block);
                last_kw = None;
                impl_saw_for = false;
            }
            TokenKind::Punct(b'}') => {
                if stack.len() > 1 {
                    stack.pop();
                }
                last_kw = None;
            }
            TokenKind::Punct(b';') | TokenKind::Punct(b'=') => last_kw = None,
            TokenKind::Ident => {
                let name = file.text(tok);
                match name {
                    "impl" => {
                        last_kw = Some("impl");
                        impl_saw_for = false;
                    }
                    "for" if last_kw == Some("impl") => impl_saw_for = true,
                    "mod" if last_kw != Some("impl") => last_kw = Some("mod"),
                    "fn" | "struct" | "enum" | "trait" | "match" | "if" | "while" | "loop"
                    | "move"
                        if last_kw != Some("impl") =>
                    {
                        last_kw = Some("");
                    }
                    "pub"
                        if !file.in_test[i]
                            && *stack.last().unwrap_or(&Block::Other) != Block::Other =>
                    {
                        check_pub_item(file, i, ITEM_KWS, out);
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
}

/// Shared tail of `doc_public_items`: given the index of a `pub` token in
/// item position, require a doc comment (or `#[doc…]` attribute) above it.
fn check_pub_item(file: &SourceFile, pub_idx: usize, item_kws: &[&str], out: &mut Vec<Diagnostic>) {
    let Some(next) = file.next_significant(pub_idx) else {
        return;
    };
    // `pub(crate)` / `pub(super)` — restricted visibility, not public API.
    if file.tokens[next].is_punct(b'(') {
        return;
    }
    let item_kw = file.text(&file.tokens[next]);
    if !item_kws.contains(&item_kw) {
        return; // `pub use` re-exports and anything unrecognised
    }
    if item_kw == "mod" {
        // `pub mod name;` (out-of-line): the module's documentation is the
        // `//!` header of its own file, which rustc's `missing_docs`
        // already attributes correctly — only inline `pub mod name { … }`
        // needs a doc comment at the declaration.
        let name = file.next_significant(next);
        let after = name.and_then(|j| file.next_significant(j));
        if after.is_some_and(|j| file.tokens[j].is_punct(b';')) {
            return;
        }
    }
    // Walk backwards over attributes and comments looking for a doc.
    let mut j = pub_idx;
    while let Some(prev) = j.checked_sub(1) {
        match file.tokens[prev].kind {
            TokenKind::Comment { doc: true, .. } => return, // documented
            TokenKind::Comment { doc: false, .. } => j = prev,
            TokenKind::Punct(b']') => {
                // Skip the attribute `#[ … ]` backwards; `#[doc = …]` or
                // `#[doc(hidden)]` counts as documentation.
                let mut depth = 0i32;
                let mut k = prev;
                let mut has_doc_attr = false;
                loop {
                    match file.tokens[k].kind {
                        TokenKind::Punct(b']') => depth += 1,
                        TokenKind::Punct(b'[') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        TokenKind::Ident if file.text(&file.tokens[k]) == "doc" => {
                            has_doc_attr = true;
                        }
                        _ => {}
                    }
                    let Some(k2) = k.checked_sub(1) else { break };
                    k = k2;
                }
                if has_doc_attr {
                    return;
                }
                // Step over the leading `#` of the attribute.
                j = k.saturating_sub(1);
                if !file.tokens.get(j).is_some_and(|t| t.is_punct(b'#')) {
                    j = k;
                }
            }
            _ => break,
        }
    }
    let tok = &file.tokens[pub_idx];
    out.push(Diagnostic {
        lint: "doc-public-items",
        severity: severity_of("doc-public-items"),
        file: file.rel.clone(),
        line: tok.line,
        col: tok.col,
        message: format!("public `{item_kw}` has no doc comment"),
        suggestion: "add a `///` doc comment — state what the item does and, for fallible \
                     APIs, when it errors"
            .into(),
    });
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

/// Files whose computation can reach emitted results (CSVs, traces,
/// registries): the container-determinism lints apply here and nowhere
/// else. Bench harnesses format results but draw them from these crates.
fn is_result_producing(rel: &str) -> bool {
    const SCOPES: &[&str] = &[
        "crates/core/src/",
        "crates/sim/src/",
        "crates/traffic/src/",
        "crates/city/src/",
        "crates/obs/src/",
        "crates/dsp/src/",
    ];
    SCOPES.iter().any(|s| rel.starts_with(s))
}

/// Methods that observe a container in iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// `no-unordered-iteration`: iterating a `HashMap`/`HashSet` (resolved
/// through the cross-file [`SymbolIndex`] — re-exports, type aliases, and
/// struct fields included) in result-producing code is a finding unless
/// the values are routed through an ordering adapter (`sort*`,
/// `collect::<BTree…>`) within the same expression.
pub fn no_unordered_iteration(file: &SourceFile, index: &SymbolIndex, out: &mut Vec<Diagnostic>) {
    if !is_result_producing(&file.rel) || file.is_test_file() {
        return;
    }
    let locals = local_unordered_bindings(file, index);
    let toks = &file.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if file.in_test[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        let name = file.text(tok);
        // Method-call form: `<chain>.iter()` / `.drain(..)` / `.keys()`.
        if ITER_METHODS.contains(&name) {
            let called = file
                .next_significant(i)
                .is_some_and(|j| toks[j].is_punct(b'(') || toks[j].is_punct(b':'));
            let dotted = file
                .prev_significant(i)
                .is_some_and(|j| toks[j].is_punct(b'.'));
            if !(called && dotted) {
                continue;
            }
            let info = analyze_chain(file, i, index, &locals);
            if info.unordered && !info.ordered_adapter && !forward_ordering_adapter(file, i) {
                out.push(Diagnostic {
                    lint: "no-unordered-iteration",
                    severity: severity_of("no-unordered-iteration"),
                    file: file.rel.clone(),
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "`.{name}()` on an unordered container — iteration order can reach \
                         emitted results"
                    ),
                    suggestion: "switch the container to BTreeMap/BTreeSet, sort the keys \
                                 before iterating, or — if order provably never reaches \
                                 output — annotate with \
                                 `// jmb-allow(no-unordered-iteration): <why>`"
                        .into(),
                });
            }
            continue;
        }
        // `for pat in <field path>` loop form (method-call receivers are
        // caught above; this covers bare `for k in self.index` sugar).
        if name == "for" {
            // `impl Trait for Type` and `for<'a>` are not loops.
            if file
                .next_significant(i)
                .is_some_and(|j| toks[j].is_punct(b'<'))
            {
                continue;
            }
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut in_idx = None;
            while j < toks.len() {
                match toks[j].kind {
                    TokenKind::Punct(b'(') | TokenKind::Punct(b'[') => depth += 1,
                    TokenKind::Punct(b')') | TokenKind::Punct(b']') => depth -= 1,
                    TokenKind::Punct(b'{') | TokenKind::Punct(b';') if depth == 0 => break,
                    TokenKind::Ident if depth == 0 && toks[j].is_ident(&file.src, "in") => {
                        in_idx = Some(j);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            let Some(in_idx) = in_idx else { continue };
            // Iterated expression: tokens to the loop-body `{`. Only the
            // bare path form (`&map`, `self.field`) is handled here.
            let mut expr: Vec<usize> = Vec::new();
            let mut k = in_idx + 1;
            let mut bare = true;
            while k < toks.len() {
                match toks[k].kind {
                    TokenKind::Punct(b'{') => break,
                    TokenKind::Punct(b'&') | TokenKind::Comment { .. } => {}
                    TokenKind::Ident if file.text(&toks[k]) == "mut" => {}
                    TokenKind::Ident => expr.push(k),
                    TokenKind::Punct(b'.') => {}
                    _ => {
                        bare = false;
                        break;
                    }
                }
                k += 1;
            }
            if !bare || expr.is_empty() {
                continue;
            }
            let hit = expr.iter().any(|&e| {
                let n = file.text(&toks[e]);
                n != "self" && (locals.contains(n) || index.unordered_fields.contains(n))
            });
            if hit {
                let t0 = &toks[in_idx];
                out.push(Diagnostic {
                    lint: "no-unordered-iteration",
                    severity: severity_of("no-unordered-iteration"),
                    file: file.rel.clone(),
                    line: t0.line,
                    col: t0.col,
                    message: "`for` loop over an unordered container — iteration order can \
                              reach emitted results"
                        .into(),
                    suggestion: "iterate a sorted key list (`let mut ks: Vec<_> = …; \
                                 ks.sort();`), switch to BTreeMap/BTreeSet, or annotate with \
                                 `// jmb-allow(no-unordered-iteration): <why>`"
                        .into(),
                });
            }
        }
    }
}

/// `float-reduction-order`: a floating-point `.sum()` / `.product()` /
/// `.fold()` whose chain originates in an unordered container accumulates
/// in nondeterministic order — the one FP hazard CSV byte-compares only
/// catch probabilistically.
pub fn float_reduction_order(file: &SourceFile, index: &SymbolIndex, out: &mut Vec<Diagnostic>) {
    if !is_result_producing(&file.rel) || file.is_test_file() {
        return;
    }
    const REDUCERS: &[&str] = &["sum", "product", "fold"];
    let locals = local_unordered_bindings(file, index);
    let toks = &file.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if file.in_test[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        let name = file.text(tok);
        if !REDUCERS.contains(&name) {
            continue;
        }
        let called = file
            .next_significant(i)
            .is_some_and(|j| toks[j].is_punct(b'(') || toks[j].is_punct(b':'));
        let dotted = file
            .prev_significant(i)
            .is_some_and(|j| toks[j].is_punct(b'.'));
        if !(called && dotted) {
            continue;
        }
        let info = analyze_chain(file, i, index, &locals);
        if info.unordered && !info.ordered_adapter {
            out.push(Diagnostic {
                lint: "float-reduction-order",
                severity: severity_of("float-reduction-order"),
                file: file.rel.clone(),
                line: tok.line,
                col: tok.col,
                message: format!(
                    "`.{name}()` over an unordered container — floating-point accumulation \
                     order is nondeterministic"
                ),
                suggestion: "collect into a sorted container first (or sort a key list and \
                             index), so the reduction visits values in a pinned order"
                    .into(),
            });
        }
    }
}

/// `no-ambient-parallelism`: host parallelism may pick worker counts (the
/// `SweepConfig` default, bench CLIs) but must never flow into emitted
/// values. Everywhere else, reading `available_parallelism` or a
/// `JMB_THREADS`-style env knob is a finding.
pub fn no_ambient_parallelism(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    // crates/bench: CLIs may default worker counts from the host.
    // experiment.rs: the one sanctioned `SweepConfig` default.
    // crates/lint: this tool necessarily spells the banned tokens.
    if file.rel.starts_with("crates/bench/")
        || file.rel.starts_with("crates/lint/")
        || file.rel == "crates/core/src/experiment.rs"
    {
        return;
    }
    if file.is_test_file() {
        return;
    }
    for (i, tok) in file.tokens.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let flagged = match tok.kind {
            TokenKind::Ident => file.text(tok) == "available_parallelism",
            TokenKind::StrLit => file.text(tok).contains("JMB_THREADS"),
            _ => false,
        };
        if flagged {
            out.push(Diagnostic {
                lint: "no-ambient-parallelism",
                severity: severity_of("no-ambient-parallelism"),
                file: file.rel.clone(),
                line: tok.line,
                col: tok.col,
                message: "ambient parallelism read outside the scheduling layer — host core \
                          counts must not influence emitted values"
                    .into(),
                suggestion: "take the worker count from `SweepConfig.parallelism` (or a CLI \
                             `--threads` flag plumbed through it); results must be identical \
                             at every parallelism level"
                    .into(),
            });
        }
    }
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
        no_wallclock_in_sim(&f, &mut out);
        seeded_rng_only(&f, &mut out);
        safety_comment(&f, &mut out);
        doc_public_items(&f, &mut out);
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
    fn wallclock_flagged_outside_span_and_bench() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(diags_for("crates/sim/src/medium.rs", src).len(), 1);
        assert!(diags_for("crates/bench/benchmark/src/probes.rs", src).is_empty());
        assert!(diags_for("crates/obs/src/span.rs", src).is_empty());
    }

    #[test]
    fn thread_sleep_flagged_but_other_sleep_not() {
        let src = "fn f() { std::thread::sleep(d); }";
        assert_eq!(diags_for("crates/traffic/src/sim.rs", src).len(), 1);
        let ok = "fn f(radio: &mut Radio) { radio.sleep(); }";
        assert!(diags_for("crates/traffic/src/sim.rs", ok).is_empty());
    }

    #[test]
    fn entropy_rng_flagged_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { let mut r = rand::thread_rng(); }\n}";
        assert_eq!(diags_for("crates/dsp/src/rng.rs", src).len(), 1);
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        assert_eq!(diags_for("crates/dsp/src/fft.rs", bad).len(), 1);
        let good = "fn f(p: *const u8) -> u8 {\n // SAFETY: p is valid for reads; caller contract\n unsafe { *p }\n}";
        assert!(diags_for("crates/dsp/src/fft.rs", good).is_empty());
        let trailing = "fn f(p: *const u8) -> u8 { unsafe { *p } // SAFETY: caller contract\n}";
        assert!(diags_for("crates/dsp/src/fft.rs", trailing).is_empty());
    }

    #[test]
    fn pub_item_without_doc_flagged_in_core_only() {
        let src = "pub fn undocumented() {}";
        assert_eq!(diags_for("crates/core/src/csi.rs", src).len(), 1);
        assert!(diags_for("crates/phy/src/ofdm.rs", src).is_empty());
        let documented = "/// Does the thing.\npub fn documented() {}";
        assert!(diags_for("crates/core/src/csi.rs", documented).is_empty());
        let derived = "/// Doc.\n#[derive(Clone)]\npub struct S;";
        assert!(diags_for("crates/core/src/csi.rs", derived).is_empty());
    }

    #[test]
    fn pub_crate_and_trait_impls_are_exempt() {
        let src = "pub(crate) fn internal() {}\nimpl std::fmt::Display for S {\n    pub fn weird() {}\n    fn fmt(&self) {}\n}";
        assert!(diags_for("crates/obs/src/event.rs", src).is_empty());
    }

    #[test]
    fn inherent_impl_pub_fn_needs_doc() {
        let src = "/// S.\npub struct S;\nimpl S {\n    pub fn no_doc(&self) {}\n}";
        let d = diags_for("crates/obs/src/registry.rs", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("fn"));
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

    fn container_diags(rel: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new(rel.into(), src.into());
        let idx = SymbolIndex::build(std::slice::from_ref(&f));
        let mut out = Vec::new();
        no_unordered_iteration(&f, &idx, &mut out);
        float_reduction_order(&f, &idx, &mut out);
        out
    }

    #[test]
    fn hashmap_iteration_flagged_in_result_scope_only() {
        let src = "fn f(m: &HashMap<u32, f64>) { for (k, v) in m.iter() { emit(*k, *v); } }";
        assert_eq!(container_diags("crates/traffic/src/sim.rs", src).len(), 1);
        assert!(container_diags("crates/bench/src/sweeps.rs", src).is_empty());
        assert!(container_diags("crates/traffic/tests/x.rs", src).is_empty());
    }

    #[test]
    fn sorted_adapter_and_btreemap_are_clean() {
        let sorted = "fn f(m: &HashMap<u32, f64>) -> Vec<u32> { let mut ks: Vec<u32> = \
                      m.keys().copied().collect::<BTreeSet<_>>().into_iter().collect(); ks }";
        assert!(container_diags("crates/core/src/net.rs", sorted).is_empty());
        let btree = "fn f(m: &BTreeMap<u32, f64>) -> f64 { m.values().sum() }";
        assert!(container_diags("crates/core/src/net.rs", btree).is_empty());
    }

    #[test]
    fn float_sum_over_hashset_flagged_with_turbofish() {
        let src = "fn f(s: &HashSet<u64>) -> f64 { s.iter().map(|x| *x as f64).sum::<f64>() }";
        let d = container_diags("crates/city/src/city.rs", src);
        // `.iter()` and `.sum::<f64>()` both fire.
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|d| d.lint == "float-reduction-order"));
    }

    #[test]
    fn for_loop_over_unordered_field_flagged() {
        let src = "struct S { idx: HashMap<u32, u32> }\n\
                   impl S { fn f(&self) { for k in &self.idx { emit(k); } } }";
        let d = container_diags("crates/obs/src/registry.rs", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("for"));
    }

    #[test]
    fn keyed_access_without_iteration_is_clean() {
        let src = "fn f(m: &mut HashMap<u64, f64>, k: u64) -> Option<f64> { \
                   m.insert(k, 1.0); m.remove(&k) }";
        assert!(container_diags("crates/traffic/src/sim.rs", src).is_empty());
    }

    #[test]
    fn ambient_parallelism_flagged_outside_scheduling_layer() {
        let src = "fn f() -> usize { std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }";
        let mut out = Vec::new();
        no_ambient_parallelism(
            &SourceFile::new("crates/traffic/src/sim.rs".into(), src.into()),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        out.clear();
        no_ambient_parallelism(
            &SourceFile::new("crates/core/src/experiment.rs".into(), src.into()),
            &mut out,
        );
        assert!(out.is_empty());
        out.clear();
        no_ambient_parallelism(
            &SourceFile::new("crates/bench/src/sweeps.rs".into(), src.into()),
            &mut out,
        );
        assert!(out.is_empty());
        let env = "fn f() -> String { std::env::var(\"JMB_THREADS\").unwrap_or_default() }";
        out.clear();
        no_ambient_parallelism(
            &SourceFile::new("crates/city/src/city.rs".into(), env.into()),
            &mut out,
        );
        assert_eq!(out.len(), 1);
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
