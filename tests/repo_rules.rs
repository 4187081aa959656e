//! Repo rules no compiler lint expresses, checked over the source text.
//!
//! * Every trace kind is emitted by some subsystem: a name in
//!   [`EventKind::NAMES`] that only `jmb-obs` produces is dead vocabulary.
//!   (That every kind appears in a test is `jmb-obs`' `event_golden`.)
//! * Every public `merge` on the shard-pooling crates states its combination
//!   order in its docs and is called by a test of its crate: merge order is
//!   where cross-shard floating-point nondeterminism hides (DESIGN.md §3.15).
//! * The hot modules — the ones the paper's throughput runs through — deny
//!   every panicking construct clippy can name (DESIGN.md §3.10), and the
//!   set of them is the table [`HOT`] below.
//! * Every live `pub fn` of a program crate's library is named outside
//!   that library — by another crate, the root `src/`, `tests/` or
//!   `examples/`, the crate's own `tests/`, the benchmark package, or the
//!   crate's binary root (`src/main.rs`) — or sits on [`ALLOWED`] with the
//!   reason it stays public. One that only its own crate names is
//!   `pub(crate)`; one that only tests reach is deleted, or compiled for
//!   the tests alone when a test holds live code to it.
//! * Every backticked `Path::item` in DESIGN.md and README.md resolves to a
//!   definition in the tree — after a crate segment, in that crate; after a
//!   type, on that type — unless followed by "(removed in …)".
//!
//! The scans are text, not tokens: "live code" is a file up to its first
//! `#[cfg(test)]` in column 0 (an indented one gates a field or a statement,
//! not the rest of the file), and a comment naming an `EventKind` variant
//! there counts as an emission; a `pub fn` is "named" by any occurrence of
//! its name as a whole identifier, comments included.

use jmb::obs::EventKind;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The modules that deny panics outside tests: the oscillator walk every
/// phase read goes through, the §5.2 sync exchange, the ZF precoder and the
/// §9 MAC, the receive chain (everything `frame::decode` touches), the
/// resampler every sample-level render leans on, the elementary-function
/// kernels the phase fit and the EESM run on, and the simulator, traffic
/// and scenario crates whole (their roots).
const HOT: [&str; 24] = [
    "crates/channel/src/oscillator.rs",
    "crates/core/src/control.rs",
    "crates/core/src/csi.rs",
    "crates/core/src/fastnet.rs",
    "crates/core/src/mac.rs",
    "crates/core/src/net.rs",
    "crates/core/src/network.rs",
    "crates/core/src/precoder.rs",
    "crates/dsp/src/delay.rs",
    "crates/dsp/src/elementary.rs",
    "crates/phy/src/chanest.rs",
    "crates/phy/src/convcode.rs",
    "crates/phy/src/crc.rs",
    "crates/phy/src/frame.rs",
    "crates/phy/src/interleaver.rs",
    "crates/phy/src/modulation.rs",
    "crates/phy/src/ofdm.rs",
    "crates/phy/src/scrambler.rs",
    "crates/phy/src/sync.rs",
    "crates/phy/src/viterbi.rs",
    "crates/scenario/src/lib.rs",
    "crates/scenario/src/main.rs",
    "crates/sim/src/lib.rs",
    "crates/traffic/src/lib.rs",
];

/// What each hot module denies outside tests.
const PANICKING: [&str; 7] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::disallowed_macros",
];

/// The `pub fn`s no file outside their crate's library names, as
/// (path, name, why each stays public). A stale entry — its function gone,
/// no longer `pub`, or named outside after all — fails the rule.
const ALLOWED: [(&str, &str, &str); 1] = [(
    "crates/core/src/fastnet.rs",
    "evolve_client_links",
    "paper §7's single-client channel change: the lever of the stitching ablation (DESIGN.md §4)",
)];

/// Path prefixes of backticked paths in the docs that name code outside
/// the tree: the standard library and clippy's lints.
const EXTERNAL: [&str; 7] = [
    "std",
    "clippy",
    "thread",
    "Instant",
    "SystemTime",
    "Vec",
    "f64",
];

/// Every `.rs` file under `dir`, as (path relative to the repo root, text),
/// sorted by path; build output (`target/`) is skipped.
fn sources(dir: &str) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stack = vec![root.join(dir)];
    let mut out = Vec::new();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for path in entries.map(|e| e.expect("directory entry").path()) {
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).expect("under the root");
                let text = fs::read_to_string(&path).expect("readable source");
                out.push((rel.to_string_lossy().replace('\\', "/"), text));
            }
        }
    }
    out.sort();
    out
}

/// The program crates' sources: `crates/<name>/src/**.rs` for each crate.
fn crate_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("directory entry").path())
        .collect();
    crates.sort();
    crates
        .iter()
        .flat_map(|c| {
            sources(&format!(
                "crates/{}/src",
                c.file_name().unwrap().to_string_lossy()
            ))
        })
        .collect()
}

/// Every `.rs` file of the tree: the root package and every crate, tests,
/// examples and the benchmark package included.
fn tree_sources() -> Vec<(String, String)> {
    ["src", "tests", "examples", "crates"]
        .into_iter()
        .flat_map(sources)
        .collect()
}

/// A file up to its first `#[cfg(test)]` in column 0, and the rest.
fn split_live(text: &str) -> (&str, &str) {
    let at = text
        .match_indices("#[cfg(test)]")
        .map(|(at, _)| at)
        .find(|&at| at == 0 || text[..at].ends_with('\n'))
        .unwrap_or(text.len());
    text.split_at(at)
}

/// The identifiers `text` names, comments and strings included.
fn identifiers(text: &str) -> BTreeSet<&str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect()
}

/// The library of the program crate `path` belongs to, as its `src/`
/// prefix (`crates/<name>/src/`); `None` outside a library, and for a
/// binary root (`src/main.rs`), which counts as outside its library.
fn library_of(path: &str) -> Option<&str> {
    let name = path.strip_prefix("crates/")?.split('/').next()?;
    let lib = path.get(.."crates/".len() + name.len() + "/src/".len())?;
    (lib.ends_with("/src/") && !path.ends_with("/src/main.rs")).then_some(lib)
}

/// Every live `pub fn` of a program crate's library in `files`, as
/// (path, name).
fn live_pub_fns(files: &[(String, String)]) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    for (rel, text) in files {
        if library_of(rel).is_none() {
            continue;
        }
        for line in split_live(text).0.lines() {
            if let Some(rest) = line.trim_start().strip_prefix("pub fn ") {
                let name = rest
                    .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .next()
                    .unwrap_or("");
                out.push((rel.as_str(), name));
            }
        }
    }
    out
}

/// The live `pub fn`s of `files` that no file outside their library
/// names, as (path, name).
fn unnamed_pub_fns(files: &[(String, String)]) -> Vec<(&str, &str)> {
    let named: Vec<(Option<&str>, BTreeSet<&str>)> = files
        .iter()
        .map(|(rel, text)| (library_of(rel), identifiers(text)))
        .collect();
    live_pub_fns(files)
        .into_iter()
        .filter(|&(rel, name)| {
            let lib = library_of(rel);
            !named
                .iter()
                .any(|(other, ids)| *other != lib && ids.contains(name))
        })
        .collect()
}

/// The entries of `allowed` that say something untrue of `files`: no live
/// `pub fn` of that name at that path, or one that is named outside its
/// library and needs no entry.
fn stale_allowed<'a>(
    files: &[(String, String)],
    allowed: &'a [(&'a str, &'a str, &'a str)],
) -> Vec<(&'a str, &'a str)> {
    let unnamed = unnamed_pub_fns(files);
    allowed
        .iter()
        .map(|&(rel, name, _)| (rel, name))
        .filter(|entry| !unnamed.contains(entry))
        .collect()
}

/// The names `files` define: items (`fn`, `struct`, `enum`, `trait`,
/// `type`, `const`, `static`, `mod`, `macro_rules!`), fields and variants
/// (a line that starts with the name), `use … as` aliases, what a `pub use`
/// re-exports, and each file's module (its stem).
fn definitions<'a>(files: impl Iterator<Item = &'a (String, String)>) -> BTreeSet<String> {
    let mut defined = BTreeSet::new();
    let ident = |w: &str| -> String {
        w.chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect()
    };
    for (rel, text) in files {
        let words: Vec<&str> = text.split_whitespace().collect();
        for pair in words.windows(2) {
            if matches!(
                pair[0],
                "fn" | "struct"
                    | "enum"
                    | "trait"
                    | "type"
                    | "const"
                    | "static"
                    | "mod"
                    | "macro_rules!"
                    | "as"
            ) {
                defined.insert(ident(pair[1]));
            }
        }
        for line in text.lines() {
            let line = line.trim_start();
            if line.starts_with("pub use ") {
                defined.extend(identifiers(line).into_iter().map(str::to_string));
            }
            let line = line
                .strip_prefix("pub(crate) ")
                .or_else(|| line.strip_prefix("pub "))
                .unwrap_or(line);
            defined.insert(ident(line));
        }
        let stem = rel.rsplit('/').next().unwrap_or(rel);
        defined.insert(stem.trim_end_matches(".rs").to_string());
    }
    defined.remove("");
    defined
}

/// The first identifier of `w`.
fn ident(w: &str) -> &str {
    let end = w
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(w.len());
    &w[..end]
}

/// `text` without a leading visibility (`pub`, `pub(crate)`, …).
fn without_vis(text: &str) -> &str {
    match text.strip_prefix("pub") {
        Some(rest) if rest.starts_with('(') => rest.split_once(") ").map_or(rest, |(_, r)| r),
        Some(rest) if rest.starts_with(' ') => rest.trim_start(),
        _ => text,
    }
}

/// The type an `impl` header implements on: `Type` of `impl<…> Type<…>`
/// and of `impl<…> Trait for path::Type<…>`.
fn impl_self_type(header: &str) -> &str {
    let mut rest = &header["impl".len()..];
    if rest.starts_with('<') {
        let mut depth = 0;
        let end = rest.char_indices().find_map(|(at, c)| {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            (depth == 0).then_some(at + 1)
        });
        rest = &rest[end.unwrap_or(rest.len())..];
    }
    let rest = rest
        .split_once(" for ")
        .map_or(rest, |(_, t)| t)
        .trim_start();
    let path = &rest[..rest.find(['<', ' ', '{']).unwrap_or(rest.len())];
    ident(path.rsplit("::").next().unwrap_or(path))
}

/// What each type defined in the libraries of `files` has on itself, by
/// name: the `fn`s, `const`s and `type`s of every `impl Type` and
/// `impl … for Type` block and of `trait Type`, the fields of
/// `struct Type` and the variants of `enum Type`. A type alias at the top
/// of a file (`type FastNet = Network<FastEval>;`) is its target: it has
/// the target's members, and an `impl` on it adds to them.
fn members(files: &[(String, String)]) -> BTreeMap<String, BTreeSet<String>> {
    let libs: Vec<&str> = files
        .iter()
        .filter(|(rel, _)| library_of(rel).is_some() || rel.starts_with("src/"))
        .map(|(_, text)| text.as_str())
        .collect();
    let mut alias: BTreeMap<&str, &str> = BTreeMap::new();
    for line in libs.iter().flat_map(|text| text.lines()) {
        if let Some(rest) = without_vis(line).strip_prefix("type ") {
            if let Some((name, target)) = rest.split_once(" = ") {
                let path = &target[..target.find(['<', ';']).unwrap_or(target.len())];
                alias.insert(ident(name), ident(path.rsplit("::").next().unwrap_or(path)));
            }
        }
    }
    let canon = |name: &str| alias.get(name).copied().unwrap_or(name).to_string();
    let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for text in libs {
        // What an `impl $name` in a macro's body defines goes to every type
        // the file defines.
        let (mut defined_here, mut by_macro) = (Vec::new(), BTreeSet::new());
        let lines: Vec<&str> = text.lines().collect();
        for (at, line) in lines.iter().enumerate() {
            let indent = line.len() - line.trim_start().len();
            let decl = without_vis(line.trim_start());
            let is_impl = decl.starts_with("impl<") || decl.starts_with("impl ");
            let keyword = ["struct ", "enum ", "trait "]
                .into_iter()
                .find(|k| decl.starts_with(k));
            if !is_impl && keyword.is_none() {
                continue;
            }
            // The header runs to its `{`: a `where` clause can take lines.
            let open = (at..lines.len()).find(|&i| {
                let l = lines[i].trim_end();
                l.ends_with('{') || l.ends_with(';') || l.ends_with(')')
            });
            let Some(open) = open.filter(|&i| lines[i].trim_end().ends_with('{')) else {
                continue;
            };
            let header = lines[at..=open].join(" ");
            let owner = match keyword {
                Some(k) => ident(&decl[k.len()..]),
                None => impl_self_type(without_vis(header.trim_start())),
            };
            let close = format!("{}}}", " ".repeat(indent));
            let body = lines[open + 1..]
                .iter()
                .take_while(|l| l.trim_end() != close)
                .filter(|l| l.len() - l.trim_start().len() == indent + 4)
                .map(|l| without_vis(l.trim()));
            let own = match owner {
                "" => &mut by_macro,
                owner => {
                    if keyword.is_some() {
                        defined_here.push(canon(owner));
                    }
                    out.entry(canon(owner)).or_default()
                }
            };
            for item in body {
                let name = match keyword {
                    Some("struct ") => {
                        Some(ident(item)).filter(|n| item[n.len()..].starts_with(':'))
                    }
                    Some("enum ") => {
                        Some(ident(item)).filter(|n| n.starts_with(char::is_uppercase))
                    }
                    _ => {
                        let words: Vec<&str> = item
                            .split_whitespace()
                            .filter(|w| !["unsafe", "async", "extern", "default"].contains(w))
                            .collect();
                        match words.as_slice() {
                            ["const", "fn", name, ..]
                            | ["fn", name, ..]
                            | ["type", name, ..]
                            | ["const", name, ..] => Some(ident(name)),
                            _ => None,
                        }
                    }
                };
                if let Some(name) = name.filter(|n| !n.is_empty()) {
                    own.insert(name.to_string());
                }
            }
        }
        for owner in defined_here {
            out.entry(owner)
                .or_default()
                .extend(by_macro.iter().cloned());
        }
    }
    for (&name, &target) in &alias {
        let of_target = out.get(target).cloned().unwrap_or_default();
        out.entry(name.to_string()).or_default().extend(of_target);
    }
    out
}

/// The backticked `a::b` paths of `doc` that do not resolve in `files`:
/// every segment must be defined somewhere in the tree ([`definitions`]),
/// the segments after a crate — `jmb_<name>`, or the root package's alias
/// for it (`jmb::core`, `core::…`) — in that crate's `src/`, and a segment
/// after a type on that type ([`members`]). A path followed by "(removed in
/// …)" names removed code on purpose, and one under [`EXTERNAL`] code
/// outside the tree.
fn unresolved_doc_paths(doc: &str, files: &[(String, String)]) -> Vec<String> {
    let defined = definitions(files.iter());
    let members = members(files);
    // Crate segment (`jmb_<name>` and the root package's alias for it) →
    // the crate's own definitions.
    let mut crates: Vec<(String, BTreeSet<String>)> = Vec::new();
    let libs: BTreeSet<&str> = files.iter().filter_map(|(r, _)| library_of(r)).collect();
    for lib in libs {
        let name = lib.split('/').nth(1).unwrap_or("");
        let own = definitions(files.iter().filter(|(r, _)| library_of(r) == Some(lib)));
        let alias = format!("pub use jmb_{name} as ");
        let aliases = files
            .iter()
            .filter(|(r, _)| r == "src/lib.rs")
            .flat_map(|(_, text)| text.lines())
            .filter_map(|l| l.trim().strip_prefix(&alias))
            .map(|a| a.trim_end_matches(';').to_string());
        for seg in std::iter::once(format!("jmb_{name}")).chain(aliases) {
            crates.push((seg, own.clone()));
        }
    }
    let mut out = Vec::new();
    let mut fenced = false;
    let mut prose = String::new();
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    let spans: Vec<&str> = prose.split('`').collect();
    for (i, span) in spans.iter().enumerate().skip(1).step_by(2) {
        let removed = spans
            .get(i + 1)
            .is_some_and(|after| after.starts_with(" (removed in "));
        if removed || span.contains('\n') {
            continue;
        }
        for word in span.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':')) {
            let segments: Vec<&str> = word.split("::").collect();
            if segments.len() < 2
                || segments.iter().any(|s| s.is_empty())
                || EXTERNAL.contains(&segments[0])
            {
                continue;
            }
            let scoped = segments.iter().enumerate().find_map(|(i, seg)| {
                let own = crates.iter().find(|(name, _)| name == seg)?;
                (i == 0 || segments[i - 1] == "jmb").then_some((i, &own.1))
            });
            let on_its_type = segments
                .windows(2)
                .all(|pair| members.get(pair[0]).is_none_or(|own| own.contains(pair[1])));
            let resolves = segments.iter().all(|s| defined.contains(*s))
                && scoped.is_none_or(|(i, own)| segments[i + 1..].iter().all(|s| own.contains(*s)))
                && on_its_type;
            if !resolves {
                out.push(word.to_string());
            }
        }
    }
    out
}

/// Does `text` name `path` followed by something other than an identifier
/// character (so `EventKind::Acked` does not count as `EventKind::Ack`)?
fn names(text: &str, path: &str) -> bool {
    text.match_indices(path).any(|(at, _)| {
        !text[at + path.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
    })
}

#[test]
fn every_event_kind_is_emitted_outside_obs() {
    let files = crate_sources();
    let live: Vec<&str> = files
        .iter()
        .filter(|(rel, _)| !rel.starts_with("crates/obs/"))
        .map(|(_, text)| split_live(text).0)
        .collect();
    let missing: Vec<&str> = EventKind::NAMES
        .into_iter()
        .filter(|name| {
            !live.iter().any(|text| {
                let aliases = text
                    .match_indices("EventKind as ")
                    .map(|(at, m)| &text[at + m.len()..])
                    .map(|rest| {
                        rest.split(|c: char| !c.is_alphanumeric() && c != '_')
                            .next()
                    });
                std::iter::once("EventKind")
                    .chain(aliases.flatten())
                    .any(|enum_name| names(text, &format!("{enum_name}::{name}")))
            })
        })
        .collect();
    assert!(
        missing.is_empty(),
        "EventKind kinds nothing outside jmb-obs emits (emit each from the subsystem that \
         owns the condition, or delete it): {missing:?}"
    );
}

#[test]
fn every_public_merge_states_its_order_and_is_tested() {
    let this_file = file!().replace('\\', "/");
    let mut found = Vec::new();
    for krate in ["obs", "traffic", "city", "core"] {
        let src = sources(&format!("crates/{krate}/src"));
        let mut test_code: Vec<String> = src
            .iter()
            .map(|(_, text)| split_live(text).1.to_string())
            .collect();
        for (rel, text) in sources(&format!("crates/{krate}/tests"))
            .into_iter()
            .chain(sources("tests"))
        {
            if rel != this_file {
                test_code.push(text);
            }
        }
        let tested = test_code
            .iter()
            .any(|t| t.contains(".merge(") || t.contains("::merge("));
        for (rel, text) in &src {
            let lines: Vec<&str> = split_live(text).0.lines().collect();
            for (at, line) in lines.iter().enumerate() {
                let sig = line.trim_start();
                if !(sig.starts_with("pub fn merge(") || sig.starts_with("pub fn merge<")) {
                    continue;
                }
                let doc: String = lines[..at]
                    .iter()
                    .rev()
                    .map(|l| l.trim_start())
                    .take_while(|l| l.starts_with("///") || l.starts_with("#["))
                    .filter(|l| l.starts_with("///"))
                    .collect();
                let at = format!("{rel}:{}", at + 1);
                assert!(
                    doc.to_lowercase().contains("order"),
                    "{at}: public `merge` does not state its combination order in its docs"
                );
                assert!(
                    tested,
                    "{at}: public `merge` is never called by a test of its crate (merge shards in \
                     two orders and compare the outputs)"
                );
                found.push(at);
            }
        }
    }
    assert!(
        !found.is_empty(),
        "no public merge found: the scan is broken"
    );
}

#[test]
fn hot_modules_deny_every_panicking_construct() {
    let mut carrying = Vec::new();
    for (rel, text) in crate_sources() {
        let Some(at) = text.find("#![cfg_attr(") else {
            continue;
        };
        let attr = &text[at..at + text[at..].find(")]").map_or(0, |end| end + 2)];
        if !attr.contains("deny(") {
            continue;
        }
        let lints: Vec<&str> = attr
            .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
            .collect();
        let absent: Vec<&str> = PANICKING
            .into_iter()
            .filter(|l| !lints.contains(l))
            .collect();
        assert!(
            attr.contains("not(test)"),
            "{rel}: the hot-path attribute must be `cfg_attr(not(test), deny(..))`"
        );
        assert!(
            absent.is_empty(),
            "{rel}: the hot-path attribute does not deny {absent:?}"
        );
        carrying.push(rel);
    }
    assert_eq!(
        carrying, HOT,
        "the modules denying panics are not the hot set (DESIGN.md §3.10)"
    );
}

#[test]
fn every_pub_fn_is_named_outside_its_crate() {
    // This file names the ALLOWED entries; it is not their caller.
    let this_file = file!().replace('\\', "/");
    let files: Vec<(String, String)> = tree_sources()
        .into_iter()
        .filter(|(rel, _)| *rel != this_file)
        .collect();
    let unnamed: Vec<(&str, &str)> = unnamed_pub_fns(&files)
        .into_iter()
        .filter(|&(rel, name)| !ALLOWED.iter().any(|&(r, n, _)| (r, n) == (rel, name)))
        .collect();
    assert!(
        unnamed.is_empty(),
        "`pub fn`s nothing outside their crate's library names (make them `pub(crate)` or \
         private, delete what only tests reach, or put them on ALLOWED with a reason): \
         {unnamed:?}"
    );
    let stale = stale_allowed(&files, &ALLOWED);
    assert!(
        stale.is_empty(),
        "ALLOWED entries that are gone, no longer `pub`, or named outside their library: {stale:?}"
    );
    assert!(
        live_pub_fns(&files).len() > 100,
        "found almost no `pub fn`: the scan is broken"
    );
}

#[test]
fn the_pub_fn_rule_flags_what_only_its_own_crate_names() {
    let files: Vec<(String, String)> = [
        (
            "crates/a/src/lib.rs",
            "pub mod m;\npub fn used() {}\npub fn by_bin() {}\npub fn lonely() {}\n\
             fn f() { lonely(); }\n#[cfg(test)]\nmod tests { pub fn in_tests() {} }\n",
        ),
        (
            "crates/a/src/m.rs",
            "pub struct S {\n    #[cfg(test)]\n    x: u8,\n}\n\
             pub fn after_a_gated_field() {}\npub fn by_own_tests() {}\n",
        ),
        ("crates/a/src/main.rs", "fn main() { a::by_bin(); }\n"),
        (
            "crates/a/tests/t.rs",
            "#[test]\nfn t() { a::m::by_own_tests(); }\n",
        ),
        ("crates/b/src/lib.rs", "pub fn other() { a::used(); }\n"),
        ("tests/root.rs", "#[test]\nfn t() { b::other(); }\n"),
    ]
    .into_iter()
    .map(|(rel, text)| (rel.to_string(), text.to_string()))
    .collect();
    assert_eq!(
        unnamed_pub_fns(&files),
        [
            ("crates/a/src/lib.rs", "lonely"),
            ("crates/a/src/m.rs", "after_a_gated_field"),
        ]
    );
    let gone = [("crates/a/src/lib.rs", "deleted", "reason")];
    assert_eq!(
        stale_allowed(&files, &gone),
        [("crates/a/src/lib.rs", "deleted")]
    );
    let named = [("crates/a/src/lib.rs", "used", "reason")];
    assert_eq!(
        stale_allowed(&files, &named),
        [("crates/a/src/lib.rs", "used")]
    );
    let needed = [("crates/a/src/lib.rs", "lonely", "reason")];
    assert!(stale_allowed(&files, &needed).is_empty());
}

#[test]
fn every_path_the_docs_cite_resolves() {
    let files = tree_sources();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for doc in ["DESIGN.md", "README.md"] {
        let text = fs::read_to_string(root.join(doc)).expect("readable doc");
        let unresolved = unresolved_doc_paths(&text, &files);
        assert!(
            unresolved.is_empty(),
            "{doc} cites paths nothing in the tree defines (rename them, or mark removed code \
             \"(removed in …)\"): {unresolved:?}"
        );
    }
    let planted = "`Link::freq_response_at`, `Link::gone_for_good`, \
                   `Block::draw_through` (removed in PR 43), `std::mem::take`, \
                   `jmb::obs::TraceQuery`, `jmb::sim::TraceQuery`, `core::phasesync`, \
                   `jmb_dsp::delay::kernel_at`, `jmb_phy::delay::kernel_at`, \
                   `FastNet::joint_transmit_subset`, `FastNet::run_measurement`, \
                   `FastNet::select_batch`, `JmbMac::select_batch`, `Network::k_hat`, \
                   `EventKind::SyncMissed`, `EventKind::Transmit::len`";
    assert_eq!(
        unresolved_doc_paths(planted, &files),
        [
            "Link::gone_for_good",
            "jmb::sim::TraceQuery",
            "jmb_phy::delay::kernel_at",
            "FastNet::select_batch",
            "Network::k_hat",
        ]
    );
}
