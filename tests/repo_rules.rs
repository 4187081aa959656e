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
//!
//! The scans are text, not tokens: "live code" is a file up to its first
//! `#[cfg(test)]`, and a comment naming `EventKind::X` there counts as an
//! emission.

use jmb::obs::EventKind;
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

/// Every `.rs` file under `dir`, as (path relative to the repo root, text),
/// sorted by path.
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
                stack.push(path);
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

/// A file up to its first `#[cfg(test)]`, and the rest.
fn split_live(text: &str) -> (&str, &str) {
    text.split_at(text.find("#[cfg(test)]").unwrap_or(text.len()))
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
