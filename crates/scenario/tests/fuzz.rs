//! A machine looks at the manifest format: the corpus and the two
//! unit-test fixtures, mutated 1–3 edits at a time with adversarial
//! tokens, through `Manifest::parse` and — when accepted — all the way
//! through the canonical form, the plan and a bounded run.
//!
//! What it holds the parser and the runner to:
//!
//! * `parse` never panics;
//! * a rejected mutant is `Parse` with a line inside the text, or
//!   `Invalid` naming a key or section of the format;
//! * an accepted mutant round-trips through `to_text`, whose output is a
//!   fixpoint, plans without error and — with its horizon clamped to 20 ms
//!   and, for a single cell, its event budget forced to 200 (10 on the
//!   sample backend) — `run_manifest` returns `Ok`: never `Err(Sim)`,
//!   never a panic. `check` means `run` will start.

use jmb_scenario::{run_manifest, Backend, Manifest, RunOptions, ScenarioError, Topology};
use proptest::test_runner::TestRng;
use std::path::PathBuf;

/// Values chosen to sit on every edge a numeric key has: zero, negative,
/// not-a-number, the float and integer extremes, a denormal, 2³² (what a
/// narrowing cast wraps), and the format's own punctuation.
const ADVERSARIAL: &[&str] = &[
    "0",
    "-1",
    "NaN",
    "inf",
    "1e308",
    "1e-320",
    "18446744073709551615",
    "18446744073709551616",
    "4294967296",
    "=",
    ":",
    "..",
    "|",
    ",,",
    "\0",
    "é",
];

fn sources() -> Vec<String> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in [root.join("../../scenarios"), root.join("tests/fixtures")] {
        for entry in std::fs::read_dir(dir).expect("manifest directory exists") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "scn") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    let texts = paths.iter().map(|p| std::fs::read_to_string(p).unwrap());
    texts.collect()
}

/// The words an `Invalid` diagnostic may name: every key, `k=` sub-key,
/// assertion form and section the sources use.
fn vocabulary(sources: &[String]) -> Vec<String> {
    let mut words = Vec::new();
    for line in sources.iter().flat_map(|s| s.lines()) {
        let line = line.split('#').next().unwrap().trim();
        let mut toks = line.split_whitespace();
        let Some(first) = toks.next() else { continue };
        words.push(first.trim_matches(['[', ']']).to_string());
        words.extend(toks.filter_map(|t| t.split_once('=').map(|(k, _)| k.to_string())));
    }
    words.sort();
    words.dedup();
    words.retain(|w| w.len() > 1);
    words
}

fn pick<T: Clone>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize].clone()
}

/// One edit: replace a token, duplicate a line, delete a line, append a
/// token to a line, or flip one bit of one byte.
fn mutate(rng: &mut TestRng, text: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let at = rng.below(lines.len() as u64) as usize;
    match rng.below(5) {
        0 => {
            let mut toks: Vec<&str> = lines[at].split_whitespace().collect();
            if !toks.is_empty() {
                let i = rng.below(toks.len() as u64) as usize;
                toks[i] = pick(rng, ADVERSARIAL);
                lines[at] = toks.join(" ");
            }
        }
        1 => lines.insert(at, lines[at].clone()),
        2 => drop(lines.remove(at)),
        3 => {
            lines[at].push(' ');
            lines[at].push_str(pick(rng, ADVERSARIAL));
        }
        _ => {
            let mut bytes = lines.join("\n").into_bytes();
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] ^= 1 << rng.below(8);
            return String::from_utf8_lossy(&bytes).into_owned();
        }
    }
    lines.join("\n")
}

/// How many mutants each of the two streams draws. Sized so the file adds
/// about 20 s to a debug `cargo test` on two cores (a sample-backend mutant
/// costs a second to build, the rest a few milliseconds).
const MUTANTS: usize = 400;

#[test]
fn mutated_corpus_manifests_are_refused_with_a_reason_or_run_a() {
    mutants("jmb-scenario::fuzz::a");
}

#[test]
fn mutated_corpus_manifests_are_refused_with_a_reason_or_run_b() {
    mutants("jmb-scenario::fuzz::b");
}

fn mutants(stream: &str) {
    let sources = sources();
    let vocabulary = vocabulary(&sources);
    let mut rng = TestRng::from_name(stream);
    let (mut accepted, mut limit_stops) = (0, 0);
    for case in 0..MUTANTS {
        let mut text = pick(&mut rng, &sources);
        for _ in 0..1 + rng.below(3) {
            text = mutate(&mut rng, &text);
        }
        let mut m = match Manifest::parse(&text) {
            Ok(m) => m,
            Err(ScenarioError::Parse { line, message }) => {
                let n = text.lines().count();
                assert!(
                    (1..=n).contains(&line),
                    "case {case}: line {line} of {n}: {message}\n{text}"
                );
                continue;
            }
            Err(ScenarioError::Invalid(msg)) => {
                let named = vocabulary.iter().any(|w| msg.contains(w.as_str()));
                assert!(named, "case {case}: `{msg}` names no key:\n{text}");
                continue;
            }
            Err(other) => panic!("case {case}: parse returned {other:?}:\n{text}"),
        };
        accepted += 1;

        let canon = m.to_text();
        let back = Manifest::parse(&canon);
        assert_eq!(back.as_ref(), Ok(&m), "case {case}: round trip of:\n{text}");
        assert_eq!(back.unwrap().to_text(), canon, "case {case}: fixpoint");
        assert_eq!(m.validate(), Ok(()), "case {case}: plans:\n{canon}");

        // Bound the run, not the build: the horizon shrinks to 20 ms (a
        // city runs whole epochs and the `goodput_vs_clean` twin a whole
        // horizon), and a single cell stops after 200 events — 10 on the
        // sample backend, where a debug build spends ~0.2 s on every joint
        // transmission. What a bad config breaks is construction and the
        // first frames, and those all happen.
        m.traffic.duration_s = m.traffic.duration_s.min(0.02);
        if let Topology::Single { .. } = m.topology {
            let sample = m.backend == Backend::Sample;
            m.limits.max_events = Some(if sample { 10 } else { 200 });
        }
        match run_manifest(&m, &RunOptions::default()) {
            Ok(out) => limit_stops += (out.report.verdict.exit_code() == 3) as usize,
            Err(e) => panic!("case {case}: {e:?} from an accepted manifest:\n{canon}"),
        }
    }
    eprintln!(
        "{stream}: {MUTANTS} mutants, {accepted} accepted and run ({limit_stops} stopped by the forced \
         budget), 0 returned Err or panicked"
    );
    // Not vacuous in either direction.
    assert!(
        accepted * 10 >= MUTANTS && accepted * 2 <= MUTANTS,
        "{accepted} accepted"
    );
}
