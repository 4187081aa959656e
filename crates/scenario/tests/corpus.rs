//! The checked-in scenario corpus stays healthy: every manifest under
//! `scenarios/` parses and validates, the cheapest one runs end-to-end
//! with a passing verdict, reruns are byte-identical, and the three
//! non-pass exit codes are reachable from the library API.

use jmb_scenario::{run_manifest, Manifest, RunOptions, ScenarioError, Verdict};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn corpus() -> Vec<(String, String)> {
    manifests_in(corpus_dir())
}

/// Every `*.scn` directly under `dir`, as `(file name, text)`, sorted.
fn manifests_in(dir: PathBuf) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("manifest directory exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "scn") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("readable manifest");
            out.push((name, text));
        }
    }
    out.sort();
    out
}

#[test]
fn every_corpus_manifest_parses_and_validates() {
    let corpus = corpus();
    assert!(
        corpus.len() >= 8,
        "expected the eight-scenario corpus, found {}",
        corpus.len()
    );
    for (name, text) in &corpus {
        let m = Manifest::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!m.assertions.is_empty(), "{name} asserts nothing");
        // Each scenario is a degrade-not-stall check: the stem matches
        // the manifest's declared name so result dirs are predictable.
        assert_eq!(format!("{}.scn", m.name), *name);
    }
}

#[test]
fn cheapest_corpus_scenario_passes_end_to_end() {
    let text = std::fs::read_to_string(corpus_dir().join("rural_long_range.scn")).unwrap();
    let m = Manifest::parse(&text).unwrap();
    let out = run_manifest(&m, &RunOptions::default()).expect("runs");
    assert_eq!(
        out.report.verdict,
        Verdict::Pass,
        "report: {}",
        out.report.to_json()
    );
    assert!(out.report.to_json().contains("\"exit_code\": 0"));
    assert!(!out.trace_jsonl.is_empty());
}

#[test]
fn corpus_runs_are_deterministic() {
    let text = std::fs::read_to_string(corpus_dir().join("rural_long_range.scn")).unwrap();
    let m = Manifest::parse(&text).unwrap();
    let a = run_manifest(&m, &RunOptions::default()).expect("runs");
    let b = run_manifest(&m, &RunOptions::default()).expect("runs");
    assert_eq!(a.report.to_json(), b.report.to_json());
    assert_eq!(a.trace_jsonl, b.trace_jsonl);
}

#[test]
fn broken_manifests_map_to_the_exit_code_contract() {
    let text = std::fs::read_to_string(corpus_dir().join("rural_long_range.scn")).unwrap();

    // Unknown key -> Parse error -> exit 2, with the line number.
    let bad = text.replace("kind single", "kind single\nmodulation qam");
    match Manifest::parse(&bad) {
        Err(ScenarioError::Parse { line, .. }) => assert!(line > 0),
        other => panic!("expected Parse error, got {other:?}"),
    }
    assert_eq!(Verdict::Invalid.exit_code(), 2);

    // Tiny event budget -> limit exceeded -> exit 3.
    let mut m = Manifest::parse(&text).unwrap();
    m.limits.max_events = Some(10);
    let out = run_manifest(&m, &RunOptions::default()).expect("runs");
    assert_eq!(out.report.verdict, Verdict::LimitExceeded);
    assert_eq!(out.report.verdict.exit_code(), 3);

    // Unsatisfiable assertion -> assertion failure -> exit 1.
    let mut m = Manifest::parse(&text).unwrap();
    m.limits.max_events = None;
    m.assertions = vec![jmb_scenario::Assertion::Metric {
        name: "goodput_mbps".into(),
        op: jmb_scenario::Op::Gt,
        value: 1e9,
    }];
    let out = run_manifest(&m, &RunOptions::default()).expect("runs");
    assert_eq!(out.report.verdict, Verdict::AssertionFailed);
    assert_eq!(out.report.verdict.exit_code(), 1);
}

#[test]
fn corpus_manifests_roundtrip_through_the_canonical_form() {
    for (name, text) in corpus() {
        let m = Manifest::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let back = Manifest::parse(&m.to_text()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(back, m, "{name} changed across the canonical roundtrip");
    }
}

/// The canonical text is a byte pin: `tests/fixtures/canonical/` holds
/// `to_text()` of the corpus and of the two unit-test fixtures as the
/// hand-written parser printed them, and no later serializer may move a
/// byte of it.
#[test]
fn canonical_text_matches_the_goldens() {
    let mut all = corpus();
    all.extend(manifests_in(fixtures_dir()));
    assert_eq!(
        all.len(),
        10,
        "eight corpus manifests + good.scn + city.scn"
    );
    for (name, text) in all {
        let canon = Manifest::parse(&text)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .to_text();
        let golden = fixtures_dir().join("canonical").join(&name);
        let want = std::fs::read_to_string(&golden).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(canon, want, "{name}: canonical text moved");
    }
}

#[test]
fn sample_backend_runs_a_fault_schedule() {
    // The control plane is the same at both fidelities, so `[faults]` on
    // `backend sample` installs like on `backend fast` and its misses reach
    // the metrics.
    let text = "\
version 1
name sample_sync_storm
[topology]
kind single
aps 2
clients 1
snr_db 22
[channel]
backend sample
[traffic]
arrival poisson 4000
packet fixed 200
duration_s 0.003
drain_s 0.002
[faults]
sync_loss 0.9
[assertions]
metric sync_misses > 0
";
    let m = Manifest::parse(text).expect("sample backend accepts [faults]");
    let out = run_manifest(&m, &RunOptions::default()).expect("runs");
    assert_eq!(
        out.report.verdict,
        Verdict::Pass,
        "report: {}",
        out.report.to_json()
    );
}

#[test]
fn sample_backend_takes_one_snr_per_client() {
    // `NetConfig::client_snr_db` was always a list; the manifest used to
    // refuse one on `backend sample` and hand the network `snr[0]`.
    let text = "\
version 1
name sample_mixed_snr
[topology]
kind single
aps 2
clients 2
snr_db 24,18
[channel]
backend sample
[traffic]
arrival poisson 2000
packet fixed 200
duration_s 0.004
drain_s 0.002
[assertions]
metric delivered > 0
";
    let m = Manifest::parse(text).expect("a per-client list parses on the sample backend");
    let out = run_manifest(&m, &RunOptions::default()).expect("runs");
    assert_eq!(
        out.report.verdict,
        Verdict::Pass,
        "report: {}",
        out.report.to_json()
    );
    // The second client's SNR is its own, not the first one's.
    let same = Manifest::parse(&text.replace("24,18", "24")).unwrap();
    let scalar = run_manifest(&same, &RunOptions::default()).expect("runs");
    assert_ne!(out.trace_jsonl, scalar.trace_jsonl);
}
