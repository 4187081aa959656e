//! The `jmb-scenario` command line, driven as a process: `check` and `run`
//! refuse the same manifests, and the inputs that used to abort, panic,
//! hang or deliver nothing without a word now exit 2 naming their line.

use jmb_scenario::{Manifest, ScenarioError};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A scratch path unique to this test process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("jmb_scenario_cli_{}_{tag}", std::process::id()))
}

fn corpus(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    std::fs::read_to_string(path.join(name)).expect("corpus manifest")
}

/// Runs `jmb-scenario <cmd> <manifest>` and returns its exit code and
/// stderr; a process still alive after 20 s is killed and reported as a
/// hang (the runner used to have inputs that never ended).
fn scenario(cmd: &str, tag: &str, manifest: &str) -> (i32, String) {
    let dir = scratch(tag);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("m.scn");
    std::fs::write(&path, manifest).expect("write manifest");
    let mut command = Command::new(env!("CARGO_BIN_EXE_jmb-scenario"));
    command.arg(cmd).arg(&path);
    if cmd == "run" {
        command.arg("--out").arg(dir.join("out"));
    }
    let mut child = command
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn jmb-scenario");
    let t0 = Instant::now();
    while child.try_wait().expect("poll").is_none() {
        if t0.elapsed() > Duration::from_secs(20) {
            child.kill().expect("kill");
            panic!("`{cmd}` still running after 20 s on:\n{manifest}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect");
    let _ = std::fs::remove_dir_all(&dir);
    let code = out
        .status
        .code()
        .expect("exited, not signalled (134 is an abort)");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

/// `edit` applied to a corpus manifest must be refused by the library
/// naming `names`, and by `check` and `run` alike: exit 2, the same
/// diagnostic.
fn refused_alike(tag: &str, base: &str, edit: (&str, &str), names: &str) -> ScenarioError {
    let text = corpus(base);
    assert!(text.contains(edit.0), "{base} has no `{}`", edit.0);
    let bad = text.replace(edit.0, edit.1);
    let err = Manifest::parse(&bad).expect_err(edit.1);
    assert!(err.to_string().contains(names), "{}: {err}", edit.1);
    let (check, check_err) = scenario("check", &format!("{tag}_check"), &bad);
    let (run, run_err) = scenario("run", &format!("{tag}_run"), &bad);
    assert_eq!((check, run), (2, 2), "{}: {check_err}{run_err}", edit.1);
    assert_eq!(check_err, run_err, "{}", edit.1);
    assert!(check_err.contains(&err.to_string()), "{check_err}");
    err
}

fn line_of(err: &ScenarioError) -> usize {
    match err {
        ScenarioError::Parse { line, .. } => *line,
        other => panic!("expected a line-numbered error, got {other:?}"),
    }
}

/// [`refused_alike`] for an edit of one whole line, which the diagnostic
/// must point at.
fn refused_at_its_line(tag: &str, base: &str, from: &str, to: &str, names: &str) {
    let e = refused_alike(tag, base, (from, to), names);
    let at = corpus(base).lines().position(|l| l == from).expect(from) + 1;
    assert_eq!(line_of(&e), at, "{to}: {e}");
}

#[test]
fn check_refuses_what_run_refuses() {
    // Each of these passed `check` and then failed `run` with a
    // `simulation error`: the rule lived in a library constructor only.
    let city = "city_reuse3_interference.scn";
    refused_at_its_line("gap", city, "spacing_m 60", "spacing_m -60", "spacing_m");
    refused_at_its_line(
        "apc",
        city,
        "aps_per_cell 3",
        "aps_per_cell 0",
        "aps_per_cell",
    );
    let (from, to) = ("clients_per_cell 6", "clients_per_cell 0");
    refused_at_its_line("cpc", city, from, to, "clients_per_cell");
    // Two APs cannot zero-force to three clients on real waveforms: the
    // sample network's own rule, asked through the plan.
    let sample = "sync_strategy_sample.scn";
    let e = refused_alike("2x3", sample, ("clients 2", "clients 3"), "clients");
    assert!(matches!(e, ScenarioError::Invalid(_)), "{e:?}");
}

#[test]
fn inputs_that_aborted_panicked_hung_or_said_nothing_exit_2_with_their_line() {
    let rural = "rural_long_range.scn";
    let sample = "sync_strategy_sample.scn";
    // A 5 EB allocation, exit 134.
    let to = "packet uniform 1 18446744073709551615";
    refused_at_its_line("alloc", rural, "packet fixed 500", to, "max packet size");
    // `capacity overflow`, exit 101.
    let to = "aps 18446744073709551615";
    refused_at_its_line("overflow", rural, "aps 3", to, "aps");
    // An arrival clock that cannot advance: the run never ended.
    let to = "arrival poisson 18446744073709551616";
    refused_at_its_line("hang", rural, "arrival poisson 400", to, "poisson rate");
    // No frame carries 70 000 bytes: delivered nothing, said nothing.
    let to = "packet fixed 70000";
    refused_at_its_line("silent", sample, "packet fixed 300", to, "packet size");
    // `check` ok, then `matrix is singular`.
    let to = "snr_db 18446744073709551616";
    refused_at_its_line("singular", rural, "snr_db 8", to, "snr_db");
    // Accepted where `fixed 0` was not.
    let to = "packet bimodal 0 1500 0.5";
    refused_at_its_line(
        "bimodal",
        rural,
        "packet fixed 500",
        to,
        "small packet size",
    );
}

#[test]
fn a_key_given_twice_exits_2_naming_both_lines() {
    // Silently last-wins before: `aps 3` then `aps 2` ran two APs.
    let rural = "rural_long_range.scn";
    for key in ["aps 3", "duration_s 0.4", "seed 1"] {
        let twice = format!("{key}\n{key}");
        let e = refused_alike("twice", rural, (key, &twice), "duplicate");
        let first = corpus(rural).lines().position(|l| l == key).expect(key) + 1;
        assert_eq!(line_of(&e), first + 1, "{key}");
        assert!(e.to_string().contains(&format!("line {first})")), "{e}");
    }
}
