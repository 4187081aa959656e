//! The `jmb-bench` command line, driven as a process: the experiment table
//! it lists, the 0/1/2 exit contract, and run-to-run byte stability.

use jmb_bench::EXPERIMENTS;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_jmb-bench"))
        .args(args)
        .output()
        .expect("spawn jmb-bench")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// A scratch path unique to this test process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("jmb_bench_cli_{}_{tag}", std::process::id()))
}

#[test]
fn help_and_list_name_every_experiment() {
    for arg in ["--help", "list"] {
        let out = bench(&[arg]);
        assert_eq!(out.status.code(), Some(0), "{arg}");
        let stdout = text(&out.stdout);
        for e in EXPERIMENTS {
            assert!(stdout.contains(e.name), "{arg} omits {}", e.name);
            for f in e.flags {
                assert!(stdout.contains(f.name), "{arg} omits {} {}", e.name, f.name);
            }
        }
    }
}

#[test]
fn table_names_are_unique_and_in_all_matches_results() {
    let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    names.sort_unstable();
    let total = names.len();
    names.dedup();
    assert_eq!(names.len(), total, "duplicate experiment name");
    assert!(!names.contains(&"all") && !names.contains(&"list"));

    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut pinned: Vec<String> = std::fs::read_dir(results)
        .expect("results/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
        .collect();
    pinned.sort_unstable();
    let mut in_all: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|e| e.in_all)
        .map(|e| e.name)
        .collect();
    in_all.sort_unstable();
    assert_eq!(in_all, pinned);
}

#[test]
fn invalid_command_lines_exit_2_with_usage() {
    for args in [
        &[][..],
        &["no_such_experiment"],
        &["perf_baseline"],
        &["perf_baseline", "--quick", "--trace-out", "t.jsonl"],
        &[
            "perf_baseline",
            "--quick",
            "--compare",
            "BENCH_2026-09-30.json",
        ],
        &["perf_baseline", "--regress-threshold", "300"],
        &["fig06_misalignment", "--bogus"],
        &["fig06_misalignment", "--threads", "0"],
        &["fig06_misalignment", "--trace-out", "t.jsonl"],
        &["all", "--trace-out", "t.jsonl"],
        &["city_sweep", "--reuse"],
        &["city_sweep", "--quick", "--reuse", "2"],
        &["city_sweep", "--quick", "--reuse", "1,,3"],
        &["det_harness", "--quick", "--threads", "2"],
        &["det_harness", "--quick", "--threads-list", "0"],
        &["det_harness", "--quick", "--threads-list", "1,0"],
    ] {
        let out = bench(args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains("Usage: jmb-bench"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let out = bench(&["fig06_misalignment", "--trace-out", "t.jsonl"]);
    assert!(text(&out.stderr).contains("fig06_misalignment writes no trace"));
}

/// The timing suite is gone, not hidden: its name is a typo like any other
/// (the `perf_baseline` lines of `invalid_command_lines_exit_2_with_usage`),
/// nothing points at a `BENCH_*.json`, and its flags exist on no row.
#[test]
fn perf_baseline_left_no_row_file_or_flag() {
    let out = bench(&["perf_baseline", "--quick"]);
    assert!(text(&out.stderr).contains("error: unknown experiment `perf_baseline`"));
    for arg in ["list", "--help"] {
        let stdout = text(&bench(&[arg]).stdout);
        assert!(!stdout.contains("BENCH"), "{arg}: {stdout}");
    }
    let rows = EXPERIMENTS.iter().map(|e| e.name).chain(["all"]);
    for row in rows {
        for flag in ["--compare", "--regress-threshold"] {
            let out = bench(&[row, "--quick", flag, "1"]);
            let stderr = text(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{row} {flag}: {stderr}");
            assert!(
                stderr.contains(&format!("error: unknown argument {flag}")),
                "{row} {flag}: {stderr}"
            );
        }
    }
}

#[test]
fn unwritable_out_is_a_runtime_error_not_a_panic() {
    let file = scratch("not_a_dir");
    std::fs::write(&file, "occupied").unwrap();
    let out = bench(&[
        "fig06_misalignment",
        "--quick",
        "--out",
        file.to_str().unwrap(),
    ]);
    std::fs::remove_file(&file).ok();
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("error: write fig06_misalignment.csv: "),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn reruns_write_identical_bytes() {
    let runs = ["a", "b"].map(|tag| {
        let dir = scratch(tag);
        let out = bench(&[
            "fig06_misalignment",
            "--quick",
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
        let csv = std::fs::read(dir.join("fig06_misalignment.csv")).expect("csv");
        std::fs::remove_dir_all(&dir).ok();
        (csv, out.stdout)
    });
    assert!(!runs[0].0.is_empty());
    assert_eq!(runs[0].0, runs[1].0);
    // The banner names the (differing) --out directory; the table does not.
    let table = |stdout: &[u8]| text(stdout).lines().skip(2).collect::<Vec<_>>().join("\n");
    assert_eq!(table(&runs[0].1), table(&runs[1].1));
}
