//! `jmb-scenario` — run declarative scenario manifests headless.
//!
//! ```text
//! jmb-scenario run <manifest.scn> [--out DIR] [--seed N] [--threads N]
//! jmb-scenario check <manifest.scn>
//! ```
//!
//! `run` executes the manifest and writes `result.json` + `trace.jsonl`
//! into the output directory (default `results/scenario/<name>`), then
//! exits 0 (pass), 1 (assertion failed), 2 (invalid manifest/CLI), or 3
//! (resource limit hit). `check` parses the manifest and plans its run —
//! everything `run` does before it simulates — so a manifest `check`
//! accepts is one `run` will start.

use jmb_scenario::{
    run_manifest, Manifest, RunOptions, ScenarioError, ScenarioReport, EXIT_INVALID, EXIT_PASS,
};
use std::path::{Path, PathBuf};

const USAGE: &str = "\
usage: jmb-scenario run <manifest.scn> [--out DIR] [--seed N] [--threads N]
       jmb-scenario check <manifest.scn>

exit codes: 0 pass | 1 assertion failed | 2 invalid manifest or CLI | 3 limit exceeded";

fn main() {
    std::process::exit(real_main(&std::env::args().skip(1).collect::<Vec<_>>()));
}

fn real_main(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            EXIT_PASS
        }
        Some(other) => {
            eprintln!("error: unknown command `{other}`\n{USAGE}");
            EXIT_INVALID
        }
        None => {
            eprintln!("{USAGE}");
            EXIT_INVALID
        }
    }
}

struct RunArgs {
    manifest: PathBuf,
    out: Option<PathBuf>,
    seed: Option<u64>,
    threads: Option<usize>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut manifest: Option<PathBuf> = None;
    let mut out = None;
    let mut seed = None;
    let mut threads = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                let v = it.next().ok_or("--out needs a directory")?;
                out = Some(PathBuf::from(v));
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let t: usize = v.parse().map_err(|_| format!("bad --threads `{v}`"))?;
                if t == 0 {
                    return Err("--threads must be at least 1".into());
                }
                threads = Some(t);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => {
                if manifest.is_some() {
                    return Err(format!("unexpected extra argument `{path}`"));
                }
                manifest = Some(PathBuf::from(path));
            }
        }
    }
    Ok(RunArgs {
        manifest: manifest.ok_or("missing manifest path")?,
        out,
        seed,
        threads,
    })
}

/// The artifact directory for a manifest: `--out` if given, else
/// `results/scenario/<file stem>`.
fn out_dir(args: &RunArgs) -> PathBuf {
    let default = || Path::new("results/scenario").join(stem_of(&args.manifest));
    args.out.clone().unwrap_or_else(default)
}

fn load(path: &Path) -> Result<Manifest, ScenarioError> {
    let text = std::fs::read_to_string(path)?;
    Manifest::parse(&text)
}

/// Writes `result.json` (+ optionally `trace.jsonl`) into `dir`. Failures
/// here are reported but do not change the verdict-derived exit code —
/// except that an unwritable result for a *passing* run is still a
/// failure the caller must see, so IO errors map to exit 2.
fn write_artifacts(
    dir: &Path,
    report_json: &str,
    trace_jsonl: Option<&str>,
) -> Result<(), ScenarioError> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("result.json"), report_json)?;
    if let Some(t) = trace_jsonl {
        std::fs::write(dir.join("trace.jsonl"), t)?;
    }
    Ok(())
}

fn stem_of(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "scenario".to_string())
}

fn cmd_run(args: &[String]) -> i32 {
    let args = match parse_run_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return EXIT_INVALID;
        }
    };
    let dir = out_dir(&args);
    // Even a manifest that never ran leaves a machine-readable record for
    // CI to upload.
    let refuse = |name: &str, e: ScenarioError| {
        let report = ScenarioReport::invalid(name, &e);
        let _ = write_artifacts(&dir, &report.to_json(), None);
        eprintln!("error: {e}");
        EXIT_INVALID
    };
    let manifest = match load(&args.manifest) {
        Ok(m) => m,
        Err(e) => return refuse(&stem_of(&args.manifest), e),
    };
    let opts = RunOptions {
        seed: args.seed,
        threads: args.threads,
    };
    match run_manifest(&manifest, &opts) {
        Ok(out) => {
            if let Err(e) = write_artifacts(&dir, &out.report.to_json(), Some(&out.trace_jsonl)) {
                eprintln!("error: {e}");
                return EXIT_INVALID;
            }
            let r = &out.report;
            println!(
                "{}: {} (seed {}, {} events, stop {}); artifacts in {}",
                r.name,
                r.verdict.name(),
                r.seed,
                r.events,
                r.stop_cause.name(),
                dir.display()
            );
            for a in &r.assertions {
                println!(
                    "  [{}] {} — {} (actual {})",
                    a.index,
                    a.text,
                    if a.passed { "pass" } else { "FAIL" },
                    a.actual
                );
            }
            r.verdict.exit_code()
        }
        Err(e) => refuse(&manifest.name, e),
    }
}

fn cmd_check(args: &[String]) -> i32 {
    let [path] = args else {
        eprintln!("error: check takes exactly one manifest path\n{USAGE}");
        return EXIT_INVALID;
    };
    match load(Path::new(path)) {
        Ok(m) => {
            println!(
                "ok: {} ({} assertions, {} fault windows, {} outages)",
                m.name,
                m.assertions.len(),
                m.faults.windows.len(),
                m.faults.outages.len()
            );
            EXIT_PASS
        }
        Err(e) => {
            eprintln!("error: {e}");
            EXIT_INVALID
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_args_parse_and_reject() {
        let ok = parse_run_args(&[
            "a.scn".into(),
            "--seed".into(),
            "3".into(),
            "--threads".into(),
            "4".into(),
        ])
        .unwrap();
        assert_eq!(ok.seed, Some(3));
        assert_eq!(ok.threads, Some(4));
        assert!(parse_run_args(&["--seed".into()]).is_err());
        assert!(parse_run_args(&["a".into(), "b".into()]).is_err());
        assert!(parse_run_args(&["--bogus".into()]).is_err());
        assert!(parse_run_args(&[]).is_err());
    }

    #[test]
    fn default_out_dir_uses_the_stem() {
        let a = parse_run_args(&["scenarios/stadium.scn".into()]).unwrap();
        assert_eq!(
            out_dir(&a),
            Path::new("results").join("scenario").join("stadium")
        );
    }

    /// What a `run` line is built from: the flags, flags that do not
    /// exist, paths, and values on every edge `--seed`/`--threads` have.
    const WORDS: &[&str] = &[
        "--out",
        "--seed",
        "--threads",
        "--bogus",
        "-x",
        "--help",
        "--seed=3",
        "a.scn",
        "b.scn",
        "0",
        "1",
        "4",
        "-1",
        "18446744073709551615",
        "18446744073709551616",
        "NaN",
        "",
        "é",
    ];

    /// The grammar, restated the slow way: flags with their values in any
    /// order around exactly one path.
    fn well_formed(argv: &[String]) -> bool {
        let (mut paths, mut i) = (0, 0);
        while i < argv.len() {
            let value = argv.get(i + 1);
            i += match argv[i].as_str() {
                "--out" if value.is_some() => 2,
                "--seed" if value.is_some_and(|v| v.parse::<u64>().is_ok()) => 2,
                "--threads" if value.is_some_and(|v| v.parse().is_ok_and(|t: usize| t > 0)) => 2,
                word if word.starts_with('-') => return false,
                _ => {
                    paths += 1;
                    1
                }
            };
        }
        paths == 1
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3000))]

        /// No command line panics the parser; exactly the well-formed ones
        /// are accepted; every other one is exit 2 with the offending
        /// word, or the flag left without its value, named.
        #[test]
        fn random_argv_is_run_or_refused_by_name(
            picks in proptest::collection::vec(0usize..WORDS.len(), 0..6),
        ) {
            let argv: Vec<String> = picks.iter().map(|&i| WORDS[i].to_string()).collect();
            match parse_run_args(&argv) {
                Ok(args) => {
                    proptest::prop_assert!(well_formed(&argv), "accepted {argv:?}");
                    proptest::prop_assert!(argv.contains(&args.manifest.display().to_string()));
                }
                Err(msg) => {
                    proptest::prop_assert!(!well_formed(&argv), "refused {argv:?}: {msg}");
                    let named = argv.iter().any(|w| !w.is_empty() && msg.contains(w.as_str()));
                    let nothing_to_name = msg == "missing manifest path" || msg.ends_with("``");
                    proptest::prop_assert!(named || nothing_to_name, "{argv:?}: {msg}");
                    let mut line = vec!["run".to_string()];
                    line.extend(argv.iter().cloned());
                    proptest::prop_assert_eq!(real_main(&line), EXIT_INVALID);
                }
            }
            // `check` takes one path and nothing else; a word that is no
            // command is no command.
            if argv.len() != 1 {
                let mut line = vec!["check".to_string()];
                line.extend(argv.iter().cloned());
                proptest::prop_assert_eq!(real_main(&line), EXIT_INVALID);
            }
            if argv.first().is_some_and(|w| !["run", "check", "--help"].contains(&w.as_str())) {
                proptest::prop_assert_eq!(real_main(&argv), EXIT_INVALID);
            }
        }
    }

    #[test]
    fn unknown_command_is_invalid() {
        assert_eq!(real_main(&["frobnicate".into()]), EXIT_INVALID);
        assert_eq!(real_main(&[]), EXIT_INVALID);
        assert_eq!(real_main(&["--help".into()]), EXIT_PASS);
    }
}
