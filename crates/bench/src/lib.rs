//! # jmb-bench — figure-regeneration and sweep harness
//!
//! One binary, `jmb-bench <experiment> [flags]`, over one table of
//! experiments ([`EXPERIMENTS`]): the figures of the paper's evaluation
//! (§11), the traffic/robustness/city/sync sweeps built on top of them,
//! and the determinism harness. Each experiment prints its series as rows
//! and writes its CSVs under `--out`. Nothing here times anything: every
//! performance number comes from the repo benchmark (`BENCHMARK.json`,
//! `crates/bench/benchmark/`). The table below is the output of
//! `jmb-bench list`:
//!
//! ```text
//! * fig00_drift_motivation    naive extrapolation vs direct measurement
//! * fig06_misalignment        SNR reduction vs phase misalignment
//! * fig07_misalignment_cdf    CDF of achieved phase misalignment
//! * fig08_inr_scaling         INR vs number of AP-client pairs
//! * fig09_throughput_scaling  throughput scaling with the number of APs
//! * fig10_fairness            per-client gain CDFs
//! * fig11_diversity           diversity throughput vs SNR
//! * fig12_compat_throughput   802.11n-compat throughput per band
//! * fig13_compat_fairness     CDF of 802.11n-compat gain
//! * ablation_phase_sync       throughput with phase sync disabled
//! * ablation_interleaving     interleaved vs sequential measurement slots
//!   traffic_sweep             goodput/latency vs offered load, AP count, and failover
//!       --trace-out F  dump the structured event trace of one cell to F (.jsonl)
//!   robustness_sweep          goodput vs control-frame loss (graceful degradation)
//!       --trace-out F  dump the structured event trace of one cell to F (.jsonl)
//!       --sync-loss P  single-cell mode: sync-header loss probability
//!       --meas-loss P  single-cell mode: measurement-frame loss probability
//!   city_sweep                area capacity vs frequency-reuse factor
//!       --trace-out F  dump the structured event trace of one cell to F (.jsonl)
//!       --reuse LIST  comma-separated reuse factors from {1,3,7} (default 1,3,7)
//!   sync_shootout             pluggable sync backends: phase error, control overhead, storms
//!   det_harness               every sweep artifact byte-compared across claim orders and thread counts
//!       --policies LIST  claim orders from natural|reversed|strided[:K]|random[:SEED]|starve (default natural,reversed,random)
//!       --threads-list LIST  comma-separated worker counts (default 1,4)
//!   all                       every * experiment in sequence (regenerates results/*.csv)
//! ```
//!
//! Every experiment accepts `--quick`, `--seed N`, `--out DIR` and
//! `--threads N`; the indented flags belong to the experiment above them,
//! and a flag an experiment does not declare is an error, not a no-op.
//!
//! Exit codes are shared with `jmb-scenario run`: 0 on pass, 1 on a failed
//! acceptance property or an I/O/runtime error, 2 on an invalid command
//! line. Every artifact is written *before* a failed property is reported,
//! so a failing run leaves its CSVs behind to inspect.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;
pub mod sweeps;

pub use experiments::EXPERIMENTS;

use std::fmt::{Display, Write as _};
use std::path::{Path, PathBuf};
use sweeps::SweepSettings;

/// A per-experiment flag declared in [`EXPERIMENTS`]; each takes one value.
#[derive(Debug)]
pub struct Flag {
    /// The flag as typed, e.g. `--reuse`.
    pub name: &'static str,
    /// Placeholder for its value in the usage text.
    pub arg: &'static str,
    /// One-line description.
    pub help: &'static str,
}

/// One row of the experiment table.
pub struct Experiment {
    /// What to type after `jmb-bench`.
    pub name: &'static str,
    /// Short label the banner opens with (`fig09`, `ablation`, …).
    pub tag: &'static str,
    /// What the experiment shows; the rest of the banner.
    pub title: &'static str,
    /// Part of `jmb-bench all`, i.e. pinned by a `results/<name>.csv`.
    pub in_all: bool,
    /// Flags beyond the shared four.
    pub flags: &'static [Flag],
    /// Runs the experiment: prints its tables and returns what to write.
    pub run: fn(&Opts) -> Result<Report, BenchError>,
}

/// What an experiment hands back to the driver.
#[derive(Default)]
pub struct Report {
    /// CSVs to write under `--out`: `(file name, header, rows)`.
    pub csvs: Vec<(&'static str, String, Vec<Vec<String>>)>,
    /// Evidence for each failed acceptance property.
    pub failures: Vec<String>,
}

impl Report {
    /// A passing report that writes one CSV.
    pub fn csv(name: &'static str, header: impl Into<String>, rows: Vec<Vec<String>>) -> Self {
        Report {
            csvs: vec![(name, header.into(), rows)],
            failures: Vec::new(),
        }
    }

    /// Records `msg` as a failed acceptance property unless `ok`.
    pub fn accept(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(msg());
        }
    }
}

/// Why a run stopped short of a [`Report`].
#[derive(Debug)]
pub enum BenchError {
    /// Invalid command line: the message, then usage, on stderr; exit 2.
    Usage(String),
    /// I/O or runtime failure, as `<what>: <cause>`; exit 1.
    Runtime(String),
}

/// Labels a fallible step for [`BenchError::Runtime`].
pub(crate) fn ctx<T, E: Display>(r: Result<T, E>, what: &str) -> Result<T, BenchError> {
    r.map_err(|e| BenchError::Runtime(format!("{what}: {e}")))
}

/// An invalid-command-line error.
pub(crate) fn bad(msg: impl Into<String>) -> BenchError {
    BenchError::Usage(msg.into())
}

pub(crate) const TRACE_OUT: Flag = Flag {
    name: "--trace-out",
    arg: "F",
    help: "dump the structured event trace of one cell to F (.jsonl)",
};

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed, quick mode, worker threads and claim order.
    pub set: SweepSettings,
    /// Output directory for CSVs.
    pub out_dir: PathBuf,
    /// Values of the experiment's own flags, by flag name.
    extras: Vec<(&'static str, String)>,
}

impl Opts {
    /// Parses the flags that follow the experiment name: the shared
    /// `--quick`, `--seed N`, `--out DIR`, `--threads N`, plus whatever
    /// `flags` the experiment `name` declares. `Ok(None)` means help was
    /// requested; `Err` is a malformed invocation.
    pub fn parse(
        name: &str,
        flags: &'static [Flag],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Option<Self>, BenchError> {
        let mut opts = Opts {
            set: SweepSettings {
                seed: 1,
                quick: false,
                threads: None,
                schedule: jmb_core::experiment::SchedulePolicy::Natural,
            },
            out_dir: PathBuf::from("results"),
            extras: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--help" | "-h" => return Ok(None),
                "--quick" => opts.set.quick = true,
                "--seed" => {
                    let seed = args.next().and_then(|s| s.parse().ok());
                    opts.set.seed = seed.ok_or_else(|| bad("--seed needs an integer"))?;
                }
                "--out" => {
                    let dir = args.next().map(PathBuf::from);
                    opts.out_dir = dir.ok_or_else(|| bad("--out needs a path"))?;
                }
                "--threads" => {
                    let n = args.next().and_then(|s| s.parse::<usize>().ok());
                    let n = n.filter(|&n| n > 0);
                    opts.set.threads =
                        Some(n.ok_or_else(|| bad("--threads needs a positive integer"))?);
                }
                other => match flags.iter().find(|f| f.name == other) {
                    Some(f) => {
                        let v = args.next();
                        let v = v.ok_or_else(|| bad(format!("{} needs {}", f.name, f.arg)))?;
                        opts.extras.push((f.name, v));
                    }
                    None if other == TRACE_OUT.name => {
                        return Err(bad(format!("{name} writes no trace")))
                    }
                    None => return Err(bad(format!("unknown argument {other}"))),
                },
            }
        }
        Ok(Some(opts))
    }

    /// The raw value of one of the experiment's own flags, if given (the
    /// last one wins).
    pub fn flag(&self, name: &str) -> Option<&str> {
        let found = self.extras.iter().rev().find(|(n, _)| *n == name);
        found.map(|(_, v)| v.as_str())
    }

    /// The `--trace-out` path, for the experiments that declare it.
    pub fn trace_out(&self) -> Option<&Path> {
        self.flag(TRACE_OUT.name).map(Path::new)
    }

    /// A flag's comma-separated value through `item`, or `None` if the flag
    /// is absent. An empty list or an item `item` rejects is a usage error.
    pub fn list<T>(
        &self,
        name: &str,
        item: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<Vec<T>>, BenchError> {
        let Some(spec) = self.flag(name) else {
            return Ok(None);
        };
        let parsed: Option<Vec<T>> = spec.split(',').map(item).collect();
        match parsed {
            Some(list) if !list.is_empty() => Ok(Some(list)),
            _ => Err(bad(format!("{name} cannot take `{spec}`"))),
        }
    }

    /// A flag's value as a finite number, or `None` if the flag is absent.
    pub fn number(&self, name: &str) -> Result<Option<f64>, BenchError> {
        let parse = |s: &str| {
            let v = s.parse::<f64>().ok().filter(|v| v.is_finite());
            v.ok_or_else(|| bad(format!("{name} cannot take `{s}`")))
        };
        self.flag(name).map(parse).transpose()
    }

    /// Sweep size scaled by quick mode.
    pub fn topologies(&self, full: usize) -> usize {
        if self.set.quick {
            (full / 4).max(2)
        } else {
            full
        }
    }

    /// The experiment sweep config for this run.
    pub fn sweep(&self, full_topologies: usize) -> jmb_core::experiment::SweepConfig {
        self.set.sweep(self.topologies(full_topologies))
    }

    /// CSV path under the output directory.
    pub fn csv_path(&self, name: &str) -> PathBuf {
        self.out_dir.join(name)
    }
}

/// The flag half of the usage text: the shared flags, then `flags`.
fn usage(flags: &[Flag]) -> String {
    let mut out = String::from(
        "\
Usage: jmb-bench <experiment> [flags]   (`jmb-bench list` names the experiments)
Flags:
  --quick        reduced sweep for smoke runs
  --seed N       master seed (default 1)
  --out DIR      output directory for CSVs (default results/)
  --threads N    worker threads for the topology sweep (default: all cores)
  --help, -h     print this help",
    );
    for f in flags {
        let _ = write!(out, "\n  {} {}  {}", f.name, f.arg, f.help);
    }
    out
}

/// The experiment table as `jmb-bench list` prints it.
fn list() -> String {
    let mut out = String::new();
    for e in EXPERIMENTS {
        let star = if e.in_all { '*' } else { ' ' };
        let _ = writeln!(out, "{star} {:<25} {}", e.name, e.title);
        for f in e.flags {
            let _ = writeln!(out, "      {} {}  {}", f.name, f.arg, f.help);
        }
    }
    let _ = writeln!(
        out,
        "  {:<25} every * experiment in sequence (regenerates results/*.csv)",
        "all"
    );
    out
}

/// Runs one experiment the way every experiment is run: banner, tables,
/// then every CSV written before any failed property is reported.
fn run_one(exp: &Experiment, opts: &Opts) -> Result<Vec<String>, BenchError> {
    println!("=== {}: {} ===", exp.tag, exp.title);
    println!(
        "    (seed {}, {}; CSV → {})",
        opts.set.seed,
        if opts.set.quick {
            "quick sweep"
        } else {
            "full sweep"
        },
        opts.out_dir.display()
    );
    let report = (exp.run)(opts)?;
    for (name, header, rows) in &report.csvs {
        ctx(
            sweeps::write_csv(&opts.csv_path(name), header, rows),
            &format!("write {name}"),
        )?;
    }
    Ok(report.failures)
}

/// `jmb-bench all`: the `in_all` experiments in table order, in-process.
fn run_all(opts: &Opts) -> Result<Vec<String>, BenchError> {
    let mut failures = Vec::new();
    for exp in EXPERIMENTS.iter().filter(|e| e.in_all) {
        println!();
        failures.extend(run_one(exp, opts)?);
    }
    println!("\nall figures regenerated; CSVs under results/ — see EXPERIMENTS.md");
    Ok(failures)
}

/// The whole `jmb-bench` command: dispatches `args` (without the program
/// name) and returns the process exit code.
pub fn run(args: impl IntoIterator<Item = String>) -> u8 {
    let mut args = args.into_iter();
    let name = args.next().unwrap_or_default();
    if matches!(name.as_str(), "list" | "--help" | "-h") {
        let (usage, list) = (usage(&[]), list());
        print!("{usage}\nExperiments (* = part of `all`):\n{list}");
        return 0;
    }
    let exp = EXPERIMENTS.iter().find(|e| e.name == name);
    let flags = match exp {
        Some(e) => e.flags,
        None if name == "all" => &[][..],
        None => {
            eprintln!("error: unknown experiment `{name}`\n{}", usage(&[]));
            return 2;
        }
    };
    let result = Opts::parse(&name, flags, args).and_then(|opts| match (opts, exp) {
        (None, _) => {
            println!("{}", usage(flags));
            Ok(Vec::new())
        }
        (Some(opts), Some(exp)) => run_one(exp, &opts),
        (Some(opts), None) => run_all(&opts),
    });
    match result {
        Ok(failures) => {
            for f in &failures {
                eprintln!("acceptance failure: {f}");
            }
            u8::from(!failures.is_empty())
        }
        Err(BenchError::Usage(msg)) => {
            eprintln!("error: {msg}\n{}", usage(flags));
            2
        }
        Err(BenchError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    const EXTRA: &[Flag] = &[TRACE_OUT];

    fn parse(args: &[&str]) -> Result<Option<Opts>, BenchError> {
        Opts::parse("traffic_sweep", EXTRA, sv(args))
    }

    fn opts(args: &[&str]) -> Opts {
        parse(args).unwrap().unwrap()
    }

    #[test]
    fn quick_scales_topologies() {
        let o = opts(&["--quick"]);
        assert_eq!(o.topologies(20), 5);
        assert_eq!(o.topologies(4), 2);
        assert_eq!(opts(&[]).topologies(20), 20);
    }

    #[test]
    fn csv_path_joins() {
        let o = opts(&["--out", "/tmp/x"]);
        assert_eq!(o.csv_path("a.csv"), PathBuf::from("/tmp/x/a.csv"));
        assert_eq!(opts(&[]).csv_path("a.csv"), PathBuf::from("results/a.csv"));
    }

    #[test]
    fn parse_accepts_all_flags() {
        let o = opts(&[
            "--quick",
            "--seed",
            "9",
            "--out",
            "/tmp/o",
            "--threads",
            "3",
            "--trace-out",
            "/tmp/t.jsonl",
        ]);
        assert!(o.set.quick);
        assert_eq!(o.set.seed, 9);
        assert_eq!(o.out_dir, PathBuf::from("/tmp/o"));
        assert_eq!(o.set.threads, Some(3));
        assert_eq!(o.trace_out(), Some(Path::new("/tmp/t.jsonl")));
    }

    #[test]
    fn parse_help_is_ok_none() {
        assert!(parse(&["--help"]).unwrap().is_none());
        assert!(parse(&["-h"]).unwrap().is_none());
    }

    #[test]
    fn parse_rejects_bad_args() {
        for bad in [
            &["--bogus"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--threads", "0"],
            &["--trace-out"],
        ] {
            assert!(matches!(parse(bad), Err(BenchError::Usage(_))), "{bad:?}");
        }
        // The same flag on an experiment that does not declare it.
        let err = Opts::parse("fig06_misalignment", &[], sv(&["--trace-out", "t"]));
        assert!(
            matches!(err, Err(BenchError::Usage(m)) if m == "fig06_misalignment writes no trace")
        );
    }

    #[test]
    fn threads_overrides_sweep_parallelism() {
        assert_eq!(opts(&["--threads", "2"]).sweep(20).parallelism, 2);
        assert!(opts(&[]).sweep(20).parallelism >= 1);
    }
}
