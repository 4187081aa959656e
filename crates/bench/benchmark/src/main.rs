//! The repo benchmark: four user-visible workloads, host-time and
//! simulated end-to-end metrics, and a per-layer trace. See `README.md`
//! beside this package and `/BENCHMARK.json`.
//!
//! One invocation measures one workload. It splits `--seconds` over
//! [`CHILDREN`] fresh child processes (this same executable, re-run with
//! `--child`), so that set-up time and peak memory are facts of a whole
//! process with several samples each, and prints the result as the last
//! line of its standard output.

mod alloc;
mod compare;
mod host;
mod json;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Raw, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Child processes an untraced run splits its `--seconds` over.
const CHILDREN: u32 = 3;

const USAGE: &str = "\
usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       benchmark --summary FILE
       benchmark --compare PARENT.jsonl CHANGE.jsonl

  --workload NAME  fig_sweep | traffic_storm | sample_cell | city_grid
  --seed N         seed every input derives from (default 1)
  --seconds S      seconds of timed repetitions (default: BENCHMARK.json run_seconds)
  --trace 0|1      0: end-to-end metrics; 1: the traced pass and per-layer metrics (default 0)
  --out FILE       append the full record (host block, quartiles, every repetition) to FILE
  --summary FILE   per workload x end-to-end metric: median, quartiles and spread of FILE's records
  --compare A B    B's medians against A's and the bounds; exit 1 if any metric regressed

The last line of standard output is the result: correct, attempted, failed, metrics.";

/// A parsed command line.
#[derive(Debug, PartialEq)]
enum Cli {
    Run(RunArgs),
    Child(RunArgs),
    Summary(String),
    Compare(String, String),
    Help,
}

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Parent: where to append the full record. Child: where to write spans.
    out: Option<String>,
}

fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut args = args.into_iter();
    let mut workload = None;
    let mut child = false;
    let mut seed = 1u64;
    let mut seconds = metrics::run_seconds()? as f64;
    let mut traced = false;
    let mut out = None;
    let mut other = None;
    while let Some(a) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--help" | "-h" => return Ok(Cli::Help),
            "--workload" | "--child" => {
                child |= a == "--child";
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}"));
                }
                if workload.replace(name).is_some() {
                    return Err("one workload per invocation".into());
                }
            }
            "--seed" => {
                seed = value("an integer")?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?;
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds needs a number in (0, 600]")?;
            }
            "--trace" => {
                traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--out" => out = Some(value("a path")?),
            "--summary" => other = Some(Cli::Summary(value("a path")?)),
            "--compare" => {
                let a = value("two paths")?;
                other = Some(Cli::Compare(a, value("two paths")?));
            }
            unknown => return Err(format!("unknown argument {unknown}")),
        }
    }
    match (other, workload) {
        (Some(cli), None) => Ok(cli),
        (Some(_), Some(_)) => Err("--summary/--compare take no workload".into()),
        (None, None) => Err("--workload is required".into()),
        (None, Some(workload)) => {
            let run = RunArgs {
                workload,
                seed,
                seconds,
                traced,
                out,
            };
            Ok(if child {
                Cli::Child(run)
            } else {
                Cli::Run(run)
            })
        }
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cli {
        Cli::Help => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Cli::Child(args) => {
            println!("{}", child(&args, started));
            Ok(ExitCode::SUCCESS)
        }
        Cli::Run(args) => parent(&args).map(|()| ExitCode::SUCCESS),
        Cli::Summary(path) => compare::summary(&path).map(|()| ExitCode::SUCCESS),
        Cli::Compare(a, b) => compare::compare(&a, &b).map(|regressed| {
            if regressed {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }),
    };
    outcome.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        ExitCode::from(1)
    })
}

// ---------------------------------------------------------------------------
// Child: one process, one workload — set up, warm up, repeat, report.
// ---------------------------------------------------------------------------

/// The operations one child attempted, and the first one's result.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    first: Option<workloads::RepOut>,
}

impl Tally {
    /// Counts one operation. Same inputs, same program: a repetition that
    /// succeeds must give the first one's result, byte for byte.
    fn note(&mut self, r: Result<workloads::RepOut, String>) {
        self.attempted += 1;
        match (r, &self.first) {
            (Err(e), _) => self.fail(e),
            (Ok(out), Some(f)) if f.digest != out.digest => self.fail(format!(
                "digest {:016x} differs from the first repetition's {:016x}",
                out.digest, f.digest
            )),
            (Ok(_), Some(_)) => {}
            (Ok(out), None) => self.first = Some(out),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }
}

/// Runs the workload in this process and returns its report. Failures are
/// counted, never panicked on: a child always reports.
fn child(args: &RunArgs, started: Instant) -> Json {
    let mut tally = Tally::default();
    let mut walls: Vec<f64> = Vec::new();
    let mut setup_s = 0.0;
    let mut cpu_s = 0.0;
    let mut layers = BTreeMap::new();
    match Workload::build(&args.workload, args.seed) {
        Err(e) => {
            tally.attempted += 1;
            tally.fail(e);
        }
        Ok(w) => {
            if args.traced {
                trace::start();
                jmb_obs::set_spans_enabled(true);
            }
            tally.note(w.warm_up().and_then(|raw| raw.check()));
            setup_s = started.elapsed().as_secs_f64();
            jmb_obs::reset_spans();
            let cpu0 = host::cpu_s();
            let timing = Instant::now();
            // At least two repetitions; then until the budget is spent.
            while walls.len() < 2 || timing.elapsed().as_secs_f64() < args.seconds {
                trace::set_rep(walls.len() as u32 + 1);
                let (raw, wall): (Result<Raw, String>, f64) = {
                    let _g = trace::scope("rep");
                    let t = Instant::now();
                    let raw = w.run();
                    (raw, t.elapsed().as_secs_f64())
                };
                walls.push(wall);
                // Checking is outside the timed region.
                tally.note(raw.and_then(|raw| raw.check()));
            }
            cpu_s = host::cpu_s().zip(cpu0).map_or(0.0, |(a, b)| a - b);
            if args.traced {
                layers = traced_layers(&w, args, &walls, cpu_s, &mut tally);
            }
        }
    }

    tally.errors.truncate(4);
    let first = tally.first.as_ref();
    Json::obj([
        ("setup_s", Json::Num(setup_s)),
        (
            "peak_rss_mb",
            host::peak_rss_mb().map_or(Json::Null, Json::Num),
        ),
        ("cpu_s", Json::Num(cpu_s)),
        ("rep_wall_s", Json::nums(&walls)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "errors",
            Json::Arr(tally.errors.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "goodput_mbps",
            first.map_or(Json::Null, |f| Json::Num(f.goodput_mbps)),
        ),
        (
            "digest",
            first.map_or(Json::Null, |f| Json::Str(format!("{:016x}", f.digest))),
        ),
        (
            "layers",
            Json::obj(layers.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
    ])
}

/// Ends the traced pass: writes the spans out, counts one repetition's
/// allocations, runs the probes, and returns the per-layer metrics.
fn traced_layers(
    w: &Workload,
    args: &RunArgs,
    walls: &[f64],
    cpu_s: f64,
    tally: &mut Tally,
) -> BTreeMap<&'static str, f64> {
    let (spans, counts) = trace::finish();
    jmb_obs::set_spans_enabled(false);
    let mut layers = BTreeMap::new();
    let Some(first) = tally.first.clone() else {
        return layers;
    };
    if let Some(path) = &args.out {
        let written = std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .and_then(|mut f| {
                trace::write_json(&spans, &mut f)?;
                std::io::Write::flush(&mut f)
            });
        if let Err(e) = written {
            eprintln!("warning: could not write {path}: {e}");
        }
    }

    // One more repetition with nothing on but the counting allocator: the
    // recorder's own vectors are not the program's allocations. It runs
    // bare, so its digest matching the traced repetitions' also shows, in
    // this process, that the wrappers do not perturb the simulation.
    let mut raw = Err("the counted repetition did not run".to_string());
    let (calls, bytes) = alloc::counting(|| raw = w.run());
    tally.note(raw.and_then(|raw| raw.check()));
    layers.insert("allocs_per_rep", calls as f64);
    layers.insert("alloc_mb_per_rep", bytes as f64 / (1024.0 * 1024.0));
    layers.insert("traced_wall_s", stats::fast_half_mean(walls));
    layers.insert("traced_reps", walls.len() as f64);

    let seen = Seen {
        agg: trace::aggregate(&spans),
        counts,
        in_program: jmb_obs::span_report(),
        first: &first,
        timed_cpu_s: cpu_s,
        walls,
    };
    tally.attempted += 1;
    match layer_metrics(w, args.seed, &seen) {
        Ok(found) => {
            // A name the contract does not list would be dropped silently
            // by the parent; make it a failure instead.
            if let Some((name, _)) = found
                .iter()
                .find(|(name, _)| !metrics::PER_LAYER.iter().any(|(n, _)| n == name))
            {
                tally.fail(format!("per-layer metric {name} is not in the contract"));
            }
            layers.extend(found);
        }
        Err(e) => tally.fail(e),
    }
    layers
}

/// What the traced pass saw, per name.
struct Seen<'a> {
    agg: BTreeMap<&'static str, trace::Agg>,
    counts: BTreeMap<&'static str, u64>,
    /// `jmb_obs` span table: the spans the program itself carries.
    in_program: Vec<(&'static str, jmb_obs::SpanStat)>,
    first: &'a workloads::RepOut,
    timed_cpu_s: f64,
    walls: &'a [f64],
}

impl Seen<'_> {
    fn span(&self, name: &str) -> &trace::Agg {
        static NONE: trace::Agg = trace::Agg::EMPTY;
        self.agg.get(name).unwrap_or(&NONE)
    }

    /// Timed repetitions the traced pass ran.
    fn reps(&self) -> f64 {
        self.walls.len() as f64
    }

    /// Total milliseconds per repetition in spans named `name`.
    fn ms_per_rep(&self, name: &str) -> f64 {
        self.span(name).total_ns as f64 / self.reps() / 1e6
    }

    fn in_program(&self, name: &str) -> jmb_obs::SpanStat {
        self.in_program
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// Share of the repetitions' time that no named span below them covers.
    fn residue_pct(&self) -> f64 {
        let rep = self.span("rep");
        100.0 * rep.self_ns as f64 / (rep.total_ns as f64).max(1.0)
    }

    /// The traffic-layer metrics both traffic workloads report.
    fn traffic(&self, out: &mut Vec<(&'static str, f64)>) {
        let run = self.span("traffic.loop");
        let events = self.first.loop_events as f64;
        out.extend([
            (
                "traffic.loop_self_ms",
                run.self_ns as f64 / self.reps() / 1e6,
            ),
            ("traffic.events", events),
            (
                "traffic.events_per_s",
                events / (run.total_ns as f64 / self.reps() / 1e9),
            ),
            ("traffic.sim_new_ms", self.ms_per_rep("traffic.sim_new")),
        ]);
    }

    fn acked_ratio(&self) -> f64 {
        let count = |n: &str| self.counts.get(n).copied().unwrap_or(0) as f64;
        count("backend.acked") / count("backend.packets").max(1.0)
    }

    fn zf(&self, out: &mut Vec<(&'static str, f64)>) {
        let zf = self.in_program("zf_precoder");
        out.extend([
            ("core.zf.calls", zf.count as f64 / self.reps()),
            ("core.zf.total_ms", zf.total_ns as f64 / self.reps() / 1e6),
        ]);
    }
}

/// The per-layer metrics of workload `w`; the layers it bypasses are left
/// out (and read 0 in the result).
fn layer_metrics(w: &Workload, seed: u64, seen: &Seen) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = vec![("residue_pct", seen.residue_pct())];
    match w {
        Workload::FigSweep { .. } => {
            seen.zf(&mut out);
            let sweep_s = stats::median(
                &seen
                    .span("core.experiment.sweep")
                    .durs_ns
                    .iter()
                    .map(|&d| d as f64 / 1e9)
                    .collect::<Vec<_>>(),
            );
            out.push(("core.experiment.topologies_per_s", 540.0 / sweep_s));
            out.extend(probes::fastnet_n10(seed)?);
            out.extend(probes::zf_gram(seed)?);
            out.extend(probes::channel(seed));
        }
        Workload::TrafficStorm { .. } => {
            seen.traffic(&mut out);
            seen.zf(&mut out);
            let tx = seen.span("core.fast.transmit");
            let durs: Vec<f64> = tx.durs_ns.iter().map(|&d| d as f64 / 1e3).collect();
            let sink = seen.span("obs.sink");
            out.extend([
                (
                    "core.fast.backend_new_ms",
                    seen.ms_per_rep("core.fast.backend_new"),
                ),
                ("core.fast.transmit_calls", tx.calls as f64 / seen.reps()),
                ("core.fast.transmit_us", stats::median(&durs)),
                (
                    // Below 1000 calls no ten samples lie beyond p99; the
                    // median stands in.
                    "core.fast.transmit_p99_us",
                    stats::tail_percentile(&durs, 0.99).unwrap_or(stats::median(&durs)),
                ),
                ("core.fast.advance_ms", seen.ms_per_rep("core.fast.advance")),
                ("core.fast.acked_ratio", seen.acked_ratio()),
                ("obs.events", seen.first.obs_events as f64),
                ("obs.sink_ms", seen.ms_per_rep("obs.sink")),
                (
                    "obs.sink_ns_per_event",
                    sink.total_ns as f64 / (sink.calls as f64).max(1.0),
                ),
            ]);
            out.extend(probes::channel(seed));
        }
        Workload::SampleCell { phy, traffic } => {
            seen.traffic(&mut out);
            let tx = seen.span("core.net.transmit");
            let durs: Vec<f64> = tx.durs_ns.iter().map(|&d| d as f64 / 1e6).collect();
            let payload = traffic.loads[0].size.mean() as usize;
            out.extend([
                (
                    "core.net.backend_new_ms",
                    seen.ms_per_rep("core.net.backend_new"),
                ),
                ("core.net.transmit_calls", tx.calls as f64 / seen.reps()),
                ("core.net.transmit_ms", stats::median(&durs)),
                (
                    "core.net.transmit_share_pct",
                    100.0 * tx.total_ns as f64 / (seen.span("rep").total_ns as f64).max(1.0),
                ),
                ("core.net.acked_ratio", seen.acked_ratio()),
                (
                    "dsp.fft_fwd.calls",
                    seen.in_program("fft_forward").count as f64 / seen.reps(),
                ),
                (
                    "dsp.fft_inv.calls",
                    seen.in_program("fft_inverse").count as f64 / seen.reps(),
                ),
            ]);
            out.extend(probes::sample_path(phy, payload, seed)?);
        }
        Workload::CityGrid { city } => {
            let cell_new = probes::city_cell_new(seed)?;
            let cell_new_us = cell_new[0].1;
            out.extend(cell_new);
            out.extend(probes::channel(seed));
            // The warm-up is the same city on one thread; timed once more,
            // it is what the threads had to beat.
            let t = Instant::now();
            let raw = w.warm_up()?;
            let run_t1_s = t.elapsed().as_secs_f64();
            if raw.check()?.digest != seen.first.digest {
                return Err("city_grid: result differs between 1 thread and more".into());
            }
            let cell_epochs = (city.cols * city.rows * city.epochs) as f64;
            let wall = stats::fast_half_mean(seen.walls);
            out.extend([
                ("city.new_ms", seen.ms_per_rep("city.new")),
                ("city.run_t1_s", run_t1_s),
                ("city.cell_epoch_us", run_t1_s / cell_epochs * 1e6),
                ("city.scaling_eff", run_t1_s / (city.threads as f64 * wall)),
                ("city.cpu_s", seen.timed_cpu_s / seen.reps()),
                (
                    "city.construction_share",
                    cell_epochs * cell_new_us / 1e6 / run_t1_s,
                ),
            ]);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parent: spawn the children, fold their reports, print the result.
// ---------------------------------------------------------------------------

/// One child's report, as the parent reads it back.
struct Report {
    setup_s: f64,
    peak_rss_mb: f64,
    walls: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    goodput_mbps: Option<f64>,
    digest: Option<String>,
    layers: Vec<(String, f64)>,
}

/// Runs one child to completion. A child that dies or prints nothing
/// readable is one failed operation.
fn spawn_child(args: &RunArgs, seconds: f64, traced: bool, span_file: Option<&str>) -> Report {
    let crashed = |why: String| Report {
        setup_s: 0.0,
        peak_rss_mb: 0.0,
        walls: Vec::new(),
        attempted: 1,
        failed: 1,
        errors: vec![why],
        goodput_mbps: None,
        digest: None,
        layers: Vec::new(),
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return crashed(format!("cannot find own executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(path) = span_file {
        cmd.args(["--out", path]);
    }
    // `output` waits for the child to end before it returns.
    let out = match cmd.output() {
        Ok(out) => out,
        Err(e) => return crashed(format!("cannot start child: {e}")),
    };
    let text = String::from_utf8_lossy(&out.stdout);
    let Some(doc) = text.lines().last().and_then(|l| Json::parse(l).ok()) else {
        return crashed(format!("child ended with {} and no report", out.status));
    };
    let num = |k: &str| doc.get(k).and_then(Json::as_f64);
    let strings = |k: &str| -> Vec<String> {
        doc.get(k)
            .and_then(Json::as_arr)
            .map(|v| {
                v.iter()
                    .filter_map(|s| s.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default()
    };
    Report {
        setup_s: num("setup_s").unwrap_or(0.0),
        peak_rss_mb: num("peak_rss_mb").unwrap_or(0.0),
        walls: doc
            .get("rep_wall_s")
            .and_then(Json::as_arr)
            .map(|v| v.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default(),
        attempted: num("attempted").unwrap_or(1.0) as u64,
        failed: num("failed").unwrap_or(1.0) as u64,
        errors: strings("errors"),
        goodput_mbps: num("goodput_mbps"),
        digest: doc.get("digest").and_then(Json::as_str).map(String::from),
        layers: doc
            .get("layers")
            .and_then(Json::as_obj)
            .map(|v| {
                v.iter()
                    .filter_map(|(k, x)| Some((k.clone(), x.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default(),
    }
}

/// A metric as the result line carries it.
fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// A statistic `value` of the sample `xs`, with the sample beside it:
/// count, median, quartiles, and p90 when at least ten samples lie beyond.
fn timing(value: f64, xs: &[f64], unit: &str) -> Json {
    let mut pairs = vec![
        ("value".to_string(), Json::Num(value)),
        ("unit".to_string(), Json::str(unit)),
        ("n".to_string(), Json::Num(xs.len() as f64)),
        ("median".to_string(), Json::Num(stats::median(xs))),
    ];
    if let Some([q1, _, q3]) = stats::quartiles(xs) {
        pairs.push(("q1".into(), Json::Num(q1)));
        pairs.push(("q3".into(), Json::Num(q3)));
    }
    if let Some(p90) = stats::tail_percentile(xs, 0.9) {
        pairs.push(("p90".into(), Json::Num(p90)));
    }
    Json::Obj(pairs)
}

fn parent(args: &RunArgs) -> Result<(), String> {
    // A traced run spends half its time untraced: tracing overhead is the
    // traced repetition against the untraced one, and the two digests must
    // agree (the wrappers do not perturb the simulation).
    let span_file = std::env::current_exe().ok().and_then(|exe| {
        let name = format!("trace_{}.json", args.workload);
        Some(exe.parent()?.join(name).to_string_lossy().into_owned())
    });
    let reports: Vec<(bool, Report)> = if args.traced {
        let half = args.seconds / 2.0;
        vec![
            (false, spawn_child(args, half, false, None)),
            (true, spawn_child(args, half, true, span_file.as_deref())),
        ]
    } else {
        let share = args.seconds / f64::from(CHILDREN);
        (0..CHILDREN)
            .map(|_| (false, spawn_child(args, share, false, None)))
            .collect()
    };

    let mut attempted: u64 = reports.iter().map(|(_, r)| r.attempted).sum();
    let mut failed: u64 = reports.iter().map(|(_, r)| r.failed).sum();
    let mut errors: Vec<String> = reports
        .iter()
        .flat_map(|(_, r)| r.errors.iter().cloned())
        .collect();
    // Same seed, same program: every child must reach the same result.
    let digest = reports[0].1.digest.clone();
    for (_, r) in &reports[1..] {
        if r.digest != digest {
            attempted += 1;
            failed += 1;
            errors.push(format!(
                "children disagree on the result: {:?} vs {:?}",
                r.digest, digest
            ));
        }
    }

    let untraced: Vec<&Report> = reports.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let walls: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.walls.iter().copied())
        .collect();
    let pick = |f: fn(&Report) -> f64| -> Vec<f64> { untraced.iter().map(|r| f(r)).collect() };
    let setups = pick(|r| r.setup_s);
    let rss = pick(|r| r.peak_rss_mb);
    let goodput = reports[0].1.goodput_mbps.unwrap_or(0.0);
    let end_to_end = metrics::END_TO_END.map(|(name, unit)| {
        let value = match name {
            "wall_s" => timing(stats::fast_half_mean(&walls), &walls, unit),
            "setup_s" => timing(stats::median(&setups), &setups, unit),
            "peak_rss_mb" => timing(stats::median(&rss), &rss, unit),
            _ => metric(goodput, unit),
        };
        (name, value)
    });

    let mut per_layer: Vec<(&str, Json)> = Vec::new();
    if let Some((_, traced)) = reports.iter().find(|(t, _)| *t) {
        let mut found: BTreeMap<&str, f64> = traced
            .layers
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        let base = stats::fast_half_mean(&walls);
        if let (Some(&t), true) = (found.get("traced_wall_s"), base > 0.0) {
            found.insert("trace_overhead_pct", 100.0 * (t / base - 1.0));
        }
        per_layer = metrics::PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, metric(found.get(name).copied().unwrap_or(0.0), unit)))
            .collect();
    }

    errors.truncate(8);
    let threads = if args.workload == "city_grid" {
        workloads::city_threads()
    } else {
        1
    };
    let record = Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.traced)),
        ("children", Json::Num(reports.len() as f64)),
        ("host", host::block(threads)),
        ("ops_attempted", Json::Num(attempted as f64)),
        ("ops_failed", Json::Num(failed as f64)),
        (
            "errors",
            Json::Arr(errors.iter().cloned().map(Json::Str).collect()),
        ),
        ("sim_digest", digest.map_or(Json::Null, Json::Str)),
        ("end_to_end", Json::obj(end_to_end.clone())),
        ("per_layer", Json::obj(per_layer.clone())),
        (
            "rep_wall_s",
            Json::Arr(reports.iter().map(|(_, r)| Json::nums(&r.walls)).collect()),
        ),
        (
            "span_file",
            match (&span_file, args.traced) {
                (Some(p), true) => Json::str(p),
                _ => Json::Null,
            },
        ),
    ]);
    println!("{record}");
    for e in &errors {
        eprintln!("failed: {e}");
    }
    if let Some(path) = &args.out {
        use std::io::Write;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"))
            .map_err(|e| format!("cannot append to {path}: {e}"))?;
    }

    // The result line: end-to-end metrics untraced, per-layer ones traced,
    // each as {value, unit} only.
    let strip = |m: &Json| {
        Json::obj([
            ("value", m.get("value").cloned().unwrap_or(Json::Null)),
            ("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
        ])
    };
    let shown: Vec<(&str, Json)> = if args.traced {
        per_layer.iter().map(|(k, m)| (*k, strip(m))).collect()
    } else {
        end_to_end.iter().map(|(k, m)| (*k, strip(m))).collect()
    };
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::obj(shown)),
        ])
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let got = cli(&[
            "--workload",
            "city_grid",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            got,
            Cli::Run(RunArgs {
                workload: "city_grid".into(),
                seed: 7,
                seconds: 10.0,
                traced: true,
                out: None,
            })
        );
    }

    #[test]
    fn defaults_come_from_the_contract() {
        let Cli::Run(run) = cli(&["--workload", "fig_sweep"]).unwrap() else {
            panic!("not a run");
        };
        assert_eq!(run.seed, 1);
        assert_eq!(run.seconds, metrics::run_seconds().unwrap() as f64);
        assert!(!run.traced);
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            &[][..],
            &["--workload"],
            &["--workload", "nope"],
            &["--workload", "fig_sweep", "--workload", "city_grid"],
            &["--workload", "fig_sweep", "--seed", "x"],
            &["--workload", "fig_sweep", "--seconds", "0"],
            &["--workload", "fig_sweep", "--seconds", "nan"],
            &["--workload", "fig_sweep", "--trace", "2"],
            &["--workload", "fig_sweep", "--bogus"],
            &["--compare", "a"],
            &["--compare", "a", "b", "--workload", "fig_sweep"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?} accepted");
        }
        assert_eq!(cli(&["--help"]).unwrap(), Cli::Help);
        assert_eq!(
            cli(&["--compare", "a", "b"]).unwrap(),
            Cli::Compare("a".into(), "b".into())
        );
    }
}
