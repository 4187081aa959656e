//! Adversarial schedule-perturbation determinism harness.

use std::fmt::Write as _;
use std::path::Path;

use crate::sweeps::{self, SweepSettings};
use crate::{bad, ctx, BenchError, Opts, Report};
use jmb_city::Reuse;
use jmb_core::experiment::SchedulePolicy;

/// Render the merged city registry in row order — `Registry::rows()` is
/// already deterministic (BTreeMap), so this is a pure formatting step.
fn registry_text(reg: &jmb_obs::Registry) -> String {
    let mut out = String::new();
    for (name, label, value) in reg.rows() {
        let _ = writeln!(out, "{name}|{label:?}|{value:?}");
    }
    out
}

/// Every artifact one (policy, threads) combo produces, as
/// `(file name, content)` — compared and written in this order.
fn run_combo(set: &SweepSettings, dir: &Path) -> Result<Vec<(&'static str, String)>, BenchError> {
    // Traffic quick sweep → one CSV.
    let tr = sweeps::traffic_sweep(set);
    let traffic_csv = sweeps::csv_text(&tr.header, &tr.rows);

    // Sync shootout → goodput CSV + phase CDF CSV.
    let sh = ctx(sweeps::sync_shootout(set), "sync_shootout pipeline")?;
    let shootout_csv = sweeps::csv_text(&sh.header, &sh.rows);
    let phase_csv = sweeps::csv_text(&sh.phase_header, &sh.phase_rows);

    // City point (one reuse factor keeps the matrix affordable) → CSV +
    // trace JSONL + merged registry dump.
    let trace_path = dir.join("city_trace.jsonl");
    let sink = ctx(sweeps::trace_sink(&trace_path), "open city trace")?;
    let mut rows = Vec::new();
    let report = ctx(
        sweeps::city_point(set, Reuse::Three, Some(sink), &mut rows),
        "run city",
    )?;
    let city_csv = sweeps::csv_text(&sweeps::city_header(), &rows);
    let registry_txt = registry_text(&report.registry);
    let trace_jsonl = ctx(std::fs::read_to_string(&trace_path), "read city trace")?;

    Ok(vec![
        ("traffic.csv", traffic_csv),
        ("shootout.csv", shootout_csv),
        ("shootout_phase.csv", phase_csv),
        ("city.csv", city_csv),
        ("city_trace.jsonl", trace_jsonl),
        ("registry.txt", registry_txt),
    ])
}

/// The workspace's determinism contract (DESIGN.md §3.15) says every sweep
/// artifact is byte-identical across runs, `--threads` settings, and — the
/// part nothing exercised before this harness — the *order in which
/// workers claim work*. `parallel_map` merges results by index, so claim
/// order cannot change output through the merge; but shared global state
/// (plan caches, thread-locals, lock contention paths) could still leak
/// execution order into values. This harness falsifies that by
/// construction: it re-runs the traffic, sync-shootout, and city quick
/// sweeps under a matrix of adversarial [`SchedulePolicy`] claim orders
/// (`--policies`) × thread counts (`--threads-list`, in place of
/// `--threads`) and byte-compares every artifact — CSVs, the city trace
/// JSONL, and the merged metrics registry — against the natural-order
/// baseline.
///
/// A deterministic race detector, in effect: a real race may or may not
/// fire under the thread scheduler CI happens to get, but a claim-order
/// dependence *always* shows up as a byte diff here.
///
/// Every combo's artifacts land in `<--out>/det_harness/<policy>-t<N>/`
/// for CI artifact upload; any mismatch is a failed acceptance property.
pub fn det_harness(opts: &Opts) -> Result<Report, BenchError> {
    if opts.set.threads.is_some() {
        return Err(bad("det_harness sweeps --threads-list, not --threads"));
    }
    let policies = opts.list("--policies", SchedulePolicy::from_token)?;
    let policies = policies.unwrap_or_else(|| {
        vec![
            SchedulePolicy::Natural,
            SchedulePolicy::Reversed,
            SchedulePolicy::RandomPermutation(0x5EED),
        ]
    });
    let threads = opts.list("--threads-list", |t| t.parse::<usize>().ok())?;
    let threads = threads.unwrap_or_else(|| vec![1, 4]);
    let root = opts.out_dir.join("det_harness");

    let combos: Vec<(SchedulePolicy, usize)> = policies
        .iter()
        .flat_map(|&p| threads.iter().map(move |&t| (p, t)))
        .collect();
    println!(
        "det_harness: {} combo(s) — policies [{}] × threads {:?}{}",
        combos.len(),
        policies
            .iter()
            .map(|p| p.token())
            .collect::<Vec<_>>()
            .join(","),
        threads,
        if opts.set.quick { " (quick)" } else { "" }
    );

    let mut baseline: Option<(String, Vec<(&'static str, String)>)> = None;
    let mut report = Report::default();
    for (policy, threads) in combos {
        let tag = format!("{}-t{}", policy.token(), threads);
        let dir = root.join(&tag);
        ctx(std::fs::create_dir_all(&dir), "create artifact dir")?;
        let set = SweepSettings {
            threads: Some(threads),
            schedule: policy,
            ..opts.set
        };
        let files = run_combo(&set, &dir)?;
        for (name, content) in &files {
            ctx(std::fs::write(dir.join(name), content), "write artifact")?;
        }
        let Some((base_tag, base)) = &baseline else {
            println!("  {tag}: baseline ({} artifacts)", files.len());
            baseline = Some((tag, files));
            continue;
        };
        let mut combo_ok = true;
        for ((name, content), (_, base_content)) in files.iter().zip(base) {
            if content != base_content {
                combo_ok = false;
                let diff_lines = content
                    .lines()
                    .zip(base_content.lines())
                    .filter(|(a, b)| a != b)
                    .count()
                    + content
                        .lines()
                        .count()
                        .abs_diff(base_content.lines().count());
                report.failures.push(format!(
                    "{tag}/{name}: differs from {base_tag}/{name} ({diff_lines} line(s))"
                ));
            }
        }
        println!(
            "  {tag}: {}",
            if combo_ok {
                "byte-identical to baseline"
            } else {
                "MISMATCH (see diff artifacts)"
            }
        );
    }

    if report.failures.is_empty() {
        println!("det_harness: PASS — every artifact byte-identical across the schedule matrix");
    } else {
        println!(
            "det_harness: FAIL — claim-order dependence detected; artifacts for all combos \
             are under {}",
            root.display()
        );
    }
    Ok(report)
}
