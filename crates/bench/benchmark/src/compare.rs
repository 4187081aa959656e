//! Reading back files of full records (`--out`): the spread of one
//! commit's runs, and one commit's medians against another's and the
//! bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::metrics::{declared_end_to_end, Declared};
use crate::stats;
use std::collections::BTreeMap;

/// `workload → metric → one value per record`, plus each workload's digests.
#[derive(Debug, Default, PartialEq)]
pub struct Runs {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    digests: BTreeMap<String, Vec<(u64, String)>>,
}

/// Collects the end-to-end values of every record in `text` (one JSON
/// object per line; lines that are not records are skipped).
pub fn collect(text: &str) -> Runs {
    let mut runs = Runs::default();
    for doc in text.lines().filter_map(|l| Json::parse(l).ok()) {
        let (Some(workload), Some(metrics)) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("end_to_end").and_then(Json::as_obj),
        ) else {
            continue;
        };
        // A traced record spends half its run untraced; only full untraced
        // runs are compared.
        if doc.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let by_metric = runs.values.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                by_metric.entry(name.clone()).or_default().push(v);
            }
        }
        if let (Some(seed), Some(digest)) = (
            doc.get("seed").and_then(Json::as_f64),
            doc.get("sim_digest").and_then(Json::as_str),
        ) {
            runs.digests
                .entry(workload.to_string())
                .or_default()
                .push((seed as u64, digest.to_string()));
        }
    }
    runs
}

fn read(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let runs = collect(&text);
    if runs.values.is_empty() {
        return Err(format!("{path}: no untraced records"));
    }
    Ok(runs)
}

/// Prints, per workload × end-to-end metric, the median, quartiles and
/// spread (interquartile range over median) of the records in `path`.
pub fn summary(path: &str) -> Result<(), String> {
    let runs = read(path)?;
    let declared = declared_end_to_end()?;
    println!(
        "{:<14} {:<17} {:>3} {:>12} {:>12} {:>12} {:>8} {:>6}  note",
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"
    );
    for (workload, by_metric) in &runs.values {
        for d in &declared {
            let Some(xs) = by_metric.get(&d.name) else {
                continue;
            };
            let q = stats::quartiles(xs).unwrap_or([xs[0]; 3]);
            let spread = stats::iqr_share(xs).unwrap_or(0.0);
            let note = if spread > d.bound {
                "spread above the bound"
            } else if spread > d.bound / 3.0 {
                "spread above a third of the bound"
            } else {
                "steady"
            };
            println!(
                "{workload:<14} {:<17} {:>3} {:>12.5} {:>12.5} {:>12.5} {:>7.2}% {:>5.0}%  {note}",
                d.name,
                xs.len(),
                stats::median(xs),
                q[0],
                q[2],
                100.0 * spread,
                100.0 * d.bound
            );
        }
    }
    Ok(())
}

/// How one metric of one workload moved from parent to change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    /// The change's median is worse than the parent's by more than the bound.
    Regressed,
    /// Within the bound, but the runs spread wider than the bound and do
    /// not separate: this comparison cannot tell.
    Unresolved,
}

/// Share by which `change` is worse than `parent` (negative: better).
fn worse_by(d: &Declared, parent: f64, change: f64) -> f64 {
    let delta = if d.lower_is_better {
        change - parent
    } else {
        parent - change
    };
    delta / parent.abs().max(f64::MIN_POSITIVE)
}

/// The verdict for one metric given both sides' runs.
pub fn verdict(d: &Declared, parent: &[f64], change: &[f64]) -> (f64, Verdict) {
    let (mp, mc) = (stats::median(parent), stats::median(change));
    let worse = worse_by(d, mp, mc);
    if worse > d.bound {
        return (worse, Verdict::Regressed);
    }
    let iqr = |xs: &[f64]| stats::quartiles(xs).map_or(0.0, |q| q[2] - q[0]);
    let spread = iqr(parent).max(iqr(change)) / mp.abs().max(f64::MIN_POSITIVE);
    let separated = parent
        .iter()
        .all(|&p| change.iter().all(|&c| worse_by(d, p, c) < 0.0));
    if spread > d.bound && !separated {
        (worse, Verdict::Unresolved)
    } else {
        (worse, Verdict::Ok)
    }
}

/// Prints one row per workload × end-to-end metric; `Ok(true)` when any
/// row regressed.
pub fn compare(parent_path: &str, change_path: &str) -> Result<bool, String> {
    let (parent, change) = (read(parent_path)?, read(change_path)?);
    let declared = declared_end_to_end()?;
    let mut regressed = false;
    println!(
        "{:<14} {:<17} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "change", "worse", "bound"
    );
    for (workload, p_metrics) in &parent.values {
        let Some(c_metrics) = change.values.get(workload) else {
            println!("{workload:<14} (no records in {change_path})");
            continue;
        };
        for d in &declared {
            let (Some(p), Some(c)) = (p_metrics.get(&d.name), c_metrics.get(&d.name)) else {
                continue;
            };
            let (worse, v) = verdict(d, p, c);
            regressed |= v == Verdict::Regressed;
            println!(
                "{workload:<14} {:<17} {:>12.5} {:>12.5} {:>+7.2}% {:>5.0}%  {}",
                d.name,
                stats::median(p),
                stats::median(c),
                100.0 * worse,
                100.0 * d.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // The simulated result, byte for byte, wherever both sides ran
        // the same seed.
        let theirs: BTreeMap<u64, &str> = change
            .digests
            .get(workload)
            .map(|v| v.iter().map(|(s, d)| (*s, d.as_str())).collect())
            .unwrap_or_default();
        let ours = parent.digests.get(workload).map_or(&[][..], |v| v);
        let shared = ours.iter().filter(|(s, _)| theirs.contains_key(s)).count();
        let differ = ours
            .iter()
            .filter(|(s, d)| theirs.get(s).is_some_and(|t| t != d))
            .count();
        println!(
            "{workload:<14} sim_digest        {differ} of {shared} shared seeds differ{}",
            if differ > 0 {
                "  <- the simulated result changed"
            } else {
                ""
            }
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "wall_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let d = lower(0.10);
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        // Worse by 20 %: regressed.
        let slow = [1.2, 1.21, 1.19, 1.2, 1.22];
        assert_eq!(verdict(&d, &steady, &slow).1, Verdict::Regressed);
        // Within the bound and steady: ok.
        let same = [1.03, 1.02, 1.04, 1.03, 1.01];
        assert_eq!(verdict(&d, &steady, &same).1, Verdict::Ok);
        // Within the bound but spread wider than it: cannot tell.
        let noisy = [0.8, 1.3, 1.0, 0.7, 1.25];
        assert_eq!(verdict(&d, &steady, &noisy).1, Verdict::Unresolved);
        // Wide spread, yet every run of the change beats every parent run.
        let wide_parent = [2.0, 2.6, 2.2, 3.0, 2.4];
        let better = [1.0, 1.4, 1.1, 1.3, 1.2];
        assert_eq!(verdict(&d, &wide_parent, &better).1, Verdict::Ok);
        // Higher-is-better flips the sign.
        let up = Declared {
            lower_is_better: false,
            ..lower(0.05)
        };
        assert_eq!(verdict(&up, &[100.0; 3], &[90.0; 3]).1, Verdict::Regressed);
        assert_eq!(verdict(&up, &[100.0; 3], &[110.0; 3]).1, Verdict::Ok);
    }

    #[test]
    fn collects_untraced_records_only() {
        let line = |w: &str, trace: bool, wall: f64| {
            format!(
                "{{\"workload\": \"{w}\", \"seed\": 3, \"trace\": {trace}, \"sim_digest\": \"ab\", \
                 \"end_to_end\": {{\"wall_s\": {{\"value\": {wall}, \"unit\": \"s\"}}}}}}"
            )
        };
        let text = [
            line("fig_sweep", false, 1.0),
            "not json".to_string(),
            line("fig_sweep", true, 9.0),
            line("fig_sweep", false, 2.0),
        ]
        .join("\n");
        let runs = collect(&text);
        assert_eq!(runs.values["fig_sweep"]["wall_s"], vec![1.0, 2.0]);
        assert_eq!(runs.digests["fig_sweep"].len(), 2);
    }
}
