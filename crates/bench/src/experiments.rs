//! The experiment table and the code behind each row.

mod det_harness;
mod figures;
mod sweep_runs;

use crate::{BenchError, Experiment, Flag, Opts, Report, TRACE_OUT};

/// A row of the `all` group: no flags of its own, pinned by `results/`.
const fn figure(
    name: &'static str,
    tag: &'static str,
    title: &'static str,
    run: fn(&Opts) -> Result<Report, BenchError>,
) -> Experiment {
    Experiment {
        name,
        tag,
        title,
        in_all: true,
        flags: &[],
        run,
    }
}

/// A row outside `all`, labelled by its own name.
const fn tool(
    name: &'static str,
    title: &'static str,
    flags: &'static [Flag],
    run: fn(&Opts) -> Result<Report, BenchError>,
) -> Experiment {
    Experiment {
        name,
        tag: name,
        title,
        in_all: false,
        flags,
        run,
    }
}

/// Every experiment `jmb-bench` can run. `jmb-bench all` runs the
/// `in_all` rows in this order.
pub const EXPERIMENTS: &[Experiment] = &[
    figure(
        "fig00_drift_motivation",
        "fig00",
        "naive extrapolation vs direct measurement",
        figures::fig00_drift_motivation,
    ),
    figure(
        "fig06_misalignment",
        "fig06",
        "SNR reduction vs phase misalignment",
        figures::fig06_misalignment,
    ),
    figure(
        "fig07_misalignment_cdf",
        "fig07",
        "CDF of achieved phase misalignment",
        figures::fig07_misalignment_cdf,
    ),
    figure(
        "fig08_inr_scaling",
        "fig08",
        "INR vs number of AP-client pairs",
        figures::fig08_inr_scaling,
    ),
    figure(
        "fig09_throughput_scaling",
        "fig09",
        "throughput scaling with the number of APs",
        figures::fig09_throughput_scaling,
    ),
    figure(
        "fig10_fairness",
        "fig10",
        "per-client gain CDFs",
        figures::fig10_fairness,
    ),
    figure(
        "fig11_diversity",
        "fig11",
        "diversity throughput vs SNR",
        figures::fig11_diversity,
    ),
    figure(
        "fig12_compat_throughput",
        "fig12",
        "802.11n-compat throughput per band",
        figures::fig12_compat_throughput,
    ),
    figure(
        "fig13_compat_fairness",
        "fig13",
        "CDF of 802.11n-compat gain",
        figures::fig13_compat_fairness,
    ),
    figure(
        "ablation_phase_sync",
        "ablation",
        "throughput with phase sync disabled",
        figures::ablation_phase_sync,
    ),
    figure(
        "ablation_interleaving",
        "ablation",
        "interleaved vs sequential measurement slots",
        figures::ablation_interleaving,
    ),
    tool(
        "traffic_sweep",
        "goodput/latency vs offered load, AP count, and failover",
        &[TRACE_OUT],
        sweep_runs::traffic_sweep,
    ),
    tool(
        "robustness_sweep",
        "goodput vs control-frame loss (graceful degradation)",
        &[TRACE_OUT],
        sweep_runs::robustness_sweep,
    ),
    tool(
        "city_sweep",
        "area capacity vs frequency-reuse factor",
        &[
            TRACE_OUT,
            Flag {
                name: "--reuse",
                arg: "LIST",
                help: "comma-separated reuse factors from {1,3,7} (default 1,3,7)",
            },
        ],
        sweep_runs::city_sweep,
    ),
    tool(
        "sync_shootout",
        "pluggable sync backends: phase error, control overhead, storms",
        &[],
        sweep_runs::sync_shootout,
    ),
    tool(
        "det_harness",
        "every sweep artifact byte-compared across claim orders and thread counts",
        &[
            Flag {
                name: "--policies",
                arg: "LIST",
                help: "claim orders from natural|reversed|strided[:K]|random[:SEED]|starve \
                       (default natural,reversed,random)",
            },
            Flag {
                name: "--threads-list",
                arg: "LIST",
                help: "comma-separated worker counts (default 1,4)",
            },
        ],
        det_harness::det_harness,
    ),
];
