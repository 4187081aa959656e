//! The metric names the benchmark emits, and what `BENCHMARK.json` says
//! about them. The two are checked against each other by a test.

use crate::json::Json;

/// `BENCHMARK.json`, as committed at the repo root.
pub const CONTRACT: &str = include_str!("../../../../BENCHMARK.json");

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_goodput_mbps", "Mb/s"),
];

/// Per-layer metrics: `(name, unit)`. A workload that bypasses a layer
/// reports 0 for it.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("traffic.loop_self_ms", "ms"),
    ("traffic.events", "count"),
    ("traffic.events_per_s", "1/s"),
    ("traffic.sim_new_ms", "ms"),
    ("core.fast.backend_new_ms", "ms"),
    ("core.fast.transmit_calls", "count"),
    ("core.fast.transmit_us", "us"),
    ("core.fast.transmit_p99_us", "us"),
    ("core.fast.advance_ms", "ms"),
    ("core.fast.acked_ratio", "ratio"),
    ("core.fast.cell_new_us", "us"),
    ("core.fastnet.new_us.n10", "us"),
    ("core.fastnet.measure_us.n10", "us"),
    ("core.fastnet.joint_tx_us.n10", "us"),
    ("core.fastnet.baseline_snr_us.n10", "us"),
    ("core.fastnet.joint_tx_allocs.n10", "count"),
    ("core.zf.calls", "count"),
    ("core.zf.total_ms", "ms"),
    ("core.experiment.topologies_per_s", "1/s"),
    ("core.net.backend_new_ms", "ms"),
    ("core.net.transmit_calls", "count"),
    ("core.net.transmit_ms", "ms"),
    ("core.net.transmit_share_pct", "%"),
    ("core.net.acked_ratio", "ratio"),
    ("sim.render_rx_us_per_ksample", "us"),
    ("sim.render_rx_allocs", "count"),
    ("phy.tx_frame_us", "us"),
    ("phy.synchronize_us", "us"),
    ("phy.correct_cfo_us", "us"),
    ("phy.rx_frame_us", "us"),
    ("phy.viterbi_us", "us"),
    ("phy.rx_frame_allocs", "count"),
    ("dsp.fft_fwd.calls", "count"),
    ("dsp.fft_inv.calls", "count"),
    ("dsp.fft64_ns", "ns"),
    ("dsp.zf_gram_us", "us"),
    ("channel.topology_draw_us", "us"),
    ("channel.freq_response_us", "us"),
    ("channel.link_evolve_us", "us"),
    ("obs.events", "count"),
    ("obs.sink_ms", "ms"),
    ("obs.sink_ns_per_event", "ns"),
    ("city.new_ms", "ms"),
    ("city.run_t1_s", "s"),
    ("city.cell_epoch_us", "us"),
    ("city.scaling_eff", "ratio"),
    ("city.cpu_s", "s"),
    ("city.construction_share", "ratio"),
    ("allocs_per_rep", "count"),
    ("alloc_mb_per_rep", "MiB"),
    ("traced_wall_s", "s"),
    ("traced_reps", "count"),
    ("trace_overhead_pct", "%"),
    ("residue_pct", "%"),
];

/// One end-to-end metric as the contract declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The contract's `run_seconds`.
pub fn run_seconds() -> Result<u64, String> {
    let doc = Json::parse(CONTRACT)?;
    doc.get("run_seconds")
        .and_then(Json::as_f64)
        .map(|s| s as u64)
        .ok_or_else(|| "BENCHMARK.json: no run_seconds".to_string())
}

/// The contract's end-to-end metrics.
pub fn declared_end_to_end() -> Result<Vec<Declared>, String> {
    let doc = Json::parse(CONTRACT)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    list.iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Some(Declared {
                name: s("name")?,
                unit: s("unit")?,
                lower_is_better: s("better")? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    fn names_of(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn contract_and_binary_name_the_same_metrics_and_workloads() {
        let doc = Json::parse(CONTRACT).unwrap();
        assert_eq!(names_of(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names_of(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = names_of(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, NAMES);
        let declared = declared_end_to_end().unwrap();
        assert!(declared
            .iter()
            .all(|d| d.bound > 0.0 && d.bound <= 0.25 && !d.name.is_empty()));
        assert!(declared
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.lower_is_better));
        assert!((1..=60).contains(&run_seconds().unwrap()));
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let metrics = END_TO_END.iter().chain(PER_LAYER.iter());
        for (name, unit) in metrics.copied().chain(NAMES.iter().map(|&n| (n, "x"))) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
    }
}
