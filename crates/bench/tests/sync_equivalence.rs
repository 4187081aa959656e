//! The refactor safety contract for pluggable sync strategies: with the
//! default `JmbLeadSlave` backend, every sweep experiment's output is
//! byte-identical to the pre-refactor network.
//!
//! Golden fixtures under `tests/fixtures/` were blessed from the commit
//! *before* the `SyncStrategy` extraction (and verified against the
//! experiments' own `--out`/`--trace-out` files with `cmp`). These tests
//! re-run the exact row-generation pipelines `jmb-bench` ships
//! ([`jmb_bench::sweeps`]) and compare bytes. Any behavioural drift in the
//! default sync path — one extra RNG draw, one reordered estimate — shows
//! up as a first-differing-line diagnostic here.
//!
//! To re-bless after an *intentional* behaviour change:
//! `JMB_BLESS=1 cargo test --release -p jmb-bench --test sync_equivalence`.
//!
//! The full-sweep tests are ignored in debug builds (they run whole
//! traffic simulations; debug-mode cost is minutes on one core) —
//! `scripts/check.sh` (and so CI's `check` job) runs them in release, where
//! the three together take seconds.

use jmb_bench::sweeps::{self, SweepSettings};
use jmb_core::net::NetConfig;
use jmb_sim::{FaultConfig, FaultSchedule};
use jmb_traffic::{ApOutage, ClientLoad, SampleBackend, TrafficConfig, TrafficSim};
use std::path::{Path, PathBuf};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compares `actual` against the named fixture byte-for-byte, or writes
/// the fixture when `JMB_BLESS` is set. On mismatch, reports the first
/// differing line so the drifting draw is locatable.
fn check_fixture(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var("JMB_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("blessed {name} ({} bytes)", actual.len());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {name} unreadable ({e}); bless with JMB_BLESS=1"));
    if expected == actual {
        return;
    }
    for (line, (e, a)) in (1usize..).zip(expected.lines().zip(actual.lines())) {
        if e != a {
            panic!(
                "{name} drifted from the pre-refactor fixture at line {line}:\n  \
                 fixture: {e}\n  actual : {a}\n\
                 (JmbLeadSlave must stay bit-exact; re-bless only for intentional changes)"
            );
        }
    }
    panic!(
        "{name} drifted from the pre-refactor fixture: line counts differ \
         (fixture {} lines, actual {} lines)",
        expected.lines().count(),
        actual.lines().count()
    );
}

fn quick_settings() -> SweepSettings {
    SweepSettings {
        seed: 1,
        quick: true,
        threads: None,
        schedule: jmb_core::experiment::SchedulePolicy::Natural,
    }
}

/// Runs a trace-writing pipeline into a temp file and returns the bytes.
fn trace_to_string(f: impl FnOnce(&Path)) -> String {
    let path = std::env::temp_dir().join(format!(
        "jmb_sync_equivalence_{}_{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    f(&path);
    let text = std::fs::read_to_string(&path).expect("trace file");
    let _ = std::fs::remove_file(&path);
    text
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full quick sweep; run in release")]
fn traffic_sweep_quick_is_byte_identical() {
    let set = quick_settings();
    let out = sweeps::traffic_sweep(&set);
    check_fixture(
        "traffic_sweep.quick.csv",
        &sweeps::csv_text(&out.header, &out.rows),
    );
    let trace = trace_to_string(|p| sweeps::traffic_failover_trace(&set, p).expect("trace"));
    check_fixture("traffic_failover.quick.jsonl", &trace);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full quick sweep; run in release")]
fn robustness_sweep_quick_is_byte_identical() {
    let set = quick_settings();
    let out = sweeps::robustness_sweep(&set);
    check_fixture(
        "robustness_sweep.quick.csv",
        &sweeps::csv_text(&out.header, &out.rows),
    );
    let trace = trace_to_string(|p| sweeps::robustness_storm_trace(&set, p).expect("trace"));
    check_fixture("robustness_storm.quick.jsonl", &trace);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full quick sweep; run in release")]
fn city_sweep_quick_is_byte_identical() {
    let set = quick_settings();
    let mut rows = Vec::new();
    for reuse in jmb_city::Reuse::ALL {
        sweeps::city_point(&set, reuse, None, &mut rows).expect("city point");
    }
    check_fixture(
        "city_sweep.quick.csv",
        &sweeps::csv_text(&sweeps::city_header(), &rows),
    );
}

/// The sweep rows must not depend on the worker-thread count (the CI jobs
/// byte-compare `--threads 1` vs `--threads 4`; this is the in-process
/// version of that check for the smallest pipeline).
#[test]
#[cfg_attr(debug_assertions, ignore = "full quick sweep; run in release")]
fn rows_identical_across_thread_counts() {
    let mut one = quick_settings();
    one.threads = Some(1);
    let mut four = quick_settings();
    four.threads = Some(4);
    let a = sweeps::robustness_sweep(&one);
    let b = sweeps::robustness_sweep(&four);
    assert_eq!(
        sweeps::csv_text(&a.header, &a.rows),
        sweeps::csv_text(&b.header, &b.rows)
    );
}

/// The sample-level twin of the pins above: one 2x2 `SampleBackend` cell
/// (seed 1) through a window in which slave 1 misses every sync header and
/// a lead outage, recorded from the commit before `JmbNetwork` moved onto
/// the shared `SyncStrategy`. Every batch is a `joint_transmit_masked`, so
/// the trace and the metrics row pin its default-strategy path — fallback,
/// degradation, the lead-down rule and restoration — byte for byte. Short
/// enough (40 ms of traffic) to run in debug builds too.
#[test]
fn sample_backend_cell_is_byte_identical() {
    let mut backend = SampleBackend::new(NetConfig::default_with(2, 2, 22.0, 1)).expect("backend");
    let storm = FaultConfig::builder()
        .per_slave_sync_loss(1, 1.0)
        .build()
        .expect("valid");
    backend.net_mut().set_fault_schedule(
        FaultSchedule::none()
            .with_window(0.010, 0.020, storm)
            .expect("valid window"),
    );
    let mut cfg = TrafficConfig::default_with(vec![ClientLoad::poisson(1500.0, 300); 2], 1);
    cfg.duration_s = 0.04;
    cfg.drain_timeout_s = 0.02;
    cfg.outages = vec![ApOutage {
        ap: 0,
        down_at_s: 0.028,
        up_at_s: 0.034,
    }];
    let mut sim = TrafficSim::new(cfg, backend).expect("sim");
    let mut row = String::new();
    let trace = trace_to_string(|p| {
        sim.trace.enable();
        sim.trace.set_buffering(false);
        sim.trace.attach_sink(sweeps::trace_sink(p).expect("sink"));
        row = sim.run().csv_row().join(",");
        sim.trace.flush();
    });
    check_fixture("sample_cell.jsonl", &trace);
    check_fixture("sample_cell.csv", &format!("{row}\n"));
}
