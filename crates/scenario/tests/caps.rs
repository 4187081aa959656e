//! The count keys' ranges, pinned from both sides: one past the top is a
//! line-numbered refusal, and the top itself is a size the runner builds
//! and runs — on each backend, and as a city — in bounded time.

use jmb_scenario::{run_manifest, Manifest, RunOptions, ScenarioError};
use std::time::Instant;

fn single(backend: &str, aps: usize, clients: usize, limits: &str) -> String {
    format!(
        "version 1\nname cap\n[topology]\nkind single\naps {aps}\nclients {clients}\n\
         snr_db 22\n[channel]\nbackend {backend}\n[traffic]\narrival poisson 2000\n\
         packet fixed 300\nduration_s 0.004\ndrain_s 0.002\n[limits]\n{limits}\n"
    )
}

fn city(cols: usize, rows: usize, aps: usize, clients: usize) -> String {
    format!(
        "version 1\nname cap\n[topology]\nkind city\ncols {cols}\nrows {rows}\nreuse 3\n\
         aps_per_cell {aps}\nclients_per_cell {clients}\nspacing_m 30\nsnr_db 22\n\
         [traffic]\narrival poisson 200\npacket fixed 300\nduration_s 0.004\n"
    )
}

#[test]
fn one_past_each_cap_is_refused_at_its_line() {
    for (text, key) in [
        (single("fast", 11, 4, ""), "aps"),
        (single("fast", 4, 513, ""), "clients"),
        (city(17, 2, 2, 2), "cols"),
        (city(2, 17, 2, 2), "rows"),
        (city(2, 2, 11, 2), "aps_per_cell"),
        (city(2, 2, 2, 513), "clients_per_cell"),
    ] {
        let at = text.lines().position(|l| l.starts_with(key)).unwrap() + 1;
        match Manifest::parse(&text) {
            Err(ScenarioError::Parse { line, message }) => {
                assert_eq!(line, at, "{key}: {message}");
                assert!(message.contains("outside"), "{key}: {message}");
            }
            other => panic!("{key} one past its cap: {other:?}"),
        }
    }
}

/// Release-only (`scripts/check.sh` runs it): ten rendered waveforms per
/// frame are minutes in a debug build. The budgets are what was measured
/// when the caps were chosen (2 vCPUs), times ten.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: 10 x 10 on the sample backend is minutes in a debug build"
)]
fn each_cap_is_a_size_the_runner_builds_and_runs() {
    for (what, text, budget_s) in [
        (
            "fast 10 x 512",
            single("fast", 10, 512, "max_events 2000"),
            10.0,
        ),
        (
            "sample 10 x 10",
            single("sample", 10, 10, "max_events 40"),
            60.0,
        ),
        ("city 16 x 16 grid", city(16, 16, 1, 1), 10.0),
        ("city cell 10 x 512", city(1, 1, 10, 512), 10.0),
    ] {
        let m = Manifest::parse(&text).unwrap_or_else(|e| panic!("{what}: {e}"));
        let t0 = Instant::now();
        let out = run_manifest(&m, &RunOptions::default());
        let took = t0.elapsed().as_secs_f64();
        let out = out.unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(out.report.events > 0, "{what} did nothing");
        assert!(took < budget_s, "{what} took {took:.1} s");
        eprintln!("{what}: {took:.2} s, {} events", out.report.events);
    }
}
