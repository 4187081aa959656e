//! The spans a fast joint transmission records (DESIGN.md §3.9): a traced
//! 8 × 8 subset batch enters each of them — its clients in reverse order, a
//! restriction gathered from `H̃` (the whole array in order is solved from
//! `H̃` as it is, with no gather). The span table is process-wide,
//! so the test reads lower bounds, and it lives in a file of its own, where
//! no other test turns recording off under it.

use jmb_core::fastnet::{FastConfig, FastNet};

#[test]
fn a_subset_batch_enters_every_transmit_span() {
    let mut net = FastNet::new(FastConfig::default_with(8, 8, vec![20.0; 8], 43)).unwrap();
    net.run_measurement().unwrap();
    net.advance(1e-3);
    let (reversed, all): (Vec<usize>, Vec<usize>) = ((0..8).rev().collect(), (0..8).collect());
    jmb_obs::set_spans_enabled(true);
    let sent = net.joint_transmit_subset(&reversed, &all, 1500).is_ok();
    jmb_obs::set_spans_enabled(false);
    assert!(sent);
    let report = jmb_obs::span_report();
    let count = |name: &str| {
        report
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, s)| s.count)
    };
    for name in [
        "sync_pilot",
        "phase_correction",
        "zf_gather",
        "zf_precoder",
        "probe_gather",
        "probe_ramps",
        "probe_kernel",
        "eesm",
    ] {
        assert!(count(name) >= 1, "no {name} span");
    }
}
