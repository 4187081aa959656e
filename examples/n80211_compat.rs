//! Off-the-shelf 802.11n compatibility (§6): two 2-antenna APs combine into
//! a distributed 4×4 MIMO system serving two unmodified 2-antenna clients,
//! using the legacy-preamble sync header and the reference-antenna channel
//! stitching of §6.2. `CompatNet` is the same protocol network as the other
//! fidelities, so its measurement is the ordinary `run_measurement`.
//!
//! Run with: `cargo run --release --example n80211_compat`

use jmb::prelude::*;

fn main() {
    println!("802.11n compatibility: 2× (2-antenna AP) → 2× (2-antenna client)\n");
    let mut gains = Vec::new();
    for seed in 0..6u64 {
        let cfg = CompatConfig::default_with(22.0, seed);
        let mut net = CompatNet::new(cfg).expect("valid");
        // §6.2: a series of two-stream soundings, each containing the
        // reference antenna, stitched to one common-time 4×4 snapshot.
        net.run_measurement().expect("stitching");
        net.advance(2e-3);
        let jmb: f64 = net.jmb_throughput(1500).expect("joint").iter().sum();
        let dot: f64 = net.dot11n_throughput(1500).iter().sum();
        println!(
            "run {seed}: JMB 4x4 {:>6.1} Mbps   802.11n TDMA {:>6.1} Mbps   gain {:.2}x",
            jmb / 1e6,
            dot / 1e6,
            jmb / dot
        );
        gains.push(jmb / dot);
    }
    println!(
        "\nmean gain {:.2}x (paper: 1.67-1.83x, theoretical max 2x).",
        jmb::dsp::stats::mean(&gains)
    );
    println!("No client modification needed: the clients run plain 802.11n CSI feedback.");
}
