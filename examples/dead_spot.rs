//! Rescuing a dead spot with coherent diversity (§8, Fig. 11).
//!
//! A client whose SNR is ~0 dB gets *nothing* from 802.11. With JMB, all
//! APs beamform the same packet coherently — an up-to-N² power gain — and
//! the dead spot comes alive.
//!
//! Run with: `cargo run --release --example dead_spot`

use jmb::core::baseline;
use jmb::prelude::*;

fn main() {
    println!("Dead spot: one client at ~2 dB to every AP\n");
    let params = OfdmParams::default();
    println!("APs   802.11 Mbps   JMB diversity Mbps");
    for n_aps in [2usize, 4, 6, 8, 10] {
        let mut cfg = FastConfig::default_with(n_aps, 1, vec![2.0], 11 + n_aps as u64);
        cfg.ap_spread_db = 2.0; // "roughly similar SNRs to all APs" (§11.4)
        let mut net = FastNet::new(cfg).expect("valid");
        net.run_measurement().expect("measurement");
        net.advance(1e-3);

        let base_snrs = net.baseline_snr(0).expect("baseline");
        let dot11 = baseline::dot11_client_throughput(&params, &base_snrs, 1, 1500);

        let div_snrs = net.diversity_snr(0).expect("diversity");
        let over = baseline::JmbOverheads::new(&params, 1e-3, 0.25).with_aggregation(4);
        let jmb = match jmb::phy::esnr::select_mcs(&div_snrs) {
            Some(mcs) => baseline::jmb_client_throughput(&params, mcs, &div_snrs, 1500, &over),
            None => 0.0,
        };
        println!("{n_aps:>3}   {:>11.2}   {:>18.2}", dot11 / 1e6, jmb / 1e6);
    }
    println!("\n\"a client that has 0 dB channels to all APs cannot get any throughput");
    println!("with 802.11. However … with 10 APs, such a client can achieve a");
    println!("throughput of 21 Mbps\" (§11.4). Diversity expands coverage range.");
}
