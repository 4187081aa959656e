//! Quickstart: two independent APs jointly beamform two packets to two
//! clients on the same channel, end to end through the sample-level
//! simulator — oscillators drifting, real OFDM waveforms, real decoding.
//!
//! Run with: `cargo run --release --example quickstart`

use jmb::prelude::*;

fn main() {
    println!("JMB quickstart: 2 APs → 2 clients, one channel, concurrent packets\n");

    // Build a 2-AP / 2-client network at a 22 dB SNR band. Every node gets
    // its own USRP2-class oscillator (±2.5 ppm) — the APs do NOT share a
    // clock; that is the whole point.
    let cfg = NetConfig::default_with(2, 2, 22.0, 9);
    let mut net = JmbNetwork::new(cfg).expect("valid config");

    // Phase 1 (§5.1): the channel-measurement packet. Clients estimate the
    // joint channel matrix H; each slave AP stores its reference channel to
    // the lead.
    net.run_measurement().expect("measurement");
    println!("channel measured; each slave holds its reference to the lead");

    // Let the oscillators drift for a few milliseconds — long enough that
    // naive frequency-offset extrapolation would already have failed (§1:
    // 10 Hz of error is 0.35 rad after 5.5 ms).
    net.advance(4e-3);

    // Phase 2 (§5.2): a joint transmission. The lead sends a sync header;
    // the slave re-measures the lead channel, corrects its phase, and both
    // APs transmit concurrently. Each client decodes its own packet with a
    // completely standard OFDM receiver.
    let payloads = vec![
        b"hello client 0 - this packet arrived through joint beamforming".to_vec(),
        b"hello client 1 - sent at the same time on the same channel!!!!".to_vec(),
    ];
    let mcs = net.select_rate().unwrap_or(Mcs::BASE);
    println!("joint rate selected by effective SNR: {mcs}");
    let results = net
        .joint_transmit(&payloads, mcs, true)
        .expect("protocol ran");

    for (i, r) in results.iter().enumerate() {
        match r {
            Ok(rx) => println!(
                "client {i}: decoded {:?} (EVM {:.1} dB)",
                String::from_utf8_lossy(&rx.payload),
                rx.evm_db
            ),
            Err(e) => println!("client {i}: decode failed: {e}"),
        }
    }

    // The ablation: same network, corrections disabled. With the channel
    // matrix now several milliseconds stale, beamforming falls apart.
    net.advance(2e-3);
    let broken = net
        .joint_transmit(&payloads, mcs, false)
        .expect("protocol ran");
    let failures = broken.iter().filter(|r| r.is_err()).count();
    println!("\nwithout phase sync: {failures}/2 packets lost — \"the drift between their");
    println!("oscillators will make the signals rotate at different speeds … preventing");
    println!("beamforming\" (§1). Phase synchronization is the system.");
}
