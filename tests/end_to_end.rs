//! Workspace integration: the full JMB story over the sample-level
//! simulator, including the link layer and fault injection.

use jmb::core::mac::PacketFate;
use jmb::prelude::*;

fn payloads(n: usize, len: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|j| (0..len).map(|i| (i * 31 + j * 7 + 3) as u8).collect())
        .collect()
}

#[test]
fn headline_two_aps_two_clients() {
    // The paper's Fig. 1(b): two APs, one channel, two concurrent packets.
    let cfg = NetConfig::default_with(2, 2, 22.0, 9);
    let mut net = JmbNetwork::new(cfg).unwrap();
    net.run_measurement().unwrap();
    net.advance(4e-3);
    let data = payloads(2, 120);
    let mcs = net.select_rate().expect("usable rate");
    let results = net.joint_transmit(&data, mcs, true).unwrap();
    for (j, r) in results.iter().enumerate() {
        assert_eq!(r.as_ref().expect("decode").payload, data[j], "client {j}");
    }
}

#[test]
fn mac_driven_delivery_with_losses() {
    // Run the shared-queue MAC over the sample-level network with fault
    // injection: dropped joint transmissions must be retransmitted and all
    // packets eventually delivered (§9: packets stay queued until ACKed).
    let cfg = NetConfig::default_with(2, 2, 22.0, 9);
    let mut net = JmbNetwork::new(cfg).unwrap();
    net.run_measurement().unwrap();
    let drops = jmb::sim::FaultConfig::builder().drop_chance(0.2).build();
    net.medium_mut()
        .set_fault_schedule(jmb::sim::FaultSchedule::constant(drops.unwrap()));

    let mut mac = JmbMac::new(MacConfig::default(), vec![0, 1]);
    for round in 0..4 {
        mac.enqueue(0, 60 + round, 0.0);
        mac.enqueue(1, 90 + round, 0.0);
    }
    let mcs = net.select_rate().unwrap_or(Mcs::BASE);
    // The caller's ledger, from the fates each completed batch returns.
    let (mut delivered_bits, mut dropped, mut transmissions) = ([0.0; 2], [0u64; 2], 0);
    let mut guard = 0;
    while mac.queue_len() > 0 && guard < 60 {
        guard += 1;
        net.advance(1e-3);
        let (batch, padded_len) = mac.select_batch();
        if batch.is_empty() {
            break;
        }
        // The queue carries lengths; the bytes are rendered here, one
        // payload per client at the batch's padded length (an absent
        // client gets a padding packet the MAC would normally skip).
        let per_client = payloads(2, padded_len);
        let results = net.joint_transmit(&per_client, mcs, true).unwrap();
        let acked: Vec<bool> = batch.iter().map(|p| results[p.dest].is_ok()).collect();
        transmissions += 1;
        for fate in mac.complete_batch(batch, &acked) {
            match fate {
                PacketFate::Acked {
                    dest, payload_len, ..
                } => delivered_bits[dest] += 8.0 * payload_len as f64,
                PacketFate::Dropped { dest, .. } => dropped[dest] += 1,
                PacketFate::Requeued { .. } => {}
            }
        }
    }
    assert_eq!(mac.queue_len(), 0, "queue should drain");
    assert_eq!(dropped, [0, 0], "no packet abandoned");
    assert!(delivered_bits.iter().all(|&bits| bits > 0.0));
    assert!(
        transmissions >= 8,
        "with 20% drops, retransmissions must have happened ({transmissions} tx)"
    );
}

#[test]
fn phase_sync_is_necessary() {
    // The central ablation at workspace level.
    let cfg = NetConfig::default_with(3, 3, 22.0, 7);
    let mut net = JmbNetwork::new(cfg).unwrap();
    net.run_measurement().unwrap();
    net.advance(3e-3);
    let data = payloads(3, 80);
    let ok = net
        .joint_transmit(&data, Mcs::ALL[1], true)
        .unwrap()
        .iter()
        .filter(|r| r.is_ok())
        .count();
    let broken = net
        .joint_transmit(&data, Mcs::ALL[1], false)
        .unwrap()
        .iter()
        .filter(|r| r.is_ok())
        .count();
    assert!(ok > broken, "sync {ok}/3 vs no-sync {broken}/3");
    assert_eq!(ok, 3);
}

#[test]
fn measurement_amortised_across_coherence_time() {
    // One measurement, many packets over tens of milliseconds (§5: channels
    // only need re-measuring on the order of the coherence time). Stated
    // over eight deployments: one cell's 16 packets sit within a packet of
    // any bar worth setting, so a single seed tests the seed.
    let mut delivered = 0;
    let mut total = 0;
    for seed in 1..=8 {
        let cfg = NetConfig::default_with(2, 2, 20.0, seed);
        let mut net = JmbNetwork::new(cfg).unwrap();
        net.run_measurement().unwrap();
        let data = payloads(2, 60);
        let mcs = net.select_rate().unwrap_or(Mcs::BASE);
        for _ in 0..8 {
            net.advance(5e-3); // 40 ms total — many naive-extrapolation lifetimes
            for r in net.joint_transmit(&data, mcs, true).unwrap() {
                total += 1;
                if r.is_ok() {
                    delivered += 1;
                }
            }
        }
    }
    assert!(
        delivered * 10 >= total * 9,
        "delivery {delivered}/{total} under one measurement per cell"
    );
}

#[test]
fn diversity_rescues_weak_client() {
    let cfg = NetConfig::default_with(4, 1, 10.0, 5);
    let mut net = JmbNetwork::new(cfg).unwrap();
    net.run_measurement().unwrap();
    net.advance(1e-3);
    let payload: Vec<u8> = (0..60).map(|i| i as u8).collect();
    let r = net.diversity_transmit(&payload, Mcs::ALL[1]).unwrap();
    assert_eq!(r.expect("diversity decode").payload, payload);
}
