//! Bit-level golden for the §6 compatibility network: one seeded
//! `run_stitched_measurement` → `joint_sinr` → `jmb_throughput` /
//! `dot11n_throughput` per SNR band, held to the `f64` bits recorded when
//! `CompatNet` still ran its own sync exchange and probe loop. Figs. 12/13
//! are otherwise byte-checked only by `scripts/check.sh`'s release
//! `jmb-bench all`; this runs in debug tier-1.

use jmb_core::compat::{CompatConfig, CompatNet};

/// FNV-1a over the bit patterns, row by row.
fn digest(rows: &[Vec<f64>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in rows.iter().flatten() {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(client SNR dB, seed)` → `(joint_sinr digest, jmb bits, 802.11n bits)`.
fn run(snr_db: f64, seed: u64) -> (u64, Vec<u64>, Vec<u64>) {
    let mut net = CompatNet::new(CompatConfig::default_with(snr_db, seed)).unwrap();
    net.run_stitched_measurement().unwrap();
    net.advance(2e-3);
    let sinr = net.joint_sinr(300e-6).unwrap();
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
    let jmb = bits(net.jmb_throughput(1500).unwrap());
    let dot = bits(net.dot11n_throughput(1500));
    (digest(&sinr), jmb, dot)
}

#[test]
fn compat_net_is_bit_stable_in_every_band() {
    // (client SNR dB, seed, joint_sinr digest, jmb bits, 802.11n bits)
    let golden = [
        (
            9.0,
            101,
            0x59301eb04841c00f,
            [0x0000000000000000, 0x0000000000000000],
            [0x4153effc3584e7ea, 0x414545840b6b89ff],
        ),
        (
            15.0,
            102,
            0xcbc74be7fc289d3a,
            [0x0000000000000000, 0x0000000000000000],
            [0x414545840b6b89ff, 0x4163effc3584e7ea],
        ),
        (
            21.5,
            103,
            0x5a37ea7899cd1b50,
            [0x4175358db9701c3e, 0x417513658339848c],
            [0x417a9e3fc773dc5a, 0x41777b72ca2a400f],
        ),
    ];
    for (snr_db, seed, sinr, jmb, dot) in golden {
        let got = run(snr_db, seed);
        assert_eq!(
            got,
            (sinr, jmb.to_vec(), dot.to_vec()),
            "{snr_db} dB, seed {seed}: got {:#018x}, {:#018x?}, {:#018x?}",
            got.0,
            got.1,
            got.2
        );
    }
}
