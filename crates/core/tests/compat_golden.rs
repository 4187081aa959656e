//! Bit-level golden for the §6 compatibility network: one seeded stitched
//! `run_measurement` → `joint_sinr` → `jmb_throughput` / `dot11n_throughput`
//! per SNR band, held to `f64` bits first recorded when `CompatNet` still
//! ran its own sync exchange and probe loop, and re-recorded when the noise
//! draws (oscillator walk, estimation noise) moved to the ziggurat.
//!
//! Re-recorded a second time when `CompatNet` became `Network<CompatEval>`
//! and §6 moved onto the network's frame timeline: the header measurement
//! at the L-LTF midpoint (12 µs in, was 20 µs), the data 166 µs after the
//! header (was 170 µs), 50 µs of guard after a frame (was 100 µs) and a
//! measurement that ends 1.25 ms after it starts (was 1.3 ms). Every
//! joint-SINR digest and the high band's JMB bits moved with the instants;
//! the measured-channel digests and the 802.11n bits did not.
//!
//! Re-recorded a third time when the probe kernel moved to the factored
//! channel (no receive oscillator, one phasor ramp per transmit antenna):
//! every joint-SINR digest moved by rounding, and so did the high band's
//! first JMB throughput, by one unit in the last place (1.7e-16 relative).
//! The measured-channel digests, the other JMB bits and the 802.11n bits
//! held.
//!
//! Re-recorded a fourth time when the linear-phase fit (the stitching's
//! and the sync exchange's) and the EESM moved from glibc's `atan2`,
//! `hypot` and `exp` to `jmb_dsp::elementary`'s kernels, within 2 ulp of
//! them: the measured-channel digests moved with the stitching fit (every
//! entry within 9.1e-14 relative, 8.4e-15 absolute), every joint-SINR
//! digest by rounding (within 3.9e-13 dB), and the high band's second JMB
//! throughput by one unit in the last place (1.7e-16 relative); the draws
//! and their order, the other JMB bits and the 802.11n bits held. Figs. 12/13
//! are otherwise byte-checked only by `scripts/check.sh`'s release
//! `jmb-bench all`; this runs in debug tier-1.
//!
//! `joint_sinr` returns linear SINRs; its digest is taken over their
//! `lin_to_db`, the dB table it returned when the digests were recorded.

use jmb_core::compat::{CompatConfig, CompatNet};
use jmb_dsp::stats::lin_to_db;
use jmb_dsp::Planar;

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

/// The stitched channel as one row per subcarrier: every entry of its
/// matrix, row-major, real part then imaginary.
fn unpacked(h: &Planar) -> Vec<Vec<f64>> {
    let entries = |k_idx| {
        let z = (0..h.rows()).map(|row| h.get(row, k_idx));
        z.flat_map(|z| [z.re, z.im]).collect()
    };
    (0..h.width()).map(entries).collect()
}

/// `(client SNR dB, seed)` → `(measured-channel digest, joint_sinr digest,
/// jmb bits, 802.11n bits)`.
fn run(snr_db: f64, seed: u64) -> (u64, u64, Vec<u64>, Vec<u64>) {
    let mut net = CompatNet::new(CompatConfig::default_with(snr_db, seed)).unwrap();
    net.run_measurement().unwrap();
    let h = digest(&unpacked(net.measured_channel().unwrap()));
    net.advance(2e-3);
    let sinr = net.joint_sinr(300e-6).unwrap();
    let sinr_db: Vec<Vec<f64>> = sinr
        .iter()
        .map(|row| row.iter().map(|&s| lin_to_db(s)).collect())
        .collect();
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
    let jmb = bits(net.jmb_throughput(1500).unwrap());
    let dot = bits(net.dot11n_throughput(1500));
    (h, digest(&sinr_db), jmb, dot)
}

#[test]
fn compat_net_is_bit_stable_in_every_band() {
    // (client SNR dB, seed, measured-channel digest, joint_sinr digest,
    // jmb bits, 802.11n bits)
    let golden = [
        (
            9.0,
            101,
            0xaa78a408c8a2ec3f,
            0x8209bb046fa93260,
            [0x0000000000000000, 0x0000000000000000],
            [0x4153effc3584e7ea, 0x414545840b6b89ff],
        ),
        (
            15.0,
            102,
            0x77fcfdeaa6f28bc2,
            0x116bab2861920157,
            [0x0000000000000000, 0x0000000000000000],
            [0x414545840b6b89ff, 0x4163effc3584e7ea],
        ),
        (
            21.5,
            103,
            0x7592fe030d39696e,
            0x5ccdc2ecb99f6b7a,
            [0x417536c6b8a4ea70, 0x4175103523ecb628],
            [0x417a9e3fc773dc5a, 0x41777b72ca2a400f],
        ),
    ];
    for (snr_db, seed, h, sinr, jmb, dot) in golden {
        let got = run(snr_db, seed);
        assert_eq!(
            got,
            (h, sinr, jmb.to_vec(), dot.to_vec()),
            "{snr_db} dB, seed {seed}: got {:#018x}, {:#018x}, {:#018x?}, {:#018x?}",
            got.0,
            got.1,
            got.2,
            got.3
        );
    }
}
