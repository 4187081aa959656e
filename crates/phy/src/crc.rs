//! CRC-32 (IEEE 802.3) frame check sequence.
//!
//! Every JMB data frame carries the standard 802.11/Ethernet CRC-32 so the
//! receiver can decide whether a packet was delivered — the per-packet
//! success/failure signal that throughput measurements and the MAC's
//! retransmission logic are built on.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros
    )
)]

/// Polynomial 0x04C11DB7, reflected form.
const POLY: u32 = 0xEDB8_8320;

fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
            *entry = c;
        }
        t
    })
}

/// Computes the CRC-32 of `data` (init 0xFFFFFFFF, final XOR 0xFFFFFFFF,
/// reflected — the standard Ethernet/802.11 FCS).
///
/// # Examples
///
/// ```
/// // The canonical check value for "123456789", as the FCS
/// // `append_crc` puts after it.
/// let frame = jmb_phy::crc::append_crc(b"123456789");
/// assert_eq!(frame[9..], 0xCBF4_3926u32.to_le_bytes());
/// ```
fn crc32(data: &[u8]) -> u32 {
    let t = table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Appends the 4-byte little-endian CRC to a payload.
pub fn append_crc(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 4);
    append_crc_into(payload, &mut out);
    out
}

/// [`append_crc`] onto the end of `out`: the payload, then its CRC.
pub(crate) fn append_crc_into(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Verifies and strips a trailing CRC. Returns the payload on success.
pub fn check_and_strip_crc(frame: &[u8]) -> Option<&[u8]> {
    if frame.len() < 4 {
        return None;
    }
    let (payload, fcs) = frame.split_at(frame.len() - 4);
    let expected = u32::from_le_bytes([fcs[0], fcs[1], fcs[2], fcs[3]]);
    if crc32(payload) == expected {
        Some(payload)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn append_then_check_roundtrip() {
        let payload = b"jmb joint beamforming";
        let framed = append_crc(payload);
        assert_eq!(framed.len(), payload.len() + 4);
        assert_eq!(check_and_strip_crc(&framed), Some(&payload[..]));
    }

    #[test]
    fn corruption_detected() {
        let mut framed = append_crc(b"payload bytes here");
        for i in 0..framed.len() {
            framed[i] ^= 0x40;
            assert_eq!(
                check_and_strip_crc(&framed),
                None,
                "flip at byte {i} undetected"
            );
            framed[i] ^= 0x40;
        }
        // Sanity: restored frame passes again.
        assert!(check_and_strip_crc(&framed).is_some());
    }

    #[test]
    fn short_frames_rejected() {
        assert_eq!(check_and_strip_crc(&[]), None);
        assert_eq!(check_and_strip_crc(&[1, 2, 3]), None);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let framed = append_crc(b"");
        assert_eq!(check_and_strip_crc(&framed), Some(&b""[..]));
    }
}
