//! Modulation-and-coding schemes (MCS) — the 802.11a/g rate table.
//!
//! JMB's bitrate selection (§9) picks among these eight schemes using
//! effective SNR. Rates are quoted for the 20 MHz profile; the paper's
//! USRP testbed runs the identical schemes on a 10 MHz channel, which
//! halves every data rate (8 µs symbols instead of 4 µs).

use crate::modulation::Modulation;
use crate::params::OfdmParams;

/// Convolutional code rate after puncturing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeRate {
    /// Rate 1/2 (no puncturing).
    Half,
    /// Rate 2/3.
    TwoThirds,
    /// Rate 3/4.
    ThreeQuarters,
}

impl CodeRate {
    /// The rate as a fraction `(numerator, denominator)`.
    fn as_fraction(self) -> (usize, usize) {
        match self {
            CodeRate::Half => (1, 2),
            CodeRate::TwoThirds => (2, 3),
            CodeRate::ThreeQuarters => (3, 4),
        }
    }
}

/// One modulation-and-coding scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mcs {
    /// Constellation.
    pub modulation: Modulation,
    /// Code rate.
    pub code_rate: CodeRate,
}

impl Mcs {
    /// The eight 802.11a/g schemes, slowest first.
    pub const ALL: [Mcs; 8] = [
        Mcs {
            modulation: Modulation::Bpsk,
            code_rate: CodeRate::Half,
        },
        Mcs {
            modulation: Modulation::Bpsk,
            code_rate: CodeRate::ThreeQuarters,
        },
        Mcs {
            modulation: Modulation::Qpsk,
            code_rate: CodeRate::Half,
        },
        Mcs {
            modulation: Modulation::Qpsk,
            code_rate: CodeRate::ThreeQuarters,
        },
        Mcs {
            modulation: Modulation::Qam16,
            code_rate: CodeRate::Half,
        },
        Mcs {
            modulation: Modulation::Qam16,
            code_rate: CodeRate::ThreeQuarters,
        },
        Mcs {
            modulation: Modulation::Qam64,
            code_rate: CodeRate::TwoThirds,
        },
        Mcs {
            modulation: Modulation::Qam64,
            code_rate: CodeRate::ThreeQuarters,
        },
    ];

    /// The most robust scheme (BPSK 1/2), used for the SIGNAL field.
    pub const BASE: Mcs = Mcs {
        modulation: Modulation::Bpsk,
        code_rate: CodeRate::Half,
    };

    /// Coded bits per OFDM symbol (`N_CBPS` = 48 · bits-per-subcarrier).
    pub(crate) fn coded_bits_per_symbol(&self, params: &OfdmParams) -> usize {
        params.n_data_subcarriers() * self.modulation.bits_per_symbol()
    }

    /// Data bits per OFDM symbol (`N_DBPS`).
    pub(crate) fn data_bits_per_symbol(&self, params: &OfdmParams) -> usize {
        let (n, d) = self.code_rate.as_fraction();
        self.coded_bits_per_symbol(params) * n / d
    }

    /// Index of this scheme in [`Mcs::ALL`].
    pub fn index(&self) -> usize {
        Mcs::ALL
            .iter()
            .position(|m| m == self)
            .expect("every constructible Mcs is in ALL")
    }

    /// Number of OFDM symbols needed for `n_bits` data bits (including the
    /// 16 SERVICE bits and 6 tail bits 802.11 adds around a PSDU).
    pub(crate) fn symbols_for_psdu(&self, params: &OfdmParams, psdu_bytes: usize) -> usize {
        let n_bits = 16 + 8 * psdu_bytes + 6;
        n_bits.div_ceil(self.data_bits_per_symbol(params))
    }
}

impl std::fmt::Display for Mcs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (n, d) = self.code_rate.as_fraction();
        write!(f, "{:?} {}/{}", self.modulation, n, d)
    }
}

#[cfg(test)]
impl Mcs {
    /// Data rate in bits/second for the given numerology: 54 Mbps for
    /// 64-QAM 3/4 at 20 MHz, half of that at 10 MHz. The tests' view of the
    /// rate table.
    pub fn bitrate(&self, params: &OfdmParams) -> f64 {
        self.data_bits_per_symbol(params) as f64 / params.symbol_duration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ChannelProfile;

    #[test]
    fn standard_20mhz_rates() {
        let p = OfdmParams::new(ChannelProfile::Wifi20MHz);
        let expected_mbps = [6.0, 9.0, 12.0, 18.0, 24.0, 36.0, 48.0, 54.0];
        for (mcs, mbps) in Mcs::ALL.iter().zip(expected_mbps) {
            assert!(
                (mcs.bitrate(&p) / 1e6 - mbps).abs() < 1e-9,
                "{mcs}: {} Mbps",
                mcs.bitrate(&p) / 1e6
            );
        }
    }

    #[test]
    fn usrp_rates_are_half() {
        let p20 = OfdmParams::new(ChannelProfile::Wifi20MHz);
        let p10 = OfdmParams::new(ChannelProfile::Usrp10MHz);
        for mcs in Mcs::ALL {
            assert!((mcs.bitrate(&p10) * 2.0 - mcs.bitrate(&p20)).abs() < 1e-9);
        }
    }

    #[test]
    fn standard_ndbps() {
        let p = OfdmParams::new(ChannelProfile::Wifi20MHz);
        let expected = [24, 36, 48, 72, 96, 144, 192, 216];
        for (mcs, ndbps) in Mcs::ALL.iter().zip(expected) {
            assert_eq!(mcs.data_bits_per_symbol(&p), ndbps, "{mcs}");
        }
    }

    #[test]
    fn ncbps_divisible_for_puncturing() {
        // Every MCS must produce an integer number of data bits per symbol.
        let p = OfdmParams::default();
        for mcs in Mcs::ALL {
            let (n, d) = mcs.code_rate.as_fraction();
            assert_eq!(mcs.coded_bits_per_symbol(&p) * n % d, 0, "{mcs}");
        }
    }

    #[test]
    fn index_roundtrip() {
        for (i, mcs) in Mcs::ALL.iter().enumerate() {
            assert_eq!(mcs.index(), i);
        }
    }

    #[test]
    fn symbols_for_psdu_counts() {
        let p = OfdmParams::new(ChannelProfile::Wifi20MHz);
        // 1500-byte packet at 54 Mbps: (16 + 12000 + 6)/216 = 55.66 → 56 syms.
        assert_eq!(Mcs::ALL[7].symbols_for_psdu(&p, 1500), 56);
        // At 6 Mbps: 12022/24 = 500.9 → 501.
        assert_eq!(Mcs::ALL[0].symbols_for_psdu(&p, 1500), 501);
        // Empty PSDU still needs one symbol.
        assert_eq!(Mcs::ALL[0].symbols_for_psdu(&p, 0), 1);
    }

    #[test]
    fn display_format() {
        assert_eq!(Mcs::BASE.to_string(), "Bpsk 1/2");
        assert_eq!(Mcs::ALL[7].to_string(), "Qam64 3/4");
    }
}
