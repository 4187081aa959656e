//! OFDM numerology and channel profiles.
//!
//! JMB's two testbeds use the same 64-subcarrier OFDM grid at two clock
//! rates: the USRP2 testbed runs a 10 MHz channel (§10a) and the 802.11n
//! testbed a 20 MHz channel (§10b). Everything else — 48 data subcarriers,
//! 4 pilots at ±7 and ±21, a 16-sample cyclic prefix — is the standard
//! 802.11a/g numerology shared by both.

/// Channel profiles used in the paper's two testbeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelProfile {
    /// 10 MHz channel, as used by the USRP2 software-radio testbed (§10a).
    /// OFDM symbols last 8 µs; data rates are half the 20 MHz rates.
    Usrp10MHz,
    /// 20 MHz channel, as used with off-the-shelf 802.11n clients (§10b).
    /// OFDM symbols last 4 µs; standard 802.11a/g data rates.
    Wifi20MHz,
}

impl ChannelProfile {
    /// Sample rate in samples/second (equal to channel bandwidth).
    pub fn sample_rate(self) -> f64 {
        match self {
            ChannelProfile::Usrp10MHz => 10e6,
            ChannelProfile::Wifi20MHz => 20e6,
        }
    }
}

/// The OFDM numerology used by every JMB transmitter and receiver.
///
/// # Examples
///
/// ```
/// use jmb_phy::{ChannelProfile, OfdmParams};
///
/// let p = OfdmParams::new(ChannelProfile::Usrp10MHz);
/// assert_eq!(p.fft_size, 64);
/// assert_eq!(p.occupied_subcarriers().len(), 52);
/// assert!((p.symbol_duration() - 8e-6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OfdmParams {
    /// FFT size (64).
    pub fft_size: usize,
    /// Cyclic prefix length in samples (16, i.e. 1.6 µs at 10 MHz / 0.8 µs at
    /// 20 MHz — the "long" 802.11 guard interval the paper relies on to
    /// absorb inter-AP propagation-delay differences, §5.2).
    pub cp_len: usize,
    /// Channel profile (sets the sample rate).
    pub profile: ChannelProfile,
    /// Logical indices of pilot subcarriers.
    pub pilot_subcarriers: [i32; 4],
    /// Logical indices of data subcarriers (sorted ascending), 48 entries.
    pub data_subcarriers: Vec<i32>,
    /// Carrier frequency in Hz (2.4 GHz band, used to scale ppm → Hz).
    pub carrier_freq: f64,
}

impl OfdmParams {
    /// Pilot subcarrier positions per 802.11: −21, −7, +7, +21.
    pub const PILOTS: [i32; 4] = [-21, -7, 7, 21];

    /// Builds the standard numerology for a profile.
    pub fn new(profile: ChannelProfile) -> Self {
        let data_subcarriers = (-26..=26)
            .filter(|&k| k != 0 && !Self::PILOTS.contains(&k))
            .collect::<Vec<i32>>();
        debug_assert_eq!(data_subcarriers.len(), 48);
        OfdmParams {
            fft_size: 64,
            cp_len: 16,
            profile,
            pilot_subcarriers: Self::PILOTS,
            data_subcarriers,
            carrier_freq: 2.437e9, // Wi-Fi channel 6
        }
    }

    /// Number of data subcarriers (48).
    #[inline]
    pub(crate) fn n_data_subcarriers(&self) -> usize {
        self.data_subcarriers.len()
    }

    /// All 52 occupied logical subcarrier indices in ascending order
    /// (data + pilots).
    pub fn occupied_subcarriers(&self) -> Vec<i32> {
        let mut v: Vec<i32> = self
            .data_subcarriers
            .iter()
            .chain(self.pilot_subcarriers.iter())
            .copied()
            .collect();
        v.sort_unstable();
        v
    }

    /// Sample rate in Hz.
    #[inline]
    pub fn sample_rate(&self) -> f64 {
        self.profile.sample_rate()
    }

    /// Sample period in seconds.
    #[inline]
    pub fn sample_period(&self) -> f64 {
        1.0 / self.sample_rate()
    }

    /// Samples per OFDM symbol including cyclic prefix (80).
    #[inline]
    pub fn symbol_len(&self) -> usize {
        self.fft_size + self.cp_len
    }

    /// OFDM symbol duration in seconds (4 µs at 20 MHz, 8 µs at 10 MHz).
    #[inline]
    pub fn symbol_duration(&self) -> f64 {
        self.symbol_len() as f64 * self.sample_period()
    }

    /// Subcarrier spacing in Hz (312.5 kHz at 20 MHz).
    #[inline]
    pub fn subcarrier_spacing(&self) -> f64 {
        self.sample_rate() / self.fft_size as f64
    }

    /// Maps a logical subcarrier index (−32..32, 0 = DC) to its FFT bin.
    ///
    /// Negative subcarriers wrap to the top half of the FFT, per the usual
    /// OFDM convention.
    #[inline]
    pub fn bin(&self, subcarrier: i32) -> usize {
        debug_assert!(
            subcarrier > -(self.fft_size as i32 / 2) && subcarrier < self.fft_size as i32 / 2,
            "subcarrier {subcarrier} out of range"
        );
        if subcarrier >= 0 {
            subcarrier as usize
        } else {
            (self.fft_size as i32 + subcarrier) as usize
        }
    }
}

impl Default for OfdmParams {
    fn default() -> Self {
        OfdmParams::new(ChannelProfile::Usrp10MHz)
    }
}

#[cfg(test)]
impl OfdmParams {
    /// Converts a ppm frequency tolerance at the carrier into Hz.
    ///
    /// E.g. the 802.11-mandated ±20 ppm at 2.437 GHz is ±48.7 kHz — the CFO
    /// range JMB's sync must handle (§1).
    pub fn ppm_to_hz(&self, ppm: f64) -> f64 {
        ppm * 1e-6 * self.carrier_freq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_numerology() {
        let p = OfdmParams::new(ChannelProfile::Wifi20MHz);
        assert_eq!(p.fft_size, 64);
        assert_eq!(p.cp_len, 16);
        assert_eq!(p.symbol_len(), 80);
        assert_eq!(p.n_data_subcarriers(), 48);
        assert_eq!(p.occupied_subcarriers().len(), 52);
        assert!((p.symbol_duration() - 4e-6).abs() < 1e-15);
        assert!((p.subcarrier_spacing() - 312_500.0).abs() < 1e-9);
    }

    #[test]
    fn usrp_profile_is_half_clock() {
        let p = OfdmParams::new(ChannelProfile::Usrp10MHz);
        assert!((p.symbol_duration() - 8e-6).abs() < 1e-15);
        assert!((p.sample_rate() - 10e6).abs() < 1e-9);
    }

    #[test]
    fn data_subcarriers_exclude_dc_and_pilots() {
        let p = OfdmParams::default();
        assert!(!p.data_subcarriers.contains(&0));
        for pilot in OfdmParams::PILOTS {
            assert!(!p.data_subcarriers.contains(&pilot));
        }
        assert!(p.data_subcarriers.iter().all(|&k| (-26..=26).contains(&k)));
    }

    #[test]
    fn bin_mapping() {
        let p = OfdmParams::default();
        assert_eq!(p.bin(0), 0);
        assert_eq!(p.bin(1), 1);
        assert_eq!(p.bin(26), 26);
        assert_eq!(p.bin(-1), 63);
        assert_eq!(p.bin(-26), 38);
    }

    #[test]
    fn bins_unique_across_occupied() {
        let p = OfdmParams::default();
        let mut bins: Vec<usize> = p.occupied_subcarriers().iter().map(|&k| p.bin(k)).collect();
        bins.sort_unstable();
        bins.dedup();
        assert_eq!(bins.len(), 52);
    }

    #[test]
    fn ppm_conversion() {
        let p = OfdmParams::default();
        let hz = p.ppm_to_hz(20.0);
        assert!((hz - 48_740.0).abs() < 1.0, "20 ppm = {hz} Hz");
    }
}
