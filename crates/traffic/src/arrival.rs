//! Offered-load generation: per-client arrival processes and packet sizes.
//!
//! The paper's claim is that JMB scales capacity *with user demands* — so
//! demand has to be modelled as a process over time, not a fixed batch.
//! Two classical processes cover the evaluation space: Poisson (smooth
//! aggregate load) and on/off bursts (the heavy-tailed, idle-then-greedy
//! shape of real user traffic).

use jmb_dsp::rng::JmbRng;
use rand::Rng;

/// Packet-size distribution, bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PacketSizeDist {
    /// Every packet the same size.
    Fixed(usize),
    /// Uniform in `[min, max]`.
    Uniform {
        /// Smallest packet, bytes.
        min: usize,
        /// Largest packet, bytes.
        max: usize,
    },
    /// Internet-mix shape: small (ACK-sized) packets with probability
    /// `p_small`, full-sized otherwise.
    Bimodal {
        /// Small-packet size, bytes.
        small: usize,
        /// Large-packet size, bytes.
        large: usize,
        /// Probability of a small packet.
        p_small: f64,
    },
}

impl PacketSizeDist {
    /// Draws one packet size.
    fn sample(&self, rng: &mut JmbRng) -> usize {
        match *self {
            PacketSizeDist::Fixed(n) => n,
            PacketSizeDist::Uniform { min, max } => {
                #[expect(
                    clippy::disallowed_macros,
                    reason = "debug_assert!: compiled out of release builds"
                )]
                {
                    debug_assert!(min <= max);
                }
                rng.gen_range(min..=max)
            }
            PacketSizeDist::Bimodal {
                small,
                large,
                p_small,
            } => {
                if rng.gen::<f64>() < p_small {
                    small
                } else {
                    large
                }
            }
        }
    }

    /// Whether every size the distribution can draw is a payload one frame
    /// carries — `1..=MAX_PSDU − 4`, the PSDU is payload + CRC-32 and
    /// `FrameTx` refuses a longer one — with `min ≤ max` (`sample` draws
    /// from `min..=max`) and `p_small` a probability. Anything larger is
    /// refused by the sample PHY on every attempt: the run delivers nothing
    /// and says nothing.
    pub(crate) fn is_well_posed(&self) -> bool {
        let fits = |n: usize| (1..=jmb_phy::frame::MAX_PSDU - 4).contains(&n);
        match *self {
            PacketSizeDist::Fixed(n) => fits(n),
            PacketSizeDist::Uniform { min, max } => fits(min) && fits(max) && min <= max,
            PacketSizeDist::Bimodal {
                small,
                large,
                p_small,
            } => fits(small) && fits(large) && (0.0..=1.0).contains(&p_small),
        }
    }

    /// Mean packet size, bytes.
    pub fn mean(&self) -> f64 {
        match *self {
            PacketSizeDist::Fixed(n) => n as f64,
            PacketSizeDist::Uniform { min, max } => (min + max) as f64 / 2.0,
            PacketSizeDist::Bimodal {
                small,
                large,
                p_small,
            } => small as f64 * p_small + large as f64 * (1.0 - p_small),
        }
    }
}

/// Arrival process for one client's downlink flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate_pps` packets/second.
    Poisson {
        /// Mean arrival rate, packets/second.
        rate_pps: f64,
    },
    /// Bursty on/off (interrupted Poisson): exponentially-distributed ON
    /// periods during which packets arrive at `burst_rate_pps`, separated
    /// by exponentially-distributed silent OFF periods.
    OnOff {
        /// Arrival rate during a burst, packets/second.
        burst_rate_pps: f64,
        /// Mean ON-period duration, seconds.
        mean_on_s: f64,
        /// Mean OFF-period duration, seconds.
        mean_off_s: f64,
    },
}

impl ArrivalProcess {
    /// Long-run mean arrival rate, packets/second.
    pub(crate) fn mean_rate_pps(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_pps } => rate_pps,
            ArrivalProcess::OnOff {
                burst_rate_pps,
                mean_on_s,
                mean_off_s,
            } => burst_rate_pps * mean_on_s / (mean_on_s + mean_off_s),
        }
    }

    /// Whether every rate and mean period is positive and finite. Anything
    /// else makes inter-arrival times zero, negative or NaN, and a
    /// generator whose clock does not advance never reaches the horizon.
    pub(crate) fn is_well_posed(&self) -> bool {
        let ok = |x: f64| x > 0.0 && x.is_finite();
        match *self {
            ArrivalProcess::Poisson { rate_pps } => ok(rate_pps),
            ArrivalProcess::OnOff {
                burst_rate_pps,
                mean_on_s,
                mean_off_s,
            } => ok(burst_rate_pps) && ok(mean_on_s) && ok(mean_off_s),
        }
    }
}

/// Exponential draw with the given mean (inverse-CDF of `U(0,1)`).
fn exp_sample(rng: &mut JmbRng, mean: f64) -> f64 {
    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert!: compiled out of release builds"
    )]
    {
        debug_assert!(mean > 0.0);
    }
    let u: f64 = rng.gen();
    -mean * (1.0 - u).max(1e-300).ln()
}

/// Incremental generator of one client's arrival times and packet sizes.
///
/// Owns its RNG (derived from the simulation master seed), so each client's
/// sequence is independent of every other client's and of event order.
#[derive(Debug)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    size: PacketSizeDist,
    rng: JmbRng,
    /// Time cursor: the last generated arrival (or the start time).
    t: f64,
    /// End of the current ON period (on/off only).
    on_until: f64,
}

impl ArrivalGen {
    /// Creates a generator starting at `t0`.
    pub fn new(process: ArrivalProcess, size: PacketSizeDist, rng: JmbRng, t0: f64) -> Self {
        let mut g = ArrivalGen {
            process,
            size,
            rng,
            t: t0,
            on_until: t0,
        };
        if let ArrivalProcess::OnOff { mean_on_s, .. } = process {
            g.on_until = t0 + exp_sample(&mut g.rng, mean_on_s);
        }
        g
    }

    /// Next arrival: absolute time and packet size, bytes. Times are
    /// strictly increasing.
    pub(crate) fn next_arrival(&mut self) -> (f64, usize) {
        let t = match self.process {
            ArrivalProcess::Poisson { rate_pps } => {
                self.t += exp_sample(&mut self.rng, 1.0 / rate_pps);
                self.t
            }
            ArrivalProcess::OnOff {
                burst_rate_pps,
                mean_on_s,
                mean_off_s,
            } => loop {
                let dt = exp_sample(&mut self.rng, 1.0 / burst_rate_pps);
                if self.t + dt <= self.on_until {
                    self.t += dt;
                    break self.t;
                }
                // The burst ended before this arrival: jump to the next ON
                // period (the exponential is memoryless, so discarding the
                // partial inter-arrival is exact).
                self.t = self.on_until + exp_sample(&mut self.rng, mean_off_s);
                self.on_until = self.t + exp_sample(&mut self.rng, mean_on_s);
            },
        };
        (t, self.size.sample(&mut self.rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmb_dsp::rng::derive_rng;

    #[test]
    fn poisson_rate_is_respected() {
        let mut g = ArrivalGen::new(
            ArrivalProcess::Poisson { rate_pps: 1000.0 },
            PacketSizeDist::Fixed(100),
            derive_rng(1, 0),
            0.0,
        );
        let n = 20_000;
        let mut last = 0.0;
        for _ in 0..n {
            let (t, size) = g.next_arrival();
            assert!(t > last, "times strictly increasing");
            assert_eq!(size, 100);
            last = t;
        }
        let rate = n as f64 / last;
        assert!((rate - 1000.0).abs() < 30.0, "measured rate {rate}");
    }

    #[test]
    fn onoff_mean_rate_matches_duty_cycle() {
        let proc = ArrivalProcess::OnOff {
            burst_rate_pps: 2000.0,
            mean_on_s: 0.01,
            mean_off_s: 0.03,
        };
        assert!((proc.mean_rate_pps() - 500.0).abs() < 1e-9);
        let mut g = ArrivalGen::new(proc, PacketSizeDist::Fixed(1), derive_rng(2, 0), 0.0);
        let n = 20_000;
        let mut last = 0.0;
        for _ in 0..n {
            last = g.next_arrival().0;
        }
        let rate = n as f64 / last;
        assert!(
            (rate - 500.0).abs() < 500.0 * 0.1,
            "long-run on/off rate {rate}"
        );
    }

    #[test]
    fn onoff_is_bursty() {
        // Squared coefficient of variation of inter-arrivals must exceed a
        // Poisson process's (CV² = 1).
        let mut g = ArrivalGen::new(
            ArrivalProcess::OnOff {
                burst_rate_pps: 5000.0,
                mean_on_s: 0.005,
                mean_off_s: 0.02,
            },
            PacketSizeDist::Fixed(1),
            derive_rng(3, 0),
            0.0,
        );
        let mut gaps = Vec::new();
        let mut last = 0.0;
        for _ in 0..10_000 {
            let (t, _) = g.next_arrival();
            gaps.push(t - last);
            last = t;
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / gaps.len() as f64;
        let cv2 = var / (mean * mean);
        assert!(cv2 > 2.0, "CV² {cv2} not bursty");
    }

    #[test]
    fn size_distributions() {
        let mut rng = derive_rng(4, 0);
        let u = PacketSizeDist::Uniform { min: 60, max: 1500 };
        for _ in 0..1000 {
            let s = u.sample(&mut rng);
            assert!((60..=1500).contains(&s));
        }
        let b = PacketSizeDist::Bimodal {
            small: 60,
            large: 1500,
            p_small: 0.5,
        };
        let mut smalls = 0;
        for _ in 0..2000 {
            if b.sample(&mut rng) == 60 {
                smalls += 1;
            }
        }
        assert!((800..=1200).contains(&smalls), "{smalls} small packets");
        assert!((b.mean() - 780.0).abs() < 1e-9);
        assert_eq!(PacketSizeDist::Fixed(9).mean(), 9.0);
    }

    #[test]
    fn deterministic_from_seed() {
        let run = |seed| {
            let mut g = ArrivalGen::new(
                ArrivalProcess::Poisson { rate_pps: 100.0 },
                PacketSizeDist::Uniform { min: 60, max: 1500 },
                derive_rng(seed, 7),
                0.0,
            );
            (0..100).map(|_| g.next_arrival()).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
