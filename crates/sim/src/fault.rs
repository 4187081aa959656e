//! Fault injection.
//!
//! In the spirit of smoltcp's example fault options (`--drop-chance`,
//! `--corrupt-chance`), the medium can be configured to misbehave so that
//! protocol robustness (retransmissions, stale-channel handling, CRC
//! rejection) is actually exercised rather than assumed.
//!
//! PR 3 extends the model from the *data* plane (payload drops/corruption)
//! to the *control* plane — the signalling JMB actually lives on:
//!
//! * [`ControlFaults`] — per-slave sync-header loss and measurement-frame
//!   loss probabilities;
//! * [`FaultConfigBuilder`] — the validated way to compose several fault
//!   kinds in one config (the `with_*` constructors are single-fault
//!   conveniences and cannot be combined);
//! * [`FaultSchedule`] — time-windowed fault configs, so loss "storms" can
//!   hit the middle of a run and clear again.

use std::fmt;

/// Error returned by [`FaultConfigBuilder::build`] and the schedule
/// constructors when a parameter is out of range.
///
/// This is a local error type (not `jmb_core::JmbError`) because `jmb-sim`
/// sits *below* `jmb-core` in the dependency graph.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A probability was outside `[0, 1]` (field name, offending value).
    Probability(&'static str, f64),
    /// A fault window's end time was not after its start time.
    Window {
        /// Window start, seconds.
        from_s: f64,
        /// Window end, seconds.
        until_s: f64,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Probability(name, v) => {
                write!(f, "fault probability `{name}` = {v} outside [0, 1]")
            }
            FaultError::Window { from_s, until_s } => {
                write!(f, "fault window [{from_s}, {until_s}) is empty or inverted")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Control-plane fault probabilities: losses of the signalling frames that
/// keep a JMB network coherent, as opposed to data-payload faults.
///
/// Sync-header loss models a slave failing to receive (or decode) the lead
/// AP's sync header before a joint transmission; measurement-frame loss
/// models a lost channel-measurement exchange, which leaves the CSI stale
/// until a re-measurement succeeds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControlFaults {
    /// Probability that any given slave misses the lead's sync header
    /// (applies to every slave unless overridden per slave).
    pub sync_loss_chance: f64,
    /// Per-slave overrides: `(ap_index, probability)`. An entry here takes
    /// precedence over [`ControlFaults::sync_loss_chance`] for that AP.
    pub per_slave_sync_loss: Vec<(usize, f64)>,
    /// Probability that a channel-measurement exchange is lost.
    pub meas_loss_chance: f64,
}

impl ControlFaults {
    /// The sync-header loss probability in effect for the given AP,
    /// honouring per-slave overrides.
    pub fn sync_loss_for(&self, ap: usize) -> f64 {
        self.per_slave_sync_loss
            .iter()
            .rev()
            .find(|(a, _)| *a == ap)
            .map(|(_, p)| *p)
            .unwrap_or(self.sync_loss_chance)
    }

    /// True when every probability is zero (the clean-path fast exit: no
    /// RNG draws happen, so clean runs stay byte-identical).
    fn is_clean(&self) -> bool {
        self.sync_loss_chance == 0.0
            && self.meas_loss_chance == 0.0
            && self.per_slave_sync_loss.iter().all(|(_, p)| *p == 0.0)
    }
}

/// Fault-injection configuration for a [`crate::medium::Medium`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultConfig {
    /// Probability that a scheduled transmission is dropped entirely
    /// (deep fade / collision with an un-modelled interferer).
    pub drop_chance: f64,
    /// Probability that a scheduled transmission has its payload samples
    /// corrupted in flight. Corruption leaves the preamble and SIGNAL field
    /// intact so the receiver still synchronises and decodes — and then
    /// rejects the frame at the CRC, exercising the retransmission path.
    pub corrupt_chance: f64,
    /// Control-plane (sync header / measurement frame) fault probabilities.
    pub control: ControlFaults,
}

impl FaultConfig {
    /// Starts a validated builder: it composes any combination of faults
    /// and checks all probabilities jointly at [`FaultConfigBuilder::build`].
    pub fn builder() -> FaultConfigBuilder {
        FaultConfigBuilder::default()
    }

    /// True when every probability (data and control plane) is zero.
    pub fn is_clean(&self) -> bool {
        self.drop_chance == 0.0 && self.corrupt_chance == 0.0 && self.control.is_clean()
    }
}

/// Validated builder for [`FaultConfig`]: accepts any combination of data-
/// and control-plane faults and rejects out-of-range probabilities jointly
/// at [`FaultConfigBuilder::build`] (every bad field is checked, the first
/// offender is reported).
#[derive(Debug, Clone, Default)]
pub struct FaultConfigBuilder {
    drop_chance: f64,
    corrupt_chance: f64,
    control: ControlFaults,
}

impl FaultConfigBuilder {
    /// Sets the transmission drop probability.
    pub fn drop_chance(mut self, p: f64) -> Self {
        self.drop_chance = p;
        self
    }

    /// Sets the payload corruption probability.
    pub fn corrupt_chance(mut self, p: f64) -> Self {
        self.corrupt_chance = p;
        self
    }

    /// Sets the sync-header loss probability applied to every slave.
    pub fn sync_loss_chance(mut self, p: f64) -> Self {
        self.control.sync_loss_chance = p;
        self
    }

    /// Overrides the sync-header loss probability for one slave AP.
    pub fn per_slave_sync_loss(mut self, ap: usize, p: f64) -> Self {
        self.control.per_slave_sync_loss.push((ap, p));
        self
    }

    /// Sets the measurement-frame loss probability.
    pub fn meas_loss_chance(mut self, p: f64) -> Self {
        self.control.meas_loss_chance = p;
        self
    }

    /// Validates every probability jointly and produces the config.
    pub fn build(self) -> Result<FaultConfig, FaultError> {
        let in_unit = |name: &'static str, p: f64| -> Result<(), FaultError> {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(FaultError::Probability(name, p))
            }
        };
        in_unit("drop_chance", self.drop_chance)?;
        in_unit("corrupt_chance", self.corrupt_chance)?;
        in_unit("sync_loss_chance", self.control.sync_loss_chance)?;
        in_unit("meas_loss_chance", self.control.meas_loss_chance)?;
        for &(_, p) in &self.control.per_slave_sync_loss {
            in_unit("per_slave_sync_loss", p)?;
        }
        Ok(FaultConfig {
            drop_chance: self.drop_chance,
            corrupt_chance: self.corrupt_chance,
            control: self.control,
        })
    }
}

/// A time window during which an alternate [`FaultConfig`] applies.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindow {
    /// Window start (inclusive), seconds.
    pub from_s: f64,
    /// Window end (exclusive), seconds.
    pub until_s: f64,
    /// The config in effect inside the window.
    pub config: FaultConfig,
}

/// A time-varying fault plan: a base config plus zero or more windows
/// (loss "storms") that replace it for a stretch of simulated time.
///
/// # Boundary semantics (pinned)
///
/// Scenario manifests compile straight into schedules, so the edge cases
/// are contractual, not incidental:
///
/// * windows are **half-open** `[from_s, until_s)`: a query at exactly
///   `from_s` is inside the window, a query at exactly `until_s` is
///   outside it — two windows that share a boundary time hand over
///   exactly once, with no overlap instant and no gap;
/// * when windows overlap — including at exact boundary times — the
///   **last added** matching window wins, so later
///   [`FaultSchedule::with_window`] calls layer over earlier ones;
/// * zero-length and inverted windows are rejected at construction
///   ([`FaultError::Window`]), as are NaN endpoints — a window either
///   covers real time or is a config bug.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    base: FaultConfig,
    windows: Vec<FaultWindow>,
}

impl FaultSchedule {
    /// A schedule that applies one config at all times.
    pub fn constant(config: FaultConfig) -> Self {
        FaultSchedule {
            base: config,
            windows: Vec::new(),
        }
    }

    /// No faults, ever.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a storm window `[from_s, until_s)` with its own config.
    pub fn with_window(
        mut self,
        from_s: f64,
        until_s: f64,
        config: FaultConfig,
    ) -> Result<Self, FaultError> {
        // `partial_cmp` (not `>`): NaN endpoints must be rejected too.
        if until_s.partial_cmp(&from_s) != Some(std::cmp::Ordering::Greater) {
            return Err(FaultError::Window { from_s, until_s });
        }
        self.windows.push(FaultWindow {
            from_s,
            until_s,
            config,
        });
        Ok(self)
    }

    /// The config in effect at time `t` (last matching window wins, the
    /// base config outside every window). Windows are half-open: `t ==
    /// from_s` matches, `t == until_s` does not (see the type-level
    /// boundary-semantics contract).
    pub fn config_at(&self, t: f64) -> &FaultConfig {
        self.windows
            .iter()
            .rev()
            .find(|w| t >= w.from_s && t < w.until_s)
            .map(|w| &w.config)
            .unwrap_or(&self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_clean() {
        assert_eq!(FaultConfig::default().drop_chance, 0.0);
        assert_eq!(FaultConfig::default().corrupt_chance, 0.0);
        assert!(FaultConfig::default().is_clean());
        assert!(FaultSchedule::none().base.is_clean());
        assert!(FaultSchedule::none().windows.is_empty());
    }

    #[test]
    fn construction() {
        let f = FaultConfig::builder().drop_chance(0.25).build().unwrap();
        assert_eq!(f.drop_chance, 0.25);
        assert_eq!(f.corrupt_chance, 0.0);
        let f = FaultConfig::builder().corrupt_chance(0.5).build().unwrap();
        assert_eq!(f.corrupt_chance, 0.5);
        assert_eq!(f.drop_chance, 0.0);
        assert!(!f.is_clean());
    }

    #[test]
    #[should_panic(expected = "drop_chance")]
    fn rejects_bad_probability() {
        FaultConfig::builder().drop_chance(1.5).build().unwrap();
    }

    #[test]
    #[should_panic(expected = "corrupt_chance")]
    fn rejects_bad_corrupt_probability() {
        FaultConfig::builder().corrupt_chance(-0.1).build().unwrap();
    }

    #[test]
    fn builder_composes_all_faults() {
        let f = FaultConfig::builder()
            .drop_chance(0.1)
            .corrupt_chance(0.2)
            .sync_loss_chance(0.3)
            .meas_loss_chance(0.4)
            .per_slave_sync_loss(2, 0.9)
            .build()
            .unwrap();
        assert_eq!(f.drop_chance, 0.1);
        assert_eq!(f.corrupt_chance, 0.2);
        assert_eq!(f.control.sync_loss_chance, 0.3);
        assert_eq!(f.control.meas_loss_chance, 0.4);
        assert_eq!(f.control.sync_loss_for(2), 0.9);
        assert_eq!(f.control.sync_loss_for(1), 0.3);
    }

    #[test]
    fn builder_rejects_each_bad_probability() {
        assert_eq!(
            FaultConfig::builder().drop_chance(1.5).build(),
            Err(FaultError::Probability("drop_chance", 1.5))
        );
        assert_eq!(
            FaultConfig::builder().corrupt_chance(-0.5).build(),
            Err(FaultError::Probability("corrupt_chance", -0.5))
        );
        assert_eq!(
            FaultConfig::builder().sync_loss_chance(2.0).build(),
            Err(FaultError::Probability("sync_loss_chance", 2.0))
        );
        // NaN is not in [0, 1] either (NaN != NaN, so match on the field).
        assert!(matches!(
            FaultConfig::builder().meas_loss_chance(f64::NAN).build(),
            Err(FaultError::Probability("meas_loss_chance", _))
        ));
        assert_eq!(
            FaultConfig::builder()
                .per_slave_sync_loss(0, 7.0)
                .build()
                .unwrap_err(),
            FaultError::Probability("per_slave_sync_loss", 7.0)
        );
    }

    #[test]
    fn builder_rejects_jointly_even_when_one_field_is_valid() {
        // The original `with_*` constructors validated only their own field;
        // the builder must reject when *any* field is out of range.
        let err = FaultConfig::builder()
            .drop_chance(0.5)
            .corrupt_chance(1.01)
            .build()
            .unwrap_err();
        assert_eq!(err, FaultError::Probability("corrupt_chance", 1.01));
    }

    #[test]
    fn per_slave_override_last_wins() {
        let f = FaultConfig::builder()
            .per_slave_sync_loss(1, 0.2)
            .per_slave_sync_loss(1, 0.8)
            .build()
            .unwrap();
        assert_eq!(f.control.sync_loss_for(1), 0.8);
    }

    #[test]
    fn schedule_windows_apply_and_clear() {
        let storm = FaultConfig::builder()
            .sync_loss_chance(1.0)
            .build()
            .unwrap();
        let s = FaultSchedule::none().with_window(1.0, 2.0, storm).unwrap();
        assert!(s.config_at(0.5).is_clean());
        assert_eq!(s.config_at(1.0).control.sync_loss_chance, 1.0);
        assert_eq!(s.config_at(1.999).control.sync_loss_chance, 1.0);
        assert!(s.config_at(2.0).is_clean());
        assert!(!s.windows[0].config.is_clean());
    }

    #[test]
    fn schedule_last_window_wins() {
        let a = FaultConfig::builder()
            .sync_loss_chance(0.3)
            .build()
            .unwrap();
        let b = FaultConfig::builder()
            .sync_loss_chance(0.7)
            .build()
            .unwrap();
        let s = FaultSchedule::none()
            .with_window(0.0, 10.0, a)
            .unwrap()
            .with_window(5.0, 6.0, b)
            .unwrap();
        assert_eq!(s.config_at(4.0).control.sync_loss_chance, 0.3);
        assert_eq!(s.config_at(5.5).control.sync_loss_chance, 0.7);
        assert_eq!(s.config_at(7.0).control.sync_loss_chance, 0.3);
    }

    #[test]
    fn schedule_rejects_empty_window() {
        let err = FaultSchedule::none()
            .with_window(2.0, 2.0, FaultConfig::default())
            .unwrap_err();
        assert_eq!(
            err,
            FaultError::Window {
                from_s: 2.0,
                until_s: 2.0
            }
        );
        assert!(err.to_string().contains("empty or inverted"));
    }

    /// A config whose sync-loss probability doubles as a label.
    fn sync(p: f64) -> FaultConfig {
        FaultConfig::builder().sync_loss_chance(p).build().unwrap()
    }

    #[test]
    fn config_at_exact_window_edges_is_half_open() {
        // Pinned: [from_s, until_s) — inclusive start, exclusive end.
        let s = FaultSchedule::none()
            .with_window(1.0, 2.0, sync(0.5))
            .unwrap();
        assert_eq!(
            s.config_at(1.0).control.sync_loss_chance,
            0.5,
            "t == from_s is inside"
        );
        assert_eq!(
            s.config_at(2.0).control.sync_loss_chance,
            0.0,
            "t == until_s is outside"
        );
        assert_eq!(
            s.config_at(1.0 + f64::EPSILON).control.sync_loss_chance,
            0.5
        );
        assert_eq!(
            s.config_at(2.0 - f64::EPSILON).control.sync_loss_chance,
            0.5
        );
        // Adjacent windows sharing a boundary hand over exactly once.
        let s = FaultSchedule::none()
            .with_window(0.0, 1.0, sync(0.1))
            .unwrap()
            .with_window(1.0, 2.0, sync(0.9))
            .unwrap();
        assert_eq!(s.config_at(1.0).control.sync_loss_chance, 0.9);
        assert_eq!(
            s.config_at(1.0 - f64::EPSILON).control.sync_loss_chance,
            0.1
        );
    }

    #[test]
    fn overlapping_windows_last_added_wins_at_exact_boundaries() {
        // Two windows with IDENTICAL endpoints: the later with_window call
        // wins everywhere in the window, including at from_s itself.
        let s = FaultSchedule::none()
            .with_window(1.0, 2.0, sync(0.2))
            .unwrap()
            .with_window(1.0, 2.0, sync(0.8))
            .unwrap();
        assert_eq!(s.config_at(1.0).control.sync_loss_chance, 0.8);
        assert_eq!(s.config_at(1.5).control.sync_loss_chance, 0.8);
        assert_eq!(s.config_at(2.0).control.sync_loss_chance, 0.0);
        // Partial overlap where the later window *starts* at the earlier
        // one's exact end: no instant belongs to both, no instant to
        // neither.
        let s = FaultSchedule::none()
            .with_window(0.0, 5.0, sync(0.3))
            .unwrap()
            .with_window(2.0, 3.0, sync(0.7))
            .unwrap();
        assert_eq!(
            s.config_at(2.0).control.sync_loss_chance,
            0.7,
            "overlay start edge"
        );
        assert_eq!(
            s.config_at(3.0).control.sync_loss_chance,
            0.3,
            "overlay end edge"
        );
        // Reversed insertion order flips the winner — order is semantic.
        let s = FaultSchedule::none()
            .with_window(2.0, 3.0, sync(0.7))
            .unwrap()
            .with_window(0.0, 5.0, sync(0.3))
            .unwrap();
        assert_eq!(s.config_at(2.5).control.sync_loss_chance, 0.3);
    }

    #[test]
    fn zero_length_inverted_and_nan_windows_rejected() {
        // Zero-length: [t, t) covers no instant under half-open semantics,
        // so construction refuses it rather than silently never matching.
        for (from, until) in [(2.0, 2.0), (3.0, 2.0), (f64::NAN, 1.0), (1.0, f64::NAN)] {
            let err = FaultSchedule::none()
                .with_window(from, until, FaultConfig::default())
                .unwrap_err();
            assert!(matches!(err, FaultError::Window { .. }), "{from}..{until}");
        }
        // A valid schedule stays usable after a rejected extension attempt
        // (with_window consumes self; the Ok path re-binds).
        let s = FaultSchedule::none()
            .with_window(0.0, 1.0, sync(0.5))
            .unwrap();
        assert_eq!(s.config_at(0.5).control.sync_loss_chance, 0.5);
    }

    #[test]
    fn fault_error_display() {
        let e = FaultError::Probability("drop_chance", 1.5);
        assert!(e.to_string().contains("drop_chance"));
        assert!(e.to_string().contains("outside [0, 1]"));
    }
}
