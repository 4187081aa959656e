//! CSI freshness tracking and per-slave sync health (§7, robustness).
//!
//! JMB decouples channel measurement from data transmission (§7): CSI is
//! measured once and then *aged* while the phase-sync layer extrapolates.
//! When a measurement frame is lost the CSI simply stays stale — the
//! system must notice, re-measure, and back off if re-measurements keep
//! failing, rather than hammering the channel or stalling. [`CsiTracker`]
//! owns that logic: the time of the last joint measurement and a capped
//! exponential backoff schedule.
//!
//! [`SyncHealth`] is the companion for the *sync header*: a slave that
//! misses the lead's header K times in a row is marked degraded and
//! excluded from joint batches until it hears a header again.

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

/// Tracks the CSI's age and schedules backoff re-measurement.
///
/// A joint measurement refreshes every (AP, client) entry at once, so one
/// timestamp is the age of them all. Time is the caller's simulation clock
/// in seconds; the tracker never reads a wall clock. It starts at "never
/// measured" and is due immediately.
#[derive(Debug, Clone)]
pub struct CsiTracker {
    /// Time of the last successful measurement; `NEG_INFINITY` means never
    /// measured.
    measured_at: f64,
    failures: u32,
    next_attempt_s: f64,
}

impl Default for CsiTracker {
    fn default() -> Self {
        CsiTracker {
            measured_at: f64::NEG_INFINITY,
            failures: 0,
            next_attempt_s: f64::NEG_INFINITY,
        }
    }
}

impl CsiTracker {
    /// Channel age after which the next batch triggers re-measurement,
    /// seconds.
    pub const STALE_AFTER_S: f64 = 50e-3;
    /// Delay after the first lost measurement, seconds: roughly one
    /// joint-transmission airtime. Each further loss doubles it.
    const BACKOFF_INITIAL_S: f64 = 2e-3;
    /// Cap on the backoff delay, seconds: the order of the channel
    /// coherence time budget.
    const BACKOFF_MAX_S: f64 = 64e-3;

    /// Delay before attempt number `failures` (1-based), seconds:
    /// `2 ms · 2^(failures − 1)`, saturating at 64 ms.
    fn backoff_delay_s(failures: u32) -> f64 {
        let exp = failures.saturating_sub(1).min(63);
        (Self::BACKOFF_INITIAL_S * 2f64.powi(exp as i32)).min(Self::BACKOFF_MAX_S)
    }

    /// A full joint measurement succeeded at time `t`: the CSI is fresh and
    /// the failure streak resets.
    pub fn record_success(&mut self, t: f64) {
        self.measured_at = t;
        self.failures = 0;
        self.next_attempt_s = t;
    }

    /// A measurement frame was lost at time `t`. Advances the backoff and
    /// returns `(attempt_number, next_attempt_time_s)` for the retry that
    /// was just scheduled.
    pub fn record_loss(&mut self, t: f64) -> (u32, f64) {
        self.failures += 1;
        self.next_attempt_s = t + Self::backoff_delay_s(self.failures);
        (self.failures, self.next_attempt_s)
    }

    /// Consecutive failed measurement attempts since the last success.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Age of the CSI at time `t` (infinite if never measured).
    pub fn oldest_age(&self, t: f64) -> f64 {
        if self.measured_at == f64::NEG_INFINITY {
            f64::INFINITY
        } else {
            (t - self.measured_at).max(0.0)
        }
    }

    /// Whether the CSI has outlived [`Self::STALE_AFTER_S`] at time `t`.
    pub fn is_stale(&self, t: f64) -> bool {
        self.oldest_age(t) > Self::STALE_AFTER_S
    }

    /// Whether a (re-)measurement should run at time `t`: the CSI is
    /// stale (or was never measured) *and* the backoff window has passed.
    pub fn due(&self, t: f64) -> bool {
        self.is_stale(t) && t >= self.next_attempt_s
    }
}

/// Per-slave sync-header health: K consecutive misses mark the slave
/// degraded; hearing a header again restores it. Written only by
/// [`crate::control::ControlPlane`]; everyone else reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncHealth {
    degrade_after: u32,
    consecutive_misses: u32,
    degraded: bool,
}

impl SyncHealth {
    /// Creates a healthy slave that degrades after `degrade_after`
    /// consecutive missed sync headers (minimum 1).
    pub(crate) fn new(degrade_after: u32) -> Self {
        SyncHealth {
            degrade_after: degrade_after.max(1),
            consecutive_misses: 0,
            degraded: false,
        }
    }

    /// Records a missed sync header. Returns `true` iff this miss newly
    /// degraded the slave.
    pub(crate) fn record_miss(&mut self) -> bool {
        self.consecutive_misses += 1;
        if !self.degraded && self.consecutive_misses >= self.degrade_after {
            self.degraded = true;
            return true;
        }
        false
    }

    /// Records a successfully heard sync header. Returns `true` iff the
    /// slave was degraded and is newly restored.
    pub(crate) fn record_sync(&mut self) -> bool {
        self.consecutive_misses = 0;
        let was = self.degraded;
        self.degraded = false;
        was
    }

    /// Whether the slave is currently degraded.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }
}

impl Default for SyncHealth {
    /// Degrades after 3 consecutive misses.
    fn default() -> Self {
        SyncHealth::new(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let delay = CsiTracker::backoff_delay_s;
        for (failures, ms) in [(1, 2.0), (2, 4.0), (3, 8.0), (6, 64.0), (7, 64.0)] {
            assert!((delay(failures) - ms * 1e-3).abs() < 1e-12, "{failures}");
        }
        assert!((delay(100) - 64e-3).abs() < 1e-12, "no overflow");
    }

    #[test]
    fn never_measured_is_due_immediately() {
        let t = CsiTracker::default();
        assert!(t.is_stale(0.0));
        assert!(t.due(0.0));
        assert_eq!(t.oldest_age(1.0), f64::INFINITY);
    }

    #[test]
    fn success_resets_age_and_failures() {
        let mut t = CsiTracker::default();
        t.record_loss(0.0);
        t.record_loss(0.01);
        assert_eq!(t.failures(), 2);
        t.record_success(0.02);
        assert_eq!(t.failures(), 0);
        assert!((t.oldest_age(0.03) - 0.01).abs() < 1e-12);
        assert!(!t.is_stale(0.03));
        assert!(!t.due(0.03));
        // Past the threshold it becomes due again.
        assert!(t.due(0.08));
    }

    #[test]
    fn loss_schedules_capped_exponential_retries() {
        let mut t = CsiTracker::default();
        let (a1, at1) = t.record_loss(1.0);
        assert_eq!(a1, 1);
        assert!((at1 - 1.002).abs() < 1e-9);
        assert!(!t.due(1.001), "backoff gates the retry");
        assert!(t.due(1.002));
        let (a2, at2) = t.record_loss(1.002);
        assert_eq!(a2, 2);
        assert!((at2 - 1.006).abs() < 1e-9);
        let mut at = at2;
        for _ in 0..5 {
            at = t.record_loss(at).1;
        }
        let (a8, at8) = t.record_loss(at);
        assert_eq!(a8, 8);
        assert!((at8 - at - 64e-3).abs() < 1e-9, "delay saturates at 64 ms");
    }

    #[test]
    fn sync_health_degrades_after_k_and_restores() {
        let mut h = SyncHealth::new(3);
        assert!(!h.record_miss());
        assert!(!h.record_miss());
        assert!(!h.is_degraded());
        assert!(h.record_miss(), "third consecutive miss degrades");
        assert!(h.is_degraded());
        assert!(!h.record_miss(), "already degraded: not *newly* degraded");
        assert!(h.record_sync(), "hearing a header restores");
        assert!(!h.is_degraded());
        assert!(!h.record_sync(), "already healthy");
    }

    #[test]
    fn sync_health_streak_resets_on_sync() {
        let mut h = SyncHealth::new(2);
        h.record_miss();
        h.record_sync();
        assert!(!h.record_miss(), "streak was reset");
        assert!(h.record_miss());
    }

    #[test]
    fn sync_health_min_k_is_one() {
        let mut h = SyncHealth::new(0);
        assert!(h.record_miss(), "K clamps to 1");
    }
}
