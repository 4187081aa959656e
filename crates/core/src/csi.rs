//! CSI freshness tracking and per-slave sync health (§7, robustness).
//!
//! JMB decouples channel measurement from data transmission (§7): CSI is
//! measured once and then *aged* while the phase-sync layer extrapolates.
//! When a measurement frame is lost the CSI simply stays stale — the
//! system must notice, re-measure, and back off if re-measurements keep
//! failing, rather than hammering the channel or stalling. [`CsiTracker`]
//! owns that logic: per-(AP, client) measurement timestamps, an age →
//! confidence map, and a capped exponential backoff schedule.
//!
//! [`SyncHealth`] is the companion for the *sync header*: a slave that
//! misses the lead's header K times in a row is marked degraded and
//! excluded from joint batches until it hears a header again.

use crate::error::JmbError;

/// Capped exponential backoff for re-measurement attempts.
///
/// Attempt `n` (1-based) is delayed by `initial_s * multiplier^(n-1)`,
/// saturating at `max_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Delay after the first failure, seconds.
    pub initial_s: f64,
    /// Growth factor per consecutive failure.
    pub multiplier: f64,
    /// Upper bound on the delay, seconds.
    pub max_s: f64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        // 2 ms first retry — roughly one joint-transmission airtime — doubling
        // up to 64 ms, the order of the channel coherence time budget.
        BackoffPolicy {
            initial_s: 2e-3,
            multiplier: 2.0,
            max_s: 64e-3,
        }
    }
}

impl BackoffPolicy {
    /// Delay before attempt number `failures` (1-based), seconds.
    pub fn delay_s(&self, failures: u32) -> f64 {
        let exp = failures.saturating_sub(1).min(63);
        (self.initial_s * self.multiplier.powi(exp as i32)).min(self.max_s)
    }
}

/// Tracks per-(AP, client) CSI age and schedules backoff re-measurement.
///
/// Time is the caller's simulation clock in seconds; the tracker never
/// reads a wall clock. Entries start at "never measured" and become due
/// immediately.
#[derive(Debug, Clone)]
pub struct CsiTracker {
    n_aps: usize,
    n_clients: usize,
    /// Flattened (ap, client) → time of last successful measurement;
    /// `NEG_INFINITY` means never measured.
    measured_at: Vec<f64>,
    stale_after_s: f64,
    policy: BackoffPolicy,
    failures: u32,
    next_attempt_s: f64,
}

impl CsiTracker {
    /// Creates a tracker for an `n_aps × n_clients` CSI matrix that
    /// considers entries stale after `stale_after_s` seconds.
    pub fn new(
        n_aps: usize,
        n_clients: usize,
        stale_after_s: f64,
        policy: BackoffPolicy,
    ) -> Result<Self, JmbError> {
        if n_aps == 0 || n_clients == 0 {
            return Err(JmbError::BadConfig(
                "CsiTracker needs at least one AP and one client",
            ));
        }
        // The comparisons reject NaN too (any comparison with NaN is false).
        let positive = |x: f64| x > 0.0;
        let at_least_one = |x: f64| x >= 1.0;
        if !positive(stale_after_s) {
            return Err(JmbError::BadConfig(
                "CSI staleness threshold must be positive",
            ));
        }
        if !positive(policy.initial_s)
            || !at_least_one(policy.multiplier)
            || !positive(policy.max_s)
        {
            return Err(JmbError::BadConfig(
                "backoff needs initial_s > 0, multiplier >= 1, max_s > 0",
            ));
        }
        Ok(CsiTracker {
            n_aps,
            n_clients,
            measured_at: vec![f64::NEG_INFINITY; n_aps * n_clients],
            stale_after_s,
            policy,
            failures: 0,
            next_attempt_s: f64::NEG_INFINITY,
        })
    }

    /// The staleness threshold, seconds.
    pub fn stale_after_s(&self) -> f64 {
        self.stale_after_s
    }

    /// A full joint measurement succeeded at time `t`: every entry is
    /// fresh and the failure streak resets.
    pub fn record_success(&mut self, t: f64) {
        self.measured_at.fill(t);
        self.failures = 0;
        self.next_attempt_s = t;
    }

    /// A single-client re-measurement (§7 decoupled measurement) succeeded
    /// at time `t`; only that client's column is refreshed.
    pub fn record_client_success(&mut self, client: usize, t: f64) {
        if client >= self.n_clients {
            return;
        }
        for ap in 0..self.n_aps {
            self.measured_at[ap * self.n_clients + client] = t;
        }
        self.failures = 0;
        self.next_attempt_s = t;
    }

    /// A measurement frame was lost at time `t`. Advances the backoff and
    /// returns `(attempt_number, next_attempt_time_s)` for the retry that
    /// was just scheduled.
    pub fn record_loss(&mut self, t: f64) -> (u32, f64) {
        self.failures += 1;
        let delay = self.policy.delay_s(self.failures);
        self.next_attempt_s = t + delay;
        (self.failures, self.next_attempt_s)
    }

    /// Consecutive failed measurement attempts since the last success.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Earliest time the next measurement attempt may run, seconds.
    pub fn next_attempt_s(&self) -> f64 {
        self.next_attempt_s
    }

    /// Age of one CSI entry at time `t` (infinite if never measured).
    pub fn age(&self, ap: usize, client: usize, t: f64) -> f64 {
        let at = self.measured_at[ap * self.n_clients + client];
        if at == f64::NEG_INFINITY {
            f64::INFINITY
        } else {
            (t - at).max(0.0)
        }
    }

    /// Age of the *oldest* CSI entry at time `t`.
    pub fn oldest_age(&self, t: f64) -> f64 {
        let oldest = self
            .measured_at
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        if oldest == f64::NEG_INFINITY {
            f64::INFINITY
        } else {
            (t - oldest).max(0.0)
        }
    }

    /// Confidence in one entry at time `t`: `exp(-age / stale_after)`,
    /// so 1.0 when fresh, `1/e` exactly at the staleness threshold.
    pub fn confidence(&self, ap: usize, client: usize, t: f64) -> f64 {
        (-self.age(ap, client, t) / self.stale_after_s).exp()
    }

    /// Whether any entry has outlived the staleness threshold at time `t`.
    pub fn is_stale(&self, t: f64) -> bool {
        self.oldest_age(t) > self.stale_after_s
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
        let p = BackoffPolicy {
            initial_s: 1e-3,
            multiplier: 2.0,
            max_s: 8e-3,
        };
        assert!((p.delay_s(1) - 1e-3).abs() < 1e-12);
        assert!((p.delay_s(2) - 2e-3).abs() < 1e-12);
        assert!((p.delay_s(3) - 4e-3).abs() < 1e-12);
        assert!((p.delay_s(4) - 8e-3).abs() < 1e-12);
        assert!((p.delay_s(10) - 8e-3).abs() < 1e-12, "capped");
        assert!((p.delay_s(100) - 8e-3).abs() < 1e-12, "no overflow");
    }

    #[test]
    fn tracker_rejects_bad_config() {
        let p = BackoffPolicy::default();
        assert!(matches!(
            CsiTracker::new(0, 4, 0.05, p),
            Err(JmbError::BadConfig(_))
        ));
        assert!(matches!(
            CsiTracker::new(4, 0, 0.05, p),
            Err(JmbError::BadConfig(_))
        ));
        assert!(matches!(
            CsiTracker::new(4, 4, 0.0, p),
            Err(JmbError::BadConfig(_))
        ));
        let bad = BackoffPolicy {
            multiplier: 0.5,
            ..p
        };
        assert!(matches!(
            CsiTracker::new(4, 4, 0.05, bad),
            Err(JmbError::BadConfig(_))
        ));
    }

    #[test]
    fn never_measured_is_due_immediately() {
        let t = CsiTracker::new(2, 2, 0.05, BackoffPolicy::default()).unwrap();
        assert!(t.is_stale(0.0));
        assert!(t.due(0.0));
        assert_eq!(t.age(0, 0, 1.0), f64::INFINITY);
        assert_eq!(t.confidence(0, 0, 1.0), 0.0);
    }

    #[test]
    fn success_resets_age_and_failures() {
        let mut t = CsiTracker::new(2, 2, 0.05, BackoffPolicy::default()).unwrap();
        t.record_loss(0.0);
        t.record_loss(0.01);
        assert_eq!(t.failures(), 2);
        t.record_success(0.02);
        assert_eq!(t.failures(), 0);
        assert!((t.age(1, 1, 0.03) - 0.01).abs() < 1e-12);
        assert!(!t.is_stale(0.03));
        assert!(!t.due(0.03));
        // Past the threshold it becomes due again.
        assert!(t.due(0.08));
    }

    #[test]
    fn client_success_refreshes_one_column() {
        let mut t = CsiTracker::new(2, 3, 0.05, BackoffPolicy::default()).unwrap();
        t.record_success(0.0);
        t.record_client_success(1, 0.1);
        assert!((t.age(0, 1, 0.1)).abs() < 1e-12);
        assert!((t.age(0, 0, 0.1) - 0.1).abs() < 1e-12);
        assert!((t.oldest_age(0.1) - 0.1).abs() < 1e-12);
        // Out-of-range client is ignored rather than panicking.
        t.record_client_success(99, 0.2);
    }

    #[test]
    fn loss_schedules_capped_exponential_retries() {
        let p = BackoffPolicy {
            initial_s: 2e-3,
            multiplier: 2.0,
            max_s: 8e-3,
        };
        let mut t = CsiTracker::new(1, 1, 0.05, p).unwrap();
        let (a1, at1) = t.record_loss(1.0);
        assert_eq!(a1, 1);
        assert!((at1 - 1.002).abs() < 1e-9);
        assert!(!t.due(1.001), "backoff gates the retry");
        assert!(t.due(1.002));
        let (a2, at2) = t.record_loss(1.002);
        assert_eq!(a2, 2);
        assert!((at2 - 1.006).abs() < 1e-9);
        let (_, at3) = t.record_loss(at2);
        let (_, at4) = t.record_loss(at3);
        let (a5, at5) = t.record_loss(at4);
        assert_eq!(a5, 5);
        assert!((at5 - at4 - 8e-3).abs() < 1e-9, "delay saturates at max_s");
    }

    #[test]
    fn confidence_decays_with_age() {
        let mut t = CsiTracker::new(1, 1, 0.1, BackoffPolicy::default()).unwrap();
        t.record_success(0.0);
        assert!((t.confidence(0, 0, 0.0) - 1.0).abs() < 1e-12);
        let at_thresh = t.confidence(0, 0, 0.1);
        assert!((at_thresh - (-1.0f64).exp()).abs() < 1e-12);
        assert!(t.confidence(0, 0, 0.2) < at_thresh);
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
