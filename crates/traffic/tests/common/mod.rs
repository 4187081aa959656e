//! What a [`ControlInfo`] says the control plane did while one batch was
//! served, read in one place so the tests state facts ("slave 1 missed",
//! "attempt 1 was lost") rather than the record's layout.
#![allow(dead_code)] // each test crate uses its own subset

use jmb_obs::EventKind;
use jmb_traffic::ControlInfo;

/// Slaves that missed the batch's sync header, in the order reported.
pub fn missed_slaves(c: &ControlInfo) -> Vec<usize> {
    let slave = |e: &EventKind| match *e {
        EventKind::SyncMissed { slave } => Some(slave),
        _ => None,
    };
    c.events.iter().filter_map(slave).collect()
}

/// Measurement attempts made for the batch: `(attempt, succeeded)`.
pub fn remeasurements(c: &ControlInfo) -> Vec<(u32, bool)> {
    let attempt = |e: &EventKind| match *e {
        EventKind::RemeasureOk { attempt } => Some((attempt, true)),
        EventKind::RemeasureFailed { attempt } => Some((attempt, false)),
        _ => None,
    };
    c.events.iter().filter_map(attempt).collect()
}

/// The backoff retry a lost measurement scheduled:
/// `(next attempt, earliest time in seconds)`.
pub fn retry(c: &ControlInfo) -> Option<(u32, f64)> {
    c.events.iter().find_map(|e| match *e {
        EventKind::RemeasureScheduled { at, attempt } => Some((attempt, at)),
        _ => None,
    })
}

/// Whether the batch was served on CSI past its staleness threshold.
pub fn csi_stale(c: &ControlInfo) -> bool {
    let stale = |e: &EventKind| matches!(e, EventKind::CsiStale { .. });
    c.events.iter().any(stale)
}
