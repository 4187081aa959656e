//! Scoped wall-clock timers for hot kernels.
//!
//! A span measures real elapsed time, which varies machine to machine and
//! run to run — so span data lives in a process-global table and **never**
//! enters the event trace (traces must stay byte-identical across thread
//! counts and hosts). The table is gated by one atomic bool so a disabled
//! span costs a single relaxed load; enabling is an explicit opt-in from
//! perf tooling (the repo benchmark's traced pass), never the default.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

// Determinism audit (`no-unordered-iteration`): the span table is a
// `BTreeMap` so `snapshot()` reports in name order — already-ordered, and
// wall-clock data never reaches traces/CSVs regardless.
fn table() -> &'static Mutex<BTreeMap<&'static str, SpanStat>> {
    static TABLE: OnceLock<Mutex<BTreeMap<&'static str, SpanStat>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Aggregate wall-clock statistics for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
    /// Longest single entry, nanoseconds.
    pub max_ns: u64,
}

/// Turns span recording on or off process-wide.
pub fn set_spans_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently on.
pub fn spans_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all recorded span statistics.
pub fn reset_spans() {
    table().lock().unwrap().clear();
}

/// Snapshot of all span statistics, in name order.
pub fn span_report() -> Vec<(&'static str, SpanStat)> {
    table()
        .lock()
        .unwrap()
        .iter()
        .map(|(&n, &s)| (n, s))
        .collect()
}

/// Times a scope: the returned guard records elapsed wall-clock time into
/// the global table on drop. When recording is disabled the guard is inert
/// (one relaxed atomic load at construction, nothing at drop).
///
/// ```
/// jmb_obs::set_spans_enabled(true);
/// {
///     let _g = jmb_obs::span("fft");
///     // ... kernel work ...
/// }
/// let report = jmb_obs::span_report();
/// assert_eq!(report[0].0, "fft");
/// assert_eq!(report[0].1.count, 1);
/// # jmb_obs::set_spans_enabled(false);
/// # jmb_obs::reset_spans();
/// ```
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        start: if spans_enabled() {
            Some((name, Instant::now()))
        } else {
            None
        },
    }
}

/// Guard returned by [`span`]; records on drop.
#[derive(Debug)]
pub struct SpanGuard {
    start: Option<(&'static str, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, start)) = self.start.take() {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let mut t = table().lock().unwrap();
            let s = t.entry(name).or_default();
            s.count += 1;
            s.total_ns += ns;
            s.max_ns = s.max_ns.max(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test exercises the whole lifecycle: the table is process-global,
    // so separate #[test] fns would race each other under the parallel
    // test runner.
    #[test]
    fn span_lifecycle() {
        reset_spans();

        // Disabled: nothing recorded.
        assert!(!spans_enabled());
        {
            let _g = span("idle");
        }
        assert!(span_report().is_empty());

        set_spans_enabled(true);
        {
            let _g = span("kernel_b");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        {
            let _g = span("kernel_a");
        }
        {
            let _g = span("kernel_b");
        }
        set_spans_enabled(false);

        let report = span_report();
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].0, "kernel_a"); // name order
        assert_eq!(report[0].1.count, 1);
        assert_eq!(report[1].0, "kernel_b");
        assert_eq!(report[1].1.count, 2);
        assert!(report[1].1.total_ns >= 1_000_000);
        assert!(report[1].1.max_ns <= report[1].1.total_ns);

        reset_spans();
        assert!(span_report().is_empty());
    }
}
