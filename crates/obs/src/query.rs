//! Trace replay and assertion API.
//!
//! [`TraceQuery`] is a small builder over a recorded (or replayed) event
//! slice: narrow by kind / AP / client / node / time-window, then read
//! counts and times or assert protocol properties — ordering, monotone
//! timestamps, count bounds. Assertions panic with the offending events in
//! the message, so a failing integration test points straight at the
//! stream.

use crate::event::Event;
use std::io::{self, BufRead};
use std::path::Path;

/// A filtered view over an event slice.
#[derive(Debug, Clone)]
pub struct TraceQuery<'a> {
    events: Vec<&'a Event>,
}

impl<'a> TraceQuery<'a> {
    /// Queries everything in `events` (e.g. `trace.events()` or a replayed
    /// [`read_jsonl`] vector).
    pub fn new(events: &'a [Event]) -> Self {
        TraceQuery {
            events: events.iter().collect(),
        }
    }

    /// Narrows to events whose kind name equals `name` (see
    /// [`crate::EventKind::name`]).
    pub fn kind(mut self, name: &str) -> Self {
        self.events.retain(|e| e.kind.name() == name);
        self
    }

    /// Narrows to events concerning AP `ap` (slave indices count as APs).
    pub fn ap(mut self, ap: usize) -> Self {
        self.events.retain(|e| e.kind.ap() == Some(ap));
        self
    }

    /// Narrows to events concerning client `client`.
    pub fn client(mut self, client: usize) -> Self {
        self.events.retain(|e| e.kind.client() == Some(client));
        self
    }

    /// Narrows to events concerning medium node `node`.
    pub fn node(mut self, node: usize) -> Self {
        self.events.retain(|e| e.kind.node() == Some(node));
        self
    }

    /// Narrows to the half-open time window `[t0, t1)`.
    pub fn between(mut self, t0: f64, t1: f64) -> Self {
        self.events.retain(|e| e.t >= t0 && e.t < t1);
        self
    }

    /// The selected events, in stream order.
    pub fn events(&self) -> &[&'a Event] {
        &self.events
    }

    /// Number of selected events.
    pub fn count(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing matched.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// First selected event, if any.
    pub fn first(&self) -> Option<&'a Event> {
        self.events.first().copied()
    }

    /// Last selected event, if any.
    pub fn last(&self) -> Option<&'a Event> {
        self.events.last().copied()
    }

    /// Asserts timestamps never decrease along the stream. Returns `self`
    /// for chaining.
    ///
    /// This is the guard for clock-domain bugs: a component that stamps
    /// events with a clock that runs ahead of (and later falls back to)
    /// another time domain produces a stream that violates this.
    #[track_caller]
    pub fn assert_monotone_time(self) -> Self {
        for w in self.events.windows(2) {
            assert!(
                w[1].t >= w[0].t,
                "trace time went backwards: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        self
    }

    /// Asserts sequence numbers strictly increase along the stream (always
    /// true for a single un-cleared trace; catches splicing mistakes when
    /// streams are merged or replayed). Returns `self` for chaining.
    #[track_caller]
    pub fn assert_monotone_seq(self) -> Self {
        for w in self.events.windows(2) {
            assert!(
                w[1].seq > w[0].seq,
                "trace seq not increasing: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        self
    }

    /// Asserts the selected count lies in `[lo, hi]` (inclusive). Returns
    /// `self` for chaining.
    #[track_caller]
    pub fn assert_count_between(self, lo: usize, hi: usize) -> Self {
        let n = self.events.len();
        assert!(
            n >= lo && n <= hi,
            "event count {n} outside [{lo}, {hi}]; first: {:?}",
            self.events.first()
        );
        self
    }

    /// Asserts the first `first`-kind event precedes the first
    /// `second`-kind event (both must exist among the selected events).
    /// Returns `self` for chaining.
    #[track_caller]
    pub fn assert_precedes(self, first: &str, second: &str) -> Self {
        let a = self
            .events
            .iter()
            .find(|e| e.kind.name() == first)
            .unwrap_or_else(|| panic!("no {first} event in stream"));
        let b = self
            .events
            .iter()
            .find(|e| e.kind.name() == second)
            .unwrap_or_else(|| panic!("no {second} event in stream"));
        assert!(
            (a.t, a.seq) <= (b.t, b.seq),
            "{first} ({a:?}) does not precede {second} ({b:?})"
        );
        self
    }
}

/// Replays a JSON-lines trace file written via
/// [`crate::sink::JsonLinesSink`] (or [`crate::Trace::to_jsonl`]). Blank
/// lines are skipped; a malformed line is an error naming its line number.
pub fn read_jsonl(path: impl AsRef<Path>) -> io::Result<Vec<Event>> {
    let f = std::fs::File::open(path)?;
    let mut out = Vec::new();
    for (i, line) in io::BufReader::new(f).lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let e = Event::from_json(&line).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad trace line {}: {line}", i + 1),
            )
        })?;
        out.push(e);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn stream() -> Vec<Event> {
        let kinds = vec![
            EventKind::Enqueued { client: 0, id: 1 },
            EventKind::LeadElected { ap: 1 },
            EventKind::SyncMissed { slave: 2 },
            EventKind::ApDegraded { ap: 2 },
            EventKind::Acked { client: 0, id: 1 },
            EventKind::ApRestored { ap: 2 },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                seq: i as u64,
                t: 0.1 * i as f64,
                kind,
            })
            .collect()
    }

    #[test]
    fn filters_compose() {
        let es = stream();
        assert_eq!(TraceQuery::new(&es).kind("SyncMissed").count(), 1);
        assert_eq!(TraceQuery::new(&es).ap(2).count(), 3);
        assert_eq!(TraceQuery::new(&es).ap(2).kind("ApDegraded").count(), 1);
        assert_eq!(TraceQuery::new(&es).client(0).count(), 2);
        assert_eq!(TraceQuery::new(&es).between(0.15, 0.45).count(), 3);
        assert!(TraceQuery::new(&es).kind("Render").is_empty());
        let times: Vec<f64> = TraceQuery::new(&es).events().iter().map(|e| e.t).collect();
        assert_eq!(times, vec![0.0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5]);
    }

    #[test]
    fn assertions_pass_on_well_formed_stream() {
        let es = stream();
        TraceQuery::new(&es)
            .assert_monotone_time()
            .assert_monotone_seq()
            .assert_count_between(6, 6)
            .assert_precedes("ApDegraded", "ApRestored")
            .assert_precedes("Enqueued", "Acked");
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn monotone_time_catches_regression() {
        let mut es = stream();
        es[3].t = 0.05;
        let _ = TraceQuery::new(&es).assert_monotone_time();
    }

    #[test]
    #[should_panic(expected = "does not precede")]
    fn precedes_catches_inversion() {
        let mut es = stream();
        es.swap(3, 5); // restore now before degrade
        let es: Vec<Event> = es
            .into_iter()
            .enumerate()
            .map(|(i, mut e)| {
                e.seq = i as u64;
                e.t = 0.1 * i as f64;
                e
            })
            .collect();
        let _ = TraceQuery::new(&es).assert_precedes("ApDegraded", "ApRestored");
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn count_bound_catches_excess() {
        let es = stream();
        let _ = TraceQuery::new(&es).assert_count_between(0, 2);
    }

    #[test]
    fn jsonl_file_roundtrip() {
        let es = stream();
        let path = std::env::temp_dir().join("jmb_obs_query_test.jsonl");
        let mut body = String::new();
        for e in &es {
            body.push_str(&e.to_json());
            body.push('\n');
        }
        std::fs::write(&path, body).unwrap();
        let back = read_jsonl(&path).unwrap();
        assert_eq!(back, es);
        std::fs::remove_file(&path).ok();
    }
}
