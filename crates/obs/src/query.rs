//! Trace replay and assertion API.
//!
//! [`TraceQuery`] is a small builder over a recorded (or replayed) event
//! slice: narrow by kind / AP / time-window, then read counts and times or
//! assert protocol properties — monotone timestamps and sequence numbers.
//! Assertions panic with the offending events in
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
    /// true for a single trace; catches splicing mistakes when
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
            .assert_monotone_seq();
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn monotone_time_catches_regression() {
        let mut es = stream();
        es[3].t = 0.05;
        let _ = TraceQuery::new(&es).assert_monotone_time();
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
