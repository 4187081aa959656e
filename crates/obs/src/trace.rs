//! The trace pipeline: an append-only, seq-numbered event log with
//! pluggable sinks.
//!
//! Emission discipline: components *own* their trace (the medium, the fast
//! network, the traffic simulator each keep one), stamp events with the
//! clock of their own time domain, and the [`crate::TraceQuery`] API reads
//! streams after the fact. Disabled traces cost one branch per event, so
//! clean runs stay byte-identical whether or not the binary was built with
//! observability in mind.

use crate::event::{Event, EventKind};
use crate::query::TraceQuery;
use crate::sink::TraceSink;

/// An append-only event log with optional streaming sinks.
///
/// Not `Clone`: a trace identifies one component's event stream, and sinks
/// (files, rings) cannot be meaningfully duplicated.
#[derive(Default)]
pub struct Trace {
    events: Vec<Event>,
    enabled: bool,
    buffer: bool,
    next_seq: u64,
    sinks: Vec<Box<dyn TraceSink + Send>>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.enabled)
            .field("events", &self.events.len())
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Trace {
    /// Creates a disabled trace (enable with [`Trace::enable`]).
    pub fn new() -> Self {
        Trace {
            events: Vec::new(),
            enabled: false,
            buffer: true,
            next_seq: 0,
            sinks: Vec::new(),
        }
    }

    /// Starts recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Turns the in-memory buffer on/off (on by default). With buffering
    /// off, events stream to sinks only — for long runs dumped straight to
    /// a JSONL file.
    pub fn set_buffering(&mut self, on: bool) {
        self.buffer = on;
    }

    /// Attaches a streaming sink (and implies nothing about `enabled` —
    /// call [`Trace::enable`] separately).
    pub fn attach_sink(&mut self, sink: impl TraceSink + Send + 'static) {
        self.sinks.push(Box::new(sink));
    }

    /// Detaches every sink, flushing each first.
    pub fn detach_sinks(&mut self) {
        for s in self.sinks.iter_mut() {
            s.flush();
        }
        self.sinks.clear();
    }

    /// Flushes all attached sinks.
    pub fn flush(&mut self) {
        for s in self.sinks.iter_mut() {
            s.flush();
        }
    }

    /// Records an event at time `t` if enabled, assigning the next
    /// sequence number.
    pub fn emit(&mut self, t: f64, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let e = Event {
            seq: self.next_seq,
            t,
            kind,
        };
        self.next_seq += 1;
        for s in self.sinks.iter_mut() {
            s.record(&e);
        }
        if self.buffer {
            self.events.push(e);
        }
    }

    /// All buffered events in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// A query over the buffered events.
    pub fn query(&self) -> TraceQuery<'_> {
        TraceQuery::new(&self.events)
    }

    /// The buffered events as JSON lines (the replay format).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for e in &self.events {
            e.write_json(&mut s);
            s.push('\n');
        }
        s
    }

    /// Number of buffered events matching a predicate on the kind.
    pub fn count(&self, pred: impl Fn(&EventKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropCause;
    use crate::sink::RingBufferSink;

    #[test]
    fn disabled_by_default() {
        let mut t = Trace::new();
        t.emit(
            0.0,
            EventKind::Dropped {
                node: 0,
                cause: DropCause::Fault,
            },
        );
        assert!(t.events().is_empty());
    }

    #[test]
    fn records_when_enabled_and_assigns_seq() {
        let mut t = Trace::new();
        t.enable();
        t.emit(
            0.5,
            EventKind::Transmit {
                node: 1,
                len: 80,
                power: 0.01,
            },
        );
        t.emit(
            0.6,
            EventKind::Dropped {
                node: 2,
                cause: DropCause::Fault,
            },
        );
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0].seq, 0);
        assert_eq!(t.events()[1].seq, 1);
        assert_eq!(t.query().kind("Transmit").count(), 1);
        assert_eq!(t.query().kind("Dropped").count(), 1);
    }

    #[test]
    fn disable_keeps_history() {
        let mut t = Trace::new();
        t.enable();
        t.emit(0.0, EventKind::Render { node: 0, len: 10 });
        t.enabled = false;
        t.emit(
            1.0,
            EventKind::Dropped {
                node: 0,
                cause: DropCause::Fault,
            },
        );
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn counters_cover_the_taxonomy() {
        let mut t = Trace::new();
        t.enable();
        t.emit(0.0, EventKind::Enqueued { client: 0, id: 1 });
        t.emit(0.1, EventKind::LeadElected { ap: 2 });
        t.emit(0.1, EventKind::BatchSelected { n_packets: 3 });
        t.emit(0.2, EventKind::Acked { client: 0, id: 1 });
        t.emit(
            0.2,
            EventKind::Retry {
                client: 1,
                id: 2,
                attempt: 1,
            },
        );
        t.emit(
            0.3,
            EventKind::Dropped {
                node: 1,
                cause: DropCause::RetryLimit,
            },
        );
        t.emit(0.4, EventKind::ApDown { ap: 0 });
        t.emit(0.5, EventKind::ApUp { ap: 0 });
        t.emit(0.6, EventKind::Corrupted { node: 1 });
        t.emit(0.7, EventKind::SyncMissed { slave: 2 });
        t.emit(0.7, EventKind::CsiStale { age_s: 0.1 });
        t.emit(
            0.7,
            EventKind::RemeasureScheduled {
                at: 0.8,
                attempt: 1,
            },
        );
        t.emit(0.8, EventKind::RemeasureFailed { attempt: 1 });
        t.emit(0.9, EventKind::ApDegraded { ap: 2 });
        t.emit(1.0, EventKind::ApRestored { ap: 2 });
        for kind in [
            "SyncMissed",
            "RemeasureScheduled",
            "RemeasureFailed",
            "ApDegraded",
            "ApRestored",
            "Acked",
            "Retry",
            "Corrupted",
            "Dropped",
        ] {
            assert_eq!(t.query().kind(kind).count(), 1, "{kind}");
        }
        let dropped_by =
            |cause| t.count(|k| matches!(k, EventKind::Dropped { cause: c, .. } if *c == cause));
        assert_eq!(dropped_by(DropCause::RetryLimit), 1);
        assert_eq!(dropped_by(DropCause::Fault), 0);
    }

    #[test]
    fn sinks_receive_streamed_events() {
        let mut t = Trace::new();
        t.attach_sink(RingBufferSink::new(2));
        t.enable();
        for i in 0..4 {
            t.emit(i as f64, EventKind::LeadElected { ap: i });
        }
        // Buffer keeps everything; the jsonl rendering round-trips.
        assert_eq!(t.events().len(), 4);
        let lines: Vec<Event> = t
            .to_jsonl()
            .lines()
            .map(|l| Event::from_json(l).unwrap())
            .collect();
        assert_eq!(lines, t.events());
        t.detach_sinks();
    }

    #[test]
    fn unbuffered_mode_streams_only() {
        let mut t = Trace::new();
        t.set_buffering(false);
        t.enable();
        t.emit(0.0, EventKind::LeadElected { ap: 0 });
        assert!(t.events().is_empty());
    }
}
