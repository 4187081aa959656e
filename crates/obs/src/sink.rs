//! Pluggable trace destinations.
//!
//! A [`crate::Trace`] always keeps its in-memory buffer (tests query it);
//! sinks are *additional* destinations events stream through as they are
//! emitted — a bounded ring buffer for flight-recorder debugging, a
//! JSON-lines file for offline inspection and replay, or a predicate
//! filter wrapped around either.

use crate::event::Event;
use std::collections::VecDeque;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A destination events stream through at emission time.
pub trait TraceSink {
    /// Receives one event (called in emission order).
    fn record(&mut self, e: &Event);
    /// Flushes any buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// Keeps the most recent `capacity` events — a flight recorder.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    buf: VecDeque<Event>,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events (`capacity` ≥ 1).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, e: &Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(e.clone());
    }
}

/// Streams events as JSON lines to any writer (one event per line, the
/// format [`crate::query::read_jsonl`] replays).
pub struct JsonLinesSink<W: Write> {
    w: W,
    /// The line being written, reused from event to event.
    line: String,
}

impl JsonLinesSink<BufWriter<std::fs::File>> {
    /// Creates (truncating) a JSONL file sink.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonLinesSink::new(BufWriter::new(file)))
    }
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps an arbitrary writer (e.g. a `Vec<u8>` in tests).
    pub fn new(w: W) -> Self {
        JsonLinesSink {
            w,
            line: String::new(),
        }
    }

    /// Consumes the sink and returns the writer (flushed).
    pub fn into_inner(mut self) -> W {
        let _ = self.w.flush();
        self.w
    }
}

impl<W: Write> TraceSink for JsonLinesSink<W> {
    fn record(&mut self, e: &Event) {
        // An I/O error must never abort a simulation mid-run; the flush at
        // the end surfaces persistent failures soon enough for tooling.
        self.line.clear();
        e.write_json(&mut self.line);
        self.line.push('\n');
        let _ = self.w.write_all(self.line.as_bytes());
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
    }
}

/// Forwards only events matching a predicate to an inner sink.
pub struct FilterSink<S: TraceSink> {
    pred: Box<dyn Fn(&Event) -> bool + Send>,
    inner: S,
}

impl<S: TraceSink> FilterSink<S> {
    /// Wraps `inner`, forwarding only events where `pred` returns true.
    pub fn new(pred: impl Fn(&Event) -> bool + Send + 'static, inner: S) -> Self {
        FilterSink {
            pred: Box::new(pred),
            inner,
        }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: TraceSink> TraceSink for FilterSink<S> {
    fn record(&mut self, e: &Event) {
        if (self.pred)(e) {
            self.inner.record(e);
        }
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(seq: u64, t: f64, ap: usize) -> Event {
        Event {
            seq,
            t,
            kind: EventKind::LeadElected { ap },
        }
    }

    #[test]
    fn ring_buffer_keeps_tail() {
        let mut s = RingBufferSink::new(3);
        assert!(s.is_empty());
        for i in 0..5 {
            s.record(&ev(i, i as f64, 0));
        }
        assert_eq!(s.len(), 3);
        let seqs: Vec<u64> = s.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let mut s = JsonLinesSink::new(Vec::new());
        s.record(&ev(0, 0.5, 2));
        s.record(&ev(1, 0.75, 3));
        let out = String::from_utf8(s.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(Event::from_json(lines[0]).unwrap(), ev(0, 0.5, 2));
        assert_eq!(Event::from_json(lines[1]).unwrap(), ev(1, 0.75, 3));
    }

    #[test]
    fn filter_sink_forwards_matches_only() {
        let ring = RingBufferSink::new(8);
        let mut f = FilterSink::new(|e| e.kind.ap() == Some(1), ring);
        f.record(&ev(0, 0.0, 0));
        f.record(&ev(1, 0.1, 1));
        f.record(&ev(2, 0.2, 1));
        let seqs: Vec<u64> = f.inner().events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
    }
}
