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
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

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

/// Events a [`JsonLinesSink`] hands its writer thread at once.
const BATCH: usize = 256;

/// Batches on their way to the writer thread at most: a simulation that
/// outruns the writer waits for it rather than queueing its whole trace.
const IN_FLIGHT: usize = 4;

/// What the simulation's side of a [`JsonLinesSink`] tells its writer
/// thread.
enum ToWriter {
    /// Events to write, in order; the emptied batch comes back for reuse.
    Events(Vec<Event>),
    /// Flush the writer, then answer.
    Flush,
}

/// Streams events as JSON lines to any writer (one event per line, the
/// format [`crate::query::read_jsonl`] replays).
///
/// The lines are formatted and written on a thread the sink owns: an event
/// recorded is copied into a batch, and every 256 events the batch goes
/// over a channel of four batches to the writer thread, which writes them
/// in order. [`TraceSink::flush`] returns once everything recorded before
/// it has been written and the writer flushed; dropping the sink or
/// [`JsonLinesSink::into_inner`] sends the rest and joins the thread. A
/// panic on the writer thread is raised again on the sink's own. An I/O
/// error is swallowed: it must never abort a simulation mid-run.
pub struct JsonLinesSink<W: Write + Send + 'static> {
    /// The events recorded since the last batch was sent.
    batch: Vec<Event>,
    /// The writer thread and its channels; `None` once joined.
    writer: Option<Writer<W>>,
}

/// A [`JsonLinesSink`]'s writer thread, seen from the sink.
struct Writer<W> {
    to: SyncSender<ToWriter>,
    /// Batches the thread has written, back for reuse.
    spare: Receiver<Vec<Event>>,
    /// One message per [`ToWriter::Flush`] done.
    flushed: Receiver<()>,
    thread: JoinHandle<W>,
}

impl JsonLinesSink<BufWriter<std::fs::File>> {
    /// Creates (truncating) a JSONL file sink.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonLinesSink::new(BufWriter::new(file)))
    }
}

impl<W: Write + Send + 'static> JsonLinesSink<W> {
    /// Wraps an arbitrary writer (e.g. a `Vec<u8>` in tests) and starts the
    /// thread that writes to it.
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses the thread.
    pub fn new(w: W) -> Self {
        let (to, from) = sync_channel(IN_FLIGHT);
        let (give_back, spare) = sync_channel(IN_FLIGHT);
        let (done, flushed) = sync_channel(1);
        let thread = std::thread::Builder::new()
            .name("jsonl-sink".into())
            .spawn(move || write_lines(w, from, give_back, done))
            .expect("the trace sink's writer thread starts");
        JsonLinesSink {
            batch: Vec::with_capacity(BATCH),
            writer: Some(Writer {
                to,
                spare,
                flushed,
                thread,
            }),
        }
    }

    /// Consumes the sink and returns the writer, every line written and
    /// flushed.
    pub fn into_inner(mut self) -> W {
        self.join()
            .expect("only `into_inner` and `Drop` join, and both consume the sink")
    }

    /// Hands the batch to the writer thread, with a fresh one in its place.
    fn send_batch(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let Some(writer) = &self.writer else {
            return;
        };
        let next = writer
            .spare
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(BATCH));
        let full = std::mem::replace(&mut self.batch, next);
        if writer.to.send(ToWriter::Events(full)).is_err() {
            // The thread is gone, which only a panic does.
            self.join();
        }
    }

    /// Sends what is left, closes the channel and joins the writer thread:
    /// its writer back, flushed, or its panic raised again here (unless
    /// this thread is already unwinding). `None` once joined.
    fn join(&mut self) -> Option<W> {
        if let Some(writer) = &self.writer {
            if !self.batch.is_empty() {
                let rest = std::mem::take(&mut self.batch);
                let _ = writer.to.send(ToWriter::Events(rest));
            }
        }
        let Writer { to, thread, .. } = self.writer.take()?;
        drop(to);
        match thread.join() {
            Ok(w) => Some(w),
            Err(panic) if !std::thread::panicking() => std::panic::resume_unwind(panic),
            Err(_) => None,
        }
    }
}

/// The writer thread: formats each batch's lines, writes them and hands the
/// batch back, until the sink closes the channel; then flushes and returns
/// the writer.
fn write_lines<W: Write>(
    mut w: W,
    from: Receiver<ToWriter>,
    give_back: SyncSender<Vec<Event>>,
    done: SyncSender<()>,
) -> W {
    let mut text = String::new();
    for message in from {
        match message {
            ToWriter::Events(mut batch) => {
                text.clear();
                for e in &batch {
                    e.write_json(&mut text);
                    text.push('\n');
                }
                let _ = w.write_all(text.as_bytes());
                batch.clear();
                let _ = give_back.try_send(batch);
            }
            ToWriter::Flush => {
                let _ = w.flush();
                let _ = done.send(());
            }
        }
    }
    let _ = w.flush();
    w
}

impl<W: Write + Send + 'static> TraceSink for JsonLinesSink<W> {
    fn record(&mut self, e: &Event) {
        self.batch.push(e.clone());
        if self.batch.len() == BATCH {
            self.send_batch();
        }
    }

    fn flush(&mut self) {
        self.send_batch();
        let Some(writer) = &self.writer else {
            return;
        };
        if writer.to.send(ToWriter::Flush).is_err() || writer.flushed.recv().is_err() {
            self.join();
        }
    }
}

impl<W: Write + Send + 'static> Drop for JsonLinesSink<W> {
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use std::sync::{Arc, Mutex};

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
        assert_eq!(s.buf.len(), 3);
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

    /// A writer other threads can read while the sink holds a clone.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Shared {
        fn lines(&self) -> Vec<Event> {
            let text = String::from_utf8(self.0.lock().unwrap().clone()).unwrap();
            text.lines().map(|l| Event::from_json(l).unwrap()).collect()
        }
    }

    /// More events than a batch holds, and a part batch after them.
    fn many() -> Vec<Event> {
        (0..700)
            .map(|i| ev(i, i as f64 * 1e-3, i as usize % 5))
            .collect()
    }

    #[test]
    fn a_dropped_sink_delivers_every_line() {
        let shared = Shared::default();
        let mut sink = JsonLinesSink::new(shared.clone());
        for e in many() {
            sink.record(&e);
        }
        drop(sink);
        assert_eq!(shared.lines(), many());
    }

    #[test]
    fn flush_returns_once_every_line_before_it_is_written() {
        let shared = Shared::default();
        let mut sink = JsonLinesSink::new(shared.clone());
        let events = many();
        for (i, e) in events.iter().enumerate() {
            sink.record(e);
            if i % 97 == 0 {
                sink.flush();
                assert_eq!(shared.lines(), events[..=i]);
            }
        }
        sink.flush();
        assert_eq!(shared.lines(), events);
    }

    #[test]
    fn a_failing_writer_does_not_stop_the_run() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Err(io::Error::other("disk full"))
            }
        }
        let mut sink = JsonLinesSink::new(Broken);
        for e in many() {
            sink.record(&e);
        }
        sink.flush();
        sink.record(&ev(700, 1.0, 0));
        let _ = sink.into_inner();
    }

    #[test]
    fn a_panic_on_the_writer_thread_is_raised_again() {
        struct Panics;
        impl Write for Panics {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                panic!("the writer broke");
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonLinesSink::new(Panics);
        sink.record(&ev(0, 0.0, 0));
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sink.into_inner();
        }));
        let payload = raised.expect_err("the writer's panic is raised on join");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"the writer broke"));
    }
}
