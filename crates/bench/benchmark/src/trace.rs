//! The benchmark's own span recorder and the wrappers that place spans at
//! the layer boundaries the program exposes as public API.
//!
//! Spans are kept in memory (`{name, start_ns, end_ns, parent, rep}`) and
//! written out when the traced pass ends. Recording is thread-local: every
//! wrapped call happens on the thread that drives the workload (the city
//! grid's worker threads sit below a public boundary and carry no spans).
//! With recording off — every untraced run — [`scope`] costs one
//! thread-local flag read and the wrappers are not instantiated at all.

use jmb_core::sync::SyncStrategyId;
use jmb_core::JmbError;
use jmb_obs::{Event, TraceSink};
use jmb_traffic::{TransmitBackend, TxReport};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.fast.transmit`.
    pub name: &'static str,
    /// Start, nanoseconds since recording was switched on.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (0 is the warm-up).
    pub rep: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
    rep: u32,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Switches recording on for this thread, discarding anything recorded.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
            rep: 0,
        })
    });
}

/// Whether this thread records spans.
pub fn enabled() -> bool {
    REC.with(|r| r.borrow().is_some())
}

/// Tags every span opened from now on with repetition `rep`.
pub fn set_rep(rep: u32) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.rep = rep;
        }
    });
}

/// Switches recording off and returns the spans and counters.
pub fn finish() -> (Vec<Span>, BTreeMap<&'static str, u64>) {
    REC.with(|r| r.borrow_mut().take())
        .map(|rec| (rec.spans, rec.counts))
        .unwrap_or_default()
}

/// Adds `n` to a named count recorded at the same boundary as the spans.
pub fn count(name: &'static str, n: u64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            *rec.counts.entry(name).or_default() += n;
        }
    });
}

/// Open span; closes on drop.
pub struct Guard(Option<usize>);

/// Opens a span named `name` under whichever span is open now.
pub fn scope(name: &'static str) -> Guard {
    Guard(REC.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let id = rec.spans.len();
            let now = rec.epoch.elapsed().as_nanos() as u64;
            rec.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent: rec.open.last().copied(),
                rep: rec.rep,
            });
            rec.open.push(id);
            id
        })
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            REC.with(|r| {
                if let Some(rec) = r.borrow_mut().as_mut() {
                    rec.spans[id].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                    // Guards drop in reverse order of creation, so `id` is
                    // the innermost open span.
                    rec.open.pop();
                }
            });
        }
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Agg {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times (duration minus direct children), ns.
    pub self_ns: u64,
    /// Each duration, ns, in recording order.
    pub durs_ns: Vec<u64>,
}

impl Agg {
    /// No spans.
    pub const EMPTY: Agg = Agg {
        calls: 0,
        total_ns: 0,
        self_ns: 0,
        durs_ns: Vec::new(),
    };
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children never overlap (one thread, strictly nested).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Aggregates the spans of repetitions `rep ≥ 1` (the warm-up is left
/// out) by name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&own) {
        if s.rep == 0 {
            continue;
        }
        let a = out.entry(s.name).or_default();
        a.calls += 1;
        a.total_ns += s.dur_ns();
        a.self_ns += self_ns;
        a.durs_ns.push(s.dur_ns());
    }
    out
}

/// Writes the spans as one JSON array (the `trace.json` artefact).
pub fn write_json(spans: &[Span], w: &mut impl std::io::Write) -> std::io::Result<()> {
    writeln!(w, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"rep\":{}}}{}",
            s.name, s.start_ns, s.end_ns, parent, s.rep, comma
        )?;
    }
    writeln!(w, "]")
}

/// A [`TransmitBackend`] that records a span around every call into the
/// PHY and counts batches and ACKs; it forwards everything unchanged.
pub struct TracedBackend<B> {
    inner: B,
    transmit: &'static str,
    advance: &'static str,
}

impl<B: TransmitBackend> TracedBackend<B> {
    /// Wraps `inner`, naming its spans `transmit` and `advance`.
    pub fn new(inner: B, transmit: &'static str, advance: &'static str) -> Self {
        TracedBackend {
            inner,
            transmit,
            advance,
        }
    }
}

impl<B: TransmitBackend> TransmitBackend for TracedBackend<B> {
    fn n_aps(&self) -> usize {
        self.inner.n_aps()
    }

    fn n_clients(&self) -> usize {
        self.inner.n_clients()
    }

    fn advance(&mut self, dt: f64) {
        let _g = scope(self.advance);
        self.inner.advance(dt);
    }

    fn transmit_batch(
        &mut self,
        dests: &[usize],
        payload_len: usize,
        active_aps: &[usize],
    ) -> Result<TxReport, JmbError> {
        let _g = scope(self.transmit);
        let r = self.inner.transmit_batch(dests, payload_len, active_aps);
        if let Ok(rep) = &r {
            count("backend.packets", rep.acked.len() as u64);
            count(
                "backend.acked",
                rep.acked.iter().filter(|&&a| a).count() as u64,
            );
        }
        r
    }

    fn sync_strategy(&self) -> SyncStrategyId {
        self.inner.sync_strategy()
    }

    fn set_sync_strategy(&mut self, kind: SyncStrategyId) {
        self.inner.set_sync_strategy(kind);
    }
}

/// A [`TraceSink`] that records a span around every event it forwards.
pub struct TimedSink<S> {
    inner: S,
}

impl<S: TraceSink> TimedSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedSink { inner }
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn record(&mut self, e: &Event) {
        let _g = scope("obs.sink");
        self.inner.record(e);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, rep: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // rep ── loop ── tx, tx
        //     └─ new
        let spans = vec![
            span("rep", 0, 100, None, 1),
            span("new", 5, 15, Some(0), 1),
            span("loop", 20, 90, Some(0), 1),
            span("tx", 25, 45, Some(2), 1),
            span("tx", 50, 80, Some(2), 1),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 20, 20, 30]);
        let agg = aggregate(&spans);
        assert_eq!(agg["tx"].calls, 2);
        assert_eq!(agg["tx"].total_ns, 50);
        assert_eq!(agg["tx"].durs_ns, vec![20, 30]);
        assert_eq!(agg["loop"].self_ns, 20);
        // Self times of a tree sum to its root's duration.
        let total: u64 = agg.values().map(|a| a.self_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn warm_up_spans_are_left_out_of_the_aggregate() {
        let spans = vec![span("rep", 0, 10, None, 0), span("rep", 10, 30, None, 1)];
        assert_eq!(aggregate(&spans)["rep"].total_ns, 20);
    }

    #[test]
    fn recorder_nests_and_switches_off() {
        assert!(!enabled());
        drop(scope("ignored"));
        start();
        set_rep(1);
        {
            let _a = scope("outer");
            let _b = scope("inner");
            count("n", 2);
            count("n", 3);
        }
        let (spans, counts) = finish();
        assert!(!enabled());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(spans[1].rep, 1);
        assert_eq!(counts["n"], 5);
        let mut buf = Vec::new();
        write_json(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"name\":\"inner\""));
        assert!(text.contains("\"parent\":0"));
    }
}
