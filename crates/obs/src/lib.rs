//! # jmb-obs — the observability substrate
//!
//! Every other crate in the workspace needs the same three things to be
//! *seen*: counters that are cheap enough for hot paths, a structured
//! event trace that tests and offline tooling can query, and scoped
//! timers for the handful of kernels that dominate wall-clock time. This
//! crate provides all three with zero dependencies, so it can sit below
//! `jmb-dsp` at the very bottom of the workspace:
//!
//! * [`registry::Registry`] — typed counters, gauges, and fixed-bucket
//!   histograms with optional numeric labels. Deterministic: storage is
//!   ordered maps, and parallel sweeps shard one registry per run and
//!   [`registry::Registry::merge`] them in index order (the same pooling
//!   discipline as the traffic layer's metric merge).
//! * [`trace::Trace`] + [`event::Event`] — a timestamped, seq-numbered
//!   event pipeline with pluggable [`sink::TraceSink`]s (in-memory ring
//!   buffer, JSON-lines file, predicate filter). Disabled traces cost one
//!   branch per event.
//! * [`query::TraceQuery`] — filter recorded (or replayed) events by
//!   kind, AP, client, node, or time window, and assert ordering,
//!   monotone timestamps, and count bounds. JSON-lines written by
//!   [`sink::JsonLinesSink`] replay through [`query::read_jsonl`].
//! * [`span`] — scoped wall-clock timers for hot kernels (FFT, precoder
//!   synthesis, the traffic event loop). Span durations are wall-clock
//!   and therefore *never* enter the event trace — traces must stay
//!   byte-identical across machines and thread counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod query;
pub mod registry;
pub mod sink;
pub mod span;
pub mod trace;

pub use event::{DropCause, Event, EventKind, StopCause, SyncStrategyId};
pub use json::{json_f64, json_str};
pub use query::{read_jsonl, TraceQuery};
pub use registry::{Histogram, Registry};
pub use sink::{FilterSink, JsonLinesSink, RingBufferSink, TraceSink};
pub use span::{reset_spans, set_spans_enabled, span, span_report, spans_enabled, SpanStat};
pub use trace::Trace;
