//! Byte pin of the trace's JSON-lines format.
//!
//! `fixtures/event_golden.jsonl` holds every [`EventKind`] at least once,
//! at the values a formatter is most likely to get wrong: integers at
//! `u64::MAX`, floats that print in exponent form (`1e-7`, `1e21`), one
//! that does not round (`0.1 + 0.2`), a negative zero, `passed` as 0 and 1,
//! and every name of [`DropCause`], [`StopCause`] and [`SyncStrategyId`].
//! The corpus below must serialize to exactly those bytes through each of
//! the three writers (`Event::to_json`, `Trace::to_jsonl`,
//! `JsonLinesSink`), and every line must parse back to the event it came
//! from and re-serialize to itself.
//!
//! The fixture was written by the serializer as it stood before the kinds
//! moved into one declaration; re-bless (`JMB_BLESS=1 cargo test -p jmb-obs
//! --test event_golden`) only for an intended format change, which also
//! moves every checked-in `.jsonl` and the scenario corpus.

use jmb_obs::{DropCause, Event, EventKind, JsonLinesSink, StopCause, SyncStrategyId, Trace};
use std::path::Path;

/// Timestamps and float payloads, cycled through the corpus.
const EDGE_F64: [f64; 4] = [1e-7, 1e21, 0.1 + 0.2, -0.0];

fn kinds() -> Vec<EventKind> {
    let f = |i: usize| EDGE_F64[i % EDGE_F64.len()];
    let mut kinds = vec![
        EventKind::Transmit {
            node: usize::MAX,
            len: 320,
            power: f(0),
        },
        EventKind::Transmit {
            node: 0,
            len: 0,
            power: f(1),
        },
        EventKind::Transmit {
            node: 1,
            len: 1,
            power: f(2),
        },
        EventKind::Transmit {
            node: 2,
            len: 2,
            power: f(3),
        },
        EventKind::Render {
            node: 1,
            len: usize::MAX,
        },
    ];
    kinds.extend(DropCause::ALL.map(|cause| EventKind::Dropped { node: 2, cause }));
    kinds.extend([
        EventKind::Corrupted { node: 0 },
        EventKind::Enqueued {
            client: 5,
            id: u64::MAX,
        },
        EventKind::LeadElected { ap: 2 },
        EventKind::BatchSelected { n_packets: 4 },
        EventKind::Acked {
            client: 1,
            id: u64::MAX,
        },
        EventKind::Retry {
            client: 0,
            id: u64::MAX,
            attempt: u32::MAX,
        },
        EventKind::ApDown { ap: 1 },
        EventKind::ApUp { ap: 1 },
        EventKind::SyncMissed { slave: 3 },
        EventKind::CsiStale { age_s: f(2) },
        EventKind::RemeasureScheduled {
            at: f(1),
            attempt: 3,
        },
        EventKind::RemeasureFailed { attempt: 1 },
        EventKind::RemeasureOk { attempt: 2 },
        EventKind::MeasurementLost,
        EventKind::ApDegraded { ap: 2 },
        EventKind::ApRestored { ap: 2 },
    ]);
    kinds.extend(SyncStrategyId::ALL.map(|strategy| EventKind::SyncStrategySwitched { strategy }));
    kinds.extend([
        EventKind::CellStarted { cell: 37, color: 2 },
        EventKind::CellInterference {
            cell: 37,
            inr_db: f(3),
        },
        EventKind::CellInterference {
            cell: 38,
            inr_db: f(0),
        },
        EventKind::CellFinished {
            cell: 37,
            delivered: u64::MAX,
        },
        EventKind::ScenarioStarted { assertions: 6 },
        EventKind::ScenarioAssertion {
            index: 2,
            passed: true,
        },
        EventKind::ScenarioAssertion {
            index: 3,
            passed: false,
        },
    ]);
    kinds.extend(StopCause::ALL.map(|cause| EventKind::ScenarioStopped {
        cause,
        events: u64::MAX,
    }));
    kinds
}

/// The corpus with the sequence numbers a trace assigns (0, 1, …) and the
/// edge timestamps in rotation.
fn corpus() -> Vec<Event> {
    kinds()
        .into_iter()
        .enumerate()
        .map(|(i, kind)| Event {
            seq: i as u64,
            t: EDGE_F64[i % EDGE_F64.len()],
            kind,
        })
        .collect()
}

fn fixture() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/event_golden.jsonl");
    if std::env::var("JMB_BLESS").is_ok() {
        let text: String = corpus().iter().map(|e| e.to_json() + "\n").collect();
        std::fs::write(&path, text).expect("fixture written");
    }
    std::fs::read_to_string(&path).expect("fixture readable; bless with JMB_BLESS=1")
}

#[test]
fn every_kind_is_in_the_corpus() {
    let seen: std::collections::BTreeSet<_> = kinds().iter().map(|k| k.name()).collect();
    let listed: std::collections::BTreeSet<_> = EventKind::NAMES.into_iter().collect();
    assert_eq!(seen, listed);
    assert_eq!(listed.len(), 26);
}

#[test]
fn to_json_writes_the_fixture_and_reads_it_back() {
    let fixture = fixture();
    let lines: Vec<&str> = fixture.lines().collect();
    let corpus = corpus();
    assert_eq!(lines.len(), corpus.len());
    for (n, (line, event)) in lines.iter().zip(&corpus).enumerate() {
        assert_eq!(event.to_json(), *line, "line {}", n + 1);
        let back = Event::from_json(line).unwrap_or_else(|| panic!("line {} unparsable", n + 1));
        assert_eq!(&back, event, "line {}", n + 1);
        // `==` cannot tell -0.0 from 0.0; the bytes can.
        assert_eq!(back.to_json(), *line, "line {} re-serialized", n + 1);
    }
    // The widest sequence number survives too.
    let last = Event {
        seq: u64::MAX,
        ..corpus[0].clone()
    };
    assert_eq!(Event::from_json(&last.to_json()), Some(last));
}

#[test]
fn the_trace_and_the_sink_write_the_same_bytes() {
    let fixture = fixture();
    let mut trace = Trace::new();
    trace.enable();
    let mut sink = JsonLinesSink::new(Vec::new());
    for e in corpus() {
        jmb_obs::TraceSink::record(&mut sink, &e);
        trace.emit(e.t, e.kind);
    }
    assert_eq!(trace.to_jsonl(), fixture);
    assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), fixture);
}
