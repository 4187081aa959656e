//! Determinism-under-observation tests: the observability layer must be a
//! pure *reader* of the simulation. Same seed ⇒ byte-identical trace
//! streams regardless of sweep parallelism; attaching or detaching a
//! [`TraceSink`] must never perturb simulation results; trace timestamps
//! from `FastBackend` runs must be monotone non-decreasing; and the
//! JSON-lines dump must replay losslessly.

use jmb::core::experiment::{parallel_map, SweepConfig};
use jmb::core::fastnet::FastConfig;
use jmb::obs::{JsonLinesSink, RingBufferSink, TraceQuery};
use jmb::prelude::*;
use jmb::sim::{FaultConfig, FaultSchedule};
use jmb::traffic::TrafficMetrics;

const DURATION_S: f64 = 0.1;

fn storm_sim(seed: u64) -> TrafficSim<FastBackend> {
    let n = 3;
    let cfg = FastConfig::default_with(n, n, vec![28.0; n], seed);
    let mut backend = FastBackend::new(cfg).expect("backend");
    // A mid-run sync-loss storm so the trace carries control-plane events,
    // not just MAC traffic.
    let storm = FaultSchedule::none()
        .with_window(
            DURATION_S / 3.0,
            DURATION_S * 2.0 / 3.0,
            FaultConfig::builder()
                .per_slave_sync_loss(1, 1.0)
                .build()
                .expect("valid"),
        )
        .expect("valid window");
    backend.net_mut().set_fault_schedule(storm);
    let loads = vec![ClientLoad::poisson(900.0, 1000); n];
    let mut tcfg = TrafficConfig::default_with(loads, seed);
    tcfg.duration_s = DURATION_S;
    tcfg.drain_timeout_s = DURATION_S * 0.5;
    TrafficSim::new(tcfg, backend).expect("sim")
}

/// Runs a 4-sim sweep at the given parallelism and returns each sim's
/// trace as JSONL plus its CSV row (index order, independent of thread
/// interleaving).
fn sweep_traces(parallelism: usize) -> Vec<(String, Vec<String>)> {
    let sweep = SweepConfig {
        n_topologies: 4,
        seed: 9,
        parallelism,
        ..Default::default()
    };
    parallel_map(&sweep, |i| {
        let mut sim = storm_sim(100 + i as u64);
        sim.trace.enable();
        let m = sim.run();
        (sim.trace.to_jsonl(), m.csv_row())
    })
}

/// Same seed ⇒ byte-identical trace streams across `--threads 1` and
/// `--threads 4`. Sequence numbers are per-`Trace` (each sim owns its
/// stream), so index-ordered collection is already the normalized form.
#[test]
fn trace_streams_identical_across_thread_counts() {
    let serial = sweep_traces(1);
    let threaded = sweep_traces(4);
    assert_eq!(serial.len(), threaded.len());
    for (i, (s, t)) in serial.iter().zip(&threaded).enumerate() {
        assert!(!s.0.is_empty(), "sim {i} traced nothing");
        assert_eq!(s.0, t.0, "sim {i}: trace stream differs with threads");
        assert_eq!(s.1, t.1, "sim {i}: CSV row differs with threads");
    }
}

/// Attaching sinks (ring buffer + JSON-lines file), or not tracing at all,
/// never changes simulation results: CSV rows, latency series, and
/// per-client bits are byte-identical.
#[test]
fn sinks_do_not_perturb_simulation_results() {
    let baseline = {
        let mut sim = storm_sim(5);
        let m = sim.run();
        (
            m.csv_row(),
            m.latencies_s.clone(),
            m.per_client_bits.clone(),
        )
    };
    let path = std::env::temp_dir().join("jmb_obs_sink_test.jsonl");
    let observed = {
        let mut sim = storm_sim(5);
        sim.trace.enable();
        sim.trace.attach_sink(RingBufferSink::new(64));
        sim.trace
            .attach_sink(JsonLinesSink::create(&path).expect("sink file"));
        let m = sim.run();
        sim.trace.detach_sinks();
        (
            m.csv_row(),
            m.latencies_s.clone(),
            m.per_client_bits.clone(),
        )
    };
    let _ = std::fs::remove_file(&path);
    assert_eq!(baseline, observed, "observation changed the simulation");
}

/// Bugfix guard: `FastBackend` trace timestamps are monotone non-decreasing
/// within a run — batches are stamped on the frame timeline, which only
/// moves forward — and so are sequence numbers. Checked under fault
/// injection, where every emission site is exercised.
#[test]
fn fastbackend_trace_times_are_monotone() {
    let mut sim = storm_sim(21);
    sim.trace.enable();
    sim.backend_mut().net_mut().trace().enable();
    sim.run();
    sim.trace
        .query()
        .assert_monotone_time()
        .assert_monotone_seq();
    let net = sim.backend_mut().net_mut();
    assert!(
        !net.trace().events().is_empty(),
        "storm produced no FastNet events"
    );
    net.trace()
        .query()
        .assert_monotone_time()
        .assert_monotone_seq();
}

/// JSON-lines round trip: events streamed to a file replay identically
/// through `read_jsonl`, and the replayed stream answers the same queries.
#[test]
fn jsonl_dump_replays_losslessly() {
    let path = std::env::temp_dir().join("jmb_obs_replay_test.jsonl");
    let mut sim = storm_sim(13);
    sim.trace.enable();
    sim.trace
        .attach_sink(JsonLinesSink::create(&path).expect("sink file"));
    sim.run();
    sim.trace.detach_sinks(); // flushes
    let replayed = jmb::obs::read_jsonl(&path).expect("replay");
    let _ = std::fs::remove_file(&path);
    let live = sim.trace.events();
    assert_eq!(replayed.len(), live.len());
    assert_eq!(&replayed[..], live, "replayed events differ from live ones");
    let q = TraceQuery::new(&replayed)
        .assert_monotone_time()
        .assert_monotone_seq();
    assert_eq!(
        q.kind("SyncMissed").count(),
        sim.trace.query().kind("SyncMissed").count(),
        "replayed query disagrees with live counters"
    );
}

/// Merged metrics from a threaded sweep equal the serial merge — the
/// registry-backed counters pool deterministically (order-independent
/// integer sums, index-ordered f64 accumulation).
#[test]
fn merged_metrics_deterministic_across_thread_counts() {
    let run = |parallelism: usize| {
        let sweep = SweepConfig {
            n_topologies: 4,
            seed: 3,
            parallelism,
            ..Default::default()
        };
        let ms = parallel_map(&sweep, |i| storm_sim(200 + i as u64).run());
        TrafficMetrics::merge(&ms).csv_row()
    };
    assert_eq!(run(1), run(4), "merged CSV row depends on thread count");
}
