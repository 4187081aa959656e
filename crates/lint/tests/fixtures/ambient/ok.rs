//@path crates/bench/src/experiments/threads_probe.rs
// Same calls are fine here: crates/bench IS the scheduling layer.
fn main() {
    let n = std::env::var("JMB_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        });
    println!("{n}");
}
