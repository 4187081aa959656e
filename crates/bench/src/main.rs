//! `jmb-bench <experiment> [flags]` — see the `jmb_bench` crate docs.

fn main() -> std::process::ExitCode {
    jmb_bench::run(std::env::args().skip(1)).into()
}
