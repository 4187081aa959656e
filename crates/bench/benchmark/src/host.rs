//! Facts about the host and this process, read from `/proc` and the
//! toolchain: without them a wall time cannot be compared across boxes.

use crate::json::Json;
use std::process::Command;

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields are counted after its ")".
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After ")": state is field 3 of stat(5); utime and stime are 14 and 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI Rust supports.
    Some((utime + stime) / 100.0)
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// The `host` block every full record carries.
pub fn block(threads_used: usize) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Only inside a git work tree of its own: `git` would otherwise walk up
    // and read a repository outside the checkout.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| first_line("git", &["rev-parse", "HEAD"]))
        .flatten();
    #[cfg(target_arch = "x86_64")]
    let avx2_detected = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2_detected = false;
    let unknown = || "unknown".to_string();
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("threads_used", Json::Num(threads_used as f64)),
        ("arch", Json::str(std::env::consts::ARCH)),
        ("built_with_avx2", Json::Bool(cfg!(target_feature = "avx2"))),
        ("avx2_detected", Json::Bool(avx2_detected)),
        (
            "rustc",
            Json::Str(first_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("commit", Json::Str(commit.unwrap_or_else(unknown))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_numbers() {
        let rss = peak_rss_mb().expect("VmHWM readable on Linux");
        assert!(rss > 0.5 && rss < 1e6, "{rss}");
        let cpu = cpu_s().expect("stat readable on Linux");
        assert!((0.0..1e6).contains(&cpu), "{cpu}");
    }
}
