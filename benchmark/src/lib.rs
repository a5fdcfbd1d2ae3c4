//! The repository benchmark: three workloads against the program's
//! public API, an untraced run for end-to-end metrics and a traced run
//! for per-layer metrics. See `README.md` beside this crate.

pub mod client;
pub mod mappaper;
pub mod poll;
pub mod report;
pub mod run;
pub mod sched;
pub mod serve;
pub mod spec;
pub mod stats;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The benchmark's own directory (this crate's root).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Scratch space for L2 stores and flight dumps (ignored by git).
pub fn work_dir() -> PathBuf {
    bench_dir().join("work")
}

/// A new, empty directory under [`work_dir`], unique in this process.
pub fn fresh_work_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = work_dir().join(format!("l2-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
