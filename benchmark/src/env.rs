//! The environment block printed with every run.

use std::path::Path;

/// `VmHWM` of this process in MiB (0 where `/proc` is not available).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit checked out in `dir`, or `unknown` (the driver's checkout is
/// not a git repository).
fn git_commit(dir: &Path) -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&dir.join(".git/HEAD")) else {
        return "unknown".to_string();
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&dir.join(".git").join(reference)).unwrap_or(head),
        None => head,
    }
}

/// One `key: value` line per fact that decides whether two runs can be
/// compared.
pub fn block(seed: u64, seconds: f64, smoke: bool) -> String {
    let var = |name: &str| std::env::var(name).unwrap_or_else(|_| "unset".to_string());
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "environment:\n  git_commit: {}\n  nproc: {nproc}\n  simd_tier: {:?}\n  SPRINT_THREADS: {}\n  SPRINT_SIMD: {}\n  rustc: {}\n  seed: {seed}\n  seconds: {seconds}\n  comparable: {}\n",
        git_commit(&repo),
        sprint_engine::active_tier(),
        var("SPRINT_THREADS"),
        var("SPRINT_SIMD"),
        env!("BENCH_RUSTC_VERSION"),
        !smoke,
    )
}
