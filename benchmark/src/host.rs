//! The environment a run is pinned to, and the record of the host it ran on.

use std::path::{Path, PathBuf};
use std::process::Command;

use asyncmg_sparse::simd;

use crate::json::Json;

/// Where result files, traces and the scratch `HOME` go: `$ASYNCMG_PERF_OUT`
/// (set by `run.sh` to `benchmark/out` of its own checkout), else
/// `benchmark/out` under the current directory.
pub fn out_dir() -> PathBuf {
    match std::env::var_os("ASYNCMG_PERF_OUT") {
        Some(p) if !p.is_empty() => PathBuf::from(p),
        _ => PathBuf::from("benchmark/out"),
    }
}

/// Cuts the process off from per-user state that changes what the program
/// does: `KernelSelect::Auto` and `auto_setup_threads` read a host
/// calibration from `$ASYNCMG_CALIBRATION_FILE`, `$XDG_CACHE_HOME` or
/// `$HOME/.cache`, and `ASYNCMG_CALIBRATE=1` would measure one on first use.
/// Must run before any thread starts (it edits the process environment).
pub fn pin_environment(out: &Path) -> std::io::Result<()> {
    let home = out.join("home");
    // Start from an empty directory every time: a calibration written there
    // by anything else must not leak into the next run.
    let _ = std::fs::remove_dir_all(&home);
    std::fs::create_dir_all(&home)?;
    std::env::remove_var("ASYNCMG_CALIBRATE");
    std::env::remove_var("ASYNCMG_CALIBRATION_FILE");
    std::env::set_var("HOME", &home);
    std::env::set_var("XDG_CACHE_HOME", home.join(".cache"));
    Ok(())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Solver thread count: every core up to four, never more than the host has.
pub fn default_threads() -> usize {
    nproc().min(4)
}

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// Size in bytes of cpu0's cache at `level` (unified or data), from sysfs.
pub fn cache_bytes(level: u32) -> Option<usize> {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Some(l) = read_trim(&format!("{dir}/level")) else { break };
        let kind = read_trim(&format!("{dir}/type")).unwrap_or_default();
        if l.parse() != Ok(level) || kind == "Instruction" {
            continue;
        }
        let size = read_trim(&format!("{dir}/size"))?;
        let (digits, unit) = size.split_at(size.trim_end_matches(['K', 'M', 'G']).len());
        let scale = match unit {
            "K" => 1 << 10,
            "M" => 1 << 20,
            "G" => 1 << 30,
            _ => 1,
        };
        return digits.parse::<usize>().ok().map(|v| v * scale);
    }
    None
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host record written into every result file.
pub fn describe(threads: usize) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cache = |level| cache_bytes(level).map_or(Json::Null, |b| Json::Num(b as f64));
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu)),
        ("l2_bytes", cache(2)),
        ("l3_bytes", cache(3)),
        ("simd_capability", Json::str(simd::capability_name())),
        ("simd_active", Json::Bool(simd::active())),
        ("ASYNCMG_SIMD", std::env::var("ASYNCMG_SIMD").map_or(Json::Null, Json::Str)),
        ("solver_threads", Json::Num(threads as f64)),
        ("rustc", command_line("rustc", &["--version"]).map_or(Json::Null, Json::Str)),
        // A driver's checkout is not a git repository; then this is null.
        ("git_commit", command_line("git", &["rev-parse", "HEAD"]).map_or(Json::Null, Json::Str)),
    ])
}
