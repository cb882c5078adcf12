//! Peak resident memory from `/proc`, so no counting allocator (and no
//! unsafe `GlobalAlloc`) is needed.

use crate::error::BenchError;

/// Resets the process's peak-RSS watermark (`VmHWM`) to its current RSS.
pub fn reset_peak_rss() -> Result<(), BenchError> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| BenchError(format!("cannot reset VmHWM via /proc/self/clear_refs: {e}")))
}

/// Peak resident set size since the last reset, in MiB.
pub fn peak_rss_mib() -> Result<f64, BenchError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| BenchError("no VmHWM line in /proc/self/status".to_owned()))
}
