//! Host ceilings taken in the same run as the SpMM numbers: sustained
//! copy bandwidth over arrays far larger than the last-level cache, and
//! the FMA rate of a register-resident `f32::mul_add` loop (the
//! operation the SpMM kernel issues, compiled the same way).

use crate::error::BenchError;
use std::hint::black_box;
use xct_telemetry::Clock;

/// Bandwidth arrays are at least this many times the LLC.
pub const LLC_MULTIPLE: u64 = 4;

/// Measured ceilings.
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    /// Last-level cache size in bytes (from sysfs).
    pub llc_bytes: u64,
    /// Bytes of each of the two copy arrays.
    pub array_bytes: u64,
    /// Best copy bandwidth, GB/s (read + write bytes).
    pub stream_gbs: f64,
    /// Best FMA rate, Gflop/s (2 flops per FMA).
    pub fma_gflops: f64,
    /// Threads both probes ran on.
    pub threads: usize,
}

/// The last-level cache size, from the highest-level cache sysfs lists
/// for cpu0.
pub fn llc_bytes() -> Result<u64, BenchError> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir(base)? {
        let dir = entry?.path();
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).map(|s| s.trim().to_owned());
        let (Ok(level), Ok(size)) = (read("level"), read("size")) else {
            continue;
        };
        let (Ok(level), Some(bytes)) = (level.parse::<u32>(), parse_cache_size(&size)) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
        .ok_or_else(|| BenchError(format!("no cache sizes under {base}")))
}

/// Parses sysfs cache sizes such as `107520K` or `4M`.
fn parse_cache_size(s: &str) -> Option<u64> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

/// Copies `src` into `dst` on `threads` threads, each taking one
/// contiguous chunk.
fn parallel_copy(src: &[f32], dst: &mut [f32], threads: usize) {
    let chunk = src.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for (d, c) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
            s.spawn(move || d.copy_from_slice(black_box(c)));
        }
    });
}

/// Sixteen independent FMA chains for `iters` rounds; returns a value
/// depending on every chain so none is optimized away.
fn fma_chains(iters: u64, a: f32, b: f32) -> f32 {
    let mut acc = [0.0f32; 16];
    for (i, v) in acc.iter_mut().enumerate() {
        *v = i as f32 * 1e-3;
    }
    for _ in 0..iters {
        for v in acc.iter_mut() {
            *v = v.mul_add(a, b);
        }
    }
    acc.iter().sum()
}

/// Measures both ceilings on `threads` threads, best of `reps`.
pub fn measure(threads: usize, reps: usize, clock: &dyn Clock) -> Result<Ceilings, BenchError> {
    let llc = llc_bytes()?;
    let array_bytes = LLC_MULTIPLE * llc;
    let len = usize::try_from(array_bytes / 4)
        .map_err(|_| BenchError(format!("array of {array_bytes} B does not fit memory")))?;
    let src = vec![1.0f32; len];
    let mut dst = vec![0.0f32; len];
    // Fault every destination page in before timing.
    parallel_copy(&src, &mut dst, threads);
    let mut stream_gbs = 0.0f64;
    for _ in 0..reps {
        let t0 = clock.now_ns();
        parallel_copy(&src, &mut dst, threads);
        let dt = clock.now_ns().saturating_sub(t0).max(1) as f64;
        stream_gbs = stream_gbs.max(2.0 * array_bytes as f64 / dt);
    }
    black_box(&dst);
    drop((src, dst));

    const FMA_ITERS: u64 = 4_000_000;
    let mut fma_gflops = 0.0f64;
    for _ in 0..reps {
        let t0 = clock.now_ns();
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    // Chains converge to b / (1 − a) = 1 + t: values stay
                    // normal (no denormal slow paths) for any length.
                    black_box(fma_chains(
                        black_box(FMA_ITERS),
                        black_box(0.999_9),
                        black_box(1e-4 * (1 + t) as f32),
                    ))
                });
            }
        });
        let dt = clock.now_ns().saturating_sub(t0).max(1) as f64;
        let flops = 2.0 * 16.0 * FMA_ITERS as f64 * threads as f64;
        fma_gflops = fma_gflops.max(flops / dt);
    }
    Ok(Ceilings {
        llc_bytes: llc,
        array_bytes,
        stream_gbs,
        fma_gflops,
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("107520K"), Some(107_520 * 1024));
        assert_eq!(parse_cache_size("4M"), Some(4 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("x"), None);
    }
}
