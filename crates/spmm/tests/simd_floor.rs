//! The vectorization floor: with the AVX2+FMA path live, the production
//! panel/SIMD kernel must beat the retained scalar reference
//! (`spmm_reference_with`, the pre-panelization loop) by at least 1.5× in
//! effective flops rate. Without the `simd` feature, or on a host without
//! AVX2+FMA, there is no vector path to hold to the floor. The floor is a
//! property of optimized code, so the test exists only in builds without
//! debug assertions: `cargo test --release -p xct-spmm --features simd`.

#![cfg(all(feature = "simd", not(debug_assertions)))]

use std::time::{Duration, Instant};
use xct_exec::ExecContext;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_spmm::{simd_available, spmm_reference_with, spmm_with, Csr, PackedMatrix};

/// Launches per timed run, and runs per kernel; the fastest run of each
/// counts, which damps scheduler noise on a shared host.
const LAUNCHES: usize = 300;
const REPS: usize = 5;

#[test]
fn simd_kernel_beats_the_scalar_reference_by_1_5x() {
    if !simd_available() {
        return;
    }
    // A 16×16 slice seen from 16 angles, packed at fusing 8 with 64-thread
    // blocks and 96 KiB staging.
    let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 16);
    let csr = Csr::from_system_matrix(&SystemMatrix::build(&scan));
    let fusing = 8;
    let packed = PackedMatrix::pack(&csr, 64, 96 * 1024, fusing);
    let x: Vec<f32> = (0..csr.num_cols() * fusing)
        .map(|i| ((i % 13) as f32) * 0.125 - 0.5)
        .collect();
    let mut y = vec![0.0f32; csr.num_rows() * fusing];

    // Runs alternate between the kernels, so drift in the host's speed
    // reaches both alike.
    let mut best = [Duration::MAX; 2];
    let mut flops = [0; 2];
    for _ in 0..REPS {
        for (k, reference) in [false, true].into_iter().enumerate() {
            let mut ctx = ExecContext::serial();
            let start = Instant::now();
            for _ in 0..LAUNCHES {
                if reference {
                    spmm_reference_with::<f32, f32>(&packed, &x, &mut y, &mut ctx);
                } else {
                    spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ctx);
                }
            }
            best[k] = best[k].min(start.elapsed());
            flops[k] = ctx.counters.flops;
        }
    }
    let rate = |k: usize| flops[k] as f64 / best[k].as_secs_f64();
    let speedup = rate(0) / rate(1);
    assert!(
        speedup >= 1.5,
        "spmm vectorization floor: kernel/reference flops rate {speedup:.2}x < 1.50x required"
    );
}
