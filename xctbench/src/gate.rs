//! The correctness gate every reconstruction passes through: the written
//! volume is re-read with its checksum verified and compared against the
//! seeded phantom, and the reported residual must be finite.

use crate::error::BenchError;
use std::path::Path;
use xct_io::SliceReader;

/// Relative error `‖x − x_true‖ / ‖x_true‖`, accumulated in f64.
pub fn rel_error(x: &[f32], truth: &[f32]) -> f64 {
    let (num, den) = x
        .iter()
        .zip(truth)
        .fold((0.0f64, 0.0f64), |(num, den), (&a, &b)| {
            let d = f64::from(a) - f64::from(b);
            (num + d * d, den + f64::from(b) * f64::from(b))
        });
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

/// Why a reconstruction failed the gate.
#[derive(Debug, Clone, PartialEq)]
pub enum GateFailure {
    /// The volume holds a different number of scalars than the truth.
    Shape {
        /// Scalars read.
        got: usize,
        /// Scalars expected.
        want: usize,
    },
    /// The solver reported a NaN or infinite residual.
    Residual(f64),
    /// The volume is further from the phantom than the tolerance.
    Error {
        /// Measured relative error.
        rel_error: f64,
        /// The workload's tolerance.
        tol: f64,
    },
}

impl std::fmt::Display for GateFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateFailure::Shape { got, want } => {
                write!(f, "volume has {got} scalars, phantom has {want}")
            }
            GateFailure::Residual(r) => write!(f, "non-finite residual {r}"),
            GateFailure::Error { rel_error, tol } => {
                write!(f, "rel_error {rel_error} exceeds tolerance {tol}")
            }
        }
    }
}

/// Judges an already-read volume: returns its relative error against
/// `truth`, or the reason it fails.
pub fn judge(volume: &[f32], truth: &[f32], residual: f64, tol: f64) -> Result<f64, GateFailure> {
    if volume.len() != truth.len() {
        return Err(GateFailure::Shape {
            got: volume.len(),
            want: truth.len(),
        });
    }
    if !residual.is_finite() {
        return Err(GateFailure::Residual(residual));
    }
    let err = rel_error(volume, truth);
    // A NaN error (a NaN voxel) compares as neither: reject it too.
    if err.is_nan() || err > tol {
        return Err(GateFailure::Error {
            rel_error: err,
            tol,
        });
    }
    Ok(err)
}

/// Re-reads the volume file (verifying its checksum) and judges it.
/// The outer error is an unreadable or corrupt file; the inner one a
/// volume that reads fine but is wrong.
pub fn check_volume(
    path: &Path,
    truth: &[f32],
    residual: f64,
    tol: f64,
) -> Result<Result<f64, GateFailure>, BenchError> {
    let mut reader = SliceReader::open(path)?;
    let slices = reader.meta().slices;
    let volume = reader.read_batch(slices)?.unwrap_or_default();
    reader.verify_checksum()?;
    Ok(judge(&volume, truth, residual, tol))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_error_is_zero_for_the_truth_and_scales_with_the_perturbation() {
        let truth = vec![1.0f32, 2.0, 2.0];
        assert_eq!(rel_error(&truth, &truth), 0.0);
        // ‖(0.3, 0, 0)‖ / ‖(1, 2, 2)‖ = 0.3 / 3.
        let x = vec![1.3f32, 2.0, 2.0];
        assert!((rel_error(&x, &truth) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn gate_rejects_a_perturbed_volume() {
        let truth: Vec<f32> = (0..64).map(|i| (i % 7) as f32 * 0.1 + 0.2).collect();
        let close: Vec<f32> = truth.iter().map(|v| v * 1.01).collect();
        let err = judge(&close, &truth, 0.05, 0.05).expect("1% off passes a 5% gate");
        assert!((err - 0.01).abs() < 1e-6);
        // One voxel pushed far off fails the same gate.
        let mut bad = close.clone();
        bad[10] += 50.0;
        assert!(matches!(
            judge(&bad, &truth, 0.05, 0.05),
            Err(GateFailure::Error { .. })
        ));
        // A NaN anywhere in the volume fails, and so does a NaN residual.
        bad[10] = f32::NAN;
        assert!(judge(&bad, &truth, 0.05, 0.05).is_err());
        assert_eq!(
            judge(&close, &truth, f64::NAN, 0.05)
                .map_err(|e| matches!(e, GateFailure::Residual(_))),
            Err(true)
        );
        // A truncated volume fails on shape.
        assert!(matches!(
            judge(&close[..63], &truth, 0.05, 0.05),
            Err(GateFailure::Shape { got: 63, want: 64 })
        ));
    }

    #[test]
    fn gate_rejects_a_corrupted_volume_file() {
        use xct_fp16::Precision;
        use xct_io::{FileKind, SliceFile, SliceWriter};
        let dir = std::env::temp_dir().join(format!("xctbench-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("vol.xctd");
        let truth = vec![0.5f32; 32];
        let mut w = SliceWriter::create(
            &path,
            SliceFile {
                kind: FileKind::Volume,
                precision: Precision::Single,
                slices: 2,
                slice_len: 16,
            },
        )
        .expect("create");
        w.write_slice(&truth[..16]).expect("write");
        w.write_slice(&truth[16..]).expect("write");
        w.finish().expect("finish");
        let ok = check_volume(&path, &truth, 0.1, 0.01).expect("readable");
        assert_eq!(ok, Ok(0.0));
        // Flip one payload byte: the checksum must catch it.
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, bytes).expect("write");
        assert!(check_volume(&path, &truth, 0.1, 0.01).is_err());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
