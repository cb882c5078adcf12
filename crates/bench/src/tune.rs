//! Tile-shape sweep harness behind `petaxct tune`.
//!
//! Sweeps the SpMM tile parameters — thread-block size × shared-staging
//! bytes × fusing — over a CGLS-on-the-mini-operator measurement
//! (best-of-reps wall time, effective flops from the execution counters),
//! and returns the points as a [`TuneReport`] ready to serialize as a
//! `petaxct-tune-v1` artifact. The planner consumes the artifact through `--tune-from`.

use std::time::Instant;

use crate::mini_operator;
use xct_fp16::Precision;
use xct_plan::{TunePoint, TuneReport};
use xct_solver::{CglsSolver, ExecContext, PrecisionOperator};

/// The sweep grid and the measurement protocol.
#[derive(Debug, Clone)]
pub struct TuneParams {
    /// Grid side of the measured problem.
    pub n: usize,
    /// Projection angles of the measured problem.
    pub angles: usize,
    /// Precision mode to measure under.
    pub precision: Precision,
    /// CGLS iterations per measurement.
    pub iterations: usize,
    /// Runs per point; the minimum-wall run is kept.
    pub reps: usize,
    /// Thread-block sizes to sweep (each a multiple of the 32-lane warp).
    pub blocks: Vec<usize>,
    /// Shared-staging byte budgets to sweep.
    pub shared: Vec<usize>,
    /// Fusing factors to sweep.
    pub fusings: Vec<usize>,
}

impl TuneParams {
    /// The default grid: `--quick` keeps CI smoke runs to a few seconds,
    /// the full grid is what tuned shapes should come from.
    pub fn new(quick: bool) -> TuneParams {
        if quick {
            TuneParams {
                n: 16,
                angles: 16,
                precision: Precision::Single,
                iterations: 2,
                reps: 2,
                blocks: vec![32, 64],
                shared: vec![4 * 1024, 96 * 1024],
                fusings: vec![1, 4],
            }
        } else {
            TuneParams {
                n: 24,
                angles: 24,
                precision: Precision::Single,
                iterations: 4,
                reps: 3,
                blocks: vec![32, 64, 128],
                shared: vec![4 * 1024, 32 * 1024, 96 * 1024],
                fusings: vec![1, 4, 8],
            }
        }
    }

    /// Points the grid will measure.
    pub fn point_count(&self) -> usize {
        self.blocks.len() * self.shared.len() * self.fusings.len()
    }

    /// Rejects grids the kernel cannot run (so a bad `--blocks` list
    /// fails with a message instead of a packing panic mid-sweep).
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 || self.angles == 0 || self.iterations == 0 || self.reps == 0 {
            return Err("tune problem must have nonzero n/angles/iterations/reps".into());
        }
        if self.blocks.is_empty() || self.shared.is_empty() || self.fusings.is_empty() {
            return Err("tune sweep lists must be non-empty".into());
        }
        for &b in &self.blocks {
            if b == 0 || b % 32 != 0 {
                return Err(format!(
                    "block size {b} invalid: must be a nonzero multiple of the 32-lane warp"
                ));
            }
        }
        for &f in &self.fusings {
            if f == 0 {
                return Err("fusing 0 is invalid".into());
            }
            for &s in &self.shared {
                // Staging must hold at least one slot across all fused
                // slices at the widest storage scalar (8 B for double).
                if s < f * 8 {
                    return Err(format!(
                        "shared bytes {s} too small for fusing {f}: no staging slot fits"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Runs the sweep. `progress(i, total, point)` fires after each measured
/// point (for live CLI output); points land in the report in sweep order
/// (blocks outer, shared middle, fusing inner), which is what makes
/// [`TuneReport::best`]'s tie-breaking deterministic.
pub fn run_tune(
    p: &TuneParams,
    mut progress: impl FnMut(usize, usize, &TunePoint),
) -> Result<TuneReport, String> {
    p.validate()?;
    let (_, sm, csr) = mini_operator(p.n, p.angles);
    let total = p.point_count();
    let mut points = Vec::with_capacity(total);
    for &block_size in &p.blocks {
        for &shared_bytes in &p.shared {
            for &fusing in &p.fusings {
                // One synthetic sinogram per fusing width (projection of
                // a fixed ramp phantom).
                let mut x_true = vec![0.0f32; sm.num_voxels() * fusing];
                for (i, v) in x_true.iter_mut().enumerate() {
                    *v = ((i % 11) as f32) * 0.1;
                }
                let mut y = vec![0.0f32; sm.num_rays() * fusing];
                for f in 0..fusing {
                    sm.project(
                        &x_true[f * sm.num_voxels()..(f + 1) * sm.num_voxels()],
                        &mut y[f * sm.num_rays()..(f + 1) * sm.num_rays()],
                    );
                }
                let op =
                    PrecisionOperator::new(&csr, p.precision, fusing, block_size, shared_bytes);
                let mut best_wall = u64::MAX;
                let mut flops = 0u64;
                for _ in 0..p.reps {
                    let mut ctx = ExecContext::serial().with_precision(p.precision);
                    // xct-allow(wall-clock): the tuning sweep measures real execution wall time
                    let start = Instant::now();
                    let mut solver = CglsSolver::new(&op, &y, &mut ctx);
                    for _ in 0..p.iterations {
                        solver.step(&op, &mut ctx);
                    }
                    let wall = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    if wall < best_wall {
                        best_wall = wall;
                        flops = ctx.counters.flops;
                    }
                }
                let point = TunePoint {
                    block_size,
                    shared_bytes,
                    fusing,
                    wall_ns: best_wall,
                    flops,
                };
                points.push(point);
                progress(points.len(), total, &point);
            }
        }
    }
    Ok(TuneReport {
        precision: p.precision,
        n: p.n,
        angles: p.angles,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_grids_are_rejected_with_reasons() {
        let mut p = TuneParams::new(true);
        p.blocks = vec![48];
        let err = p.validate().unwrap_err();
        assert!(err.contains("multiple of the 32-lane warp"), "{err}");

        let mut p = TuneParams::new(true);
        p.shared = vec![16];
        p.fusings = vec![8];
        assert!(p.validate().unwrap_err().contains("too small"), "{}", {
            p.validate().unwrap_err()
        });

        let mut p = TuneParams::new(true);
        p.fusings.clear();
        assert!(p.validate().is_err());
    }

    #[test]
    fn tiny_sweep_measures_every_point_and_picks_a_best() {
        let p = TuneParams {
            n: 8,
            angles: 8,
            precision: Precision::Single,
            iterations: 1,
            reps: 1,
            blocks: vec![32],
            shared: vec![4 * 1024, 96 * 1024],
            fusings: vec![1, 2],
        };
        let mut seen = 0usize;
        let report = run_tune(&p, |i, total, _| {
            seen += 1;
            assert_eq!(i, seen);
            assert_eq!(total, 4);
        })
        .unwrap();
        assert_eq!(report.points.len(), 4);
        assert_eq!(seen, 4);
        assert!(report.points.iter().all(|pt| pt.flops > 0));
        let best = report.best().expect("non-empty sweep has a best");
        assert!(report
            .points
            .iter()
            .all(|pt| best.flops_rate() >= pt.flops_rate()));
        // Round-trips as a petaxct-tune-v1 artifact.
        let back = TuneReport::parse(&report.to_json().to_string()).unwrap();
        assert_eq!(back, report);
    }
}
