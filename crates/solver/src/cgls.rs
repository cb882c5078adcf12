//! Damped CGLS: conjugate gradient on the least-squares normal equations,
//! one iteration ([`CglsSolver::step`]) behind every entry point.

use crate::operator::LinearOperator;
use std::time::Instant;
use xct_exec::{BufferRole, ExecContext, MetricId, Phase};

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct CglsConfig {
    /// Iteration cap. The paper stops Chip at 24 iterations to avoid
    /// noise overfitting (§IV-F); scaling runs use 30 (§IV-E).
    pub max_iters: usize,
    /// Stop when `‖r‖/‖y‖` falls below this (0 disables).
    pub tolerance: f64,
    /// Tikhonov damping λ: minimizes `‖y − Ax‖² + λ²‖x‖²` (the `R(x)`
    /// hook of Eq. 1).
    pub damping: f64,
}

impl Default for CglsConfig {
    fn default() -> Self {
        CglsConfig {
            max_iters: 30,
            tolerance: 0.0,
            damping: 0.0,
        }
    }
}

/// Solver outcome.
#[derive(Debug, Clone)]
pub struct CglsReport {
    /// The reconstruction.
    pub x: Vec<f32>,
    /// Relative residual `‖y − Ax‖/‖y‖` *after* each iteration
    /// (`history[0]` is the initial 1.0).
    pub residual_history: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was reached before the cap.
    pub converged: bool,
    /// Wall-clock seconds per recorded residual (same indexing as
    /// `residual_history`) — the x-axis of Fig 13.
    pub time_history: Vec<f64>,
}

/// Solves `min ‖y − Ax‖² + λ²‖x‖²` with local (single-process) inner
/// products and a private serial context.
///
/// ```
/// use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
/// use xct_solver::{cgls, CglsConfig, ExecContext, LinearOperator, SystemMatrixOperator};
///
/// let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 16);
/// let sm = SystemMatrix::build(&scan);
/// let op = SystemMatrixOperator::new(&sm);
/// let phantom = vec![0.5f32; op.cols()];
/// let mut y = vec![0.0f32; op.rows()];
/// op.apply(&phantom, &mut y, &mut ExecContext::serial());
/// let report = cgls(&op, &y, &CglsConfig::default());
/// assert!(report.residual_history.last().unwrap() < &0.05);
/// ```
pub fn cgls(op: &dyn LinearOperator, y: &[f32], config: &CglsConfig) -> CglsReport {
    cgls_in(op, y, config, &mut ExecContext::serial(), &mut |v| v)
}

/// [`cgls`] inside a caller-owned [`ExecContext`], with a pluggable
/// scalar reducer applied to every inner product: drives a
/// [`CglsSolver`] to the iteration cap or the tolerance.
///
/// A distributed caller passes an allreduce-sum as `reduce`; partial dot
/// products from each rank then combine into global scalars, which is
/// all CG needs to stay coherent across processes. All iteration vectors
/// come from the context's workspace and go back to it on return, so
/// repeated solves — and every iteration within a solve — allocate
/// nothing apart from the returned report.
pub fn cgls_in(
    op: &dyn LinearOperator,
    y: &[f32],
    config: &CglsConfig,
    ctx: &mut ExecContext,
    reduce: &mut dyn FnMut(f64) -> f64,
) -> CglsReport {
    // xct-allow(wall-clock): the solver report carries real wall time even with telemetry disabled
    let t0 = Instant::now();
    let mut solver = CglsSolver::new(op, y, config.damping, ctx, reduce);
    let mut history = Vec::with_capacity(config.max_iters + 1);
    history.push(1.0f64);
    let mut times = Vec::with_capacity(config.max_iters + 1);
    times.push(t0.elapsed().as_secs_f64());
    let mut converged = false;
    for _ in 0..config.max_iters {
        let Some(rel) = solver.step(op, ctx, reduce) else {
            // A vanished gradient is an exact solution; a vanished
            // curvature (p in the null space) is a stall.
            converged = solver.snapshot().gamma <= 0.0;
            break;
        };
        history.push(rel);
        times.push(t0.elapsed().as_secs_f64());
        if config.tolerance > 0.0 && rel <= config.tolerance {
            converged = true;
            break;
        }
    }
    let iterations = solver.snapshot().iteration;
    CglsReport {
        x: solver.finish(ctx),
        residual_history: history,
        iterations,
        converged,
        time_history: times,
    }
}

/// A snapshot of the CGLS Krylov state after some number of iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct CglsSnapshot {
    /// Iterations completed.
    pub iteration: usize,
    /// Current iterate.
    pub x: Vec<f32>,
    /// Current residual `y − A·x`.
    pub r: Vec<f32>,
    /// Current search direction.
    pub p: Vec<f32>,
    /// Current reduced `‖Aᵀr − λ²x‖²`.
    pub gamma: f64,
    /// Reduced `‖y‖` (for relative residuals).
    pub y_norm: f64,
}

/// Step-at-a-time damped CGLS: the one CGLS iteration, which
/// [`cgls_in`] drives and checkpointing callers step directly. CG's
/// state is tiny next to the data — `x`, `r`, `p` and one scalar — and
/// [`CglsSolver::from_snapshot`] continues the exact iterate sequence.
///
/// `r`, `s`, `p` and `q` come from the context's workspace (a step never
/// allocates) and [`CglsSolver::finish`] hands them back. Every inner
/// product passes through the caller's `reduce`: set-up reduces `s·s`
/// then `y·y`; each step `q·q`, then `p·p` when damped, then `s·s`, then
/// `r·r` when `‖y‖ > 0`. A resume passes the same damping and reducer
/// again; the snapshot stores neither.
pub struct CglsSolver {
    snap: CglsSnapshot,
    s: Vec<f32>,
    q: Vec<f32>,
    damping: f64,
}

impl CglsSolver {
    /// Starts from `x = 0` with Tikhonov damping λ = `damping`.
    ///
    /// # Panics
    /// Panics when `y` does not match the operator's row count.
    pub fn new(
        op: &dyn LinearOperator,
        y: &[f32],
        damping: f64,
        ctx: &mut ExecContext,
        reduce: &mut dyn FnMut(f64) -> f64,
    ) -> Self {
        assert_eq!(y.len(), op.rows(), "measurement length mismatch");
        let _span = ctx.telemetry.span(Phase::SolverSetup);
        let (m, n) = (op.rows(), op.cols());
        // r = y − A·x = y (x starts at zero).
        let mut r = ctx.workspace.take_uninit::<f32>(BufferRole::CgResidual, m);
        r.copy_from_slice(y);
        // s = Aᵀ·r − λ²·x = Aᵀ·y.
        let mut s = ctx.workspace.take::<f32>(BufferRole::CgNormal, n);
        op.apply_transpose(&r, &mut s, ctx);
        let mut p = ctx.workspace.take_uninit::<f32>(BufferRole::CgDirection, n);
        p.copy_from_slice(&s);
        let gamma = reduce(dot(&s, &s));
        let y_norm = reduce(dot(y, y)).sqrt();
        CglsSolver {
            snap: CglsSnapshot {
                iteration: 0,
                x: vec![0.0f32; n],
                r,
                p,
                gamma,
                y_norm,
            },
            s,
            q: ctx.workspace.take::<f32>(BufferRole::CgProjected, m),
            damping,
        }
    }

    /// Resumes from a snapshot taken with the same `damping`.
    ///
    /// # Panics
    /// Panics when the snapshot's shapes do not match the operator.
    pub fn from_snapshot(
        op: &dyn LinearOperator,
        snap: CglsSnapshot,
        damping: f64,
        ctx: &mut ExecContext,
    ) -> Self {
        assert_eq!(snap.x.len(), op.cols(), "snapshot x length mismatch");
        assert_eq!(snap.r.len(), op.rows(), "snapshot r length mismatch");
        assert_eq!(snap.p.len(), op.cols(), "snapshot p length mismatch");
        CglsSolver {
            snap,
            s: ctx.workspace.take::<f32>(BufferRole::CgNormal, op.cols()),
            q: ctx
                .workspace
                .take::<f32>(BufferRole::CgProjected, op.rows()),
            damping,
        }
    }

    /// The current state (cheap to clone for checkpointing).
    pub fn snapshot(&self) -> &CglsSnapshot {
        &self.snap
    }

    /// Performs one CGLS iteration; returns the relative residual
    /// afterwards, or `None` when the gradient has vanished (converged,
    /// `gamma <= 0`) or the search direction lies in the null space.
    pub fn step(
        &mut self,
        op: &dyn LinearOperator,
        ctx: &mut ExecContext,
        reduce: &mut dyn FnMut(f64) -> f64,
    ) -> Option<f64> {
        let _span = ctx.telemetry.span(Phase::SolverIteration);
        let lambda = self.damping;
        let CglsSolver { snap, s, q, .. } = self;
        if snap.gamma <= 0.0 {
            return None; // exact solution reached (gradient vanished)
        }
        op.apply(&snap.p, q, ctx);
        let mut delta = reduce(dot(q, q));
        if lambda > 0.0 {
            delta += lambda * lambda * reduce(dot(&snap.p, &snap.p));
        }
        if delta <= 0.0 {
            return None; // p in the null space; cannot progress
        }
        let alpha = snap.gamma / delta;
        axpy(alpha as f32, &snap.p, &mut snap.x);
        axpy(-(alpha as f32), q, &mut snap.r);
        // s = Aᵀ·r − λ²·x
        op.apply_transpose(&snap.r, s, ctx);
        if lambda > 0.0 {
            let l2 = (lambda * lambda) as f32;
            for (si, xi) in s.iter_mut().zip(&snap.x) {
                *si -= l2 * xi;
            }
        }
        let gamma_new = reduce(dot(s, s));
        let beta = gamma_new / snap.gamma;
        snap.gamma = gamma_new;
        // p = s + β·p
        for (pi, &si) in snap.p.iter_mut().zip(s.iter()) {
            *pi = si + (beta as f32) * *pi;
        }
        snap.iteration += 1;
        let rel = if snap.y_norm > 0.0 {
            reduce(dot(&snap.r, &snap.r)).sqrt() / snap.y_norm
        } else {
            0.0
        };
        ctx.telemetry.event("cgls.residual", rel);
        ctx.telemetry.metric_inc(MetricId::SolverIterations);
        ctx.telemetry.gauge_set(MetricId::SolverResidual, rel);
        Some(rel)
    }

    /// Ends the solve: returns the iterate and hands the work vectors
    /// back to the context's workspace for the next solve.
    pub fn finish(self, ctx: &mut ExecContext) -> Vec<f32> {
        let CglsSolver { snap, s, q, .. } = self;
        ctx.workspace.put(BufferRole::CgResidual, snap.r);
        ctx.workspace.put(BufferRole::CgNormal, s);
        ctx.workspace.put(BufferRole::CgDirection, snap.p);
        ctx.workspace.put(BufferRole::CgProjected, q);
        snap.x
    }
}

/// f64-accumulated dot product of f32 slices.
fn dot(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&p, &q)| f64::from(p) * f64::from(q))
        .sum()
}

/// `y += alpha * x`.
fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{CsrOperator, SystemMatrixOperator};
    use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
    use xct_spmm::Csr;

    /// Identity-ish diagonal operator for exact-solution tests.
    fn diagonal(n: usize) -> CsrOperator {
        let t = (0..n as u32).map(|i| (i, i, 1.0 + i as f32 * 0.1));
        CsrOperator::new(Csr::from_triplets(n, n, t))
    }

    #[test]
    fn solves_diagonal_system_exactly() {
        let op = diagonal(20);
        let x_true: Vec<f32> = (0..20).map(|i| (i as f32 - 10.0) / 5.0).collect();
        let mut y = vec![0.0f32; 20];
        op.apply(&x_true, &mut y, &mut ExecContext::serial());
        let report = cgls(
            &op,
            &y,
            &CglsConfig {
                max_iters: 50,
                tolerance: 1e-10,
                damping: 0.0,
            },
        );
        assert!(report.converged);
        for (a, b) in report.x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn residual_history_is_monotone_nonincreasing() {
        // CGLS monotonically decreases ‖r‖ in exact arithmetic; allow
        // tiny float slack.
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 12);
        let sm = SystemMatrix::build(&scan);
        let op = SystemMatrixOperator::new(&sm);
        let x_true: Vec<f32> = (0..op.cols())
            .map(|i| ((i * 13 + 5) % 97) as f32 / 97.0)
            .collect();
        let mut y = vec![0.0f32; op.rows()];
        op.apply(&x_true, &mut y, &mut ExecContext::serial());
        let report = cgls(&op, &y, &CglsConfig::default());
        for w in report.residual_history.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-6), "{} -> {}", w[0], w[1]);
        }
        assert!(*report.residual_history.last().unwrap() < 0.05);
    }

    #[test]
    fn reconstructs_from_consistent_measurements() {
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 24);
        let sm = SystemMatrix::build(&scan);
        let op = SystemMatrixOperator::new(&sm);
        // A disk phantom.
        let x_true: Vec<f32> = (0..144)
            .map(|i| {
                let (ix, iz) = ((i % 12) as f32 - 5.5, (i / 12) as f32 - 5.5);
                if ix * ix + iz * iz < 16.0 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let mut y = vec![0.0f32; op.rows()];
        op.apply(&x_true, &mut y, &mut ExecContext::serial());
        let report = cgls(
            &op,
            &y,
            &CglsConfig {
                max_iters: 100,
                tolerance: 1e-6,
                damping: 0.0,
            },
        );
        let err: f64 = report
            .x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| f64::from(a - b).powi(2))
            .sum::<f64>()
            .sqrt()
            / (x_true.iter().map(|v| f64::from(*v).powi(2)).sum::<f64>()).sqrt();
        assert!(err < 0.05, "relative reconstruction error {err}");
    }

    #[test]
    fn damping_shrinks_the_solution_norm() {
        let scan = ScanGeometry::uniform(ImageGrid::square(10, 1.0), 8);
        let sm = SystemMatrix::build(&scan);
        let op = SystemMatrixOperator::new(&sm);
        let x_true = vec![1.0f32; op.cols()];
        let mut y = vec![0.0f32; op.rows()];
        op.apply(&x_true, &mut y, &mut ExecContext::serial());
        let plain = cgls(
            &op,
            &y,
            &CglsConfig {
                max_iters: 40,
                tolerance: 0.0,
                damping: 0.0,
            },
        );
        let mut reductions = 0usize;
        let damped = cgls_in(
            &op,
            &y,
            &CglsConfig {
                max_iters: 40,
                tolerance: 0.0,
                damping: 2.0,
            },
            &mut ExecContext::serial(),
            &mut |v| {
                reductions += 1;
                v
            },
        );
        let norm = |v: &[f32]| v.iter().map(|x| f64::from(*x).powi(2)).sum::<f64>();
        assert!(norm(&damped.x) < norm(&plain.x));
        // Set-up reduces s·s and y·y; a damped step q·q, p·p, s·s, r·r.
        assert_eq!(reductions, 2 + 4 * damped.iterations);
    }

    #[test]
    fn zero_measurement_returns_zero() {
        let op = diagonal(8);
        let report = cgls(&op, &[0.0; 8], &CglsConfig::default());
        assert!(report.x.iter().all(|&v| v == 0.0));
        assert!(report.converged);
    }

    #[test]
    fn reducer_is_used_for_inner_products() {
        // A reducer that doubles everything must not change the solution
        // (alpha and beta are ratios of reduced quantities).
        let op = diagonal(10);
        let x_true: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let mut y = vec![0.0f32; 10];
        op.apply(&x_true, &mut y, &mut ExecContext::serial());
        let mut calls = 0usize;
        let report = cgls_in(
            &op,
            &y,
            &CglsConfig {
                max_iters: 30,
                tolerance: 1e-10,
                damping: 0.0,
            },
            &mut ExecContext::serial(),
            &mut |v| {
                calls += 1;
                2.0 * v
            },
        );
        assert!(calls > 0);
        for (a, b) in report.x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn iteration_cap_respected() {
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
        let sm = SystemMatrix::build(&scan);
        let op = SystemMatrixOperator::new(&sm);
        let y = vec![1.0f32; op.rows()];
        let report = cgls(
            &op,
            &y,
            &CglsConfig {
                max_iters: 5,
                tolerance: 0.0,
                damping: 0.0,
            },
        );
        assert_eq!(report.iterations, 5);
        assert_eq!(report.residual_history.len(), 6);
        assert_eq!(report.time_history.len(), 6);
        assert!(!report.converged);
    }

    #[test]
    fn repeated_solves_share_one_workspace() {
        let op = diagonal(16);
        let x_true: Vec<f32> = (0..16).map(|i| i as f32 * 0.25).collect();
        let mut ctx = ExecContext::serial();
        let mut y = vec![0.0f32; 16];
        op.apply(&x_true, &mut y, &mut ctx);
        let config = CglsConfig {
            max_iters: 20,
            tolerance: 1e-12,
            damping: 0.0,
        };
        let first = cgls_in(&op, &y, &config, &mut ctx, &mut |v| v);
        let warm = ctx.workspace.alloc_events();
        let second = cgls_in(&op, &y, &config, &mut ctx, &mut |v| v);
        assert_eq!(
            ctx.workspace.alloc_events(),
            warm,
            "warm solve must reuse buffers"
        );
        for (a, b) in first.x.iter().zip(&second.x) {
            assert_eq!(a.to_bits(), b.to_bits(), "warm solve must be bit-identical");
        }
    }

    #[test]
    #[should_panic(expected = "measurement length mismatch")]
    fn wrong_y_length_panics() {
        let op = diagonal(4);
        cgls(&op, &[1.0; 3], &CglsConfig::default());
    }

    fn stepper_problem() -> (SystemMatrix, Vec<f32>) {
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 20);
        let sm = SystemMatrix::build(&scan);
        let x_true: Vec<f32> = (0..sm.num_voxels())
            .map(|i| ((i * 7 + 3) % 11) as f32 / 11.0)
            .collect();
        let mut y = vec![0.0f32; sm.num_rays()];
        sm.project(&x_true, &mut y);
        (sm, y)
    }

    type Reducer = fn(f64) -> f64;

    /// (damping, reducer) inputs of the resume tests: plain, damped, and
    /// a non-identity reducer.
    const RESUME_CASES: [(f64, Reducer); 3] = [(0.0, |v| v), (0.5, |v| v), (0.0, |v| 2.0 * v)];

    #[test]
    fn snapshot_resume_continues_exactly() {
        let (sm, y) = stepper_problem();
        let op = SystemMatrixOperator::new(&sm);
        for (damping, mut reduce) in RESUME_CASES {
            let mut ctx = ExecContext::serial();
            // Straight run: 12 iterations.
            let mut straight = CglsSolver::new(&op, &y, damping, &mut ctx, &mut reduce);
            for _ in 0..12 {
                straight.step(&op, &mut ctx, &mut reduce);
            }
            // Interrupted run: 5, snapshot, resume, 7 more.
            let mut first = CglsSolver::new(&op, &y, damping, &mut ctx, &mut reduce);
            for _ in 0..5 {
                first.step(&op, &mut ctx, &mut reduce);
            }
            let saved = first.snapshot().clone();
            drop(first);
            let mut resumed = CglsSolver::from_snapshot(&op, saved, damping, &mut ctx);
            for _ in 0..7 {
                resumed.step(&op, &mut ctx, &mut reduce);
            }
            assert_eq!(resumed.snapshot().iteration, 12);
            for (a, b) in resumed.snapshot().x.iter().zip(&straight.snapshot().x) {
                assert_eq!(a.to_bits(), b.to_bits(), "resume must be bit-exact");
            }
        }
    }

    #[test]
    fn step_returns_none_on_convergence() {
        // A zero right-hand side is solved before the first step.
        let scan = ScanGeometry::uniform(ImageGrid::square(4, 1.0), 8);
        let sm = SystemMatrix::build(&scan);
        let op = SystemMatrixOperator::new(&sm);
        let y = vec![0.0f32; op.rows()];
        let mut ctx = ExecContext::serial();
        let mut solver = CglsSolver::new(&op, &y, 0.0, &mut ctx, &mut |v| v);
        assert!(
            solver.step(&op, &mut ctx, &mut |v| v).is_none(),
            "zero RHS converges immediately"
        );
    }

    #[test]
    #[should_panic(expected = "snapshot x length mismatch")]
    fn snapshot_shape_checked() {
        let (sm, y) = stepper_problem();
        let op = SystemMatrixOperator::new(&sm);
        let mut ctx = ExecContext::serial();
        let solver = CglsSolver::new(&op, &y, 0.0, &mut ctx, &mut |v| v);
        let mut snap = solver.snapshot().clone();
        snap.x.pop();
        CglsSolver::from_snapshot(&op, snap, 0.0, &mut ctx);
    }
}
