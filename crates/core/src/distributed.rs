//! The executable distributed reconstruction pipeline: every rank is a
//! simulated GPU running the optimized kernels on its subdomain, with
//! partial-data exchanges between (back)projections and a distributed
//! CGLS on top (paper §III, end to end, at mini scale).
//!
//! A [`ReconPlan`] is the only description of a run's shape (topology,
//! precision, exchange mode, overlap, fusing, kernel shape, tile
//! weights); [`DistributedConfig`] holds the runtime knobs the plan does
//! not own. Everything that depends on the plan alone — the system
//! matrix, the Hilbert decomposition, the compiled exchange plans, their
//! verification and every rank's packed operator — is built once per
//! plan and reused by every slab, as the paper partitions the x–z plane
//! once and streams minibatches through memoized plans (§III-A3).
//!
//! Forward projection per iteration: each rank runs the buffered SpMM on
//! its voxel subdomain one fused slice at a time → partial sinogram over
//! its footprint → hierarchical (or direct) reduce to ray owners through
//! a *compiled* communication plan. Backprojection: owners scatter
//! sinogram values back to footprints → local transposed SpMM. CGLS inner
//! products go through an allreduce, and the adaptive normalization
//! factor for half-precision wire data is agreed on globally with a
//! max-allreduce (§III-C1 applied across ranks).
//!
//! With [`ReconPlan::overlap`] the fused slices form a double-buffered
//! software pipeline (paper §III-E, Figs 11–12): slice `s`'s global
//! exchange drains via posted irecvs while slice `s+1` runs its local
//! SpMM and socket/node reductions. Results are bit-identical to the
//! synchronous schedule — the same floating-point operations run in the
//! same order; only the waiting moves.

use crate::decompose::SliceDecomposition;
use crate::pipeline::run_pipeline;
use std::sync::{Mutex, OnceLock};
use xct_comm::{
    run_ranks_traced_wired, Communicator, CompiledPlans, DirectPlan, ExchangeScratch,
    GlobalInFlight, HierarchicalPlan, RankCommStats, ScatterInFlight, Wire, WireModel,
};
use xct_exec::{BufferRole, ExecContext, ExecCounters, Telemetry};
use xct_fp16::{Precision, F16};
use xct_geometry::{ScanGeometry, SystemMatrix};
use xct_hilbert::{CurveKind, Domain2D, TileDecomposition};
use xct_plan::{KernelShape, ReconPlan};
use xct_solver::{cgls_in, CglsConfig, LinearOperator, PrecisionOperator};

/// Runtime knobs of a distributed run. The run's shape (topology,
/// precision, exchange mode, overlap, fusing, tuned kernel shape, tile
/// weights) comes from its [`ReconPlan`].
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Optional simulated wire time for inter-node messages. The
    /// in-process transport is a memcpy, so without this, overlap has no
    /// wire time to hide; with it, comm-bound behavior (and overlap's
    /// wall-clock gain) is measurable. `None` (default) delivers
    /// instantly. Purely a scheduling delay — results are unaffected.
    pub wire: Option<WireModel>,
    /// CG iterations.
    pub iterations: usize,
    /// Hilbert tile size for both domain decompositions, unless the plan
    /// carries tile weights ([`DistributedConfig::tile_for`]).
    pub tile: usize,
    /// Threads per simulated GPU block, unless the plan carries a tuned
    /// kernel shape ([`DistributedConfig::kernel_for`]).
    pub block_size: usize,
    /// Staging-buffer bytes per block, unless the plan carries a tuned
    /// kernel shape.
    pub shared_bytes: usize,
    /// Telemetry sink shared by all rank threads. Disabled by default —
    /// pass [`Telemetry::enabled`] to collect per-rank spans (each rank
    /// records on its own track) and keep the phase breakdown.
    pub telemetry: Telemetry,
    /// Run the xct-verify static checks (conservation, tag disjointness,
    /// deadlock freedom, scratch non-aliasing) on the communication plan
    /// before executing it, panicking with the full diagnostic listing on
    /// any violation. Always on in debug builds; this flag (the CLI's
    /// `--verify-plans`) extends the check to release builds.
    pub verify_plans: bool,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            wire: None,
            iterations: 30,
            tile: 4,
            block_size: 32,
            shared_bytes: 48 * 1024,
            telemetry: Telemetry::disabled(),
            verify_plans: false,
        }
    }
}

impl DistributedConfig {
    /// Hilbert tile size a run of `plan` decomposes at: the tile size
    /// the plan's measured weights were taken at (`--weights-from`),
    /// else [`DistributedConfig::tile`].
    pub fn tile_for(&self, plan: &ReconPlan) -> usize {
        plan.tile_weights
            .as_ref()
            .map_or(self.tile, |tw| tw.tile_size)
    }

    /// Kernel tile shape a run of `plan` packs its operators with: the
    /// plan's tuned shape (`--tune-from`), else
    /// [`DistributedConfig::block_size`] and
    /// [`DistributedConfig::shared_bytes`].
    pub fn kernel_for(&self, plan: &ReconPlan) -> KernelShape {
        plan.kernel.unwrap_or(KernelShape {
            block_size: self.block_size,
            shared_bytes: self.shared_bytes,
        })
    }
}

/// Distributed run outcome.
#[derive(Debug, Clone)]
pub struct DistributedResult {
    /// Reconstructed volume, slice-major (`fusing × num_voxels`).
    pub x: Vec<f32>,
    /// Relative residual after each iteration (from rank 0's view of the
    /// global reduced norms — identical on all ranks).
    pub residual_history: Vec<f64>,
    /// Elements exchanged per level per (back)projection pass:
    /// `(socket, node, global)`; direct mode reports all volume as
    /// global.
    pub comm_elements: (u64, u64, u64),
    /// Measured per-rank communication traffic (byte/message counts per
    /// peer and per traffic class), ordered by rank.
    pub comm_stats: Vec<RankCommStats>,
    /// Execution counters merged across all ranks.
    pub counters: ExecCounters,
}

/// Per-slice tag salt keeping concurrent slices' exchange traffic apart
/// (shifted above the compiled plans' tag bits).
fn slice_salt(f: usize) -> u64 {
    ((f as u64) + 1) << 44
}

/// One rank's distributed operator over `fusing` slices: local optimized
/// kernels plus compiled plan-driven exchanges. The local operator is
/// packed with an internal fusing of 1 — slices run one at a time so the
/// software pipeline can interleave slice `s+1`'s kernels with slice
/// `s`'s in-flight exchange.
struct RankOperator<'a> {
    comm: &'a Communicator,
    precision: Precision,
    overlap: bool,
    fusing: usize,
    plans: &'a CompiledPlans,
    local: &'a PrecisionOperator,
    /// Reusable exchange buffers; a (never-contended) `Mutex` because
    /// `LinearOperator` takes `&self` and requires `Sync`, while the
    /// exchange needs scratch mutably. Each rank thread owns its
    /// operator, so the lock is always free.
    scratch: Mutex<ExchangeScratch>,
    rank: usize,
    footprint_len: usize,
    owned_rays_len: usize,
    owned_vox_len: usize,
}

impl RankOperator<'_> {
    /// Agree on the global normalization `(factor, undo)` for `vals`
    /// (local max → `allreduce_max` on `tag` → `256 / max`) so quantized
    /// contributions from different ranks combine coherently (§III-C1
    /// across ranks). Identity for full-width wire formats.
    fn normalization(&self, tag: u64, vals: &[f32]) -> (f32, f32) {
        match self.precision {
            Precision::Half | Precision::Mixed => {
                let local_max = vals.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
                let global_max = self
                    .comm
                    .allreduce_max(tag, f64::from(local_max))
                    // xct-allow(no-panic): comm ops execute a verified plan; a wire fault mid-iteration is unrecoverable
                    .expect("allreduce_max");
                if global_max > f64::MIN_POSITIVE {
                    let factor = (256.0 / global_max) as f32;
                    (factor, 1.0 / factor)
                } else {
                    (1.0, 1.0)
                }
            }
            _ => (1.0, 1.0),
        }
    }

    /// Forward pipeline at wire precision `S`: per fused slice, local SpMM
    /// → socket/node reduction → global exchange to ray owners, scheduled
    /// by [`run_pipeline`]. With `overlap`, slice `s`'s global exchange
    /// stays in flight while slice `s+1` runs its SpMM and local
    /// reductions, and it completes *before* slice `s+1`'s exchange posts
    /// — the per-slice arithmetic is unchanged, so results match the
    /// synchronous path bit for bit.
    fn apply_as<S: Wire>(&self, x: &[f32], y: &mut [f32], ctx: &mut ExecContext) {
        let rp = self.plans.rank(self.rank);
        let partial = ctx
            .workspace
            .take::<f32>(BufferRole::Forward, self.footprint_len * self.fusing);
        struct Fwd<'s> {
            x: &'s [f32],
            y: &'s mut [f32],
            partial: Vec<f32>,
            ctx: &'s mut ExecContext,
            undo: f32,
        }
        let mut st = Fwd {
            x,
            y,
            partial,
            ctx,
            undo: 1.0,
        };
        run_pipeline(
            self.fusing,
            self.overlap,
            &mut st,
            |st: &mut Fwd, f| {
                self.comm.telemetry().profile_slice_set(f as u32);
                let xs = &st.x[f * self.owned_vox_len..(f + 1) * self.owned_vox_len];
                let ps = &mut st.partial[f * self.footprint_len..(f + 1) * self.footprint_len];
                self.local.apply(xs, ps, st.ctx);
                let (factor, undo) = self.normalization(0x7000, ps);
                st.undo = undo;
                // xct-allow(no-panic): lock poisoning means a sibling pipeline stage already panicked; propagate
                let mut scratch = self.scratch.lock().expect("scratch mutex");
                rp.reduce_local::<S>(self.comm, &mut scratch, ps, factor, slice_salt(f))
                    // xct-allow(no-panic): comm ops execute a verified plan; a wire fault mid-iteration is unrecoverable
                    .expect("local reduction");
            },
            |st, f| -> GlobalInFlight {
                self.comm.telemetry().profile_slice_set(f as u32);
                // xct-allow(no-panic): lock poisoning means a sibling pipeline stage already panicked; propagate
                let mut scratch = self.scratch.lock().expect("scratch mutex");
                rp.global_begin::<S>(self.comm, &mut scratch, st.undo, slice_salt(f))
                    // xct-allow(no-panic): comm ops execute a verified plan; a wire fault mid-iteration is unrecoverable
                    .expect("global exchange post")
            },
            |st, f, inflight| {
                self.comm.telemetry().profile_slice_set(f as u32);
                // xct-allow(no-panic): lock poisoning means a sibling pipeline stage already panicked; propagate
                let mut scratch = self.scratch.lock().expect("scratch mutex");
                rp.global_finish::<S>(
                    self.comm,
                    &mut scratch,
                    inflight,
                    &mut st.y[f * self.owned_rays_len..(f + 1) * self.owned_rays_len],
                )
                // xct-allow(no-panic): comm ops execute a verified plan; a wire fault mid-iteration is unrecoverable
                .expect("global exchange finish");
            },
            |_, _| {},
        );
        let Fwd { partial, ctx, .. } = st;
        ctx.workspace.put(BufferRole::Forward, partial);
    }

    /// Transpose pipeline at wire precision `S`: per fused slice, global
    /// scatter from owners → node/socket fan-out → local transposed SpMM,
    /// scheduled by [`run_pipeline`]. With `overlap`, slice `s`'s
    /// transposed SpMM runs while slice `s+1`'s global scatter is in
    /// flight.
    fn apply_transpose_as<S: Wire>(&self, y: &[f32], x: &mut [f32], ctx: &mut ExecContext) {
        let rp = self.plans.rank(self.rank);
        // One normalization factor for the whole batch (one allreduce per
        // backprojection, as in the reference path).
        let (factor, undo) = self.normalization(0x7100, y);
        let footprint_vals = ctx
            .workspace
            .take::<f32>(BufferRole::Footprint, self.footprint_len * self.fusing);
        struct Bwd<'s> {
            y: &'s [f32],
            x: &'s mut [f32],
            footprint: Vec<f32>,
            ctx: &'s mut ExecContext,
        }
        let mut st = Bwd {
            y,
            x,
            footprint: footprint_vals,
            ctx,
        };
        run_pipeline(
            self.fusing,
            self.overlap,
            &mut st,
            |_: &mut Bwd, _| {}, // scatters need no local pre-compute
            |st, f| -> ScatterInFlight {
                self.comm.telemetry().profile_slice_set(f as u32);
                let owned = &st.y[f * self.owned_rays_len..(f + 1) * self.owned_rays_len];
                // xct-allow(no-panic): lock poisoning means a sibling pipeline stage already panicked; propagate
                let mut scratch = self.scratch.lock().expect("scratch mutex");
                rp.scatter_begin::<S>(self.comm, &mut scratch, owned, factor, undo, slice_salt(f))
                    // xct-allow(no-panic): comm ops execute a verified plan; a wire fault mid-iteration is unrecoverable
                    .expect("scatter post")
            },
            |st, f, inflight| {
                self.comm.telemetry().profile_slice_set(f as u32);
                let fs = &mut st.footprint[f * self.footprint_len..(f + 1) * self.footprint_len];
                // xct-allow(no-panic): lock poisoning means a sibling pipeline stage already panicked; propagate
                let mut scratch = self.scratch.lock().expect("scratch mutex");
                rp.scatter_finish::<S>(self.comm, &mut scratch, inflight, fs)
                    // xct-allow(no-panic): comm ops execute a verified plan; a wire fault mid-iteration is unrecoverable
                    .expect("scatter finish");
            },
            |st, f| {
                self.comm.telemetry().profile_slice_set(f as u32);
                let fs = &st.footprint[f * self.footprint_len..(f + 1) * self.footprint_len];
                self.local.apply_transpose(
                    fs,
                    &mut st.x[f * self.owned_vox_len..(f + 1) * self.owned_vox_len],
                    st.ctx,
                );
            },
        );
        let Bwd { footprint, ctx, .. } = st;
        ctx.workspace.put(BufferRole::Footprint, footprint);
    }
}

impl LinearOperator for RankOperator<'_> {
    fn rows(&self) -> usize {
        self.owned_rays_len * self.fusing
    }

    fn cols(&self) -> usize {
        self.owned_vox_len * self.fusing
    }

    fn apply(&self, x: &[f32], y: &mut [f32], ctx: &mut ExecContext) {
        match self.precision {
            Precision::Double => self.apply_as::<f64>(x, y, ctx),
            Precision::Single => self.apply_as::<f32>(x, y, ctx),
            Precision::Half | Precision::Mixed => self.apply_as::<F16>(x, y, ctx),
        }
    }

    fn apply_transpose(&self, y: &[f32], x: &mut [f32], ctx: &mut ExecContext) {
        match self.precision {
            Precision::Double => self.apply_transpose_as::<f64>(y, x, ctx),
            Precision::Single => self.apply_transpose_as::<f32>(y, x, ctx),
            Precision::Half | Precision::Mixed => self.apply_transpose_as::<F16>(y, x, ctx),
        }
    }
}

/// Flight-records what a measured-weight rebalance actually changed:
/// how many Hilbert tiles moved to a different rank compared to the
/// uniform (cell-count) partition, out of how many total. A post-mortem
/// flight dump then shows whether a `--weights-from` run repartitioned
/// at all and how aggressively.
fn record_rebalance_decision(
    scan: &ScanGeometry,
    ranks: usize,
    tile: usize,
    telemetry: &Telemetry,
    weights: &[u64],
) {
    if !telemetry.is_enabled() {
        return;
    }
    let tomo = TileDecomposition::new(
        Domain2D::new(scan.grid.nx, scan.grid.nz),
        tile,
        CurveKind::Hilbert,
    );
    let mut uniform_owner = std::collections::HashMap::new();
    for sd in tomo.partition(ranks) {
        for t in sd.tiles {
            uniform_owner.insert((t.tx, t.ty), sd.id);
        }
    }
    let mut moved = 0u64;
    for sd in tomo.partition_weighted(ranks, weights) {
        for t in sd.tiles {
            if uniform_owner.get(&(t.tx, t.ty)) != Some(&sd.id) {
                moved += 1;
            }
        }
    }
    telemetry.flight_point("rebalance.decision", moved, tomo.num_tiles() as u64);
}

/// Rejects a `plan` made for another scan: with another volume, detector
/// or angle count, its decomposition and its budget arithmetic would not
/// describe the operator that runs.
fn check_plan(scan: &ScanGeometry, plan: &ReconPlan) -> Result<(), String> {
    let n = plan.dims.n;
    if scan.detector.channels != n || scan.grid.nx != n || scan.grid.nz != n {
        return Err(format!(
            "plan made for n = {n}, scan has a {}x{} grid and {} channels",
            scan.grid.nx, scan.grid.nz, scan.detector.channels
        ));
    }
    if scan.angles.len() != plan.angles {
        return Err(format!(
            "plan made for {} angles, scan has {}",
            plan.angles,
            scan.angles.len()
        ));
    }
    Ok(())
}

/// Everything a distributed run of one plan builds once and every slab
/// reuses: the Hilbert decomposition, the compiled exchange plans
/// (statically verified in debug builds and under `--verify-plans`) and
/// each rank's packed local operator. None of it depends on how many
/// slices a slab fuses.
pub(crate) struct RunSetup<'p> {
    plan: &'p ReconPlan,
    kernel: KernelShape,
    num_rays: usize,
    num_voxels: usize,
    decomp: SliceDecomposition,
    compiled: CompiledPlans,
    comm_elements: (u64, u64, u64),
    /// Packed by each rank's own thread on its first slab, so ranks pack
    /// in parallel and later slabs reuse the packing.
    locals: Vec<OnceLock<PrecisionOperator>>,
}

impl<'p> RunSetup<'p> {
    /// Checks `plan` against `scan` and builds its set-up; the error
    /// names the mismatch.
    pub(crate) fn new(
        scan: &ScanGeometry,
        plan: &'p ReconPlan,
        cfg: &DistributedConfig,
    ) -> Result<Self, String> {
        check_plan(scan, plan)?;
        let sm = SystemMatrix::build(scan);
        let ranks = plan.ranks();
        let tile = cfg.tile_for(plan);
        let weights = plan.tile_weights.as_ref().map(|tw| tw.weights.as_slice());
        if let Some(w) = weights {
            record_rebalance_decision(scan, ranks, tile, &cfg.telemetry, w);
        }
        let decomp =
            SliceDecomposition::build_weighted(&sm, scan, ranks, tile, CurveKind::Hilbert, weights);
        let ownership = decomp.ray_ownership();
        let direct = DirectPlan::build(&decomp.footprints, &ownership);
        let hier = HierarchicalPlan::build(&decomp.footprints, &ownership, &plan.topology);

        let comm_elements = if plan.hierarchical {
            hier.level_elements()
        } else {
            (0, 0, direct.total_elements())
        };
        // Compile the plan once into per-peer index tables; every rank then
        // executes pure index arithmetic with zero steady-state allocations.
        let compiled = if plan.hierarchical {
            CompiledPlans::compile_hierarchical(&decomp.footprints, &ownership, &hier)
        } else {
            CompiledPlans::compile_direct(&decomp.footprints, &ownership, &direct)
        };
        // Debug builds always statically verify the plan before running it;
        // release builds do so under `--verify-plans`.
        if cfg.verify_plans || cfg!(debug_assertions) {
            let report = if plan.hierarchical {
                xct_verify::verify_all_hierarchical(
                    &decomp.footprints,
                    &ownership,
                    &plan.topology,
                    &hier,
                    &compiled,
                    plan.overlap,
                )
            } else {
                xct_verify::verify_all_direct(
                    &decomp.footprints,
                    &ownership,
                    &direct,
                    &compiled,
                    plan.overlap,
                )
            };
            report.assert_ok("communication plan");
        }
        Ok(RunSetup {
            plan,
            kernel: cfg.kernel_for(plan),
            locals: (0..ranks).map(|_| OnceLock::new()).collect(),
            num_rays: sm.num_rays(),
            num_voxels: sm.num_voxels(),
            decomp,
            compiled,
            comm_elements,
        })
    }

    /// `rank`'s distributed operator over `fusing` slices.
    fn rank_operator<'a>(&'a self, comm: &'a Communicator, fusing: usize) -> RankOperator<'a> {
        let rank = comm.rank();
        // Internal fusing of 1: the rank operator pipelines slices itself,
        // so one packing serves every slab width.
        let local = self.locals[rank].get_or_init(|| {
            let csr = &self.decomp.local_ops[rank].csr;
            let KernelShape {
                block_size,
                shared_bytes,
            } = self.kernel;
            PrecisionOperator::new(csr, self.plan.precision, 1, block_size, shared_bytes)
        });
        RankOperator {
            comm,
            precision: self.plan.precision,
            overlap: self.plan.overlap,
            fusing,
            plans: &self.compiled,
            local,
            scratch: Mutex::new(ExchangeScratch::new()),
            rank,
            footprint_len: self.decomp.local_ops[rank].rows.len(),
            owned_rays_len: self.decomp.owned_rays[rank].len(),
            owned_vox_len: self.decomp.owned_voxels[rank].len(),
        }
    }

    /// Reconstructs `fusing` slices sharing the plan's geometry from
    /// their slice-major sinogram (`fusing × num_rays`).
    pub(crate) fn solve(
        &self,
        sinogram: &[f32],
        fusing: usize,
        cfg: &DistributedConfig,
    ) -> DistributedResult {
        let precision = self.plan.precision;
        let outputs = run_ranks_traced_wired(self.plan.ranks(), &cfg.telemetry, cfg.wire, |comm| {
            let rank_op = self.rank_operator(comm, fusing);
            let y_local =
                self.decomp
                    .restrict_sinogram(sinogram, self.num_rays, fusing, comm.rank());
            let mut tag = 0x9000u64;
            // One context per rank — each simulated GPU owns its workspace.
            // The rank's telemetry handle is the communicator's fork, so
            // solver spans and exchange spans nest on one per-rank track.
            let mut ctx = ExecContext::serial()
                .with_precision(precision)
                .with_telemetry(comm.telemetry().clone());
            let report = cgls_in(
                &rank_op,
                &y_local,
                &CglsConfig {
                    max_iters: cfg.iterations,
                    tolerance: 0.0,
                    damping: 0.0,
                },
                &mut ctx,
                &mut |v| {
                    tag = tag.wrapping_add(2);
                    // xct-allow(no-panic): comm ops execute a verified plan; a wire fault mid-iteration is unrecoverable
                    comm.allreduce_sum(tag, v).expect("allreduce_sum")
                },
            );
            (
                report.x,
                report.residual_history,
                comm.comm_stats(),
                ctx.counters,
            )
        });

        let pieces: Vec<Vec<f32>> = outputs.iter().map(|(x, _, _, _)| x.clone()).collect();
        let x = self
            .decomp
            .assemble_volume(&pieces, self.num_voxels, fusing);
        let comm_stats: Vec<RankCommStats> = outputs.iter().map(|(_, _, s, _)| s.clone()).collect();
        let mut counters = ExecCounters::default();
        for (_, _, _, c) in &outputs {
            counters.merge(c);
        }
        DistributedResult {
            x,
            residual_history: outputs[0].1.clone(),
            comm_elements: self.comm_elements,
            comm_stats,
            counters,
        }
    }
}

/// Runs a complete distributed reconstruction of the one-slab `plan`
/// against `scan`: all `plan.dims.slices` slices fused in one resident
/// pass. `sinogram` is slice-major (`slices × num_rays`). Returns the
/// assembled volume. Multi-slab plans stream through
/// [`crate::reconstruct_planned`].
///
/// # Panics
/// Panics if the plan has more than one slab, describes another scan,
/// or the sinogram length does not match it.
pub fn reconstruct_distributed(
    scan: &ScanGeometry,
    sinogram: &[f32],
    plan: &ReconPlan,
    cfg: &DistributedConfig,
) -> DistributedResult {
    assert_eq!(
        plan.slabs.len(),
        1,
        "reconstruct_distributed runs one-slab plans; stream the rest with reconstruct_planned"
    );
    assert_eq!(
        sinogram.len(),
        scan.num_rays() * plan.dims.slices,
        "sinogram length mismatch"
    );
    RunSetup::new(scan, plan, cfg)
        // xct-allow(no-panic): a plan made for another scan is a caller bug, like a wrong sinogram length
        .unwrap_or_else(|mismatch| panic!("{mismatch}"))
        .solve(sinogram, plan.dims.slices, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_comm::{run_ranks, Topology};
    use xct_geometry::ImageGrid;
    use xct_plan::{Planner, VolumeDims};
    use xct_solver::{cgls, CglsConfig, SystemMatrixOperator};

    /// `p`'s one-slab plan fusing all `slices` slices of `scan`.
    fn one_slab(p: Planner, scan: &ScanGeometry, slices: usize, topo: Topology) -> ReconPlan {
        let (n, angles, max_fusing) = (scan.grid.nx, scan.angles.len(), slices);
        Planner { max_fusing, ..p }
            .plan(VolumeDims { n, slices }, angles, None, topo)
            .unwrap()
    }

    /// Single precision, hierarchical exchange, no overlap.
    const SINGLE: Planner = Planner {
        precision: Precision::Single,
        hierarchical: true,
        overlap: false,
        max_fusing: 1,
        kernel: None,
    };

    /// [`SINGLE`] with the direct exchange.
    const DIRECT: Planner = Planner {
        hierarchical: false,
        ..SINGLE
    };

    fn phantom_sinogram(scan: &ScanGeometry, fusing: usize) -> (SystemMatrix, Vec<f32>, Vec<f32>) {
        let sm = SystemMatrix::build(scan);
        let n = scan.grid.nx;
        let mut x_true = vec![0.0f32; sm.num_voxels() * fusing];
        for f in 0..fusing {
            for i in 0..sm.num_voxels() {
                let (ix, iz) = (
                    (i % n) as f32 - n as f32 / 2.0 + 0.5,
                    (i / n) as f32 - n as f32 / 2.0 + 0.5,
                );
                let r2 = ix * ix + iz * iz;
                x_true[f * sm.num_voxels() + i] = if r2 < (n as f32 / 3.0).powi(2) {
                    0.8 + 0.1 * f as f32
                } else {
                    0.0
                };
            }
        }
        let mut y = vec![0.0f32; sm.num_rays() * fusing];
        for f in 0..fusing {
            sm.project(
                &x_true[f * sm.num_voxels()..(f + 1) * sm.num_voxels()],
                &mut y[f * sm.num_rays()..(f + 1) * sm.num_rays()],
            );
        }
        (sm, x_true, y)
    }

    fn rel_err(a: &[f32], b: &[f32]) -> f64 {
        let num: f64 = a
            .iter()
            .zip(b)
            .map(|(&p, &q)| (f64::from(p) - f64::from(q)).powi(2))
            .sum();
        let den: f64 = b.iter().map(|&q| f64::from(q).powi(2)).sum();
        (num / den.max(1e-30)).sqrt()
    }

    #[test]
    fn distributed_matches_single_process_reference() {
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 16);
        let (sm, _x_true, y) = phantom_sinogram(&scan, 1);
        // Single-process reference CGLS.
        let reference = cgls(
            &SystemMatrixOperator::new(&sm),
            &y,
            &CglsConfig {
                max_iters: 12,
                tolerance: 0.0,
                damping: 0.0,
            },
        );
        // Distributed, single precision (no quantization noise), direct.
        let plan = one_slab(DIRECT, &scan, 1, Topology::new(1, 2, 2));
        let cfg = DistributedConfig {
            iterations: 12,
            ..Default::default()
        };
        let dist = reconstruct_distributed(&scan, &y, &plan, &cfg);
        let err = rel_err(&dist.x, &reference.x);
        assert!(err < 5e-3, "distributed vs reference error {err}");
        // Residual histories agree too.
        for (a, b) in dist
            .residual_history
            .iter()
            .zip(&reference.residual_history)
        {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn hierarchical_equals_direct_distributed() {
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
        let (_, _, y) = phantom_sinogram(&scan, 1);
        let cfg = DistributedConfig {
            iterations: 8,
            ..Default::default()
        };
        let run = |planner| {
            let plan = one_slab(planner, &scan, 1, Topology::new(2, 2, 2));
            reconstruct_distributed(&scan, &y, &plan, &cfg)
        };
        let (direct, hier) = (run(DIRECT), run(SINGLE));
        let err = rel_err(&hier.x, &direct.x);
        assert!(err < 1e-4, "hierarchical vs direct error {err}");
    }

    #[test]
    fn mixed_precision_distributed_converges() {
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 20);
        let (sm, x_true, y) = phantom_sinogram(&scan, 1);
        let plan = one_slab(Planner::default(), &scan, 1, Topology::new(2, 2, 2));
        let cfg = DistributedConfig {
            iterations: 25,
            ..Default::default()
        };
        let dist = reconstruct_distributed(&scan, &y, &plan, &cfg);
        let _ = sm;
        let err = rel_err(&dist.x, &x_true);
        assert!(err < 0.15, "mixed distributed reconstruction error {err}");
        // Residuals descend.
        let hist = &dist.residual_history;
        assert!(
            hist.last().unwrap() < &0.1,
            "final residual {}",
            hist.last().unwrap()
        );
    }

    #[test]
    fn fused_slices_reconstruct_together() {
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 16);
        let fusing = 3;
        let (sm, x_true, y) = phantom_sinogram(&scan, fusing);
        let plan = one_slab(SINGLE, &scan, fusing, Topology::new(1, 2, 2));
        let cfg = DistributedConfig {
            iterations: 20,
            ..Default::default()
        };
        let dist = reconstruct_distributed(&scan, &y, &plan, &cfg);
        for f in 0..fusing {
            let err = rel_err(
                &dist.x[f * sm.num_voxels()..(f + 1) * sm.num_voxels()],
                &x_true[f * sm.num_voxels()..(f + 1) * sm.num_voxels()],
            );
            assert!(err < 0.15, "slice {f} error {err}");
        }
    }

    #[test]
    fn rank_operator_is_adjoint_across_ranks() {
        // ⟨A·x, y⟩ = ⟨x, Aᵀ·y⟩ must hold for the *distributed* operator:
        // partial SpMM + exchange on the forward side against scatter +
        // transposed SpMM on the backward side, summed over all ranks.
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
        let sm = SystemMatrix::build(&scan);
        for &(precision, hierarchical, tol) in &[
            (Precision::Single, false, 1e-6),
            (Precision::Single, true, 1e-6),
            (Precision::Double, true, 1e-6),
            (Precision::Mixed, true, 2e-2),
            (Precision::Half, true, 5e-2),
        ] {
            let planner = Planner {
                precision,
                hierarchical,
                ..SINGLE
            };
            let plan = one_slab(planner, &scan, 1, Topology::new(1, 2, 2));
            let setup = RunSetup::new(&scan, &plan, &DistributedConfig::default()).unwrap();
            let decomp = &setup.decomp;
            let x_global: Vec<f32> = (0..sm.num_voxels())
                .map(|i| ((i * 23 + 7) % 41) as f32 / 41.0)
                .collect();
            let y_global: Vec<f32> = (0..sm.num_rays())
                .map(|i| ((i * 17 + 3) % 29) as f32 / 29.0)
                .collect();
            let outputs = run_ranks(plan.ranks(), |comm| {
                let rank = comm.rank();
                let rank_op = setup.rank_operator(comm, 1);
                let mut ctx = ExecContext::serial();
                let x_local: Vec<f32> = decomp.owned_voxels[rank]
                    .iter()
                    .map(|&v| x_global[v as usize])
                    .collect();
                let y_local: Vec<f32> = decomp.owned_rays[rank]
                    .iter()
                    .map(|&r| y_global[r as usize])
                    .collect();
                let mut ax = vec![0.0f32; rank_op.rows()];
                rank_op.apply(&x_local, &mut ax, &mut ctx);
                let lhs_part: f64 = ax
                    .iter()
                    .zip(&y_local)
                    .map(|(&a, &b)| f64::from(a) * f64::from(b))
                    .sum();
                let mut aty = vec![0.0f32; rank_op.cols()];
                rank_op.apply_transpose(&y_local, &mut aty, &mut ctx);
                let rhs_part: f64 = aty
                    .iter()
                    .zip(&x_local)
                    .map(|(&a, &b)| f64::from(a) * f64::from(b))
                    .sum();
                let lhs = comm.allreduce_sum(0x6000, lhs_part).expect("allreduce");
                let rhs = comm.allreduce_sum(0x6002, rhs_part).expect("allreduce");
                (lhs, rhs)
            });
            let (lhs, rhs) = outputs[0];
            assert!(
                (lhs - rhs).abs() <= tol * lhs.abs().max(1.0),
                "{precision:?} hier={hierarchical}: ⟨Ax,y⟩ = {lhs} vs ⟨x,Aᵀy⟩ = {rhs}"
            );
        }
    }

    #[test]
    fn overlap_run_shows_global_exchange_over_spmm() {
        // The §III-E acceptance evidence: with overlap on, at least one
        // rank's trace must show a SpmmForward span *nested under* an
        // open ReduceGlobal span — i.e. the next slice's kernel ran while
        // the previous slice's global exchange was still in flight.
        use xct_exec::{Phase, Telemetry};
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 16);
        let fusing = 3;
        let (_, _, y) = phantom_sinogram(&scan, fusing);
        let telemetry = Telemetry::enabled();
        let overlapped = Planner {
            overlap: true,
            ..SINGLE
        };
        let plan = one_slab(overlapped, &scan, fusing, Topology::new(1, 2, 2));
        let cfg = DistributedConfig {
            iterations: 2,
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let _ = reconstruct_distributed(&scan, &y, &plan, &cfg);
        let snap = telemetry.snapshot();
        let has_ancestor = |mut parent: Option<usize>, phase: Phase| {
            while let Some(i) = parent {
                if snap.spans[i].phase == phase {
                    return true;
                }
                parent = snap.spans[i].parent;
            }
            false
        };
        let spmm_under_exchange = snap
            .spans
            .iter()
            .any(|s| s.phase == Phase::SpmmForward && has_ancestor(s.parent, Phase::ReduceGlobal));
        assert!(
            spmm_under_exchange,
            "overlap run must trace SpmmForward under an open ReduceGlobal span"
        );
        // Transpose direction too: a transposed SpMM under an in-flight
        // halo exchange (scatter).
        let tspmm_under_halo = snap.spans.iter().any(|s| {
            s.phase == Phase::SpmmTranspose && has_ancestor(s.parent, Phase::HaloExchange)
        });
        assert!(
            tspmm_under_halo,
            "overlap run must trace SpmmTranspose under an open HaloExchange span"
        );
    }

    #[test]
    fn synchronous_run_keeps_spmm_outside_exchange() {
        // Control for the overlap evidence: without overlap no SpMM span
        // nests under a global-exchange span.
        use xct_exec::{Phase, Telemetry};
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 16);
        let fusing = 3;
        let (_, _, y) = phantom_sinogram(&scan, fusing);
        let telemetry = Telemetry::enabled();
        let plan = one_slab(SINGLE, &scan, fusing, Topology::new(1, 2, 2));
        let cfg = DistributedConfig {
            iterations: 2,
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let _ = reconstruct_distributed(&scan, &y, &plan, &cfg);
        let snap = telemetry.snapshot();
        let nested = snap.spans.iter().any(|s| {
            (s.phase == Phase::SpmmForward || s.phase == Phase::SpmmTranspose)
                && s.parent.is_some_and(|i| {
                    matches!(
                        snap.spans[i].phase,
                        Phase::ReduceGlobal | Phase::HaloExchange
                    )
                })
        });
        assert!(
            !nested,
            "synchronous run must not interleave SpMM with exchanges"
        );
    }

    #[test]
    fn comm_accounting_reports_hierarchy() {
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 12);
        let (_, _, y) = phantom_sinogram(&scan, 1);
        let plan = one_slab(SINGLE, &scan, 1, Topology::new(2, 2, 2));
        let cfg = DistributedConfig {
            iterations: 1,
            ..Default::default()
        };
        let res = reconstruct_distributed(&scan, &y, &plan, &cfg);
        let (s, n, g) = res.comm_elements;
        assert!(s > 0, "socket traffic expected");
        assert!(g > 0, "global traffic expected");
        // Global (post-reduction) must not exceed socket-level input.
        assert!(g <= s + n + g);
        // Measured traffic and merged counters ride along with the plan.
        assert_eq!(res.comm_stats.len(), plan.ranks());
        assert!(res.comm_stats.iter().any(|st| st.total_bytes() > 0));
        assert!(res.counters.kernel_launches > 0);
        assert!(res.counters.flops > 0);
    }

    #[test]
    fn distributed_run_records_per_rank_spans() {
        use xct_exec::{Phase, Telemetry};
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
        let (_, _, y) = phantom_sinogram(&scan, 1);
        let telemetry = Telemetry::enabled();
        let plan = one_slab(SINGLE, &scan, 1, Topology::new(1, 2, 2));
        let cfg = DistributedConfig {
            iterations: 3,
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let _ = reconstruct_distributed(&scan, &y, &plan, &cfg);
        let snap = telemetry.snapshot();
        for rank in 0..plan.ranks() as u32 {
            let iters = snap
                .spans
                .iter()
                .filter(|s| s.track == rank && s.phase == Phase::SolverIteration)
                .count();
            assert_eq!(iters, 3, "rank {rank} iteration spans");
            assert!(
                snap.spans
                    .iter()
                    .any(|s| s.track == rank && s.phase == Phase::ReduceSocket),
                "rank {rank} socket-reduce span"
            );
        }
        // Residual events were emitted per rank per iteration.
        let events = snap
            .events
            .iter()
            .filter(|e| e.name == "cgls.residual")
            .count();
        assert_eq!(events, 3 * plan.ranks());
    }

    #[test]
    fn profiled_run_attributes_spmm_cost_to_every_rank_and_slice() {
        use xct_exec::Telemetry;
        use xct_telemetry::{CostComponent, ProfileDims};
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
        let fusing = 2;
        let (_, _, y) = phantom_sinogram(&scan, fusing);
        let telemetry = Telemetry::enabled();
        assert!(telemetry.enable_profile(ProfileDims {
            tracks: 4,
            slabs: 1,
            slices: fusing,
        }));
        let plan = one_slab(SINGLE, &scan, fusing, Topology::new(1, 2, 2));
        let cfg = DistributedConfig {
            iterations: 2,
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let _ = reconstruct_distributed(&scan, &y, &plan, &cfg);
        let profile = telemetry.profile_snapshot().expect("profiling enabled");
        for rank in 0..4 {
            assert!(
                profile.track_component_ns(rank, CostComponent::SpmmCompute) > 0,
                "rank {rank} recorded no SpMM cost"
            );
            assert!(
                profile.track_component_ns(rank, CostComponent::ReduceSocket) > 0,
                "rank {rank} recorded no socket-reduce cost"
            );
            // Both fused slices attract SpMM cost on the slab-0 key.
            for slice in 0..fusing {
                assert!(
                    profile.get(rank, 0, slice, CostComponent::SpmmCompute) > 0,
                    "rank {rank} slice {slice} unattributed"
                );
            }
        }
    }

    #[test]
    fn weighted_run_rebalances_and_flight_records_the_decision() {
        use xct_exec::Telemetry;
        use xct_telemetry::FlightKind;
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 20);
        let (sm, x_true, y) = phantom_sinogram(&scan, 1);
        // A sharply skewed weight table: the first curve-order tiles are
        // two orders of magnitude hotter than the rest.
        let side = 16usize.div_ceil(4);
        let mut weights = vec![10u64; side * side];
        weights[0] = 1_000;
        weights[1] = 1_000;
        let telemetry = Telemetry::enabled();
        let plan = one_slab(SINGLE, &scan, 1, Topology::new(1, 2, 2)).with_tile_weights(
            xct_plan::TileWeights {
                tile_size: 4,
                weights,
            },
        );
        let cfg = DistributedConfig {
            iterations: 20,
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let dist = reconstruct_distributed(&scan, &y, &plan, &cfg);
        // The repartitioned run still reconstructs the phantom.
        let _ = sm;
        let err = rel_err(&dist.x, &x_true);
        assert!(err < 0.15, "weighted reconstruction error {err}");
        // The flight recorder kept the rebalance decision: some tiles
        // moved, out of the full 4x4 grid.
        let decision = telemetry
            .flight_snapshot()
            .into_iter()
            .find(|e| e.kind == FlightKind::Point && e.code == "rebalance.decision")
            .expect("rebalance decision recorded");
        assert_eq!(decision.b, (side * side) as u64);
        assert!(decision.a > 0, "skewed weights must move at least one tile");
    }

    #[test]
    fn traced_run_records_match_edges_and_a_dominating_critical_path() {
        // End-to-end causal evidence: a wired distributed run leaves
        // send→recv match edges in the snapshot (with wire cost on
        // inter-node ones), and the critical path computed from them
        // dominates every rank's local busy time.
        use xct_exec::Telemetry;
        use xct_telemetry::CausalAnalysis;
        let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
        let (_, _, y) = phantom_sinogram(&scan, 1);
        let telemetry = Telemetry::enabled();
        let plan = one_slab(SINGLE, &scan, 1, Topology::new(2, 1, 2));
        let cfg = DistributedConfig {
            iterations: 2,
            wire: Some(WireModel {
                latency: std::time::Duration::from_micros(200),
                bytes_per_sec: f64::INFINITY,
                ranks_per_node: 2,
            }),
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let _ = reconstruct_distributed(&scan, &y, &plan, &cfg);
        let snap = telemetry.snapshot();
        assert!(!snap.edges.is_empty(), "wired run must record match edges");
        assert!(
            snap.edges.iter().any(|e| e.wire_ns >= 200_000),
            "inter-node edges must carry the wire latency"
        );
        assert!(
            snap.edges.iter().any(|e| e.wire_ns == 0),
            "intra-node edges must carry zero wire cost"
        );
        let causal = CausalAnalysis::from_snapshot(&snap);
        assert!(causal.critical_path_ns > 0);
        assert_eq!(causal.per_rank.len(), plan.ranks());
        for rank in &causal.per_rank {
            assert!(
                causal.critical_path_ns >= rank.busy_ns,
                "critical path {} shorter than rank {}'s busy time {}",
                causal.critical_path_ns,
                rank.track,
                rank.busy_ns
            );
            assert!(
                rank.slack_ns <= causal.critical_path_ns,
                "slack cannot exceed the critical path"
            );
        }
        assert!(
            causal.per_rank.iter().any(|r| r.slack_ns == 0),
            "some rank must bound end-to-end time"
        );
    }
}
