//! The end-to-end call: what `petaxct reconstruct` does between opening
//! the sinogram file and finishing the checksummed volume file, through
//! the same public entry points.

use crate::error::BenchError;
use crate::inputs::{scan_for, Inputs};
use crate::workload::{Path, Workload, SERIAL_THREADS};
use xct_comm::RankCommStats;
use xct_core::distributed::DistributedConfig;
use xct_core::{reconstruct_planned, reconstruct_volume_in, ReconOptions, Reconstructor};
use xct_exec::{ExecContext, Executor};
use xct_io::{FileKind, SliceFile, SliceReader, SliceWriter};
use xct_plan::{Planner, ReconPlan, VolumeDims};
use xct_telemetry::Telemetry;
use xct_verify::plan_fits;

/// What one end-to-end call reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Worst final relative residual over the batches or slabs.
    pub residual: f64,
    /// Slabs (planned path) or batches (serial path) executed.
    pub slabs: usize,
    /// Per-rank communication totals (empty on the serial path).
    pub comm_stats: Vec<RankCommStats>,
}

/// The serial path's execution context: at most two compute threads.
pub fn serial_context(telemetry: &Telemetry) -> ExecContext {
    ExecContext::with_executor(Executor::threads(SERIAL_THREADS)).with_telemetry(telemetry.clone())
}

/// The workload's plan, checked by `plan_fits` as the CLI checks it.
pub fn plan_for(w: &Workload, inputs: &Inputs) -> Result<ReconPlan, BenchError> {
    let Path::Planned {
        topology, overlap, ..
    } = w.path
    else {
        return Err(BenchError(format!("{} has no distributed plan", w.name)));
    };
    let plan = Planner {
        precision: w.precision,
        hierarchical: true,
        overlap,
        max_fusing: w.batch,
        kernel: None,
    }
    .plan(
        VolumeDims {
            n: w.n,
            slices: w.slices,
        },
        w.angles,
        inputs.budget,
        topology,
    )
    .map_err(|e| BenchError(format!("plan: {e}")))?;
    let fits = plan_fits(&plan);
    if !fits.ok() {
        return Err(BenchError(format!("plan rejected:\n{fits}")));
    }
    Ok(plan)
}

/// Runs one reconstruction of `inputs` with `iterations` CGLS
/// iterations, writing `inputs.volume`.
pub fn reconstruct(
    w: &Workload,
    inputs: &Inputs,
    iterations: usize,
    telemetry: &Telemetry,
) -> Result<Outcome, BenchError> {
    let mut reader = SliceReader::open(&inputs.sinogram)?;
    let volume_file = |slice_len| SliceFile {
        kind: FileKind::Volume,
        precision: reader.meta().precision,
        slices: reader.meta().slices,
        slice_len,
    };
    match w.path {
        Path::Serial => {
            let recon = Reconstructor::new(scan_for(w));
            let mut writer = SliceWriter::create(&inputs.volume, volume_file(recon.num_voxels()))?;
            let opts = ReconOptions {
                precision: w.precision,
                iterations,
                ..Default::default()
            };
            let mut ctx = serial_context(telemetry);
            let stats =
                reconstruct_volume_in(&recon, &mut reader, &mut writer, &opts, w.batch, &mut ctx)?;
            reader.verify_checksum()?;
            writer.finish()?;
            Ok(Outcome {
                residual: stats.worst_residual,
                slabs: stats.batches,
                comm_stats: Vec::new(),
            })
        }
        Path::Planned { .. } => {
            let plan = plan_for(w, inputs)?;
            let writer = SliceWriter::create(&inputs.volume, volume_file(w.n * w.n))?;
            let base = DistributedConfig {
                iterations,
                wire: w.wire_model(),
                telemetry: telemetry.clone(),
                ..Default::default()
            };
            let outcome = reconstruct_planned(&scan_for(w), &plan, reader, writer, &base)?;
            outcome.reader.verify_checksum()?;
            outcome.writer.finish()?;
            Ok(Outcome {
                residual: outcome.stats.worst_residual,
                slabs: outcome.stats.slabs,
                comm_stats: outcome.stats.comm_stats,
            })
        }
    }
}
