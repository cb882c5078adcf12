//! Plan-driven, optionally out-of-core distributed reconstruction:
//! execute a [`ReconPlan`] slab by slab, paging non-resident slabs
//! through `xct-io` while resident compute runs.
//!
//! The paper overlaps I/O with compute the same way it overlaps
//! communication (§III-A2, §III-E): while slab `k` reconstructs, slab
//! `k+1`'s sinogram prefetches on a background thread and slab `k-1`'s
//! volume writes back on another. Slab boundaries — not data movement —
//! determine the arithmetic: each slab runs the exact same multi-rank
//! pipeline it would run fully resident with the same fusing, so a
//! streamed run is bit-identical to an unconstrained run batched at the
//! plan's fusing factor. Slabs share one set-up — system matrix,
//! decomposition, compiled exchange plans, packed rank operators — built
//! once per plan before the first slab runs.

use crate::distributed::{DistributedConfig, RunSetup};
use crate::volume::PipelineError;
use xct_comm::RankCommStats;
use xct_exec::{ExecCounters, MetricId, Phase};
use xct_geometry::ScanGeometry;
use xct_io::{DeferredWriter, PrefetchReader, SliceReader, SliceWriter};
use xct_plan::ReconPlan;

/// Outcome of a plan-driven reconstruction.
#[derive(Debug, Clone)]
pub struct PlannedStats {
    /// Slices reconstructed.
    pub slices: usize,
    /// Slabs executed (the plan's slab count).
    pub slabs: usize,
    /// Whether slabs paged through I/O rather than staying resident.
    pub streamed: bool,
    /// Worst final relative residual across slabs.
    pub worst_residual: f64,
    /// Measured per-rank communication traffic merged across slabs.
    pub comm_stats: Vec<RankCommStats>,
    /// Execution counters merged across ranks and slabs.
    pub counters: ExecCounters,
}

/// [`reconstruct_planned`]'s result: the stats plus the drained reader
/// and completed writer, returned so the caller can verify the input
/// checksum and finish (checksum-seal) the output.
pub struct PlannedOutcome {
    /// Run statistics.
    pub stats: PlannedStats,
    /// The input reader, fully drained.
    pub reader: SliceReader,
    /// The output writer, all slices written but not yet finished.
    pub writer: SliceWriter,
}

fn check(cond: bool, msg: impl FnOnce() -> String) -> Result<(), PipelineError> {
    if cond {
        Ok(())
    } else {
        Err(PipelineError::Geometry(msg()))
    }
}

/// Executes `plan` against `scan`: reads each slab's sinogram from
/// `reader`, reconstructs it on the plan's simulated topology, and
/// writes its tomogram slices to `writer` in order.
///
/// When the plan streams (more than one slab), the next slab's read and
/// the previous slab's write run on background threads while the
/// current slab computes. The plan fixes the run's shape; `base` holds
/// the runtime knobs it does not own (wire model, iteration count,
/// telemetry, plan verification, default tile and kernel shape). A plan
/// made for another scan or file is a [`PipelineError::Geometry`].
pub fn reconstruct_planned(
    scan: &ScanGeometry,
    plan: &ReconPlan,
    reader: SliceReader,
    writer: SliceWriter,
    base: &DistributedConfig,
) -> Result<PlannedOutcome, PipelineError> {
    let num_rays = scan.angles.len() * scan.detector.channels;
    let num_voxels = scan.grid.nx * scan.grid.nz;
    check(reader.meta().slice_len == num_rays, || {
        format!(
            "file has {} scalars per slice, scan produces {num_rays}",
            reader.meta().slice_len
        )
    })?;
    check(reader.meta().slices == plan.dims.slices, || {
        format!(
            "plan covers {} slices, file holds {}",
            plan.dims.slices,
            reader.meta().slices
        )
    })?;
    check(writer.meta().slice_len == num_voxels, || {
        format!(
            "output expects {} scalars per slice, volume slices have {num_voxels}",
            writer.meta().slice_len
        )
    })?;
    check(writer.meta().slices == plan.dims.slices, || {
        format!(
            "plan covers {} slices, output file expects {}",
            plan.dims.slices,
            writer.meta().slices
        )
    })?;
    debug_assert!(plan.fits(), "executing an over-budget plan");
    let setup = RunSetup::new(scan, plan, base).map_err(PipelineError::Geometry)?;
    let telemetry = &base.telemetry;
    let streamed = plan.streaming();

    // Publish the plan shape so progress reporting and budget-health
    // gauges have denominators before the first slab lands.
    telemetry.gauge_set(MetricId::ProgressSlabsTotal, plan.slabs.len() as f64);
    telemetry.gauge_set(MetricId::ProgressItersPerSlab, base.iterations as f64);
    #[allow(clippy::cast_precision_loss)] // gauges are approximate by nature
    {
        if let Some(budget) = plan.budget_bytes {
            telemetry.gauge_set(MetricId::PlanBudgetBytes, budget as f64);
        }
        telemetry.gauge_set(MetricId::PlanUsedBytes, plan.per_rank_bytes() as f64);
    }

    let mut stats = PlannedStats {
        slices: 0,
        slabs: 0,
        streamed,
        worst_residual: 0.0,
        comm_stats: Vec::new(),
        counters: ExecCounters::default(),
    };

    let mut input = PrefetchReader::with_telemetry(reader, telemetry.clone());
    let mut output = DeferredWriter::with_telemetry(writer, telemetry.clone());
    if let Some(first) = plan.slabs.first() {
        input.prefetch(first.len);
    }
    // xct-hot
    for slab in &plan.slabs {
        telemetry.gauge_set(MetricId::StreamSlabCurrent, slab.index as f64);
        telemetry.profile_slab_set(slab.index as u32);
        let data = {
            let _io = telemetry.span(Phase::Io);
            input.next(slab.len)?
        }
        .ok_or_else(|| {
            // xct-allow(hot-alloc): cold error path — only reached when the input file is truncated
            PipelineError::Geometry(format!("input exhausted before slab {}", slab.index))
        })?;
        // Kick off the next slab's read before this slab computes.
        if let Some(next) = plan.slabs.get(slab.index + 1) {
            input.prefetch(next.len);
        }
        let result = setup.solve(&data, slab.len, base);
        {
            // Queue the write-back; blocks only on the previous slab's
            // write, so the stall (if any) is what the span measures.
            let _io = telemetry.span(Phase::Io);
            output.write_slab(result.x)?;
        }
        stats.slices += slab.len;
        stats.slabs += 1;
        telemetry.metric_inc(MetricId::StreamSlabsDone);
        telemetry.metric_add(MetricId::StreamSlicesDone, slab.len as u64);
        stats.counters.merge(&result.counters);
        for rank_stats in &result.comm_stats {
            match stats
                .comm_stats
                .iter_mut()
                .find(|m| m.rank == rank_stats.rank)
            {
                Some(m) => m.merge(rank_stats),
                None => stats.comm_stats.push(rank_stats.clone()),
            }
        }
        stats.worst_residual = stats
            .worst_residual
            .max(*result.residual_history.last().unwrap_or(&1.0));
    }
    let reader = input.into_inner()?;
    let writer = output.into_inner()?;
    Ok(PlannedOutcome {
        stats,
        reader,
        writer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_fp16::Precision;
    use xct_geometry::ImageGrid;
    use xct_io::{FileKind, SliceFile};
    use xct_phantom::shale_like;
    use xct_plan::{Planner, VolumeDims};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("xct_core_stream_tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    fn write_sinograms(scan: &ScanGeometry, slices: usize, path: &std::path::Path) {
        let sm = xct_geometry::SystemMatrix::build(scan);
        let meta = SliceFile {
            kind: FileKind::Sinogram,
            precision: Precision::Single,
            slices,
            slice_len: sm.num_rays(),
        };
        let mut w = SliceWriter::create(path, meta).unwrap();
        for s in 0..slices {
            let img = shale_like(scan.grid.nx, 40 + s as u64);
            let mut sino = vec![0.0f32; sm.num_rays()];
            sm.project(&img.data, &mut sino);
            w.write_slice(&sino).unwrap();
        }
        w.finish().unwrap();
    }

    fn volume_writer(path: &std::path::Path, slices: usize, num_voxels: usize) -> SliceWriter {
        SliceWriter::create(
            path,
            SliceFile {
                kind: FileKind::Volume,
                precision: Precision::Single,
                slices,
                slice_len: num_voxels,
            },
        )
        .unwrap()
    }

    #[test]
    fn streamed_run_is_bit_identical_to_resident_batches() {
        let n = 16;
        let slices = 6;
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 16);
        let sino = tmp("stream_in.xctd");
        write_sinograms(&scan, slices, &sino);
        let planner = Planner {
            precision: Precision::Single,
            max_fusing: slices,
            ..Default::default()
        };
        let dims = VolumeDims { n, slices };
        let topo = xct_comm::Topology::new(1, 2, 2);
        let base = DistributedConfig {
            iterations: 6,
            ..Default::default()
        };

        // Budget forcing fusing 2 → 3 streamed slabs.
        let probe = planner.plan(dims, 16, None, topo).unwrap();
        let budget = probe.matrix_bytes_per_rank() + 2 * probe.slice_bytes_per_rank();
        let plan = planner.plan(dims, 16, Some(budget), topo).unwrap();
        assert!(plan.streaming());
        let streamed_out = tmp("stream_out.xctd");
        let outcome = reconstruct_planned(
            &scan,
            &plan,
            SliceReader::open(&sino).unwrap(),
            volume_writer(&streamed_out, slices, n * n),
            &base,
        )
        .unwrap();
        assert!(outcome.stats.streamed);
        assert_eq!(outcome.stats.slabs, 3);
        assert_eq!(outcome.stats.slices, slices);
        outcome.reader.verify_checksum().unwrap();
        outcome.writer.finish().unwrap();

        // A resident plan at the same fusing (no budget pressure, fusing
        // capped to 2) must produce byte-identical output.
        let resident = Planner {
            max_fusing: 2,
            ..planner
        }
        .plan(dims, 16, None, topo)
        .unwrap();
        assert_eq!(resident.fusing, 2);
        let resident_out = tmp("resident_out.xctd");
        let outcome = reconstruct_planned(
            &scan,
            &resident,
            SliceReader::open(&sino).unwrap(),
            volume_writer(&resident_out, slices, n * n),
            &base,
        )
        .unwrap();
        outcome.writer.finish().unwrap();
        assert_eq!(
            std::fs::read(&streamed_out).unwrap(),
            std::fs::read(&resident_out).unwrap(),
            "streamed and resident runs must be bit-identical"
        );
    }

    #[test]
    fn plan_file_mismatch_is_reported() {
        let n = 12;
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 12);
        let sino = tmp("mismatch_in.xctd");
        write_sinograms(&scan, 3, &sino);
        let planner = Planner {
            precision: Precision::Single,
            ..Default::default()
        };
        let topo = xct_comm::Topology::new(1, 1, 2);
        // A plan made for 5 slices against the 3-slice file, and one made
        // for 3 angles against the 12-angle scan.
        for (slices, angles, want) in [(5, 12, "5 slices"), (3, 3, "3 angles")] {
            let plan = planner.plan(VolumeDims { n, slices }, angles, None, topo);
            match reconstruct_planned(
                &scan,
                &plan.unwrap(),
                SliceReader::open(&sino).unwrap(),
                volume_writer(&tmp("mismatch_out.xctd"), slices, n * n),
                &DistributedConfig::default(),
            ) {
                Err(PipelineError::Geometry(m)) => assert!(m.contains(want), "{m}"),
                Err(other) => panic!("expected geometry error, got {other:?}"),
                Ok(_) => panic!("mismatched plan must not run"),
            }
        }
    }

    #[test]
    fn slabs_share_one_set_up() {
        // The set-up records the rebalance decision, so a two-slab run
        // records it once when its slabs share one set-up.
        let (n, slices) = (12, 2);
        let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 12);
        let sino = tmp("shared_setup_in.xctd");
        write_sinograms(&scan, slices, &sino);
        let planner = Planner {
            max_fusing: 1,
            ..Default::default()
        };
        let topo = xct_comm::Topology::new(1, 1, 2);
        let mut weights = vec![10u64; 9];
        weights[0] = 1_000;
        let plan = planner
            .plan(VolumeDims { n, slices }, 12, None, topo)
            .unwrap();
        let plan = plan.with_tile_weights(xct_plan::TileWeights {
            tile_size: 4,
            weights,
        });
        let base = DistributedConfig {
            iterations: 2,
            telemetry: xct_exec::Telemetry::enabled(),
            ..Default::default()
        };
        let out = volume_writer(&tmp("shared_setup_out.xctd"), slices, n * n);
        let outcome =
            reconstruct_planned(&scan, &plan, SliceReader::open(&sino).unwrap(), out, &base);
        assert_eq!(outcome.unwrap().stats.slabs, 2);
        let flight = base.telemetry.flight_snapshot();
        let decisions = flight.iter().filter(|e| e.code == "rebalance.decision");
        assert_eq!(decisions.count(), 1, "one set-up per plan, not per slab");
    }
}
