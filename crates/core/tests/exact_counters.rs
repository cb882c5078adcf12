//! Exact accounting of distributed runs. The bytes each traffic class
//! carries and the kernel counters merged across ranks are fixed by the
//! decomposition, the exchange plan and the solver's apply count, so they
//! are asserted with equality against values derived without running the
//! pipeline — and they must not move when overlap reorders the schedule.

use std::time::Duration;

use xct_comm::{HierarchicalPlan, RankCommStats, Topology, TrafficClass, WireModel};
use xct_core::decompose::SliceDecomposition;
use xct_core::distributed::{reconstruct_distributed, DistributedConfig};
use xct_core::reconstruct_planned;
use xct_exec::ExecCounters;
use xct_fp16::Precision;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_hilbert::CurveKind;
use xct_io::{FileKind, SliceFile, SliceReader, SliceWriter};
use xct_plan::{Planner, ReconPlan, VolumeDims};
use xct_spmm::PackedMatrix;

const N: usize = 16;
const FUSING: usize = 2;
const ITERATIONS: usize = 3;

/// Bytes per traffic class (socket, node, global, control, other).
type ClassBytes = [u64; 5];
/// Merged (flops, padded flops, kernel launches).
type KernelCounts = (u64, u64, u64);

fn scan() -> ScanGeometry {
    ScanGeometry::uniform(ImageGrid::square(N, 1.0), N)
}

/// `slices` projections of a deterministic test volume, slice-major.
fn sinogram(sm: &SystemMatrix, slices: usize) -> Vec<f32> {
    let x_true: Vec<f32> = (0..sm.num_voxels())
        .map(|i| (i % 11) as f32 * 0.1)
        .collect();
    let mut y = vec![0.0f32; sm.num_rays() * slices];
    for slice in y.chunks_mut(sm.num_rays()) {
        sm.project(&x_true, slice);
    }
    y
}

/// Single-precision hierarchical plan fusing `FUSING` slices in one slab.
fn one_slab(topology: Topology, overlap: bool) -> ReconPlan {
    Planner {
        precision: Precision::Single,
        hierarchical: true,
        overlap,
        max_fusing: FUSING,
        kernel: None,
    }
    .plan(
        VolumeDims {
            n: N,
            slices: FUSING,
        },
        N,
        None,
        topology,
    )
    .unwrap()
}

fn config(wire: Option<WireModel>) -> DistributedConfig {
    DistributedConfig {
        wire,
        iterations: ITERATIONS,
        ..Default::default()
    }
}

/// What one `reconstruct_distributed` call of `plan` under `cfg` must
/// report, derived from the decomposition, the hierarchical plan and the
/// packed per-rank matrices alone.
fn expected(
    scan: &ScanGeometry,
    sm: &SystemMatrix,
    plan: &ReconPlan,
    cfg: &DistributedConfig,
) -> (ClassBytes, KernelCounts) {
    let ranks = plan.ranks() as u64;
    // CGLS applies Aᵀ once to start, then A and Aᵀ once per iteration,
    // each over every fused slice; each slice's (back)projection moves
    // every plan level's elements once, as f32 on the wire.
    let forward = (cfg.iterations * plan.fusing) as u64;
    let transpose = ((cfg.iterations + 1) * plan.fusing) as u64;
    let decomp = SliceDecomposition::build(sm, scan, plan.ranks(), cfg.tile, CurveKind::Hilbert);
    let hier = HierarchicalPlan::build(&decomp.footprints, &decomp.ray_ownership(), &plan.topology);
    let (socket, node, global) = hier.level_elements();
    let level_bytes = |elements: u64| elements * 4 * (forward + transpose);
    // Control: two allreduces in CGLS set-up and three per iteration, each
    // gathering one f64 from every other rank at rank 0 and broadcasting
    // one back.
    let allreduces = 2 + 3 * cfg.iterations as u64;
    let bytes = [
        level_bytes(socket),
        level_bytes(node),
        level_bytes(global),
        allreduces * 2 * (ranks - 1) * 8,
        0,
    ];

    // Every rank runs its local operator and its transpose one slice at a
    // time: one launch per slice per apply, at the packed matrices' flops.
    let (mut flops, mut padded_flops) = (0, 0);
    for local in &decomp.local_ops {
        let pack = |csr| PackedMatrix::<f32>::pack(csr, cfg.block_size, cfg.shared_bytes, 1);
        let a = pack(&local.csr).kernel_metrics();
        let at = pack(&local.csr.transpose()).kernel_metrics();
        flops += a.flops * forward + at.flops * transpose;
        padded_flops += a.padded_flops * forward + at.padded_flops * transpose;
    }
    (bytes, (flops, padded_flops, ranks * (forward + transpose)))
}

fn measured(comm_stats: &[RankCommStats], c: &ExecCounters) -> (ClassBytes, KernelCounts) {
    let bytes =
        TrafficClass::ALL.map(|class| comm_stats.iter().map(|s| s.class_bytes_of(class)).sum());
    (bytes, (c.flops, c.padded_flops, c.kernel_launches))
}

/// Runs on `topology` with overlap off and on and checks both against
/// [`expected`].
fn assert_exact(topology: Topology, wire: Option<WireModel>) -> ClassBytes {
    let scan = scan();
    let sm = SystemMatrix::build(&scan);
    let y = sinogram(&sm, FUSING);
    let cfg = config(wire);
    let want = expected(&scan, &sm, &one_slab(topology, false), &cfg);
    for overlap in [false, true] {
        let result = reconstruct_distributed(&scan, &y, &one_slab(topology, overlap), &cfg);
        assert_eq!(
            measured(&result.comm_stats, &result.counters),
            want,
            "{topology:?} overlap={overlap}: (bytes per class, (flops, padded flops, launches))"
        );
    }
    want.0
}

#[test]
fn in_memory_1x2x2_counts_match_the_plan_exactly() {
    assert_exact(Topology::new(1, 2, 2), None);
}

#[test]
fn wired_2x2x2_counts_match_the_plan_exactly() {
    let topology = Topology::new(2, 2, 2);
    let wire = WireModel {
        latency: Duration::from_micros(300),
        bytes_per_sec: 50e6,
        ranks_per_node: topology.gpus_per_node(),
    };
    let bytes = assert_exact(topology, Some(wire));
    assert!(
        bytes[2] > 0,
        "two nodes must put traffic on the global level"
    );
}

#[test]
fn streamed_counts_are_per_slab_counts_times_slabs() {
    let scan = scan();
    let sm = SystemMatrix::build(&scan);
    let slices = 2 * FUSING;
    let topology = Topology::new(1, 2, 2);
    let dir = std::env::temp_dir().join(format!("xct_core_exact_counters_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (sino, vol) = (dir.join("sino.xctd"), dir.join("vol.xctd"));
    let meta = |kind, slice_len| SliceFile {
        kind,
        precision: Precision::Single,
        slices,
        slice_len,
    };
    let mut w = SliceWriter::create(&sino, meta(FileKind::Sinogram, sm.num_rays())).unwrap();
    for slice in sinogram(&sm, slices).chunks(sm.num_rays()) {
        w.write_slice(slice).unwrap();
    }
    w.finish().unwrap();

    // Each slab runs the resident pipeline at the plan's fusing, so a
    // streamed run reports exactly one slab's counts per slab.
    let base = config(None);
    let (bytes, (flops, padded_flops, launches)) =
        expected(&scan, &sm, &one_slab(topology, false), &base);
    let slabs = 2;
    let want = (
        bytes.map(|b| b * slabs),
        (flops * slabs, padded_flops * slabs, launches * slabs),
    );
    for overlap in [false, true] {
        let planner = Planner {
            precision: Precision::Single,
            hierarchical: true,
            overlap,
            max_fusing: slices,
            kernel: None,
        };
        let dims = VolumeDims { n: N, slices };
        let probe = planner.plan(dims, N, None, topology).unwrap();
        let budget = probe.matrix_bytes_per_rank() + FUSING as u64 * probe.slice_bytes_per_rank();
        let plan = planner.plan(dims, N, Some(budget), topology).unwrap();
        assert_eq!(plan.slabs.len() as u64, slabs);
        assert!(plan.slabs.iter().all(|s| s.len == FUSING));

        let reader = SliceReader::open(&sino).unwrap();
        let writer = SliceWriter::create(&vol, meta(FileKind::Volume, sm.num_voxels())).unwrap();
        let stats = reconstruct_planned(&scan, &plan, reader, writer, &base)
            .unwrap()
            .stats;
        assert_eq!(
            measured(&stats.comm_stats, &stats.counters),
            want,
            "streamed overlap={overlap}: (bytes per class, (flops, padded flops, launches))"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
