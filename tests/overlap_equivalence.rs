//! Communication overlap must be a pure scheduling change (§III-E).
//!
//! With a plan's `overlap: true` the distributed pipeline posts slice `s`'s global
//! exchange and runs slice `s+1`'s local work before completing it. The
//! arithmetic — quantization, accumulation order, rounding — is identical
//! to the synchronous schedule, so the reconstruction must match **bit
//! for bit** across precisions and topologies, not merely within a
//! tolerance.

use std::time::Duration;

use xct_comm::{Topology, WireModel};
use xct_core::distributed::{reconstruct_distributed, DistributedConfig};
use xct_fp16::Precision;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_plan::{Planner, ReconPlan, VolumeDims};

/// One-slab plan fusing `slices` slices of `scan`.
fn plan(scan: &ScanGeometry, slices: usize, topology: Topology, planner: Planner) -> ReconPlan {
    let (n, max_fusing) = (scan.grid.nx, slices);
    Planner {
        max_fusing,
        ..planner
    }
    .plan(VolumeDims { n, slices }, scan.angles.len(), None, topology)
    .unwrap()
}

fn sinogram(scan: &ScanGeometry, fusing: usize) -> Vec<f32> {
    let sm = SystemMatrix::build(scan);
    let n = scan.grid.nx;
    let mut x_true = vec![0.0f32; sm.num_voxels() * fusing];
    for f in 0..fusing {
        for i in 0..sm.num_voxels() {
            let (ix, iz) = (
                (i % n) as f32 - n as f32 / 2.0 + 0.5,
                (i / n) as f32 - n as f32 / 2.0 + 0.5,
            );
            if ix * ix + iz * iz < (n as f32 / 3.0).powi(2) {
                x_true[f * sm.num_voxels() + i] = 0.7 + 0.1 * f as f32;
            }
        }
    }
    let mut y = vec![0.0f32; sm.num_rays() * fusing];
    for f in 0..fusing {
        sm.project(
            &x_true[f * sm.num_voxels()..(f + 1) * sm.num_voxels()],
            &mut y[f * sm.num_rays()..(f + 1) * sm.num_rays()],
        );
    }
    y
}

fn assert_overlap_equivalent(topology: Topology, precision: Precision, hierarchical: bool) {
    let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
    let fusing = 3;
    let y = sinogram(&scan, fusing);
    let cfg = DistributedConfig {
        iterations: 6,
        ..Default::default()
    };
    let run = |overlap| {
        let planner = Planner {
            precision,
            hierarchical,
            overlap,
            ..Default::default()
        };
        reconstruct_distributed(&scan, &y, &plan(&scan, fusing, topology, planner), &cfg)
    };
    let (off, on) = (run(false), run(true));
    assert_eq!(
        on.x, off.x,
        "{precision:?} hier={hierarchical}: overlapped volume must be bit-identical"
    );
    assert_eq!(
        on.residual_history, off.residual_history,
        "{precision:?} hier={hierarchical}: residual history must be bit-identical"
    );
}

#[test]
fn overlap_is_bit_identical_single_1x2x2() {
    assert_overlap_equivalent(Topology::new(1, 2, 2), Precision::Single, true);
}

#[test]
fn overlap_is_bit_identical_single_2x2x2() {
    assert_overlap_equivalent(Topology::new(2, 2, 2), Precision::Single, true);
}

#[test]
fn overlap_is_bit_identical_mixed_1x2x2() {
    assert_overlap_equivalent(Topology::new(1, 2, 2), Precision::Mixed, true);
}

#[test]
fn overlap_is_bit_identical_mixed_2x2x2() {
    assert_overlap_equivalent(Topology::new(2, 2, 2), Precision::Mixed, true);
}

#[test]
fn overlap_is_bit_identical_half_1x2x2() {
    assert_overlap_equivalent(Topology::new(1, 2, 2), Precision::Half, true);
}

#[test]
fn overlap_is_bit_identical_half_2x2x2() {
    assert_overlap_equivalent(Topology::new(2, 2, 2), Precision::Half, true);
}

#[test]
fn overlap_is_bit_identical_direct_exchange() {
    assert_overlap_equivalent(Topology::new(1, 2, 2), Precision::Single, false);
}

/// A simulated inter-node wire (latency + bandwidth) changes only *when*
/// messages become matchable, never their contents or order — so a wired
/// overlapped run must still match an unwired synchronous run bit for bit.
#[test]
fn simulated_wire_time_never_changes_results() {
    let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
    let fusing = 3;
    let y = sinogram(&scan, fusing);
    let topology = Topology::new(2, 2, 2);
    let base = DistributedConfig {
        iterations: 4,
        ..Default::default()
    };
    let plain = reconstruct_distributed(
        &scan,
        &y,
        &plan(&scan, fusing, topology, Planner::default()),
        &base,
    );
    let overlapped = Planner {
        overlap: true,
        ..Default::default()
    };
    let wired = reconstruct_distributed(
        &scan,
        &y,
        &plan(&scan, fusing, topology, overlapped),
        &DistributedConfig {
            wire: Some(WireModel {
                latency: Duration::from_micros(300),
                bytes_per_sec: 20e6,
                ranks_per_node: 4,
            }),
            ..base
        },
    );
    assert_eq!(wired.x, plain.x);
    assert_eq!(wired.residual_history, plain.residual_history);
}
