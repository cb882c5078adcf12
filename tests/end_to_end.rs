//! Workspace-level integration tests: the full pipeline exercised through
//! the public `petaxct` facade, across crates.

use petaxct::comm::Topology;
use petaxct::core::distributed::{reconstruct_distributed, DistributedConfig};
use petaxct::core::{ReconOptions, Reconstructor};
use petaxct::fp16::Precision;
use petaxct::geometry::{ImageGrid, ScanGeometry};
use petaxct::phantom::{add_poisson_noise, shepp_logan};
use petaxct::plan::{Planner, ReconPlan, VolumeDims};

/// One-slice plan for `scan` on a 2×2×2 topology.
fn plan_2x2x2(scan: &ScanGeometry, precision: Precision, hierarchical: bool) -> ReconPlan {
    let (n, topology) = (scan.grid.nx, Topology::new(2, 2, 2));
    Planner {
        precision,
        hierarchical,
        ..Default::default()
    }
    .plan(
        VolumeDims { n, slices: 1 },
        scan.angles.len(),
        None,
        topology,
    )
    .unwrap()
}

fn relative_error(a: &[f32], b: &[f32]) -> f64 {
    let num: f64 = a
        .iter()
        .zip(b)
        .map(|(&p, &q)| (f64::from(p) - f64::from(q)).powi(2))
        .sum();
    let den: f64 = b.iter().map(|&q| f64::from(q).powi(2)).sum();
    (num / den.max(1e-30)).sqrt()
}

#[test]
fn shepp_logan_reconstructs_in_every_precision() {
    let n = 32;
    let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 40);
    let recon = Reconstructor::new(scan);
    let phantom = shepp_logan(n);
    let sinogram = recon.project(&phantom.data);
    for precision in Precision::ALL {
        let result = recon.reconstruct(
            &sinogram,
            &ReconOptions {
                precision,
                iterations: 40,
                ..Default::default()
            },
        );
        let err = relative_error(&result.x, &phantom.data);
        let bound = match precision {
            Precision::Double | Precision::Single => 0.25,
            Precision::Mixed => 0.30,
            Precision::Half => 0.40,
        };
        assert!(err < bound, "{precision}: error {err}");
    }
}

#[test]
fn distributed_hierarchical_mixed_matches_local_double() {
    // The whole point of the system: the scaled-out, quantized,
    // hierarchically-communicating pipeline must agree with a plain
    // single-process double-precision solve.
    let n = 16;
    let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 24);
    let recon = Reconstructor::new(scan.clone());
    let phantom = shepp_logan(n);
    let sinogram = recon.project(&phantom.data);

    let local = recon.reconstruct(
        &sinogram,
        &ReconOptions {
            precision: Precision::Double,
            iterations: 20,
            ..Default::default()
        },
    );
    let dist = reconstruct_distributed(
        &scan,
        &sinogram,
        &plan_2x2x2(&scan, Precision::Mixed, true),
        &DistributedConfig {
            iterations: 20,
            ..Default::default()
        },
    );
    let disagreement = relative_error(&dist.x, &local.x);
    assert!(
        disagreement < 0.05,
        "distributed mixed vs local double disagreement {disagreement}"
    );
}

#[test]
fn hierarchy_shrinks_global_traffic_end_to_end() {
    let n = 24;
    let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 24);
    let recon = Reconstructor::new(scan.clone());
    let sinogram = recon.project(&shepp_logan(n).data);
    let cfg = DistributedConfig {
        iterations: 2,
        ..Default::default()
    };
    let run = |hierarchical| {
        let plan = plan_2x2x2(&scan, Precision::Single, hierarchical);
        reconstruct_distributed(&scan, &sinogram, &plan, &cfg)
    };
    let (direct, hier) = (run(false), run(true));
    let direct_global = direct.comm_elements.2;
    let hier_global = hier.comm_elements.2;
    assert!(
        hier_global < direct_global,
        "hierarchy must cut inter-rank traffic: {hier_global} vs {direct_global}"
    );
    // And identical numerics.
    assert!(relative_error(&hier.x, &direct.x) < 1e-3);
}

#[test]
fn noisy_reconstruction_is_stable_under_quantization() {
    // Fig 13's premise: the half-precision numerical noise floor sits
    // below the measurement noise, so mixed and double agree on noisy
    // data too.
    let n = 32;
    let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 32);
    let recon = Reconstructor::new(scan);
    let phantom = shepp_logan(n);
    let mut sinogram = recon.project(&phantom.data);
    add_poisson_noise(&mut sinogram, 1e4, 5);

    let run = |precision| {
        recon.reconstruct(
            &sinogram,
            &ReconOptions {
                precision,
                iterations: 24,
                ..Default::default()
            },
        )
    };
    let double = run(Precision::Double);
    let mixed = run(Precision::Mixed);
    let disagreement = relative_error(&mixed.x, &double.x);
    assert!(
        disagreement < 0.05,
        "mixed vs double on noisy data: {disagreement}"
    );
}

#[test]
fn batch_and_single_slice_reconstructions_agree() {
    // Batch parallelism is embarrassingly parallel: fusing slices through
    // the shared matrix must not couple them.
    let n = 16;
    let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 20);
    let recon = Reconstructor::new(scan);
    let slices: Vec<Vec<f32>> = (0..3)
        .map(|s| {
            (0..n * n)
                .map(|i| if (i + s) % 4 == 0 { 0.9 } else { 0.1 })
                .collect()
        })
        .collect();
    let mut fused_sino = Vec::new();
    for s in &slices {
        fused_sino.extend(recon.project(s));
    }
    let fused = recon.reconstruct(
        &fused_sino,
        &ReconOptions {
            precision: Precision::Single,
            fusing: 3,
            iterations: 25,
            ..Default::default()
        },
    );
    for (f, s) in slices.iter().enumerate() {
        let solo = recon.reconstruct(
            &recon.project(s),
            &ReconOptions {
                precision: Precision::Single,
                fusing: 1,
                iterations: 25,
                ..Default::default()
            },
        );
        let piece = &fused.x[f * recon.num_voxels()..(f + 1) * recon.num_voxels()];
        // Not bit-identical (CG couples slices through shared scalars),
        // but both converge to the same least-squares solution.
        assert!(
            relative_error(piece, &solo.x) < 0.02,
            "slice {f} fused vs solo"
        );
    }
}
