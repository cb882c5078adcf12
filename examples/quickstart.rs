//! Quickstart: reconstruct a Shepp–Logan phantom with the mixed-precision
//! pipeline in a dozen lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use petaxct::core::{ReconOptions, Reconstructor};
use petaxct::fp16::Precision;
use petaxct::geometry::{ImageGrid, ScanGeometry};
use petaxct::phantom::shepp_logan;

fn main() {
    // 1. Describe the experiment: a 64×64 slice scanned over 64 uniform
    //    angles with a matched parallel-beam detector (paper Fig 2).
    let n = 64;
    let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 64);

    // 2. Trace and memoize the system matrix once (MemXCT memoization).
    let recon = Reconstructor::new(scan);
    println!(
        "memoized operator: {} rays x {} voxels, {} nonzeros",
        recon.num_rays(),
        recon.num_voxels(),
        recon.system_matrix().nnz()
    );

    // 3. Forward-model a phantom to get a synthetic sinogram.
    let phantom = shepp_logan(n);
    let sinogram = recon.project(&phantom.data);

    // 4. Invert with CGLS in mixed precision (the paper's recommended
    //    mode: half-precision storage, single-precision FMAs, adaptive
    //    normalization).
    let result = recon.reconstruct(
        &sinogram,
        &ReconOptions {
            precision: Precision::Mixed,
            iterations: 30,
            ..Default::default()
        },
    );

    // 5. Inspect convergence and reconstruction quality.
    println!("\niter  relative residual");
    for (i, r) in result.residual_history.iter().enumerate() {
        if i % 5 == 0 {
            println!("{i:>4}  {r:.6}");
        }
    }
    let rmse = {
        let num: f64 = result
            .x
            .iter()
            .zip(&phantom.data)
            .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
            .sum();
        (num / phantom.data.len() as f64).sqrt()
    };
    println!(
        "\nfinal residual : {:.6}",
        result.residual_history.last().unwrap()
    );
    println!("voxel RMSE     : {rmse:.6}");
    assert!(rmse < 0.1, "quickstart reconstruction should be accurate");
    println!("\nOK — mixed-precision reconstruction matches the phantom.");
}
