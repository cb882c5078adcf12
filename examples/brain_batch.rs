//! The mouse-brain workflow at two scales:
//!
//! 1. **Executable mini scale** — reconstruct a batch of brain-analog
//!    slices *simultaneously* through the fused kernels (the 3D batch
//!    parallelism of §III-A that 2D MemXCT lacks), and
//! 2. **Model scale** — estimate the full 9K×11K×11K Mouse Brain
//!    reconstruction on 4,096 Summit nodes, the paper's flagship result
//!    (65.4 PFLOPS, under three minutes).
//!
//! ```sh
//! cargo run --release --example brain_batch
//! ```

use petaxct::cluster::MachineSpec;
use petaxct::core::model::{HierarchyRatios, ModelExperiment, OptLevel};
use petaxct::core::{Partitioning, ReconOptions, Reconstructor};
use petaxct::fp16::Precision;
use petaxct::geometry::{ImageGrid, ScanGeometry};
use petaxct::phantom::{brain_like, DatasetSpec};

fn main() {
    // ---- mini scale: fused multi-slice reconstruction ------------------
    let n = 48;
    let fusing = 8; // 8 slices share one trip through the packed matrix
    let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 48);
    let recon = Reconstructor::new(scan);

    let mut sino = Vec::new();
    let mut truth = Vec::new();
    for f in 0..fusing {
        let slice = brain_like(n, 100 + f as u64);
        sino.extend(recon.project(&slice.data));
        truth.push(slice);
    }
    let result = recon.reconstruct(
        &sino,
        &ReconOptions {
            precision: Precision::Mixed,
            fusing,
            iterations: 30,
            ..Default::default()
        },
    );
    println!("mini brain batch: {fusing} slices x {n}x{n}, mixed precision");
    println!(
        "final residual {:.5}",
        result.residual_history.last().unwrap()
    );
    for (f, slice) in truth.iter().enumerate() {
        let piece = &result.x[f * recon.num_voxels()..(f + 1) * recon.num_voxels()];
        let num: f64 = piece
            .iter()
            .zip(&slice.data)
            .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
            .sum();
        let den: f64 = slice.data.iter().map(|&v| f64::from(v).powi(2)).sum();
        println!("  slice {f}: relative error {:.4}", (num / den).sqrt());
    }

    // ---- model scale: the Summit flagship run --------------------------
    println!("\nfull-scale Mouse Brain on Summit (model):");
    let brain = DatasetSpec::brain();
    println!(
        "  {} = {}x{}x{} — {:.2} TB measurements, {:.2} TB volume",
        brain.name,
        brain.projections,
        brain.rows,
        brain.channels,
        brain.io_bytes(Precision::Single) as f64 / 1e12 * 2.0 / 3.47, // measurement share
        brain.volume_elements() as f64 * 4.0 / 1e12,
    );
    for nodes in [128usize, 1024, 4096] {
        let est = ModelExperiment {
            projections: brain.projections,
            rows: brain.rows,
            channels: brain.channels,
            machine: MachineSpec::summit(nodes),
            partitioning: Partitioning {
                batch: nodes / 32,
                data: 192,
            },
            precision: Precision::Mixed,
            opt: OptLevel::full(),
            fusing: 16,
            iterations: 30,
            ratios: HierarchyRatios::paper(),
            imbalance: 0.07,
        }
        .run();
        println!(
            "  {nodes:>5} nodes ({:>6} GPUs): {:>7.1} s end-to-end, kernel sustains {:>5.1} PFLOPS",
            nodes * 6,
            est.total_seconds,
            est.sustained_flops / 1e15,
        );
    }
    println!("  (paper: 24,576 GPUs, under three minutes, 65.4 PFLOPS)");
}
