//! End-to-end file pipeline with I/O batching (paper §III-A2): write a
//! measurement file in half precision, stream it back in I/O batches,
//! reconstruct each batch through the fused kernels, and write the
//! volume file — then render one slice as a PGM for inspection.
//!
//! ```sh
//! cargo run --release --example file_pipeline
//! ```

use petaxct::core::{reconstruct_volume, ReconOptions, Reconstructor};
use petaxct::fp16::Precision;
use petaxct::geometry::{ImageGrid, ScanGeometry};
use petaxct::io::{FileKind, SliceFile, SliceReader, SliceWriter};
use petaxct::phantom::{shale_like, Image2D};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 32;
    let slices = 12;
    let io_batch = 4; // slices per I/O batch (each batch = one fused kernel pass)
    let dir = std::env::temp_dir().join("petaxct_pipeline");
    std::fs::create_dir_all(&dir)?;
    let sino_path = dir.join("shale_mini.sino.xctd");
    let vol_path = dir.join("shale_mini.vol.xctd");

    let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 32);
    let recon = Reconstructor::new(scan);

    // --- acquisition: write the measurement file in half precision -----
    let meta = SliceFile {
        kind: FileKind::Sinogram,
        precision: Precision::Half,
        slices,
        slice_len: recon.num_rays(),
    };
    let mut writer = SliceWriter::create(&sino_path, meta)?;
    let mut truths = Vec::new();
    for s in 0..slices {
        let slice = shale_like(n, 400 + s as u64);
        writer.write_slice(&recon.project(&slice.data))?;
        truths.push(slice);
    }
    writer.finish()?;
    println!(
        "wrote {} ({} slices, half precision, {} payload bytes)",
        sino_path.display(),
        slices,
        meta.payload_bytes()
    );

    // --- reconstruction: stream batches, reconstruct, write volume -----
    let mut reader = SliceReader::open(&sino_path)?;
    let vol_meta = SliceFile {
        kind: FileKind::Volume,
        precision: Precision::Half,
        slices,
        slice_len: recon.num_voxels(),
    };
    let mut vol_writer = SliceWriter::create(&vol_path, vol_meta)?;
    let opts = ReconOptions {
        precision: Precision::Mixed,
        iterations: 30,
        ..Default::default()
    };
    let stats = reconstruct_volume(&recon, &mut reader, &mut vol_writer, &opts, io_batch)?;
    reader.verify_checksum()?;
    vol_writer.finish()?;
    println!(
        "reconstructed {} slices in {} fused batches (worst residual {:.5})",
        stats.slices, stats.batches, stats.worst_residual
    );
    println!("volume written to {}", vol_path.display());

    // --- inspection: re-read the volume, score it, render a slice ------
    let mut vol_reader = SliceReader::open(&vol_path)?;
    let volume = vol_reader.read_batch(slices)?.expect("volume has slices");
    vol_reader.verify_checksum()?;
    let mut worst_err = 0.0f64;
    for (piece, truth) in volume.chunks(recon.num_voxels()).zip(&truths) {
        let num: f64 = piece
            .iter()
            .zip(&truth.data)
            .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
            .sum();
        let den: f64 = truth.data.iter().map(|&v| f64::from(v).powi(2)).sum();
        worst_err = worst_err.max((num / den).sqrt());
    }
    println!("worst per-slice relative error: {worst_err:.4}");
    assert!(worst_err < 0.25, "pipeline accuracy check");
    let img = Image2D::from_data(n, n, volume[..recon.num_voxels()].to_vec());
    let pgm = dir.join("slice0.pgm");
    img.write_pgm(&pgm)?;
    println!("rendered first slice to {}", pgm.display());
    Ok(())
}
