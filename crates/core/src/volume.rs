//! The 3D volume pipeline: stream sinogram slices from disk in I/O
//! batches, reconstruct each batch through the fused kernels, stream the
//! tomogram slices back out (paper §III-A2).
//!
//! The paper partitions each batch into minibatches whose processing
//! overlaps MPI and GPU work; here the I/O batch *is* the fused minibatch
//! (one trip through the packed matrix reconstructs the whole batch
//! simultaneously), and batches stream sequentially so memory stays
//! bounded regardless of volume size.

use crate::recon::{Algorithm, ReconOptions, Reconstructor};
use xct_exec::{ExecContext, Phase};
use xct_io::{IoError, SliceReader, SliceWriter};

/// Outcome of a volume reconstruction.
#[derive(Debug, Clone)]
pub struct VolumeStats {
    /// Slices reconstructed.
    pub slices: usize,
    /// I/O batches processed.
    pub batches: usize,
    /// Worst final relative residual across batches.
    pub worst_residual: f64,
    /// Total solver iterations performed.
    pub total_iterations: usize,
}

/// Volume-pipeline failure.
#[derive(Debug)]
pub enum PipelineError {
    /// Underlying file error.
    Io(IoError),
    /// The input file does not match the reconstructor geometry.
    Geometry(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Io(e) => write!(f, "pipeline I/O error: {e}"),
            PipelineError::Geometry(m) => write!(f, "geometry mismatch: {m}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<IoError> for PipelineError {
    fn from(e: IoError) -> Self {
        PipelineError::Io(e)
    }
}

/// Streams `reader`'s sinogram slices through `recon` in I/O batches of
/// `io_batch` slices, writing tomogram slices to `writer` in order.
/// Every [`Algorithm`] runs this loop; TV couples voxels within one
/// slice grid, so it reads one slice per batch whatever `io_batch` is.
///
/// `writer` must be created for the same slice count and
/// `recon.num_voxels()` scalars per slice; the caller finishes it (so a
/// trailer checksum is written) after this returns.
pub fn reconstruct_volume(
    recon: &Reconstructor,
    reader: &mut SliceReader,
    writer: &mut SliceWriter,
    opts: &ReconOptions,
    io_batch: usize,
) -> Result<VolumeStats, PipelineError> {
    let mut ctx = ExecContext::parallel();
    reconstruct_volume_in(recon, reader, writer, opts, io_batch, &mut ctx)
}

/// [`reconstruct_volume`] running inside a caller-owned [`ExecContext`]:
/// every batch reuses the context's warm workspace, and when its
/// telemetry handle is enabled the read/solve/write pipeline is recorded
/// as spans ([`Phase::Io`] around file traffic, solver phases inside the
/// reconstruction).
pub fn reconstruct_volume_in(
    recon: &Reconstructor,
    reader: &mut SliceReader,
    writer: &mut SliceWriter,
    opts: &ReconOptions,
    io_batch: usize,
    ctx: &mut ExecContext,
) -> Result<VolumeStats, PipelineError> {
    if reader.meta().slice_len != recon.num_rays() {
        return Err(PipelineError::Geometry(format!(
            "file has {} scalars per slice, scan produces {}",
            reader.meta().slice_len,
            recon.num_rays()
        )));
    }
    let io_batch = match opts.algorithm {
        Algorithm::Tv { .. } => 1,
        Algorithm::Cgls | Algorithm::Sirt { .. } => io_batch,
    };
    let mut stats = VolumeStats {
        slices: 0,
        batches: 0,
        worst_residual: 0.0,
        total_iterations: 0,
    };
    loop {
        let batch = {
            let _io = ctx.telemetry.span(Phase::Io);
            reader.read_batch(io_batch)?
        };
        let Some(batch) = batch else { break };
        let fusing = batch.len() / recon.num_rays();
        let report = recon.reconstruct_in(&batch, &ReconOptions { fusing, ..*opts }, ctx);
        {
            let _io = ctx.telemetry.span(Phase::Io);
            for f in 0..fusing {
                writer
                    .write_slice(&report.x[f * recon.num_voxels()..(f + 1) * recon.num_voxels()])?;
            }
        }
        stats.slices += fusing;
        stats.batches += 1;
        stats.total_iterations += report.iterations;
        stats.worst_residual = stats
            .worst_residual
            .max(*report.residual_history.last().unwrap_or(&1.0));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_fp16::Precision;
    use xct_geometry::{ImageGrid, ScanGeometry};
    use xct_io::{FileKind, SliceFile};
    use xct_phantom::shale_like;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("xct_core_volume_tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    fn build_dataset(
        recon: &Reconstructor,
        slices: usize,
        path: &std::path::Path,
    ) -> Vec<Vec<f32>> {
        let meta = SliceFile {
            kind: FileKind::Sinogram,
            precision: Precision::Single,
            slices,
            slice_len: recon.num_rays(),
        };
        let mut w = SliceWriter::create(path, meta).unwrap();
        let mut truths = Vec::new();
        for s in 0..slices {
            let img = shale_like(recon.scan().grid.nx, 900 + s as u64);
            w.write_slice(&recon.project(&img.data)).unwrap();
            truths.push(img.data);
        }
        w.finish().unwrap();
        truths
    }

    fn volume_writer(recon: &Reconstructor, slices: usize, path: &std::path::Path) -> SliceWriter {
        let meta = SliceFile {
            kind: FileKind::Volume,
            precision: Precision::Single,
            slices,
            slice_len: recon.num_voxels(),
        };
        SliceWriter::create(path, meta).unwrap()
    }

    #[test]
    fn streams_and_reconstructs_whole_volume() {
        let n = 24;
        let slices = 10;
        let recon = Reconstructor::new(ScanGeometry::uniform(ImageGrid::square(n, 1.0), 24));
        let sino_path = tmp("vol_in.xctd");
        let vol_path = tmp("vol_out.xctd");
        let truths = build_dataset(&recon, slices, &sino_path);

        let mut reader = SliceReader::open(&sino_path).unwrap();
        let mut writer = volume_writer(&recon, slices, &vol_path);
        let stats = reconstruct_volume(
            &recon,
            &mut reader,
            &mut writer,
            &ReconOptions {
                precision: Precision::Mixed,
                iterations: 25,
                ..Default::default()
            },
            4,
        )
        .unwrap();
        reader.verify_checksum().unwrap();
        writer.finish().unwrap();

        assert_eq!(stats.slices, slices);
        assert_eq!(stats.batches, 3); // 4 + 4 + 2
        assert!(stats.worst_residual < 0.05, "{}", stats.worst_residual);

        // Read back and compare to the phantoms.
        let mut vr = SliceReader::open(&vol_path).unwrap();
        let all = vr.read_batch(slices).unwrap().unwrap();
        vr.verify_checksum().unwrap();
        for (s, truth) in truths.iter().enumerate() {
            let piece = &all[s * recon.num_voxels()..(s + 1) * recon.num_voxels()];
            let num: f64 = piece
                .iter()
                .zip(truth)
                .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
                .sum();
            let den: f64 = truth.iter().map(|&v| f64::from(v).powi(2)).sum();
            let err = (num / den).sqrt();
            assert!(err < 0.25, "slice {s} error {err}");
        }
    }

    #[test]
    fn tv_volume_reads_one_slice_per_batch() {
        let recon = Reconstructor::new(ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12));
        let (sino_path, vol_path) = (tmp("tv_in.xctd"), tmp("tv_out.xctd"));
        build_dataset(&recon, 3, &sino_path);
        let mut reader = SliceReader::open(&sino_path).unwrap();
        let mut writer = volume_writer(&recon, 3, &vol_path);
        let opts = ReconOptions {
            iterations: 5,
            algorithm: Algorithm::Tv {
                lambda: 0.1,
                epsilon: 0.005,
            },
            ..Default::default()
        };
        let stats = reconstruct_volume(&recon, &mut reader, &mut writer, &opts, 4).unwrap();
        writer.finish().unwrap();
        assert_eq!(
            (stats.slices, stats.batches, stats.total_iterations),
            (3, 3, 15)
        );
    }

    #[test]
    fn geometry_mismatch_is_reported() {
        let recon = Reconstructor::new(ScanGeometry::uniform(ImageGrid::square(16, 1.0), 16));
        let path = tmp("mismatch.xctd");
        let meta = SliceFile {
            kind: FileKind::Sinogram,
            precision: Precision::Single,
            slices: 1,
            slice_len: 99, // wrong
        };
        let mut w = SliceWriter::create(&path, meta).unwrap();
        w.write_slice(&vec![0.0; 99]).unwrap();
        w.finish().unwrap();
        let mut reader = SliceReader::open(&path).unwrap();
        let vol_path = tmp("mismatch_out.xctd");
        let mut writer = volume_writer(&recon, 1, &vol_path);
        match reconstruct_volume(
            &recon,
            &mut reader,
            &mut writer,
            &ReconOptions::default(),
            2,
        ) {
            Err(PipelineError::Geometry(m)) => assert!(m.contains("99")),
            other => panic!("expected geometry error, got {:?}", other.map(|s| s.slices)),
        }
    }
}
