//! Seeded inputs: phantom slices, their noisy sinograms, and the
//! sinogram file the program reads. Generated before any timing starts;
//! the program under test only ever sees the file.

use crate::error::BenchError;
use crate::workload::{Path, Workload};
use std::path::{Path as FsPath, PathBuf};
use xct_fp16::Precision;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_io::{FileKind, SliceFile, SliceWriter};
use xct_phantom::{add_poisson_noise, shale_like};
use xct_plan::{Planner, VolumeDims};

/// Incident photons per ray of the Poisson noise on every sinogram.
const FLUX: f64 = 1.0e5;

/// Line integral of the most attenuating ray when photon noise is drawn.
const MAX_LINE_INTEGRAL: f32 = 2.0;

/// A workload's generated inputs.
pub struct Inputs {
    /// The noisy sinogram file (single-precision payload).
    pub sinogram: PathBuf,
    /// Where reconstructions write their volume.
    pub volume: PathBuf,
    /// Ground-truth phantom, slice-major (`slices × n²`).
    pub truth: Vec<f32>,
    /// Per-rank memory budget handed to the planner, if the workload
    /// forces streaming.
    pub budget: Option<u64>,
}

/// SplitMix64: derives independent per-slice seeds from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The scan every workload uses: a square grid with matched detector,
/// as `petaxct simulate` and `petaxct reconstruct` assume.
pub fn scan_for(w: &Workload) -> ScanGeometry {
    ScanGeometry::uniform(ImageGrid::square(w.n, 1.0), w.angles)
}

/// Generates `w`'s inputs from `seed` into `dir`.
pub fn generate(w: &Workload, seed: u64, dir: &FsPath) -> Result<Inputs, BenchError> {
    std::fs::create_dir_all(dir)?;
    let scan = scan_for(w);
    let sm = SystemMatrix::build(&scan);
    let sinogram = dir.join(format!("{}-{seed}.sino.xctd", w.name));
    let volume = dir.join(format!("{}-{seed}.vol.xctd", w.name));
    let mut writer = SliceWriter::create(
        &sinogram,
        SliceFile {
            kind: FileKind::Sinogram,
            precision: Precision::Single,
            slices: w.slices,
            slice_len: sm.num_rays(),
        },
    )?;
    let mut truth = Vec::with_capacity(w.slices * sm.num_voxels());
    let mut sino = vec![0.0f32; sm.num_rays()];
    for s in 0..w.slices as u64 {
        let img = shale_like(w.n, mix(seed, 2 * s));
        sm.project(&img.data, &mut sino);
        // Scale line integrals to a realistic transmission (the longest
        // ray keeps e^-MAX_LINE_INTEGRAL of its photons) before sampling
        // counts, so the noise neither saturates nor vanishes.
        let longest = sino.iter().fold(0.0f32, |a, &v| a.max(v));
        let k = if longest > 0.0 {
            MAX_LINE_INTEGRAL / longest
        } else {
            1.0
        };
        sino.iter_mut().for_each(|v| *v *= k);
        add_poisson_noise(&mut sino, FLUX, mix(seed, 2 * s + 1));
        sino.iter_mut().for_each(|v| *v /= k);
        writer.write_slice(&sino)?;
        truth.extend_from_slice(&img.data);
    }
    writer.finish()?;
    let budget = match w.path {
        Path::Planned {
            topology,
            slab_slices: Some(per_slab),
            ..
        } => {
            // The smallest budget whose largest fitting fusing is
            // `per_slab` (the planner's §III-A3 rule).
            let probe = Planner {
                precision: w.precision,
                max_fusing: w.batch,
                ..Default::default()
            }
            .plan(
                VolumeDims {
                    n: w.n,
                    slices: w.slices,
                },
                w.angles,
                None,
                topology,
            )
            .map_err(|e| BenchError(format!("probe plan: {e}")))?;
            Some(probe.matrix_bytes_per_rank() + per_slab as u64 * probe.slice_bytes_per_rank())
        }
        _ => None,
    };
    Ok(Inputs {
        sinogram,
        volume,
        truth,
        budget,
    })
}
