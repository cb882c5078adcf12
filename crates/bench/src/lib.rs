//! Shared infrastructure for the per-table / per-figure harnesses.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md §4 for the index) and prints both
//! the paper's reported value and the reproduced value. Experiments that
//! need Summit run in *model mode* (complexity + machine model);
//! everything numerical (kernels, plans, convergence) runs for real at
//! mini scale.

#![forbid(unsafe_code)]

pub mod tune;

use xct_fp16::Precision;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_hilbert::{CurveKind, Domain2D, TileDecomposition};
use xct_spmm::Csr;

/// A mini scan with matched detector (N channels = N voxels across).
pub fn mini_scan(n: usize, angles: usize) -> ScanGeometry {
    ScanGeometry::uniform(ImageGrid::square(n, 1.0), angles)
}

/// Builds the memoized operator and its CSR form for a mini scan.
pub fn mini_operator(n: usize, angles: usize) -> (ScanGeometry, SystemMatrix, Csr<f32>) {
    let scan = mini_scan(n, angles);
    let sm = SystemMatrix::build(&scan);
    let csr = Csr::from_system_matrix(&sm);
    (scan, sm, csr)
}

/// Hilbert permutation of sinogram rows (rays reordered so contiguous
/// rows form compact angle × channel patches).
pub fn sinogram_hilbert_perm(angles: usize, channels: usize, tile: usize) -> Vec<u32> {
    let d = TileDecomposition::new(Domain2D::new(channels, angles), tile, CurveKind::Hilbert);
    let mut perm = Vec::with_capacity(angles * channels);
    for &t in d.ordered_tiles() {
        for (c, a) in d.tile_cell_coords(t) {
            perm.push((a * channels + c) as u32);
        }
    }
    perm
}

/// Hilbert ranking of tomogram voxels: `rank[voxel] = curve position`.
pub fn tomogram_hilbert_rank(nx: usize, nz: usize, tile: usize) -> Vec<u32> {
    let d = TileDecomposition::new(Domain2D::new(nx, nz), tile, CurveKind::Hilbert);
    let mut rank = vec![0u32; nx * nz];
    let mut next = 0u32;
    for &t in d.ordered_tiles() {
        for (x, z) in d.tile_cell_coords(t) {
            rank[z * nx + x] = next;
            next += 1;
        }
    }
    rank
}

/// CSR of the mini operator with both domains Hilbert-ordered — the form
/// every optimized-kernel experiment uses.
pub fn hilbert_ordered_operator(n: usize, angles: usize, tile: usize) -> Csr<f32> {
    let (_, sm, csr) = mini_operator(n, angles);
    let row_perm = sinogram_hilbert_perm(angles, n, tile);
    let col_rank = tomogram_hilbert_rank(n, n, tile);
    let _ = &sm;
    csr.permute(&row_perm, &col_rank)
}

/// Formats a byte count the way the paper does (GB/TB, decimal).
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= 1e12 {
        format!("{:.2} TB", b / 1e12)
    } else if b >= 1e9 {
        format!("{:.1} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.1} MB", b / 1e6)
    } else {
        format!("{:.1} KB", b / 1e3)
    }
}

/// Formats seconds as the paper's mixed s/min style.
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 120.0 {
        format!("{:.1} m", seconds / 60.0)
    } else {
        format!("{:.1} s", seconds)
    }
}

/// Prints a rule line sized to a header.
pub fn rule(header: &str) -> String {
    "-".repeat(header.len())
}

/// The four precisions in the order the paper's tables sweep them.
pub fn table_precisions() -> [Precision; 3] {
    [Precision::Double, Precision::Single, Precision::Mixed]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hilbert_perm_is_a_permutation() {
        let p = sinogram_hilbert_perm(12, 16, 4);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12 * 16).map(|i| i as u32).collect::<Vec<_>>());
        let r = tomogram_hilbert_rank(16, 16, 4);
        let mut sorted = r.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..256).map(|i| i as u32).collect::<Vec<_>>());
    }

    #[test]
    fn ordered_operator_preserves_nnz() {
        let (_, _, csr) = mini_operator(16, 12);
        let ordered = hilbert_ordered_operator(16, 12, 4);
        assert_eq!(csr.nnz(), ordered.nnz());
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(52_100_000_000), "52.1 GB");
        assert_eq!(fmt_bytes(6_560_000_000_000), "6.56 TB");
        assert_eq!(fmt_time(42.23), "42.2 s");
        assert_eq!(fmt_time(258.0), "4.3 m");
    }
}
