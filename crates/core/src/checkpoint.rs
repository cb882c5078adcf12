//! Solver checkpointing: persist a [`CglsSnapshot`] to disk and resume
//! the exact iterate sequence after a restart.
//!
//! Format: `"XCKP"` magic, version, iteration, then the three state
//! vectors (each a u64 length followed by f32 little-endian values) and
//! the two f64 scalars. There is no checksum trailer; the loader checks
//! the magic, the version, every declared length against the bytes left
//! in the file, and the state's shape. State stays in full precision —
//! quantizing the Krylov state would perturb conjugacy on resume.

use std::io::{BufReader, BufWriter, Read, Take, Write};
use std::path::Path;
use xct_solver::CglsSnapshot;

const MAGIC: [u8; 4] = *b"XCKP";
const VERSION: u32 = 1;

/// Checkpoint failure.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error.
    Os(std::io::Error),
    /// Malformed checkpoint file.
    Format(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Os(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(m) => write!(f, "malformed checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Os(e)
    }
}

fn write_vec(out: &mut impl Write, v: &[f32]) -> std::io::Result<()> {
    out.write_all(&(v.len() as u64).to_le_bytes())?;
    for &x in v {
        out.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

/// Reads the next `N` bytes.
fn read_bytes<const N: usize>(input: &mut impl Read) -> std::io::Result<[u8; N]> {
    let mut bytes = [0u8; N];
    input.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// Reads one length-prefixed vector, rejecting a length the rest of the
/// file cannot hold before allocating for it.
fn read_vec(input: &mut Take<impl Read>) -> Result<Vec<f32>, CheckpointError> {
    let len = u64::from_le_bytes(read_bytes(input)?);
    let left = input.limit() / 4;
    if len > left {
        return Err(CheckpointError::Format(format!(
            "vector length {len} exceeds the {left} values left in the file"
        )));
    }
    let mut bytes = vec![0u8; len as usize * 4];
    input.read_exact(&mut bytes)?;
    Ok(bytes
        .chunks_exact(4)
        // xct-allow(no-panic): infallible — chunks_exact(4) yields exactly 4 bytes
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

/// Saves a snapshot.
pub fn save_checkpoint(path: impl AsRef<Path>, snap: &CglsSnapshot) -> Result<(), CheckpointError> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    out.write_all(&MAGIC)?;
    out.write_all(&VERSION.to_le_bytes())?;
    out.write_all(&(snap.iteration as u64).to_le_bytes())?;
    write_vec(&mut out, &snap.x)?;
    write_vec(&mut out, &snap.r)?;
    write_vec(&mut out, &snap.p)?;
    out.write_all(&snap.gamma.to_le_bytes())?;
    out.write_all(&snap.y_norm.to_le_bytes())?;
    out.flush()?;
    Ok(())
}

/// Loads a snapshot.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<CglsSnapshot, CheckpointError> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    let mut input = BufReader::new(file).take(len);
    if read_bytes(&mut input)? != MAGIC {
        return Err(CheckpointError::Format("bad magic".into()));
    }
    let version = u32::from_le_bytes(read_bytes(&mut input)?);
    if version != VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported version {version}"
        )));
    }
    let iteration = u64::from_le_bytes(read_bytes(&mut input)?) as usize;
    let x = read_vec(&mut input)?;
    let r = read_vec(&mut input)?;
    let p = read_vec(&mut input)?;
    if x.len() != p.len() {
        return Err(CheckpointError::Format(format!(
            "inconsistent state: |x| = {} but |p| = {}",
            x.len(),
            p.len()
        )));
    }
    let gamma = f64::from_le_bytes(read_bytes(&mut input)?);
    let y_norm = f64::from_le_bytes(read_bytes(&mut input)?);
    Ok(CglsSnapshot {
        iteration,
        x,
        r,
        p,
        gamma,
        y_norm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_exec::ExecContext;
    use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
    use xct_solver::{CglsSolver, SystemMatrixOperator};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("xct_checkpoint_tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    #[test]
    fn checkpoint_restart_is_bit_exact() {
        let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 16);
        let sm = SystemMatrix::build(&scan);
        let op = SystemMatrixOperator::new(&sm);
        let x_true: Vec<f32> = (0..sm.num_voxels()).map(|i| (i % 5) as f32 * 0.2).collect();
        let mut y = vec![0.0f32; sm.num_rays()];
        sm.project(&x_true, &mut y);

        // Plain, damped, and with a non-identity reducer.
        type Reducer = fn(f64) -> f64;
        let cases: [(f64, Reducer); 3] = [(0.0, |v| v), (0.5, |v| v), (0.0, |v| 2.0 * v)];
        for (case, (damping, mut reduce)) in cases.into_iter().enumerate() {
            // Straight run.
            let mut ctx = ExecContext::serial();
            let mut straight = CglsSolver::new(&op, &y, damping, &mut ctx, &mut reduce);
            for _ in 0..14 {
                straight.step(&op, &mut ctx, &mut reduce);
            }

            // Interrupted run through a real file.
            let mut first = CglsSolver::new(&op, &y, damping, &mut ctx, &mut reduce);
            for _ in 0..6 {
                first.step(&op, &mut ctx, &mut reduce);
            }
            let path = tmp(&format!("cgls{case}.ckpt"));
            save_checkpoint(&path, first.snapshot()).unwrap();
            drop(first);
            let restored = load_checkpoint(&path).unwrap();
            assert_eq!(restored.iteration, 6);
            let mut resumed = CglsSolver::from_snapshot(&op, restored, damping, &mut ctx);
            for _ in 0..8 {
                resumed.step(&op, &mut ctx, &mut reduce);
            }
            for (a, b) in resumed.snapshot().x.iter().zip(&straight.snapshot().x) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn corrupted_checkpoint_rejected() {
        let path = tmp("bad.ckpt");
        std::fs::write(&path, b"GARBAGE.....").unwrap();
        match load_checkpoint(&path) {
            Err(CheckpointError::Format(m)) => assert!(m.contains("bad magic")),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_checkpoint_rejected() {
        let scan = ScanGeometry::uniform(ImageGrid::square(8, 1.0), 8);
        let sm = SystemMatrix::build(&scan);
        let op = SystemMatrixOperator::new(&sm);
        let y = vec![1.0f32; sm.num_rays()];
        let solver = CglsSolver::new(&op, &y, 0.0, &mut ExecContext::serial(), &mut |v| v);
        let path = tmp("trunc.ckpt");
        save_checkpoint(&path, solver.snapshot()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(CheckpointError::Os(_))
        ));
    }

    #[test]
    fn oversized_vector_length_rejected_before_allocating() {
        // A header claiming ~2^62 values must fail as a format error, not
        // wrap, panic, or abort on allocation.
        let path = tmp("huge.ckpt");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 62).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &bytes).unwrap();
        match load_checkpoint(&path) {
            Err(CheckpointError::Format(m)) => assert!(m.contains("exceeds"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }
}
