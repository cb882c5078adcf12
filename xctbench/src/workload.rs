//! The three benchmark workloads: their shapes, the entry point each one
//! drives, and the correctness tolerance its gate holds.

use std::time::Duration;
use xct_comm::{Topology, WireModel};
use xct_fp16::Precision;

/// Which public entry point a workload drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Path {
    /// `Reconstructor::new` → `reconstruct_volume_in` on a two-thread
    /// `ExecContext`.
    Serial,
    /// `Planner::plan` → `plan_fits` → `reconstruct_planned`.
    Planned {
        /// Simulated machine.
        topology: Topology,
        /// Slices per streamed slab forced through the memory budget
        /// (`None`: no budget, every slice resident).
        slab_slices: Option<usize>,
        /// Inter-node wire as (latency µs, MB/s).
        wire: Option<(f64, f64)>,
        /// Overlap each slice's global exchange with the next slice.
        overlap: bool,
    },
}

/// One workload: a fixed reconstruction problem and how it is run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Image side (voxels) and detector channels.
    pub n: usize,
    /// Projection angles.
    pub angles: usize,
    /// Slices in the volume.
    pub slices: usize,
    /// Precision mode of storage, wire and compute.
    pub precision: Precision,
    /// CGLS iterations per batch.
    pub iterations: usize,
    /// Slices fused into one batch (the CLI's `--batch`).
    pub batch: usize,
    /// Entry point and machine.
    pub path: Path,
    /// Upper bound the gate holds `rel_error` under.
    pub rel_error_tol: f64,
}

/// Compute threads of the serial path's executor (the host has two).
pub const SERIAL_THREADS: usize = 2;

/// Every workload, in the order the benchmark documents them.
pub const ALL: [Workload; 3] = [
    // Compute-bound: one fused batch of 8 slices through the serial
    // path, so SpMM, fp16 conversion and the solver dominate and no
    // communication runs.
    Workload {
        name: "fused_serial",
        n: 128,
        angles: 128,
        slices: 8,
        precision: Precision::Mixed,
        iterations: 24,
        batch: 8,
        path: Path::Serial,
        rel_error_tol: 0.2,
    },
    // Set-up- and mailbox-bound: two ranks on one socket with a budget
    // that forces four streamed slabs of two slices, each rebuilding
    // the matrix, decomposition and compiled plans.
    Workload {
        name: "streamed_pair",
        n: 96,
        angles: 96,
        slices: 8,
        precision: Precision::Single,
        iterations: 24,
        batch: 8,
        path: Path::Planned {
            topology: Topology {
                nodes: 1,
                sockets_per_node: 1,
                gpus_per_socket: 2,
            },
            slab_slices: Some(2),
            wire: None,
            overlap: false,
        },
        rel_error_tol: 0.2,
    },
    // Latency-bound: two single-rank nodes behind a slow wire, where the
    // blocking scalar allreduces of every CGLS iteration dominate.
    Workload {
        name: "wired_pair",
        n: 32,
        angles: 32,
        slices: 4,
        precision: Precision::Mixed,
        iterations: 96,
        batch: 8,
        path: Path::Planned {
            topology: Topology {
                nodes: 2,
                sockets_per_node: 1,
                gpus_per_socket: 1,
            },
            slab_slices: None,
            wire: Some((500.0, 50.0)),
            overlap: true,
        },
        rel_error_tol: 0.25,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.iter().copied().find(|w| w.name == name)
    }

    /// Voxel-iterations one reconstruction performs (slices · n² · iterations).
    pub fn voxel_iterations(&self) -> f64 {
        (self.slices * self.n * self.n * self.iterations) as f64
    }

    /// Ranks the workload's reconstruction runs on (1 for the serial path).
    pub fn ranks(&self) -> usize {
        match self.path {
            Path::Serial => 1,
            Path::Planned { topology, .. } => topology.size(),
        }
    }

    /// The simulated wire, if any, for `topology`.
    pub fn wire_model(&self) -> Option<WireModel> {
        match self.path {
            Path::Planned {
                wire: Some((lat_us, mbps)),
                topology,
                ..
            } => Some(WireModel {
                latency: Duration::from_secs_f64(lat_us * 1e-6),
                bytes_per_sec: mbps * 1e6,
                ranks_per_node: topology.gpus_per_node(),
            }),
            _ => None,
        }
    }

    /// Whether the workload's SpMM runs on half-precision storage.
    pub fn uses_fp16(&self) -> bool {
        self.precision.quantizes_to_half()
    }
}
