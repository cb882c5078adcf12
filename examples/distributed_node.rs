//! A full distributed reconstruction across simulated fat nodes: eight
//! ranks (2 nodes × 2 sockets × 2 GPUs) run the optimized kernels on
//! Hilbert subdomains, exchange partial sinograms through the
//! *three-level hierarchical* reduction, and solve a shared CGLS with
//! allreduce inner products — the whole §III pipeline, executable.
//!
//! ```sh
//! cargo run --release --example distributed_node
//! ```

use petaxct::comm::Topology;
use petaxct::core::distributed::{reconstruct_distributed, DistributedConfig};
use petaxct::fp16::Precision;
use petaxct::geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use petaxct::phantom::charcoal_like;
use petaxct::plan::{Planner, VolumeDims};

fn main() {
    let n = 32;
    let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), 32);
    let sm = SystemMatrix::build(&scan);
    let phantom = charcoal_like(n, 21);
    let mut sinogram = vec![0.0f32; sm.num_rays()];
    sm.project(&phantom.data, &mut sinogram);

    let topology = Topology::new(2, 2, 2);
    println!(
        "topology: {} nodes x {} sockets x {} GPUs = {} ranks",
        topology.nodes,
        topology.sockets_per_node,
        topology.gpus_per_socket,
        topology.size()
    );

    for hierarchical in [false, true] {
        let plan = Planner {
            precision: Precision::Mixed,
            hierarchical,
            ..Default::default()
        }
        .plan(VolumeDims { n, slices: 1 }, 32, None, topology)
        .expect("plan");
        let cfg = DistributedConfig {
            iterations: 20,
            ..Default::default()
        };
        let result = reconstruct_distributed(&scan, &sinogram, &plan, &cfg);
        let (s, nd, g) = result.comm_elements;
        let err = {
            let num: f64 = result
                .x
                .iter()
                .zip(&phantom.data)
                .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
                .sum();
            let den: f64 = phantom.data.iter().map(|&v| f64::from(v).powi(2)).sum();
            (num / den).sqrt()
        };
        println!(
            "\n{} exchange:",
            if hierarchical {
                "hierarchical"
            } else {
                "direct"
            }
        );
        println!("  comm elements per pass: socket {s}, node {nd}, global {g}");
        println!(
            "  final residual {:.5}, image error {err:.4}",
            result.residual_history.last().unwrap()
        );
    }
    println!(
        "\nBoth schemes produce the same reconstruction; the hierarchy just \
         moves most of the traffic onto fast local links (paper III-D)."
    );
}
