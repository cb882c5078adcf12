//! Fig 10: breakdown of end-to-end reconstruction time
//! (Kernel / Comm / Idle / CG / I-O) for Shale on 4 nodes and Charcoal
//! on 128 nodes, three optimization levels × three precisions,
//! communications synchronized for attribution (model mode) — followed
//! by a *measured* per-phase breakdown of a real mini distributed run
//! captured through the telemetry layer.

use xct_bench::fmt_time;
use xct_cluster::MachineSpec;
use xct_comm::Topology;
use xct_core::distributed::{reconstruct_distributed, DistributedConfig};
use xct_core::model::{HierarchyRatios, ModelExperiment, OptLevel};
use xct_core::Partitioning;
use xct_fp16::Precision;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_plan::{Planner, VolumeDims};
use xct_telemetry::{Breakdown, Telemetry};

fn main() {
    println!("FIG 10: End-to-end reconstruction time breakdown (synchronized, model mode)");
    for (name, k, m, n, nodes) in [
        (
            "Shale on 4 nodes (24 GPUs)",
            1501usize,
            1792usize,
            2048usize,
            4usize,
        ),
        ("Charcoal on 128 nodes (768 GPUs)", 4500, 4198, 6613, 128),
    ] {
        println!();
        println!("== {name} ==");
        let header = format!(
            "{:<8} {:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "Prec.", "Opts", "Kernel", "Comm", "Idle", "CG", "I/O", "Total"
        );
        println!("{header}");
        println!("{}", "-".repeat(header.len()));
        let machine = MachineSpec::summit(nodes);
        for precision in [Precision::Double, Precision::Single, Precision::Mixed] {
            let partitioning = Partitioning::optimal_for(k, m, n, &machine, precision);
            for (label, opt) in [
                ("Part.", OptLevel::partitioning_only()),
                ("+Kernel", OptLevel::with_kernel()),
                (
                    "+Comm.*",
                    OptLevel {
                        kernel_opt: true,
                        comm_hierarchical: true,
                        comm_overlap: false, // *synchronized for attribution
                    },
                ),
            ] {
                let est = ModelExperiment {
                    projections: k,
                    rows: m,
                    channels: n,
                    machine,
                    partitioning,
                    precision,
                    opt,
                    fusing: 16,
                    iterations: 30,
                    ratios: HierarchyRatios::paper(),
                    imbalance: 0.07,
                }
                .run();
                println!(
                    "{:<8} {:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    precision.label(),
                    label,
                    fmt_time(est.breakdown.kernel),
                    fmt_time(est.breakdown.comm_total() + est.breakdown.memcpy),
                    fmt_time(est.breakdown.idle),
                    fmt_time(est.cg_seconds),
                    fmt_time(est.io_seconds),
                    fmt_time(est.total_seconds),
                );
            }
        }
    }
    println!();
    println!("Shape checks (paper IV-B): optimized SpMM slashes kernel time;");
    println!("execution is communication-dominated for most configurations;");
    println!("hierarchical communication cuts comm time by >50%.");

    // Assert the headline shapes for Charcoal/mixed.
    let machine = MachineSpec::summit(128);
    let partitioning = Partitioning::optimal_for(4500, 4198, 6613, &machine, Precision::Mixed);
    let run = |opt| {
        ModelExperiment {
            projections: 4500,
            rows: 4198,
            channels: 6613,
            machine,
            partitioning,
            precision: Precision::Mixed,
            opt,
            fusing: 16,
            iterations: 30,
            ratios: HierarchyRatios::paper(),
            imbalance: 0.07,
        }
        .run()
    };
    let part = run(OptLevel::partitioning_only());
    let kern = run(OptLevel::with_kernel());
    let comm = run(OptLevel {
        kernel_opt: true,
        comm_hierarchical: true,
        comm_overlap: false,
    });
    assert!(
        kern.breakdown.kernel < part.breakdown.kernel / 2.0,
        "kernel opt >2x"
    );
    assert!(
        kern.breakdown.comm_total() > kern.breakdown.kernel,
        "comm dominates after kernel opt"
    );
    assert!(
        comm.breakdown.comm_total() < kern.breakdown.comm_total() * 0.5,
        "hierarchy cuts comm by >50%"
    );
    println!("All shape checks passed.");

    // Measured companion: the same breakdown captured from real spans of
    // a mini distributed reconstruction (8 ranks, hierarchical comm).
    println!();
    println!("== Measured mini-scale breakdown (telemetry spans, 2x2x2 ranks) ==");
    let scan = ScanGeometry::uniform(ImageGrid::square(24, 1.0), 24);
    let sm = SystemMatrix::build(&scan);
    let x_true: Vec<f32> = (0..sm.num_voxels())
        .map(|i| ((i * 13 + 5) % 17) as f32 / 17.0)
        .collect();
    let mut y = vec![0.0f32; sm.num_rays()];
    sm.project(&x_true, &mut y);
    let telemetry = Telemetry::enabled();
    let plan = Planner {
        precision: Precision::Mixed,
        hierarchical: true,
        ..Default::default()
    }
    .plan(
        VolumeDims { n: 24, slices: 1 },
        24,
        None,
        Topology::new(2, 2, 2),
    )
    .expect("plan");
    let cfg = DistributedConfig {
        iterations: 10,
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let result = reconstruct_distributed(&scan, &y, &plan, &cfg);
    let breakdown = Breakdown::from_snapshot(&telemetry.snapshot());
    println!("{}", breakdown.render_table());
    println!("merged rank counters: {}", result.counters);
    assert!(
        !breakdown.stats.is_empty(),
        "measured run must produce phase stats"
    );
}
