//! Cross-rank causal analysis, end to end.
//!
//! Two angles on the critical-path machinery:
//!
//! * a property test on randomized multi-track span/edge layouts pinning
//!   the fundamental lower bound — the critical path can never be shorter
//!   than any single rank's busy time, because each track's program-order
//!   chain is itself a path through the happens-before DAG;
//! * a wired 2×2×2 reconstruction (the Fig. 11 configuration) showing the
//!   overlapped schedule's critical path beating the synchronous one —
//!   the measured counterpart of the paper's ~21–29% overlap gain.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use xct_comm::{Topology, WireModel};
use xct_core::distributed::{reconstruct_distributed, DistributedConfig};
use xct_fp16::Precision;
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_plan::{Planner, VolumeDims};
use xct_telemetry::{CausalAnalysis, ManualClock, Phase, Telemetry};

const TRACKS: u32 = 3;

/// Replays a seed-derived layout of disjoint spans per track plus random
/// match edges onto a [`ManualClock`]-timed collector, returning the
/// analysis and each track's busy total.
fn random_trace(seed: u64) -> (CausalAnalysis, Vec<(u32, u64)>) {
    let mut rng = TestRng::from_seed(seed);
    let clock = Arc::new(ManualClock::new());
    let root = Telemetry::with_clock(clock.clone());
    let tracks: Vec<Telemetry> = (0..TRACKS).map(|t| root.fork(t)).collect();

    let mut busy = Vec::new();
    let mut horizon = 0u64;
    for (t, tele) in tracks.iter().enumerate() {
        let mut cursor = rng.next_u64() % 50;
        let spans = 1 + rng.next_u64() % 4;
        let mut total = 0u64;
        for _ in 0..spans {
            let start = cursor + rng.next_u64() % 40;
            let len = 1 + rng.next_u64() % 100;
            clock.set(start);
            let guard = tele.span(Phase::Custom("prop.work"));
            clock.set(start + len);
            drop(guard);
            cursor = start + len;
            total += len;
        }
        horizon = horizon.max(cursor);
        busy.push((t as u32, total));
    }

    for _ in 0..rng.next_u64() % 5 {
        let src = (rng.next_u64() % u64::from(TRACKS)) as u32;
        let dst = (rng.next_u64() % u64::from(TRACKS)) as u32;
        if src == dst {
            continue;
        }
        let sent = rng.next_u64() % (horizon + 1);
        let wire = rng.next_u64() % 50;
        let matched = sent + wire + rng.next_u64() % 30;
        clock.set(matched);
        tracks[dst as usize].edge(src, 0x77, 256, sent, wire);
    }

    (CausalAnalysis::from_snapshot(&root.snapshot()), busy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The critical path dominates every rank's local busy total: each
    /// track's own program-order chain is one path through the DAG, so
    /// no wiring of match edges can push the longest path below it.
    #[test]
    fn critical_path_dominates_every_ranks_busy_time(seed in 0u64..4096) {
        let (analysis, busy) = random_trace(seed);
        for (track, total) in &busy {
            prop_assert!(
                analysis.critical_path_ns >= *total,
                "cp {} < busy {} of track {} (seed {})",
                analysis.critical_path_ns, total, track, seed
            );
            let rank = analysis.per_rank.iter().find(|r| r.track == *track);
            let rank = rank.expect("every spanning track appears in per_rank");
            prop_assert_eq!(rank.busy_ns, *total);
            prop_assert!(rank.slack_ns <= analysis.critical_path_ns);
        }
        prop_assert!(analysis.wire_on_path_ns <= analysis.critical_path_ns);
        if !analysis.per_rank.is_empty() {
            prop_assert!(
                analysis.per_rank.iter().any(|r| r.slack_ns == 0),
                "the path-defining rank must have zero slack (seed {})", seed
            );
        }
    }
}

/// Minimum critical path over `reps` traced wired runs.
fn wired_critical_path(scan: &ScanGeometry, y: &[f32], overlap: bool, reps: usize) -> u64 {
    let topology = Topology::new(2, 2, 2);
    let wire = WireModel {
        latency: Duration::from_micros(600),
        bytes_per_sec: 50e6,
        ranks_per_node: topology.size() / 2,
    };
    let (n, slices) = (scan.grid.nx, 4);
    let plan = Planner {
        precision: Precision::Single,
        hierarchical: true,
        overlap,
        max_fusing: slices,
        kernel: None,
    }
    .plan(VolumeDims { n, slices }, scan.angles.len(), None, topology)
    .unwrap();
    (0..reps)
        .map(|_| {
            let telemetry = Telemetry::enabled();
            let cfg = DistributedConfig {
                wire: Some(wire),
                iterations: 3,
                telemetry: telemetry.clone(),
                ..Default::default()
            };
            reconstruct_distributed(scan, y, &plan, &cfg);
            CausalAnalysis::from_snapshot(&telemetry.snapshot()).critical_path_ns
        })
        .min()
        .unwrap()
}

/// On the comm-bound wired 2×2×2 configuration, overlapping global
/// communication with compute must shorten the measured critical path:
/// the synchronous schedule serializes every wire wait into the path,
/// the overlapped one hides it behind the next slice's kernels.
#[test]
fn overlap_shortens_the_wired_critical_path() {
    let (n, fusing) = (24usize, 4usize);
    let scan = ScanGeometry::uniform(ImageGrid::square(n, 1.0), n);
    let sm = SystemMatrix::build(&scan);
    let mut x_true = vec![0.0f32; sm.num_voxels() * fusing];
    for (i, v) in x_true.iter_mut().enumerate() {
        *v = ((i % 11) as f32) * 0.1;
    }
    let mut y = vec![0.0f32; sm.num_rays() * fusing];
    for f in 0..fusing {
        sm.project(
            &x_true[f * sm.num_voxels()..(f + 1) * sm.num_voxels()],
            &mut y[f * sm.num_rays()..(f + 1) * sm.num_rays()],
        );
    }

    let cp_sync = wired_critical_path(&scan, &y, false, 2);
    let cp_over = wired_critical_path(&scan, &y, true, 2);
    assert!(cp_sync > 0 && cp_over > 0);
    // In unoptimized builds the kernels run an order of magnitude slower
    // while the simulated wire does not, so the run stops being
    // comm-bound and the gain drowns in compute noise — the strict
    // inequality is meaningful (and stable) only with optimization on,
    // the same trade fig11_comm_time makes for its --quick mode.
    if cfg!(debug_assertions) {
        eprintln!("debug build: cp_sync={cp_sync} cp_over={cp_over} (strict check skipped)");
    } else {
        assert!(
            cp_over < cp_sync,
            "overlapped critical path {cp_over} ns must beat synchronous {cp_sync} ns"
        );
    }
}
