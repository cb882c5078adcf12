//! Steady-state allocation discipline, enforced by a counting allocator.
//!
//! The ExecContext/Workspace refactor exists so that *iterating* is free of
//! heap traffic: every per-apply staging buffer (quantized operands, kernel
//! accumulators, CG state) is taken from a warm workspace instead of
//! `vec![...]`-ed per call. These tests pin that property:
//!
//! - single-process CGLS stepping performs **zero** heap allocations once
//!   the workspace is warm (first step populates it) — and since the solver
//!   loops are instrumented with telemetry spans, this also proves the
//!   disabled-telemetry path is allocation-free;
//! - a disabled [`Telemetry`] handle performs zero allocations per
//!   span/event (the zero-overhead rule of DESIGN.md §3b), while an enabled
//!   one records spans without disturbing the workspace's steady state;
//! - the distributed path's per-iteration allocation count is **bounded and
//!   constant**: wire buffers are owned `Vec`s moved into channels (that is
//!   inherent to message passing), but the count per iteration must not
//!   grow, and the compute side must not add per-apply allocations on top;
//! - a clean verdict from the plan verifier's abstract-interpretation
//!   passes performs **zero** allocations after setup, because the passes
//!   run inside `--verify-plans` on the reconstruction path;
//! - whole runs, set-up included (serial CGLS, SpMM launches, distributed,
//!   wired and streamed reconstructions), stay within 20% of the
//!   allocation count recorded for each.
//!
//! The allocator counts every `alloc`/`realloc`/`alloc_zeroed` globally, so
//! this file is a `harness = false` test: [`main`] runs the cases one after
//! another on the main thread, and no other case's allocations can land in
//! a counting window.

// The counting allocator below is the only unsafe code in the
// workspace; every unsafe operation inside it must be explicit and
// carry its own SAFETY justification.
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use xct_comm::{
    run_ranks, CompiledPlans, ExchangeScratch, Footprints, HierarchicalPlan, Ownership, Topology,
    WireModel,
};
use xct_core::distributed::{reconstruct_distributed, DistributedConfig};
use xct_core::reconstruct_planned;
use xct_fp16::{Precision, F16};
use xct_geometry::{ImageGrid, ScanGeometry, SystemMatrix};
use xct_io::{FileKind, SliceFile, SliceReader, SliceWriter};
use xct_plan::{Planner, VolumeDims};
use xct_solver::{CglsSolver, ExecContext, Phase, PrecisionOperator, Telemetry};
use xct_spmm::{spmm_reference_with, spmm_with, Csr, PackedMatrix};
use xct_telemetry::MetricId;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method counts, then forwards to `System` verbatim — the
// allocator upholds `GlobalAlloc`'s contract iff `System` does, and the
// caller-provided layout/pointer obligations pass through unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, forwarded unmodified; the
        // caller guarantees it is non-zero-sized per `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` (all our methods
        // delegate to it) with this same `layout`, per the caller's
        // `dealloc` obligations.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block (see
        // `dealloc`), and the caller guarantees `new_size` is non-zero.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same forwarding argument as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn steady_state_cgls_steps_do_not_allocate() {
    let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 16);
    let sm = SystemMatrix::build(&scan);
    let csr = Csr::from_system_matrix(&sm);
    // Mixed precision exercises the widest staging path: adaptive f16
    // quantization on the way in, f32 accumulation, dequantization out.
    let op = PrecisionOperator::new(&csr, Precision::Mixed, 1, 64, 96 * 1024);
    let x_true: Vec<f32> = (0..sm.num_voxels()).map(|i| (i % 7) as f32 * 0.1).collect();
    let mut y = vec![0.0f32; sm.num_rays()];
    sm.project(&x_true, &mut y);

    let mut ctx = ExecContext::serial().with_precision(Precision::Mixed);
    // The default context carries a *disabled* telemetry handle — the
    // instrumented solver loop must stay allocation-free through it.
    assert!(!ctx.telemetry.is_enabled());
    let mut solver = CglsSolver::new(&op, &y, &mut ctx);
    // Warm-up: the first steps grow the workspace to its steady-state
    // footprint (quantization staging, kernel accumulators).
    for _ in 0..2 {
        solver.step(&op, &mut ctx);
    }

    let events_before = ctx.workspace.alloc_events();
    let heap_before = allocations();
    for _ in 0..10 {
        solver.step(&op, &mut ctx);
    }
    let heap_after = allocations();
    let events_after = ctx.workspace.alloc_events();

    assert_eq!(
        heap_after - heap_before,
        0,
        "steady-state CGLS steps must not touch the heap"
    );
    assert_eq!(
        events_before, events_after,
        "workspace must not grow after warm-up"
    );
}

fn disabled_telemetry_spans_and_events_do_not_allocate() {
    let telemetry = Telemetry::disabled();
    let before = allocations();
    for i in 0..1000 {
        let _outer = telemetry.span(Phase::SolverIteration);
        let _inner = telemetry.span(Phase::SpmmForward);
        telemetry.event("residual", f64::from(i) * 0.001);
    }
    assert_eq!(
        allocations() - before,
        0,
        "disabled telemetry must be a no-op on the heap"
    );
}

fn enabled_telemetry_leaves_workspace_steady_state_alone() {
    let scan = ScanGeometry::uniform(ImageGrid::square(12, 1.0), 12);
    let sm = SystemMatrix::build(&scan);
    let csr = Csr::from_system_matrix(&sm);
    let op = PrecisionOperator::new(&csr, Precision::Mixed, 1, 64, 96 * 1024);
    let x_true: Vec<f32> = (0..sm.num_voxels()).map(|i| (i % 7) as f32 * 0.1).collect();
    let mut y = vec![0.0f32; sm.num_rays()];
    sm.project(&x_true, &mut y);

    let telemetry = Telemetry::enabled();
    let mut ctx = ExecContext::serial()
        .with_precision(Precision::Mixed)
        .with_telemetry(telemetry.clone());
    let mut solver = CglsSolver::new(&op, &y, &mut ctx);
    for _ in 0..2 {
        solver.step(&op, &mut ctx);
    }
    // Recording goes to the collector, never through the workspace: the
    // buffer-reuse discipline is unchanged with collection switched on.
    let events_before = ctx.workspace.alloc_events();
    for _ in 0..5 {
        solver.step(&op, &mut ctx);
    }
    assert_eq!(ctx.workspace.alloc_events(), events_before);
    let snap = telemetry.snapshot();
    assert_eq!(
        snap.spans
            .iter()
            .filter(|s| s.phase == Phase::SolverIteration)
            .count(),
        7
    );
}

fn disabled_metrics_and_flight_recorder_record_nothing_and_do_not_allocate() {
    // Every metric primitive — counter add/inc, gauge set, histogram
    // observe, flight point — must be a single None-check when the
    // handle is disabled: no heap traffic and nothing recorded.
    let telemetry = Telemetry::disabled();
    let before = allocations();
    for i in 0..1000u64 {
        telemetry.metric_add(MetricId::CommSendBytes, i);
        telemetry.metric_inc(MetricId::SolverIterations);
        telemetry.gauge_set(MetricId::SolverResidual, i as f64 * 1e-3);
        telemetry.observe_ns(MetricId::CommWaitNs, i);
        telemetry.flight_point("alloc.probe", i, 0);
    }
    assert_eq!(
        allocations() - before,
        0,
        "disabled metrics/flight recorder must be a no-op on the heap"
    );
    assert!(
        telemetry.metrics_snapshot().tracks.is_empty(),
        "disabled registry must record nothing"
    );
    assert!(
        telemetry.flight_snapshot().is_empty(),
        "disabled flight recorder must record nothing"
    );
    assert!(telemetry.flight_dump_json("probe").is_none());
}

fn disabled_profile_context_calls_do_not_allocate() {
    // Both flavors of "profiling off": a fully disabled handle, and an
    // enabled handle on which enable_profile was never called. The
    // slab/slice context setters must be no-ops on the heap (a None
    // check, then at most an atomic store), and closing a span whose
    // phase maps to a cost component must not allocate through the
    // absent profile slab.
    let disabled = Telemetry::disabled();
    let enabled = Telemetry::enabled();
    assert!(!disabled.profile_enabled());
    assert!(!enabled.profile_enabled());
    let before = allocations();
    for i in 0..1000u32 {
        disabled.profile_slab_set(i % 4);
        disabled.profile_slice_set(i % 8);
        let _span = disabled.span(Phase::SpmmForward);
        enabled.profile_slab_set(i % 4);
        enabled.profile_slice_set(i % 8);
    }
    assert_eq!(
        allocations() - before,
        0,
        "profile context calls without an installed profile must not touch the heap"
    );
    assert!(disabled.profile_snapshot().is_none());
    assert!(enabled.profile_snapshot().is_none());
}

fn enabled_metrics_are_allocation_free_after_handle_creation() {
    // Enabled is the always-on production mode: the per-track atomic
    // slab and the fixed-capacity flight ring are allocated when the
    // handle registers, after which every recording path — including
    // flight-ring pushes past capacity (overwrite-oldest) — is heap-free.
    let telemetry = Telemetry::enabled();
    // Warm-up: first touches allocate nothing (slabs preallocate), but
    // run a full ring's worth to prove the wraparound path too.
    let before = allocations();
    for i in 0..1000u64 {
        telemetry.metric_add(MetricId::CommSendBytes, i);
        telemetry.metric_inc(MetricId::SolverIterations);
        telemetry.gauge_set(MetricId::SolverResidual, i as f64 * 1e-3);
        telemetry.observe_ns(MetricId::CommWaitNs, i);
        telemetry.flight_point("alloc.probe", i, 0);
    }
    assert_eq!(
        allocations() - before,
        0,
        "enabled metric recording must not touch the heap"
    );
    let snap = telemetry.metrics_snapshot();
    assert_eq!(snap.counter_total(MetricId::SolverIterations), 1000);
}

fn steady_state_compiled_exchange_does_not_allocate() {
    // Same fixture as the compiled-plan unit tests: 8 ranks on 2×2×2,
    // 32 rows, deterministic overlapping footprints.
    let topo = Topology::new(2, 2, 2);
    let owner: Vec<u32> = (0..32u32).map(|r| r / 4).collect();
    let fp: Vec<Vec<u32>> = (0..8usize)
        .map(|p| {
            (0..32u32)
                .filter(|&r| (r as usize * 7 + p * 3) % 5 < 3)
                .collect()
        })
        .collect();
    let footprints = Footprints::new(fp);
    let ownership = Ownership::new(owner, 8);
    let compiled = CompiledPlans::build_hierarchical(&footprints, &ownership, &topo);
    let compiled = &compiled;

    let deltas = run_ranks(8, move |comm| {
        let rp = compiled.rank(comm.rank());
        let mut scratch = ExchangeScratch::new();
        let vals: Vec<f32> = (0..rp.in_len())
            .map(|i| (comm.rank() + 1) as f32 * 0.125 + i as f32 * 0.01)
            .collect();
        let mut owned = vec![0.0f32; rp.owned_len()];
        let mut back = vec![0.0f32; rp.in_len()];

        // One block = five back-to-back reduce+scatter rounds with no
        // barrier in between, bracketed by barriers so only exchange work
        // from the 8 rank threads lands between the two counter reads.
        // Blocks must match the measured regime exactly: without barriers
        // ranks drift, and drifting deepens mailbox queues beyond what
        // barrier-separated rounds ever exercise.
        let run_block =
            |scratch: &mut ExchangeScratch, owned: &mut [f32], back: &mut [f32]| -> u64 {
                comm.barrier(0xA110).unwrap();
                let before = allocations();
                for _ in 0..5 {
                    rp.reduce::<F16>(comm, scratch, &vals, 4.0, 0.25, 0, owned)
                        .unwrap();
                    rp.scatter::<F16>(comm, scratch, owned, 4.0, 0.25, 0, back)
                        .unwrap();
                }
                comm.barrier(0xA110).unwrap();
                allocations() - before
            };

        // The assertion: the exchange must reach AND SUSTAIN an
        // allocation-free steady state — three consecutive blocks
        // (15 reduce+scatter rounds) during which no thread touches the
        // heap. A per-apply allocation regression (a `vec![...]` back in
        // the hot path) makes every block dirty and fails this
        // deterministically. The only tolerated dirt is a mailbox queue
        // growing past a new scheduling-dependent high-water mark, which
        // becomes rarer every block (capacity never shrinks) — the loop
        // simply retries until the high-water marks saturate.
        let mut stable = 0u32;
        let mut blocks = 0u32;
        while stable < 3 && blocks < 40 {
            let dirty = f64::from(u8::from(
                run_block(&mut scratch, &mut owned, &mut back) != 0,
            ));
            // Collective verdict so every rank runs the same number of
            // blocks (a per-rank decision would desynchronize barriers).
            if comm.allreduce_max(0xA120, dirty).unwrap() == 0.0 {
                stable += 1;
            } else {
                stable = 0;
            }
            blocks += 1;
        }
        assert!(
            stable >= 3,
            "rank {}: compiled exchange never sustained a zero-allocation \
             steady state within {blocks} blocks",
            comm.rank()
        );
        assert!(back.iter().all(|v| v.is_finite()));
        blocks
    });

    // The collective verdict forces every rank through the same number of
    // blocks; disagreement would mean the barrier protocol desynced.
    assert!(
        deltas.windows(2).all(|w| w[0] == w[1]),
        "ranks disagree on block count: {deltas:?}"
    );
}

fn disabled_telemetry_match_edges_do_not_allocate() {
    // The comm runtime records a causal [`EdgeRecord`] at every
    // send→recv match — but only when telemetry is on. With a disabled
    // handle the sender stamps nothing and the receiver's finish_match
    // must be a no-op on the heap: a warm pooled ping-pong stays at
    // exactly zero allocations per matched message.
    let deltas = run_ranks(2, |comm| {
        let peer = 1 - comm.rank();
        let round = |comm: &xct_comm::Communicator| {
            if comm.rank() == 0 {
                let mut buf = comm.pooled_buf(64);
                buf.extend_from_slice(&[0xABu8; 64]);
                comm.send(peer, 7, buf).unwrap();
                let back = comm.recv(peer, 8).unwrap();
                comm.recycle(back);
            } else {
                let msg = comm.recv(peer, 7).unwrap();
                comm.send(peer, 8, msg).unwrap();
            }
        };
        // Warm-up saturates the buffer pool and mailbox high-water marks.
        for _ in 0..32 {
            round(comm);
        }
        comm.barrier(0xE0).unwrap();
        let before = allocations();
        for _ in 0..64 {
            round(comm);
        }
        comm.barrier(0xE0).unwrap();
        allocations() - before
    });
    assert_eq!(
        deltas,
        vec![0, 0],
        "matching with telemetry disabled must never touch the heap"
    );
}

fn distributed_iterations_allocate_a_bounded_constant_amount() {
    let scan = ScanGeometry::uniform(ImageGrid::square(16, 1.0), 16);
    let sm = SystemMatrix::build(&scan);
    let phantom: Vec<f32> = (0..sm.num_voxels()).map(|i| (i % 5) as f32 * 0.2).collect();
    let mut y = vec![0.0f32; sm.num_rays()];
    sm.project(&phantom, &mut y);

    let run = |iterations: usize| -> u64 {
        let cfg = DistributedConfig {
            topology: Topology::new(1, 2, 2),
            precision: Precision::Mixed,
            hierarchical: true,
            iterations,
            ..Default::default()
        };
        let before = allocations();
        let result = reconstruct_distributed(&scan, &y, &cfg);
        assert_eq!(result.x.len(), sm.num_voxels());
        allocations() - before
    };

    // Setup costs (decomposition, plans, thread spawns) are identical for
    // every run, so the difference between runs isolates the per-iteration
    // allocation count. Wire buffers moved into channels make it nonzero,
    // but it must be the same for iterations 7..12 as for 13..18 — any
    // growth means an apply path regressed to per-call allocation.
    let a = run(6);
    let b = run(12);
    let c = run(18);
    let delta_early = b.saturating_sub(a);
    let delta_late = c.saturating_sub(b);
    let tolerance = delta_early / 10 + 64;
    assert!(
        delta_late <= delta_early + tolerance,
        "per-iteration allocations grew: iterations 7..12 cost {delta_early}, 13..18 cost {delta_late}"
    );
    // The amount itself is bounded too. Six-iteration windows counted 3 to
    // 37 allocations over 100 debug runs on a 2-vCPU host (wire buffers
    // allocated when the pool has not yet been refilled, which depends on
    // scheduling). One more allocation per rank in both A and Aᵀ adds 48
    // (4 ranks, 2 applies, 6 iterations) and breaks the bound.
    assert!(
        delta_early <= 48,
        "iterations 7..12 cost {delta_early} allocations, more than 48"
    );
}

fn clean_analysis_verdicts_do_not_allocate() {
    // Setup: everything the passes consume (plans built, re-homing
    // artifact constructed, schedule materialized), outside the window.
    let case = xct_verify::corpus::gen_case(3);
    let plan = HierarchicalPlan::build(&case.footprints, &case.ownership, &case.topology);
    let plans = CompiledPlans::compile_hierarchical(&case.footprints, &case.ownership, &plan);
    let ops = xct_verify::overlap_schedule(3, 4);
    let (steal_plans, steal_topo) = xct_verify::corpus::steal_fixture();
    let steal = xct_verify::SliceSteal {
        slice: 0,
        from: 0,
        to: 1,
    };
    let rehomed = xct_verify::rehome_slice(&steal_plans, steal);
    let concurrent = [0usize, 1, 2];

    // Warm-up outside the count (first-use lazy init, if any).
    assert!(xct_verify::verify_bounds(&plans).ok());
    assert!(xct_verify::verify_scratch_lifetime(0, &ops).ok());
    assert!(
        xct_verify::verify_transfer_safety(&steal_plans, &steal_topo, &concurrent, &rehomed).ok()
    );

    let before = allocations();
    let bounds = xct_verify::verify_bounds(&plans);
    let lifetime = xct_verify::verify_scratch_lifetime(0, &ops);
    let transfer =
        xct_verify::verify_transfer_safety(&steal_plans, &steal_topo, &concurrent, &rehomed);
    let allocs = allocations() - before;
    assert!(bounds.ok() && lifetime.ok() && transfer.ok());
    assert_eq!(
        allocs, 0,
        "a clean Layer-2 verdict (bounds, scratch lifetime, transfer safety) must not touch the heap"
    );
}

// Whole runs, set-up included, at one small shape: a 16×16 grid at 16
// angles, 2 fused slices, 3 CGLS iterations, single precision, telemetry
// on. Their allocation counts are inherent (plans, thread spawns, owned
// wire buffers), so each is held to the count recorded for it plus 20%
// for scheduling-dependent variation.
const RUN_N: usize = 16;
const RUN_FUSING: usize = 2;
const RUN_ITERATIONS: usize = 3;

fn run_scan() -> ScanGeometry {
    ScanGeometry::uniform(ImageGrid::square(RUN_N, 1.0), RUN_N)
}

/// `slices` projections of a deterministic test volume, slice-major.
fn run_sinogram(sm: &SystemMatrix, slices: usize) -> Vec<f32> {
    let mut x = vec![0.0f32; sm.num_voxels()];
    let mut y = vec![0.0f32; sm.num_rays() * slices];
    for (s, slice) in y.chunks_mut(sm.num_rays()).enumerate() {
        for (i, v) in x.iter_mut().enumerate() {
            *v = ((i + 7 * s) % 11) as f32 * 0.1;
        }
        sm.project(&x, slice);
    }
    y
}

/// CGLS set-up plus every iteration on one thread.
fn serial_run_allocations() -> u64 {
    let scan = run_scan();
    let sm = SystemMatrix::build(&scan);
    let csr = Csr::from_system_matrix(&sm);
    let op = PrecisionOperator::new(&csr, Precision::Single, RUN_FUSING, 64, 96 * 1024);
    let y = run_sinogram(&sm, RUN_FUSING);
    let mut ctx = ExecContext::serial()
        .with_precision(Precision::Single)
        .with_telemetry(Telemetry::enabled());
    let before = allocations();
    let mut solver = CglsSolver::new(&op, &y, &mut ctx);
    for _ in 0..RUN_ITERATIONS {
        solver.step(&op, &mut ctx);
    }
    allocations() - before
}

/// 300 launches of the panel kernel, or of the scalar reference, on one
/// packed f32 matrix at fusing 8.
fn spmm_launch_allocations(reference: bool) -> u64 {
    let sm = SystemMatrix::build(&run_scan());
    let csr = Csr::from_system_matrix(&sm);
    let fusing = 8;
    let packed = PackedMatrix::pack(&csr, 64, 96 * 1024, fusing);
    let x: Vec<f32> = (0..csr.num_cols() * fusing)
        .map(|i| (i % 13) as f32 * 0.125 - 0.5)
        .collect();
    let mut y = vec![0.0f32; csr.num_rows() * fusing];
    let mut ctx = ExecContext::serial().with_telemetry(Telemetry::enabled());
    let before = allocations();
    for _ in 0..300 {
        if reference {
            spmm_reference_with::<f32, f32>(&packed, &x, &mut y, &mut ctx);
        } else {
            spmm_with::<f32, f32>(&packed, &x, &mut y, &mut ctx);
        }
    }
    allocations() - before
}

/// One `reconstruct_distributed` call, hierarchical, optionally behind a
/// 300 µs × 50 MB/s wire between nodes.
fn distributed_run_allocations(topology: Topology, overlap: bool, wired: bool) -> u64 {
    let scan = run_scan();
    let y = run_sinogram(&SystemMatrix::build(&scan), RUN_FUSING);
    let cfg = DistributedConfig {
        topology,
        precision: Precision::Single,
        fusing: RUN_FUSING,
        hierarchical: true,
        overlap,
        wire: wired.then(|| WireModel {
            latency: Duration::from_micros(300),
            bytes_per_sec: 50e6,
            ranks_per_node: topology.gpus_per_node(),
        }),
        iterations: RUN_ITERATIONS,
        telemetry: Telemetry::enabled(),
        ..Default::default()
    };
    let before = allocations();
    let result = reconstruct_distributed(&scan, &y, &cfg);
    let allocs = allocations() - before;
    assert_eq!(result.x.len(), scan.grid.nx * scan.grid.nz * RUN_FUSING);
    allocs
}

/// One `reconstruct_planned` call on 1×2×2 whose per-rank budget admits
/// `RUN_FUSING` of `2·RUN_FUSING` slices, so it streams two slabs
/// through the file reader and writer.
fn streamed_run_allocations() -> u64 {
    let scan = run_scan();
    let slices = 2 * RUN_FUSING;
    let sm = SystemMatrix::build(&scan);
    let dir = std::env::temp_dir().join(format!("petaxct_alloc_free_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (sino, vol) = (dir.join("sino.xctd"), dir.join("vol.xctd"));
    let meta = |kind, slice_len| SliceFile {
        kind,
        precision: Precision::Single,
        slices,
        slice_len,
    };
    let mut w = SliceWriter::create(&sino, meta(FileKind::Sinogram, sm.num_rays())).unwrap();
    for slice in run_sinogram(&sm, slices).chunks(sm.num_rays()) {
        w.write_slice(slice).unwrap();
    }
    w.finish().unwrap();

    let topology = Topology::new(1, 2, 2);
    let planner = Planner {
        precision: Precision::Single,
        hierarchical: true,
        overlap: false,
        max_fusing: slices,
        kernel: None,
    };
    let dims = VolumeDims { n: RUN_N, slices };
    let probe = planner.plan(dims, RUN_N, None, topology).unwrap();
    let budget = probe.matrix_bytes_per_rank() + RUN_FUSING as u64 * probe.slice_bytes_per_rank();
    let plan = planner.plan(dims, RUN_N, Some(budget), topology).unwrap();
    assert_eq!(plan.slabs.len(), 2, "the budget must force two slabs");
    let base = DistributedConfig {
        iterations: RUN_ITERATIONS,
        telemetry: Telemetry::enabled(),
        ..Default::default()
    };
    let reader = SliceReader::open(&sino).unwrap();
    let writer = SliceWriter::create(&vol, meta(FileKind::Volume, sm.num_voxels())).unwrap();
    let before = allocations();
    let outcome = reconstruct_planned(&scan, &plan, reader, writer, &base).unwrap();
    let allocs = allocations() - before;
    assert_eq!(outcome.stats.slices, slices);
    drop(outcome);
    std::fs::remove_dir_all(&dir).unwrap();
    allocs
}

fn whole_runs_stay_within_their_allocation_budgets() {
    // Debug builds also verify every distributed run's plans
    // (crates/core/src/distributed.rs), which allocates, so each run has a
    // count recorded in a release build and one in a debug build.
    let mut over = Vec::new();
    let mut budget = |name: &str, release: u64, debug: u64, counted: u64| {
        let recorded = if cfg!(debug_assertions) {
            debug
        } else {
            release
        };
        if counted > recorded + recorded / 5 {
            over.push(format!(
                "{name}: {counted} allocations, recorded {recorded}"
            ));
        }
    };
    let (single_node, two_nodes) = (Topology::new(1, 2, 2), Topology::new(2, 2, 2));
    budget("serial", 14, 14, serial_run_allocations());
    budget("spmm_kernel", 4, 4, spmm_launch_allocations(false));
    budget("spmm_reference", 4, 4, spmm_launch_allocations(true));
    budget(
        "distributed_1x2x2_sync",
        9385,
        13622,
        distributed_run_allocations(single_node, false, false),
    );
    budget(
        "distributed_1x2x2_overlap",
        9373,
        13666,
        distributed_run_allocations(single_node, true, false),
    );
    budget(
        "wired_2x2x2_sync",
        11967,
        18752,
        distributed_run_allocations(two_nodes, false, true),
    );
    budget(
        "wired_2x2x2_overlap",
        11983,
        18895,
        distributed_run_allocations(two_nodes, true, true),
    );
    budget("streamed_1x2x2", 18769, 27254, streamed_run_allocations());
    assert!(
        over.is_empty(),
        "whole runs exceed their recorded allocation count by more than 20%: {over:?}"
    );
}

/// `(name, case)` pairs, named after their functions.
macro_rules! cases {
    ($($case:ident),* $(,)?) => { &[$((stringify!($case), $case as fn())),*] };
}

/// Every case, in run order.
const CASES: &[(&str, fn())] = cases![
    steady_state_cgls_steps_do_not_allocate,
    disabled_telemetry_spans_and_events_do_not_allocate,
    enabled_telemetry_leaves_workspace_steady_state_alone,
    disabled_metrics_and_flight_recorder_record_nothing_and_do_not_allocate,
    disabled_profile_context_calls_do_not_allocate,
    enabled_metrics_are_allocation_free_after_handle_creation,
    steady_state_compiled_exchange_does_not_allocate,
    disabled_telemetry_match_edges_do_not_allocate,
    distributed_iterations_allocate_a_bounded_constant_amount,
    clean_analysis_verdicts_do_not_allocate,
    whole_runs_stay_within_their_allocation_budgets,
];

/// A sequential runner speaking enough of libtest's command line and
/// output for `cargo test`: name filters (substring, or whole name under
/// `--exact`), `--skip`, `--list`, `--ignored` (no case is ignored, so it
/// selects none), and one `test <name> ... ok|FAILED` line per case.
/// Output and threading options are accepted and have no effect; any
/// other option is an error.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut exact, mut list, mut ignored_only) = (false, false, false);
    let mut filters = Vec::new();
    let mut skips = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        // `--flag=value` is the same as `--flag value`.
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => (flag, Some(value.to_string())),
            _ => (arg.as_str(), None),
        };
        let mut value = || inline.clone().or_else(|| it.next().cloned());
        match flag {
            "--exact" => exact = true,
            "--list" => list = true,
            "--ignored" => ignored_only = true,
            "--skip" => skips.extend(value()),
            "--include-ignored" | "--nocapture" | "--show-output" | "--quiet" | "-q" => {}
            "--test-threads" | "--color" | "--format" | "--logfile" | "-Z" => {
                value();
            }
            _ if !flag.starts_with('-') => filters.push(arg.as_str()),
            _ => {
                eprintln!("error: unrecognized option `{arg}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let matches = |name: &str, pat: &str| {
        if exact {
            name == pat
        } else {
            name.contains(pat)
        }
    };
    let selected: Vec<&(&str, fn())> = CASES
        .iter()
        .filter(|(name, _)| filters.is_empty() || filters.iter().any(|f| matches(name, f)))
        .filter(|(name, _)| !skips.iter().any(|s| matches(name, s)))
        .filter(|_| !ignored_only)
        .collect();
    if list {
        for (name, _) in &selected {
            println!("{name}: test");
        }
        return ExitCode::SUCCESS;
    }

    let plural = if selected.len() == 1 { "" } else { "s" };
    println!("\nrunning {} test{plural}", selected.len());
    let mut failed = Vec::new();
    for (name, case) in &selected {
        let ok = std::panic::catch_unwind(*case).is_ok();
        println!("test {name} ... {}", if ok { "ok" } else { "FAILED" });
        if !ok {
            failed.push(*name);
        }
    }
    println!(
        "\ntest result: {}. {} passed; {} failed; 0 ignored; 0 measured; {} filtered out\n",
        if failed.is_empty() { "ok" } else { "FAILED" },
        selected.len() - failed.len(),
        failed.len(),
        CASES.len() - selected.len()
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
